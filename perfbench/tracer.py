"""Span tracing of the agdsmooth layers, applied from outside the package.

The tracer replaces module-level names (``agdsmooth.solvers.psi_inverse``,
``agdsmooth.problems.evaluate``, ...) with wrappers in every package module
that binds them, so calls between modules go through the wrapper without any
change to ``src/``.  Boundary functions record spans (name, start, end,
parent, op id) into flat arrays kept in memory; hot leaf functions such as
``ell_eval`` only count calls.  ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

import numpy as np

PACKAGE = "agdsmooth"
ROOT_SPAN = "perfbench.op"

# (metric name, "module.attr" of the object to wrap, kind).  A span records
# its own interval; a count only tallies calls.  The metric name is the layer
# that owns the work; scipy's quad is named after the module that calls it.
BOUNDARIES = (
    ("smoothness.psi_inverse", "smoothness.psi_inverse", "span"),
    ("smoothness.q_inverse", "smoothness.q_inverse", "span"),
    ("smoothness.quad", "smoothness.quad", "span"),
    ("smoothness.delta_left_right", "smoothness.delta_left_right", "span"),
    ("smoothness.psi_eval", "smoothness.psi_eval", "count"),
    ("smoothness.ell_eval", "smoothness.ell_eval", "count"),
    ("smoothness.q_eval", "smoothness.q_eval", "count"),
    ("problems.evaluate", "problems.evaluate", "span"),
    ("problems.project_closure", "problems.project_closure", "span"),
    ("solvers.agd_step", "solvers.agd_step", "span"),
    ("solvers.warmup_iterations_bound", "solvers.warmup_iterations_bound", "span"),
    ("solvers.algorithm1_run", "solvers.algorithm1_run", "span"),
    ("solvers.algorithm2_run", "solvers.algorithm2_run", "span"),
    ("config.write_trace_csv", "solvers.write_trace_csv", "span"),
    ("verify.quad", "verify.quad", "span"),
    ("verify.check_gradient_transfer", "verify.check_gradient_transfer", "span"),
    ("verify.check_convexity_smoothness", "verify.check_convexity_smoothness", "span"),
    ("verify.check_descent_step", "verify.check_descent_step", "span"),
    ("verify.check_gap_to_grad", "verify.check_gap_to_grad", "span"),
    ("verify.run_all_checks", "verify.run_all_checks", "span"),
    ("config.execute", "config.execute", "span"),
    ("config.run_sweep", "config.run_sweep", "span"),
    ("cli.main", "cli.main", "span"),
)

# Objects not defined by the package are patched only at the named site, so
# that two callers of one foreign function stay two metrics.
_SITE_ONLY = {"smoothness.quad", "verify.quad"}


def _package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Holds the spans and call counts of one benchmark process."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.span_names: list[str] = [ROOT_SPAN]
        self.count_names: list[str] = []
        self._counts: list[list[int]] = []
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._op_id = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    # --- installing wrappers --------------------------------------------

    def install(self) -> None:
        """Wrap every boundary name that exists in the imported package.

        The wrappers are made on the first call and reused afterwards, so a
        tracer can be installed around each traced op and removed between.
        """
        if not self._patches:
            self._patches = self._plan()
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        modules = {mod.__name__[len(PACKAGE) + 1:]: mod for mod in _package_modules()}
        patches = []
        for metric, target, kind in self.boundaries:
            mod_name, attr = target.split(".")
            home = modules.get(mod_name)
            if home is None or not hasattr(home, attr):
                continue  # the layer no longer has this name; its metrics read 0
            original = getattr(home, attr)
            wrapper = self._span(metric, original) if kind == "span" else self._count(metric, original)
            sites = [home] if metric in _SITE_ONLY else modules.values()
            for mod in sites:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, name, original, wrapper))
        return patches

    def _span(self, metric: str, fn):
        name_id = len(self.span_names)
        self.span_names.append(metric)
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack, op_id = self._start, self._end, self._stack, self._op_id
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(op_id[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return wrapper

    def _count(self, metric: str, fn):
        cell = [0]
        self.count_names.append(metric)
        self._counts.append(cell)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- one traced op ----------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Call ``fn`` under a root span; returns (result, seconds, counts)."""
        before = [cell[0] for cell in self._counts]
        self._op_id[0] = op_id
        idx = len(self._name)
        self._name.append(0)
        self._parent.append(-1)
        self._op.append(op_id)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._start[idx] = t0
            self._end[idx] = t1
            self._op_id[0] = -1
        counts = {
            name: cell[0] - b
            for name, cell, b in zip(self.count_names, self._counts, before)
        }
        return out, t1 - t0, counts

    # --- derived figures --------------------------------------------------

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per op id and span name: calls, inclusive time, self time.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        n = len(self._name)
        if n == 0:
            return {}
        names, parents, ops = self._arrays()
        dur = np.array(self._end, dtype=np.float64) - np.array(self._start, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        out: dict[int, dict[str, dict[str, float]]] = {}
        for op in np.unique(ops):
            sel = ops == op
            k = len(self.span_names)
            calls = np.bincount(names[sel], minlength=k)
            incl = np.bincount(names[sel], weights=dur[sel], minlength=k)
            excl = np.bincount(names[sel], weights=self_time[sel], minlength=k)
            out[int(op)] = {
                name: {"calls": int(calls[i]), "time_s": float(incl[i]), "self_s": float(excl[i])}
                for i, name in enumerate(self.span_names)
            }
        return out

    def calls_under(self, op_id: int, name: str, parent_names) -> int:
        """Spans called ``name`` in op ``op_id`` whose direct parent is one
        of ``parent_names``."""
        if name not in self.span_names:
            return 0
        parent_ids = [self.span_names.index(p) for p in parent_names if p in self.span_names]
        names, parents, ops = self._arrays()
        sel = (names == self.span_names.index(name)) & (ops == op_id) & (parents >= 0)
        return int(np.count_nonzero(np.isin(names[parents[sel]], parent_ids)))

    def _arrays(self):
        return (
            np.array(self._name, dtype=np.int32),
            np.array(self._parent, dtype=np.int32),
            np.array(self._op, dtype=np.int32),
        )

    def span_count(self) -> int:
        return len(self._name)

    def write(self, path) -> None:
        """Write every span as gzip CSV: name,start,end,parent,op."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("name,start,end,parent,op\n")
            names = self.span_names
            for i in range(len(self._name)):
                fh.write(
                    f"{names[self._name[i]]},{self._start[i]!r},{self._end[i]!r},"
                    f"{self._parent[i]},{self._op[i]}\n"
                )
