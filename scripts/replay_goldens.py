"""Replay the pinned float-path runs with NumPy blocked.

Usage: ``python scripts/replay_goldens.py`` from any directory, on any
CPython the package supports; it needs neither NumPy nor pytest.

The pinned runs and their sha256 hashes are read from
``tests/test_golden_traces.py`` (``GOLDEN_RUNS``) with ``ast.literal_eval``,
so they live in one place; a name in them, such as ``CUSTOM_CLAIM``, stands
for that module's own literal constant.  Every run of dimension at most
``solvers._FLOAT_DIM`` that does not estimate m_bar (whose sphere draw is
NumPy's) is executed here, its trace CSV and summary JSON hashed as the
test hashes them, and compared with the pinned pair.  Every import of NumPy
raises, so a replay shows that a small run's bytes come from the package
and the interpreter alone.  Prints one line per run and exits 1 on any
mismatch.
"""

import ast
import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.modules["numpy"] = None
sys.path.insert(0, str(ROOT / "src"))

from agdsmooth import solvers  # noqa: E402
from agdsmooth.config import claimed_problem, config_from_dict, execute  # noqa: E402

GOLDEN_FILE = ROOT / "tests" / "test_golden_traces.py"
PATH_KEYS = ("trace_path", "summary_path")


def golden_runs() -> dict:
    """``GOLDEN_RUNS`` of the golden test module, each name in it replaced
    by the module-level literal it is bound to."""
    tree = ast.parse(GOLDEN_FILE.read_text(), filename=str(GOLDEN_FILE))
    constants, runs = {}, None
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        name = node.targets[0].id
        if name == "GOLDEN_RUNS":
            runs = node.value
        else:
            try:
                constants[name] = ast.literal_eval(node.value)
            except ValueError:
                pass  # not a literal, so GOLDEN_RUNS cannot name it

    class Inline(ast.NodeTransformer):
        def visit_Name(self, node):
            return ast.Constant(constants[node.id])

    return ast.literal_eval(Inline().visit(runs))


def summary_digest(text: str) -> str:
    """The test's hash of a summary: the output paths removed, the record
    re-serialized as ``execute`` writes it."""
    summary = json.loads(text)
    for key in PATH_KEYS:
        summary.pop(key, None)
        summary["config"].pop(key, None)
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def why_skipped(settings: dict) -> str:
    """Why a run is not replayed here ("" if it is)."""
    cfg = config_from_dict(settings)
    problem = claimed_problem(cfg.problem, cfg.problem_params, cfg.ell)
    if problem.dim > solvers._FLOAT_DIM:
        return "steps on arrays"
    if (cfg.algorithm == "agd1" and cfg.m_bar is None
            and math.isfinite(problem.ell_model.delta_max)):
        return "estimates m_bar"
    return ""


def main() -> int:
    mismatches = replayed = 0
    with tempfile.TemporaryDirectory() as tmp:
        trace, summary = Path(tmp) / "trace.csv", Path(tmp) / "summary.json"
        for name, (settings, trace_sha, summary_sha) in sorted(golden_runs().items()):
            skipped = why_skipped(settings)
            if skipped:
                print(f"skip {name}: {skipped}")
                continue
            execute(config_from_dict(
                {**settings, "trace_path": str(trace), "summary_path": str(summary)}))
            got = (hashlib.sha256(trace.read_bytes()).hexdigest(),
                   summary_digest(summary.read_text()))
            replayed += 1
            wrong = [part for part, a, b in zip(("trace", "summary"), got,
                                                (trace_sha, summary_sha)) if a != b]
            if wrong:
                mismatches += 1
                print(f"MISMATCH {name}: {' and '.join(wrong)}")
            else:
                print(f"ok {name}")
    print(f"{replayed} runs replayed, {mismatches} mismatched, on "
          f"{platform.python_implementation()} {platform.python_version()} without NumPy")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
