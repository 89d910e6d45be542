"""Run configuration, orchestration, and sweep drivers.

Configs are flat JSON objects; dotted keys (``"problem_params.mu"``) and
nested objects are both accepted.  Every default the run resolves is
materialized into the summary record so nothing stays hidden.  Runs are
deterministic given a config: the same config produces byte-identical
trace files.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .errors import ConfigurationError, require_number
from .problems import CATALOG_NAMES, catalog, default_x0, distance
from .smoothness import model_from_config, select_delta
from .solvers import (
    RunResult,
    algorithm1_run,
    algorithm2_run,
    estimate_grad_bound,
    gd_run,
    write_trace_csv,
)

OUTPUT_DIR_ENV = "AGDSMOOTH_OUTPUT_DIR"

ALGORITHMS = ("gd", "agd1", "agd2")


@dataclass
class RunConfig:
    algorithm: str = "agd2"
    problem: str = "quadratic"
    problem_params: dict = field(default_factory=dict)
    ell: dict | None = None  # model override; defaults to the problem's claim
    x0: list[float] | None = None
    epsilon: float = 1e-6
    budget: int = 100000
    r_bar: float | None = None
    delta: float | None = None
    gamma_cap0: float | None = None
    m_bar: float | None = None
    check_invariants: bool = True
    strict_checks: bool = False
    seed: int = 0
    trace_path: str | None = None  # "" disables the trace entirely
    summary_path: str | None = None

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"config field 'algorithm': unknown value {self.algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        if self.problem not in CATALOG_NAMES:
            raise ConfigurationError(
                f"config field 'problem': unknown problem {self.problem!r}; "
                f"available: {', '.join(CATALOG_NAMES)}"
            )
        if isinstance(self.budget, bool) or not (isinstance(self.budget, int) and self.budget >= 1):
            raise ConfigurationError("config field 'budget': must be an integer >= 1")
        for name in ("epsilon", "r_bar", "delta", "gamma_cap0", "m_bar"):
            value = getattr(self, name)
            if value is None and name != "epsilon":
                continue  # resolved by the run
            if not require_number(value, f"config field {name!r}") > 0:
                raise ConfigurationError(f"config field {name!r}: must be > 0")
        if self.x0 is not None:
            if not isinstance(self.x0, (list, tuple)):
                raise ConfigurationError("config field 'x0': must be a list of numbers")
            for value in self.x0:
                require_number(value, "config field 'x0': each coordinate")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(f"config field 'seed': must be an integer, got {self.seed!r}")
        for name in ("trace_path", "summary_path"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigurationError(f"config field {name!r}: must be a path string")


def _expand_flat_keys(obj: dict) -> dict:
    """Expand dotted keys into nested dicts; nested input passes through."""
    out: dict = {}
    for key, value in obj.items():
        parts = key.split(".")
        node = out
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"config key {key!r} conflicts with a scalar")
        leaf = parts[-1]
        if isinstance(value, dict) and isinstance(node.get(leaf), dict):
            node[leaf].update(value)
        else:
            node[leaf] = value
    return out


_CONFIG_FIELDS = set(RunConfig.__dataclass_fields__)


def config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"run config must be a JSON object, got {obj!r}")
    data = _expand_flat_keys(obj)
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    budget = data.get("budget")
    if isinstance(budget, float):  # an integral float; inf and nan are not
        if not budget.is_integer():
            raise ConfigurationError("config field 'budget': must be an integer")
        data["budget"] = int(budget)
    cfg = RunConfig(**data)
    cfg.validate()
    return cfg


def _read_object(path: str | Path, what: str) -> dict:
    """The JSON object held by the ``what`` file at ``path``; a missing or
    unreadable file, invalid JSON or another value is a configuration error
    that names the file."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{what} file {path} cannot be read: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{what} file {path} must hold a JSON object")
    return raw


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    """Read a JSON config file; ``overrides`` are ``key=json_value`` pairs
    from the command line and take precedence over file keys."""
    raw = _read_object(path, "config")
    raw.update(parse_overrides(overrides or []))
    return config_from_dict(raw)


def parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value  # bare strings allowed
    return out


def jsonable(value):
    """``value`` with arrays as lists and non-finite floats as the strings
    "nan", "inf" and "-inf", so that ``json.dumps`` writes valid JSON."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    # an array exists only once NumPy is loaded, so it is looked up, not imported
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(value, numpy.ndarray):
        return [float(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def output_dir() -> Path:
    """Where trace, summary and report files land by default."""
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def write_json(path: str | Path, record) -> None:
    """Write ``record`` to ``path`` as indented JSON with sorted keys and a
    trailing newline, making the parent directory first if need be."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def execute(config: RunConfig, write_files: bool = True) -> tuple[RunResult, dict]:
    """Run one configured experiment; write trace and summary files.

    Returns the RunResult and the summary record.  Deterministic given the
    config; all resolved defaults are present in the summary.
    """
    config.validate()
    problem = catalog(config.problem, config.problem_params)
    model = problem.ell_model if config.ell is None else model_from_config(config.ell)
    if config.x0 is None:
        x0 = default_x0(config.problem, problem.dim)
    else:
        x0 = tuple([float(v) for v in config.x0])
    if len(x0) != problem.dim:
        raise ConfigurationError(
            f"config field 'x0': expected {problem.dim} coordinates, got {(len(x0),)}"
        )
    notes: list[str] = []

    if config.r_bar is not None:
        r_bar = config.r_bar
    elif problem.optimum is not None:
        r_bar = 2.0 * distance(x0, problem.optimum.x_star)
        notes.append("r_bar defaulted to twice the true initial distance")
    else:
        raise ConfigurationError(
            "config field 'r_bar': required when the problem optimum is unknown"
        )
    if r_bar <= 0:
        raise ConfigurationError("resolved r_bar must be positive (is x0 the optimum?)")

    collect_trace = config.trace_path != ""

    m_bar = config.m_bar
    delta = config.delta
    gamma_cap0 = config.gamma_cap0

    if config.algorithm == "gd":
        result = gd_run(
            problem, model, x0, config.epsilon, r_bar, config.budget,
            check_invariants=config.check_invariants, strict=config.strict_checks,
            collect_trace=collect_trace,
        )
    elif config.algorithm == "agd1":
        if math.isfinite(model.delta_max) and m_bar is None:
            if problem.optimum is None:
                raise ConfigurationError(
                    "superquadratic profile: provide m_bar or a problem "
                    "with a known optimum"
                )
            m_bar = estimate_grad_bound(problem, r_bar, seed=config.seed)
            notes.append(f"m_bar estimated by sphere sampling (heuristic): {m_bar}")
        if delta is None:
            delta = select_delta(model, r_bar, m_bar)
            notes.append(f"delta selected by policy: {delta}")
        result = algorithm1_run(
            problem, model, x0, delta, r_bar, config.epsilon, config.budget,
            m_bar=m_bar, check_invariants=config.check_invariants,
            strict=config.strict_checks, collect_trace=collect_trace,
        )
    else:
        result = algorithm2_run(
            problem, model, x0, gamma_cap0, r_bar, config.epsilon, config.budget,
            check_invariants=config.check_invariants, strict=config.strict_checks,
            collect_trace=collect_trace,
        )
        if gamma_cap0 is None:
            gamma_cap0 = result.gamma_cap0
            notes.append(f"gamma_cap0 defaulted to twice the initial gap over R^2: {gamma_cap0}")

    summary = _summarize(config, result, model, r_bar, delta, gamma_cap0, m_bar, notes, x0)
    if write_files:
        _write_outputs(config, result, summary)
    return result, summary


def _summarize(config, result, model, r_bar, delta, gamma_cap0, m_bar, notes, x0) -> dict:
    resolved = asdict(config)
    resolved.update(
        ell=model.to_config(),
        x0=list(x0),
        r_bar=r_bar,
        delta=delta,
        gamma_cap0=gamma_cap0,
        m_bar=m_bar,
    )
    return jsonable(
        {
            "config": resolved,
            "termination": result.termination,
            "achieved_gap": result.achieved_gap,
            "oracle_calls": result.oracle_calls,
            "gd_iters": result.gd_iters,
            "agd_iters": result.agd_iters,
            "flags_total": result.flags_total,
            "warmup_bound": result.warmup_bound,
            "message": result.message,
            "notes": notes,
        }
    )


def _write_outputs(config: RunConfig, result: RunResult, summary: dict) -> None:
    stem = f"{config.problem}-{config.algorithm}"
    if config.trace_path != "":
        trace_path = config.trace_path or str(output_dir() / f"{stem}-trace.csv")
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
        write_trace_csv(trace_path, result.trace)
        summary["trace_path"] = trace_path
    summary_path = config.summary_path or str(output_dir() / f"{stem}-summary.json")
    write_json(summary_path, summary)
    summary["summary_path"] = summary_path


# --- sweeps -----------------------------------------------------------------

SWEEP_AXES = ("epsilon-quartering", "delta-grid", "gamma_cap0-grid")


@dataclass
class SweepSpec:
    base: RunConfig
    axis: str
    levels: int | None = None
    values: list[float] | None = None

    def validate(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ConfigurationError(
                f"sweep field 'axis': unknown value {self.axis!r}; expected one of {SWEEP_AXES}"
            )
        if self.axis == "epsilon-quartering":
            if not (isinstance(self.levels, int) and self.levels >= 2):
                raise ConfigurationError(
                    "sweep field 'levels': scaling studies need an integer >= 2"
                )
        else:
            if not (isinstance(self.values, list) and self.values):
                raise ConfigurationError("sweep field 'values': a non-empty JSON list is required")


def sweep_from_dict(obj: dict) -> SweepSpec:
    if not isinstance(obj, dict):
        raise ConfigurationError("sweep spec must be a JSON object")
    data = dict(obj)
    base = config_from_dict(data.pop("base", {}))
    spec = SweepSpec(
        base=base,
        axis=data.pop("axis", None),
        levels=data.pop("levels", None),
        values=data.pop("values", None),
    )
    if data:
        raise ConfigurationError(f"unknown sweep fields: {sorted(data)}")
    spec.validate()
    return spec


def load_sweep(path: str | Path, overrides: list[str] | None = None) -> SweepSpec:
    raw = _read_object(path, "sweep")
    base = raw.get("base", {})
    if not isinstance(base, dict):
        raise ConfigurationError(f"sweep file {path}: field 'base' must be a JSON object")
    if overrides:
        raw["base"] = {**base, **parse_overrides(overrides)}
    return sweep_from_dict(raw)


def run_sweep(spec: SweepSpec, write_files: bool = True) -> dict:
    """Execute every grid point; child errors are recorded and the sweep
    continues.  For epsilon-quartering the report carries the ratio table
    iterations(eps_{i+1}) / iterations(eps_i)."""
    spec.validate()
    if spec.axis == "epsilon-quartering":
        values = [spec.base.epsilon / 4.0**i for i in range(spec.levels)]
        fieldname = "epsilon"
    elif spec.axis == "delta-grid":
        values = list(spec.values)
        fieldname = "delta"
    else:
        values = list(spec.values)
        fieldname = "gamma_cap0"

    points = []
    for i, value in enumerate(values):
        point = {fieldname: value}
        try:
            cfg = config_from_dict({**asdict(spec.base), fieldname: value})
            if write_files:
                stem = f"{cfg.problem}-{cfg.algorithm}-{fieldname}-{i}"
                if cfg.trace_path != "":
                    cfg.trace_path = str(output_dir() / f"{stem}-trace.csv")
                cfg.summary_path = str(output_dir() / f"{stem}-summary.json")
            else:
                cfg.trace_path = ""
            result, _ = execute(cfg, write_files=write_files)
            point.update(
                iterations=result.gd_iters + result.agd_iters,
                gd_iters=result.gd_iters,
                agd_iters=result.agd_iters,
                oracle_calls=result.oracle_calls,
                termination=result.termination,
                achieved_gap=result.achieved_gap,
                flags_total=result.flags_total,
                error=None,
            )
        except Exception as exc:  # noqa: BLE001 - children must not kill the sweep
            point.update(error=f"{type(exc).__name__}: {exc}")
        points.append(point)

    report = {"axis": spec.axis, "points": jsonable(points)}
    if spec.axis == "epsilon-quartering":
        ratios = []
        for a, b in zip(points, points[1:]):
            if a.get("error") or b.get("error") or not a.get("iterations"):
                ratios.append(None)
            else:
                ratios.append(b["iterations"] / a["iterations"])
        report["ratios"] = ratios
    if write_files:
        path = output_dir() / f"sweep-{spec.axis}-report.json"
        write_json(path, report)
        report["report_path"] = str(path)
    return report
