"""Command-line front end.

Subcommands::

    agdsmooth run <config.json> [--set key=value ...]
    agdsmooth sweep <spec.json> [--set key=value ...]
    agdsmooth verify <problem> <model> [--trials N] [--seed S] [--params JSON] [--out FILE]
    agdsmooth catalog list

Exit codes:

* 0 -- converged (``run``), or every check passed (``verify``);
* 2 -- the oracle-call budget ran out (``budget`` termination);
* 3 -- a precondition failed, or a sweep point raised;
* 4 -- configuration error: a malformed or out-of-range config value,
  ``verify --trials`` below 1, or a start point (or a ``verify`` sample)
  outside the feasible set or where f overflows, f is not finite or the
  gradient is NaN;
* 5 -- a strict-mode invariant violation (any flag bit, GD monotonicity
  included), an iterate that the oracle refuses for any of exit 4's
  reasons (a breach of the step-size contract), or a failed ``verify`` check.

The environment variable ``AGDSMOOTH_OUTPUT_DIR`` overrides where trace,
summary, and report files land (default: current directory).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import asdict

from .config import execute, jsonable, load_config, load_sweep, output_dir, run_sweep, write_json
from .errors import (
    ConfigurationError,
    DomainError,
    DomainViolationError,
    InvariantViolationError,
    OutOfRangeError,
    PreconditionError,
    SafetyViolationError,
)
from .problems import CATALOG_NAMES, catalog
from .smoothness import model_from_config
from .verify import run_all_checks

EXIT_CONVERGED = 0
EXIT_BUDGET = 2
EXIT_PRECONDITION = 3
EXIT_CONFIG = 4
EXIT_INVARIANT = 5

_TERMINATION_CODES = {
    "converged": EXIT_CONVERGED,
    "budget": EXIT_BUDGET,
    "precondition-failed": EXIT_PRECONDITION,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agdsmooth",
        description="Accelerated gradient methods under generalized smoothness, "
        "with runtime-verified certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("config", help="path to a JSON run config")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (JSON value)")

    p_sweep = sub.add_parser("sweep", help="execute a parameter sweep")
    p_sweep.add_argument("spec", help="path to a JSON sweep spec")
    p_sweep.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE", help="override a base-config key")

    p_verify = sub.add_parser("verify", help="run the inequality check sweeps")
    p_verify.add_argument("problem", help=f"catalog problem ({', '.join(CATALOG_NAMES)})")
    p_verify.add_argument("model", help="'claimed' or a JSON ell-model object")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--params", default="{}", help="problem params as JSON")
    p_verify.add_argument("--out", default=None, help="report file path")

    p_cat = sub.add_parser("catalog", help="catalog utilities")
    p_cat.add_argument("action", choices=["list"])
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config, args.overrides)
    result, summary = execute(config)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return _TERMINATION_CODES.get(result.termination, EXIT_CONFIG)


def _cmd_sweep(args) -> int:
    spec = load_sweep(args.spec, args.overrides)
    report = run_sweep(spec)
    print(json.dumps(report, indent=2, sort_keys=True))
    failed = [p for p in report["points"] if p.get("error")]
    return EXIT_CONVERGED if not failed else EXIT_PRECONDITION


def _cmd_verify(args) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--params is not valid JSON: {exc}")
    problem = catalog(args.problem, params)
    if args.model != "claimed":
        try:
            model_cfg = json.loads(args.model)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"model argument is not valid JSON: {exc}")
        problem = dataclasses.replace(problem, ell_model=model_from_config(model_cfg))
    reports = run_all_checks(problem, trials=args.trials, seed=args.seed)
    payload = jsonable([asdict(r) for r in reports])
    out = args.out or str(output_dir() / f"{args.problem}-verify-report.json")
    write_json(out, payload)
    ok = True
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        ok = ok and rep.passed
        print(f"{status} {rep.name}: trials={rep.trials} violations={rep.violations} "
              f"worst_margin={rep.worst_margin:.3e} seed={rep.seed}")
    print(f"report written to {out}")
    return EXIT_CONVERGED if ok else EXIT_INVARIANT


def _cmd_catalog(args) -> int:
    for name in CATALOG_NAMES:
        print(name)
    return EXIT_CONVERGED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_catalog(args)
    except (ConfigurationError, DomainError, DomainViolationError, OutOfRangeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InvariantViolationError, SafetyViolationError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
