"""Config parsing, orchestration determinism, sweeps, and the CLI surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agdsmooth
from agdsmooth import Affine, ConfigurationError, RunConfig, execute, warmup_iterations_bound
from agdsmooth.cli import main
from agdsmooth.config import (
    config_from_dict,
    load_config,
    parse_overrides,
    run_sweep,
    sweep_from_dict,
)


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("AGDSMOOTH_OUTPUT_DIR", str(tmp_path))
    return tmp_path


class TestConfigParsing:
    def test_flat_dotted_keys(self):
        cfg = config_from_dict({
            "algorithm": "agd2",
            "problem": "exp-experiment",
            "problem_params.mu": 0.001,
            "epsilon": 1e-6,
        })
        assert cfg.problem_params == {"mu": 0.001}

    def test_nested_keys_also_accepted(self):
        cfg = config_from_dict({"problem_params": {"L": 2.0, "d": 3}})
        assert cfg.problem_params == {"L": 2.0, "d": 3}

    def test_unknown_field_is_configuration_error(self):
        with pytest.raises(ConfigurationError) as err:
            config_from_dict({"algorithmm": "agd2"})
        assert "algorithmm" in str(err.value)

    def test_field_validation_messages_name_the_field(self):
        with pytest.raises(ConfigurationError) as err:
            config_from_dict({"epsilon": -1.0})
        assert "epsilon" in str(err.value)
        with pytest.raises(ConfigurationError):
            config_from_dict({"budget": 0})
        with pytest.raises(ConfigurationError):
            config_from_dict({"algorithm": "sgd"})
        with pytest.raises(ConfigurationError):
            config_from_dict({"problem": "nope"})

    @pytest.mark.parametrize("obj", [[1, 2], 5, None])
    def test_non_object_config_rejected(self, obj):
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            config_from_dict(obj)

    def test_overrides(self):
        got = parse_overrides(["epsilon=1e-8", "problem=exp-1d", "x0=[1.5]"])
        assert got == {"epsilon": 1e-8, "problem": "exp-1d", "x0": [1.5]}

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"algorithm": "agd2", "problem": "exp-1d",
                                    "x0": [2.0], "r_bar": 4.0, "gamma_cap0": 4.0}))
        cfg = load_config(path, ["epsilon=0.001"])
        assert cfg.epsilon == 0.001 and cfg.problem == "exp-1d"


class TestExecute:
    def base(self, tmp_path, **kw):
        merged = {
            "algorithm": "agd2", "problem": "exp-1d", "x0": [2.0],
            "r_bar": 4.0, "gamma_cap0": 4.0, "epsilon": 1e-6, "budget": 5000,
            "trace_path": str(tmp_path / "t.csv"),
            "summary_path": str(tmp_path / "s.json"),
        }
        merged.update(kw)
        return config_from_dict(merged)

    def test_writes_trace_and_summary(self, tmp_path):
        result, summary = execute(self.base(tmp_path))
        assert result.converged
        trace = Path(tmp_path / "t.csv").read_text().splitlines()
        assert trace[0].startswith("k,phase,f_gap")
        assert len(trace) == 1 + result.gd_iters + result.agd_iters
        stored = json.loads(Path(tmp_path / "s.json").read_text())
        assert stored["termination"] == "converged"
        assert stored["config"]["epsilon"] == 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        execute(self.base(tmp_path))
        first = Path(tmp_path / "t.csv").read_bytes()
        execute(self.base(tmp_path))
        assert Path(tmp_path / "t.csv").read_bytes() == first

    def test_oracle_accounting_matches_trace(self, tmp_path):
        result, _ = execute(self.base(tmp_path, algorithm="agd1"))
        gd = sum(1 for r in result.trace if r.phase == "gd")
        agd = sum(1 for r in result.trace if r.phase == "agd")
        assert result.oracle_calls == gd + agd + 1

    def test_plain_gd_algorithm(self, tmp_path):
        result, _ = execute(self.base(tmp_path, algorithm="gd", epsilon=1e-4))
        assert result.converged and result.agd_iters == 0 and result.gd_iters > 0

    def test_defaults_materialized_in_summary(self, tmp_path):
        cfg = config_from_dict({
            "algorithm": "agd1", "problem": "exp-experiment",
            "trace_path": str(tmp_path / "t2.csv"),
            "summary_path": str(tmp_path / "s2.json"),
        })
        result, summary = execute(cfg)
        assert summary["config"]["delta"] is not None
        assert summary["config"]["r_bar"] > 0
        assert summary["config"]["x0"] == [-6.0, -5.0]
        assert any("delta selected by policy" in n for n in summary["notes"])

    def test_trace_disabled_by_empty_path(self, tmp_path):
        result, summary = execute(self.base(tmp_path, trace_path=""))
        assert result.converged and result.trace == []
        assert "trace_path" not in summary

    def test_agd2_warmup_bound_past_2_62_is_null(self, tmp_path):
        # delta* = 1e-3 / (64e12) against a level of 1e-30 over r_bar = 1e12:
        # the warm-up bound 3 r_bar sqrt(lref / delta*) passes 2**62, so the
        # run reports none and still runs
        cfg = self.base(tmp_path, problem_params={"known_optimum": False},
                        ell={"kind": "affine", "L0": 1e-3, "L1": 1e6},
                        r_bar=1e12, gamma_cap0=1e-30, budget=5)
        result, _ = execute(cfg)
        assert result.termination == "budget" and result.warmup_bound is None
        assert json.loads(Path(tmp_path / "s.json").read_text())["warmup_bound"] is None
        with pytest.raises(ConfigurationError, match="no finite warmup bound"):
            warmup_iterations_bound(Affine(1e-3, 1e6), 1e-30, 1e12)

    def test_agd2_on_superquadratic_is_config_error(self, tmp_path):
        cfg = self.base(tmp_path, ell={"kind": "power", "rho": 3, "L0": 1, "L1": 1})
        with pytest.raises(ConfigurationError):
            execute(cfg)

    def test_agd1_given_delta_estimates_m_bar_with_config_seed(self, tmp_path):
        from agdsmooth import catalog, estimate_grad_bound

        cfg = self.base(tmp_path, algorithm="agd1", problem="quadratic", x0=[0.3, 0.3],
                        r_bar=0.5, delta=1e-3, seed=5,
                        ell={"kind": "power", "rho": 3, "L0": 1, "L1": 1})
        result, summary = execute(cfg)
        m_bar = estimate_grad_bound(catalog("quadratic"), 0.5, seed=5)
        assert result.converged
        assert summary["config"]["m_bar"] == m_bar
        assert any("m_bar estimated" in n for n in summary["notes"])
        assert "m_bar" not in summary["message"]

    def test_default_gamma_cap0_costs_no_extra_evaluation(self, tmp_path, monkeypatch):
        import sys

        import agdsmooth.problems

        original = agdsmooth.problems.evaluate
        calls = []

        def counting(problem, x):
            calls.append(1)
            return original(problem, x)

        for name, mod in list(sys.modules.items()):
            if name.startswith("agdsmooth") and getattr(mod, "evaluate", None) is original:
                monkeypatch.setattr(mod, "evaluate", counting)
        result, summary = execute(self.base(tmp_path, gamma_cap0=None, x0=None, r_bar=None))
        assert summary["config"]["gamma_cap0"] > 0
        assert any("gamma_cap0 defaulted" in n for n in summary["notes"])
        assert len(calls) == result.oracle_calls == summary["oracle_calls"]

    def test_agd1_inadmissible_delta_precondition_failed(self, tmp_path):
        cfg = self.base(tmp_path, algorithm="agd1", delta=1e6)
        result, _ = execute(cfg)
        assert result.termination == "precondition-failed"
        assert result.agd_iters == 0


class TestSweeps:
    def test_epsilon_quartering_ratniios(self):
        spec = sweep_from_dict({
            "axis": "epsilon-quartering",
            "levels": 3,
            "base": {
                "algorithm": "agd2", "problem": "quadratic",
                "problem_params": {"L": 1.0, "d": 10, "known_optimum": False},
                "x0": [0.1] * 10, "r_bar": math.sqrt(10) * 0.1,
                "gamma_cap0": 1.0, "epsilon": 1e-4, "budget": 10**6,
                "check_invariants": False, "trace_path": "",
            },
        })
        report = run_sweep(spec, write_files=False)
        assert len(report["points"]) == 3
        assert all(p["error"] is None for p in report["points"])
        for ratio in report["ratios"]:
            assert 1.6 <= ratio <= 2.4

    def test_delta_grid_gd_iters_non_increasing(self):
        deltas = [0.01, 0.02, 0.05]
        spec = sweep_from_dict({
            "axis": "delta-grid",
            "values": deltas,
            "base": {
                "algorithm": "agd1", "problem": "exp-experiment",
                "x0": [-6.0, -5.0], "r_bar": 100.0, "epsilon": 1e-5,
                "budget": 10**5, "trace_path": "",
            },
        })
        report = run_sweep(spec, write_files=False)
        gd_iters = [p["gd_iters"] for p in report["points"]]
        assert all(p["error"] is None for p in report["points"])
        assert all(b <= a for a, b in zip(gd_iters, gd_iters[1:]))

    def test_sweep_files_write_one_trace_per_point(self, out_dir):
        spec = sweep_from_dict({
            "axis": "gamma_cap0-grid",
            "values": [4.0, 8.0],
            "base": {"algorithm": "agd2", "problem": "exp-1d", "x0": [2.0],
                     "r_bar": 4.0, "epsilon": 1e-4, "budget": 10**5},
        })
        report = run_sweep(spec)
        for i, point in enumerate(report["points"]):
            assert point["error"] is None
            trace = (out_dir / f"exp-1d-agd2-gamma_cap0-{i}-trace.csv").read_text()
            assert len(trace.splitlines()) == 1 + point["iterations"]
            assert (out_dir / f"exp-1d-agd2-gamma_cap0-{i}-summary.json").exists()
        assert sorted(p.name for p in out_dir.glob("*-trace.csv")) == [
            "exp-1d-agd2-gamma_cap0-0-trace.csv", "exp-1d-agd2-gamma_cap0-1-trace.csv"]
        assert Path(report["report_path"]) == out_dir / "sweep-gamma_cap0-grid-report.json"

    def test_quartering_sweep_of_raising_points_has_no_ratios(self):
        # agd2 refuses a superquadratic claim at every level
        spec = sweep_from_dict({
            "axis": "epsilon-quartering",
            "levels": 3,
            "base": {"algorithm": "agd2", "problem": "exp-1d", "x0": [2.0],
                     "r_bar": 4.0, "gamma_cap0": 4.0, "trace_path": "",
                     "ell": {"kind": "power", "rho": 3, "L0": 1, "L1": 1}},
        })
        report = run_sweep(spec, write_files=False)
        assert all("ConfigurationError" in p["error"] for p in report["points"])
        assert report["ratios"] == [None, None]

    def test_empty_grid_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            sweep_from_dict({"axis": "delta-grid", "values": [], "base": {}})
        with pytest.raises(ConfigurationError):
            sweep_from_dict({"axis": "epsilon-quartering", "levels": 1, "base": {}})

    def test_child_error_recorded_and_sweep_continues(self):
        spec = sweep_from_dict({
            "axis": "gamma_cap0-grid",
            "values": [4.0, -1.0],
            "base": {
                "algorithm": "agd2", "problem": "exp-1d", "x0": [2.0],
                "r_bar": 4.0, "epsilon": 1e-4, "budget": 10**5, "trace_path": "",
            },
        })
        report = run_sweep(spec, write_files=False)
        assert report["points"][0]["error"] is None
        assert "ConfigurationError" in report["points"][1]["error"]

    def test_unknown_axis(self):
        with pytest.raises(ConfigurationError):
            sweep_from_dict({"axis": "lr-grid", "values": [1], "base": {}})


class TestCli:
    def write_cfg(self, tmp_path, **kw):
        payload = {"algorithm": "agd2", "problem": "exp-1d", "x0": [2.0],
                   "r_bar": 4.0, "gamma_cap0": 4.0, "epsilon": 1e-6,
                   "budget": 5000}
        payload.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_converged_exit_zero(self, tmp_path, capsys):
        assert main(["run", self.write_cfg(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["termination"] == "converged"

    def test_run_budget_exit_two(self, tmp_path):
        assert main(["run", self.write_cfg(tmp_path, budget=5)]) == 2

    def test_run_precondition_exit_three(self, tmp_path):
        cfg = self.write_cfg(tmp_path, algorithm="agd1", delta=1e9)
        assert main(["run", cfg]) == 3

    def test_failed_precondition_raised_exit_three(self, tmp_path, capsys):
        # every m_bar sample at distance 2 r_bar = 200 from the barrier's
        # optimum leaves the orthant, so the estimate raises
        cfg = self.write_cfg(tmp_path, algorithm="agd1", problem="neg-log-barrier",
                             problem_params={"d": 20}, x0=None, r_bar=100.0,
                             ell={"kind": "power", "rho": 3, "L0": 1, "L1": 1})
        assert main(["run", cfg]) == 3
        assert capsys.readouterr().err == (
            "precondition failed: all gradient-bound samples fell outside the feasible set\n")

    def test_configuration_error_exit_four(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm": "nope"}))
        assert main(["run", str(path)]) == 4

    def test_set_overrides(self, tmp_path, capsys):
        code = main(["run", self.write_cfg(tmp_path), "--set", "epsilon=1e-3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["epsilon"] == 1e-3

    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "exp-experiment" in out and "quadratic" in out

    def test_verify_subcommand(self, tmp_path, capsys):
        code = main(["verify", "exp-1d", "claimed", "--trials", "50",
                     "--out", str(tmp_path / "rep.json")])
        assert code == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert all(entry["violations"] == 0 for entry in report)
        assert {e["name"] for e in report} >= {"convexity-smoothness", "gradient-transfer"}

    def test_verify_with_explicit_model(self, tmp_path):
        model = json.dumps({"kind": "affine", "L0": 2.5, "L1": 1.0})
        code = main(["verify", "exp-1d", model, "--trials", "30",
                     "--out", str(tmp_path / "rep2.json")])
        assert code == 0

    def test_sweep_subcommand(self, tmp_path, capsys):
        spec = {
            "axis": "gamma_cap0-grid", "values": [4.0],
            "base": {"algorithm": "agd2", "problem": "exp-1d", "x0": [2.0],
                     "r_bar": 4.0, "epsilon": 1e-4, "budget": 10**5,
                     "trace_path": ""},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["points"][0]["termination"] == "converged"

    def test_output_dir_env(self, tmp_path, capsys):
        assert main(["run", self.write_cfg(tmp_path)]) == 0
        assert (tmp_path / "exp-1d-agd2-trace.csv").exists()
        assert (tmp_path / "exp-1d-agd2-summary.json").exists()

    def test_strict_violation_exit_five(self, tmp_path):
        # claim a curvature bound that the objective plainly violates; the
        # oversized GD step breaks distance monotonicity under strict checks
        cfg = self.write_cfg(
            tmp_path, algorithm="agd1",
            ell={"kind": "constant", "L": 0.5}, strict_checks=True,
        )
        assert main(["run", cfg]) == 5

    def test_verify_infeasible_step_exit_five(self, tmp_path):
        # a claimed curvature far below the barrier's: the descent check's
        # step leaves the orthant, a safety violation like in a run
        code = main(["verify", "neg-log-barrier", '{"kind": "constant", "L": 0.01}',
                     "--trials", "50", "--out", str(tmp_path / "rep.json")])
        assert code == 5

    @pytest.mark.parametrize("algorithm", ["gd", "agd1"])
    def test_start_outside_domain_exit_four(self, tmp_path, algorithm):
        cfg = self.write_cfg(tmp_path, algorithm=algorithm, problem="neg-log-barrier",
                             x0=[-1.0, 1.0])
        assert main(["run", cfg]) == 4

    def test_right_crossing_past_the_float_range_is_infinite(self, tmp_path):
        # rho just above 2 puts psi's right crossing near 2**(10**5): psi
        # stays above delta at every float, so the crossing reads inf, the
        # warm start is admitted and the run stops on its budget
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algorithm": "agd1", "problem": "exp-1d", "epsilon": 1, "budget": 1,
            "ell": {"kind": "power", "rho": 2.00001, "L0": 1, "L1": 1}}))
        assert main(["run", str(path)]) == 2

    SUPERQUADRATIC = {"algorithm": "agd1", "problem": "quadratic", "x0": [0.3, 0.3],
                      "ell": {"kind": "power", "rho": 3, "L0": 1, "L1": 1}}

    MALFORMED = {
        "r_bar-string": {"r_bar": "abc"},
        "delta-string": {"algorithm": "agd1", "delta": "x"},
        "m_bar-string": {**SUPERQUADRATIC, "m_bar": "q"},
        "m_bar-zero": {**SUPERQUADRATIC, "m_bar": 0},
        "seed-string": {**SUPERQUADRATIC, "seed": "x"},
        "x0-string": {"x0": ["a", 1]},
        "x0-numeric-string": {"x0": ["2"]},
        "param-string": {"problem": "exp-experiment", "problem_params": {"mu": "abc"}},
        "params-list": {"problem_params": [1]},
        "param-int-string": {"problem": "quadratic", "problem_params": {"d": "x"}},
        "param-unknown": {"problem": "exp-1d", "problem_params": {"d": 2}},
        "param-d-fraction": {"problem": "quadratic", "problem_params": {"d": 4.5},
                             "x0": [1.0] * 4},
        "param-p-fraction": {"problem": "power-p", "problem_params": {"p": 4.5},
                             "x0": [1.0, 1.0]},
        "known_optimum-string": {"problem_params": {"known_optimum": "x"}},
        "ell-constant-string": {"ell": {"kind": "constant", "L": "abc"}},
        "ell-numeric-string": {"ell": {"kind": "constant", "L": "2"}},
        "ell-power-string": {"ell": {"kind": "power", "rho": "abc", "L0": 1, "L1": 1}},
        "ell-custom-short-point": {"ell": {"kind": "custom", "points": [[0, 1], [1]]}},
        "ell-custom-scalar": {"ell": {"kind": "custom", "points": 5}},
        "trace_path-number": {"trace_path": 5},
        # JSON 1e400 reads as Infinity
        "budget-infinity": {"budget": math.inf},
        "budget-nan": {"budget": math.nan},
        "budget-true": {"budget": True},
        "r_bar-infinity-gd": {"algorithm": "gd", "r_bar": math.inf},
        "r_bar-infinity-agd1": {"algorithm": "agd1", "r_bar": math.inf},
        "r_bar-infinity-agd2": {"r_bar": math.inf},
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_value_exit_four(self, tmp_path, capsys, name):
        # numbers must be JSON numbers: nothing is converted from a string
        assert main(["run", self.write_cfg(tmp_path, **self.MALFORMED[name])]) == 4
        assert "configuration error" in capsys.readouterr().err

    def test_infinite_r_bar_names_the_run_parameters(self, tmp_path, capsys):
        assert main(["run", self.write_cfg(tmp_path, r_bar=math.inf)]) == 4
        assert ("a run needs epsilon > 0, a finite r_bar > 0 and budget >= 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("values", [5, {"4.0": 1}], ids=["number", "object"])
    def test_sweep_values_must_be_a_list(self, tmp_path, capsys, values):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"axis": "gamma_cap0-grid", "values": values,
                                    "base": {"problem": "exp-1d", "trace_path": ""}}))
        assert main(["sweep", str(path)]) == 4
        assert "'values'" in capsys.readouterr().err

    def test_negative_m_bar_names_the_field(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, **self.SUPERQUADRATIC, m_bar=-1)
        assert main(["run", cfg]) == 4
        assert "'m_bar'" in capsys.readouterr().err

    def test_unknown_problem_param_names_the_key(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, problem="quadratic", problem_params={"mu": 1.0},
                             x0=[1.0, 1.0])
        assert main(["run", cfg]) == 4
        assert "'mu'" in capsys.readouterr().err

    SCALAR_BASE = {"base": 5, "axis": "epsilon-quartering", "levels": 2}

    LOADER_CASES = {
        "run-missing-file": ("run", None, []),
        "run-invalid-json": ("run", "{", []),
        "sweep-missing-file": ("sweep", None, []),
        "sweep-list-with-set": ("sweep", [1, 2], ["--set", "epsilon=1e-3"]),
        "sweep-scalar-base": ("sweep", SCALAR_BASE, []),
        "sweep-scalar-base-with-set": ("sweep", SCALAR_BASE, ["--set", "epsilon=1e-3"]),
    }

    @pytest.mark.parametrize("name", sorted(LOADER_CASES))
    def test_unusable_input_file_exit_four_names_the_file(self, tmp_path, capsys, name):
        command, payload, extra = self.LOADER_CASES[name]
        path = tmp_path / "input.json"
        if payload is not None:
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert main([command, str(path), *extra]) == 4
        assert str(path) in capsys.readouterr().err

    def test_divergence_names_the_flags_noted_before_it(self, tmp_path, capsys):
        # Gamma_0 = 1/64 is below the 2 (f0 - f*) / r0^2 = 93.1 floor; the
        # breach shows as GRAD_ENVELOPE at k = 0, then y overflows
        cfg = self.write_cfg(tmp_path, x0=[8.0], r_bar=8.0, gamma_cap0=1 / 64,
                             problem_params={"known_optimum": False})
        assert main(["run", cfg]) == 5
        assert "GRAD_ENVELOPE" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_verify_without_trials_exit_four(self, tmp_path, trials):
        out = tmp_path / "rep.json"
        code = main(["verify", "quadratic", "claimed", "--trials", trials, "--out", str(out)])
        assert code == 4 and not out.exists()

    # claims whose run once ended in a traceback (exit 1) or an "internal"
    # refusal of the policy delta (exit 3); each now exits with a typed code
    EDGE_CLAIMS = {
        "affine-head-on-the-edge": (
            {"algorithm": "agd1", "problem": "exp-1d",
             "ell": {"kind": "affine", "L0": 3.4, "L1": 5.9}}, 0),
        "power-ell-overflow": (
            {"algorithm": "gd", "problem": "quadratic",
             "ell": {"kind": "power", "rho": 3, "L0": 0.2205441513385468, "L1": 0},
             "r_bar": 48.071779500596016, "epsilon": 9.113564270571782e-06,
             "budget": 2000}, 5),
        "power-head-overflow": (
            {"algorithm": "agd1", "problem": "exp-1d",
             "ell": {"kind": "power", "rho": 0.01, "L0": 1000, "L1": 1}}, 0),
        "power-head-underflow": (
            {"algorithm": "agd1", "problem": "quadratic",
             "ell": {"kind": "power", "rho": 0.01, "L0": 8.832141718368205e-05,
                     "L1": 0.0006041257682572129},
             "x0": [8.21, -8.22], "budget": 1}, 2),
    }

    @pytest.mark.parametrize("name", sorted(EDGE_CLAIMS))
    def test_edge_claims_exit_typed(self, tmp_path, capsys, name):
        payload, code = self.EDGE_CLAIMS[name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path)]) == code
        if code == 5:
            assert "GD_MONOTONE" in capsys.readouterr().err

    def test_diverging_run_prints_no_numpy_warning(self, tmp_path):
        # the oracle's guard already reports the overflow as a typed error
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.EDGE_CLAIMS["power-ell-overflow"][0],
                                    "trace_path": ""}))
        env = {**os.environ, "PYTHONPATH": str(Path(agdsmooth.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "agdsmooth.cli", "run", str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 5
        assert "invariant violation: GD iterate left the feasible set" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_start_overflow_exit_four(self, tmp_path):
        cfg = self.write_cfg(tmp_path, problem="exp-experiment", x0=[-800.0, 0.0],
                             r_bar=1e3, gamma_cap0=1e6)
        assert main(["run", cfg]) == 4


class TestAdaptiveRunExample:
    def test_exponential_problem_converges_nonmonotonically(self, tmp_path):
        cfg = config_from_dict({
            "algorithm": "agd2", "problem": "exp-experiment",
            "problem_params": {"mu": 0.001}, "x0": [-6.0, -5.0],
            "r_bar": 100.0, "gamma_cap0": 100.0, "epsilon": 1e-6,
            "budget": 10000,
        })
        result, _ = execute(cfg, write_files=False)
        assert result.converged and result.achieved_gap <= 1e-6
        gaps = [r.f_gap for r in result.trace if r.phase == "agd"]
        assert any(b > a for a, b in zip(gaps, gaps[1:]))


class TestCertificateUnderflow:
    def test_tiny_start_level_saturates(self):
        import numpy as np
        from agdsmooth import algorithm2_run, catalog

        # withhold the optimum so the start-level precondition cannot reject
        # the degenerate certificate level before the underflow guard sees it
        p = catalog("exp-1d", {"known_optimum": False})
        res = algorithm2_run(p, p.ell_model, np.array([2.0]), 1e-302, 4.0,
                             5e-310, 10)
        assert res.converged
        assert "underflow" in res.message
