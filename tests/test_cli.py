"""Command-line interface: config parsing, exit codes, artifact files."""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import SD_TIGHT, SD_WIDE
import wsteer as w
from wsteer.cli import load_config, main, solver_options_from_config
from wsteer.objective import Policy, evaluate

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

BASE_CONFIG = {
    "N": 10,
    "time_invariant": True,
    "A": [[1.0, 0.1], [0.0, 1.0]],
    "B": [[0.0], [0.1]],
    "G": [[1.0, 0.0], [0.0, 1.0]],
    "mu0": [0.0, 0.0],
    "S0": [[1.0, 0.0], [0.0, 1.0]],
    "Sw": [[0.01, 0.0], [0.0, 0.01]],
    "mud": [10.0, 5.0],
    "Sd": SD_WIDE,
    "lambda": 1.0,
    "solver": {"max_ccp_iters": 2000, "obj_rel_tol": 1e-14, "stationarity_tol": 1e-6},
}


def write_config(path, **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=1))
    return path


def test_solve_writes_solution_and_exit_zero(tmp_path):
    cfg = write_config(tmp_path / "p.json")
    out = tmp_path / "sol.json"
    assert main(["solve", str(cfg), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["trace"]["termination"] == "stationarity"
    assert len(payload["u_ff"]) == 10
    assert len(payload["Theta"]) == 10 and len(payload["Theta"][0]) == 22
    assert payload["objective"]["J"] > 0.0


def test_solve_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "p.json")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", str(cfg), "-o", str(out1)]) == 0
    assert main(["solve", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_invalid_covariance_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json", S0=[[0.0, 0.0], [0.0, 0.0]])
    assert main(["solve", str(cfg), "-o", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert "initial covariance" in err


def test_solve_missing_field_exit_one(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg["Sd"]
    p = tmp_path / "p.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", str(p), "-o", str(tmp_path / "s.json")]) == 1
    assert "Sd" in capsys.readouterr().err


@pytest.mark.parametrize("N", [10.7, True, "10"])
def test_solve_non_integer_horizon_exit_one(tmp_path, capsys, N):
    cfg = write_config(tmp_path / "p.json", N=N)
    assert main(["solve", str(cfg), "-o", str(tmp_path / "s.json")]) == 1
    assert "field 'N'" in capsys.readouterr().err


NON_INTEGERS = [2.7, True, "3", float("inf"), float("nan")]


@pytest.mark.parametrize("value", NON_INTEGERS)
@pytest.mark.parametrize("key", ["max_ccp_iters", "newton_max_iters"])
def test_solve_non_integer_solver_field_exit_one(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "p.json", solver={**BASE_CONFIG["solver"], key: value})
    assert main(["solve", str(cfg), "-o", str(tmp_path / "s.json")]) == 1
    assert f"field 'solver.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", NON_INTEGERS)
@pytest.mark.parametrize("key", ["samples", "seed"])
def test_simulate_non_integer_simulation_field_exit_one(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "p.json", Sd=SD_TIGHT,
                       simulation={"samples": 2000, "seed": 1, key: value})
    sol = tmp_path / "sol.json"
    assert main(["solve", str(cfg), "-o", str(sol)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(cfg), str(sol)]) == 1
    assert f"field 'simulation.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, "2", float("inf"), float("nan")])
@pytest.mark.parametrize("key", ["lambda", "solver.obj_rel_tol", "solver.stationarity_tol"])
@pytest.mark.parametrize("command", ["solve", "check"])
def test_non_real_field_exit_one(tmp_path, capsys, command, key, value):
    section, _, field = key.rpartition(".")
    if section:
        cfg = write_config(tmp_path / "p.json", solver={**BASE_CONFIG["solver"], field: value})
    else:
        cfg = write_config(tmp_path / "p.json", **{field: value})
    out = ["-o", str(tmp_path / "s.json")] if command == "solve" else []
    assert main([command, str(cfg), *out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]


THREE_D = {"mud": [10.0, 5.0, 0.0], "Sd": np.eye(3).tolist()}
NAN_S0 = {"S0": [[float("nan"), 0.0], [0.0, 1.0]]}
INF_SD = {"Sd": [[4.0, -2.0], [-2.0, float("inf")]]}


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("overrides, expected", [
    (THREE_D, "(initial dim, desired dim, noise covariance shape) = (2, 3, (2, 2)), "
              "want (2, 2, (2, 2))"),
    (NAN_S0, "S0 holds an inf or NaN entry"),
    (INF_SD, "Sd holds an inf or NaN entry"),
], ids=["3-d target", "nan S0", "inf Sd"])
def test_bad_problem_data_one_error_line_exit_one(tmp_path, capsys, command, overrides,
                                                   expected):
    cfg = write_config(tmp_path / "p.json", **overrides)
    out = ["-o", str(tmp_path / "s.json")] if command == "solve" else []
    assert main([command, str(cfg), *out]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {expected}"]
    assert captured.out == ""


def test_solve_max_iters_exit_two(tmp_path):
    cfg = write_config(tmp_path / "p.json",
                       solver={"max_ccp_iters": 1, "obj_rel_tol": 1e-16,
                               "stationarity_tol": 1e-12, "newton": "off"})
    assert main(["solve", str(cfg), "-o", str(tmp_path / "s.json")]) == 2


def test_solve_stalled_above_tol_exit_two(tmp_path, capsys):
    # the tight target at lambda=100 stalls at residual ~1e-5 > 1e-6
    cfg = write_config(tmp_path / "p.json", Sd=SD_TIGHT, **{"lambda": 100.0},
                       solver={**BASE_CONFIG["solver"], "newton": "off"})
    out = tmp_path / "s.json"
    assert main(["solve", str(cfg), "-o", str(out)]) == 2
    trace = json.loads(out.read_text())["trace"]
    assert trace["termination"] == "objective_stalled"
    assert trace["final_residual"] > 1e-6
    assert "not converged" in capsys.readouterr().err


def test_per_step_matrices_accepted(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["time_invariant"] = False
    cfg["A"] = [BASE_CONFIG["A"]] * 10
    cfg["B"] = [BASE_CONFIG["B"]] * 10
    cfg["G"] = [BASE_CONFIG["G"]] * 10
    p = tmp_path / "p.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", str(p), "-o", str(tmp_path / "s.json")]) == 0


def test_scan_identical_configs_constant(tmp_path):
    cfg = write_config(tmp_path / "p.json")
    out = tmp_path / "scan.csv"
    assert main(["scan", str(cfg), str(cfg), "--points", "11", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,gamma,J,J1,J2,J3,J4"
    assert len(lines) == 12
    J_col = {line.split(",")[2] for line in lines[1:]}
    assert len(J_col) == 1


def test_scan_endpoints_match_solutions(tmp_path):
    cfg_a = write_config(tmp_path / "a.json")
    cfg_b = write_config(tmp_path / "b.json", Sd=SD_TIGHT)
    sol_a = tmp_path / "sa.json"
    assert main(["solve", str(cfg_a), "-o", str(sol_a)]) == 0
    out = tmp_path / "scan.csv"
    assert main(["scan", str(cfg_a), str(cfg_b),
                 "--gamma-min", "0", "--gamma-max", "1", "--points", "2",
                 "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    J_a = float(rows[0].split(",")[2])
    payload = json.loads(sol_a.read_text())
    assert abs(J_a - payload["objective"]["J"]) <= 1e-9 * max(1.0, abs(J_a))


def test_scan_dimension_mismatch_exit_one(tmp_path, capsys):
    cfg_a = write_config(tmp_path / "a.json")
    cfg_b = write_config(tmp_path / "b.json", N=5)
    assert main(["scan", str(cfg_a), str(cfg_b), "-o", str(tmp_path / "s.csv")]) == 1
    assert "mismatch" in capsys.readouterr().err


def test_scan_lambda_sweep_rows_and_counts(tmp_path, capsys):
    cfg_a = write_config(tmp_path / "a.json", Sd=SD_TIGHT)
    cfg_b = write_config(tmp_path / "b.json")
    out = tmp_path / "scan.csv"
    assert main(["scan", str(cfg_a), str(cfg_b), "--points", "21",
                 "--lambda-sweep", "0.1,1", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 21
    assert "lambda=0.1" in capsys.readouterr().out


def test_scan_shipped_configs_match_per_point_evaluate(tmp_path):
    # every row of the scan CSV against one evaluate per grid point, printed
    # with repr as cmd_scan prints it
    paths = [str(CONFIGS / f"double_integrator_{name}.json") for name in ("tight", "wide")]
    out = tmp_path / "scan.csv"
    assert main(["scan", *paths, "--lambda-sweep", "0.1,2000", "--points", "41",
                 "-o", str(out)]) == 0
    loaded = [load_config(p) for p in paths]
    lines = ["lambda,gamma,J,J1,J2,J3,J4"]
    for lam in (0.1, 2000.0):
        probs = [replace(prob, lam=lam) for prob, _ in loaded]
        sa, sb = (w.solve(prob, solver_options_from_config(cfg))
                  for prob, (_, cfg) in zip(probs, loaded))
        ops = w.assemble(probs[0])
        for g in np.linspace(-0.5, 1.5, 41):
            rep = evaluate(ops, lam, Policy((1.0 - g) * sa.u_ff + g * sb.u_ff,
                                            (1.0 - g) * sa.Theta + g * sb.Theta))
            row = (lam, float(g), rep.J, rep.J1, rep.J2, rep.J3, rep.J4)
            lines.append(",".join(repr(x) for x in row))
    assert out.read_text().splitlines() == lines


def test_scan_bad_lambda_sweep_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json")
    out = tmp_path / "scan.csv"
    assert main(["scan", str(cfg), str(cfg), "--lambda-sweep", "1,x", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'x'" in err
    assert not out.exists()


def test_check_benchmark_passes(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json")
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out
    for row in ("Stilde positive definite",
                "grad_uff vs finite differences",
                "grad_theta vs finite differences",
                "hessian_theta vs finite differences"):
        line = next(l for l in out.splitlines() if l.startswith(row))
        assert "PASS" in line


def test_check_lambda_zero_reports_pd_hessian(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json")
    raw = json.loads(cfg.read_text())
    raw["lambda"] = 0.0
    cfg.write_text(json.dumps(raw))
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "Hessian PD at Theta=0" in out


def test_check_bad_stilde_exit_one(tmp_path):
    cfg = write_config(tmp_path / "p.json", S0=[[0.0, 0.0], [0.0, 0.0]],
                       Sw=[[0.0, 0.0], [0.0, 0.0]])
    assert main(["check", str(cfg)]) == 1


def test_check_singular_sd_fails_rows_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json", Sd=[[0.2, 0.0], [0.0, 0.0]])
    assert main(["check", str(cfg)]) == 1
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines()
                if l.startswith("derivatives and Theta=0 certificate"))
    assert "FAIL" in line and "NotPDError" in line
    assert "desired covariance not PD" in out


def test_simulate_roundtrip_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json", Sd=SD_TIGHT)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(cfg), "-o", str(sol)]) == 0

    # the solution file reproduces the in-memory policy exactly
    payload = json.loads(sol.read_text())
    import wsteer as w
    from wsteer.cli import load_config, solver_options_from_config
    problem, raw = load_config(str(cfg))
    resolved = w.solve(problem, solver_options_from_config(raw))
    assert np.array_equal(np.asarray(payload["u_ff"]), resolved.u_ff)
    assert np.array_equal(np.asarray(payload["Theta"]), resolved.Theta)

    rep1 = tmp_path / "r1.json"
    rep2 = tmp_path / "r2.json"
    code = main(["simulate", str(cfg), str(sol), "--samples", "20000",
                 "--seed", "3", "-o", str(rep1)])
    assert code == 0
    assert main(["simulate", str(cfg), str(sol), "--samples", "20000",
                 "--seed", "3", "-o", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()


def test_simulate_insufficient_samples_exit_one(tmp_path):
    cfg = write_config(tmp_path / "p.json", Sd=SD_TIGHT)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(cfg), "-o", str(sol)]) == 0
    assert main(["simulate", str(cfg), str(sol), "--samples", "1"]) == 1


def test_simulate_seed_out_of_range_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json", Sd=SD_TIGHT)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(cfg), "-o", str(sol)]) == 0
    assert main(["simulate", str(cfg), str(sol), "--samples", "100",
                 "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err


def test_simulate_dimension_mismatch_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json", Sd=SD_TIGHT)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(cfg), "-o", str(sol)]) == 0
    cfg5 = write_config(tmp_path / "p5.json", Sd=SD_TIGHT, N=5)
    assert main(["simulate", str(cfg5), str(sol)]) == 1
    assert "dimensions" in capsys.readouterr().err


def test_shipped_configs_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    from wsteer.cli import load_config
    for name in ("double_integrator_wide.json", "double_integrator_tight.json"):
        problem, _ = load_config(str(root / name))
        import wsteer as w
        assert w.validate(problem) == []
