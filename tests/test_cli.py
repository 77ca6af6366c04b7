"""Command-line interface: config parsing, exit codes, artifact files."""

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import SD_TIGHT, SD_WIDE, rand_problem
import wsteer as w
import wsteer.cli as cli
from wsteer.cli import load_config, main, solver_options_from_config
from wsteer.objective import Policy, evaluate, grad_theta, grad_uff, hessian_theta

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

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


def test_solve_rerun_byte_identical_on_structured_curvature(tmp_path):
    # N = 30 is above the size rule, and the wide target takes the spectral
    # certificate, whose Lanczos run starts from a fixed vector
    cfg = write_config(tmp_path / "p.json", N=30)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", str(cfg), "-o", str(out1)]) == 0
    assert main(["solve", str(cfg), "-o", str(out2)]) == 0
    assert json.loads(out1.read_text())["certificate"]["kind"] == "HessianPD"
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


def test_solve_newton_budget_spent_exit_two(tmp_path, capsys):
    # one Newton step cannot bring the tight target at lambda=100 to 1e-6
    cfg = write_config(tmp_path / "p.json", Sd=SD_TIGHT, **{"lambda": 100.0},
                       solver={**BASE_CONFIG["solver"], "newton_max_iters": 1})
    out = tmp_path / "s.json"
    assert main(["solve", str(cfg), "-o", str(out)]) == 2
    trace = json.loads(out.read_text())["trace"]
    assert trace["termination"] == "newton_max_iters"
    assert capsys.readouterr().err.splitlines() == [
        f"not converged: final residual {trace['final_residual']:.3e} > stationarity_tol 1e-06"]


def test_explicit_zero_theta_init_writes_the_default_solution(tmp_path):
    zero = tmp_path / "zero.json"
    matrix = tmp_path / "matrix.json"
    write_config(zero, solver={**BASE_CONFIG["solver"], "theta_init": "zero"})
    write_config(matrix, solver={**BASE_CONFIG["solver"], "theta_init": [[0.0] * 22] * 10})
    assert main(["solve", str(zero), "-o", str(tmp_path / "a.json")]) == 0
    assert main(["solve", str(matrix), "-o", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


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


def test_scan_parses_both_solver_sections_before_any_solve(tmp_path, capsys, monkeypatch):
    cfg_a = write_config(tmp_path / "a.json")
    cfg_b = write_config(tmp_path / "b.json", solver={"max_ccp_iters": 2.5})
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return w.solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", counted)
    assert main(["scan", str(cfg_a), str(cfg_b), "--lambda-sweep", "0.1,1",
                 "-o", str(tmp_path / "s.csv")]) == 1
    assert "field 'solver.max_ccp_iters'" in capsys.readouterr().err
    assert calls == []


ZERO_POLICY = {"u_ff": [0.0] * 10, "Theta": [[0.0] * 22] * 10}
ALL_COMMANDS = ("solve", "check", "scan", "simulate")
# (payload id, file, payload, the commands that read the malformed part)
MALFORMED = [
    ("config 5", "config", 5, ALL_COMMANDS),
    ("config list", "config", ["N"], ALL_COMMANDS),
    ("config string", "config", "N", ALL_COMMANDS),
    ("object in A", "config", {**BASE_CONFIG, "A": [[{"a": 1.0}, 0.1], [0.0, 1.0]]},
     ALL_COMMANDS),
    ("solver list", "config", {**BASE_CONFIG, "solver": [1]}, ("solve", "check", "scan")),
    ("simulation number", "config", {**BASE_CONFIG, "simulation": 5}, ("simulate",)),
    ("ragged theta_init", "config",
     {**BASE_CONFIG, "solver": {"theta_init": [[0.0] * 22] * 9 + [[0.0] * 21]}},
     ("solve", "check", "scan")),
    ("solution list", "solution", [ZERO_POLICY], ("simulate",)),
    ("ragged Theta", "solution", {**ZERO_POLICY, "Theta": [[0.0] * 22] * 9 + [[0.0] * 21]},
     ("simulate",)),
    ("string u_ff", "solution", {**ZERO_POLICY, "u_ff": "zero"}, ("simulate",)),
]


@pytest.mark.parametrize("command, which, payload", [
    pytest.param(command, which, payload, id=f"{name}-{command}")
    for name, which, payload, commands in MALFORMED for command in commands])
def test_malformed_json_one_error_line_exit_one(tmp_path, capsys, command, which, payload):
    files = {"config": write_config(tmp_path / "p.json"), "solution": tmp_path / "sol.json"}
    files["solution"].write_text(json.dumps(ZERO_POLICY))
    files[which].write_text(json.dumps(payload))
    cfg, sol = str(files["config"]), str(files["solution"])
    argv = {"solve": ["solve", cfg, "-o", str(tmp_path / "out.json")],
            "check": ["check", cfg],
            "scan": ["scan", cfg, cfg, "--points", "3", "-o", str(tmp_path / "s.csv")],
            "simulate": ["simulate", cfg, sol, "--samples", "100"]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize("name", ["N", "lambda"])
def test_missing_scalar_field_one_error_line_exit_one(tmp_path, capsys, name, command):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg[name]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(ZERO_POLICY))
    argv = {"solve": ["solve", str(path), "-o", str(tmp_path / "out.json")],
            "check": ["check", str(path)],
            "scan": ["scan", str(path), str(path), "--points", "3", "-o", str(tmp_path / "s.csv")],
            "simulate": ["simulate", str(path), str(sol), "--samples", "100"]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: config missing field '{name}'"]
    assert captured.out == ""


def _with_entry(matrix, value):
    """A copy of a nested list whose last entry is value."""
    out = json.loads(json.dumps(matrix))
    row = out
    while isinstance(row[-1], list):
        row = row[-1]
    row[-1] = value
    return out


# (payload id, file, payload, the field named, the commands that read it)
NON_FINITE = [
    ("null u_ff", "solution", {**ZERO_POLICY, "u_ff": _with_entry(ZERO_POLICY["u_ff"], None)},
     "solution file field 'u_ff'", ("simulate",)),
    ("null Theta", "solution",
     {**ZERO_POLICY, "Theta": _with_entry(ZERO_POLICY["Theta"], None)},
     "solution file field 'Theta'", ("simulate",)),
    ("NaN Theta", "solution",
     {**ZERO_POLICY, "Theta": _with_entry(ZERO_POLICY["Theta"], float("nan"))},
     "solution file field 'Theta'", ("simulate",)),
    ("Infinity u_ff", "solution",
     {**ZERO_POLICY, "u_ff": _with_entry(ZERO_POLICY["u_ff"], float("-inf"))},
     "solution file field 'u_ff'", ("simulate",)),
    ("null Sd", "config", {**BASE_CONFIG, "Sd": _with_entry(BASE_CONFIG["Sd"], None)},
     "config field 'Sd'", ALL_COMMANDS),
]


@pytest.mark.parametrize("command, which, payload, field", [
    pytest.param(command, which, payload, field, id=f"{name}-{command}")
    for name, which, payload, field, commands in NON_FINITE for command in commands])
def test_null_or_non_finite_entry_names_file_and_field(tmp_path, capsys, command, which,
                                                        payload, field):
    files = {"config": write_config(tmp_path / "p.json"), "solution": tmp_path / "sol.json"}
    files["solution"].write_text(json.dumps(ZERO_POLICY))
    files[which].write_text(json.dumps(payload))
    cfg, sol = str(files["config"]), str(files["solution"])
    argv = {"solve": ["solve", cfg, "-o", str(tmp_path / "out.json")],
            "check": ["check", cfg],
            "scan": ["scan", cfg, cfg, "--points", "3", "-o", str(tmp_path / "s.csv")],
            "simulate": ["simulate", cfg, sol, "--samples", "100"]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {field} has a null or non-finite entry"]
    assert captured.out == ""


ZERO_THETA = ZERO_POLICY["Theta"]
NOT_FINITE_THETA_INIT = "error: config field 'solver.theta_init' has a null or non-finite entry"
# (theta_init id, theta_init, the start of the one error line)
BAD_THETA_INIT = [
    ("ragged", ZERO_THETA[:9] + [[0.0] * 21],
     "error: field 'solver.theta_init' is not a numeric array: "),
    ("null", _with_entry(ZERO_THETA, None), NOT_FINITE_THETA_INIT),
    ("NaN", _with_entry(ZERO_THETA, float("nan")), NOT_FINITE_THETA_INIT),
    ("Infinity", _with_entry(ZERO_THETA, float("inf")), NOT_FINITE_THETA_INIT),
    ("2 x 2", [[0.0, 0.0], [0.0, 0.0]], "error: theta_init shape (2, 2) != (10, 22)"),
]


@pytest.mark.parametrize("command", ["solve", "check", "scan"])
@pytest.mark.parametrize("theta_init, line", [
    pytest.param(theta_init, line, id=name) for name, theta_init, line in BAD_THETA_INIT])
def test_bad_theta_init_names_the_field_exit_one(tmp_path, capsys, command, theta_init, line):
    # caught before any solve, or for a shape that does not fit the problem
    # before the first evaluation: one error line, also from check
    cfg = str(write_config(tmp_path / "p.json",
                           solver={**BASE_CONFIG["solver"], "theta_init": theta_init}))
    argv = {"solve": ["solve", cfg, "-o", str(tmp_path / "out.json")],
            "check": ["check", cfg],
            "scan": ["scan", cfg, cfg, "--points", "3", "-o", str(tmp_path / "s.csv")]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(line)
    assert captured.out == ""


def test_check_benchmark_passes(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json")
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out
    for row in ("Stilde positive definite",
                "grad_uff vs finite differences",
                "grad_theta vs finite differences",
                "hessian_theta vs finite differences",
                "structured curvature vs dense causal block"):
        line = next(l for l in out.splitlines() if l.startswith(row))
        assert "PASS" in line


def test_check_reports_inertia_decision(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path / "p.json")
    row = "structured curvature vs dense causal block"
    assert main(["check", str(cfg)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith(row))
    assert "neg(H_U) 0, neg(S) 0, PD True vs dense Cholesky True" in line

    # a dense Cholesky that fails on this clearly PD block: the decisions
    # disagree outside the margin, and the row fails
    monkeypatch.setattr(cli, "_cholesky_succeeds", lambda H: False)
    assert main(["check", str(cfg)]) == 1
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith(row))
    assert "FAIL" in line and "PD True vs dense Cholesky False" in line


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


def pointwise_central_diff(f, x):
    """The oracle: `cli._central_diff` evaluating f one perturbed point at a time."""
    cols = []
    for i in range(x.size):
        h = max(1e-6, 1e-6 * abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((f(xp) - f(xm)) / (2 * h))
    return np.stack(cols, axis=-1)


def pointwise_fd_grad_check(ops, lam, mask, rng):
    """The oracle: `cli._fd_grad_check` through lone `evaluate` and `grad_theta` calls."""
    u = 0.5 * rng.standard_normal(ops.N * ops.n_u)
    Theta = mask.project(0.2 * rng.standard_normal(mask.theta_shape))
    shape = Theta.shape

    def J_of(u_vec, T):
        return evaluate(ops, lam, Policy(u_vec, T)).J

    def vec_grad(flat):
        return grad_theta(ops, lam, flat.reshape(shape, order="F")).reshape(-1, order="F")

    def rel(exact, approx):
        return np.linalg.norm(exact - approx) / max(1.0, np.linalg.norm(exact))

    fd_u = pointwise_central_diff(lambda v: J_of(v, Theta), u)
    fd_t = pointwise_central_diff(lambda v: J_of(u, v.reshape(shape)), Theta.ravel())
    fd_h = pointwise_central_diff(vec_grad, Theta.reshape(-1, order="F"))
    return (rel(grad_uff(ops, lam, u), fd_u),
            rel(grad_theta(ops, lam, Theta), fd_t.reshape(shape)),
            rel(hessian_theta(ops, lam, Theta), fd_h))


def fd_check_inputs(source):
    if source == "time-varying":
        problem = rand_problem(np.random.default_rng(0), N=4, n_x=2, n_u=2, n_w=3, lam=2.0)
    else:
        problem, _ = load_config(CONFIGS / f"double_integrator_{source}.json")
    ops = w.assemble(problem)
    return ops, problem.lam, w.causality_mask(ops.N, ops.n_u, ops.n_x)


@pytest.mark.parametrize("source", ["tight", "wide", "time-varying"])
def test_fd_grad_check_equals_pointwise_loop(source):
    # each stacked member is bit-identical to a lone evaluation, so the
    # relative errors, not only the printed table, equal the loop's
    ops, lam, mask = fd_check_inputs(source)
    assert (cli._fd_grad_check(ops, lam, mask, np.random.default_rng(0))
            == pointwise_fd_grad_check(ops, lam, mask, np.random.default_rng(0)))


def test_fd_grad_check_runs_few_terminal_kernels(monkeypatch):
    # one kernel pass per stack, 2 + 8 + 8 for this config's 10 + 220 + 220
    # coordinates, and one each for the exact gradient and Hessian
    ops, lam, mask = fd_check_inputs("tight")
    calls = []
    real = w.objective._terminal
    monkeypatch.setattr(w.objective, "_terminal",
                        lambda *args: calls.append(1) or real(*args))
    cli._fd_grad_check(ops, lam, mask, np.random.default_rng(0))
    assert 0 < len(calls) <= 30


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


@pytest.mark.parametrize("command", ["solve", "scan", "simulate"])
def test_output_into_missing_directory_one_error_line_exit_one(tmp_path, capsys, command):
    cfg = str(write_config(tmp_path / "p.json", Sd=SD_TIGHT))
    sol = tmp_path / "sol.json"
    assert main(["solve", cfg, "-o", str(sol)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "missing" / "out")
    argv = {"solve": ["solve", cfg, "-o", out],
            "scan": ["scan", cfg, cfg, "--points", "3", "-o", out],
            "simulate": ["simulate", cfg, str(sol), "--samples", "2000", "-o", out]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and out in err[0]
    assert captured.out == ""


def test_solve_validates_once(tmp_path, monkeypatch):
    from wsteer.problem import validate
    calls = []

    def counted(problem):
        calls.append(problem)
        return validate(problem)

    monkeypatch.setattr(cli, "validate", counted)
    monkeypatch.setattr("wsteer.solver.validate", counted)
    assert main(["solve", str(write_config(tmp_path / "p.json")),
                 "-o", str(tmp_path / "s.json")]) == 0
    assert len(calls) == 1


# (payload id, config overrides, the error line, the commands that read the field)
REJECTED_FIELDS = [
    ("unknown solver key", {"solver": {**BASE_CONFIG["solver"], "stationarity_tolerance": 1e-30}},
     "error: unknown field 'solver.stationarity_tolerance'", ("solve", "check", "scan")),
    ("unknown simulation key", {"simulation": {"samples": 2000, "sed": 1}},
     "error: unknown field 'simulation.sed'", ("simulate",)),
    ("time_invariant string", {"time_invariant": "false"},
     "error: field 'time_invariant' must be true or false, got 'false'", ALL_COMMANDS),
    ("time_invariant 1", {"time_invariant": 1},
     "error: field 'time_invariant' must be true or false, got 1", ALL_COMMANDS),
]


@pytest.mark.parametrize("command, overrides, line", [
    pytest.param(command, overrides, line, id=f"{name}-{command}")
    for name, overrides, line, commands in REJECTED_FIELDS for command in commands])
def test_rejected_field_one_error_line_exit_one(tmp_path, capsys, command, overrides, line):
    cfg = str(write_config(tmp_path / "p.json", **overrides))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(ZERO_POLICY))
    argv = {"solve": ["solve", cfg, "-o", str(tmp_path / "out.json")],
            "check": ["check", cfg],
            "scan": ["scan", cfg, cfg, "--points", "3", "-o", str(tmp_path / "s.csv")],
            "simulate": ["simulate", cfg, str(sol), "--samples", "100"]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert captured.out == ""


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A config and its solution file, for the entry-point smoke test."""
    root = tmp_path_factory.mktemp("entry")
    cfg = write_config(root / "p.json", Sd=SD_TIGHT)
    assert main(["solve", str(cfg), "-o", str(root / "sol.json")]) == 0
    return root


@pytest.mark.parametrize("argv", [
    ["solve", "{missing}"],
    ["check", "{missing}"],
    ["scan", "{cfg}", "{missing}"],
    ["simulate", "{cfg}", "{missing}"],
    ["solve", "{cfg}", "-o", "{missing}/s.json"],
    ["scan", "{cfg}", "{cfg}", "--points", "3", "-o", "{missing}/s.csv"],
    ["simulate", "{cfg}", "{sol}", "--samples", "2000", "-o", "{missing}/r.json"],
], ids=["solve input", "check input", "scan input", "simulate input",
        "solve output", "scan output", "simulate output"])
def test_entry_point_reports_without_traceback(solved, argv):
    # the real entry point in a fresh interpreter, not main() in this one
    paths = {"cfg": solved / "p.json", "sol": solved / "sol.json", "missing": solved / "missing"}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-m", "wsteer.cli", *(a.format(**paths) for a in argv)],
                         capture_output=True, text=True, env=env, cwd=solved)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    err = run.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert run.stdout == ""


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_unknown_top_level_key_one_error_line_exit_one(tmp_path, capsys, command):
    # a misspelled section would otherwise be ignored and its defaults used
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["solvr"] = {**cfg.pop("solver"), "stationarity_tol": 1e-30}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(ZERO_POLICY))
    out = tmp_path / "out"
    argv = {"solve": ["solve", str(path), "-o", str(out)],
            "check": ["check", str(path)],
            "scan": ["scan", str(path), str(path), "--points", "3", "-o", str(out)],
            "simulate": ["simulate", str(path), str(sol), "--samples", "100"]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: unknown field 'solvr'"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["solve", "scan", "simulate"])
@pytest.mark.parametrize("parent", ["missing", "a_file"])
def test_unwritable_output_fails_before_any_solve(tmp_path, capsys, monkeypatch, command, parent):
    cfg = str(write_config(tmp_path / "p.json"))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(ZERO_POLICY))
    (tmp_path / "a_file").write_text("")
    calls = []
    monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(cli.sim, "rollout", lambda *args, **kwargs: calls.append(args))
    out = str(tmp_path / parent / "out")
    argv = {"solve": ["solve", cfg, "-o", out],
            "scan": ["scan", cfg, cfg, "--points", "3", "-o", out],
            "simulate": ["simulate", cfg, str(sol), "--samples", "100", "-o", out]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and out in err[0]
    assert captured.out == "" and calls == []


# Every size here is above the 128 TiB x86-64 user address space, or rejected
# by CPython's own size check, so nothing is allocated under any overcommit mode.
@pytest.mark.parametrize("overrides, argv, line", [
    ({"N": 1e300}, ["solve", "{cfg}", "-o", "{out}"],
     "error: field 'N' is too large to build the system, got 1e+300"),
    ({"N": 10 ** 18}, ["solve", "{cfg}", "-o", "{out}"],
     "error: field 'N' is too large to build the system, got 1000000000000000000"),
    ({}, ["simulate", "{cfg}", "{sol}", "--samples", "100000000000000"],
     "error: Unable to allocate 1.42 PiB for an array with shape (100000000000000, 2) "
     "and data type float64"),
    ({}, ["scan", "{cfg}", "{cfg}", "--points", "100000000000000", "-o", "{out}"],
     "error: Unable to allocate 728. TiB for an array with shape (100000000000000,) "
     "and data type float64"),
], ids=["N 1e300", "N 10**18", "simulate samples", "scan points"])
def test_input_too_large_to_allocate_one_error_line(tmp_path, capsys, overrides, argv, line):
    paths = {"cfg": write_config(tmp_path / "p.json", **overrides),
             "sol": tmp_path / "sol.json", "out": tmp_path / "out"}
    paths["sol"].write_text(json.dumps(ZERO_POLICY))
    assert main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert captured.out == "" and not paths["out"].exists()
