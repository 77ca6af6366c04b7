"""`wsteer check`'s rows: planted defects fail their own row at N = 10 and
N = 100, and the command runs at N = 40 without the dense vec(Theta) Hessian."""

import json
import pathlib

import numpy as np
import pytest

from conftest import long_horizon_problem, per_step_config
import wsteer as w
import wsteer.cli as cli
import wsteer.objective as objective
import wsteer.solver as solver
from wsteer.cli import load_config, main

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
INSTANCES = ["tight N=10", "long horizon N=100"]


@pytest.fixture(scope="module", params=INSTANCES)
def instance(request):
    """(ops, lam, mask, the terminal kernel at the solution) of the tight
    config, or of `long_horizon_problem(default_rng(0), N=100)`."""
    if request.param == "tight N=10":
        problem, _ = load_config(CONFIGS / "double_integrator_tight.json")
    else:
        problem = long_horizon_problem(np.random.default_rng(0), 100)
    ops = w.assemble(problem)
    sol = w.solve(problem)
    return ops, problem.lam, w.causality_mask(ops.N, ops.n_u, ops.n_x), sol.report.kernel


def derivative_errors(ops, lam, mask):
    """`check`'s errors: grad_uff, grad_theta, Hessian and principal block."""
    return cli._derivative_errors(ops, lam, mask, np.random.default_rng(0))


def test_j4_gradient_sign_flip_fails_the_grad_theta_row(instance, monkeypatch):
    ops, lam, mask, _ = instance
    assert derivative_errors(ops, lam, mask)[1] <= 1e-6
    real = objective._grad_theta

    def flipped(ops, lam, ThS, term):  # + J4's gradient, 2 lam FHu^T Mt Omega Stilde
        return real(ops, lam, ThS, term) + ops.FHu.T @ (4.0 * lam * term.Mt @ term.OmS)

    monkeypatch.setattr(objective, "_grad_theta", flipped)
    assert derivative_errors(ops, lam, mask)[1] > 1e-6


def test_z_dropped_from_the_weight_fails_the_hessian_row(instance, monkeypatch):
    ops, lam, mask, _ = instance
    _, _, err_h, err_b = derivative_errors(ops, lam, mask)
    assert err_h <= 1e-5 and err_b <= 1e-10
    monkeypatch.setattr(objective._StructuredCurvature, "_weight",
                        objective._ConvexCurvature._weight)
    # matvec is H_U alone: the principal-block row fails as well
    _, _, err_h, err_b = derivative_errors(ops, lam, mask)
    assert err_h > 1e-5 and err_b > 1e-10


def test_one_wrong_block_of_h_u_fails_the_structured_row(instance, monkeypatch):
    ops, lam, mask, kernel = instance
    name, ok, detail = cli._structured_row(ops, lam, mask, kernel, np.random.default_rng(0))
    assert ok and detail.startswith("Newton solve backward error ")
    real = objective._StructuredCurvature.E.func

    def perturbed(self):  # E_t of the middle block, 1% off
        E = np.array(np.broadcast_to(real(self), (ops.N, ops.n_x, ops.n_x)))
        E[ops.N // 2] *= 1.01
        return E

    monkeypatch.setattr(objective._StructuredCurvature, "E", property(perturbed))
    name, ok, detail = cli._structured_row(ops, lam, mask, kernel, np.random.default_rng(0))
    assert name == "structured curvature at Theta*" and not ok
    assert float(detail.split()[4].rstrip(",")) > 1e-14  # the Newton solve's backward error


def test_check_at_n40_forms_no_dense_vec_theta_hessian(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(per_step_config(long_horizon_problem(np.random.default_rng(0), 40))))
    sizes, dense = [], []
    real_block = objective._hessian_block

    def block(ops, lam, idx, term=None):
        sizes.append(len(idx))
        return real_block(ops, lam, idx, term)

    for module in (objective, cli):
        monkeypatch.setattr(module, "_hessian_block", block)
    for module in (objective, solver, w):
        monkeypatch.setattr(module, "hessian_theta", lambda *args, **kw: dense.append(1))
    assert main(["check", str(cfg)]) == 0
    # n_free = 6560 entries: every block the check forms is at most 32 x 32
    assert "on 32 of 6560 free entries" in capsys.readouterr().out
    assert sizes == [32] and dense == []


def planted_lambda_min(monkeypatch):
    """Every spectral certificate reports 1.5 times its true lambda_min."""
    real = objective._lambda_min
    monkeypatch.setattr(objective, "_lambda_min", lambda *args: 1.5 * real(*args))


def test_a_contradicting_certificate_at_the_solution_fails(tmp_path, monkeypatch, capsys):
    # the tight target at N = 20: solve issues the dominance certificate, and
    # check's spectral one reports lambda_min 3, above H's eigenvalue 2
    cfg = json.loads((CONFIGS / "double_integrator_tight.json").read_text())
    path = tmp_path / "tight20.json"
    path.write_text(json.dumps(dict(cfg, N=20)))
    planted_lambda_min(monkeypatch)
    assert main(["check", str(path)]) == 1
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("structured curvature at Theta*"))
    assert " FAIL  Newton solve backward error " in line
    assert ("lambda_min 3.000000000e+00, H - mu I PD at mu = lambda_min -/+ 3.0e-08: [True], "
            "eigenvalue 2 on 342 dimensions") in line


def test_a_certificate_mismatch_inside_solve_fails(monkeypatch, capsys):
    # solve's own spectral certificate on the wide target, lambda_min 1.962
    # planted as 2.943: H - mu I is not PD just below 2, and the row fails
    planted_lambda_min(monkeypatch)
    assert main(["check", str(CONFIGS / "double_integrator_wide.json")]) == 1
    lines = capsys.readouterr().out.splitlines()
    star, row = (next(l for l in lines if l.startswith(name))
                 for name in ("Hessian PD at Theta* (certificate)", "structured curvature at Theta*"))
    assert " INFO  dominance gap " in star and "min eig Hess 2.943e+00 (not dominated)" in star
    assert " FAIL  Newton solve backward error " in row
    assert "lambda_min 2.943113195e+00, H - mu I PD at mu = lambda_min -/+ 2.9e-08: [False]" in row
