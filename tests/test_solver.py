"""Feedforward solve, convex-concave iteration, Newton refinement, line scans."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    SD_TIGHT,
    SD_WIDE,
    check_monotone,
    double_integrator_problem,
    rand_causal_theta,
    rand_problem,
)
import wsteer as w
import wsteer.solver
from wsteer import matops as mo
from wsteer.errors import (
    DimensionMismatchError,
    HessianNotPDError,
    NonFiniteError,
    SingularTerminalCovarianceError,
    ValidationError,
    WsteerError,
)
from wsteer.objective import (
    Policy,
    _hessian_block,
    evaluate,
    grad_theta_j4,
    grad_uff,
    hessian_theta,
)
from wsteer.solver import (
    SolverOptions,
    _curvature_solve,
    _reduced_curvature_factor,
    ccp_solve,
    ccp_subproblem,
    count_strict_local_minima,
    line_scan,
    newton_refine,
    solve,
    solve_feedforward,
    solve_feedforward_woodbury,
)


def setup_random(seed, **kw):
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, **kw)
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    return rng, prob, ops, mask


def certified_problem(rng, N=3, n_x=2, n_u=1):
    """Instance whose desired covariance sits below the last-step noise floor,
    so the terminal covariance dominates it for every feedback gain and the
    objective is strictly convex everywhere."""
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, lam=float(rng.uniform(0.5, 5.0)))
    sysm = prob.system
    floor = sysm.G[-1] @ prob.noise_cov @ sysm.G[-1].T
    Sd = 0.4 * np.linalg.eigvalsh(floor)[0] * np.eye(n_x)
    return w.SteeringProblem(
        prob.system, prob.initial, prob.noise_cov,
        w.Gaussian(prob.desired.mean, Sd), prob.lam,
    )


def test_feedforward_zero_cases():
    _, prob, ops, _ = setup_random(0)
    # the target mean the uncontrolled mean already reaches
    trivial = replace(prob, desired=w.Gaussian(ops.FGamma_mu0, prob.desired.cov))
    u = solve_feedforward(w.assemble(trivial), prob.lam)
    assert np.linalg.norm(u) <= 1e-12
    assert_allclose(solve_feedforward(ops, 0.0), np.zeros(ops.N * ops.n_u))


def test_feedforward_first_order_condition_and_residual():
    for seed in (1, 2, 3):
        _, prob, ops, _ = setup_random(seed)
        u = solve_feedforward(ops, prob.lam)
        g = grad_uff(ops, prob.lam, u)
        assert np.linalg.norm(g) <= 1e-10 * (1.0 + np.linalg.norm(u))
        FHu = ops.FHu
        A = np.eye(u.size) + prob.lam * (FHu.T @ FHu)
        rhs = prob.lam * (FHu.T @ (ops.mud - ops.Gamma[-ops.n_x:, :] @ ops.mu0))
        assert np.linalg.norm(A @ u - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_feedforward_woodbury_agreement():
    for seed in (4, 5, 6):
        _, prob, ops, _ = setup_random(seed)
        u1 = solve_feedforward(ops, prob.lam)
        u2 = solve_feedforward_woodbury(ops, prob.lam)
        assert np.linalg.norm(u1 - u2) <= 1e-10 * max(1.0, np.linalg.norm(u1))


def test_ccp_subproblem_zero_lambda_returns_zero():
    _, _, ops, mask = setup_random(7)
    out = ccp_subproblem(ops, 0.0, np.zeros(mask.theta_shape), mask)
    assert np.all(out == 0.0)


def test_ccp_subproblem_linearized_stationarity():
    rng, prob, ops, mask = setup_random(8)
    Theta_k = rand_causal_theta(rng, mask)
    out = ccp_subproblem(ops, prob.lam, Theta_k, mask)
    # gradient of J2 + J3 - <grad J4(Theta_k), .> at the output, on free entries
    G4 = grad_theta_j4(ops, prob.lam, Theta_k)
    G = (2.0 * out @ ops.Stilde
         + 2.0 * prob.lam * (ops.FHu.T @ (ops.F + ops.FHu @ out) @ ops.Stilde)
         - G4)
    res = np.linalg.norm(G.reshape(-1, order="F")[mask.free_entries])
    assert res <= 1e-10 * max(1.0, np.linalg.norm(out))
    assert mask.is_causal(out)


def test_ccp_subproblem_majorization_descent():
    for seed in (9, 10, 11):
        rng, prob, ops, mask = setup_random(seed)
        u = np.zeros(ops.N * ops.n_u)
        Theta_k = rand_causal_theta(rng, mask)
        J_k = evaluate(ops, prob.lam, Policy(u, Theta_k), mask).J
        Theta_n = ccp_subproblem(ops, prob.lam, Theta_k, mask)
        J_n = evaluate(ops, prob.lam, Policy(u, Theta_n), mask).J
        assert J_n <= J_k + 1e-10


def normal_equation_step(ops, lam, Theta_k, mask):
    """The CCP step as first written: the reduced normal equations
    H0 theta = grad J4(Theta_k) - 2 lam FHu^T F Stilde on the free entries."""
    const = 2.0 * lam * (ops.FHu.T @ ops.Stilde[-ops.n_x:, :])
    rhs = mask.gather(grad_theta_j4(ops, lam, Theta_k) - const)
    return mask.scatter(_curvature_solve(_reduced_curvature_factor(ops, lam, mask), rhs))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    N=st.integers(1, 5),
    n_x=st.integers(1, 3),
    n_u=st.sampled_from([1, 2]),
    extra_w=st.sampled_from([0, 1]),
    log_lam=st.floats(-3.0, 4.0),
)
def test_ccp_step_matches_normal_equations(seed, N, n_x, n_u, extra_w, log_lam):
    # time-varying systems, lambda log-uniform in [1e-3, 1e4]
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, n_w=n_x + extra_w, lam=10.0 ** log_lam)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, n_u, n_x)
    Theta_k = rand_causal_theta(rng, mask)
    step = ccp_subproblem(ops, prob.lam, Theta_k, mask)
    ref = normal_equation_step(ops, prob.lam, Theta_k, mask)
    # each solve has a forward error of order eps cond(H0), so on an
    # ill-conditioned H0 they differ by more than 1e-10: 3.0e-8 at
    # cond(H0) = 1.9e9 in random draws of this strategy
    h0 = np.linalg.eigvalsh(_hessian_block(ops, prob.lam, mask.free_entries))
    tol = max(1e-10, np.finfo(float).eps * h0[-1] / h0[0])
    assert np.linalg.norm(step - ref) <= tol * max(1.0, np.linalg.norm(ref))
    assert mask.is_causal(step)
    # the gradient ccp_solve passes in, from its record at Theta_k
    rep = evaluate(ops, prob.lam, Policy(rng.standard_normal(N * n_u), Theta_k), mask)
    factor = _reduced_curvature_factor(ops, prob.lam, mask)
    assert np.array_equal(ccp_subproblem(ops, prob.lam, Theta_k, mask, factor=factor,
                                         grad=rep.grad_theta), step)


def test_ccp_subproblem_rejects_non_causal_iterate():
    rng, prob, ops, mask = setup_random(12)
    Theta_k = rand_causal_theta(rng, mask)
    Theta_k[0, -1] = 1.0
    with pytest.raises(ValueError, match="causality pattern"):
        ccp_subproblem(ops, prob.lam, Theta_k, mask)


def test_ccp_solve_trivial_target():
    _, prob, ops, mask = setup_random(12)
    n_x = ops.n_x
    target = w.SteeringProblem(
        prob.system, prob.initial, prob.noise_cov,
        w.Gaussian(ops.Gamma[-n_x:, :] @ prob.initial.mean, ops.Stilde[-n_x:, -n_x:]),
        prob.lam,
    )
    tops = w.assemble(target)
    Theta, trace = ccp_solve(tops, target.lam, mask)
    assert np.abs(Theta).max() <= 1e-8
    assert trace.records[-1].J <= 1e-8
    assert trace.converged


def test_stalled_solve_is_not_converged():
    # CCP tests stationarity first, so a stall always leaves the residual above tol
    opts = SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14, stationarity_tol=1e-6,
                         newton="off")
    sol = w.solve(double_integrator_problem(SD_TIGHT, lam=100.0), opts)
    assert sol.trace.termination == "objective_stalled"
    assert sol.trace.records[-1].residual > opts.stationarity_tol
    assert not sol.trace.converged


def test_ccp_solve_monotone_and_causal():
    for seed in (13, 14):
        _, prob, ops, mask = setup_random(seed)
        Theta, trace = ccp_solve(ops, prob.lam, mask,
                                 SolverOptions(max_ccp_iters=500))
        check_monotone(trace)
        assert mask.is_causal(Theta)


def test_ccp_benchmark_reaches_stationarity():
    for Sd in (SD_WIDE, SD_TIGHT):
        prob = double_integrator_problem(Sd, lam=1.0)
        sol = solve(prob, SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14,
                                        stationarity_tol=1e-6, newton="off"))
        assert sol.trace.records[-1].residual <= 1e-6


def test_ccp_matches_newton_on_certified_instance():
    rng = np.random.default_rng(15)
    prob = certified_problem(rng)
    base = SolverOptions(max_ccp_iters=5000, obj_rel_tol=1e-14, stationarity_tol=1e-9,
                         newton="off")
    refined = SolverOptions(max_ccp_iters=50, obj_rel_tol=1e-14,
                            stationarity_tol=1e-9, newton="when_certified")
    s_ccp = solve(prob, base)
    s_newton = solve(prob, refined)
    assert np.linalg.norm(s_ccp.Theta - s_newton.Theta) <= 1e-6 * max(
        1.0, np.linalg.norm(s_ccp.Theta))


def test_newton_single_step_on_quadratic():
    rng, _, ops, mask = setup_random(16)
    Theta0 = rand_causal_theta(rng, mask)
    out = newton_refine(ops, 0.0, Theta0, mask,
                        SolverOptions(newton_max_iters=1, stationarity_tol=1e-14))
    assert np.abs(out).max() <= 1e-10


def test_newton_quadratic_tail():
    rng = np.random.default_rng(17)
    prob = certified_problem(rng)
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    Theta, trace = ccp_solve(ops, prob.lam, mask,
                             SolverOptions(max_ccp_iters=40, obj_rel_tol=1e-9,
                                           stationarity_tol=1e-9))
    newton_refine(ops, prob.lam, Theta, mask,
                  SolverOptions(newton_max_iters=25, stationarity_tol=1e-10),
                  trace=trace)
    res = [r.residual for r in trace.records if r.kind == "newton"]
    assert res and res[-1] <= 1e-8
    # quadratic tail while above the round-off floor of the gradient
    for r_prev, r_next in zip(res, res[1:]):
        if 1e-8 < r_prev < 1e-3:
            assert r_next <= 1e7 * r_prev ** 2 + 1e-12


def test_newton_line_search_accepts_steps_within_evaluation_noise():
    # lambda log-uniform in [1e-3, 1e4].  On draws 3, 254 and 258 of this
    # sequence the full Newton step near the optimum cuts the residual by
    # orders of magnitude while the computed J rises by its evaluation noise,
    # about eps (J1 + J2 + J3 + J4); a search accepting only J <= J_prev
    # halved such steps to nothing and the solves ended newton_max_iters
    rng = np.random.default_rng(0)
    terminations = []
    for _ in range(300):
        lam = 10.0 ** rng.uniform(-3.0, 4.0)
        terminations.append(solve(rand_problem(rng, lam=lam)).trace.termination)
    assert terminations == ["stationarity"] * 300


def test_newton_budget_spent_ends_newton_max_iters():
    # the tight target at lambda=100 hands over to Newton, and one step
    # leaves the residual far above 1e-6
    opts = SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14, newton_max_iters=1)
    sol = solve(double_integrator_problem(SD_TIGHT, lam=100.0), opts)
    assert sol.trace.termination == "newton_max_iters" and not sol.trace.converged
    assert [r.kind for r in sol.trace.records].count("newton") == 1
    assert sol.trace.records[-1].residual > opts.stationarity_tol


def test_exhausted_line_search_ends_as_pure_ccp(monkeypatch):
    # every Newton candidate's J is raised far above the current J plus its
    # noise allowance, so each line search runs out of halvings
    real_refine, real_evaluate = wsteer.solver.newton_refine, wsteer.solver.evaluate
    evals = []  # evaluations made by each newton_refine call
    inside = [False]

    def evaluate(*args, **kwargs):
        rep = real_evaluate(*args, **kwargs)
        if not inside[0]:
            return rep
        evals[-1] += 1
        # the first evaluation is the current iterate, every later one a candidate
        return rep if evals[-1] == 1 else replace(rep, J=rep.J + 1.0)

    def refine(*args, **kwargs):
        evals.append(0)
        inside[0] = True
        try:
            return real_refine(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(wsteer.solver, "evaluate", evaluate)
    monkeypatch.setattr(wsteer.solver, "newton_refine", refine)
    prob = double_integrator_problem(SD_TIGHT, lam=100.0)
    opts = SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14)
    sol = solve(prob, opts)
    monkeypatch.undo()
    ccp_only = solve(prob, replace(opts, newton="off"))

    assert evals and all(n == 1 + 60 for n in evals)
    assert "newton" not in [r.kind for r in sol.trace.records]
    assert sol.trace.termination == ccp_only.trace.termination
    assert abs(sol.report.J - ccp_only.report.J) <= 1e-10 * abs(ccp_only.report.J)


def test_error_inside_ccp_step_names_the_iteration(monkeypatch):
    calls = []

    def failing_solve(factor, rhs):
        calls.append(rhs)
        if len(calls) == 2:
            raise NonFiniteError("injected")
        return _curvature_solve(factor, rhs)

    monkeypatch.setattr(wsteer.solver, "_curvature_solve", failing_solve)
    with pytest.raises(NonFiniteError, match=r"^CCP iteration 2: injected$"):
        solve(double_integrator_problem(SD_TIGHT), SolverOptions(newton="off"))


def saddle_start():
    """A point between the two lambda=2000 basins of the tight target where
    the reduced Hessian is indefinite."""
    lam = 2000.0
    opts = SolverOptions(max_ccp_iters=3000, obj_rel_tol=1e-18, stationarity_tol=1e-5,
                         newton="off")
    s_wide = solve(double_integrator_problem(SD_WIDE, lam=lam), opts)
    s_tight = solve(double_integrator_problem(SD_TIGHT, lam=lam), opts)
    ops = w.assemble(double_integrator_problem(SD_TIGHT, lam=lam))
    grid = np.linspace(1.0, 1.45, 46)
    samples = line_scan(ops, lam, Policy(s_wide.u_ff, s_wide.Theta),
                        Policy(s_tight.u_ff, s_tight.Theta), grid)
    g_max = grid[int(np.argmax([s.J for s in samples]))]
    return lam, s_wide.Theta + g_max * (s_tight.Theta - s_wide.Theta)


def test_newton_raises_on_indefinite_reduced_hessian():
    lam, Theta_sad = saddle_start()
    ops = w.assemble(double_integrator_problem(SD_TIGHT, lam=lam))
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    H = hessian_theta(ops, lam, Theta_sad)[np.ix_(mask.free_entries, mask.free_entries)]
    assert np.linalg.eigvalsh(H)[0] < 0.0
    with pytest.raises(HessianNotPDError):
        newton_refine(ops, lam, Theta_sad, mask, SolverOptions(newton_max_iters=3))


@pytest.mark.parametrize("lam", [100.0, 2000.0, 1e4])
@pytest.mark.parametrize("Sd", [SD_TIGHT, SD_WIDE], ids=["tight", "wide"])
def test_default_solve_switches_to_newton_and_converges(Sd, lam):
    # pure CCP stalls or runs out of steps on each of these
    sol = solve(double_integrator_problem(Sd, lam=lam))
    kinds = [r.kind for r in sol.trace.records]
    assert sol.trace.termination == "stationarity"
    assert sol.trace.records[-1].residual <= SolverOptions().stationarity_tol
    assert "ccp" in kinds and "newton" in kinds
    check_monotone(sol.trace)


def test_saddle_start_falls_back_to_ccp(monkeypatch):
    lam, Theta_sad = saddle_start()
    prob = double_integrator_problem(SD_TIGHT, lam=lam)
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    assert np.linalg.eigvalsh(hessian_theta(ops, lam, Theta_sad, mask))[0] < 0.0

    raised = []

    def recording(*args, **kwargs):
        try:
            return newton_refine(*args, **kwargs)
        except HessianNotPDError as e:
            assert mask.is_causal(e.theta)
            raised.append(e)
            raise
    monkeypatch.setattr("wsteer.solver.newton_refine", recording)

    opts = SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14, stationarity_tol=1e-6,
                         theta_init=Theta_sad)
    sol = solve(prob, opts)
    ccp_only = solve(prob, replace(opts, newton="off"))
    assert raised
    assert sol.trace.termination == "stationarity"
    assert sol.report.J <= ccp_only.report.J
    check_monotone(sol.trace)


def test_ccp_solve_switch_rule():
    # at lambda=2000 the CCP residual shrinks by ~0.95 a step, a crawl
    prob = double_integrator_problem(SD_TIGHT, lam=2000.0)
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    opts = SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14)
    u_ff = solve_feedforward(ops, prob.lam)
    Theta, trace = ccp_solve(ops, prob.lam, mask, opts, u_ff, switch_after=3)
    assert trace.termination == "switch" and trace.iterations == 3
    # a resumed run appends to the same trace and counts its steps
    _, trace = ccp_solve(ops, prob.lam, mask, opts, u_ff,
                         resume=(Theta, trace), switch_after=5)
    assert trace.termination == "switch" and trace.iterations == 8
    assert [r.k for r in trace.records] == list(range(9))
    # the rule does not fire at the last allowed step: that run ends at the cap
    _, capped = ccp_solve(ops, prob.lam, mask, replace(opts, max_ccp_iters=3), u_ff,
                          switch_after=3)
    assert capped.termination == "max_iters" and capped.iterations == 3


def test_cho_solve_rejects_non_finite_rhs():
    _, prob, ops, mask = setup_random(21)
    factor = _reduced_curvature_factor(ops, prob.lam, mask)
    rhs = np.ones(mask.free_entries.size)
    assert np.all(np.isfinite(_curvature_solve(factor, rhs)))
    rhs[0] = np.nan
    with pytest.raises(NonFiniteError):
        _curvature_solve(factor, rhs)


def test_solve_rejects_invalid_problem():
    prob = double_integrator_problem(SD_WIDE)
    bad = w.SteeringProblem(prob.system, w.Gaussian([0.0, 0.0], np.zeros((2, 2))),
                            prob.noise_cov, prob.desired, prob.lam)
    with pytest.raises(ValidationError):
        solve(bad)


def test_solve_benchmark_two_targets_share_feedforward():
    s_wide = solve(double_integrator_problem(SD_WIDE, lam=1.0))
    s_tight = solve(double_integrator_problem(SD_TIGHT, lam=1.0))
    assert np.array_equal(s_wide.u_ff, s_tight.u_ff)
    assert np.linalg.norm(s_wide.Theta - s_tight.Theta) > 1e-3
    for sol in (s_wide, s_tight):
        mask = w.causality_mask(10, 1, 2)
        ops = w.assemble(double_integrator_problem(SD_WIDE, lam=1.0))
        assert mask.is_causal(sol.Theta)
        assert mask.is_causal(sol.K)


def test_solve_feedforward_bitwise_across_configurations():
    prob = double_integrator_problem(SD_TIGHT, lam=2.0)
    variants = [
        SolverOptions(),
        SolverOptions(max_ccp_iters=5),
        SolverOptions(newton="off"),
        SolverOptions(stationarity_tol=1e-4),
    ]
    sols = [solve(prob, o) for o in variants]
    for s in sols[1:]:
        assert np.array_equal(sols[0].u_ff, s.u_ff)


def test_solve_post_conditions():
    rng = np.random.default_rng(18)
    prob = certified_problem(rng)
    sol = solve(prob, SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14,
                                    stationarity_tol=1e-7, newton="when_certified"))
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    res = w.stationarity_residual(ops, prob.lam, Policy(sol.u_ff, sol.Theta), mask)
    assert res <= 1e-7
    assert sol.certificate is not None and sol.certificate.kind is not None
    # K is the transformed gain
    assert_allclose(sol.K, w.theta_to_k(sol.Theta, ops.Hu))


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_ccp_iters=0)
    with pytest.raises(ValueError):
        SolverOptions(obj_rel_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(newton="always")


@pytest.mark.parametrize("theta_init, message", [
    (np.full((10, 22), np.inf), "theta_init holds an inf or NaN entry"),
    (np.pad(np.full((1, 1), np.nan), ((0, 9), (0, 21))), "theta_init holds an inf or NaN entry"),
    (np.zeros(22), r"theta_init must be a 2-D matrix, got shape \(22,\)"),
    (np.zeros((2, 10, 22)), r"theta_init must be a 2-D matrix, got shape \(2, 10, 22\)"),
], ids=["inf", "nan", "vector", "3-d"])
def test_solver_options_reject_bad_theta_init(theta_init, message):
    with pytest.raises(ValueError, match=message):
        SolverOptions(theta_init=theta_init)


def test_wrong_shaped_theta_init_names_both_shapes_before_evaluating(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(wsteer.solver, "evaluate", counted)
    with pytest.raises(DimensionMismatchError,
                       match=r"^theta_init shape \(2, 2\) != \(10, 22\)$"):
        solve(double_integrator_problem(SD_TIGHT), SolverOptions(theta_init=np.zeros((2, 2))))
    assert calls == []


def test_line_scan_constant_and_endpoints():
    rng, prob, ops, mask = setup_random(19)
    u = rng.standard_normal(ops.N * ops.n_u)
    pa = Policy(u, rand_causal_theta(rng, mask))
    pb = Policy(u + rng.standard_normal(u.size), rand_causal_theta(rng, mask))
    same = line_scan(ops, prob.lam, pa, pa, np.linspace(-0.5, 1.5, 11))
    assert len({s.J for s in same}) == 1
    ends = line_scan(ops, prob.lam, pa, pb, np.array([0.0, 1.0]))
    for sample, pol in zip(ends, (pa, pb)):
        rep = evaluate(ops, prob.lam, pol)
        assert (sample.J, sample.J1, sample.J2, sample.J3, sample.J4) == \
            (rep.J, rep.J1, rep.J2, rep.J3, rep.J4)


def scan_reference(ops, lam, pa, pb, grid):
    """What line_scan must return, from one `evaluate` per grid point: the
    (gamma, J, J1, J2, J3, J4) rows, or the class and the "at gamma=" text of
    the error of the first failing point."""
    rows = []
    for g in grid:
        pol = Policy((1.0 - g) * pa.u_ff + g * pb.u_ff, (1.0 - g) * pa.Theta + g * pb.Theta)
        try:
            rep = evaluate(ops, lam, pol)
        except WsteerError as e:
            return type(e), f"at gamma={g}: {e}"
        rows.append((float(g), rep.J, rep.J1, rep.J2, rep.J3, rep.J4))
    return rows


def lone_values(ops, lam, pol):
    """(J, J1, J2, J3, J4) of one policy by plain 2-D numpy: the arithmetic
    evaluate used before it shared the stacked kernel with line_scan."""
    u, T = pol.u_ff, pol.Theta
    Om = ops.F + ops.FHu @ T
    Y = mo.symmetrize(Om @ ops.Stilde @ Om.T)
    c, _ = np.linalg.eigh(mo.symmetrize(ops.sqrt_Sd @ Y @ ops.sqrt_Sd))
    dmu = ops.FGamma_mu0 + ops.FHu @ u - ops.mud
    J1 = float(u @ u) + lam * float(dmu @ dmu)
    J2 = float(np.trace(T @ ops.Stilde @ T.T))
    J3 = lam * (float(np.trace(Y)) + float(np.trace(ops.Sd)))
    J4 = 2.0 * lam * float(np.sum(np.sqrt(c)))
    return J1 + J2 + J3 - J4, J1, J2, J3, J4


def scanned(ops, lam, pa, pb, grid):
    """line_scan's rows, or the class and text of its error."""
    try:
        samples = line_scan(ops, lam, pa, pb, grid)
    except WsteerError as e:
        return type(e), str(e)
    return [(s.gamma, s.J, s.J1, s.J2, s.J3, s.J4) for s in samples]


def random_policies(rng, ops, mask):
    # the second gain Fortran-ordered, as solved gains are
    n = ops.N * ops.n_u
    return (Policy(rng.standard_normal(n), rand_causal_theta(rng, mask, scale=0.6)),
            Policy(rng.standard_normal(n),
                   np.asfortranarray(rand_causal_theta(rng, mask, scale=0.6))))


def rank_one_policy(ops, u_ff):
    """A non-causal gain with Omega = F(I + Hu Theta) = v 1^T up to round-off,
    so the terminal covariance is singular."""
    v = np.arange(1.0, ops.n_x + 1.0)
    Theta = np.linalg.pinv(ops.FHu) @ (np.outer(v, np.ones(ops.F.shape[1])) - ops.F)
    return Policy(u_ff, Theta)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    N=st.integers(1, 5),
    n_x=st.integers(1, 3),
    n_u=st.sampled_from([1, 2]),
    extra_w=st.sampled_from([0, 1]),
    log_lam=st.floats(-3.0, 4.0),
)
def test_line_scan_bit_identical_to_evaluate(seed, N, n_x, n_u, extra_w, log_lam):
    # every grid point, time-varying systems, lambda log-uniform in [1e-3, 1e4]
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, n_w=n_x + extra_w, lam=10.0 ** log_lam)
    ops = w.assemble(prob)
    pa, pb = random_policies(rng, ops, w.causality_mask(N, n_u, n_x))
    grid = np.linspace(-0.5, 1.5, 41)
    for orders in ("CC", "CF", "FC", "FF"):  # matmul's bits depend on memory order
        pa, pb = (Policy(p.u_ff, np.asarray(p.Theta, order=o)) for p, o in zip((pa, pb), orders))
        ref = scan_reference(ops, prob.lam, pa, pb, grid)
        assert isinstance(ref, list)
        assert scanned(ops, prob.lam, pa, pb, grid) == ref
        # and the shared kernel keeps the bits of the lone-policy arithmetic
        for g, *values in ref:
            pol = Policy((1.0 - g) * pa.u_ff + g * pb.u_ff, (1.0 - g) * pa.Theta + g * pb.Theta)
            assert tuple(values) == lone_values(ops, prob.lam, pol)


def test_line_scan_chunks_identical(monkeypatch):
    rng, prob, ops, mask = setup_random(23, N=4, n_x=2, n_u=2)
    pa, pb = random_policies(rng, ops, mask)
    grid = np.linspace(-0.5, 1.5, 300)
    whole = scanned(ops, prob.lam, pa, pb, grid)
    assert whole == scan_reference(ops, prob.lam, pa, pb, grid)
    sizes = []

    def recorded(ops, lam, u, Theta, _values=wsteer.solver._values):
        sizes.append(Theta.shape[0])
        return _values(ops, lam, u, Theta)
    monkeypatch.setattr(wsteer.solver, "_values", recorded)
    monkeypatch.setattr(wsteer.solver, "SCAN_CHUNK", 7)
    assert scanned(ops, prob.lam, pa, pb, grid) == whole
    assert sizes == [7] * 42 + [6]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("chunk", [64, 7])
def test_line_scan_names_first_failing_point(monkeypatch, chunk):
    monkeypatch.setattr(wsteer.solver, "SCAN_CHUNK", chunk)
    rng, prob, ops, mask = setup_random(29, N=3, n_x=2, n_u=1)
    pa, _ = random_policies(rng, ops, mask)
    bad = rank_one_policy(ops, pa.u_ff)
    for a, b, grid in ((pa, bad, np.linspace(0.0, 1.0, 31)),  # fails at gamma = 1 only
                       (bad, bad, np.linspace(-0.5, 1.5, 20)),  # fails everywhere
                       # a later point would fail an earlier check of the kernel
                       (pa, bad, np.array([0.3, 1.0, 1e300]))):
        ref = scan_reference(ops, prob.lam, a, b, grid)
        assert ref[0] is SingularTerminalCovarianceError
        assert ref[1].startswith(f"at gamma={grid[0] if a is bad else 1.0}: "
                                 "terminal covariance is singular")
        assert scanned(ops, prob.lam, a, b, grid) == ref


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_line_scan_non_finite_points_raise_like_evaluate():
    # evaluate rejects a non-finite terminal covariance with NonFiniteError,
    # which line_scan prefixes with the first point that has one
    rng, prob, ops, mask = setup_random(31, N=3, n_x=2, n_u=1)
    pa, pb = random_policies(rng, ops, mask)
    Theta = pb.Theta.copy()
    Theta[-1, 0] = np.nan
    for b, grid, bad in ((Policy(pb.u_ff, Theta), np.linspace(0.0, 1.0, 5), 0.0),
                         (rank_one_policy(ops, pb.u_ff), np.array([0.3, 1e300, 1.0]), 1e300)):
        ref = scan_reference(ops, prob.lam, pa, b, grid)
        assert ref == (NonFiniteError, f"at gamma={bad}: S contains non-finite entries")
        assert scanned(ops, prob.lam, pa, b, grid) == ref


def test_ccp_eig_calls_per_iteration(monkeypatch):
    # one terminal kernel per CCP step: the step reads the gradient of the
    # record at its iterate, whose evaluate takes one eigvalsh of Y and one
    # eigh of C
    prob = double_integrator_problem(SD_TIGHT, lam=2000.0)
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    calls = [0]
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, **kwargs):
            calls[0] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    opts = SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14, stationarity_tol=1e-6)
    _, trace = ccp_solve(ops, prob.lam, mask, opts, u_ff=solve_feedforward(ops, prob.lam))
    assert trace.iterations > 100
    assert calls[0] <= 2 * trace.iterations + 20


def test_count_strict_local_minima():
    assert count_strict_local_minima([3, 1, 2, 0, 4]) == 2
    assert count_strict_local_minima([1, 2, 3]) == 0
    assert count_strict_local_minima([2, 2, 2]) == 0


def test_multistart_agreement_on_certified_instance():
    rng = np.random.default_rng(20)
    prob = certified_problem(rng, N=3, n_x=2, n_u=1)
    mask = w.causality_mask(3, 1, 2)
    sols = []
    for k in range(3):
        init = rand_causal_theta(rng, mask, scale=0.5)
        opts = SolverOptions(max_ccp_iters=5000, obj_rel_tol=1e-14,
                             stationarity_tol=1e-9, theta_init=init, newton="off")
        sols.append(solve(prob, opts).Theta)
    for s in sols[1:]:
        assert np.linalg.norm(s - sols[0]) <= 1e-5 * max(1.0, np.linalg.norm(sols[0]))


NO_SCIPY_SCRIPT = """
import json, sys
from dataclasses import replace
configs, src = sys.argv[1:]
sys.path.insert(0, src)
import numpy as np
import wsteer as w
from wsteer.cli import load_config, solver_options_from_config
out = {}
sols = {}
for name in ("tight", "wide"):
    prob, cfg = load_config(f"{configs}/double_integrator_{name}.json")
    for lam in (1.0, 100.0):
        sol = w.solve(replace(prob, lam=lam), solver_options_from_config(cfg))
        sols[name, lam] = prob, sol
        out[f"{name} {lam:g}"] = (sol.trace.termination, sol.certificate.kind,
                                  sum(r.kind == "newton" for r in sol.trace.records))
(prob, a), (_, b) = sols["tight", 1.0], sols["wide", 1.0]
scan = w.line_scan(w.assemble(prob), 1.0, w.Policy(a.u_ff, a.Theta),
                   w.Policy(b.u_ff, b.Theta), np.linspace(-0.5, 1.5, 41))
out["scan"] = len(scan)
out["rollout"] = w.rollout(prob, w.Policy(a.u_ff, a.Theta), 1000, 0).samples
out["scipy"] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps(out))
"""


def test_solve_path_never_imports_scipy():
    # a fresh interpreter: both shipped configs at lambda 1 and 100 (the wide
    # target takes the dense spectral certificate, lambda 100 takes Newton
    # steps), a line scan and a rollout, and scipy stays unloaded
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, os.path.join(root, "configs"),
                          os.path.join(root, "src")], check=True, capture_output=True, text=True)
    out = json.loads(run.stdout)
    for lam in ("1", "100"):
        assert out[f"tight {lam}"][:2] == ["stationarity", "DominatedCovariance"]
        assert out[f"wide {lam}"][:2] == ["stationarity", "HessianPD"]
    assert out["tight 100"][2] > 0 and out["wide 100"][2] > 0
    assert out["scan"] == 41 and out["rollout"] == 1000
    assert out["scipy"] == []
