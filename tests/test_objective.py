"""Objective decomposition, analytic gradients vs finite differences, Hessian,
stationarity residual, and convexity certificates."""

import pathlib
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    DI_N,
    SD_TIGHT,
    SD_WIDE,
    double_integrator_problem,
    fd_grad_matrix,
    fd_grad_scalar,
    fd_hessian_from_grad,
    phi_block,
    rand_causal_theta,
    rand_problem,
    rel_err,
)
from test_solver import rank_one_policy
import wsteer as w
from wsteer import matops as mo
from wsteer.cli import load_config, solver_options_from_config
from wsteer.errors import (
    DimensionMismatchError,
    IndefiniteBeyondToleranceError,
    SingularTerminalCovarianceError,
    WsteerError,
)
from wsteer.objective import (
    Policy,
    _Curvature,
    _ray,
    _terminal,
    _w2_sq,
    convexity_certificate,
    evaluate,
    grad_theta,
    grad_theta_j4,
    grad_uff,
    hessian_theta,
    omega,
    stationarity_residual,
    terminal_covariance,
    terminal_gaussian,
    wasserstein_sq_gaussian,
)


def setup_random(seed, **kw):
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, **kw)
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    return rng, prob, ops, mask


def test_omega_zero_theta_is_selector():
    _, _, ops, mask = setup_random(0)
    assert_allclose(omega(ops, np.zeros(mask.theta_shape)), ops.F)


def test_omega_scalar_hand_case():
    sysm = w.TimeVaryingLinearSystem.time_invariant([[1.0]], [[1.0]], [[1.0]], 1)
    prob = w.SteeringProblem(sysm, w.Gaussian([0.0], [[1.0]]), [[1.0]],
                             w.Gaussian([0.0], [[1.0]]), 1.0)
    ops = w.assemble(prob)
    assert_allclose(ops.Hu, [[0.0], [1.0]])
    theta = 0.7
    assert_allclose(omega(ops, np.array([[theta, 0.0]])), [[theta, 1.0]])


def test_omega_terminal_covariance_always_pd():
    rng, _, ops, mask = setup_random(1)
    for scale in (0.1, 1.0, 5.0):
        Theta = rand_causal_theta(rng, mask, scale)
        Y = terminal_covariance(ops, Theta)
        assert np.linalg.eigvalsh(Y)[0] > 0.0


def test_terminal_gaussian_zero_policy():
    _, prob, ops, mask = setup_random(2)
    pol = Policy(np.zeros(ops.N * ops.n_u), np.zeros(mask.theta_shape))
    g = terminal_gaussian(ops, pol)
    Phi = w.state_transition(prob.system, ops.N, 0)
    assert_allclose(g.mean, Phi @ prob.initial.mean, atol=1e-12)
    n_x = ops.n_x
    assert_allclose(g.cov, ops.Stilde[-n_x:, -n_x:], atol=1e-12)


def test_terminal_gaussian_scalar_case():
    sysm = w.TimeVaryingLinearSystem.time_invariant([[1.0]], [[1.0]], [[1.0]], 1)
    prob = w.SteeringProblem(sysm, w.Gaussian([0.4], [[1.0]]), [[1.0]],
                             w.Gaussian([0.0], [[1.0]]), 1.0)
    ops = w.assemble(prob)
    g = terminal_gaussian(ops, Policy(np.zeros(1), np.zeros((1, 2))))
    assert_allclose(g.mean, [0.4])
    assert_allclose(g.cov, [[2.0]])


def test_wasserstein_basics():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 3))
    g = w.Gaussian(rng.standard_normal(3), M @ M.T + np.eye(3))
    assert wasserstein_sq_gaussian(g, g) <= 1e-10 * np.trace(g.cov)
    g1 = w.Gaussian([0.0, 0.0], np.eye(2))
    g2 = w.Gaussian([0.0, 0.0], 4.0 * np.eye(2))
    assert_allclose(wasserstein_sq_gaussian(g1, g2), 2.0, atol=1e-12)


def test_wasserstein_rejects_indefinite_covariance():
    g_bad = w.Gaussian([0.0, 0.0], np.diag([1.0, -0.5]))
    g_ok = w.Gaussian([0.0, 0.0], np.eye(2))
    with pytest.raises(IndefiniteBeyondToleranceError):
        wasserstein_sq_gaussian(g_bad, g_ok)
    with pytest.raises(IndefiniteBeyondToleranceError):
        wasserstein_sq_gaussian(g_ok, g_bad)


def test_w2_sq_clamps_and_checks_every_member_of_a_stack():
    # per member: 1 + 1 - 2 * trace_root, round-off within 1e-10 * 2 clamped
    val = _w2_sq(np.zeros(3), np.ones(3), 1.0, np.array([0.5, 1.0 + 5e-11, 0.75]))
    assert val.tolist() == [1.0, 0.0, 0.5]
    with pytest.raises(WsteerError, match="^squared Wasserstein distance -1.000e[+]00 below"):
        _w2_sq(np.zeros(3), np.ones(3), 1.0, np.array([0.5, 0.75, 1.5]))


def test_wasserstein_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(5):
        M1, M2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        g1 = w.Gaussian(rng.standard_normal(3), M1 @ M1.T + 0.5 * np.eye(3))
        g2 = w.Gaussian(rng.standard_normal(3), M2 @ M2.T + 0.5 * np.eye(3))
        a = wasserstein_sq_gaussian(g1, g2)
        b = wasserstein_sq_gaussian(g2, g1)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_evaluate_trivial_target_is_zero():
    _, prob, ops, mask = setup_random(5)
    n_x = ops.n_x
    target = w.SteeringProblem(
        prob.system, prob.initial, prob.noise_cov,
        w.Gaussian(ops.Gamma[-n_x:, :] @ prob.initial.mean, ops.Stilde[-n_x:, -n_x:]),
        prob.lam,
    )
    tops = w.assemble(target)
    pol = Policy(np.zeros(ops.N * ops.n_u), np.zeros(mask.theta_shape))
    rep = evaluate(tops, target.lam, pol, mask)
    assert abs(rep.J) <= 1e-9
    assert rep.W2_sq <= 1e-9


def test_evaluate_lambda_zero_reduces_to_cost_to_go():
    rng, _, ops, mask = setup_random(6)
    u = rng.standard_normal(ops.N * ops.n_u)
    Theta = rand_causal_theta(rng, mask)
    rep = evaluate(ops, 0.0, Policy(u, Theta), mask)
    expected = float(u @ u) + float(np.trace(Theta @ ops.Stilde @ Theta.T))
    assert_allclose(rep.J, expected, rtol=1e-12)
    assert_allclose(rep.cost_to_go, expected, rtol=1e-12)


def test_j2_vec_quadratic_form():
    rng, _, ops, mask = setup_random(7)
    Theta = rand_causal_theta(rng, mask)
    rep = evaluate(ops, 1.0, Policy(np.zeros(ops.N * ops.n_u), Theta), mask)
    v = Theta.reshape(-1, order="F")
    quad = v @ (mo.kron(ops.Stilde, np.eye(ops.N * ops.n_u)) @ v)
    assert rel_err(quad, rep.J2) < 1e-12


def test_evaluate_decomposition_and_cross_checks():
    for seed in range(8, 13):
        rng, prob, ops, mask = setup_random(seed)
        u = rng.standard_normal(ops.N * ops.n_u)
        Theta = rand_causal_theta(rng, mask)
        rep = evaluate(ops, prob.lam, Policy(u, Theta), mask)
        # decomposition identity
        assert abs(rep.J - (rep.J1 + rep.J2 + rep.J3 - rep.J4)) <= 1e-12 * max(1.0, abs(rep.J))
        # concave-part dominance
        assert rep.J3 - rep.J4 >= -1e-10 * abs(rep.J3)
        assert rep.W2_sq >= 0.0
        # expanded squared distance equals the generic Gaussian formula
        generic = wasserstein_sq_gaussian(prob.desired, rep.terminal)
        assert abs(rep.W2_sq - generic) <= 1e-10 * max(1.0, generic)


def test_evaluate_rejects_non_causal():
    rng, prob, ops, mask = setup_random(13, N=3)
    Theta = rng.standard_normal(mask.theta_shape)  # dense, so non-causal
    if mask.is_causal(Theta):
        pytest.skip("random Theta unexpectedly causal")
    with pytest.raises(ValueError):
        evaluate(ops, prob.lam, Policy(np.zeros(ops.N * ops.n_u), Theta), mask)


def test_evaluate_rejects_negative_lambda():
    _, prob, ops, mask = setup_random(13, N=3)
    pol = Policy(np.zeros(ops.N * ops.n_u), np.zeros(mask.theta_shape))
    with pytest.raises(ValueError, match="^lam must be nonnegative$"):
        evaluate(ops, -1.0, pol)


def test_coercivity_probe():
    rng, prob, ops, mask = setup_random(14)
    u = rng.standard_normal(ops.N * ops.n_u)
    Theta = rand_causal_theta(rng, mask)
    vals = []
    for t in (1.0, 10.0, 100.0, 1000.0):
        rep = evaluate(ops, prob.lam, Policy(t * u, t * Theta), mask)
        vals.append(rep.J)
    assert vals[-1] > vals[-2] > vals[-3]


def test_grad_uff_lambda_zero_and_fd():
    rng, prob, ops, _ = setup_random(15)
    u = rng.standard_normal(ops.N * ops.n_u)
    assert_allclose(grad_uff(ops, 0.0, u), 2.0 * u)
    Theta = np.zeros((ops.N * ops.n_u, (ops.N + 1) * ops.n_x))
    g = grad_uff(ops, prob.lam, u)
    fd = fd_grad_scalar(lambda v: evaluate(ops, prob.lam, Policy(v, Theta)).J, u)
    assert rel_err(fd, g) < 1e-7


def test_grad_theta_lambda_zero():
    rng, _, ops, mask = setup_random(16)
    Theta = rand_causal_theta(rng, mask)
    assert_allclose(grad_theta(ops, 0.0, Theta), 2.0 * Theta @ ops.Stilde)


def test_grad_theta_fd_small_instances():
    for seed in (17, 18, 19):
        rng, prob, ops, mask = setup_random(seed, n_x=2, n_u=1, N=3)
        u = rng.standard_normal(ops.N * ops.n_u)
        Theta = rand_causal_theta(rng, mask)
        g = grad_theta(ops, prob.lam, Theta)
        fd = fd_grad_matrix(lambda T: evaluate(ops, prob.lam, Policy(u, T)).J, Theta)
        assert rel_err(fd, g) < 1e-6


def test_grad_theta_j4_term_alone_fd():
    rng, prob, ops, mask = setup_random(20, n_x=2, n_u=2, N=2)
    Theta = rand_causal_theta(rng, mask)
    u = np.zeros(ops.N * ops.n_u)
    g4 = grad_theta_j4(ops, prob.lam, Theta)
    fd = fd_grad_matrix(lambda T: evaluate(ops, prob.lam, Policy(u, T)).J4, Theta)
    assert rel_err(fd, g4) < 1e-6
    # J4 = 2 lam trace(C^(1/2)) vanishes at lam = 0
    assert np.array_equal(grad_theta_j4(ops, 0.0, Theta), np.zeros_like(Theta))


@pytest.mark.parametrize("call, error", [
    (lambda ops: Policy(np.zeros(10), np.zeros(22)), DimensionMismatchError),
    (lambda ops: omega(ops, np.zeros((10, 20))), DimensionMismatchError),
    (lambda ops: wasserstein_sq_gaussian(w.Gaussian([0.0], [[1.0]]), w.Gaussian(
        [0.0, 0.0], np.eye(2))), DimensionMismatchError),
    (lambda ops: convexity_certificate(ops, 1.0, np.zeros((10, 22)), mode="hessian"),
     ValueError),
], ids=["1-D Theta", "omega shape", "W2 dimensions", "certificate mode"])
def test_objective_rejects_malformed_input(call, error):
    with pytest.raises(error):
        call(w.assemble(double_integrator_problem(SD_TIGHT)))


class _CountedMatmul(np.ndarray):
    """Counts in .matmuls the np.matmul calls that take it as an operand;
    every ufunc result is a plain array."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.matmuls += 1
        plain = [np.asarray(x) if isinstance(x, _CountedMatmul) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def test_evaluate_multiplies_by_stilde_twice():
    # Theta Stilde serves J2 and the gradient, Omega Stilde serves Y and the gradient
    rng, prob, ops, mask = setup_random(22, N=3, n_x=2, n_u=2)
    policy = Policy(rng.standard_normal(ops.N * ops.n_u), rand_causal_theta(rng, mask))
    counted = ops.Stilde.view(_CountedMatmul)
    counted.matmuls = 0
    rep = evaluate(replace(ops, Stilde=counted), prob.lam, policy)
    assert counted.matmuls == 2
    ref = evaluate(ops, prob.lam, policy)
    assert (rep.J1, rep.J2, rep.J3, rep.J4) == (ref.J1, ref.J2, ref.J3, ref.J4)
    assert np.array_equal(rep.grad_theta, ref.grad_theta)
    # Y and J2 keep the bits of their left-associated products
    Om, T, S = omega(ops, policy.Theta), policy.Theta, ops.Stilde
    assert np.array_equal(ref.terminal.cov, mo.symmetrize(Om @ S @ Om.T))
    assert ref.J2 == np.trace(T @ S @ T.T)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    N=st.integers(1, 5),
    n_x=st.integers(1, 3),
    n_u=st.sampled_from([1, 2]),
    extra_w=st.sampled_from([0, 1, 2]),
    log_lam=st.floats(-3.0, 4.0),
)
@example(seed=0, N=4, n_x=2, n_u=2, extra_w=2, log_lam=4.0)
@example(seed=1, N=3, n_x=3, n_u=2, extra_w=1, log_lam=-3.0)
def test_grad_theta_matches_three_term_oracle(seed, N, n_x, n_u, extra_w, log_lam):
    # grad J = 2 Theta Stilde + FHu^T A Omega Stilde, A = 2 lam (I - Mt),
    # against its three terms 2 Theta Stilde + 2 lam FHu^T Omega Stilde
    # - 2 lam FHu^T Mt Omega Stilde, each multiplied out on its own; the error
    # is measured against the terms' sizes, since grad J itself may cancel
    rng = np.random.default_rng(seed)
    lam = 10.0 ** log_lam
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, n_w=n_x + extra_w, lam=lam)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, n_u, n_x)
    Theta = rand_causal_theta(rng, mask, scale=0.6)
    Om, S, FHu = omega(ops, Theta), ops.Stilde, ops.FHu
    terms = (2.0 * Theta @ S, 2.0 * lam * (FHu.T @ Om @ S),
             -2.0 * lam * (FHu.T @ _terminal(ops, Theta).Mt @ Om @ S))
    G = grad_theta(ops, lam, Theta)
    scale = sum(np.linalg.norm(t) for t in terms)
    assert np.linalg.norm(G - sum(terms)) <= 1e-14 * scale
    rep = evaluate(ops, lam, Policy(np.zeros(N * n_u), Theta), mask)
    assert np.array_equal(rep.grad_theta, G)
    assert np.linalg.norm(grad_theta_j4(ops, lam, Theta) + terms[2]) <= 1e-14 * scale


def test_grad_theta_singular_terminal_guard():
    prob = double_integrator_problem(SD_WIDE)
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    Theta = np.zeros(mask.theta_shape)
    Theta[-1, 0] = 1e9  # wrecks the conditioning of the terminal covariance
    with pytest.raises(SingularTerminalCovarianceError):
        grad_theta(ops, prob.lam, Theta)


def test_hessian_lambda_zero_is_constant_pd():
    _, _, ops, mask = setup_random(21)
    H = hessian_theta(ops, 0.0, np.zeros(mask.theta_shape))
    assert_allclose(H, 2.0 * mo.kron(ops.Stilde, np.eye(ops.N * ops.n_u)))
    assert np.linalg.eigvalsh(H)[0] > 0.0


def test_hessian_fd_small_instances():
    for seed in (22, 23):
        rng, prob, ops, mask = setup_random(seed, n_x=2, n_u=1, N=3)
        Theta = rand_causal_theta(rng, mask)
        H = hessian_theta(ops, prob.lam, Theta)
        fd = fd_hessian_from_grad(lambda T: grad_theta(ops, prob.lam, T), Theta)
        assert rel_err(fd, H) < 1e-5
        assert_allclose(H, H.T)


def test_mixed_uff_theta_blocks_vanish():
    # J couples u_ff and Theta only through separate terms, so the cross
    # second derivatives are zero; confirmed by finite differences
    rng, prob, ops, mask = setup_random(24, n_x=2, n_u=1, N=2)
    u = rng.standard_normal(ops.N * ops.n_u)
    Theta = rand_causal_theta(rng, mask)
    h = 1e-5
    for i in range(u.size):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        dg = (grad_theta(ops, prob.lam, Theta) - grad_theta(ops, prob.lam, Theta))
        cross = (evaluate(ops, prob.lam, Policy(up, Theta)).grad_theta
                 - evaluate(ops, prob.lam, Policy(um, Theta)).grad_theta) / (2 * h)
        assert np.abs(cross).max() < 1e-8
        assert np.abs(dg).max() == 0.0


def test_stationarity_residual_projection_invariance():
    rng, prob, ops, mask = setup_random(25)
    Theta = rand_causal_theta(rng, mask)
    u = np.zeros(ops.N * ops.n_u)
    base = stationarity_residual(ops, prob.lam, Policy(u, Theta), mask)
    bumped = Theta.copy().reshape(-1, order="F")
    bumped[mask.complement] = rng.standard_normal(mask.complement.size)
    bumped = bumped.reshape(mask.theta_shape, order="F")
    assert stationarity_residual(ops, prob.lam, Policy(u, bumped), mask) == base


def test_stationarity_residual_lambda_zero_at_origin():
    _, _, ops, mask = setup_random(26)
    pol = Policy(np.zeros(ops.N * ops.n_u), np.zeros(mask.theta_shape))
    assert stationarity_residual(ops, 0.0, pol, mask) == 0.0


def test_certificate_dominated_and_boundary():
    rng, prob, ops, mask = setup_random(27, n_x=2)
    Theta = rand_causal_theta(rng, mask, 0.1)
    Y = terminal_covariance(ops, Theta)
    # Sd = Y/2: strict dominance, and the Hessian must be PD (sufficiency)
    half = w.SteeringProblem(prob.system, prob.initial, prob.noise_cov,
                             w.Gaussian(prob.desired.mean, 0.5 * Y), prob.lam)
    hops = w.assemble(half)
    cert = convexity_certificate(hops, prob.lam, Theta, mode="dominance")
    assert cert.kind == "DominatedCovariance"
    spectral = convexity_certificate(hops, prob.lam, Theta, mode="spectral")
    assert spectral.kind == "HessianPD" and spectral.lambda_min_hessian > 0.0
    # Sd = Y exactly: boundary case still certifies
    eq = w.SteeringProblem(prob.system, prob.initial, prob.noise_cov,
                           w.Gaussian(prob.desired.mean, Y), prob.lam)
    eops = w.assemble(eq)
    cert_eq = convexity_certificate(eops, prob.lam, Theta, mode="dominance")
    assert cert_eq.kind == "DominatedCovariance"
    spectral_eq = convexity_certificate(eops, prob.lam, Theta, mode="spectral")
    assert spectral_eq.lambda_min_hessian > 0.0


def test_certificate_fails_on_wide_target_at_tight_optimum():
    # the wide desired covariance is not dominated by the terminal covariance
    # reached when steering to the tight target
    tight = double_integrator_problem(SD_TIGHT, lam=1.0)
    sol = w.solve(tight)
    wide = double_integrator_problem(SD_WIDE, lam=1.0)
    wops = w.assemble(wide)
    cert = convexity_certificate(wops, wide.lam, sol.Theta, mode="dominance")
    assert cert.kind is None
    assert cert.dominance_gap < 0.0


def test_spectral_certificate_bounds_full_hessian_eigenvalue():
    # the certificate measures the Hessian over the causal entries only, in
    # the coordinates Phi: its lambda_min is eigvalsh's of that block, and its
    # sign is that of the block in Theta, whose lambda_min is at least the
    # full Hessian's by Cauchy interlacing
    for seed in range(40, 52):
        rng, prob, ops, mask = setup_random(seed, n_u=int(1 + seed % 2))
        Theta = rand_causal_theta(rng, mask, 0.6)
        # Sd = 2Y is not dominated by the terminal covariance Y
        Sd = 2.0 * terminal_covariance(ops, Theta)
        wide = w.SteeringProblem(prob.system, prob.initial, prob.noise_cov,
                                 w.Gaussian(prob.desired.mean, Sd), prob.lam)
        wops = w.assemble(wide)
        assert convexity_certificate(wops, prob.lam, Theta).kind is None
        cert = convexity_certificate(wops, prob.lam, Theta, mode="spectral")
        eig = np.linalg.eigvalsh(hessian_theta(wops, prob.lam, Theta))
        causal = np.linalg.eigvalsh(hessian_theta(wops, prob.lam, Theta, mask))
        phi = np.linalg.eigvalsh(phi_block(wops, prob.lam, mask, _terminal(wops, Theta)))
        # eigvalsh is backward stable: allow its round-off, 1e-13 ||H||_2
        assert causal[0] >= eig[0] - 1e-13 * abs(eig).max()
        assert abs(cert.lambda_min_hessian - phi[0]) <= 1e-13 * abs(phi).max()
        assert (cert.lambda_min_hessian > 0.0) == (causal[0] > 0.0) == (cert.kind == "HessianPD")
    # the shipped wide target is certified by the spectral test
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    problem, cfg = load_config(str(root / "double_integrator_wide.json"))
    sol = w.solve(problem, solver_options_from_config(cfg))
    assert sol.certificate.kind == "HessianPD"
    assert sol.certificate.lambda_min_hessian > 0.0


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    N=st.integers(1, 5),
    n_x=st.integers(1, 3),
    n_u=st.sampled_from([1, 2]),
    extra_w=st.sampled_from([0, 1]),
)
def test_terminal_kernel_matches_matops_oracles(seed, N, n_x, n_u, extra_w):
    # the one-eigh kernel against the separate matops functions it replaces
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, n_w=n_x + extra_w)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, n_u, n_x)
    Theta = rand_causal_theta(rng, mask, scale=0.6)
    term = _terminal(ops, Theta)
    Y = terminal_covariance(ops, Theta)
    C = mo.symmetrize(ops.sqrt_Sd @ Y @ ops.sqrt_Sd)

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    assert rel(term.trace_root, np.trace(mo.sqrtm_psd(C))) <= 1e-10
    assert rel(term.Mt, mo.geometric_mean(ops.Sd, np.linalg.inv(Y))) <= 1e-10
    assert rel((term.W / term.r ** 2) @ term.W.T, np.linalg.inv(Y)) <= 1e-10


def hessian_kron_sum_oracle(ops, lam, Theta):
    """The dense four-term Hessian: 2(Stilde kron I) + 2 lam (Stilde kron
    FHu^T FHu) - 2 lam (Stilde kron FHu^T Mt FHu) + 2 lam A^T D, where
    A = (Omega Stilde) kron FHu and D solves (Nsim kron-sum Nsim) D =
    (Y^-1 kron Y^-1)(I + K) A, with M = (Sd^-1/2 Y^-1 Sd^-1/2)^1/2,
    Mt = Sd^1/2 M Sd^1/2 and Nsim = Sd^1/2 M Sd^-1/2, all from matops."""
    S, FHu, n_x = ops.Stilde, ops.FHu, ops.n_x
    H = 2.0 * np.kron(S, np.eye(ops.N * ops.n_u))
    if lam == 0.0:
        return H
    Om = omega(ops, Theta)
    Yi = np.linalg.inv(mo.symmetrize(Om @ S @ Om.T))
    sqrt_Sd = mo.sqrtm_psd(ops.Sd)
    isqrt_Sd = np.linalg.inv(sqrt_Sd)
    M = mo.sqrtm_psd(mo.symmetrize(isqrt_Sd @ Yi @ isqrt_Sd))
    Mt = sqrt_Sd @ M @ sqrt_Sd
    Nsim = sqrt_Sd @ M @ isqrt_Sd
    A = np.kron(Om @ S, FHu)
    B = A + mo.commutation_apply(A, n_x, n_x)
    D = np.linalg.solve(mo.kron_sum(Nsim, Nsim), np.kron(Yi, Yi) @ B)
    H = H + 2.0 * lam * (np.kron(S, FHu.T @ FHu) + A.T @ D - np.kron(S, FHu.T @ Mt @ FHu))
    return mo.symmetrize(H)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    N=st.integers(1, 4),
    n_x=st.integers(1, 3),
    n_u=st.sampled_from([1, 2]),
    extra_w=st.sampled_from([0, 1]),
    lam=st.sampled_from([0.0, 0.3, 1.0, 25.0]),
)
@example(seed=1, N=3, n_x=2, n_u=2, extra_w=1, lam=0.0)
@example(seed=2, N=3, n_x=3, n_u=2, extra_w=1, lam=4.0)
def test_hessian_matches_kron_sum_oracle(seed, N, n_x, n_u, extra_w, lam):
    # the eigenbasis Hessian against the dense Kronecker-sum formula it replaced
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, n_w=n_x + extra_w)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, n_u, n_x)
    Theta = rand_causal_theta(rng, mask, scale=0.6)
    H = hessian_theta(ops, lam, Theta)
    H_oracle = hessian_kron_sum_oracle(ops, lam, Theta)
    assert np.linalg.norm(H - H_oracle) <= 1e-10 * np.linalg.norm(H_oracle)
    # the block on the causal entries, built without the full matrix
    free = mask.free_entries
    H_free = hessian_theta(ops, lam, Theta, mask)
    H_free_oracle = H_oracle[np.ix_(free, free)]
    assert np.linalg.norm(H_free - H_free_oracle) <= 1e-10 * np.linalg.norm(H_free_oracle)
    assert np.array_equal(H, H.T) and np.array_equal(H_free, H_free.T)


def mp_delta_j(ops, lam, Theta, Delta, t):
    """J(Theta - t Delta) - J(Theta), u_ff fixed, from the double inputs in
    50-digit arithmetic: the reference of `_ray`."""
    with mpmath.workdps(50):
        S, F, FHu, R, Th, De = (mpmath.matrix(np.asarray(M).tolist()) for M in (
            ops.Stilde, ops.F, ops.FHu, ops.sqrt_Sd, Theta, Delta))

        def J234(T):
            Om = F + FHu * T
            Y = Om * S * Om.T
            C = R * Y * R
            root = sum(mpmath.sqrt(c) for c in mpmath.eigsy((C + C.T) / 2, eigvals_only=True))
            return (sum((T * S * T.T)[i, i] for i in range(T.rows))
                    + lam * sum(Y[i, i] for i in range(Y.rows)) - 2 * lam * root)
        return float(J234(Th - mpmath.mpf(t) * De) - J234(Th))


def newton_ray(Sd, lam):
    """(ops, lam, u_ff, Theta, Delta) at the double integrator's solution,
    Delta the Newton step there, whose decrease is far below J's evaluation noise."""
    prob = double_integrator_problem(Sd, lam=lam)
    ops, mask = w.assemble(prob), w.causality_mask(DI_N, 1, 2)
    sol = w.solve(prob)
    g = mask.gather(sol.report.grad_theta)
    step = _Curvature(ops, lam, mask, sol.report.kernel).solve(g)
    return ops, lam, sol.u_ff, sol.Theta, mask.scatter(step)


def random_ray():
    rng, prob, ops, mask = setup_random(5, N=3, n_x=2, n_u=2)
    return (ops, prob.lam, rng.standard_normal(6), rand_causal_theta(rng, mask),
            rand_causal_theta(rng, mask))


def test_ray_matches_a_high_precision_reference():
    # J along the ray in difference form reads within 1e-3 of a 50-digit
    # reference, at a random point and along the Newton step at two
    # solutions, where J's decrease is 1e-13 to 1e-27 and the difference of
    # two evaluations is round-off of either sign
    wrong_sign = 0
    for ops, lam, u, Theta, Delta in (random_ray(), newton_ray(SD_TIGHT, 100.0),
                                      newton_ray(SD_WIDE, 2000.0)):
        J = evaluate(ops, lam, Policy(u, Theta)).J
        trial = _ray(ops, lam, Theta, Delta, _terminal(ops, Theta))
        for t in (1.0, 1e-2, 1e-6):
            ref = mp_delta_j(ops, lam, Theta, Delta, t)
            assert abs(trial(t)[0] - ref) <= 1e-3 * abs(ref)
            wrong_sign += (evaluate(ops, lam, Policy(u, Theta - t * Delta)).J - J) * ref < 0.0
    assert wrong_sign >= 1


def test_ray_is_infinite_where_evaluate_rejects_the_point():
    # toward a gain whose terminal covariance is singular: the trial at that
    # gain reads inf, so no line search ends there, and one short of it a
    # finite change
    rng, prob, ops, mask = setup_random(29, N=3, n_x=2, n_u=1)
    u, Theta = np.zeros(3), rand_causal_theta(rng, mask)
    bad = rank_one_policy(ops, u)
    with pytest.raises(SingularTerminalCovarianceError):
        evaluate(ops, prob.lam, bad)
    Delta = Theta - bad.Theta
    trial = _ray(ops, prob.lam, Theta, Delta, _terminal(ops, Theta))
    assert trial(1.0)[0] == np.inf
    two = (evaluate(ops, prob.lam, Policy(u, Theta - 0.5 * Delta)).J
           - evaluate(ops, prob.lam, Policy(u, Theta)).J)
    assert trial(0.5)[0] == pytest.approx(two, rel=1e-10)
