"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria cover the matrix-identity layer, the Jacobian kernels, the
lifted-operator positivity, gradient/Hessian exactness against finite
differences, the convexity certificate, solver behavior on the benchmark
double-integrator instance, the nonconvexity line scan (property-based, with
the documented lambda sweep 0.1, 1, 10, 100, 2000), uniqueness under
certification, Monte Carlo validation, and the gain transforms.
"""

import time

import numpy as np

from conftest import (
    FD_CBRT_EPS,
    SD_TIGHT,
    SD_WIDE,
    check_monotone,
    double_integrator_problem,
    fd_grad_matrix,
    fd_grad_scalar,
    fd_hessian_from_grad,
    fd_jacobian,
    rand_causal_theta,
    rand_problem,
    rand_spd,
    rel_err,
)
import wsteer as w
from wsteer import matops as mo
from wsteer.objective import (
    Policy,
    convexity_certificate,
    evaluate,
    grad_theta,
    grad_theta_j4,
    grad_uff,
    hessian_theta,
    terminal_covariance,
)
from wsteer.solver import (
    SolverOptions,
    count_strict_local_minima,
    line_scan,
    solve,
    solve_feedforward,
    solve_feedforward_woodbury,
)

LAMBDA_SWEEP = (0.1, 1.0, 10.0, 100.0, 2000.0)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def _rand_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def test_criterion_01_matrix_identity_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        A, B, C, D = (rng.standard_normal((n, n)) for _ in range(4))
        lhs = mo.kron(A, B) @ mo.kron(C, D)
        rhs = mo.kron(A @ C, B @ D)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

        K = mo.commutation_matrix(n, n)
        assert np.array_equal(K, K.T)
        assert np.linalg.norm(K @ K - np.eye(n * n)) == 0.0
        assert np.array_equal(K @ mo.vec(np.eye(n)), mo.vec(np.eye(n)))
        eig = np.linalg.eigvalsh(np.eye(n * n) + K)
        assert np.all(np.minimum(np.abs(eig), np.abs(eig - 2.0)) <= 1e-12)
        assert rel_err(K @ mo.kron(A, B), mo.kron(B, A) @ K) <= 1e-12

        M = rng.standard_normal((m, n))
        Kmn = mo.commutation_matrix(m, n)
        assert np.array_equal(Kmn @ mo.vec(M), mo.vec(M.T))

        # similarity transform of the Kronecker sum by a well-conditioned L
        Q1, Q2 = _rand_orthogonal(rng, n), _rand_orthogonal(rng, n)
        L = Q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q2
        Li = np.linalg.inv(L)
        Mn = rng.standard_normal((n, n))
        lhs = mo.kron(L, L) @ mo.kron_sum(Mn, Mn) @ mo.kron(Li, Li)
        rhs = mo.kron_sum(L @ Mn @ Li, L @ Mn @ Li)
        assert rel_err(lhs, rhs) <= 1e-12

        # commutation with self Kronecker product / sum / sum inverse
        W = rng.standard_normal((n, n)) + (n + 1) * np.eye(n)
        IK = np.eye(n * n) + K
        for T in (mo.kron(W, W), mo.kron_sum(W, W), np.linalg.inv(mo.kron_sum(W, W))):
            assert rel_err(IK @ T, T @ IK) <= 1e-12

        Aspd, Bspd = rand_spd(rng, n), rand_spd(rng, n)
        GA = mo.geometric_mean(Aspd, Aspd)
        assert rel_err(GA, Aspd) <= 1e-10
        AB, BA = mo.geometric_mean(Aspd, Bspd), mo.geometric_mean(Bspd, Aspd)
        assert np.linalg.norm(AB - BA) <= 1e-10 * max(1.0, np.linalg.norm(AB))
        inv_lhs = np.linalg.inv(AB)
        inv_rhs = mo.geometric_mean(np.linalg.inv(Aspd), np.linalg.inv(Bspd))
        assert rel_err(inv_lhs, inv_rhs) <= 1e-10
    dt = time.monotonic() - t0
    assert dt < 5.0
    _report(1, f"matrix identities on 50 random instances in {dt:.2f}s")


def test_criterion_02_jacobian_kernels():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((m, m))
        B = rng.standard_normal((n, n))
        X = rng.standard_normal((m, n))

        J = mo.jac_axb(A, B)
        Jfd = fd_jacobian(
            lambda x: mo.vec(A @ x.reshape(m, n, order="F") @ B), mo.vec(X))
        worst = max(worst, rel_err(Jfd, J))

        J = mo.jac_xxt(X)
        Jfd = fd_jacobian(
            lambda x: mo.vec(x.reshape(m, n, order="F") @ x.reshape(m, n, order="F").T),
            mo.vec(X))
        worst = max(worst, rel_err(Jfd, J))

        S = rand_spd(rng, n)
        J = mo.jac_xsxt(X, S)
        Jfd = fd_jacobian(
            lambda x: mo.vec(x.reshape(m, n, order="F") @ S @ x.reshape(m, n, order="F").T),
            mo.vec(X))
        worst = max(worst, rel_err(Jfd, J))

        Xs = rng.standard_normal((n, n)) + (n + 1) * np.eye(n)
        J = mo.jac_inv(Xs)
        Jfd = fd_jacobian(
            lambda x: mo.vec(np.linalg.inv(x.reshape(n, n, order="F"))), mo.vec(Xs))
        worst = max(worst, rel_err(Jfd, J))

        Spd = rand_spd(rng, n)
        J = mo.jac_sqrt_psd(Spd)
        E = rng.standard_normal((n, n))
        E = 0.5 * (E + E.T)
        h = FD_CBRT_EPS
        d_fd = (mo.sqrtm_psd(Spd + h * E) - mo.sqrtm_psd(Spd - h * E)) / (2 * h)
        d_an = (J @ mo.vec(E)).reshape(n, n, order="F")
        worst = max(worst, rel_err(d_fd, d_an))

        assert worst <= 1e-6
    dt = time.monotonic() - t0
    assert dt < 10.0
    _report(2, f"Jacobian kernels vs finite differences, worst rel err {worst:.2e} in {dt:.2f}s")


def test_criterion_03_stilde_positive_definite():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    for _ in range(50):
        prob = rand_problem(rng, N=int(rng.integers(1, 7)))
        eig = np.linalg.eigvalsh(w.assemble(prob).Stilde)
        assert eig[0] > 1e-10 * eig[-1]
    for Sd in (SD_WIDE, SD_TIGHT):
        eig = np.linalg.eigvalsh(w.assemble(double_integrator_problem(Sd)).Stilde)
        assert eig[0] > 0.0
    dt = time.monotonic() - t0
    assert dt < 5.0
    _report(3, f"Stilde PD on 50 random problems + benchmark in {dt:.2f}s")


def _grad_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        prob = rand_problem(
            rng,
            n_x=int(rng.integers(1, 4)),
            n_u=int(rng.integers(1, 3)),
            N=int(rng.integers(1, 5)),
            lam=float(rng.uniform(0.1, 10.0)),
        )
        ops = w.assemble(prob)
        mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
        u = 0.5 * rng.standard_normal(ops.N * ops.n_u)
        Theta = rand_causal_theta(rng, mask)
        yield prob, ops, mask, u, Theta


def test_criterion_04_gradient_exactness():
    t0 = time.monotonic()
    worst_u, worst_t, worst_4 = 0.0, 0.0, 0.0
    for prob, ops, mask, u, Theta in _grad_instances(104, 20):
        lam = prob.lam
        g_u = grad_uff(ops, lam, u)
        fd_u = fd_grad_scalar(lambda v: evaluate(ops, lam, Policy(v, Theta)).J, u)
        worst_u = max(worst_u, rel_err(fd_u, g_u))

        g_t = grad_theta(ops, lam, Theta)
        fd_t = fd_grad_matrix(lambda T: evaluate(ops, lam, Policy(u, T)).J, Theta)
        worst_t = max(worst_t, rel_err(fd_t, g_t))

        g_4 = grad_theta_j4(ops, lam, Theta)
        fd_4 = fd_grad_matrix(lambda T: evaluate(ops, lam, Policy(u, T)).J4, Theta)
        worst_4 = max(worst_4, rel_err(fd_4, g_4))
    assert worst_u <= 1e-6 and worst_t <= 1e-6 and worst_4 <= 1e-6
    dt = time.monotonic() - t0
    assert dt < 30.0
    _report(4, f"gradients vs FD on 20 instances, worst rel err "
               f"(u_ff {worst_u:.2e}, Theta {worst_t:.2e}, concave term {worst_4:.2e}) in {dt:.2f}s")


def test_criterion_05_hessian_exactness():
    t0 = time.monotonic()
    worst = 0.0
    for prob, ops, mask, u, Theta in _grad_instances(105, 20):
        lam = prob.lam
        H = hessian_theta(ops, lam, Theta)
        fd = fd_hessian_from_grad(lambda T: grad_theta(ops, lam, T), Theta)
        worst = max(worst, rel_err(fd, H))
    assert worst <= 1e-5
    dt = time.monotonic() - t0
    assert dt < 60.0
    _report(5, f"Hessian vs FD of gradient on 20 instances, worst rel err {worst:.2e} in {dt:.2f}s")


def test_criterion_06_certificate():
    t0 = time.monotonic()
    rng = np.random.default_rng(106)
    for _ in range(10):
        prob = rand_problem(rng, n_x=int(rng.integers(1, 4)), N=int(rng.integers(1, 4)))
        ops = w.assemble(prob)
        mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
        Theta0 = np.zeros(mask.theta_shape)
        Y0 = terminal_covariance(ops, Theta0)
        scaled = w.SteeringProblem(
            prob.system, prob.initial, prob.noise_cov,
            w.Gaussian(prob.desired.mean, float(rng.uniform(0.3, 0.95)) * Y0),
            prob.lam,
        )
        sops = w.assemble(scaled)
        cert = convexity_certificate(sops, scaled.lam, Theta0, mode="dominance")
        assert cert.kind == "DominatedCovariance"
        hmin = float(np.linalg.eigvalsh(hessian_theta(sops, scaled.lam, Theta0))[0])
        assert hmin > 0.0

    # benchmark-derived failure: the wide target is not dominated by the
    # terminal covariance of the tight-target optimum
    sol_tight = solve(double_integrator_problem(SD_TIGHT, lam=1.0))
    wide = double_integrator_problem(SD_WIDE, lam=1.0)
    cert = convexity_certificate(w.assemble(wide), wide.lam, sol_tight.Theta,
                                 mode="dominance")
    assert cert.kind is None and cert.dominance_gap < 0.0
    dt = time.monotonic() - t0
    assert dt < 30.0
    _report(6, f"certificate PD on 10 dominated instances; dominance failure exhibited "
               f"(gap {cert.dominance_gap:.3f}) in {dt:.2f}s")


def test_criterion_07_feedforward():
    t0 = time.monotonic()
    rng = np.random.default_rng(107)
    for _ in range(10):
        prob = rand_problem(rng)
        ops = w.assemble(prob)
        u = solve_feedforward(ops, prob.lam)
        g = grad_uff(ops, prob.lam, u)
        assert np.linalg.norm(g) <= 1e-10 * (1.0 + np.linalg.norm(u))
        u2 = solve_feedforward_woodbury(ops, prob.lam)
        assert np.linalg.norm(u - u2) <= 1e-10 * max(1.0, np.linalg.norm(u))

    variants = [SolverOptions(), SolverOptions(max_ccp_iters=3),
                SolverOptions(newton="off"),
                SolverOptions(stationarity_tol=1e-3)]
    wide = double_integrator_problem(SD_WIDE, lam=1.0)
    sols = [solve(wide, o) for o in variants]
    for s in sols[1:]:
        assert np.array_equal(sols[0].u_ff, s.u_ff)

    s_tight = solve(double_integrator_problem(SD_TIGHT, lam=1.0))
    assert np.linalg.norm(sols[0].u_ff - s_tight.u_ff) <= 1e-12
    dt = time.monotonic() - t0
    _report(7, f"feedforward optimal, unique, form-consistent; shared across targets in {dt:.2f}s")


def test_criterion_08_ccp_behavior():
    rng = np.random.default_rng(108)
    opts = SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14, stationarity_tol=1e-6,
                         newton="off")

    # target equal to the uncontrolled law converges to J ~ 0 from Theta = 0
    for _ in range(3):
        prob = rand_problem(rng)
        ops = w.assemble(prob)
        n_x = ops.n_x
        trivial = w.SteeringProblem(
            prob.system, prob.initial, prob.noise_cov,
            w.Gaussian(ops.Gamma[-n_x:, :] @ prob.initial.mean,
                       ops.Stilde[-n_x:, -n_x:]),
            prob.lam,
        )
        sol = solve(trivial, opts)
        check_monotone(sol.trace)
        assert sol.report.J <= 1e-8

    # benchmark targets solve within budget with residual <= 1e-6
    for Sd in (SD_WIDE, SD_TIGHT):
        t0 = time.monotonic()
        sol = solve(double_integrator_problem(Sd, lam=1.0), opts)
        dt = time.monotonic() - t0
        check_monotone(sol.trace)
        assert sol.trace.records[-1].residual <= 1e-6
        assert dt < 10.0
    _report(8, "CCP monotone, stationary at 1e-6, trivial targets at J<=1e-8, "
               "benchmark solves under budget")


def test_criterion_09_nonconvexity_line_scan():
    t0 = time.monotonic()
    opts = SolverOptions(max_ccp_iters=5000, obj_rel_tol=1e-16, stationarity_tol=1e-6)
    grid = np.linspace(-0.5, 1.5, 401)
    counts = {}
    for lam in LAMBDA_SWEEP:
        s_wide = solve(double_integrator_problem(SD_WIDE, lam=lam), opts)
        s_tight = solve(double_integrator_problem(SD_TIGHT, lam=lam), opts)
        pa = Policy(s_wide.u_ff, s_wide.Theta)
        pb = Policy(s_tight.u_ff, s_tight.Theta)
        best = 0
        for prob in (double_integrator_problem(SD_TIGHT, lam=lam),
                     double_integrator_problem(SD_WIDE, lam=lam)):
            samples = line_scan(w.assemble(prob), lam, pa, pb, grid)
            best = max(best, count_strict_local_minima([s.J for s in samples]))
        counts[lam] = best
    assert max(counts.values()) >= 2, f"local minima counts {counts}"
    dt = time.monotonic() - t0
    _report(9, f"line scan local-minima counts over lambda sweep {counts} in {dt:.2f}s")


def test_criterion_10_uniqueness_under_certification():
    t0 = time.monotonic()
    rng = np.random.default_rng(110)
    # desired covariance below the last-step noise floor: dominated for every
    # gain, so the objective is strictly convex and the minimizer unique
    prob0 = rand_problem(rng, N=3, n_x=2, n_u=1, lam=2.0)
    floor = prob0.system.G[-1] @ prob0.noise_cov @ prob0.system.G[-1].T
    Sd = 0.4 * np.linalg.eigvalsh(floor)[0] * np.eye(2)
    prob = w.SteeringProblem(prob0.system, prob0.initial, prob0.noise_cov,
                             w.Gaussian(prob0.desired.mean, Sd), prob0.lam)
    mask = w.causality_mask(3, 1, 2)
    thetas = []
    for _ in range(5):
        init = rand_causal_theta(rng, mask, scale=0.5)
        opts = SolverOptions(max_ccp_iters=5000, obj_rel_tol=1e-14,
                             stationarity_tol=1e-8, theta_init=init,
                             newton="when_certified")
        sol = solve(prob, opts)
        assert sol.certificate.kind is not None
        thetas.append(sol.Theta)
    for T in thetas[1:]:
        assert np.linalg.norm(T - thetas[0]) <= 1e-5 * max(1.0, np.linalg.norm(thetas[0]))
    dt = time.monotonic() - t0
    assert dt < 60.0
    _report(10, f"5 random initializations agree to 1e-5 on certified instance in {dt:.2f}s")


def test_criterion_11_closed_loop_validation():
    t0 = time.monotonic()
    prob = double_integrator_problem(SD_TIGHT, lam=1.0)
    sol = solve(prob, SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14,
                                    stationarity_tol=1e-6))
    pol = Policy(sol.u_ff, sol.Theta)
    rep = w.rollout(prob, pol, 100000, 42)
    assert rep.mean_err <= rep.mean_band
    assert rep.cov_err <= rep.cov_band
    rep2 = w.rollout(prob, pol, 100000, 42)
    assert np.array_equal(rep.empirical_mean, rep2.empirical_mean)
    assert np.array_equal(rep.empirical_cov, rep2.empirical_cov)
    dt = time.monotonic() - t0
    assert dt < 30.0
    _report(11, f"1e5-sample rollout within 5-sigma bands (mean {rep.mean_err:.2e} "
                f"<= {rep.mean_band:.2e}, cov {rep.cov_err:.2e} <= {rep.cov_band:.2e}), "
                f"bitwise deterministic, in {dt:.2f}s")


def test_criterion_12_gain_transforms():
    t0 = time.monotonic()
    rng = np.random.default_rng(112)
    for _ in range(50):
        prob = rand_problem(rng)
        ops = w.assemble(prob)
        mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
        Theta = rand_causal_theta(rng, mask, scale=0.8)
        K = w.theta_to_k(Theta, ops.Hu)
        back = w.k_to_theta(K, ops.Hu)
        assert np.linalg.norm(back - Theta) <= 1e-10 * max(1.0, np.linalg.norm(Theta))
        n = ops.Hu.shape[0]
        lhs = np.linalg.inv(np.eye(n) - ops.Hu @ K)
        rhs = np.eye(n) + ops.Hu @ Theta
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))
    dt = time.monotonic() - t0
    _report(12, f"gain-transform roundtrip and resolvent identity on 50 policies in {dt:.2f}s")
