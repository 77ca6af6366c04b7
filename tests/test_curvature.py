"""The CCP curvature H0 and the causal Hessian H = H_U + Z^T Z, in their
one spectral form, against the dense causal block: solves, shifted solves,
the positive-definiteness decision, lambda_min (against the block in the
coordinates Phi), which curvature a solve uses, memory at long horizons, and
the Loewner direction of the dominance certificate."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvature_sweep
import fingerprint
import long_horizon_sweep
from conftest import (
    SD_TIGHT,
    SD_WIDE,
    double_integrator_problem,
    input_grams,
    long_horizon_problem,
    phi_block,
    rand_causal_theta,
    rand_problem,
    singular_block_kernel,
)
import wsteer as w
import wsteer.objective
import wsteer.solver
from wsteer.errors import HessianNotPDError
from wsteer.objective import (
    BLOCK_TOL,
    _coupling_weight,
    _Curvature,
    _hessian_block,
    _lambda_min,
    _terminal,
    convexity_certificate,
)
from wsteer.solver import newton_refine

EPS = np.finfo(float).eps


def backward_error(H, x, b):
    return np.linalg.norm(H @ x - b) / (np.linalg.norm(H, 2) * np.linalg.norm(x)
                                        + np.linalg.norm(b))


def cholesky_succeeds(H):
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def assert_lambda_min_agrees(lmin, eig):
    # eig: eigvalsh of `phi_block`, itself only accurate to about eps ||H||_2
    # (Weyl): on a draw with cond(H) = 3.8e8 it was 1.1e-8 off in relative
    # terms, measured against a 40-digit eigsy
    assert abs(lmin - eig[0]) <= 1e-8 * abs(eig[0]) + EPS * np.abs(eig).max()


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    N=st.integers(1, 5),
    n_x=st.integers(1, 3),
    n_u=st.sampled_from([1, 2]),
    extra_w=st.sampled_from([0, 1]),
    log_lam=st.floats(-3.0, 4.0),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
)
# large lambda: Woodbury alone leaves backward errors of 8e-14 to 7e-13 on
# these two draws; its refinement step brings them to order eps
@example(seed=0, N=1, n_x=3, n_u=1, extra_w=0, log_lam=3.7, scale=1.0)
@example(seed=0, N=2, n_x=3, n_u=1, extra_w=0, log_lam=3.8, scale=1.0)
# n_u < n_x at large lambda: the solve of H0 alone leaves a backward error of
# 1.1e-12 on this draw (a closed form of H0^-1 in Theta once left 4e-8), its
# refinement step 1e-16
@example(seed=42, N=1, n_x=2, n_u=1, extra_w=0, log_lam=3.8, scale=1.0)
# not PD, with |lambda_min| far below ||H||_2
@example(seed=2, N=2, n_x=2, n_u=2, extra_w=0, log_lam=0.75, scale=0.3)
def test_structured_curvature_matches_dense_block(seed, N, n_x, n_u, extra_w, log_lam, scale):
    # time-varying systems, lambda log-uniform in [1e-3, 1e4]
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, n_w=n_x + extra_w, lam=10.0 ** log_lam)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, n_u, n_x)
    term = _terminal(ops, rand_causal_theta(rng, mask, scale))
    b = rng.standard_normal(mask.free_entries.size)
    for kernel in (None, term):  # the CCP curvature, then the Newton Hessian
        H = _hessian_block(ops, prob.lam, mask.free_entries, kernel)
        curv = _Curvature(ops, prob.lam, mask, kernel)
        eig = np.linalg.eigvalsh(H)
        if abs(eig[0]) > 1e-8 * np.abs(eig).max():
            assert curv.pd == cholesky_succeeds(H)
        if curv.pd:
            assert backward_error(H, curv.solve(b), b) <= 1e-14
        assert np.linalg.norm(curv.matvec(b) - H @ b) <= 1e-13 * np.abs(eig).max() * np.linalg.norm(b)
        lmin, eig_phi = _lambda_min(ops, prob.lam, kernel), np.linalg.eigvalsh(phi_block(ops, prob.lam, mask, kernel))
        assert_lambda_min_agrees(lmin, eig_phi)
        if abs(eig[0]) > 1e-8 * np.abs(eig).max():  # congruent: the sign of the Theta block's
            assert (lmin > 0.0) == (eig[0] > 0.0)


# at lambda 1e3 and 1e4, where the Newton solve needs its refinement step,
# the poles and couplings of the secular count span the widest range
@pytest.mark.parametrize("lam", [1e3, 1e4])
@pytest.mark.parametrize("Sd", [SD_TIGHT, SD_WIDE], ids=["tight", "wide"])
def test_lambda_min_at_large_lambda_above_size_rule(Sd, lam):
    N = 20
    ops = w.assemble(double_integrator_problem(Sd, lam=lam, N=N))
    mask = w.causality_mask(N, ops.n_u, ops.n_x)
    rng = np.random.default_rng(0)
    for scale in (0.3, 1.0):
        term = _terminal(ops, rand_causal_theta(rng, mask, scale))
        for kernel in (None, term):
            curv = _Curvature(ops, lam, mask, kernel)
            eig = np.linalg.eigvalsh(_hessian_block(ops, lam, mask.free_entries, kernel))
            assert curv.pd == (eig[0] > 0.0)
            lmin, eig_phi = _lambda_min(ops, lam, kernel), np.linalg.eigvalsh(phi_block(ops, lam, mask, kernel))
            assert_lambda_min_agrees(lmin, eig_phi)
            assert (lmin > 0.0) == curv.pd


@pytest.fixture(scope="module")
def clustered():
    """The tight double integrator at N = 40, lambda = 10, at its solution:
    the two smallest eigenvalues of H lie 1.0e-4 apart in relative terms in
    Theta's coordinates, and coincide at 2 in Phi's."""
    prob = double_integrator_problem(SD_TIGHT, lam=10.0, N=40)
    sol = w.solve(prob, w.SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14,
                                        stationarity_tol=1e-6))
    ops = w.assemble(prob)
    mask = w.causality_mask(40, ops.n_u, ops.n_x)
    return ops, mask, _terminal(ops, sol.Theta)


def test_lambda_min_resolves_clustered_spectrum(clustered):
    ops, mask, term = clustered
    eig_theta = np.linalg.eigvalsh(_hessian_block(ops, 10.0, mask.free_entries, term))
    assert eig_theta[1] - eig_theta[0] <= 2e-4 * eig_theta[0]
    eig = np.linalg.eigvalsh(phi_block(ops, 10.0, mask, term))
    assert eig[1] - eig[0] <= 2e-4 * eig[0]
    curv = _Curvature(ops, 10.0, mask, term)
    lmin = _lambda_min(ops, 10.0, term)
    assert curv.pd and lmin > 0.0
    assert_lambda_min_agrees(lmin, eig)


@pytest.mark.parametrize("seed", range(6))
def test_phi_block_is_congruent_to_the_theta_block(seed):
    # the oracle: T^-T H T^-1 with T^-1: vec Phi -> vec(Phi L^-1) on the free
    # entries, which L^-1, block lower triangular, keeps causal
    rng = np.random.default_rng(seed)
    N, n_x, n_u = 1 + seed % 4, 1 + seed % 3, 1 + seed % 2
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, lam=10.0 ** rng.uniform(-1, 3))
    ops = w.assemble(prob)
    mask = w.causality_mask(N, n_u, n_x)
    term = _terminal(ops, rand_causal_theta(rng, mask, 1.0))
    c, r = np.divmod(mask.free_entries, N * n_u)
    Tinv = ops.causal_cholesky[1][c[None, :], c[:, None]] * (r[:, None] == r[None, :])
    for kernel in (None, term):
        H, Hp = _hessian_block(ops, prob.lam, mask.free_entries, kernel), phi_block(ops, prob.lam, mask, kernel)
        assert np.abs(Tinv.T @ H @ Tinv - Hp).max() <= 1e-9 * np.abs(Hp).max()


# N = 1 and 2 with n_u < n_x: Q_t is short of rank n_x on the last blocks, and
# on these draws H has no eigenvalue 2; a pole counted for each zero column of
# C_t would cap lambda_min at 2, against true values of 2.005 to 4.1e3 for
# lambda > 0.  At lambda = 0, H = 2I.
@pytest.mark.parametrize("N,n_x", [(1, 2), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("lam", [0.0, 0.1, 10.0, 2000.0])
def test_lambda_min_counts_no_pole_for_a_short_input_gram(N, n_x, lam):
    rng = np.random.default_rng([N, n_x])
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=1, lam=lam)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, 1, n_x)
    assert np.linalg.matrix_rank(input_grams(ops)[-1]) < n_x
    for scale in (0.3, 1.0, 3.0):
        term = _terminal(ops, rand_causal_theta(rng, mask, scale))
        H = _hessian_block(ops, lam, mask.free_entries, term)
        lmin, eig = _lambda_min(ops, lam, term), np.linalg.eigvalsh(phi_block(ops, lam, mask, term))
        assert_lambda_min_agrees(lmin, eig)
        assert (lmin > 0.0) == cholesky_succeeds(H)
        if lam == 0.0:
            assert lmin == 2.0


def shifted_block(ops, lam, mask, term, s):
    """H + 2 s I in Phi as the causal block in Theta's coordinates: the dense
    block at lam plus s times J2's curvature, Stilde kron 2I, which is 2 T^T T
    for T: vec X -> vec(X L)."""
    idx = mask.free_entries
    return _hessian_block(ops, lam, idx, term) + s * _hessian_block(ops, 0.0, idx)


def assert_singular_block_agrees(ops, lam, mask, term, pd, rng):
    """The structured curvature at a kernel whose block of H_U is (nearly)
    singular: the PD decision agrees with dense Cholesky and with pd, and
    lambda_min agrees with eigvalsh of the block in Phi and has the sign of
    the decision.  Returns (H's eigenvalues in Theta's coordinates, the
    curvature, and for a PD H with a block within BLOCK_TOL of singular the
    backward error of the solve with H + 2 s I, s = curv.shift, that
    `newton_refine` takes, against `shifted_block`, else None)."""
    curv = _Curvature(ops, lam, mask, term)
    H = _hessian_block(ops, lam, mask.free_entries, term)
    assert curv.pd == cholesky_succeeds(H) == pd
    lmin = _lambda_min(ops, lam, term)
    assert_lambda_min_agrees(lmin, np.linalg.eigvalsh(phi_block(ops, lam, mask, term)))
    assert (lmin > 0.0) == pd
    err = None
    if pd and curv.near:
        b = rng.standard_normal(H.shape[0])
        err = backward_error(shifted_block(ops, lam, mask, term, curv.shift),
                             curv.solve(b, curv.shift), b)
    return np.linalg.eigvalsh(H), curv, err


# with block 0 singular the later blocks are PD, and so is H; with block 2
# singular the blocks before it are negative, and H is not PD.  A PD H with a
# block eigenvalue up to 1e-2 (BLOCK_TOL) in size takes the Newton step with
# H + 2 s I; the rows at +-1e-2 sit on the tolerance.  (The name is from the
# signed Woodbury border that such blocks once joined.)
@pytest.mark.parametrize("n_x,t,sigma,pd", [(1, 0, 0.0, True), (2, 0, 0.0, True), (3, 0, 0.0, True),
                                            (1, 2, 0.0, False), (2, 2, 0.0, False), (3, 2, 0.0, False),
                                            (2, 0, 1e-6, True), (2, 2, -1e-6, False),
                                            (2, 0, -1e-6, True), (2, 0, 2e-5, True),
                                            (2, 0, -2e-5, True), (2, 2, 2e-5, False),
                                            (2, 0, 1.5e-4, True), (2, 0, -1.5e-4, True),
                                            (2, 0, 1e-3, True), (2, 0, -1e-3, True),
                                            (2, 0, 1e-2, True), (2, 0, -1e-2, True),
                                            (2, 2, 1.5e-4, False), (2, 2, -1e-2, False),
                                            (1, 1, 1e-2, True), (1, 1, -1e-2, False)])
def test_singular_block_shifts_into_signed_border(n_x, t, sigma, pd):
    rng = np.random.default_rng(n_x)
    prob = rand_problem(rng, N=3, n_x=n_x, n_u=n_x, n_w=n_x, lam=10.0)
    ops = w.assemble(prob)
    mask = w.causality_mask(3, n_x, n_x)
    term = singular_block_kernel(ops, prob.lam, _terminal(ops, rand_causal_theta(rng, mask)), t, sigma)
    eig, curv, err = assert_singular_block_agrees(ops, prob.lam, mask, term, pd, rng)
    assert abs(eig[0]) > 1e-8 * np.abs(eig).max()
    assert curv.near == (np.abs(curv.sig).min() <= BLOCK_TOL)
    if pd and curv.near:
        assert err <= 1e-14


# draws d of a seeded sweep (N <= 2, n_x = n_u = n_w = 3, lam = 10^U(-1, 4),
# one block eigenvalue +-10^U(-4, -2)) on which the closed form of a block
# just above the old BLOCK_TOL of 1e-4, refined once, left backward errors of
# 8.6e-7 (d = 4411, sigma 6.2e-4, lam 2648), 8.0e-12 (d = 520, sigma 6.1e-4,
# lam 400) and 3.3e-13 (d = 2784, sigma 1.3e-4, lam 1.1), and a rebuild at
# lam / (1 + s), where H_U's blocks cancel against a coupling weight A of
# norm up to 2.7e8, 1.1e-5, 1.3e-10 and 8.8e-13.  The shifted poles
# 2 (sigma + s) need no cancellation: 5.5e-17, 1.1e-16 and 1.6e-16
@pytest.mark.parametrize("d", [4411, 520, 2784])
def test_singular_block_sweep_draws_shift_into_border(d):
    rng = np.random.default_rng([3, d])
    N = int(rng.integers(1, 3))
    lam = 10.0 ** rng.uniform(-1, 4)
    t = int(rng.integers(0, N))
    sigma = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, -2)
    prob = rand_problem(rng, N=N, n_x=3, n_u=3, n_w=3, lam=lam)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, 3, 3)
    term = singular_block_kernel(ops, lam, _terminal(ops, rand_causal_theta(rng, mask)), t, sigma)
    _, curv, err = assert_singular_block_agrees(ops, lam, mask, term, True, rng)
    assert curv.near and err <= 1e-14
    g = rng.standard_normal(mask.free_entries.size)
    assert g @ curv.solve(g, curv.shift) > 0.0


@pytest.mark.parametrize("seed, t", [(39, 0), (10, 1), (8, 2)])
def test_exactly_singular_block_is_never_inverted(monkeypatch, seed, t):
    # on these draws I + A Q_t / 2 is singular in floating point, and so is
    # the pole 2 sigma: the PD decision reads the sign of lambda_min, and a
    # Newton step solves with H + 2 s I, one curvature built
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, N=3, n_x=1, n_u=1, n_w=1, lam=10.0)
    ops = w.assemble(prob)
    mask = w.causality_mask(3, 1, 1)
    Theta = rand_causal_theta(rng, mask)
    term = singular_block_kernel(ops, prob.lam, _terminal(ops, Theta), t)
    A = _coupling_weight(prob.lam, 1, term)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.eye(1) + 0.5 * A @ input_grams(ops)[t])
    curv = _Curvature(ops, prob.lam, mask, term)
    H = _hessian_block(ops, prob.lam, mask.free_entries, term)
    assert curv.singular and curv.near
    assert curv.pd == cholesky_succeeds(H) == (_lambda_min(ops, prob.lam, term) > 0.0)

    lams, shifts, steps = [], [], []
    curvature, solve = wsteer.solver._Curvature, wsteer.solver._curvature_solve
    monkeypatch.setattr(wsteer.solver, "_Curvature",
                        lambda ops, lam, *a: lams.append(lam) or curvature(ops, lam, *a))
    monkeypatch.setattr(wsteer.solver, "_curvature_solve", lambda f, rhs, s=0.0: (
        shifts.append(s) or steps.append(solve(f, rhs, s)) or steps[-1]))
    u_ff = np.zeros(ops.N * ops.n_u)
    rep = replace(w.evaluate(ops, prob.lam, w.Policy(u_ff, Theta)), kernel=term)
    if not curv.pd:
        with pytest.raises(HessianNotPDError):
            newton_refine(ops, prob.lam, Theta, mask, u_ff, rep)
        return
    newton_refine(ops, prob.lam, Theta, mask, u_ff, rep)
    assert lams == [prob.lam] and shifts == [curv.shift]
    assert len(steps) == 1 and np.isfinite(steps[0]).all()
    b = rng.standard_normal(H.shape[0])
    x = curv.solve(b, curv.shift)
    assert backward_error(shifted_block(ops, prob.lam, mask, term, curv.shift), x, b) <= 1e-14


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), log_s=st.floats(-3.0, 1.0))
def test_damped_hessian_is_the_hessian_at_a_smaller_lambda(seed, log_s):
    # A and Z^T Z are linear in lambda and the kernel does not depend on it,
    # so H(lam) + 2 s I = (1 + s) H(lam / (1 + s)) in Phi: the Newton step at
    # lam / (1 + s) over 1 + s is the one of J + s ||Phi - Phi_k||^2
    rng = np.random.default_rng(seed)
    N, n_x, n_u = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
    lam, s = 10.0 ** rng.uniform(-1, 3), 10.0 ** log_s
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, lam=lam)
    ops, mask = w.assemble(prob), w.causality_mask(N, n_u, n_x)
    term = _terminal(ops, rand_causal_theta(rng, mask, 1.0))
    damped = phi_block(ops, lam, mask, term) + 2.0 * s * np.eye(mask.free_entries.size)
    scaled = (1.0 + s) * phi_block(ops, lam / (1.0 + s), mask, term)
    assert np.linalg.norm(damped - scaled) <= 1e-14 * np.linalg.norm(damped)


@pytest.mark.parametrize("seed", [443, 1336, 1771])
def test_inertia_certifies_pd_hessian_with_indefinite_h_u(seed):
    # H = H_U + Z^T Z is PD although H_U, H without its Frechet rows, has
    # negative eigenvalues: S must have as many (Haynsworth); these seeds are
    # draws of this generator with that property
    rng = np.random.default_rng(seed)
    N, n_x, n_u = int(rng.integers(1, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 3))
    lam = 10.0 ** rng.uniform(-1, 3)
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, n_w=n_x, lam=lam)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, n_u, n_x)
    term = _terminal(ops, rand_causal_theta(rng, mask, 1.0))
    curv = _Curvature(ops, lam, mask, term)
    H = _hessian_block(ops, lam, mask.free_entries, term)
    assert curv.neg_U > 0 and np.count_nonzero(curv._border(0.0)[0] < 0.0) == curv.neg_U
    assert curv.pd and cholesky_succeeds(H)
    b = rng.standard_normal(H.shape[0])
    assert backward_error(H, curv.solve(b), b) <= 1e-14


def test_curvature_is_closed_form_for_ccp_and_structured_for_newton():
    # one curvature class at every horizon: the CCP curvature, and the
    # Hessian at lambda = 0, are its form with Z = 0
    for N in (10, 16, 20, 40):
        ops = w.assemble(double_integrator_problem(SD_WIDE, lam=10.0, N=N))
        mask = w.causality_mask(N, ops.n_u, ops.n_x)
        term = _terminal(ops, np.zeros(mask.theta_shape))
        assert type(wsteer.solver._reduced_curvature_factor(ops, 10.0, mask)) is _Curvature
        assert not _Curvature(ops, 10.0, mask).Z.any()
        assert not _Curvature(ops, 0.0, mask, term).Z.any()
        assert _Curvature(ops, 10.0, mask, term).Z.any()
        # the dual whitening needs L^-1 exactly lower triangular; np.linalg.inv
        # pivots and leaves round-off above the diagonal, which tril removes
        L, Linv = ops.causal_cholesky
        assert not np.triu(Linv, 1).any()
        assert np.linalg.norm(L @ Linv - np.eye(N * ops.n_x)) <= 1e-13


class DenseCurvature:
    """The dense causal block of `_hessian_block`, Cholesky-factored: the
    oracle for `objective._Curvature`, with its signature; never near, so
    its solves take no shift."""

    near = False

    def __init__(self, ops, lam, mask, term=None):
        H = _hessian_block(ops, lam, mask.free_entries, term if lam != 0.0 else None)
        try:
            self.factor = scipy.linalg.cho_factor(H)
        except np.linalg.LinAlgError:
            self.factor = None
        self.pd = self.factor is not None

    def solve(self, v, shift=0.0):
        assert shift == 0.0
        return scipy.linalg.cho_solve(self.factor, v)


@pytest.mark.parametrize("Sd", [SD_TIGHT, SD_WIDE], ids=["tight", "wide"])
def test_structured_and_dense_solves_agree(monkeypatch, Sd):
    # the same solve with the dense causal block in place of the operators,
    # at N = 10 and N = 20
    opts = w.SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14)
    for N in (10, 20):
        prob = double_integrator_problem(Sd, lam=10.0, N=N)
        with monkeypatch.context() as m:
            fast = w.solve(prob, opts)
            m.setattr(wsteer.solver, "_Curvature", DenseCurvature)
            dense = w.solve(prob, opts)
        assert abs(fast.report.J - dense.report.J) <= 1e-10 * abs(dense.report.J)
        assert fast.trace.termination == dense.trace.termination == "stationarity"
        assert [r.kind for r in fast.trace.records] == [r.kind for r in dense.trace.records]
        assert fast.certificate.kind == dense.certificate.kind
        if dense.certificate.lambda_min_hessian is not None:
            lmin = dense.certificate.lambda_min_hessian
            assert abs(fast.certificate.lambda_min_hessian - lmin) <= 1e-8 * abs(lmin)


@pytest.mark.parametrize("Sd,kind", [(SD_TIGHT, "DominatedCovariance"), (SD_WIDE, "HessianPD")],
                         ids=["tight", "wide"])
def test_short_horizon_solve_forms_dense_block_only_for_certificate(monkeypatch, Sd, kind):
    # at N = 10 CCP and Newton solve with the operators, and the spectral
    # certificate, which the wide target needs and the tight one does not,
    # counts in closed form: the dense block is never formed
    block = []

    def counted(*args, **kwargs):
        block.append(args)
        return _hessian_block(*args, **kwargs)

    monkeypatch.setattr(wsteer.objective, "_hessian_block", counted)
    sol = w.solve(double_integrator_problem(Sd, lam=100.0))
    assert sol.trace.termination == "stationarity"
    assert any(r.kind == "newton" for r in sol.trace.records)
    assert len(block) == 0
    assert sol.certificate.kind == kind


def test_dense_block_weights_fhu_with_the_structured_a():
    # at large lambda with Mt near I, P = I + lam sym(FHu^T (I - Mt) FHu)
    # cancels unless formed from the same A = 2 lam (I - Mt) as the
    # structured curvature; formed as FHu^T (FHu - Mt FHu), the block put
    # backward errors of up to 1.4e-14 on exact structured solves of these
    # crafted kernels (N = 1, n_x = 1, Mt = 1.0005, lambda = 1750), 3e-16 now
    lam, s = 1750.0, 1.0005
    for n_u, seed in itertools.product((1, 2), range(100)):
        rng = np.random.default_rng(seed)
        prob = rand_problem(rng, N=1, n_x=1, n_u=n_u, lam=lam)
        ops = w.assemble(prob)
        mask = w.causality_mask(1, n_u, 1)
        term = _terminal(ops, rand_causal_theta(rng, mask))._replace(W=np.sqrt([[s]]), r=np.ones(1))
        curv = _Curvature(ops, lam, mask, term)
        assert curv.pd
        b = rng.standard_normal(mask.free_entries.size)
        H = _hessian_block(ops, lam, mask.free_entries, term)
        assert backward_error(H, curv.solve(b), b) <= 1e-14


def test_structured_solve_memory_stays_below_dense_block():
    # N = 30, n_x = 4, n_u = 2: 3720 free entries, a 110.7 MB dense block
    prob = long_horizon_problem(np.random.default_rng(3), N=30)
    n_free = 2 * 4 * 30 * 31 // 2
    tracemalloc.start()
    try:
        sol = w.solve(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.trace.termination == "stationarity"
    assert sol.certificate.kind == "HessianPD"
    assert peak < 8 * n_free ** 2 / 4


def test_structured_build_holds_no_z_sized_array():
    # N = 100, n_x = 4, n_u = 2: Z, n_x^2 x (N n_u . N n_x), would be 10.2 MB,
    # and the build peaked at 21.2 MB when it formed Z and FHu Z in Theta's
    # coordinates; on the poles Z is N n_x^2 x 10, and the pole basis
    # N . N n_u . n_x doubles (0.64 MB)
    N = 100
    prob = long_horizon_problem(np.random.default_rng(0), N=N)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, ops.n_u, ops.n_x)
    term = _terminal(ops, np.zeros(mask.theta_shape))
    ops.causal_cholesky, ops.input_qr  # factored once per problem, before any curvature
    tracemalloc.start()
    try:
        _Curvature(ops, prob.lam, mask, term)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ops.n_x * (N * ops.n_u) * (N * ops.n_x)


@pytest.mark.parametrize("family", ["random", "crafted", "seeded"])
def test_curvature_sweep_first_draws(family):
    # the first draws of each family of tests/curvature_sweep.py, which
    # measures BLOCK_TOL: no PD decision against dense Cholesky is wrong, and
    # every refined solve meets 1e-14 against the curvature's own matvec,
    # and against the dense block (plus 2 s I near a singular block); off a
    # singular block the PD decision is the sign of lambda_min
    result = curvature_sweep.sweep(family, 20)
    assert result["mismatches"] == result["lambda_min_mismatches"] == 0 and result["pd"] > 0
    assert max(max(row[1], row[3]) for row in result["bins"].values()) <= 1e-14


SCALE_SCRIPT = """
import resource, sys, time
sys.path[:0] = sys.argv[1:]
import numpy as np
from conftest import long_horizon_problem
import wsteer as w
t = time.perf_counter()
sol = w.solve(long_horizon_problem(np.random.default_rng(0), N=100))
print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      sol.trace.termination, sum(r.kind == "newton" for r in sol.trace.records),
      sol.certificate.kind)
"""


def test_long_horizon_solves_through_newton_and_spectral_certificate():
    # N = 100, n_x = 4, n_u = 2: the dense causal block would be 13 GB
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    out = subprocess.run([sys.executable, "-c", SCALE_SCRIPT, here, src], check=True,
                         capture_output=True, text=True).stdout.split()
    seconds, peak_kb, termination, newton_steps, kind = out
    assert termination == "stationarity" and int(newton_steps) > 0 and kind == "HessianPD"
    assert float(seconds) < 60.0
    assert int(peak_kb) < 1024 * 1024  # ru_maxrss is in KB on Linux


def test_long_horizon_sweep_first_row():
    # the first row of tests/long_horizon_sweep.py, solved in its own process
    row = long_horizon_sweep.run(100, 0)
    assert row["termination"] == "stationarity"
    assert row["residual"] <= w.SolverOptions().stationarity_tol
    assert row["ccp"] + row["newton"] > 0
    assert long_horizon_sweep.format_row(100, 0, row).split()[:3] == ["100", "0", "stationarity"]


SHIFT_SCRIPT = """
import resource, sys
sys.path[:0] = sys.argv[1:]
import numpy as np
from conftest import long_horizon_problem
import wsteer as w
import wsteer.solver
prob = long_horizon_problem(np.random.default_rng(0), N=130)
solve, shifts = wsteer.solver._curvature_solve, []
def counted(factor, rhs, shift=0.0):
    shifts.append(shift)
    return solve(factor, rhs, shift)
wsteer.solver._curvature_solve = counted
curvature, refine, builds = wsteer.solver._Curvature, wsteer.solver.newton_refine, []
def build(*args):  # counted inside newton_refine only
    builds[-1:] = [b + 1 for b in builds[-1:]]
    return curvature(*args)
def step(*args):
    builds.append(0)
    try:
        return refine(*args)
    finally:
        print(builds.pop(), end=",")
wsteer.solver._Curvature, wsteer.solver.newton_refine = build, step
sol = w.solve(prob)
records = sol.trace.records
print("", sum(s != 0.0 for s in shifts), sol.trace.termination,
      sum(r.kind == "ccp" for r in records), sum(r.kind == "newton" for r in records),
      repr(sol.report.J), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""


def test_shifted_block_long_horizon_solve_stays_small():
    # N = 130, seed 0: a Newton step meets a block of H_U within BLOCK_TOL of
    # singular, and solves with H + 2 s I instead, with no border and with
    # the one curvature each Newton step builds, where a rebuild at
    # lam / (1 + s) once took a second.  The dense small space that decided
    # such a block once peaked at 363 MB here.
    # The reduced Hessian is indefinite for 22 CCP steps from Theta = 0;
    # then 10 Newton steps take the residual from 990 to below tol, the same
    # on one BLAS thread and on two
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    out = subprocess.run([sys.executable, "-c", SHIFT_SCRIPT, here, src], check=True,
                         capture_output=True, text=True).stdout.split()
    builds, damped, termination, ccp, newton, J, peak_kb, scipy_loaded = out
    assert int(damped) >= 1 and set(builds.rstrip(",").split(",")) == {"1"}
    assert (termination, int(ccp), int(newton)) == ("stationarity", 22, 10)
    assert abs(float(J) - 15.59123263329724) <= 1e-10 * 15.59123263329724
    assert int(peak_kb) < 200 * 1024  # ru_maxrss is in KB on Linux
    assert scipy_loaded == "False"


def dominated_instance(rng, n_x, n_u, lam, shrink):
    """A random problem and causal Theta whose terminal covariance Y dominates
    Sd = Y^(1/2) C Y^(1/2), C with eigenvalues `shrink` in (0, 1]."""
    prob = rand_problem(rng, N=3, n_x=n_x, n_u=n_u, lam=lam)
    ops = w.assemble(prob)
    mask = w.causality_mask(3, n_u, n_x)
    Theta = rand_causal_theta(rng, mask, 1.0)
    Y = w.terminal_covariance(ops, Theta)
    R = w.matops.sqrtm_psd(Y)
    Qo, _ = np.linalg.qr(rng.standard_normal((n_x, n_x)))
    Sd = R @ (Qo * shrink) @ Qo.T @ R
    prob = w.SteeringProblem(prob.system, prob.initial, prob.noise_cov,
                             w.Gaussian(prob.desired.mean, 0.5 * (Sd + Sd.T)), lam)
    return w.assemble(prob), mask, Theta


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n_x=st.integers(1, 3),
    n_u=st.sampled_from([1, 2]),
    log_lam=st.floats(-3.0, 4.0),
    shrink=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_dominated_covariance_implies_pd_hessian(seed, n_x, n_u, log_lam, shrink):
    # Y >= Sd gives Y^-1 <= Sd^-1, so Mt = Sd # Y^-1 <= Sd # Sd^-1 = I by the
    # monotonicity of the geometric mean; then P >= I and H > 0
    rng = np.random.default_rng(seed)
    lam = 10.0 ** log_lam
    ops, mask, Theta = dominated_instance(rng, n_x, n_u, lam, np.array(shrink[:n_x]))
    assert convexity_certificate(ops, lam, Theta).kind == "DominatedCovariance"
    term = _terminal(ops, Theta)
    assert _Curvature(ops, lam, mask, term).pd and _lambda_min(ops, lam, term) > 0.0


def test_dominated_by_target_is_not_certified():
    # the other order, Y <= Sd, does not make H PD: Sd = 10 Y at Theta = 0
    # on the double integrator at lambda = 300, at N = 10 and N = 20
    lam = 300.0
    for N in (10, 20):
        prob = double_integrator_problem(SD_TIGHT, lam=lam, N=N)
        ops = w.assemble(prob)
        mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
        Theta = np.zeros(mask.theta_shape)
        Y = w.terminal_covariance(ops, Theta)
        ops = w.assemble(double_integrator_problem(10.0 * Y, lam=lam, N=N))
        assert np.linalg.eigvalsh(ops.Sd - Y)[0] > 0.0
        term = _terminal(ops, Theta)
        assert not cholesky_succeeds(_hessian_block(ops, lam, mask.free_entries, term))
        curv = _Curvature(ops, lam, mask, term)
        assert not curv.pd and _lambda_min(ops, lam, term) < 0.0
        cert = convexity_certificate(ops, lam, Theta, mode="spectral")
        assert cert.kind is None and cert.lambda_min_hessian < 0.0
        assert_lambda_min_agrees(cert.lambda_min_hessian,
                                 np.linalg.eigvalsh(phi_block(ops, lam, mask, term)))


def test_structured_certificate_kind_is_the_inertia_count(monkeypatch):
    # the kind is the sign of lambda_min, the sup of the shifts at which the
    # secular count finds no negative eigenvalue: it agrees with the Newton
    # guard's inertia count, and follows lambda_min when that is planted
    lam, N = 10.0, 20
    for Sd in (SD_TIGHT, SD_WIDE):
        ops = w.assemble(double_integrator_problem(Sd, lam=lam, N=N))
        mask = w.causality_mask(N, ops.n_u, ops.n_x)
        Theta = w.solve(double_integrator_problem(Sd, lam=lam, N=N)).Theta
        pd = _Curvature(ops, lam, mask, _terminal(ops, Theta)).pd
        cert = convexity_certificate(ops, lam, Theta, mode="spectral")
        assert pd and cert.kind == "HessianPD" and cert.lambda_min_hessian > 0.0
        with monkeypatch.context() as m:
            m.setattr(wsteer.objective, "_lambda_min", lambda *args: -cert.lambda_min_hessian)
            assert convexity_certificate(ops, lam, Theta, mode="spectral").kind is None


def test_not_pd_past_the_interlacing_bound_builds_no_border(monkeypatch):
    # H = H_U + Z^T Z and rank Z <= n_x (n_x + 1) / 2 = 3, so past 3 negative
    # eigenvalues of H_U the guard says not PD without building Z or S.
    # The wide target's solves at lambda = 100 and 2000 start there; reading
    # S's inertia still builds Z
    built = []

    class Spy(_Curvature):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(wsteer.solver, "_Curvature", Spy)
    for label, prob, opts in fingerprint.solves():
        if label in ("wide/lambda=100", "wide/lambda=2000"):
            w.solve(prob, opts)
    early = [c for c in built if c.neg_U > 3]
    assert sorted(c.neg_U for c in early) == [18, 20]
    for c in early:
        assert not c.pd and "Z" not in vars(c) and not c._borders
        assert np.count_nonzero(c._border(0.0)[0] < 0.0) < c.neg_U and "Z" in vars(c)
    assert all(c.pd and not c.near and "Z" in vars(c) for c in built if c.neg_U <= 3)


def test_block_qr_is_built_once_per_problem(monkeypatch):
    ops = w.assemble(double_integrator_problem(SD_WIDE, lam=10.0, N=20))
    term = _terminal(ops, np.zeros((ops.N * ops.n_u, (ops.N + 1) * ops.n_x)))
    calls, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    for lam in (0.1, 10.0, 2000.0):
        _lambda_min(ops, lam, term)
    assert len(calls) == 1
