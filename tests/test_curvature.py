"""The closed-form CCP curvature H0 and the structured causal Hessian
H = H_U + Z^T Z against the dense causal block: solves, the
positive-definiteness decision, lambda_min, which curvature a solve uses,
memory at long horizons, and the Loewner direction of the dominance
certificate."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SD_TIGHT,
    SD_WIDE,
    double_integrator_problem,
    long_horizon_problem,
    rand_causal_theta,
    rand_problem,
)
import wsteer as w
import wsteer.objective
import wsteer.solver
from wsteer.objective import (
    BLOCK_TOL,
    _ConvexCurvature,
    _coupling_weight,
    _curvature,
    _hessian_block,
    _structured,
    _StructuredCurvature,
    _terminal,
    convexity_certificate,
)

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
    # eigvalsh itself is only accurate to about eps ||H||_2 (Weyl): on a
    # draw with cond(H) = 3.8e8 it was 1.1e-8 off in relative terms, against
    # 5.9e-11 for the Lanczos value, both measured against a 40-digit eigsy
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
# large lambda: Woodbury alone leaves backward errors of 7e-14 to 4e-13 on
# these two draws; its refinement step brings them to order eps
@example(seed=0, N=1, n_x=3, n_u=1, extra_w=0, log_lam=3.7, scale=1.0)
@example(seed=0, N=2, n_x=3, n_u=1, extra_w=0, log_lam=3.8, scale=1.0)
# n_u < n_x at large lambda: the closed form of H0^-1 alone leaves a backward
# error of 4e-8 on this draw, its refinement step 4e-15
@example(seed=42, N=1, n_x=2, n_u=1, extra_w=0, log_lam=3.8, scale=1.0)
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
        curv = (_ConvexCurvature(ops, prob.lam, mask) if kernel is None
                else _StructuredCurvature(ops, prob.lam, mask, kernel))
        eig = np.linalg.eigvalsh(H)
        if abs(eig[0]) > 1e-8 * np.abs(eig).max():
            assert curv.pd == cholesky_succeeds(H)
        if curv.pd:
            assert backward_error(H, curv.solve(b), b) <= 1e-14
        assert np.linalg.norm(curv.matvec(b) - H @ b) <= 1e-13 * np.abs(eig).max() * np.linalg.norm(b)
        assert_lambda_min_agrees(curv.lambda_min(), eig)


def singular_block_kernel(ops, lam, term, t, sigma=0.0):
    """term with W changed so that A = 2 lam (I - Mt) gives the block
    I + C_t^T A C_t of H_U the eigenvalue sigma: C_t^T A C_t =
    diag(sigma - 1, 0, ..., 0)."""
    _, C = ops.input_grams
    Cinv = np.linalg.inv(C[t])
    K = np.diag([sigma - 1.0] + [0.0] * (ops.n_x - 1))
    m, Vm = np.linalg.eigh(np.eye(ops.n_x) - Cinv.T @ K @ Cinv / (2.0 * lam))
    return term._replace(W=Vm * np.sqrt(m * term.r))


# with block 0 singular the later blocks are PD, and so is H; with block 2
# singular the blocks before it are negative, and H is not PD.  Eigenvalues
# of +-1e-6 and +-2e-5, below BLOCK_TOL, count as singular too; from 1.5e-4,
# just above it, the blocks are inverted in closed form
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
def test_singular_block_falls_back_to_dense_small_space(n_x, t, sigma, pd):
    # a block of H_U with a zero eigenvalue leaves no block elimination; the
    # dense small space decides, and agrees with dense Cholesky.  A block
    # just above BLOCK_TOL is eliminated and agrees too
    rng = np.random.default_rng(n_x)
    prob = rand_problem(rng, N=3, n_x=n_x, n_u=n_x, n_w=n_x, lam=10.0)
    ops = w.assemble(prob)
    mask = w.causality_mask(3, n_x, n_x)
    term = singular_block_kernel(ops, prob.lam, _terminal(ops, rand_causal_theta(rng, mask)), t, sigma)
    curv = _StructuredCurvature(ops, prob.lam, mask, term)
    H = _hessian_block(ops, prob.lam, mask.free_entries, term)
    eig = np.linalg.eigvalsh(H)
    if abs(sigma) <= BLOCK_TOL:
        assert curv.neg_U is None and curv.neg_S is None
    else:
        assert curv.neg_U is not None
    assert abs(eig[0]) > 1e-8 * np.abs(eig).max()
    assert curv.pd == cholesky_succeeds(H) == pd
    if pd:
        b = rng.standard_normal(H.shape[0])
        assert backward_error(H, curv.solve(b), b) <= 1e-14
    assert_lambda_min_agrees(curv.lambda_min(), eig)


@pytest.mark.parametrize("seed, t", [(39, 0), (10, 1), (8, 2)])
def test_exactly_singular_block_is_never_inverted(seed, t):
    # on these draws I + A Q_t / 2 is singular in floating point, so the
    # closed form's E_t does not exist; the dense small space decides alone
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, N=3, n_x=1, n_u=1, n_w=1, lam=10.0)
    ops = w.assemble(prob)
    mask = w.causality_mask(3, 1, 1)
    term = singular_block_kernel(ops, prob.lam, _terminal(ops, rand_causal_theta(rng, mask)), t)
    A = _coupling_weight(prob.lam, 1, term)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.eye(1) + 0.5 * A @ ops.input_grams[0][t])
    curv = _StructuredCurvature(ops, prob.lam, mask, term)
    H = _hessian_block(ops, prob.lam, mask.free_entries, term)
    assert curv.neg_U is None and curv.pd == cholesky_succeeds(H)
    if curv.pd:
        b = rng.standard_normal(H.shape[0])
        assert backward_error(H, curv.solve(b), b) <= 1e-14


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
    curv = _StructuredCurvature(ops, lam, mask, term)
    H = _hessian_block(ops, lam, mask.free_entries, term)
    assert curv.neg_U > 0 and curv.neg_S == curv.neg_U
    assert curv.pd and cholesky_succeeds(H)
    b = rng.standard_normal(H.shape[0])
    assert backward_error(H, curv.solve(b), b) <= 1e-14


def test_structured_solve_forms_no_dense_small_space_factor(monkeypatch):
    # N = 30 runs structured: with the m x m LU and pivoted Cholesky removed,
    # the solve must still finish with the same J
    prob = long_horizon_problem(np.random.default_rng(3), N=30)
    assert _structured(w.assemble(prob))
    ref = w.solve(prob)

    def refuse(*args, **kwargs):
        raise AssertionError("dense small-space factor formed")

    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
    monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", refuse)
    sol = w.solve(prob)
    assert sol.trace.termination == ref.trace.termination == "stationarity"
    assert sol.report.J == ref.report.J
    assert sol.certificate.kind == ref.certificate.kind == "HessianPD"


def test_curvature_is_closed_form_for_ccp_and_structured_for_newton():
    # one curvature per step at every horizon; the size rule only picks how
    # the spectral certificate finds lambda_min
    for N, structured in ((10, False), (16, False), (20, True), (40, True)):
        ops = w.assemble(double_integrator_problem(SD_WIDE, lam=10.0, N=N))
        mask = w.causality_mask(N, ops.n_u, ops.n_x)
        assert _structured(ops) == structured
        term = _terminal(ops, np.zeros(mask.theta_shape))
        assert type(_curvature(ops, 10.0, mask)) is _ConvexCurvature
        assert type(_curvature(ops, 0.0, mask, term)) is _ConvexCurvature
        assert type(_curvature(ops, 10.0, mask, term)) is _StructuredCurvature
        # the dual whitening needs L^-1 exactly lower triangular; np.linalg.inv
        # pivots and leaves round-off above the diagonal, which tril removes
        L, Linv = ops.causal_cholesky
        assert not np.triu(Linv, 1).any()
        assert np.linalg.norm(L @ Linv - np.eye(N * ops.n_x)) <= 1e-13


class DenseCurvature:
    """The dense causal block of `_hessian_block`, Cholesky-factored: the
    oracle for `objective._curvature`, with its signature."""

    def __init__(self, ops, lam, mask, term=None):
        H = _hessian_block(ops, lam, mask.free_entries, term if lam != 0.0 else None)
        try:
            self.factor = scipy.linalg.cho_factor(H)
        except np.linalg.LinAlgError:
            self.factor = None
        self.pd = self.factor is not None

    def solve(self, v):
        return scipy.linalg.cho_solve(self.factor, v)


@pytest.mark.parametrize("Sd", [SD_TIGHT, SD_WIDE], ids=["tight", "wide"])
def test_structured_and_dense_solves_agree(monkeypatch, Sd):
    # the same solve with the dense causal block in place of the operators,
    # below (N = 10) and above (N = 20) the size rule
    opts = w.SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14)
    for N in (10, 20):
        prob = double_integrator_problem(Sd, lam=10.0, N=N)
        with monkeypatch.context() as m:
            fast = w.solve(prob, opts)
            m.setattr(wsteer.solver, "_curvature", DenseCurvature)
            dense = w.solve(prob, opts)
        assert abs(fast.report.J - dense.report.J) <= 1e-10 * abs(dense.report.J)
        assert fast.trace.termination == dense.trace.termination == "stationarity"
        assert [r.kind for r in fast.trace.records] == [r.kind for r in dense.trace.records]
        assert fast.certificate.kind == dense.certificate.kind
        if dense.certificate.lambda_min_hessian is not None:
            lmin = dense.certificate.lambda_min_hessian
            assert abs(fast.certificate.lambda_min_hessian - lmin) <= 1e-8 * abs(lmin)


@pytest.mark.parametrize("Sd,calls", [(SD_TIGHT, 0), (SD_WIDE, 1)], ids=["tight", "wide"])
def test_short_horizon_solve_forms_dense_block_only_for_certificate(monkeypatch, Sd, calls):
    # at N = 10 CCP and Newton solve with the operators; the dense block is
    # formed once, for eigvalsh in the spectral certificate, which the wide
    # target needs and the tight one does not
    block = []

    def counted(*args, **kwargs):
        block.append(args)
        return _hessian_block(*args, **kwargs)

    monkeypatch.setattr(wsteer.objective, "_hessian_block", counted)
    sol = w.solve(double_integrator_problem(Sd, lam=100.0))
    assert sol.trace.termination == "stationarity"
    assert any(r.kind == "newton" for r in sol.trace.records)
    assert len(block) == calls
    assert sol.certificate.kind == ("HessianPD" if calls else "DominatedCovariance")


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
        curv = _StructuredCurvature(ops, lam, mask, term)
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
    curv = _StructuredCurvature(ops, lam, mask, _terminal(ops, Theta))
    assert curv.pd and curv.lambda_min() > 0.0


def test_dominated_by_target_is_not_certified():
    # the other order, Y <= Sd, does not make H PD: Sd = 10 Y at Theta = 0
    # on the double integrator at lambda = 300
    lam = 300.0
    prob = double_integrator_problem(SD_TIGHT, lam=lam)
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    Theta = np.zeros(mask.theta_shape)
    Y = w.terminal_covariance(ops, Theta)
    ops = w.assemble(double_integrator_problem(10.0 * Y, lam=lam))
    assert np.linalg.eigvalsh(ops.Sd - Y)[0] > 0.0
    term = _terminal(ops, Theta)
    assert not cholesky_succeeds(_hessian_block(ops, lam, mask.free_entries, term))
    curv = _StructuredCurvature(ops, lam, mask, term)
    assert not curv.pd and curv.lambda_min() < 0.0
    cert = convexity_certificate(ops, lam, Theta, mode="spectral")
    assert cert.kind is None and cert.lambda_min_hessian < 0.0
