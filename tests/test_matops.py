"""Kronecker-calculus identities, PSD primitives, and Jacobian kernels."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    DI_A,
    DI_B,
    DI_MU0,
    DI_MUD,
    FD_CBRT_EPS,
    SD_WIDE,
    fd_jacobian,
    rand_spd,
    rel_err,
)
import wsteer as w
from wsteer import matops as mo
from wsteer.errors import (
    DimensionMismatchError,
    IndefiniteBeyondToleranceError,
    NotPDError,
    NotSymmetricError,
    SingularMatrixError,
    SingularTerminalCovarianceError,
    SingularTransformError,
)
from wsteer.objective import _terminal
from wsteer.problem import RANK_TOL, RCOND_DATA


def test_vec_column_stacking():
    assert_allclose(mo.vec(np.array([[1.0, 3.0], [2.0, 4.0]])), [1, 2, 3, 4])
    assert_allclose(mo.vec(np.eye(2)), [1, 0, 0, 1])


def test_vec_commutation_transpose():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 2))
    K = mo.commutation_matrix(3, 2)
    assert_allclose(K @ mo.vec(M), mo.vec(M.T), rtol=0, atol=0)


def test_vec_kron_identity():
    rng = np.random.default_rng(1)
    M1, M2, M3 = (rng.standard_normal((3, 3)) for _ in range(3))
    lhs = mo.vec(M1 @ M2 @ M3)
    rhs = mo.kron(M3.T, M1) @ mo.vec(M2)
    assert rel_err(rhs, lhs) < 1e-13


def test_kron_identity_factor_and_scalar():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    expected = np.block([[A, np.zeros((2, 2))], [np.zeros((2, 2)), A]])
    assert_allclose(mo.kron(np.eye(2), A), expected)
    assert_allclose(mo.kron(np.array([[2.0]]), np.array([[3.0]])), [[6.0]])


def test_kron_mixed_product():
    rng = np.random.default_rng(2)
    A, B, C, D = (rng.standard_normal((2, 2)) for _ in range(4))
    lhs = mo.kron(A, B) @ mo.kron(C, D)
    rhs = mo.kron(A @ C, B @ D)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_kron_sum_scalar_and_zero():
    assert_allclose(mo.kron_sum(np.array([[2.0]]), np.array([[5.0]])), [[7.0]])
    assert_allclose(mo.kron_sum(np.zeros((2, 2)), np.zeros((3, 3))), np.zeros((6, 6)))


def test_kron_sum_requires_square():
    with pytest.raises(DimensionMismatchError):
        mo.kron_sum(np.zeros((2, 3)), np.zeros((2, 2)))


def test_kron_sum_similarity_transform():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2, 2))
    L = rng.standard_normal((2, 2)) + 3 * np.eye(2)
    Li = np.linalg.inv(L)
    lhs = mo.kron(L, L) @ mo.kron_sum(M, M) @ mo.kron(Li, Li)
    rhs = mo.kron_sum(L @ M @ Li, L @ M @ Li)
    assert rel_err(lhs, rhs) < 1e-12


def test_commutation_trivial_and_identity_fixed_point():
    assert_allclose(mo.commutation_matrix(1, 1), [[1.0]])
    K = mo.commutation_matrix(2, 2)
    assert_allclose(K @ mo.vec(np.eye(2)), mo.vec(np.eye(2)))


def test_commutation_spectrum():
    K = mo.commutation_matrix(3, 3)
    assert_allclose(K, K.T)
    assert_allclose(K @ K, np.eye(9))
    eig = np.sort(np.linalg.eigvalsh(K))
    assert np.all(np.isin(np.round(eig), [-1.0, 1.0]))
    eig_ipk = np.sort(np.linalg.eigvalsh(np.eye(9) + K))
    assert np.all(np.min(np.abs(eig_ipk[:, None] - np.array([0.0, 2.0])), axis=1) < 1e-12)


def test_commutation_swaps_kron_factors():
    rng = np.random.default_rng(4)
    for m, n in ((2, 2), (3, 3)):
        A = rng.standard_normal((m, m))
        B = rng.standard_normal((m, m))
        K = mo.commutation_matrix(m, m)
        assert rel_err(K @ mo.kron(A, B), mo.kron(B, A) @ K) < 1e-12


def test_commutation_apply_matches_dense_bit_for_bit():
    rng = np.random.default_rng(5)
    for m, n in ((1, 1), (2, 3), (4, 2), (3, 3)):
        K = mo.commutation_matrix(m, n)
        x = rng.standard_normal(m * n)
        assert np.array_equal(K @ x, mo.commutation_apply(x, m, n))
        X = rng.standard_normal((m * n, 5))
        assert np.array_equal(K @ X, mo.commutation_apply(X, m, n))


def test_identity_plus_commutation_commutes_with_self_kron():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        M = rng.standard_normal((n, n)) + n * np.eye(n)
        IK = np.eye(n * n) + mo.commutation_matrix(n, n)
        for T in (mo.kron(M, M), mo.kron_sum(M, M), np.linalg.inv(mo.kron_sum(M, M))):
            assert rel_err(IK @ T, T @ IK) < 1e-12


def test_sqrtm_psd_basics():
    assert_allclose(mo.sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)
    assert_allclose(mo.sqrtm_psd(np.eye(3)), np.eye(3), atol=1e-14)


def test_sqrtm_psd_reconstruction():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 4))
    S = M @ M.T
    R = mo.sqrtm_psd(S)
    assert np.linalg.norm(R @ R - S) <= 1e-10 * np.linalg.norm(S)
    assert_allclose(R, R.T)


def test_sqrtm_psd_clamps_and_raises():
    # eigenvalue at -1e-13 * lam_max is within the clamp
    S = np.diag([1.0, -1e-13])
    R = mo.sqrtm_psd(S)
    assert R[1, 1] == 0.0
    with pytest.raises(IndefiniteBeyondToleranceError):
        mo.sqrtm_psd(np.diag([1.0, -1e-3]))
    with pytest.raises(NotSymmetricError):
        mo.sqrtm_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_as_spd_matrix():
    with pytest.raises(NotPDError):
        mo.as_spd_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(NotSymmetricError):
        mo.as_spd_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert_allclose(mo.as_spd_matrix(np.diag([2.0, 3.0])), np.diag([2.0, 3.0]))


def test_geometric_mean_fixed_points():
    rng = np.random.default_rng(8)
    A = rand_spd(rng, 3)
    assert rel_err(mo.geometric_mean(A, A), A) < 1e-12
    assert_allclose(mo.geometric_mean(np.diag([4.0, 9.0]), np.eye(2)),
                    np.diag([2.0, 3.0]), atol=1e-12)


def test_geometric_mean_symmetry_and_inverse():
    rng = np.random.default_rng(9)
    A, B = rand_spd(rng, 3), rand_spd(rng, 3)
    AB = mo.geometric_mean(A, B)
    BA = mo.geometric_mean(B, A)
    assert np.linalg.norm(AB - BA) <= 1e-10 * np.linalg.norm(AB)
    lhs = np.linalg.inv(AB)
    rhs = mo.geometric_mean(np.linalg.inv(A), np.linalg.inv(B))
    assert rel_err(lhs, rhs) < 1e-10


def test_geometric_mean_errors():
    rng = np.random.default_rng(10)
    with pytest.raises(DimensionMismatchError):
        mo.geometric_mean(rand_spd(rng, 2), rand_spd(rng, 3))
    with pytest.raises(NotPDError):
        mo.geometric_mean(np.diag([1.0, -1.0]), np.eye(2))


def test_jac_axb():
    assert_allclose(mo.jac_axb(np.eye(2), np.eye(2)), np.eye(4))
    assert_allclose(mo.jac_axb(np.array([[2.0]]), np.array([[3.0]])), [[6.0]])
    rng = np.random.default_rng(11)
    A, B, X = (rng.standard_normal((2, 2)) for _ in range(3))
    J = mo.jac_axb(A, B)
    Jfd = fd_jacobian(lambda x: mo.vec(A @ x.reshape(2, 2, order="F") @ B),
                      mo.vec(X))
    assert rel_err(Jfd, J) < 1e-7


def test_jac_xxt():
    assert_allclose(mo.jac_xxt(np.zeros((2, 3))), np.zeros((4, 6)))
    assert_allclose(mo.jac_xxt(np.array([[1.5]])), [[3.0]])
    rng = np.random.default_rng(12)
    X = rng.standard_normal((2, 3))
    J = mo.jac_xxt(X)
    Jfd = fd_jacobian(lambda x: mo.vec(x.reshape(2, 3, order="F") @ x.reshape(2, 3, order="F").T),
                      mo.vec(X))
    assert rel_err(Jfd, J) < 1e-7


def test_jac_xsxt():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((2, 3))
    assert_allclose(mo.jac_xsxt(X, np.eye(3)), mo.jac_xxt(X))
    assert_allclose(mo.jac_xsxt(np.array([[2.0]]), np.array([[3.0]])), [[12.0]])
    S = rand_spd(rng, 3)
    J = mo.jac_xsxt(X, S)
    Jfd = fd_jacobian(lambda x: mo.vec(x.reshape(2, 3, order="F") @ S @ x.reshape(2, 3, order="F").T),
                      mo.vec(X))
    assert rel_err(Jfd, J) < 1e-7
    with pytest.raises(DimensionMismatchError):
        mo.jac_xsxt(X, np.eye(2))


def test_jac_inv():
    assert_allclose(mo.jac_inv(np.eye(2)), -np.eye(4))
    assert_allclose(mo.jac_inv(np.array([[2.0]])), [[-0.25]])
    rng = np.random.default_rng(14)
    X = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    J = mo.jac_inv(X)
    Jfd = fd_jacobian(lambda x: mo.vec(np.linalg.inv(x.reshape(3, 3, order="F"))),
                      mo.vec(X))
    assert rel_err(Jfd, J) < 1e-6
    with pytest.raises(SingularMatrixError):
        mo.jac_inv(np.diag([1.0, 0.0]))


def test_jac_sqrt_psd():
    assert_allclose(mo.jac_sqrt_psd(np.eye(2)), 0.5 * np.eye(4), atol=1e-14)
    assert_allclose(mo.jac_sqrt_psd(np.array([[4.0]])), [[0.25]])
    rng = np.random.default_rng(15)
    S = rand_spd(rng, 3)
    J = mo.jac_sqrt_psd(S)
    # directional finite differences restricted to symmetric perturbations
    for _ in range(6):
        E = rng.standard_normal((3, 3))
        E = 0.5 * (E + E.T)
        h = FD_CBRT_EPS
        d_fd = (mo.sqrtm_psd(S + h * E) - mo.sqrtm_psd(S - h * E)) / (2 * h)
        d_an = (J @ mo.vec(E)).reshape(3, 3, order="F")
        assert rel_err(d_fd, d_an) < 1e-6
    with pytest.raises(NotPDError):
        mo.jac_sqrt_psd(np.diag([1.0, -1.0]))


def test_pd_inverse_guard():
    rng = np.random.default_rng(16)
    S = rand_spd(rng, 3)
    assert rel_err(mo.pd_inverse(S), np.linalg.inv(S)) < 1e-12
    with pytest.raises(SingularMatrixError):
        mo.pd_inverse(np.diag([1.0, 1e-15]))


@pytest.mark.parametrize("call", [
    lambda: mo.check_symmetric(np.ones(3)),
    lambda: mo.symmetrize(np.ones(3)),
    lambda: mo.check_symmetric(np.ones((2, 3))),
    lambda: mo.commutation_matrix(0, 2),
    lambda: mo.commutation_apply(np.ones(5), 2, 3),
    lambda: mo.jac_inv(np.ones((2, 3))),
], ids=["not 2-D", "symmetrize 1-D", "not square", "empty commutation",
        "commutation length", "jac_inv not square"])
def test_shape_guards(call):
    with pytest.raises(DimensionMismatchError):
        call()


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        mo.vec(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        mo.kron(np.array([[np.inf]]), np.eye(2))


# --- the one conditioning rule -------------------------------------------

RCONDS = [0.0, 1e-13, 1e-12, 1e-10]


def rejects(vals, rcond, error=NotPDError):
    try:
        mo.require_conditioned(vals, "M", error, rcond)
    except error:
        return True
    return False


@st.composite
def spectra(draw):
    """A sorted spectrum whose ends are either independent or lambda_min
    within 1e-6 of one of the thresholds times lambda_max."""
    hi = draw(st.floats(-1e8, 1e8))
    if draw(st.booleans()):
        lo = draw(st.floats(-1e8, 1e8))
    else:
        lo = hi * draw(st.sampled_from(RCONDS)) * (1.0 + draw(st.floats(-1e-6, 1e-6)))
    mid = draw(st.lists(st.floats(min(lo, hi), max(lo, hi)), max_size=4))
    vals = np.sort([lo, *mid, hi])
    return vals[::-1] if draw(st.booleans()) else vals


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(vals=spectra(), rcond=st.sampled_from(RCONDS))
def test_require_conditioned_rejects_what_every_former_check_rejected(vals, rcond):
    lo, hi = float(vals.min()), float(vals.max())
    rejected = rejects(vals, rcond)
    # the comparison forms the checks used before they were merged:
    # validate and assemble, unchanged
    assert rejected == (lo <= rcond * max(hi, 0.0))
    # pd_inverse, jac_inv, k_to_theta and _terminal, which now also reject
    # the exact equality
    if lo <= 0.0 or lo < rcond * hi:
        assert rejected
    elif rejected:
        assert lo == rcond * hi
    # the G_k rank check, on singular values in descending order
    if lo >= 0.0:
        sv = vals[::-1] if vals[0] < vals[-1] else vals
        if sv[-1] <= rcond * sv[0] or sv[0] == 0.0:
            assert rejected


@pytest.mark.parametrize("rcond", RCONDS[1:])
def test_require_conditioned_boundary(rcond):
    for vals in ([rcond * (1 + 1e-6), 1.0], [1.0, 0.5, rcond * (1 + 1e-6)]):
        assert not rejects(vals, rcond)
    for vals in ([rcond * (1 - 1e-6), 1.0], [1.0, 0.5, rcond * (1 - 1e-6)], [rcond, 1.0]):
        assert rejects(vals, rcond)


def test_require_conditioned_sign_and_nan():
    assert not rejects([1e-300, 1.0], 0.0)
    for vals in ([0.0, 1.0], [-1e-300, 1.0], [-2.0, -1.0], [np.nan, 1.0], [0.5, np.nan]):
        for rcond in RCONDS:
            assert rejects(vals, rcond)
    with pytest.raises(SingularMatrixError, match="^what: min 0.000e[+]00"):
        mo.require_conditioned([0.0, 1.0], "what", SingularMatrixError)


def loop_failures(vals, rcond):
    """The member-by-member loop that `ill_conditioned` vectorizes: the reference."""
    out = []
    for i, (a, b) in enumerate(zip(vals[..., 0].ravel().tolist(), vals[..., -1].ravel().tolist())):
        lo, hi = (a, b) if a <= b else (b, a)
        if not lo > rcond * max(hi, 0.0):
            out.append((i, f"min {lo:.3e} <= {rcond:g} * max {hi:.3e}"))
    return out


END = st.one_of(st.floats(-1e8, 1e8), st.sampled_from(
    [0.0, -0.0, 1e-300, 5e-324, -5e-324, np.nan, np.inf, -np.inf, 1.7e308]))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(ends=st.lists(st.tuples(END, END), min_size=1, max_size=70),
       rcond=st.sampled_from(RCONDS), width=st.integers(1, 3))
def test_ill_conditioned_equals_the_member_loop(ends, rcond, width):
    # stacks of spectra of width 1 to 3 (the middle is not read), with
    # signed zeros, subnormals, NaN and infinities at either end
    a, b = np.array(ends).T
    vals = np.column_stack({1: [a], 2: [a, b], 3: [a, np.ones_like(a), b]}[width])
    for stack in (vals, vals[:, None, :], vals[0]):
        assert mo.ill_conditioned(stack, rcond) == loop_failures(stack, rcond)


@pytest.mark.parametrize("nan_at", [17, 40])
def test_require_conditioned_names_the_first_failing_member_of_a_stack(nan_at):
    # a 64-member stack, ascending and descending spectra, with members 17
    # and 40 failing, one of them through a NaN
    vals = np.stack([np.linspace(1.0, 2.0 + k, 3)[::1 - 2 * (k % 2)] for k in range(64)])
    vals[17, -1], vals[40, 0] = -1.0, 0.0
    vals[nan_at, -1 if nan_at == 17 else 0] = np.nan
    assert [i for i, _ in mo.ill_conditioned(vals, 1e-13)] == [17, 40]
    why = "min nan <= 1e-13 * max 1.900e+01" if nan_at == 17 else \
        "min -1.000e+00 <= 1e-13 * max 1.900e+01"
    with pytest.raises(NotPDError, match=re.escape(f"M: {why}") + "$"):
        mo.require_conditioned(vals, "M")
    assert mo.require_conditioned(np.delete(vals, [17, 40], axis=0), "M") is None


def _scaled(ratio):
    """diag(1, ratio), whose spectrum has lambda_min / lambda_max = ratio."""
    return np.diag([1.0, ratio])


BELOW, ABOVE = 1 - 1e-6, 1 + 1e-6


def test_validate_thresholds_and_messages():
    def problem(S0=np.eye(2), Sw=np.eye(2), Sd=SD_WIDE, G=np.eye(2)):
        sysm = w.TimeVaryingLinearSystem.time_invariant(DI_A, DI_B, G, 1)
        return w.SteeringProblem(sysm, w.Gaussian(DI_MU0, S0), Sw, w.Gaussian(DI_MUD, Sd), 1.0)

    for field, name in (("S0", "initial"), ("Sw", "noise"), ("Sd", "desired")):
        assert w.validate(problem(**{field: _scaled(RCOND_DATA * ABOVE)})) == []
        msgs = w.validate(problem(**{field: _scaled(RCOND_DATA * BELOW)}))
        assert len(msgs) == 1 and msgs[0].startswith(f"{name} covariance not PD")
    assert w.validate(problem(G=_scaled(RANK_TOL * ABOVE))) == []
    msgs = w.validate(problem(G=_scaled(RANK_TOL * BELOW)))
    assert len(msgs) == 1 and msgs[0].startswith("G[0] is rank deficient")
    msgs = w.validate(problem(S0=np.array([[1.0, 0.5], [0.0, 1.0]])))
    assert len(msgs) == 1 and msgs[0].startswith("initial covariance is not symmetric")


def test_assemble_stilde_threshold():
    # A = 0 and N = 1 make Stilde = diag(S0, G Sw G^T) = diag(1, Sw)
    def ops(sw):
        sysm = w.TimeVaryingLinearSystem.time_invariant([[0.0]], [[1.0]], [[1.0]], 1)
        return w.assemble(w.SteeringProblem(sysm, w.Gaussian([0.0], [[1.0]]), [[sw]],
                                            w.Gaussian([0.0], [[1.0]]), 1.0))

    ops(RCOND_DATA * ABOVE)
    with pytest.raises(NotPDError):
        ops(RCOND_DATA * BELOW)


def test_matops_sites_keep_their_thresholds():
    rc = mo.RCOND_GUARD
    mo.pd_inverse(_scaled(rc * ABOVE))
    mo.jac_inv(_scaled(rc * ABOVE))
    for site in (mo.pd_inverse, mo.jac_inv):
        with pytest.raises(SingularMatrixError):
            site(_scaled(rc * BELOW))
    mo.as_spd_matrix(_scaled(1e-300))
    with pytest.raises(NotPDError):
        mo.as_spd_matrix(_scaled(0.0))


def test_terminal_guards():
    # N = 1, n_x = 2, n_u = 1 with FHu = 0, so Y is the last 2x2 block of Stilde
    def term(y_ratio, sqrt_Sd=np.eye(2)):
        ops = SimpleNamespace(N=1, n_u=1, n_x=2, F=np.eye(2, 4, 2), FHu=np.zeros((2, 1)),
                              Stilde=np.diag([1.0, 1.0, 1.0, y_ratio]), sqrt_Sd=sqrt_Sd)
        return _terminal(ops, np.zeros((1, 4)))

    term(mo.RCOND_GUARD * ABOVE)
    with pytest.raises(SingularTerminalCovarianceError, match="terminal covariance"):
        term(mo.RCOND_GUARD * BELOW)
    # Y = I passes; C = Sd^1/2 Y Sd^1/2 = diag(1, 1e-400) underflows to singular
    with pytest.raises(SingularTerminalCovarianceError, match="Sd"):
        term(1.0, sqrt_Sd=_scaled(1e-200))


def test_k_to_theta_threshold():
    # with Hu = I and K = diag(1 - a, 0), I - Hu K = diag(a, 1) has rcond 1/a
    def k_to_theta(ratio):
        return w.k_to_theta(np.diag([1.0 - 1.0 / ratio, 0.0]), np.eye(2))

    k_to_theta(mo.RCOND_GUARD * ABOVE)
    with pytest.raises(SingularTransformError):
        k_to_theta(mo.RCOND_GUARD * BELOW)
