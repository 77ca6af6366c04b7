"""Data model validation and lifted-operator assembly."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    DI_A,
    DI_B,
    DI_G,
    DI_MU0,
    DI_MUD,
    SD_TIGHT,
    SD_WIDE,
    double_integrator_problem,
    rand_problem,
    rand_system,
)
import wsteer as w
from wsteer.errors import DimensionMismatchError, IndexOrderError, NonFiniteError, NotPDError


def scalar_problem(N=2):
    sysm = w.TimeVaryingLinearSystem.time_invariant([[1.0]], [[1.0]], [[1.0]], N)
    return w.SteeringProblem(
        sysm, w.Gaussian([0.0], [[1.0]]), [[1.0]], w.Gaussian([0.0], [[1.0]]), 1.0
    )


def test_state_transition_boundaries():
    rng = np.random.default_rng(0)
    sysm = rand_system(rng, 4, 2, 1, 2)
    assert_allclose(w.state_transition(sysm, 2, 2), np.eye(2))
    assert_allclose(w.state_transition(sysm, 3, 2), sysm.A[2])
    with pytest.raises(IndexOrderError):
        w.state_transition(sysm, 1, 2)
    with pytest.raises(IndexOrderError):
        w.state_transition(sysm, 5, 0)


def test_state_transition_time_invariant_power():
    A = np.array([[0.9, 0.2], [0.0, 0.8]])
    sysm = w.TimeVaryingLinearSystem.time_invariant(A, [[0.0], [1.0]], np.eye(2), 4)
    assert_allclose(w.state_transition(sysm, 3, 0), A @ A @ A)


def test_assemble_scalar_oracle():
    # scalar system A=B=G=1, S0=Sw=1, N=2, expanded by hand
    ops = w.assemble(scalar_problem())
    assert_allclose(ops.Gamma, [[1.0], [1.0], [1.0]])
    assert_allclose(ops.Hu, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert_allclose(ops.Hw, ops.Hu)
    assert_allclose(ops.Stilde, [[1, 1, 1], [1, 2, 2], [1, 2, 3]])
    assert_allclose(ops.F, [[0.0, 0.0, 1.0]])


def test_assemble_zero_b_gives_zero_hu():
    rng = np.random.default_rng(1)
    prob = rand_problem(rng, N=3, n_x=2, n_u=2)
    sysm = prob.system
    zsys = w.TimeVaryingLinearSystem(sysm.A, tuple(np.zeros((2, 2)) for _ in range(3)), sysm.G)
    zprob = w.SteeringProblem(zsys, prob.initial, prob.noise_cov, prob.desired, prob.lam)
    assert np.all(w.assemble(zprob).Hu == 0.0)


def test_assemble_deterministic_bit_identical():
    prob = double_integrator_problem(SD_WIDE)
    ops1, ops2 = w.assemble(prob), w.assemble(prob)
    for a, b in ((ops1.Gamma, ops2.Gamma), (ops1.Hu, ops2.Hu),
                 (ops1.Hw, ops2.Hw), (ops1.Stilde, ops2.Stilde)):
        assert np.array_equal(a, b)


def test_assemble_stilde_pd_on_benchmark():
    for Sd in (SD_WIDE, SD_TIGHT):
        ops = w.assemble(double_integrator_problem(Sd))
        assert np.linalg.eigvalsh(ops.Stilde)[0] > 0.0


def test_assemble_rejects_singular_stilde():
    # n_w < n_x starves the noise span, so Stilde is singular
    sysm = w.TimeVaryingLinearSystem.time_invariant(
        np.eye(2), [[0.0], [1.0]], [[1.0], [0.0]], 1
    )
    prob = w.SteeringProblem(
        sysm, w.Gaussian([0.0, 0.0], 1e-30 * np.eye(2)), [[1.0]],
        w.Gaussian([0.0, 0.0], np.eye(2)), 1.0
    )
    with pytest.raises(NotPDError):
        w.assemble(prob)


def test_assemble_block_structure_invariants():
    rng = np.random.default_rng(6)
    for _ in range(5):
        prob = rand_problem(rng)
        ops = w.assemble(prob)
        n_x = ops.n_x
        assert np.all(ops.Hu[:n_x, :] == 0.0)
        assert np.all(ops.Hw[:n_x, :] == 0.0)
        assert_allclose(ops.Gamma[:n_x, :], np.eye(n_x))
        W = np.kron(np.eye(ops.N), prob.noise_cov)
        rebuilt = ops.Gamma @ prob.initial.cov @ ops.Gamma.T + ops.Hw @ W @ ops.Hw.T
        assert_allclose(ops.Stilde, 0.5 * (rebuilt + rebuilt.T), rtol=0, atol=0)
        # F picks the last n_x entries
        v = rng.standard_normal((ops.N + 1) * n_x)
        assert_allclose(ops.F @ v, v[-n_x:])


def test_lifting_consistency_random():
    rng = np.random.default_rng(2)
    for _ in range(8):
        prob = rand_problem(rng)
        sysm = prob.system
        N, n_x, n_u, n_w = sysm.horizon, sysm.n_x, sysm.n_u, sysm.n_w
        ops = w.assemble(prob)
        x0 = rng.standard_normal(n_x)
        u = rng.standard_normal(N * n_u)
        wn = rng.standard_normal(N * n_w)
        x = np.empty((N + 1) * n_x)
        x[:n_x] = x0
        for k in range(N):
            x[(k + 1) * n_x:(k + 2) * n_x] = (
                sysm.A[k] @ x[k * n_x:(k + 1) * n_x]
                + sysm.B[k] @ u[k * n_u:(k + 1) * n_u]
                + sysm.G[k] @ wn[k * n_w:(k + 1) * n_w]
            )
        lifted = ops.Gamma @ x0 + ops.Hu @ u + ops.Hw @ wn
        assert np.linalg.norm(lifted - x) <= 1e-12 * max(1.0, np.linalg.norm(x))


def test_assemble_blocks_match_state_transition_products():
    # the block-row recurrence of assemble against the transition products
    rng = np.random.default_rng(4)
    for N, n_x, n_u, n_w in ((1, 2, 2, 2), (4, 3, 2, 4), (12, 2, 3, 3)):
        prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, n_w=n_w)
        sysm = prob.system
        ops = w.assemble(prob)
        Gamma = np.vstack([w.state_transition(sysm, k, 0) for k in range(N + 1)])
        Hu = np.zeros(((N + 1) * n_x, N * n_u))
        Hw = np.zeros(((N + 1) * n_x, N * n_w))
        for k in range(1, N + 1):
            for j in range(k):
                Phi = w.state_transition(sysm, k, j + 1)
                Hu[k * n_x:(k + 1) * n_x, j * n_u:(j + 1) * n_u] = Phi @ sysm.B[j]
                Hw[k * n_x:(k + 1) * n_x, j * n_w:(j + 1) * n_w] = Phi @ sysm.G[j]
        for got, want in ((ops.Gamma, Gamma), (ops.Hu, Hu), (ops.Hw, Hw)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_assemble_stilde_matches_noise_kron_oracle(monkeypatch):
    # assemble forms Hw (I_N kron Sw) Hw^T one n_w-wide block column at a
    # time; the dense Kronecker formula survives as the oracle, also on
    # time-varying draws with n_w > n_x and on the double integrator at N = 40
    kron = np.kron
    monkeypatch.setattr(np, "kron", None)  # assemble must not call it
    rng = np.random.default_rng(8)
    probs = [rand_problem(rng, N=int(rng.integers(1, 13)), n_x=n_x, n_w=n_x + extra)
             for n_x, extra in itertools.product((1, 2, 3), (0, 1, 3))]
    probs.append(double_integrator_problem(SD_WIDE, lam=10.0, N=40))
    for prob in probs:
        ops = w.assemble(prob)
        W = kron(np.eye(ops.N), prob.noise_cov)
        want = ops.Gamma @ prob.initial.cov @ ops.Gamma.T + ops.Hw @ W @ ops.Hw.T
        want = 0.5 * (want + want.T)
        assert np.abs(ops.Stilde - want).max() <= 1e-15 * np.abs(want).max()


def test_stilde_pd_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ops = w.assemble(rand_problem(rng))
        eig = np.linalg.eigvalsh(ops.Stilde)
        assert eig[0] > 1e-10 * eig[-1]


def test_causality_mask_counts():
    m1 = w.causality_mask(1, 3, 2)
    assert m1.free_entries.size == 3 * 2
    m2 = w.causality_mask(2, 1, 1)
    assert m2.free_entries.size == 3
    m3 = w.causality_mask(10, 1, 2)
    assert m3.free_entries.size == 110
    assert m3.free_entries.size + m3.complement.size == 10 * 1 * 11 * 2


def test_causality_mask_ordering_deterministic():
    a = w.causality_mask(3, 2, 2)
    b = w.causality_mask(3, 2, 2)
    assert np.array_equal(a.free_entries, b.free_entries)
    # first block is theta_{0,0}, column-major inside the block
    N, n_u, n_x = 3, 2, 2
    rows = N * n_u
    expected_first = [0 * rows + 0, 0 * rows + 1, 1 * rows + 0, 1 * rows + 1]
    assert list(a.free_entries[:4]) == expected_first


def _loop_causality_mask(N, n_u, n_x):
    """The index split by explicit loops over blocks and entries."""
    rows = N * n_u
    free = []
    for i in range(N):
        for j in range(i + 1):
            for c in range(n_x):
                for r in range(n_u):
                    free.append((j * n_x + c) * rows + i * n_u + r)
    complement = sorted(set(range(rows * (N + 1) * n_x)) - set(free))
    return np.asarray(free, dtype=np.intp), np.asarray(complement, dtype=np.intp)


@pytest.mark.parametrize("N", [1, 2, 7, 40])
@pytest.mark.parametrize("n_u", [1, 3])
@pytest.mark.parametrize("n_x", [1, 2, 4])
def test_causality_mask_matches_loop_oracle(N, n_u, n_x):
    mask = w.causality_mask(N, n_u, n_x)
    free, complement = _loop_causality_mask(N, n_u, n_x)
    assert mask.free_entries.dtype == free.dtype
    assert np.array_equal(mask.free_entries, free)
    assert np.array_equal(mask.complement, complement)


def _block(Theta, i, j, n_u, n_x):
    return Theta[i * n_u:(i + 1) * n_u, j * n_x:(j + 1) * n_x]


def test_causality_mask_matches_block_constraints():
    rng = np.random.default_rng(4)
    N, n_u, n_x = 4, 2, 3
    mask = w.causality_mask(N, n_u, n_x)
    Theta = rng.standard_normal(mask.theta_shape)
    proj = mask.project(Theta)
    # zeroing the complement makes every constrained block vanish ...
    for i in range(N):
        for j in range(N + 1):
            blk = _block(proj, i, j, n_u, n_x)
            if j > i:
                assert np.all(blk == 0.0)
            else:
                assert_allclose(blk, _block(Theta, i, j, n_u, n_x))
    # ... and conversely the free entries cover exactly the j <= i blocks
    flat = np.zeros(mask.theta_shape[0] * mask.theta_shape[1])
    flat[mask.free_entries] = 1.0
    marker = flat.reshape(mask.theta_shape, order="F")
    for i in range(N):
        for j in range(N + 1):
            blk = _block(marker, i, j, n_u, n_x)
            assert np.all(blk == (1.0 if j <= i else 0.0))


def test_causality_mask_is_causal():
    mask = w.causality_mask(3, 1, 2)
    rng = np.random.default_rng(5)
    Theta = mask.project(rng.standard_normal(mask.theta_shape))
    assert mask.is_causal(Theta)
    Theta_bad = Theta.copy()
    Theta_bad[0, -1] = 1.0
    assert not mask.is_causal(Theta_bad)


@pytest.mark.parametrize("N,n_u,n_x", [(1, 1, 1), (3, 2, 2), (4, 1, 3)])
def test_causality_mask_gather_scatter_round_trip(N, n_u, n_x):
    mask = w.causality_mask(N, n_u, n_x)
    rng = np.random.default_rng(N)
    Theta = rng.standard_normal(mask.theta_shape)
    v = rng.standard_normal(mask.free_entries.size)
    assert np.array_equal(mask.gather(Theta), w.matops.vec(Theta)[mask.free_entries])
    assert np.array_equal(mask.scatter(mask.gather(Theta)), mask.project(Theta))
    assert np.array_equal(mask.gather(mask.scatter(v)), v)
    assert mask.is_causal(mask.scatter(v))
    with pytest.raises(DimensionMismatchError):
        mask.gather(Theta.T)


def test_validate_benchmark_clean():
    assert w.validate(double_integrator_problem(SD_WIDE)) == []
    assert w.validate(double_integrator_problem(SD_TIGHT)) == []


def test_validate_flags_bad_data():
    prob = double_integrator_problem(SD_WIDE)
    bad = w.SteeringProblem(prob.system, w.Gaussian([0.0, 0.0], np.zeros((2, 2))),
                            prob.noise_cov, prob.desired, prob.lam)
    msgs = w.validate(bad)
    assert any("initial covariance" in m for m in msgs)

    ranksys = w.TimeVaryingLinearSystem.time_invariant(
        np.eye(2), [[0.0], [1.0]], [[1.0, 1.0], [1.0, 1.0]], 2
    )
    bad2 = w.SteeringProblem(ranksys, prob.initial, prob.noise_cov, prob.desired, 1.0)
    msgs2 = w.validate(bad2)
    assert any("G[0]" in m and "rank" in m for m in msgs2)

    lam0 = w.SteeringProblem(prob.system, prob.initial, prob.noise_cov, prob.desired, 0.0)
    assert any("lambda" in m for m in w.validate(lam0))


def test_negative_lambda_rejected_at_construction():
    prob = double_integrator_problem(SD_WIDE)
    with pytest.raises(ValueError):
        w.SteeringProblem(prob.system, prob.initial, prob.noise_cov, prob.desired, -1.0)


def test_system_shape_validation():
    with pytest.raises(DimensionMismatchError):
        w.TimeVaryingLinearSystem((np.eye(2),), (np.zeros((3, 1)),), (np.eye(2),))
    with pytest.raises(DimensionMismatchError):
        w.TimeVaryingLinearSystem.time_invariant(np.eye(2), np.zeros((2, 1)), np.eye(2), 0)


@pytest.mark.parametrize("n_x, n_u, n_w", [(2, 0, 2), (2, 1, 0), (0, 1, 1)])
def test_empty_dimension_rejected_at_construction(n_x, n_u, n_w):
    # an empty input or noise space used to pass construction and make
    # validate fail inside a numpy reduction
    with pytest.raises(DimensionMismatchError, match="each must be >= 1"):
        w.TimeVaryingLinearSystem.time_invariant(
            np.eye(n_x), np.ones((n_x, n_u)), np.ones((n_x, n_w)), 3)


def test_gaussian_shape_validation():
    with pytest.raises(DimensionMismatchError):
        w.Gaussian([0.0, 0.0], np.eye(3))


def test_dimension_mismatch_rejected_at_construction():
    prob = double_integrator_problem(SD_WIDE)
    three = w.Gaussian(np.zeros(3), np.eye(3))
    for field, value in (("initial", three), ("desired", three), ("noise_cov", np.eye(3)),
                         ("noise_cov", np.eye(2)[:, :1])):
        data = {"system": prob.system, "initial": prob.initial, "noise_cov": prob.noise_cov,
                "desired": prob.desired, "lam": prob.lam, field: value}
        with pytest.raises(DimensionMismatchError):
            w.SteeringProblem(**data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["A", "B", "G", "mu0", "S0", "Sw", "mud", "Sd"])
def test_non_finite_data_rejected_at_construction(name, bad):
    data = {"A": DI_A, "B": DI_B, "G": DI_G, "mu0": DI_MU0, "S0": np.eye(2),
            "Sw": 0.01 * np.eye(2), "mud": DI_MUD, "Sd": SD_WIDE}
    M = np.array(data[name], dtype=float)
    M.flat[-1] = bad
    # a system matrix is bad at the last of three steps only
    A, B, G = ([data[k]] * 2 + [M if k == name else data[k]] for k in ("A", "B", "G"))
    data[name] = M
    with pytest.raises(NonFiniteError, match=f"^{name} holds"):
        w.SteeringProblem(w.TimeVaryingLinearSystem(A, B, G),
                          w.Gaussian(data["mu0"], data["S0"]), data["Sw"],
                          w.Gaussian(data["mud"], data["Sd"]), 1.0)
