"""Data model validation and lifted-operator assembly."""

import itertools
import re

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
    long_horizon_problem,
    rand_problem,
    rand_system,
)
import fingerprint
import wsteer as w
from wsteer import problem as wp
from wsteer.errors import DimensionMismatchError, IndexOrderError, NonFiniteError, NotPDError
from wsteer.objective import Policy
from wsteer.matops import require_conditioned
from wsteer.problem import DATA_MEMO, RANK_TOL, RCOND_DATA
from wsteer.simulate import rollout


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
    prob = scalar_problem()
    ops = w.assemble(prob)
    assert_allclose(ops.Gamma, [[1.0], [1.0], [1.0]])
    assert_allclose(ops.Hu, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert_allclose(wp.lifted_maps(prob.system)[2], ops.Hu)
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
    # two builds, the second past the memo that shares the first
    prob = double_integrator_problem(SD_WIDE)
    ops1, ops2 = w.assemble(prob), wp._lift(prob)
    Hw1, Hw2 = wp.lifted_maps(prob.system)[2], wp.lifted_maps(prob.system)[2]
    for a, b in ((ops1.Gamma, ops2.Gamma), (ops1.Hu, ops2.Hu),
                 (Hw1, Hw2), (ops1.Stilde, ops2.Stilde)):
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


def test_assemble_names_the_condition_number_of_a_pd_stilde():
    # S0 = Sw = I and G_k = 0.1 I, so Stilde is PD; over N = 200 steps the
    # open-loop chain grows until its condition number passes 1/RCOND_DATA,
    # and the message says that rather than asking about S0, Sw or G_k
    prob = long_horizon_problem(np.random.default_rng(1), N=200)
    with pytest.raises(NotPDError) as err:
        w.assemble(prob)
    msg = str(err.value)
    assert msg.startswith("Stilde is not PD") and "S0" not in msg and "G_k" not in msg
    cond, hi = map(float, re.search(r"condition number (\S+) exceeds 1e\+12, "
                                    r"with largest eigenvalue (\S+) ", msg).groups())
    assert 1.0 / RCOND_DATA < cond < 2e12 and 3e9 < hi < 4e9
    # rollout reads assemble's lifting, so it says the same
    N, n_u, n_x = prob.system.horizon, prob.system.n_u, prob.system.n_x
    with pytest.raises(NotPDError) as rolled:
        rollout(prob, Policy(np.zeros(N * n_u), np.zeros((N * n_u, (N + 1) * n_x))), 16, 0)
    assert str(rolled.value) == msg


def test_assemble_block_structure_invariants():
    rng = np.random.default_rng(6)
    for _ in range(5):
        prob = rand_problem(rng)
        ops = w.assemble(prob)
        Hw = wp.lifted_maps(prob.system)[2]
        n_x = ops.n_x
        assert np.all(ops.Hu[:n_x, :] == 0.0)
        assert np.all(Hw[:n_x, :] == 0.0)
        assert_allclose(ops.Gamma[:n_x, :], np.eye(n_x))
        W = np.kron(np.eye(ops.N), prob.noise_cov)
        rebuilt = ops.Gamma @ prob.initial.cov @ ops.Gamma.T + Hw @ W @ Hw.T
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
        Hw = wp.lifted_maps(sysm)[2]
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
        lifted = ops.Gamma @ x0 + ops.Hu @ u + Hw @ wn
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
        for got, want in ((ops.Gamma, Gamma), (ops.Hu, Hu), (wp.lifted_maps(sysm)[2], Hw)):
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
        Hw = wp.lifted_maps(prob.system)[2]
        W = kron(np.eye(ops.N), prob.noise_cov)
        want = ops.Gamma @ prob.initial.cov @ ops.Gamma.T + Hw @ W @ Hw.T
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


def test_causality_mask_is_built_once_per_shape_and_read_only():
    mask = w.causality_mask(4, 2, 3)
    assert w.causality_mask(4, 2, 3) is mask and w.causality_mask(4, 3, 2) is not mask
    rows, cols, pattern = mask.layout
    for a in (mask.free_entries, mask.complement, rows, cols, pattern):
        with pytest.raises(ValueError):
            a[0] = 1
    # the layout: each free entry's row and column, and the causal pattern
    p = mask.theta_shape[0]
    assert np.array_equal(cols * p + rows, mask.free_entries)
    assert np.array_equal(np.flatnonzero(pattern.ravel(order="F")), np.sort(mask.free_entries))


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
    assert not mask.is_causal(mask.scatter(v).T)
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


def test_validate_names_every_rank_deficient_g_in_order():
    # time-varying G_k with n_w = 3 > n_x = 2; steps 1 and 3 have rank 1.
    # The reference is one SVD per G_k, the loop that validate stacks
    rng = np.random.default_rng(8)
    sysm = rand_system(rng, 5, 2, 2, 3)
    G = list(sysm.G)
    for k in (1, 3):
        G[k] = np.outer(rng.standard_normal(2), rng.standard_normal(3))
    sysm = w.TimeVaryingLinearSystem(sysm.A, sysm.B, tuple(G))
    prob = double_integrator_problem(SD_WIDE)
    prob = w.SteeringProblem(sysm, prob.initial, 0.1 * np.eye(3), prob.desired, 1.0)
    expect = []
    for k, Gk in enumerate(G):
        try:
            require_conditioned(np.linalg.svd(Gk, compute_uv=False),
                                f"G[{k}] is rank deficient", rcond=RANK_TOL)
        except NotPDError as e:
            expect.append(str(e))
    assert [m[:4] for m in expect] == ["G[1]", "G[3]"]
    assert w.validate(prob) == expect


def test_negative_lambda_rejected_at_construction():
    prob = double_integrator_problem(SD_WIDE)
    with pytest.raises(ValueError):
        w.SteeringProblem(prob.system, prob.initial, prob.noise_cov, prob.desired, -1.0)


def test_system_shape_validation():
    I, b, g = np.eye(2), np.zeros((2, 1)), np.eye(2)
    for A, B, G, what in (((I,), (np.zeros((3, 1)),), (I,), "B[0] has shape"),
                          ((I, I), (b,), (g,), "equal length"),
                          ((np.ones((2, 3)),), (b,), (g,), "A[0] has shape"),
                          ((I,), (b,), (np.ones(2),), "G[0] has shape"),
                          ((I, I), (b, np.zeros((2, 2))), (g, g), "B[1] input dimension"),
                          ((I, I), (b, b), (g, np.ones((2, 1))), "G[1] noise dimension")):
        with pytest.raises(DimensionMismatchError, match=re.escape(what)):
            w.TimeVaryingLinearSystem(A, B, G)
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


# the data memo: `assemble` and `validate` keyed on every array but lambda ----


def spy(monkeypatch, name):
    """The problems passed to wsteer.problem's name, a builder behind the memo."""
    calls, real = [], getattr(wp, name)
    monkeypatch.setattr(wp, name, lambda prob: calls.append(prob) or real(prob))
    return calls


def assert_same_operators(ops, want):
    """ops and want hold bit-equal arrays, their cached factors included."""
    for name in ("Gamma", "Hu", "Stilde", "F", "mu0", "mud", "Sd", "FHu",
                 "FGamma_mu0", "sqrt_Sd"):
        assert np.array_equal(getattr(ops, name), getattr(want, name)), name
    for name in ("causal_cholesky", "input_qr"):
        for a, b in zip(getattr(ops, name), getattr(want, name)):
            assert np.array_equal(a, b), name


def test_lambda_sweep_lifts_and_validates_each_system_once(monkeypatch):
    lifts, verdicts = spy(monkeypatch, "_lift"), spy(monkeypatch, "_data_verdicts")
    sweep = [(label, prob, opts) for label, prob, opts in fingerprint.solves()
             if "/N=" not in label]
    assert len(sweep) == 10
    for _, prob, opts in sweep:
        w.solve(prob, opts)
    assert len(lifts) == len(verdicts) == 2
    shared = {}
    for label, prob, _ in sweep:  # what a scan's assemble gets: the solves' lifting
        assert shared.setdefault(label.split("/")[0], w.assemble(prob)) is w.assemble(prob)
    assert len(shared) == len(lifts) == 2


def test_one_changed_entry_is_lifted_again(monkeypatch):
    # a time-varying A_k, S0 and Sd, each changed in one entry, by a new array
    # or in place; the new lifting is a cold build's, and the old one stays
    lifts = spy(monkeypatch, "_lift")
    prob = rand_problem(np.random.default_rng(5), N=4, n_x=2, n_u=1, lam=3.0)
    ops = w.assemble(prob)
    A = [M.copy() for M in prob.system.A]
    A[2][1, 0] += 1e-3
    system = w.TimeVaryingLinearSystem(A, prob.system.B, prob.system.G)
    S0 = prob.initial.cov.copy()
    S0[0, 0] *= 2.0
    Sd = prob.desired.cov.copy()
    Sd[1, 1] += 0.5
    changed = [
        w.SteeringProblem(system, prob.initial, prob.noise_cov, prob.desired, prob.lam),
        w.SteeringProblem(prob.system, w.Gaussian(prob.initial.mean, S0), prob.noise_cov,
                          prob.desired, prob.lam),
        w.SteeringProblem(prob.system, prob.initial, prob.noise_cov,
                          w.Gaussian(prob.desired.mean, Sd), prob.lam),
    ]
    for new, field in zip(changed, ("Stilde", "Stilde", "Sd")):
        got = w.assemble(new)
        assert got is not ops and not np.array_equal(getattr(got, field), getattr(ops, field))
        assert_same_operators(got, wp._lift(new))
    assert len(lifts) == 1 + 2 * len(changed)
    # an in-place edit of the caller's array changes the key
    prob.system.A[1][0, 0] += 1e-3
    edited = w.assemble(prob)
    assert edited is not ops and not np.array_equal(edited.Stilde, ops.Stilde)
    assert_same_operators(edited, wp._lift(prob))
    prob.system.A[1][0, 0] -= 1e-3
    assert w.assemble(prob) is ops


def test_assemble_raises_again_on_every_call(monkeypatch):
    lifts = spy(monkeypatch, "_lift")
    sysm = w.TimeVaryingLinearSystem.time_invariant(np.eye(2), [[0.0], [1.0]], [[1.0], [0.0]], 1)
    prob = w.SteeringProblem(sysm, w.Gaussian([0.0, 0.0], 1e-30 * np.eye(2)), [[1.0]],
                             w.Gaussian([0.0, 0.0], np.eye(2)), 1.0)
    for _ in range(3):
        with pytest.raises(NotPDError):
            w.assemble(prob)
    assert len(lifts) == 3


def test_shared_operators_are_read_only_and_the_callers_arrays_are_not():
    prob = long_horizon_problem(np.random.default_rng(2), N=6)
    ops = w.assemble(prob)
    arrays = [v for v in vars(ops).values() if isinstance(v, np.ndarray)]
    arrays += [*ops.causal_cholesky, *ops.input_qr]
    assert len(arrays) == 10 + 5
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    sysm = prob.system
    for a in (*sysm.A, *sysm.B, *sysm.G, prob.initial.mean, prob.initial.cov,
              prob.noise_cov, prob.desired.mean, prob.desired.cov):
        assert a.flags.writeable


def test_assemble_copies_the_desired_covariance():
    # Gaussian keeps the caller's array; assemble's Sd is its own, so an edit
    # of the caller's matrix after assembly leaves Sd and sqrt_Sd in agreement
    Sd = np.array(SD_WIDE)
    prob = double_integrator_problem(Sd)
    ops = w.assemble(prob)
    prob.desired.cov[0, 0] += 1.0
    assert prob.desired.cov.flags.writeable
    assert_allclose(ops.sqrt_Sd @ ops.sqrt_Sd, ops.Sd, rtol=0, atol=1e-14)
    assert np.array_equal(ops.Sd, SD_WIDE)


def test_memo_evicts_the_least_recently_used_data(monkeypatch):
    lifts, verdicts = spy(monkeypatch, "_lift"), spy(monkeypatch, "_data_verdicts")
    probs = [double_integrator_problem(SD_WIDE, sw_scale=0.01 * (k + 1))
             for k in range(DATA_MEMO + 1)]
    first = [w.assemble(p) for p in probs[:DATA_MEMO]]
    assert w.validate(probs[0]) == []
    assert w.assemble(probs[0]) is first[0]  # now the most recently used
    w.assemble(probs[DATA_MEMO])  # evicts probs[1], the least recently used
    assert w.assemble(probs[0]) is first[0] and len(lifts) == DATA_MEMO + 1
    again = w.assemble(probs[1])
    assert again is not first[1] and len(lifts) == DATA_MEMO + 2
    assert_same_operators(again, first[1])
    for p in probs + probs[:1]:
        assert w.validate(p) == []
    assert len(verdicts) == DATA_MEMO + 2  # probs[0] evicted by the last, then again


def test_validate_checks_lambda_on_every_call_and_returns_a_fresh_list(monkeypatch):
    verdicts = spy(monkeypatch, "_data_verdicts")
    ranksys = w.TimeVaryingLinearSystem.time_invariant(
        np.eye(2), [[0.0], [1.0]], [[1.0, 1.0], [1.0, 1.0]], 2)
    prob = double_integrator_problem(SD_WIDE)
    bad = w.Gaussian([0.0, 0.0], np.zeros((2, 2)))
    lists = [w.validate(w.SteeringProblem(ranksys, bad, prob.noise_cov, prob.desired, lam))
             for lam in (0.0, 1.0, 0.0)]
    assert len(verdicts) == 1
    assert [len(v) for v in lists] == [4, 3, 4]
    assert "initial covariance" in lists[0][0] and lists[0][1] == "lambda must be > 0, got 0.0"
    assert lists[0][2].startswith("G[0]") and lists[0][3].startswith("G[1]")
    assert lists[1] == lists[0][:1] + lists[0][2:] and lists[0] == lists[2]
    lists[0].append("x")
    assert len(lists[2]) == 4 and lists[0] is not lists[2]


def test_benchmark_solves_are_bit_identical_with_a_cold_and_a_warm_memo(monkeypatch):
    lifts = spy(monkeypatch, "_lift")

    def solution_bytes(sol):
        return fingerprint.solve_bytes(sol) + sol.u_ff.tobytes() + sol.K.tobytes()

    cold = []
    for _, prob, opts in fingerprint.solves():
        wp._LIFTINGS.clear()
        cold.append(solution_bytes(w.solve(prob, opts)))
    assert len(cold) == len(lifts) == 14
    wp._LIFTINGS.clear()
    for _, prob, opts in fingerprint.solves():  # 6 systems, each lifted once
        w.solve(prob, opts)
    assert len(lifts) == 14 + 6
    warm = [solution_bytes(w.solve(prob, opts)) for _, prob, opts in fingerprint.solves()]
    assert len(lifts) == 14 + 6 and warm == cold
