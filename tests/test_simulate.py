"""Gain transforms and Monte Carlo rollout validation."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    SD_TIGHT,
    double_integrator_problem,
    rand_causal_theta,
    rand_problem,
)
import wsteer as w
from wsteer import problem as wp
from wsteer import simulate
from wsteer.cli import load_config
from wsteer.errors import DimensionMismatchError, NotPDError, SingularTransformError
from wsteer.objective import Policy, terminal_gaussian
from wsteer.problem import RCOND_DATA
from wsteer.simulate import (
    _closed_loop,
    _closed_loop_states,
    _sample_noise,
    k_to_theta,
    rollout,
    theta_to_k,
)


def setup_random(seed, **kw):
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, **kw)
    ops = w.assemble(prob)
    mask = w.causality_mask(ops.N, ops.n_u, ops.n_x)
    return rng, prob, ops, mask


def test_transforms_zero_maps():
    _, _, ops, mask = setup_random(0)
    Z = np.zeros(mask.theta_shape)
    assert np.all(theta_to_k(Z, ops.Hu) == 0.0)
    assert np.all(k_to_theta(Z, ops.Hu) == 0.0)


def test_transform_roundtrips_random_causal():
    for seed in range(1, 6):
        rng, _, ops, mask = setup_random(seed)
        Theta = rand_causal_theta(rng, mask, scale=0.8)
        K = theta_to_k(Theta, ops.Hu)
        back = k_to_theta(K, ops.Hu)
        assert np.linalg.norm(back - Theta) <= 1e-10 * max(1.0, np.linalg.norm(Theta))
        assert mask.is_causal(K, tol=1e-12)
        # opposite direction
        K2 = mask.project(0.8 * rng.standard_normal(mask.theta_shape))
        Theta2 = k_to_theta(K2, ops.Hu)
        assert mask.is_causal(Theta2, tol=1e-12)
        K2_back = theta_to_k(Theta2, ops.Hu)
        assert np.linalg.norm(K2_back - K2) <= 1e-10 * max(1.0, np.linalg.norm(K2))


def test_transform_resolvent_identity():
    rng, _, ops, mask = setup_random(6)
    Theta = rand_causal_theta(rng, mask, scale=0.7)
    K = theta_to_k(Theta, ops.Hu)
    n = ops.Hu.shape[0]
    lhs = np.linalg.inv(np.eye(n) - ops.Hu @ K)
    rhs = np.eye(n) + ops.Hu @ Theta
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_transform_scalar_hand_case():
    # N=1 scalar system: Hu = [0, b]^T, Theta = [t, 0] -> Theta Hu = 0, K = Theta
    sysm = w.TimeVaryingLinearSystem.time_invariant([[1.0]], [[2.0]], [[1.0]], 1)
    prob = w.SteeringProblem(sysm, w.Gaussian([0.0], [[1.0]]), [[1.0]],
                             w.Gaussian([0.0], [[1.0]]), 1.0)
    ops = w.assemble(prob)
    Theta = np.array([[0.3, 0.0]])
    assert_allclose(theta_to_k(Theta, ops.Hu), Theta)
    assert_allclose(k_to_theta(Theta, ops.Hu), Theta)


def test_k_to_theta_singular_guard():
    # non-causal K with (I - Hu K) exactly singular: K = [k, 1/b]
    sysm = w.TimeVaryingLinearSystem.time_invariant([[1.0]], [[2.0]], [[1.0]], 1)
    prob = w.SteeringProblem(sysm, w.Gaussian([0.0], [[1.0]]), [[1.0]],
                             w.Gaussian([0.0], [[1.0]]), 1.0)
    ops = w.assemble(prob)
    K_bad = np.array([[0.7, 0.5]])
    with pytest.raises(SingularTransformError):
        k_to_theta(K_bad, ops.Hu)


def test_rollout_requires_samples():
    prob = double_integrator_problem(SD_TIGHT)
    pol = Policy(np.zeros(10), np.zeros((10, 22)))
    with pytest.raises(ValueError):
        rollout(prob, pol, 1, 0)


def test_rollout_seeded_determinism():
    prob = double_integrator_problem(SD_TIGHT)
    sol = w.solve(prob)
    pol = Policy(sol.u_ff, sol.Theta)
    r1 = rollout(prob, pol, 4000, 7)
    r2 = rollout(prob, pol, 4000, 7)
    assert np.array_equal(r1.empirical_mean, r2.empirical_mean)
    assert np.array_equal(r1.empirical_cov, r2.empirical_cov)
    r3 = rollout(prob, pol, 4000, 8)
    assert not np.array_equal(r1.empirical_mean, r3.empirical_mean)


def test_rollout_vanishing_noise_mean():
    eps = 1e-12
    sysm = w.TimeVaryingLinearSystem.time_invariant(
        [[1.0, 0.1], [0.0, 1.0]], [[0.0], [0.1]], np.eye(2), 6
    )
    prob = w.SteeringProblem(
        sysm, w.Gaussian([1.0, -2.0], eps * np.eye(2)), eps * np.eye(2),
        w.Gaussian([0.0, 0.0], np.eye(2)), 1.0
    )
    ops = w.assemble(prob)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(6)
    pol = Policy(u, np.zeros((6, 14)))
    rep = rollout(prob, pol, 64, 3)
    expect = ops.Gamma[-2:, :] @ np.array([1.0, -2.0]) + ops.FHu @ u
    assert np.linalg.norm(rep.empirical_mean - expect) <= 1e-5


def test_rollout_moments_within_band():
    prob = double_integrator_problem(SD_TIGHT)
    sol = w.solve(prob)
    rep = rollout(prob, Policy(sol.u_ff, sol.Theta), 20000, 11)
    assert rep.within_band
    # predicted covariance also backs the Monte Carlo estimate at 3 sigma
    assert rep.cov_err <= 3.0 * np.sqrt(2.0 / rep.samples) * np.linalg.norm(rep.predicted.cov)
    assert rep.mean_err <= 3.0 * np.sqrt(np.trace(rep.predicted.cov) / rep.samples)
    assert np.linalg.eigvalsh(rep.empirical_cov)[0] >= 0.0
    assert rep.w2_sq_empirical_vs_desired >= 0.0


def test_closed_loop_matches_lifted_parametrization():
    # deviation feedback in the recursion equals the lifted form
    # x = (I + Hu Theta)(Gamma (x0 - mu0) + Hw w) + Gamma mu0 + Hu u_ff,
    # which reduces to (I + Hu Theta)(Gamma x0 + Hw w) + Hu u_ff when mu0 = 0
    for seed in (12, 13):
        rng, prob, ops, mask = setup_random(seed, N=3)
        Theta = rand_causal_theta(rng, mask, scale=0.6)
        u = rng.standard_normal(ops.N * ops.n_u)
        pol = Policy(u, Theta)
        S = 5
        Z0, Zw = _sample_noise(4, S, ops.n_x, ops.N, ops.n_w)
        X = _closed_loop_states(_closed_loop(prob, pol, ops.Hu), Z0, Zw)
        L0 = np.linalg.cholesky(prob.initial.cov)
        Lw = np.linalg.cholesky(prob.noise_cov)
        Hw = wp.lifted_maps(prob.system)[2]
        IHuT = np.eye(ops.Hu.shape[0]) + ops.Hu @ Theta
        for i in range(S):
            x0 = prob.initial.mean + L0 @ Z0[i]
            wn = (Zw[i] @ Lw.T).reshape(-1)
            lifted = (IHuT @ (ops.Gamma @ (x0 - ops.mu0) + Hw @ wn)
                      + ops.Gamma @ ops.mu0 + ops.Hu @ u)
            assert np.linalg.norm(X[i] - lifted) <= 1e-10 * max(1.0, np.linalg.norm(lifted))


def test_closed_loop_lifted_form_zero_mean():
    rng = np.random.default_rng(14)
    prob0 = rand_problem(rng, N=3, n_x=2, n_u=1)
    prob = w.SteeringProblem(
        prob0.system,
        w.Gaussian(np.zeros(2), prob0.initial.cov),
        prob0.noise_cov, prob0.desired, prob0.lam,
    )
    ops = w.assemble(prob)
    mask = w.causality_mask(3, 1, 2)
    Theta = rand_causal_theta(rng, mask, scale=0.6)
    u = rng.standard_normal(3)
    Z0, Zw = _sample_noise(2, 4, 2, 3, prob.system.n_w)
    X = _closed_loop_states(_closed_loop(prob, Policy(u, Theta), ops.Hu), Z0, Zw)
    L0 = np.linalg.cholesky(prob.initial.cov)
    Lw = np.linalg.cholesky(prob.noise_cov)
    Hw = wp.lifted_maps(prob.system)[2]
    IHuT = np.eye(ops.Hu.shape[0]) + ops.Hu @ Theta
    for i in range(4):
        x0 = L0 @ Z0[i]
        wn = (Zw[i] @ Lw.T).reshape(-1)
        lifted = IHuT @ (ops.Gamma @ x0 + Hw @ wn) + ops.Hu @ u
        assert np.linalg.norm(X[i] - lifted) <= 1e-10 * max(1.0, np.linalg.norm(lifted))


def test_sample_noise_is_chunk_invariant_by_stream():
    # sample i's draws depend only on (seed, i), never on the batch size
    Z0a, Zwa = _sample_noise(5, 8, 2, 3, 2)
    Z0b, Zwb = _sample_noise(5, 3, 2, 3, 2)
    assert np.array_equal(Z0a[:3], Z0b)
    assert np.array_equal(Zwa[:3], Zwb)


def _block_rows(seed, first, count, per):
    # reference for _sample_noise: rows [first, first + count) of the blocks'
    # streams laid end to end, block b drawn whole, BLOCK rows of per normals,
    # from child b of SeedSequence(seed) through SFC64
    blocks = range(first // simulate.BLOCK, (first + count - 1) // simulate.BLOCK + 1)
    children = np.random.SeedSequence(seed).spawn(blocks[-1] + 1)
    rows = np.concatenate([
        np.random.Generator(np.random.SFC64(children[b])).standard_normal((simulate.BLOCK, per))
        for b in blocks])
    lo = first - blocks[0] * simulate.BLOCK
    return rows[lo:lo + count]


def test_sample_noise_counter_addressing():
    # sample i is row i mod BLOCK of block i // BLOCK's stream; per = 3 + 2*2
    # = 7 is odd, and the batch crosses the first block boundary
    seed, n_x, N, n_w, per = 9, 3, 2, 2, 7
    S = simulate.BLOCK + 3
    Z0, Zw = _sample_noise(seed, S, n_x, N, n_w)
    assert Z0.shape == (S, n_x) and Zw.shape == (S, N, n_w)
    ref = _block_rows(seed, 0, S, per)
    assert np.array_equal(Z0, ref[:, :n_x])
    assert np.array_equal(Zw.reshape(S, -1), ref[:, n_x:])
    # a batch's first j samples are the j-sample batch
    for j in (1, 4):
        Z0j, Zwj = _sample_noise(seed, j, n_x, N, n_w)
        assert np.array_equal(Z0[:j], Z0j)
        assert np.array_equal(Zw[:j], Zwj)


@pytest.mark.parametrize("first", [0, 1, 2, 5, 1001, simulate.BLOCK - 1, 2 * simulate.BLOCK + 5])
def test_sample_noise_from_any_first_sample(first):
    # per = 1 + 2*2 = 5 is odd; a range starting inside a block drops that
    # block's earlier rows, and BLOCK - 1 crosses into the next block
    seed, count, n_x, N, n_w, per = 4, 3, 1, 2, 2, 5
    Z0, Zw = _sample_noise(seed, count, n_x, N, n_w, first=first)
    ref = _block_rows(seed, first, count, per)
    assert np.array_equal(Z0, ref[:, :n_x])
    assert np.array_equal(Zw, ref[:, n_x:].reshape(count, N, n_w))


def test_sample_noise_standard_normal_moments():
    # 50000 samples x (3 + 9*2) = 1.05e6 normals; each statistic within 5 sigma
    Z0, Zw = _sample_noise(123, 50000, 3, 9, 2)
    z = np.concatenate([Z0.reshape(-1), Zw.reshape(-1)])
    n = z.size
    assert n >= 10 ** 6
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) <= 5.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)
    p = math.erfc(3.0 / math.sqrt(2.0))
    assert abs(np.mean(np.abs(z) > 3.0) - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    N=st.integers(1, 6),
    n_x=st.integers(1, 3),
    n_u=st.sampled_from([1, 2]),
    extra_w=st.sampled_from([0, 1]),
)
def test_closed_loop_matches_lifted_form_property(seed, N, n_x, n_u, extra_w):
    # time-varying systems, n_u up to 2 and n_w in {n_x, n_x + 1}
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, n_w=n_x + extra_w)
    ops = w.assemble(prob)
    mask = w.causality_mask(N, n_u, n_x)
    Theta = rand_causal_theta(rng, mask, scale=0.6)
    u = rng.standard_normal(N * n_u)
    S = 7
    Z0, Zw = _sample_noise(seed, S, n_x, N, ops.n_w)
    X = _closed_loop_states(_closed_loop(prob, Policy(u, Theta), ops.Hu), Z0, Zw)
    x0 = prob.initial.mean + Z0 @ np.linalg.cholesky(prob.initial.cov).T
    wn = (Zw @ np.linalg.cholesky(prob.noise_cov).T).reshape(S, -1)
    Hw = wp.lifted_maps(prob.system)[2]
    IHuT = np.eye(ops.Hu.shape[0]) + ops.Hu @ Theta
    lifted = ((x0 - ops.mu0) @ ops.Gamma.T + wn @ Hw.T) @ IHuT.T \
        + ops.Gamma @ ops.mu0 + ops.Hu @ u
    assert np.linalg.norm(X - lifted) <= 1e-10 * max(1.0, np.linalg.norm(lifted))


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_rollout_rejects_seed_out_of_range(seed):
    # seeds must lie in [0, 2**64); none may wrap onto another, e.g. -1 onto 2**64 - 1
    prob = double_integrator_problem(SD_TIGHT)
    pol = Policy(np.zeros(10), np.zeros((10, 22)))
    with pytest.raises(ValueError, match="seed"):
        rollout(prob, pol, 16, seed)
    assert rollout(prob, pol, 16, 2 ** 64 - 1).seed == 2 ** 64 - 1


@pytest.mark.parametrize("samples", [100.0, True, "100", None])
def test_rollout_rejects_non_integer_samples(samples):
    prob = double_integrator_problem(SD_TIGHT)
    pol = Policy(np.zeros(10), np.zeros((10, 22)))
    with pytest.raises(ValueError, match="samples"):
        rollout(prob, pol, samples, 0)
    assert rollout(prob, pol, np.int64(16), 0).samples == 16


@pytest.fixture(scope="module")
def tight_policy():
    prob = double_integrator_problem(SD_TIGHT)
    sol = w.solve(prob)
    return prob, Policy(sol.u_ff, sol.Theta)


def _moments(rep):
    return rep.empirical_mean.tobytes() + rep.empirical_cov.tobytes()


# the tight policy at N = 10, whose blocks are one slice each, and at N = 40,
# whose blocks span several slices
WORKER_COUNT_CASES = [(10, s) for s in (2, simulate.BLOCK - 1, simulate.BLOCK,
                                        simulate.BLOCK + 1, 3 * simulate.BLOCK + 7)]
WORKER_COUNT_CASES.append((40, 2 * simulate.BLOCK + 7))


@pytest.mark.parametrize("N, samples", WORKER_COUNT_CASES,
                         ids=[str(s) if N == 10 else f"N{N}-{s}" for N, s in WORKER_COUNT_CASES])
def test_rollout_bitwise_independent_of_worker_count(monkeypatch, tight_policy, N, samples):
    prob, pol = tight_policy if N == 10 else _solved_tight(N)
    per = prob.system.n_x + N * prob.system.n_w
    assert (simulate.SLICE // per < simulate.BLOCK) == (N == 40)
    reps = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulate, "_cpus", lambda: workers)
        reps[workers] = rollout(prob, pol, samples, 5)
    assert _moments(reps[1]) == _moments(reps[2]) == _moments(reps[3])
    # each block is reduced to its deviations' sum and Gram matrix, and the
    # blocks are added in block order: the one-batch moments agree to round-off
    ops = w.assemble(prob)
    Z0, Zw = _sample_noise(5, samples, ops.n_x, ops.N, ops.n_w)
    XN = _closed_loop_states(_closed_loop(prob, pol, ops.Hu), Z0, Zw)[:, -ops.n_x:]
    assert_allclose(reps[1].empirical_mean, XN.mean(axis=0), rtol=1e-13)
    assert_allclose(reps[1].empirical_cov, np.cov(XN.T), rtol=1e-10, atol=1e-14)


def test_rollout_leaves_no_thread_behind(monkeypatch, tight_policy):
    prob, pol = tight_policy
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    ran_on = set()
    stream = simulate._stream

    def recording_stream(*args, **kwargs):
        ran_on.add(threading.get_ident())
        return stream(*args, **kwargs)

    monkeypatch.setattr(simulate, "_stream", recording_stream)
    before = set(threading.enumerate())
    rollout(prob, pol, 3 * simulate.BLOCK + 7, 1)
    assert set(threading.enumerate()) == before
    # the blocks ran on the pool's threads, not on the caller's
    assert ran_on and threading.get_ident() not in ran_on


def test_cpus_without_affinity_mask(monkeypatch):
    # a platform without os.sched_getaffinity falls back on the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert simulate._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._cpus() == 1


def test_concurrent_rollouts_match_sequential(monkeypatch, tight_policy):
    # two callers at once, each with more workers than this host may have
    # cores, and thread switches as often as the interpreter allows
    prob, pol = tight_policy
    args = [(3 * simulate.BLOCK + 7, 2), (2 * simulate.BLOCK + 1, 3)]
    monkeypatch.setattr(simulate, "_cpus", lambda: 1)
    sequential = [_moments(rollout(prob, pol, *a)) for a in args]
    monkeypatch.setattr(simulate, "_cpus", lambda: 8)
    concurrent = [None, None]

    def call(i):
        concurrent[i] = _moments(rollout(prob, pol, *args[i]))

    callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert concurrent == sequential


def test_rollout_never_holds_whole_trajectories(monkeypatch):
    # N = 40, 25k samples: every sample's trajectory would be
    # 25000 * 41 * 2 doubles (16.4 MB); two workers hold two blocks at a time
    N, samples = 40, 25_000
    prob = double_integrator_problem(SD_TIGHT, N=N)
    pol = Policy(np.zeros(N), np.zeros((N, 2 * (N + 1))))
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    rollout(prob, pol, 100, 0)
    tracemalloc.start()
    try:
        rep = rollout(prob, pol, samples, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.within_band
    assert peak < 0.5 * samples * (N + 1) * 2 * 8


def test_rollout_memory_flat_in_samples(monkeypatch, tight_policy):
    # each block is reduced to n_x + n_x^2 numbers inside its worker: 8x the
    # samples adds 56 blocks' slots (2.7 KB), where terminal states and their
    # centered copy would add 2 * 56 * BLOCK * n_x doubles (3.7 MB).  Both
    # workers' buffers are made before the pool starts, so only the blocks'
    # generators come and go with the threads' timing; the peak is the least
    # of three runs at the larger size and the most of three at the smaller
    prob, pol = tight_policy
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    rollout(prob, pol, 100, 0)

    def peak(samples):
        tracemalloc.start()
        try:
            rollout(prob, pol, samples, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = max(peak(8 * simulate.BLOCK) for _ in range(3))
    large = min(peak(64 * simulate.BLOCK) for _ in range(3))
    assert large - small < 64 * 1024


def test_rollout_memory_flat_in_horizon(monkeypatch):
    # a worker holds at most SLICE doubles of noise at any horizon, and the
    # identity's run for M^T, 2 per^2 doubles, is freed before the slices
    # are made.  From N = 20 to 80 what grows is the K-form gain the rollout
    # keeps, N n_u x (N+1) n_x doubles (97 KB more), M^T and xbar (3 KB),
    # while a slice's deviations shrink (18 KB): the peak grows by less than
    # K at N = 80 (104 KB), where whole blocks of noise would add
    # BLOCK * 60 * n_w doubles (1.97 MB)
    monkeypatch.setattr(simulate, "_cpus", lambda: 1)

    def peak(N):
        prob = double_integrator_problem(SD_TIGHT, N=N)
        pol = Policy(np.zeros(N), np.zeros((N, 2 * (N + 1))))
        rollout(prob, pol, 100, 0)
        tracemalloc.start()
        try:
            rollout(prob, pol, 2 * simulate.BLOCK, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(80) - peak(20) < 8 * 80 * (81 * 2)


def test_rollout_cov_invariant_to_shift_of_mean(tight_policy):
    # the blocks' deviations D = Z M^T depend on neither mu0 nor u_ff, so a
    # shift of both moves the mean alone and leaves every bit of the covariance
    prob, pol = tight_policy
    shift = 1e6
    moved = w.SteeringProblem(prob.system, w.Gaussian(prob.initial.mean + shift, prob.initial.cov),
                              prob.noise_cov, prob.desired, prob.lam)
    rep = rollout(prob, pol, 3 * simulate.BLOCK + 7, 4)
    far = rollout(moved, Policy(pol.u_ff + shift, pol.Theta), 3 * simulate.BLOCK + 7, 4)
    assert np.array_equal(far.empirical_cov, rep.empirical_cov)
    err, far_err = rep.empirical_mean - rep.predicted.mean, far.empirical_mean - far.predicted.mean
    # the shifted means, ~2e6, are rounded at their own size
    scale = np.abs(far.predicted.mean).max()
    assert_allclose(far_err, err, rtol=0, atol=64 * np.finfo(float).eps * scale)


def test_import_leaves_thread_pool_unloaded():
    # the rollout's thread pool and noise generators load at call time; an
    # eager numpy.random would add its import to every command's start-up
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import wsteer; "
            "print([m in sys.modules for m in ('concurrent.futures', 'numpy.random')])")
    run = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == "[False, False]"


def test_rollout_reads_the_solves_lifting(monkeypatch):
    # the solve lifts the problem once; the rollout after it lifts nothing,
    # and its prediction is terminal_gaussian of the lifting the solve kept
    lifts, lift = [], wp._lift
    monkeypatch.setattr(wp, "_lift", lambda prob: lifts.append(prob) or lift(prob))
    prob = double_integrator_problem(SD_TIGHT)
    sol = w.solve(prob)
    pol = Policy(sol.u_ff, sol.Theta)
    assert len(lifts) == 1
    rep = rollout(prob, pol, 3000, 2)
    assert len(lifts) == 1 and rep.within_band
    want = terminal_gaussian(w.assemble(prob), pol)
    assert np.array_equal(rep.predicted.mean, want.mean)
    assert np.array_equal(rep.predicted.cov, want.cov)


def _random_time_varying_policy():
    # n_u = 2 and n_w = 3 > n_x = 2, with A_k, B_k, G_k drawn per step
    rng = np.random.default_rng(21)
    prob = rand_problem(rng, N=5, n_x=2, n_u=2, n_w=3)
    mask = w.causality_mask(5, 2, 2)
    return prob, Policy(rng.standard_normal(10), rand_causal_theta(rng, mask, scale=0.6))


def _solved_tight(N):
    prob = double_integrator_problem(SD_TIGHT, N=N)
    sol = w.solve(prob)
    return prob, Policy(sol.u_ff, sol.Theta)


@pytest.mark.parametrize("case", [lambda: _solved_tight(10), lambda: _solved_tight(40),
                                  _random_time_varying_policy],
                         ids=["tight-N10", "tight-N40", "time-varying"])
def test_rollout_prediction_matches_dense_terminal_gaussian(case):
    # the prediction is the dense formula Omega Stilde Omega^T, bit for bit
    prob, pol = case()
    oracle = terminal_gaussian(w.assemble(prob), pol)
    predicted = rollout(prob, pol, 2, 0).predicted
    assert np.array_equal(predicted.mean, oracle.mean)
    assert np.array_equal(predicted.cov, oracle.cov)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _solved_config(name):
    prob, _ = load_config(os.path.join(CONFIGS, f"double_integrator_{name}.json"))
    sol = w.solve(prob)
    return prob, Policy(sol.u_ff, sol.Theta)


SUPERPOSITION_CASES = pytest.mark.parametrize(
    "case", [_random_time_varying_policy, lambda: _solved_config("tight"),
             lambda: _solved_config("wide")],
    ids=["time-varying", "config-tight", "config-wide"])


def _lifted_terminal_map(prob, pol):
    # C = Omega R, C C^T the terminal covariance, from the dense lifted maps:
    # R = [Gamma L0, Hw (I_N kron Lw)], R R^T = Stilde, Omega = F + FHu Theta
    ops = w.assemble(prob)
    L0 = np.linalg.cholesky(prob.initial.cov)
    Lw = np.linalg.cholesky(prob.noise_cov)
    R = np.hstack([ops.Gamma @ L0, wp.lifted_maps(prob.system)[2] @ np.kron(np.eye(ops.N), Lw)])
    Om = ops.FHu @ pol.Theta
    Om[:, ops.N * ops.n_x:] += np.eye(ops.n_x)
    return Om @ R


@SUPERPOSITION_CASES
def test_rollout_terminal_map_matches_lifted_map(monkeypatch, case):
    # the rollout runs the step recursion once, on the identity, and its
    # terminal rows are M^T, the transpose of the lifted C = Omega R
    prob, pol = case()
    N, n_x = prob.system.horizon, prob.system.n_x
    calls = []

    def recording_states(loop, Z0, Zw):
        X = _closed_loop_states(loop, Z0, Zw)
        calls.append((loop, Z0, Zw, X))
        return X

    monkeypatch.setattr(simulate, "_closed_loop_states", recording_states)
    rollout(prob, pol, 2 * simulate.BLOCK + 3, 0)
    [(loop, Z0, Zw, X)] = calls
    per = n_x + N * prob.system.n_w
    assert np.array_equal(np.hstack([Z0, Zw.reshape(per, -1)]), np.eye(per))
    assert not loop.xbar.any()
    C = _lifted_terminal_map(prob, pol)
    assert np.linalg.norm(X[:, N * n_x:] - C.T) <= 1e-12 * np.linalg.norm(C)


@SUPERPOSITION_CASES
def test_rollout_matches_per_sample_recursion(case):
    # two whole blocks and a partial one, against the step recursion run on
    # every sample's draws
    prob, pol = case()
    sysm = prob.system
    N, n_x, samples, seed = sysm.horizon, sysm.n_x, 2 * simulate.BLOCK + 123, 3
    rep = rollout(prob, pol, samples, seed)
    Z0, Zw = _sample_noise(seed, samples, n_x, N, sysm.n_w)
    XN = _closed_loop_states(_closed_loop(prob, pol, w.assemble(prob).Hu), Z0, Zw)[:, N * n_x:]
    mean = XN.mean(axis=0)
    cov = np.cov(XN.T)
    assert np.linalg.norm(rep.empirical_mean - mean) <= 1e-12 * np.linalg.norm(mean)
    assert np.linalg.norm(rep.empirical_cov - cov) <= 1e-12 * np.linalg.norm(cov)


def _scalar_problem(sw):
    # A = 0 and N = 1 make Stilde = diag(S0, G Sw G^T) = diag(1, sw)
    sysm = w.TimeVaryingLinearSystem.time_invariant([[0.0]], [[1.0]], [[1.0]], 1)
    return w.SteeringProblem(sysm, w.Gaussian([0.0], [[1.0]]), [[sw]],
                             w.Gaussian([0.0], [[1.0]]), 1.0)


def _starved_problem(S0):
    # n_w = 1 < n_x = 2 starves the noise span, so Stilde is singular
    sysm = w.TimeVaryingLinearSystem.time_invariant(np.eye(2), [[0.0], [1.0]], [[1.0], [0.0]], 1)
    return w.SteeringProblem(sysm, w.Gaussian([0.0, 0.0], S0), [[1.0]],
                             w.Gaussian([0.0, 0.0], np.eye(2)), 1.0)


def test_rollout_keeps_assemble_stilde_threshold():
    pol = Policy(np.zeros(1), np.zeros((1, 2)))
    assert rollout(_scalar_problem(RCOND_DATA * (1 + 1e-6)), pol, 16, 0).within_band
    # a PD Stilde = diag(1, ~1e-12): rollout names its condition number as assemble does
    prob = _scalar_problem(RCOND_DATA * (1 - 1e-6))
    with pytest.raises(NotPDError) as assembled:
        w.assemble(prob)
    with pytest.raises(NotPDError) as rolled:
        rollout(prob, pol, 16, 0)
    assert str(rolled.value) == str(assembled.value)


@pytest.mark.parametrize("prob", [_starved_problem(1e-30 * np.eye(2)),
                                  _starved_problem(np.zeros((2, 2))), _scalar_problem(-1.0)],
                         ids=["singular-stilde", "S0-zero", "Sw-negative"])
def test_rollout_rejects_what_assemble_rejects(prob):
    with pytest.raises(NotPDError) as assembled:
        w.assemble(prob)
    n_x, N = prob.system.n_x, prob.system.horizon
    pol = Policy(np.zeros(N * prob.system.n_u), np.zeros((N * prob.system.n_u, (N + 1) * n_x)))
    with pytest.raises(NotPDError, match="Stilde is not PD") as rolled:
        rollout(prob, pol, 16, 0)
    # an S0 or Sw with no Cholesky factor, or a singular Stilde, stops rollout
    # in assemble, with its text
    assert str(rolled.value) == str(assembled.value)


def test_rollout_names_a_noise_covariance_without_cholesky_factor():
    # Sw = diag(1, 0) has no Cholesky factor, but G = [1, 1] makes
    # G Sw G^T = 1 and Stilde = I PD, so assemble passes
    sysm = w.TimeVaryingLinearSystem.time_invariant([[0.0]], [[1.0]], [[1.0, 1.0]], 1)
    prob = w.SteeringProblem(sysm, w.Gaussian([0.0], [[1.0]]), np.diag([1.0, 0.0]),
                             w.Gaussian([0.0], [[1.0]]), 1.0)
    w.assemble(prob)
    with pytest.raises(NotPDError, match="Sw has no Cholesky factor") as rolled:
        rollout(prob, Policy(np.zeros(1), np.zeros((1, 2))), 16, 0)
    # Stilde is PD, so the message names only the covariance
    assert "Stilde is not PD" not in str(rolled.value)


def test_rollout_rejects_non_causal_policy_before_drawing(monkeypatch, tight_policy):
    # the step recursion reads only the causal blocks of K, the prediction
    # all of Theta: a non-causal Theta would be judged against a terminal
    # law it does not simulate
    prob, pol = tight_policy
    Theta = pol.Theta.copy()
    Theta[0, 3] = 0.5  # u_0 reads x_1

    def drawn(*args, **kwargs):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(simulate, "_stream", drawn)
    with pytest.raises(ValueError, match="^policy violates the causality pattern$"):
        rollout(prob, Policy(pol.u_ff, Theta), 20_000, 1)


@pytest.mark.parametrize("field, pol", [
    ("u_ff", Policy(np.zeros(9), np.zeros((10, 22)))),
    ("Theta", Policy(np.zeros(10), np.zeros((10, 20)))),
    ("Theta", Policy(np.zeros(10), np.zeros((11, 22)))),
])
def test_rollout_rejects_policy_of_wrong_shape(field, pol):
    prob = double_integrator_problem(SD_TIGHT)
    with pytest.raises(DimensionMismatchError, match=f"policy {field} has dimensions"):
        rollout(prob, pol, 16, 0)
