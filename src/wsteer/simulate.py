"""Policy-gain transforms and seeded Monte Carlo closed-loop rollouts.

The feedback gain has two equivalent parameterizations related by
Theta = K (I - Hu K)^(-1) and K = (I + Theta Hu)^(-1) Theta; for causal
(block-lower-triangular) gains both inverses exist because the products
Theta Hu and Hu K are strictly block lower triangular.

Rollouts simulate the step dynamics with the K-form feedback acting on state
deviations from the analytically propagated mean trajectory.  That is linear
in a sample's per = n_x + N*n_w normals z, so its terminal state is xbar_N +
M z: a rollout runs the recursion once, on the per x per identity, for M.
Blocks of BLOCK samples run on a thread pool, one worker per CPU, each
worker taking the next block until none is left; block b draws its noise Z
from a stream of its own, child b of the seed's SeedSequence (see
_sample_noise).  A worker reads the stream in order, in slices of at most
SLICE doubles, so a block draws exactly the numbers one whole draw would;
each slice's deviations D = Z M^T from xbar_N are added to the block's sum
and Gram matrix D^T D, in slots of its own.  The slots are added in block
order, so the result is bitwise reproducible given (seed, samples) whatever
the CPU count, and sample i's draws depend only on (seed, i).  The slices
and their deviations go into buffers made once per worker, so memory is
about per*(per + (N+1)*n_x) doubles while M is found, and then
workers*(SLICE + rows*n_x) + blocks*(n_x + n_x^2), with rows =
min(BLOCK, max(1, SLICE // per)) samples to a slice: the noise grows with
neither N nor the samples.

The predicted terminal Gaussian that a rollout is judged against is
`objective.terminal_gaussian` of `assemble`'s lifting, the one the solve of
the policy checked and kept, so Stilde has one check and one message.
"""

import operator
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NotPDError, SingularTransformError
from .matops import require_conditioned
from .objective import terminal_gaussian, wasserstein_sq_gaussian
from .problem import Gaussian, assemble, causality_mask

# samples per rollout block, and per noise stream: sample i is row i % BLOCK
# of block i // BLOCK's stream, so changing BLOCK changes every rollout
# number for a given seed.  On a 2-core x86_64 host blocks of 1024, 2048 and
# 4096 ran the benchmark's N = 10 and N = 40 rollouts equally fast within
# noise; a worker holds one SLICE of noise whatever BLOCK is
BLOCK = 2048
# doubles of noise a rollout worker holds at a time (512 KB), a whole number
# of samples to a slice and at least one.  It changes no sample's draws, only
# the order in which a block's deviations are summed.  It keeps N = 10
# blocks (22 normals a sample) whole and splits N = 40 blocks (82) in three;
# on a 2-core x86_64 host slices of 256 samples, eight to an N = 10 block,
# ran the benchmark's rollouts about 10 % slower
SLICE = 2 ** 16


def theta_to_k(Theta, Hu):
    """K = (I + Theta Hu)^(-1) Theta; preserves the causal block pattern."""
    Theta = np.asarray(Theta, dtype=float)
    M = np.eye(Theta.shape[0]) + Theta @ Hu
    return np.linalg.solve(M, Theta)


def k_to_theta(K, Hu):
    """Theta = K (I - Hu K)^(-1).

    Raises SingularTransformError when I - Hu K is numerically singular,
    which cannot happen for causal K.
    """
    K = np.asarray(K, dtype=float)
    M = np.eye(Hu.shape[0]) - Hu @ K
    require_conditioned(np.linalg.svd(M, compute_uv=False),
                        "I - Hu K is singular (non-causal K?)", SingularTransformError)
    return np.linalg.solve(M.T, K.T).T


@dataclass(frozen=True)
class RolloutReport:
    samples: int
    seed: int
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    predicted: Gaussian
    w2_sq_empirical_vs_desired: float
    mean_err: float
    cov_err: float
    mean_band: float
    cov_band: float

    @property
    def within_band(self):
        return self.mean_err <= self.mean_band and self.cov_err <= self.cov_band


def _stream(seed, b):
    """Block b's normals: NumPy's Generator on SFC64 seeded by
    SeedSequence(seed, spawn_key=(b,)), child b of SeedSequence(seed)."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


def _sample_noise(seed, n_samples, n_x, N, n_w, first=0):
    """Standard-normal draws of samples [first, first + n_samples), one
    stream per block of BLOCK samples.

    Returns (Z0, Zw) with shapes (n_samples, n_x) and (n_samples, N, n_w).
    Each sample needs per = n_x + N*n_w normals.  Block b, the samples
    [b*BLOCK, (b+1)*BLOCK), draws its normals row-major, per to a sample,
    with NumPy's ziggurat `Generator.standard_normal` on SFC64 seeded by
    SeedSequence(seed, spawn_key=(b,)), child b of SeedSequence(seed).  Row i
    of a block is the sample's (Z0[i], Zw[i].ravel()), so sample i's values
    depend only on (seed, i), never on the batch size; BLOCK is part of the
    stream's definition.  A range that starts inside a block draws that
    block's earlier rows and drops them.
    """
    per = n_x + N * n_w
    Z = np.empty((n_samples, per))
    row = 0
    while row < n_samples:
        b, skip = divmod(first + row, BLOCK)
        gen = _stream(seed, b)
        if skip:
            gen.standard_normal(skip * per)
        count = min(BLOCK - skip, n_samples - row)
        gen.standard_normal(out=Z[row:row + count])
        row += count
    return Z[:, :n_x], Z[:, n_x:].reshape(n_samples, N, n_w)


class _ClosedLoop(NamedTuple):
    """What every block of a rollout shares: the step matrices A_k and B_k,
    the noise inputs G_k Lw, the K-form gain, the mean trajectory xbar
    driven by the feedforward alone, and the Cholesky factors L0 and Lw of
    the initial and noise covariances."""

    A: tuple
    B: tuple
    GLw: tuple
    K: np.ndarray
    xbar: np.ndarray
    L0: np.ndarray
    Lw: np.ndarray


def _cholesky(S, name):
    """chol(S) of a problem covariance S; raises NotPDError naming S when S
    has no Cholesky factor."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NotPDError(f"{name} has no Cholesky factor") from None


def _closed_loop(problem, policy, Hu):
    """The _ClosedLoop of policy on problem; Hu is the lifted input map."""
    sysm = problem.system
    N, n_x, n_u = sysm.horizon, sysm.n_x, sysm.n_u
    xbar = np.empty((N + 1, n_x))
    xbar[0] = problem.initial.mean
    for k in range(N):
        uk = policy.u_ff[k * n_u:(k + 1) * n_u]
        xbar[k + 1] = sysm.A[k] @ xbar[k] + sysm.B[k] @ uk
    L0 = _cholesky(problem.initial.cov, "S0")
    Lw = _cholesky(problem.noise_cov, "Sw")
    return _ClosedLoop(A=sysm.A, B=sysm.B, GLw=tuple(G @ Lw for G in sysm.G),
                       K=theta_to_k(policy.Theta, Hu), xbar=xbar, L0=L0, Lw=Lw)


def _closed_loop_states(loop, Z0, Zw):
    """Forward-simulate the inputs (Z0, Zw); returns the stacked states
    (S, (N+1)*n_x), a transposed view of state-major storage.  rollout runs
    it once, on the identity with xbar zeroed, for the terminal map M.

    The K-form feedback acts on deviations from the mean trajectory xbar.
    The deviations D are kept state-major, shape ((N+1)*n_x, S), so each
    step's feedback reads one contiguous row prefix of D.
    """
    N, n_x, n_u = len(loop.A), loop.L0.shape[0], loop.B[0].shape[1]
    S = Z0.shape[0]

    D = np.empty(((N + 1) * n_x, S))
    D[:n_x] = loop.L0 @ Z0.T
    for k in range(N):
        dU = loop.K[k * n_u:(k + 1) * n_u, :(k + 1) * n_x] @ D[:(k + 1) * n_x]
        Dk = D[(k + 1) * n_x:(k + 2) * n_x]
        np.matmul(loop.A[k], D[k * n_x:(k + 1) * n_x], out=Dk)
        Dk += loop.B[k] @ dU
        Dk += loop.GLw[k] @ Zw[:, k, :].T
    D += loop.xbar.reshape(-1, 1)
    return D.T


def _cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _integer(name, value):
    """value as an int; raises ValueError naming it for a bool or a non-integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def rollout(problem, policy, samples, seed):
    """Monte Carlo closed-loop rollout; deterministic given (samples, seed).

    Sample i's terminal state is xbar_N + z_i M^T, z_i its per = n_x +
    N*n_w standard normals (see _sample_noise).  M^T, per x n_x, is the
    terminal rows of the step recursion run once on the identity with xbar
    zeroed, from A_k, B_k, G_k Lw, L0 and K = theta_to_k(Theta, Hu), not
    from Stilde, which the prediction uses, so the rollout still checks the
    step simulation against the lifted prediction.  The moments come
    from the deviations d_i = z_i M^T alone: with dbar their mean, the
    empirical mean is xbar_N + dbar and the covariance
    (sum_i d_i^T d_i - samples dbar^T dbar) / (samples - 1), so neither
    depends on the size of xbar_N.

    Returns a RolloutReport comparing the empirical terminal moments with the
    analytic prediction; the 5-sigma sampling bands are
    5*sqrt(trace(cov)/samples) for the mean and 5*sqrt(2/samples)*||cov||_F
    for the covariance.  Raises DimensionMismatchError when u_ff or Theta has
    the wrong shape, ValueError when Theta is not causal, and NotPDError
    when `assemble` rejects the problem or S0 or Sw has no Cholesky factor,
    before any sample is drawn.
    """
    samples = _integer("rollout samples", samples)
    if samples < 2:
        raise ValueError("rollout needs samples >= 2")
    seed = _integer("rollout seed", seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"rollout seed must be in [0, 2**64), got {seed}")
    sysm = problem.system
    N, n_x, n_u, n_w = sysm.horizon, sysm.n_x, sysm.n_u, sysm.n_w
    for name, shape, want in (("u_ff", policy.u_ff.shape, (N * n_u,)),
                              ("Theta", policy.Theta.shape, (N * n_u, (N + 1) * n_x))):
        if shape != want:
            raise DimensionMismatchError(
                f"policy {name} has dimensions {shape}, the problem needs {want}")
    if not causality_mask(N, n_u, n_x).is_causal(policy.Theta):
        raise ValueError("policy violates the causality pattern")

    ops = assemble(problem)
    loop = _closed_loop(problem, policy, ops.Hu)
    predicted = terminal_gaussian(ops, policy)
    per = n_x + N * n_w
    # M^T is copied out, so the identity and its trajectories, 2 per^2
    # doubles, are freed before the workers' buffers are made
    eye = np.eye(per)
    MT = _closed_loop_states(loop._replace(xbar=np.zeros_like(loop.xbar)), eye[:, :n_x],
                             eye[:, n_x:].reshape(per, N, n_w))[:, N * n_x:].copy()
    del eye
    blocks = -(-samples // BLOCK)
    sums = np.zeros((blocks, n_x))
    grams = np.zeros((blocks, n_x, n_x))
    lock = threading.Lock()
    pending = iter(range(blocks))
    rows = min(BLOCK, max(1, SLICE // per))
    workers = min(_cpus(), blocks)
    # each worker's slice of noise Z, its deviations D, and a slice's sum
    # and Gram matrix
    buffers = [(np.empty((rows, per)), np.empty((rows, n_x)), np.empty(n_x),
                np.empty((n_x, n_x))) for _ in range(workers)]

    def reduce_block(b, Z, D, s, G):
        # block b's stream, read in order a slice at a time: each slice's
        # deviations D = Z M^T are added to the block's sum and Gram matrix
        gen = _stream(seed, b)
        left = min(BLOCK, samples - b * BLOCK)
        while left:
            count = min(rows, left)
            z, d = Z[:count], D[:count]
            gen.standard_normal(out=z)
            np.matmul(z, MT, out=d)
            sums[b] += d.sum(axis=0, out=s)
            grams[b] += np.matmul(d.T, d, out=G)
            left -= count

    def work(buffer):
        # one task per worker: take the next block until none is left
        while True:
            with lock:
                b = next(pending, None)
            if b is None:
                return
            reduce_block(b, *buffer)

    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        for done in [pool.submit(work, buffer) for buffer in buffers]:
            done.result()

    # the blocks' slots are added in block order, whatever worker filled
    # them; D has mean zero in expectation, so the Gram sum cancels no large mean
    dbar = sums.sum(axis=0) / samples
    mean = loop.xbar[N] + dbar
    cov = (grams.sum(axis=0) - samples * np.outer(dbar, dbar)) / (samples - 1)
    cov = 0.5 * (cov + cov.T)

    mean_err = float(np.linalg.norm(mean - predicted.mean))
    cov_err = float(np.linalg.norm(cov - predicted.cov))
    mean_band = 5.0 * float(np.sqrt(np.trace(predicted.cov) / samples))
    cov_band = 5.0 * float(np.sqrt(2.0 / samples)) * float(np.linalg.norm(predicted.cov))

    w2 = wasserstein_sq_gaussian(Gaussian(mean=mean, cov=cov), problem.desired)

    return RolloutReport(
        samples=samples, seed=seed,
        empirical_mean=mean, empirical_cov=cov, predicted=predicted,
        w2_sq_empirical_vs_desired=w2,
        mean_err=mean_err, cov_err=cov_err,
        mean_band=mean_band, cov_band=cov_band,
    )
