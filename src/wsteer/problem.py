"""Problem data model, validation, and assembly of the lifted block operators.

The horizon-N system x_{k+1} = A_k x_k + B_k u_k + G_k w_k is lifted to
x = Gamma x0 + Hu u + Hw w over the stacked state/input/noise vectors, and the
total state covariance factor Stilde = Gamma S0 Gamma^T + Hw (I_N kron Sw) Hw^T is
assembled and checked once (`_lift`) and shared immutably by the objective,
the solver and the rollout.  None of it depends on lam, so `assemble` keeps
the lifting of the last DATA_MEMO problem data it saw, and `validate` their
verdicts, keyed by content: a lambda sweep lifts and checks each system once,
and a rollout of a solved policy reads the lifting its solve kept.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOrderError,
    NonFiniteError,
    NotPDError,
    NotSymmetricError,
)
from .matops import check_symmetric, ill_conditioned, require_conditioned, symmetrize

# Relative singular-value threshold for the G_k full-rank requirement.
RANK_TOL = 1e-10
# Reciprocal-condition threshold for the covariance data S0, Sw, Sd and Stilde.
RCOND_DATA = 1e-12
# Distinct problem data whose lifting `assemble` keeps, and whose verdicts
# `validate` keeps: a sweep over a few systems at many lambdas builds each once.
# A kept lifting holds about 18 MB after a solve at N = 200, n_x = 4, n_u = 2
# (Stilde, Hu and the Cholesky factor of Stilde with its inverse), so 8 hold
# about 145 MB.
DATA_MEMO = 8


def _read_only(*arrays):
    """arrays, each made read-only; for arrays this module built, never a caller's."""
    for M in arrays:
        M.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class TimeVaryingLinearSystem:
    """Per-step matrices of a discrete-time linear system over a fixed horizon.

    A, B, G are tuples of length N holding the step-k matrices; shapes are
    (n_x, n_x), (n_x, n_u) and (n_x, n_w) respectively, with n_x, n_u and n_w
    at least 1.
    """

    A: tuple
    B: tuple
    G: tuple

    def __post_init__(self):
        A = tuple(np.asarray(M, dtype=float) for M in self.A)
        B = tuple(np.asarray(M, dtype=float) for M in self.B)
        G = tuple(np.asarray(M, dtype=float) for M in self.G)
        if not (len(A) == len(B) == len(G)) or len(A) < 1:
            raise DimensionMismatchError(
                "A, B, G must be nonempty sequences of equal length"
            )
        n_x = A[0].shape[0]
        for k, (Ak, Bk, Gk) in enumerate(zip(A, B, G)):
            if Ak.shape != (n_x, n_x):
                raise DimensionMismatchError(f"A[{k}] has shape {Ak.shape}, want ({n_x},{n_x})")
            if Bk.ndim != 2 or Bk.shape[0] != n_x:
                raise DimensionMismatchError(f"B[{k}] has shape {Bk.shape}, want ({n_x},n_u)")
            if Gk.ndim != 2 or Gk.shape[0] != n_x:
                raise DimensionMismatchError(f"G[{k}] has shape {Gk.shape}, want ({n_x},n_w)")
            if Bk.shape[1] != B[0].shape[1]:
                raise DimensionMismatchError(f"B[{k}] input dimension differs from B[0]")
            if Gk.shape[1] != G[0].shape[1]:
                raise DimensionMismatchError(f"G[{k}] noise dimension differs from G[0]")
        if min(n_x, B[0].shape[1], G[0].shape[1]) < 1:
            raise DimensionMismatchError(
                f"(n_x, n_u, n_w) = {(n_x, B[0].shape[1], G[0].shape[1])}, each must be >= 1")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "G", G)

    @classmethod
    def time_invariant(cls, A, B, G, horizon):
        """Broadcast single A, B, G matrices over the given horizon."""
        if horizon < 1:
            raise DimensionMismatchError("horizon must be >= 1")
        return cls((A,) * horizon, (B,) * horizon, (G,) * horizon)

    @property
    def horizon(self):
        return len(self.A)

    @property
    def n_x(self):
        return self.A[0].shape[0]

    @property
    def n_u(self):
        return self.B[0].shape[1]

    @property
    def n_w(self):
        return self.G[0].shape[1]


@dataclass(frozen=True)
class Gaussian:
    """Mean vector and covariance matrix of a normal distribution.

    Covariance is only required PSD here; strict definiteness is enforced by
    `validate` where the problem formulation demands it (empirical estimates
    may be singular).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatchError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self):
        return self.mean.size


@dataclass(frozen=True)
class SteeringProblem:
    """Covariance steering instance: system, initial/noise/desired data, weight.

    lam is the weight on the squared Wasserstein terminal cost.  It must be
    nonnegative; lam = 0 degenerates to the pure minimum-energy problem and is
    kept representable so diagnostic paths can exercise it, while `validate`
    flags it for the full steering formulation.  Construction rejects data of
    the wrong dimension or with an inf or NaN entry.
    """

    system: TimeVaryingLinearSystem
    initial: Gaussian
    noise_cov: np.ndarray
    desired: Gaussian
    lam: float

    def __post_init__(self):
        sysm = self.system
        noise = np.asarray(self.noise_cov, dtype=float)
        dims = (self.initial.dim, self.desired.dim, noise.shape)
        want = (sysm.n_x, sysm.n_x, (sysm.n_w, sysm.n_w))
        if dims != want:
            raise DimensionMismatchError(
                f"(initial dim, desired dim, noise covariance shape) = {dims}, want {want}")
        data = {"A": sysm.A, "B": sysm.B, "G": sysm.G,
                "mu0": (self.initial.mean,), "S0": (self.initial.cov,), "Sw": (noise,),
                "mud": (self.desired.mean,), "Sd": (self.desired.cov,)}
        for name, mats in data.items():
            if not all(np.isfinite(M).all() for M in mats):
                raise NonFiniteError(f"{name} holds an inf or NaN entry")
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError(f"lambda must be a finite nonnegative real, got {self.lam}")
        object.__setattr__(self, "noise_cov", noise)
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class BlockOperators:
    """Lifted operators of a steering problem plus caches reused downstream.

    Gamma maps x0 to the stacked state, Hu the stacked inputs, F selects the
    terminal state, and Stilde = Gamma S0 Gamma^T + Hw (I_N kron Sw) Hw^T is
    the (always PD) covariance factor of the uncontrolled stacked state; the
    noise map Hw (`lifted_maps`) is not kept once Stilde is formed.
    `assemble` shares one instance between equal problem data, so its
    arrays, and those of its cached factors, are read-only.
    """

    N: int
    n_x: int
    n_u: int
    n_w: int
    Gamma: np.ndarray
    Hu: np.ndarray
    Stilde: np.ndarray
    F: np.ndarray
    # problem data carried along for objective/solver formulas
    mu0: np.ndarray
    mud: np.ndarray
    Sd: np.ndarray
    # caches
    FHu: np.ndarray = field(repr=False, default=None)
    FGamma_mu0: np.ndarray = field(repr=False, default=None)
    sqrt_Sd: np.ndarray = field(repr=False, default=None)

    @cached_property
    def causal_cholesky(self):
        """(L, L^-1), L = chol(Stilde[:N n_x, :N n_x]): the leading block of
        Stilde that the free entries of Theta see, factored once.  `assemble`
        has checked Stilde at rcond RCOND_DATA, so L has a positive diagonal
        and its inverse exists; tril keeps L^-1 exactly lower triangular, which
        the curvature's dual whitening relies on."""
        qq = self.N * self.n_x
        L = np.linalg.cholesky(self.Stilde[:qq, :qq])
        return _read_only(L, np.tril(np.linalg.inv(L)))

    @cached_property
    def input_grams(self):
        """Q, stacked over t < N: Q_t = sum_(i >= t) F_i F_i^T over the input
        blocks F_i of FHu; `input_qr` holds its square-root factor."""
        N, n_x, n_u = self.N, self.n_x, self.n_u
        F = self.FHu.reshape(n_x, N, n_u).transpose(1, 0, 2)
        Q = np.cumsum((F @ F.transpose(0, 2, 1))[::-1], axis=0)[::-1]
        Q.flags.writeable = False
        return Q

    @cached_property
    def input_qr(self):
        """(C, true), stacked over t < N: C_t = R_t^T / sqrt(2), R_t from the
        QR of [F_t, ..., F_(N-1)]^T padded with zero rows to n_x, so that
        C_t C_t^T = Q_t / 2 without squaring the condition of the F_i; true[t, j]
        is False on the zero columns of C_t, those past n_u (N - t)."""
        N, n_x, m = self.N, self.n_x, max(self.N * self.n_u, self.n_x)
        G = np.vstack([self.FHu.T, np.zeros((m, n_x))])[self.n_u * np.arange(N)[:, None]
                                                         + np.arange(m)]
        C = np.linalg.qr(G, mode="r").transpose(0, 2, 1) / np.sqrt(2.0)
        true = np.arange(n_x) < np.minimum(self.n_u * (N - np.arange(N)), n_x)[:, None]
        return _read_only(C, true)


@dataclass(frozen=True)
class CausalityMask:
    """Index bookkeeping for the block-lower-triangular feedback pattern.

    free_entries indexes vec(Theta) (column stacking) at the entries of the
    blocks theta_{i,j} with j <= i, ordered block row-major over (i, j) and
    column-major within each block.  The complement gathers every entry that
    the causality constraints force to zero, including the final block column.
    `causality_mask` builds one per shape, its arrays read-only.
    """

    N: int
    n_u: int
    n_x: int
    free_entries: np.ndarray
    complement: np.ndarray

    @property
    def theta_shape(self):
        return (self.N * self.n_u, (self.N + 1) * self.n_x)

    @cached_property
    def layout(self):
        """(rows, cols, pattern), read-only: each free entry's row and column
        of Theta, and the causal pattern of Theta's first N n_x columns."""
        p, qq = self.N * self.n_u, self.N * self.n_x
        cols, rows = np.divmod(self.free_entries, p)
        pattern = np.arange(qq) // self.n_x <= (np.arange(p) // self.n_u)[:, None]
        rows.flags.writeable = cols.flags.writeable = pattern.flags.writeable = False
        return rows, cols, pattern

    def gather(self, M, name="Theta"):
        """The free entries of vec(M), column-stacked, in free_entries order;
        a DimensionMismatchError names M as name."""
        M = np.asarray(M, dtype=float)
        if M.shape != self.theta_shape:
            raise DimensionMismatchError(f"{name} shape {M.shape} != {self.theta_shape}")
        return M.reshape(-1, order="F")[self.free_entries]

    def scatter(self, v):
        """The causal Theta whose free entries, in gather's order, are v."""
        flat = np.zeros(self.theta_shape[0] * self.theta_shape[1])
        flat[self.free_entries] = v
        return flat.reshape(self.theta_shape, order="F")

    def project(self, Theta, name="Theta"):
        """Zero out the constrained (complement) entries of Theta, named name
        in a DimensionMismatchError."""
        return self.scatter(self.gather(Theta, name))

    def is_causal(self, Theta, tol=0.0):
        Theta = np.asarray(Theta, dtype=float)
        if Theta.shape != self.theta_shape:
            return False
        flat = Theta.reshape(-1, order="F")
        return bool(np.all(np.abs(flat[self.complement]) <= tol))


def state_transition(system, k, n):
    """Product A_{k-1} ... A_n, with the empty product (k == n) the identity."""
    if k < n:
        raise IndexOrderError(f"state_transition needs k >= n, got k={k}, n={n}")
    if n < 0 or k > system.horizon:
        raise IndexOrderError(
            f"indices out of range: 0 <= n <= k <= N={system.horizon}"
        )
    Phi = np.eye(system.n_x)
    for j in range(n, k):
        Phi = system.A[j] @ Phi
    return Phi


@lru_cache(maxsize=16)
def causality_mask(N, n_u, n_x):
    """The free/constrained index split of vec(Theta), built once per shape
    (the same object for equal shapes, its arrays read-only).

    Free blocks are theta_{i,j} with 0 <= j <= i <= N-1, giving
    n_u*n_x*N*(N+1)/2 free scalars; ordering is block row-major over (i, j)
    with column-major entries inside each block.
    """
    rows = N * n_u
    i, j = np.tril_indices(N)  # the blocks, row-major
    c, r = np.divmod(np.arange(n_x * n_u), n_u)  # the entries of a block, column-major
    free = ((j[:, None] * n_x + c) * rows + i[:, None] * n_u + r).ravel()
    total = rows * (N + 1) * n_x
    comp_mask = np.ones(total, dtype=bool)
    comp_mask[free] = False
    complement = np.nonzero(comp_mask)[0]
    free.flags.writeable = complement.flags.writeable = False
    return CausalityMask(N=N, n_u=n_u, n_x=n_x, free_entries=free, complement=complement)


def lifted_maps(system):
    """(Gamma, Hu, Hw) of the lifted system x = Gamma x0 + Hu u + Hw w, where
    x stacks x_0 ... x_N and u, w stack the N inputs and noises."""
    N, n_x, n_u, n_w = system.horizon, system.n_x, system.n_u, system.n_w
    # block row k+1 is A_k times block row k, plus B_k (G_k) at block column k
    Gamma = np.eye((N + 1) * n_x, n_x)
    Hu = np.zeros(((N + 1) * n_x, N * n_u))
    Hw = np.zeros(((N + 1) * n_x, N * n_w))
    for k in range(N):
        row, nxt = slice(k * n_x, (k + 1) * n_x), slice((k + 1) * n_x, (k + 2) * n_x)
        Gamma[nxt] = system.A[k] @ Gamma[row]
        Hu[nxt, :k * n_u] = system.A[k] @ Hu[row, :k * n_u]
        Hw[nxt, :k * n_w] = system.A[k] @ Hw[row, :k * n_w]
        Hu[nxt, k * n_u:(k + 1) * n_u] = system.B[k]
        Hw[nxt, k * n_w:(k + 1) * n_w] = system.G[k]
    return Gamma, Hu, Hw


class _ContentMemo:
    """The values built for the DATA_MEMO most recently used keys.  A build
    that raises keeps nothing, so the next call with its key builds again."""

    def __init__(self):
        self._values = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            if key in self._values:
                self._values.move_to_end(key)
                return self._values[key]
        value = build()
        with self._lock:
            self._values[key] = value
            if len(self._values) > DATA_MEMO:
                self._values.popitem(last=False)
        return value

    def clear(self):
        with self._lock:
            self._values.clear()


_LIFTINGS = _ContentMemo()
_VERDICTS = _ContentMemo()


def _data_key(problem):
    """Every array of problem but lam: the dimensions, which fix each shape,
    and the bytes.  Equal keys are equal numbers, from which every build
    gives the same result; an in-place edit of an array changes the key."""
    sysm = problem.system
    arrays = (*sysm.A, *sysm.B, *sysm.G, problem.initial.mean, problem.initial.cov,
              problem.noise_cov, problem.desired.mean, problem.desired.cov)
    return (sysm.horizon, sysm.n_x, sysm.n_u, sysm.n_w,
            b"".join([M.tobytes() for M in arrays]))


def _lift(problem):
    """The lifted block operators of problem, in arrays of their own, read-only.

    Raises NotPDError unless Stilde's eigenvalues pass rcond RCOND_DATA; a PD
    Stilde can fail only on its conditioning, which the message names."""
    sysm = problem.system
    N, n_x, n_u, n_w = sysm.horizon, sysm.n_x, sysm.n_u, sysm.n_w
    Gamma, Hu, Hw = lifted_maps(sysm)
    # Hw (I_N kron Sw): each n_w-wide block column of Hw times Sw
    HwSw = (Hw.reshape(-1, n_w) @ problem.noise_cov).reshape(Hw.shape)
    Stilde = symmetrize(Gamma @ problem.initial.cov @ Gamma.T + HwSw @ Hw.T)
    eig = np.linalg.eigvalsh(Stilde)
    lo, hi = eig[0], eig[-1]
    what = "Stilde is not PD (are S0, Sw PD and every G_k of full row rank?)"
    if lo > 0.0:
        what = (f"Stilde is not PD at rcond {RCOND_DATA:g}: its condition number "
                f"{hi / lo:.3e} exceeds {1.0 / RCOND_DATA:g}, with largest eigenvalue "
                f"{hi:.3e} (how far the open-loop chain grows)")
    require_conditioned(eig, what, rcond=RCOND_DATA)

    F = np.zeros((n_x, (N + 1) * n_x))
    F[:, N * n_x:] = np.eye(n_x)

    Sd = problem.desired.cov.copy()  # the caller's array, which may change after this
    sd_eigvals, sd_V = np.linalg.eigh(symmetrize(Sd))
    sqrt_Sd = None
    if sd_eigvals[0] > 0.0:
        sqrt_Sd = symmetrize((sd_V * np.sqrt(sd_eigvals)) @ sd_V.T)

    ops = BlockOperators(
        N=N, n_x=n_x, n_u=n_u, n_w=n_w,
        Gamma=Gamma, Hu=Hu, Stilde=Stilde, F=F,
        mu0=problem.initial.mean.copy(),
        mud=problem.desired.mean.copy(),
        Sd=Sd,
        FHu=Hu[N * n_x:, :].copy(),
        FGamma_mu0=Gamma[N * n_x:, :] @ problem.initial.mean,
        sqrt_Sd=sqrt_Sd,
    )
    _read_only(*(M for M in vars(ops).values() if isinstance(M, np.ndarray)))
    return ops


def assemble(problem):
    """Assemble the lifted block operators for a steering problem.

    Raises NotPDError if the assembled Stilde is not numerically positive
    definite (it is PD when S0, Sw are PD and the G_k have full row rank,
    but the open-loop chain can make it too ill-conditioned over the horizon).

    Nothing lifted depends on lam, so the operators are shared: problems
    whose arrays other than lam (A_k, B_k, G_k, mu0, S0, Sw, mud, Sd) have the
    same shapes and bytes get the same read-only BlockOperators, with its
    cached factors, while theirs is among the DATA_MEMO most recently
    assembled data.  A lambda sweep therefore lifts each system once.  Data
    that raises is not kept, and raises again on every call.
    """
    return _LIFTINGS.get(_data_key(problem), lambda: _lift(problem))


def _data_verdicts(problem):
    """(covariance violations, G_k violations) of `validate`, as tuples."""
    covariances = []
    for what, M in (("initial covariance", problem.initial.cov),
                    ("noise covariance", problem.noise_cov),
                    ("desired covariance", problem.desired.cov)):
        try:
            M = check_symmetric(M, 1e-10 * max(np.abs(M).max(), 1.0), what)
            eigvals = np.linalg.eigvalsh(symmetrize(M))
            require_conditioned(eigvals, f"{what} not PD", rcond=RCOND_DATA)
        except (NotSymmetricError, NotPDError) as e:
            covariances.append(str(e))
    sv = np.linalg.svd(np.stack(problem.system.G), compute_uv=False)
    return tuple(covariances), tuple(f"G[{k}] is rank deficient: {why}"
                                     for k, why in ill_conditioned(sv, RANK_TOL))


def validate(problem):
    """Return the list of formulation violations (empty means valid).

    Checks that S0, Sw, Sd are symmetric and PD at rcond RCOND_DATA, that
    lambda is positive, and that every G_k has full rank at rcond RANK_TOL;
    the list names them in that order.  The verdicts on the data are kept
    under the key `assemble` uses, for the DATA_MEMO most recently validated
    data, so a lambda sweep checks each system once; lambda is checked on
    every call, and every call returns a list of its own.
    """
    covariances, gains = _VERDICTS.get(_data_key(problem), lambda: _data_verdicts(problem))
    lam = [] if problem.lam > 0.0 else [f"lambda must be > 0, got {problem.lam}"]
    return [*covariances, *lam, *gains]
