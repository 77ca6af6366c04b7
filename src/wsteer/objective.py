"""Objective evaluation, analytic gradients, exact Hessian, and certificates.

The total cost splits as J = J1(u_ff) + J2(Theta) + J3(Theta) - J4(Theta):

    J1 = ||u_ff||^2 + lam * ||F(Gamma mu0 + Hu u_ff) - mud||^2
    J2 = trace(Theta Stilde Theta^T)
    J3 = lam * trace(Omega Stilde Omega^T + Sd)
    J4 = 2 lam * trace((Sd^(1/2) Omega Stilde Omega^T Sd^(1/2))^(1/2))

with Omega = F(I + Hu Theta).  J1 + J2 + J3 is convex quadratic and J4 is
convex (a nuclear norm of an affine map), so J is a difference of convex
functions.  Every terminal quantity at an iterate comes from one kernel,
`_terminal`, which takes two symmetric eigenproblems: the eigenvalues of the
terminal covariance Y, for its conditioning guard, and the eigendecomposition
C = Sd^(1/2) Y Sd^(1/2) = V diag(r^2) V^T; with W = Sd^(1/2) V the second gives
trace C^(1/2) = sum(r) (J4, W2) and the geometric mean Mt = Sd # Y^(-1) =
W diag(1/r) W^T of the J4 gradient.  The gradient of J in Theta and its
Hessian in vec(Theta) share the weight A = 2 lam (I - Mt):

    grad J = 2 Theta Stilde + FHu^T A Omega Stilde,
    H = Stilde kron 2P + Z^T Z,  P = I + sym(FHu^T A FHu) / 2,

with Z = sqrt(lam g) * (T + K T), T = (W^T Omega Stilde) kron (W^T FHu) (n_x^2
rows), K the commutation matrix and g = vec(G), G_ij = 1/(r_i r_j (r_i + r_j)).
The second term is the Frechet derivative of C^(-1/2), diagonal in the
eigenbasis.  The CCP curvature H0 is the first term with Mt = 0, and all of
H at lam = 0.  The solver works on the free (causal) entries of Theta as
causal matrices X, in the coordinates Phi = X L, L = chol(Stilde), where
J2's curvature is D = 2I and

    H = H_U + Z^T Z,  H_U = D + U (I kron A) U^T,

U(Y) = FHu^T Y on the free entries.  Row (a, b) of Z is U(W X_ab Aw) with X_ab
= sqrt(lam g_ab) (e_a e_b^T + e_b e_a^T) and Aw = W^T Omega Stilde L^-T.
Column c of Phi is free on the rows of the input blocks F_t, ..., F_(N-1) of
FHu (t = c // n_x), sqrt(2) C_t O_t^T by one block QR (`input_qr`), so H_U is
block-diagonal over the columns, 2 sigma on O_t y, with I + C_t^T A C_t = Y
diag(sigma) Y^T, and 2 elsewhere, and Z^T maps into the span of the O_t y.  H is
therefore 2I on a known space and diag(d) + Z Z^T on the poles d = 2 sigma, Z
of n_x (n_x + 1) / 2 columns; `_Curvature` holds that one spectral form, from
one eigh of the blocks: its solve (Woodbury on the poles, one refinement step
in Phi through its matvec's form), its positive-definiteness decision (the inertia of H - mu
I is k - neg(S(mu)), k the poles below mu, S(mu) = I + Z^T (diag(d) - mu)^-1
Z: Haynsworth) and its lambda_min (the same count, by secular iteration).  A
and Z^T Z are linear in lam, so a Newton step near a singular block solves
with H + 2 s I = (1 + s) H(lam / (1 + s)), the poles d + 2 s and 2 + 2 s.  H0
is the same form with Z = 0.  `_hessian_block`'s dense causal block is the
test oracle, and `wsteer check`'s on a few entries.

`_terminal` and `_values` (J1..J4, W2) also take a stack of policies along
leading axes, each member's bits equal to a lone policy's; `line_scan`
evaluates its grid that way.  `_ray` gives J's change along a Newton step in
difference form, for its line search, at one `_terminal` per trial; the
accepted trial's kernel is the new iterate's.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPDError,
    SingularTerminalCovarianceError,
    WsteerError,
)
from .matops import (
    commutation_apply,
    geometric_mean,  # noqa: F401  (unused here; the benchmark tracer wraps this name)
    require_conditioned,
    sqrtm_psd,
    symmetrize,
)
from .problem import Gaussian, _read_only, causality_mask


@dataclass(frozen=True)
class Policy:
    """Feedforward vector u_ff (N*n_u) and feedback gain Theta (N*n_u x (N+1)*n_x).

    Theta must satisfy the causal block-lower-triangular pattern; use
    CausalityMask.project / is_causal to enforce or check it.
    """

    u_ff: np.ndarray
    Theta: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_ff, dtype=float).reshape(-1)
        T = np.asarray(self.Theta, dtype=float)
        if T.ndim != 2:
            raise DimensionMismatchError("Theta must be a 2-D matrix")
        object.__setattr__(self, "u_ff", u)
        object.__setattr__(self, "Theta", T)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a convexity check.

    kind is "DominatedCovariance" when the terminal covariance dominates Sd in
    the Loewner order, "HessianPD" when the Hessian over the causal entries of
    Theta is positive definite, or None when neither test passed.  dominance_gap
    is lambda_min(terminal covariance - Sd); lambda_min_hessian, filled when
    the spectral test ran, is that Hessian's smallest eigenvalue in the
    coordinates Phi = X L, L = chol(Stilde), congruent to Theta's and so of its
    sign (Sylvester); the spectral kind is "HessianPD" iff it is > 0.
    """

    kind: Optional[str]
    dominance_gap: Optional[float] = None
    lambda_min_hessian: Optional[float] = None


@dataclass(frozen=True)
class ObjectiveReport:
    J: float
    J1: float
    J2: float
    J3: float
    J4: float
    W2_sq: float
    cost_to_go: float
    terminal: Gaussian
    grad_uff: np.ndarray
    grad_theta: np.ndarray
    certificate: Optional[Certificate] = None
    # the terminal kernel at the policy, from which the solver's Newton step
    # builds its curvature and its line search
    kernel: Optional[object] = field(default=None, repr=False, compare=False)


def omega(ops, Theta):
    """Terminal-state mixing matrix Omega = F(I + Hu Theta), for one Theta or
    a stack of them along the leading axes."""
    Theta = np.asarray(Theta, dtype=float)
    q = (ops.N + 1) * ops.n_x
    if Theta.shape[-2:] != (ops.N * ops.n_u, q):
        raise DimensionMismatchError(
            f"Theta shape {Theta.shape[-2:]} != ({ops.N * ops.n_u}, {q})"
        )
    return ops.F + ops.FHu @ Theta


def terminal_covariance(ops, Theta):
    """Covariance of the terminal state, Omega Stilde Omega^T (always PD)."""
    Om = omega(ops, Theta)
    return symmetrize(Om @ ops.Stilde @ Om.T)


def terminal_gaussian(ops, policy):
    """Predicted terminal-state distribution under the given policy."""
    mean = ops.FGamma_mu0 + ops.FHu @ policy.u_ff
    return Gaussian(mean=mean, cov=terminal_covariance(ops, policy.Theta))


def wasserstein_sq_gaussian(g1, g2):
    """Squared 2-Wasserstein distance between two Gaussians.

    ||mu1 - mu2||^2 + trace(C1 + C2 - 2 (C2^(1/2) C1 C2^(1/2))^(1/2)); tiny
    negative round-off (within 1e-10 of the trace scale) is clamped to zero.
    """
    if g1.dim != g2.dim:
        raise DimensionMismatchError("Gaussians of different dimension")
    R2 = sqrtm_psd(g2.cov)
    cross = sqrtm_psd(symmetrize(R2 @ g1.cov @ R2))
    dmu = g1.mean - g2.mean
    return float(_w2_sq(dmu @ dmu, np.trace(g1.cov), np.trace(g2.cov), np.trace(cross)))


def _w2_sq(mean_gap_sq, trace1, trace2, trace_root):
    """Expanded squared W2 distance, mean_gap_sq + trace1 + trace2 - 2 trace_root,
    elementwise over arrays, with round-off down to -1e-10 of the trace scale
    clamped to zero; any entry below that raises."""
    val = mean_gap_sq + trace1 + trace2 - 2.0 * trace_root
    tol = 1e-10 * np.fmax(1.0, np.abs(trace1) + np.abs(trace2))
    low = val < -tol
    if low.any():
        raise WsteerError(f"squared Wasserstein distance {val[low][0]:.3e} "
                          f"below -{tol[low][0]:.3e}")
    return np.maximum(val, 0.0)


def _mT(M):
    """Transpose of the last two axes: M.T for one matrix, per member for a stack."""
    return np.swapaxes(M, -1, -2)


class _Terminal(NamedTuple):
    """Terminal quantities at one Theta, or per member of a stack; see `_terminal`."""

    OmS: np.ndarray         # Omega Stilde, Omega = F(I + Hu Theta)
    Y: np.ndarray           # terminal covariance Omega Stilde Omega^T
    Y_eigvals: np.ndarray   # eigenvalues of Y, ascending
    trace_root: np.ndarray  # trace C^(1/2), C = Sd^(1/2) Y Sd^(1/2)
    W: np.ndarray           # Sd^(1/2) V, with C = V diag(r^2) V^T
    r: np.ndarray           # square roots of the eigenvalues of C, ascending
    V: np.ndarray           # the eigenvectors of C

    @property
    def Mt(self):
        """Sd # Y^(-1) = W diag(1/r) W^T, the geometric mean in the J4 gradient."""
        return symmetrize((self.W / self.r[..., None, :]) @ _mT(self.W))


def _terminal(ops, Theta):
    """Every terminal quantity of J, its gradient and its Hessian at Theta,
    from two symmetric eigenproblems: eigvalsh of Y for its conditioning
    guard, then eigh of C = Sd^(1/2) Y Sd^(1/2).

    Theta may be a stack of gains along its leading axes; every product is a
    stacked matmul and every decomposition a stacked LAPACK call, so each
    member's quantities are bit-identical to those of a lone Theta.  Raises
    NotPDError when Sd is not positive definite, NonFiniteError when Y of
    any member holds an inf or NaN entry, and SingularTerminalCovarianceError
    when Y or C of any member fails its conditioning guard.
    """
    if ops.sqrt_Sd is None:
        raise NotPDError("desired covariance Sd is not positive definite")
    Om = omega(ops, Theta)
    OmS = Om @ ops.Stilde
    Y = symmetrize(OmS @ _mT(Om))
    y = np.linalg.eigvalsh(Y)
    require_conditioned(y, "terminal covariance is singular", SingularTerminalCovarianceError)
    c, V = np.linalg.eigh(symmetrize(ops.sqrt_Sd @ Y @ ops.sqrt_Sd))
    require_conditioned(c, "Sd^1/2 Y Sd^1/2 is not PD", SingularTerminalCovarianceError, rcond=0.0)
    r = np.sqrt(c)
    return _Terminal(OmS=OmS, Y=Y, Y_eigvals=y, trace_root=np.sum(r, axis=-1),
                     W=ops.sqrt_Sd @ V, r=r, V=V)


class _Values(NamedTuple):
    """J, its terms and the squared W2 distance at one policy, or per member
    of a stack; see `_values`."""

    J: np.ndarray
    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray
    J4: np.ndarray
    W2_sq: np.ndarray
    uu: np.ndarray          # ||u_ff||^2
    mean: np.ndarray        # terminal mean
    ThS: np.ndarray         # Theta Stilde
    term: _Terminal


def _dot(x, y):
    """x . y for vectors, or per member of stacks, through matmul's dot path,
    so a stacked member's bits equal a lone x @ y."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _values(ops, lam, u, Theta, term=None):
    """J1..J4, J and the squared W2 distance at the policy (u, Theta), or at
    each member of stacks u (..., N n_u) and Theta (..., N n_u, (N+1) n_x).

    Applies every guard of `evaluate` to every member: lam >= 0, the two
    conditioning guards of `_terminal` (or term, its kernel at Theta, passed
    them) and the W2 round-off check.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    term = _terminal(ops, Theta) if term is None else term

    mean = ops.FGamma_mu0 + (ops.FHu @ u[..., None])[..., 0]  # matmul's gemv path, as FHu @ u
    dmu = mean - ops.mud
    uu, dd = _dot(u, u), _dot(dmu, dmu)
    trace_Y = np.trace(term.Y, axis1=-2, axis2=-1)
    trace_Sd = float(np.trace(ops.Sd))

    J1 = uu + lam * dd
    ThS = Theta @ ops.Stilde
    J2 = np.trace(ThS @ _mT(Theta), axis1=-2, axis2=-1)
    J3 = lam * (trace_Y + trace_Sd)
    J4 = 2.0 * lam * term.trace_root
    return _Values(
        J=J1 + J2 + J3 - J4, J1=J1, J2=J2, J3=J3, J4=J4,
        W2_sq=_w2_sq(dd, trace_Y, trace_Sd, term.trace_root),
        uu=uu, mean=mean, ThS=ThS, term=term,
    )


def grad_uff(ops, lam, u_ff):
    """Gradient of J with respect to u_ff: 2 u_ff + 2 lam FHu^T (mean - mud)."""
    u_ff = np.asarray(u_ff, dtype=float).reshape(-1)
    mean = ops.FGamma_mu0 + ops.FHu @ u_ff
    return 2.0 * u_ff + 2.0 * lam * (ops.FHu.T @ (mean - ops.mud))


def grad_theta_j4(ops, lam, Theta):
    """Gradient of the concave-side term J4 alone,
    2 lam FHu^T (Sd # (Omega Stilde Omega^T)^(-1)) Omega Stilde."""
    if lam == 0.0:
        return np.zeros_like(np.asarray(Theta, dtype=float))
    term = _terminal(ops, Theta)
    return ops.FHu.T @ (2.0 * lam * term.Mt @ term.OmS)


def _grad_theta(ops, lam, ThS, term):
    """grad J = 2 ThS + FHu^T A Omega Stilde, ThS = Theta Stilde, formed in ThS's
    own array, which the caller gives up; term unused at lam = 0."""
    ThS *= 2.0
    if lam != 0.0:
        ThS += ops.FHu.T @ (_coupling_weight(lam, ops.n_x, term) @ term.OmS)
    return ThS


def grad_theta(ops, lam, Theta):
    """Full (unprojected) gradient of J with respect to Theta."""
    Theta = np.asarray(Theta, dtype=float)
    term = _terminal(ops, Theta) if lam != 0.0 else None
    return _grad_theta(ops, lam, Theta @ ops.Stilde, term)


def _coupling_weight(lam, n_x, term=None):
    """A = 2 lam (I - Mt), or 2 lam I with term None, as in P = I + sym(FHu^T A FHu) / 2:
    the gradient, the dense block and the structured curvature all take A from here."""
    return 2.0 * lam * (np.eye(n_x) - (0.0 if term is None else term.Mt))


def _hessian_block(ops, lam, idx, term=None):
    """Rows and columns idx of the Hessian of J in vec(Theta), symmetric by
    construction; with term None, of J2 + J3 alone (the CCP curvature).
    Entry c p + r of vec(Theta) is Theta[r, c], so (Stilde kron 2P)[i, j] is
    Stilde[c_i, c_j] 2P[r_i, r_j] and column i of T is A[:, c_i] kron B[:, r_i].
    """
    FHu = ops.FHu
    c, r = np.divmod(idx, FHu.shape[1])
    A = _coupling_weight(lam, ops.n_x, term)
    P2 = 2.0 * np.eye(FHu.shape[1]) + symmetrize(FHu.T @ A @ FHu)
    H = ops.Stilde[c[:, None], c]
    H *= P2[r[:, None], r]  # in place: one full-size temporary fewer
    if term is not None:
        n_x, s = ops.n_x, term.r
        g = 1.0 / (np.outer(s, s) * np.add.outer(s, s))
        A, B = term.W.T @ term.OmS, term.W.T @ FHu
        T = (A[:, None, c] * B[None, :, r]).reshape(n_x * n_x, -1)
        Z = np.sqrt(lam * g).reshape(-1, 1) * (T + commutation_apply(T, n_x, n_x))
        H += Z.T @ Z
    return H


# A pole of H is near singular when its block's eigenvalue sigma is within
# BLOCK_TOL, or eigvalsh's error n_x eps (1 + ||C_t^T A C_t||), of zero; a PD
# Newton step then solves with H + 2 s I.  Its refined backward error against
# the dense block plus 2 s I, over 3000 draws per family of
# tests/curvature_sweep.py: at most 3.0e-15 with a block eigenvalue at
# +-10^U(-8, -1), and 5.7e-16 with one at +-10^U(-4, -2), where the blocks
# cancel against a large A.
BLOCK_TOL = 1e-2
EPS = np.finfo(float).eps


@lru_cache(maxsize=16)
def _pairs(n_x):
    """(i, j, unit), read-only: the pairs a <= b that index a symmetric n_x x
    n_x matrix, and the weights that make e_a e_a^T, (e_a e_b^T + e_b e_a^T)
    / sqrt(2) orthonormal; built once per n_x, as triu_indices is slow."""
    i, j = np.triu_indices(n_x)
    return _read_only(i, j, np.where(i == j, 1.0, np.sqrt(2.0)))


class _Curvature:
    """The causal Hessian H of J at the terminal kernel term, or with term None
    the CCP curvature H0 of J2 + J3, on causal matrices X of N n_u x N n_x (the
    last block column of Theta is never free), in the coordinates Phi = X L:
    2I on n_2 dimensions and diag(d) + Z Z^T on the pole basis, one eigh of
    the blocks I + C_t^T A C_t = Y diag(sigma) Y^T.  Column c of Phi, t = c //
    n_x, is free on the rows of the input blocks F_t, ..., F_(N-1) of FHu,
    sqrt(2) C_t O_t^T with O_t^T O_t = I (`input_qr`), so H_U's block there is
    2 sigma on O_t y and 2 elsewhere, and Z^T Z lies in the span of O_t.  The
    poles run over (t, column, y); the columns y of Y past n_u (N - t) are
    none (their sigma is set to 1, their basis vector and row of Z are zero).
    neg_U counts H_U's negative eigenvalues; near marks a block within
    BLOCK_TOL of singular, and shift is the s that lifts the poles of
    H + 2 s I, 2 (sigma + s), to >= 4 BLOCK_TOL (1 + s), so those of
    H(lam / (1 + s)) to >= 4 BLOCK_TOL.  Z and the pole basis are built when
    first read, and S(mu) once at each mu."""

    def __init__(self, ops, lam, mask, term=None):
        N, n_x = ops.N, ops.n_x
        self.rows, self.cols, self.free = mask.layout
        self.L, self.Linv = ops.causal_cholesky
        C, O, true = ops.input_qr
        M = _mT(C) @ _coupling_weight(lam, n_x, term) @ C
        # the zero columns of C_t are decoupled: put above the rest (Gershgorin), eigh sorts them last
        M[:, np.arange(n_x), np.arange(n_x)] += np.where(
            true, 1.0, 2.0 + 2.0 * np.abs(M).sum(axis=(1, 2))[:, None])
        sig, self.Y = np.linalg.eigh(M)
        self.sig = np.where(true, sig, 1.0)
        self.pole = np.repeat(true, n_x, axis=0).ravel()
        self.d = np.repeat(2.0 * self.sig, n_x, axis=0).ravel()
        self.n_2 = ops.n_u * n_x * N * (N + 1) // 2 - n_x * int(true.sum())
        self.err = n_x * EPS * (1.0 + np.abs(self.sig - 1.0).max(axis=-1, keepdims=True))
        self.singular = self.at_pole(0.0)
        self.near = self.singular or bool((np.abs(self.sig) <= BLOCK_TOL).any())
        self.neg_U = n_x * int(np.count_nonzero(self.sig < 0.0))
        self.shift = (2.0 * BLOCK_TOL - float(self.sig.min())) / (1.0 - 2.0 * BLOCK_TOL)
        self._at, self._O, self._borders = (ops, lam, term, C), O, {}

    @cached_property
    def OY(self):
        """The pole basis O_t y, stacked over t: N x N n_u x n_x."""
        return self._O @ self.Y

    @cached_property
    def Z(self):
        """Z, a row per pole and a column per pair a <= b (`_pairs`): column
        (a, b) holds the coordinates on the poles of the Frechet row U(W X_ab
        Aw), X_ab = sg_ab (e_a e_b^T + e_b e_a^T), Aw = W^T Omega Stilde L^-T,
        which on the pole O_t y of column c of Phi read sg_ab (a_a b_b +
        a_b b_a), a = sqrt(2) W^T C_t y, b = Aw[:, c].  Zero with term None."""
        ops, lam, term, C = self._at
        N, n_x = ops.N, ops.n_x
        i, j, unit = _pairs(n_x)
        if term is None:
            return np.zeros((self.d.size, i.size))
        r = term.r
        sg = np.sqrt(lam / (np.outer(r, r) * np.add.outer(r, r)))[i, j] * unit
        Aw = (term.W.T @ term.OmS)[:, :N * n_x] @ ops.causal_cholesky[1].T
        a, b = _mT(np.sqrt(2.0) * term.W.T @ C @ self.Y), Aw.reshape(n_x, N, n_x).transpose(1, 2, 0)
        Z = a[:, None, :, i] * (sg * b[:, :, j])[:, :, None, :]
        Z += a[:, None, :, j] * (sg * b[:, :, i])[:, :, None, :]
        return Z.reshape(-1, i.size)

    def at_pole(self, mu):
        """Whether a pole lies within eigvalsh's error of mu < 2."""
        return bool((np.abs(self.sig - 0.5 * mu) <= self.err).any())

    def _border(self, mu):
        """(s, w, wZV), mu off the poles, kept per mu: the eigendecomposition
        V diag(s) V^T of S(mu) = I + Z^T diag(w) Z, w = 1 / (d - mu), and
        diag(w) Z V, with which diag(w) - wZV diag(1 / s) wZV^T is the
        inverse of diag(d) - mu + Z Z^T (Woodbury)."""
        if mu not in self._borders:
            Z, w = self.Z, 1.0 / (self.d - mu)
            s, V = np.linalg.eigh(np.eye(Z.shape[1]) + (Z.T * w) @ Z)
            self._borders[mu] = s, w, (Z * w[:, None]) @ V
        return self._borders[mu]

    def definite(self, mu=0.0):
        """Whether H - mu I is PD, mu < 2: at a pole within eigvalsh's error
        of mu, the sign of lambda_min - mu; else Haynsworth on [[diag(d) - mu,
        Z], [Z^T, -I]]: neg(H - mu I) = k - neg(S(mu)), k the poles below mu,
        for S(mu) nonsingular.  rank Z <= m = n_x (n_x + 1) / 2, so neg(H - mu I)
        >= k - m (interlacing): past that, not PD, and Z is not built."""
        if self.at_pole(mu):
            return self.lambda_min() > mu
        n_x = self.sig.shape[1]
        k = n_x * int(np.count_nonzero(self.sig < 0.5 * mu))
        if k > n_x * (n_x + 1) // 2:
            return False
        s = self._border(mu)[0]
        return int(np.count_nonzero(s < 0.0)) == k and bool(np.all(s != 0.0))

    @cached_property
    def pd(self):
        return self.definite(0.0)

    def lambda_min(self):
        """lambda_min of H in the coordinates Phi: the sup of the mu with
        neg(H - mu I) = 0.  For mu < 2 (any mu if n_2 = 0) off the poles,
        neg(H - mu I) = k - neg(S(mu)), k the poles below mu, S(mu) of side m
        (Haynsworth; the secular form of Golub 1973 and Bunch, Nielsen and
        Sorensen 1978).  The bracket starts from H >= H_U, H's diagonal
        d + |z|^2 (and 2), and rank Z <= m; each probe's count moves an end.
        Probes are Newton steps on x y s_k, s_k the eigenvalue of S that
        crosses zero, x and y mu's distances to the poles around it, guarded
        by bisection; the first is 0 if bracketed: the sign is that of the
        count at 0."""
        d, Z, n_2 = self.d[self.pole], self.Z[self.pole], self.n_2
        m, p = Z.shape[1], np.sort(d)
        lo = p.min(initial=2.0) if n_2 else p[0]
        hi = min(np.min(d + np.einsum("pk,pk->p", Z, Z), initial=2.0 if n_2 else np.inf),
                 p[m] if p.size > m else np.inf)
        tol = 4.0 * EPS * max(abs(lo), abs(hi), np.abs(p).max(initial=0.0))
        mu, k_lo, steps = (0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)), None, [np.inf, np.inf]
        while hi - lo > 2.0 * tol:
            w = 1.0 / (d - mu)
            s, V = np.linalg.eigh(np.eye(m) + (Z.T * w) @ Z)
            k = int(np.searchsorted(p, mu))
            if k > np.count_nonzero(s < 0.0):
                hi = mu
            else:
                lo, k_lo = mu, k
            c = 0.5 * (lo + hi)
            if k == k_lo:  # s_k has poles at x below mu and y above it, h = x y s_k none
                zw = (Z @ V[:, k - 1]) * w
                x, f = mu - p[k - 1], s[k - 1]
                y, dy = (p[k] - mu, -1.0) if k < p.size else (1.0, 0.0)
                slope = (y + x * dy) * f + x * y * (zw @ zw)
                # at least tol from both ends: a converged step crosses the root
                t = min(max(mu - x * y * f / slope, lo + tol), hi - tol) if slope > 0.0 else c
                if abs(t - mu) <= 0.5 * abs(steps[-2]):
                    c = t
            steps.append(c - mu)
            mu = c
        return float(lo + 0.5 * (hi - lo))

    def _coords(self, Phi):
        """Phi's coordinates on the pole basis, over (t, column, y)."""
        return (Phi.T.reshape(self.OY.shape[0], -1, Phi.shape[0]) @ self.OY).ravel()

    def _span(self, P):
        """The Phi with coordinates P on the pole basis."""
        N, q, n_x = self.OY.shape
        return (P.reshape(N, n_x, n_x) @ _mT(self.OY)).reshape(-1, q).T

    def _apply(self, Phi, shift):
        """(H + 2 shift I) Phi for causal Phi."""
        P = self._coords(Phi)
        HP = (self.d - 2.0) * P + self.Z @ (P @ self.Z)
        return (2.0 + 2.0 * shift) * Phi + self._span(HP)

    def _inverse(self, B, shift):
        """(H + 2 shift I)^-1 B for causal B: Woodbury on the poles (`_border`
        at mu = -2 shift) and 1 / (2 + 2 shift) off them."""
        P, c = self._coords(B), 2.0 + 2.0 * shift
        s, w, wZV = self._border(-2.0 * shift)
        x = w * P - wZV @ ((P @ wZV) / s)
        return B / c + self._span(x - P / c)

    def _matrix(self, v):
        X = np.zeros(self.free.shape)
        X[self.rows, self.cols] = v
        return X

    def matvec(self, v, shift=0.0):
        """T^T (H + 2 shift I) T v, T: X -> X L, v on the free entries of
        Theta in mask.free_entries order: the Hessian of J there at shift 0."""
        return (self._apply(self._matrix(v) @ self.L, shift) @ self.L.T)[self.rows, self.cols]

    def solve(self, v, shift=0.0):
        """(T^T (H + 2 shift I) T)^-1 v, v as in `matvec`, with one step of
        iterative refinement in Phi through `matvec`'s form, which restores a
        backward error of order eps when Z Z^T is large."""
        # T^-T: the Bw with <Bw, X L> = <B, X> for every causal X; on its
        # prefix, row r of Bw is b_r L_l^-T, with L_l the leading block of L
        Bw = (self._matrix(v) @ self.Linv.T) * self.free
        Phi = self._inverse(Bw, shift)
        Phi += self._inverse(Bw - self._apply(Phi, shift), shift)
        return (Phi @ self.Linv)[self.rows, self.cols]


def _lambda_min(ops, lam, term=None):
    """lambda_min of the causal Hessian at the kernel term (with term None, of
    H0) in the coordinates Phi: `_Curvature.lambda_min`."""
    return _Curvature(ops, lam, causality_mask(ops.N, ops.n_u, ops.n_x), term).lambda_min()


def hessian_theta(ops, lam, Theta, mask=None):
    """Exact Hessian of J with respect to vec(Theta) (column stacking),
    Stilde kron 2P plus the Frechet term of J4 (see the module docstring);
    with a CausalityMask only its block on mask.free_entries.  Exactly symmetric.
    """
    idx = np.arange(np.size(Theta)) if mask is None else mask.free_entries
    term = _terminal(ops, Theta) if lam != 0.0 else None
    return _hessian_block(ops, lam, idx, term)


def evaluate(ops, lam, policy, mask=None, kernel=None):
    """Evaluate J, its decomposition, the terminal law, and the gradients.

    When a CausalityMask is supplied the policy must already satisfy it.
    `kernel`, `_terminal` at policy.Theta, is used instead of computing it.
    """
    if mask is not None and not mask.is_causal(policy.Theta):
        raise ValueError("policy violates the causality pattern")

    v = _values(ops, lam, policy.u_ff, policy.Theta, kernel)
    return ObjectiveReport(
        J=float(v.J), J1=float(v.J1), J2=float(v.J2), J3=float(v.J3), J4=float(v.J4),
        W2_sq=float(v.W2_sq),
        cost_to_go=float(v.uu + v.J2),
        terminal=Gaussian(mean=v.mean, cov=v.term.Y),
        grad_uff=grad_uff(ops, lam, policy.u_ff),
        grad_theta=_grad_theta(ops, lam, v.ThS, v.term),
        kernel=v.term,
    )


def stationarity_residual(ops, lam, policy, mask, grad=None):
    """Norm of the J gradient projected on the free (causal) entries of Theta.

    The input Theta is projected onto the causal pattern first, so entries on
    the constrained complement never influence the result; the Lagrangian
    stationarity condition holds iff this residual vanishes, because the
    multiplier terms are supported exactly on the complement.  `grad`, the
    full gradient at a causal policy.Theta (an `evaluate` report's
    grad_theta), is used instead of computing it.
    """
    if grad is None:
        grad = grad_theta(ops, lam, mask.project(policy.Theta))
    return float(np.linalg.norm(mask.gather(grad)))


def _ray(ops, lam, Theta, Delta, term):
    """Line-search trials along Theta_t = Theta - t Delta, term the terminal
    kernel at Theta: trial(t) is (dJ(t), Theta_t, kernel_t), kernel_t the
    kernel `_terminal(ops, Theta_t)` that evaluate builds there, and dJ(t) =
    J(Theta_t) - J(Theta), u_ff fixed, in difference form.  With D = FHu Delta,
    B = D Stilde Omega^T and C = D Stilde D^T, Y moves by dY = -t (B + B^T) +
    t^2 C, J2 and J3 by polynomials in t, and J4 by 2 lam tr X, R(t) X + X R =
    Sd^(1/2) dY Sd^(1/2), R(t) = (Sd^(1/2) Y(t) Sd^(1/2))^(1/2), solved in the
    eigenbases of R and of R(t), from kernel_t.  Round-off scales with t Delta,
    not with J, so dJ resolves changes far below J's evaluation noise.  dJ is
    inf, kernel_t None, where `_terminal` rejects Theta_t.  Costs Delta Stilde,
    then one `_terminal` per t; the accepted trial's kernel is the iterate's.
    """
    DS = Delta @ ops.Stilde
    D = ops.FHu @ Delta
    B = D @ term.OmS.T
    C = symmetrize(ops.FHu @ DS @ D.T)
    lin, quad = float(np.vdot(Theta, DS)), float(np.vdot(Delta, DS))

    def trial(t):
        Theta_t = Theta - t * Delta
        try:
            kt = _terminal(ops, Theta_t)
        except SingularTerminalCovarianceError:
            return np.inf, Theta_t, None  # a point evaluate rejects is never a step's end
        dY = t * t * C - t * (B + B.T)
        X = (kt.W.T @ dY @ term.W) / np.add.outer(kt.r, term.r)
        return (float(t * (t * quad - 2.0 * lin) + lam * np.trace(dY)
                      - 2.0 * lam * np.sum(X * (kt.V.T @ term.V))), Theta_t, kt)
    return trial


def convexity_certificate(ops, lam, Theta, mode="dominance", kernel=None):
    """Check the sufficient convexity condition at the given Theta.

    mode "dominance" tests lambda_min(Omega Stilde Omega^T - Sd) >= -tol with
    tol = 1e-10 max(1, lambda_max(Omega Stilde Omega^T)) (terminal covariance
    dominates Sd in the Loewner order, which implies a PD Hessian); mode
    "spectral" reports the minimum eigenvalue of the Hessian over the causal
    entries of Theta in the coordinates Phi (see `Certificate`), from
    `_lambda_min`'s secular count at every size, and "HessianPD" exactly when
    it is positive.  `kernel`, the terminal kernel of an `evaluate` report at
    Theta, is used instead of computing it.
    """
    if mode not in ("dominance", "spectral"):
        raise ValueError(f"unknown certificate mode {mode!r}")
    term = _terminal(ops, Theta) if kernel is None else kernel
    gap = float(np.linalg.eigvalsh(term.Y - ops.Sd)[0])
    if mode == "dominance":
        tol = 1e-10 * max(1.0, float(term.Y_eigvals[-1]))
        kind = "DominatedCovariance" if gap >= -tol else None
        return Certificate(kind=kind, dominance_gap=gap)
    Hmin = _lambda_min(ops, lam, term)
    return Certificate(kind="HessianPD" if Hmin > 0.0 else None, dominance_gap=gap,
                       lambda_min_hessian=Hmin)
