"""Objective evaluation, analytic gradients, exact Hessian, and certificates.

The total cost splits as J = J1(u_ff) + J2(Theta) + J3(Theta) - J4(Theta):

    J1 = ||u_ff||^2 + lam * ||F(Gamma mu0 + Hu u_ff) - mud||^2
    J2 = trace(Theta Stilde Theta^T)
    J3 = lam * trace(Omega Stilde Omega^T + Sd)
    J4 = 2 lam * trace((Sd^(1/2) Omega Stilde Omega^T Sd^(1/2))^(1/2))

with Omega = F(I + Hu Theta).  J1 + J2 + J3 is convex quadratic and J4 is
convex (a nuclear norm of an affine map), so J is a difference of convex
functions.  Every terminal quantity at an iterate comes from one kernel,
`_terminal`, which takes a single eigendecomposition C = Sd^(1/2) Y Sd^(1/2) =
V diag(r^2) V^T with Y the terminal covariance; with W = Sd^(1/2) V it gives
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

U(Y) = FHu^T Y on the free entries; neither is formed.  Column c of Phi is
free on the rows that the input blocks F_t, ..., F_(N-1) of FHu act on
(t = c // n_x), whose Gram matrix is Q_t, so H_U is block-diagonal over the
columns and `_ConvexCurvature` inverts it in closed form, (I - F^T E_t F) / 2
with E_t = (I + A Q_t / 2)^-1 A / 2 (for H0, A = 2 lam I: lam (I + lam Q_t)^-1).
`_StructuredCurvature` adds Z by Woodbury through S = I + Z H_U^-1 Z^T and
decides positive definiteness by inertia (Haynsworth); a nearly singular
block of H_U falls back to the dense small space of V = [U, Z^T].  Both
solves take one step of iterative refinement.  The dense causal block of
`_hessian_block` is the test oracle and the reference of `wsteer check`; the
spectral certificate takes lambda_min from its eigvalsh below the size rule
and from Lanczos on H^-1 above it.  `_terminal` and `_values` (J1..J4 and the
W2 check) also take a stack of policies along leading axes, each member's
bits equal to those of a lone policy; `line_scan` evaluates its grid that way.
"""

from dataclasses import dataclass, field
from functools import cached_property
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
from .problem import Gaussian, causality_mask


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
    is lambda_min(terminal covariance - Sd); lambda_min_hessian is filled when
    the spectral test ran.
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
    # builds its curvature
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

    @property
    def Mt(self):
        """Sd # Y^(-1) = W diag(1/r) W^T, the geometric mean in the J4 gradient."""
        return symmetrize((self.W / self.r[..., None, :]) @ _mT(self.W))


def _terminal(ops, Theta):
    """Every terminal quantity of J, its gradient and its Hessian at Theta,
    from one eigendecomposition of C = Sd^(1/2) Y Sd^(1/2).

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
                     W=ops.sqrt_Sd @ V, r=r)


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


def _values(ops, lam, u, Theta):
    """J1..J4, J and the squared W2 distance at the policy (u, Theta), or at
    each member of stacks u (..., N n_u) and Theta (..., N n_u, (N+1) n_x).

    Applies every guard of `evaluate` to every member: lam >= 0, the two
    conditioning guards of `_terminal` and the W2 round-off check.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    term = _terminal(ops, Theta)

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
    """grad J = 2 ThS + FHu^T A Omega Stilde, ThS = Theta Stilde; term unused at lam = 0."""
    if lam == 0.0:
        return 2.0 * ThS
    return 2.0 * ThS + ops.FHu.T @ (_coupling_weight(lam, ops.n_x, term) @ term.OmS)


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


# The spectral certificate's size rule: Lanczos on the structured curvature
# when the free entries outnumber STRUCTURED_RATIO times the coupling rank
# n_x * N n_x + n_x^2, eigvalsh of the dense causal block below.  On the wide
# double integrator at lam = 10 (ms, dense/Lanczos): N = 10 1.4/10.4, 14 5.0/12.1,
# 16 6.7/8.7, 18 10.4/12.4, 20 17.2/11.1, 24 37.8/18.8.
STRUCTURED_RATIO = 4


# Lanczos stops when its Ritz residual is below this share of the Ritz value,
# which bounds the relative error of that eigenvalue by the same share.
LANCZOS_TOL = 1e-10

# A block I + K_t of H_U, K_t = C_t^T A C_t, counts as singular (the PD test
# and solve fall back to the dense small space) when an eigenvalue is within
# BLOCK_TOL, or eigvalsh's own error n_x eps (1 + ||K_t||_2), of zero.  With the
# fallback off, over 10k random and crafted Hessians at lam from 1e-3 to 1e4,
# the refined solve's backward error reached 4e-6 at block eigenvalues of 1e-6
# to 1e-5, and stayed below 5e-14 from 1e-5 on.
BLOCK_TOL = 1e-4


def _structured(ops):
    n_free = ops.n_u * ops.n_x * ops.N * (ops.N + 1) // 2
    return n_free > STRUCTURED_RATIO * ops.n_x * (ops.N + 1) * ops.n_x


class _ConvexCurvature:
    """H_U = D + U (I kron A) U^T, A = `_coupling_weight(lam, n_x, term)`, on
    causal matrices X of N n_u x N n_x (the last block column of Theta is
    never free) in the coordinates Phi = X L, inverted block by block in
    closed form; see the module docstring.  With term None it is the CCP
    curvature H0, which is PD."""

    pd = True

    def __init__(self, ops, lam, mask, term=None):
        p, qq = ops.N * ops.n_u, ops.N * ops.n_x
        self.cols, self.rows = np.divmod(mask.free_entries, p)
        self.free = np.arange(qq) // ops.n_x <= (np.arange(p) // ops.n_u)[:, None]
        self.FHu = ops.FHu
        self.L, self.Linv = ops.causal_cholesky
        self.A = _coupling_weight(lam, ops.n_x, term)
        self.Q = ops.input_grams[0]

    @cached_property
    def E(self):
        """E_t = (I + A Q_t / 2)^-1 A / 2, formed on first use, so never for a singular block."""
        return 0.5 * np.linalg.inv(np.eye(self.A.shape[0]) + 0.5 * self.A @ self.Q) @ self.A

    def _VMVt(self, Phi):
        return (self.FHu.T @ (self.A @ (self.FHu @ Phi))) * self.free

    def _block_E(self, Y):
        """E_t times column t n_x + j of Y, n_x x N n_x, or of each member of a stack."""
        N, n_x = self.E.shape[:2]
        Yt = Y.reshape(-1, n_x, N, n_x).transpose(2, 1, 0, 3).reshape(N, n_x, -1)
        return (self.E @ Yt).reshape(N, n_x, -1, n_x).transpose(2, 1, 0, 3).reshape(Y.shape)

    def _correction(self, Bw):
        """H_U^-1 = (I - _correction) D^-1 in Phi, D = 2I."""
        return (self.FHu.T @ self._block_E(self.FHu @ Bw)) * self.free

    def _dual_whiten(self, B):
        """The B~ with <B~, X L> = <B, X> for every causal X: on its prefix, row
        r of B~ is b_r L_l^-T, with L_l the leading block of L."""
        return (B @ self.Linv.T) * self.free

    def _apply(self, X):
        Phi = X @ self.L
        return ((2.0 * Phi + self._VMVt(Phi)) @ self.L.T) * self.free

    def _inverse(self, B):
        Bw = 0.5 * self._dual_whiten(B)
        return (Bw - self._correction(Bw)) @ self.Linv

    def _matrix(self, v):
        X = np.zeros(self.free.shape)
        X[self.rows, self.cols] = v
        return X

    def matvec(self, v):
        """H v, for v in mask.free_entries order."""
        return self._apply(self._matrix(v))[self.rows, self.cols]

    def solve(self, v):
        """H^-1 v and one step of iterative refinement, which restores a
        backward error of order eps when the low-rank part of H is large."""
        B = self._matrix(v)
        X = self._inverse(B)
        X += self._inverse(B - self._apply(X))
        return X[self.rows, self.cols]

    def lambda_min(self):
        """lambda_min(H) by Lanczos from a fixed start vector: on H^-1 when H
        is PD, else on H itself."""
        n = self.rows.size
        if n < 3:  # below ARPACK's smallest size
            return np.linalg.eigvalsh(np.column_stack([self.matvec(e) for e in np.eye(n)]))[0]
        import scipy.sparse.linalg  # here: its import costs about 0.1 s, and only this needs it

        op = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=self.solve if self.pd else self.matvec, dtype=float)
        val = scipy.sparse.linalg.eigsh(op, k=1, which="LA" if self.pd else "SA", tol=LANCZOS_TOL,
                                        v0=np.random.default_rng(0).standard_normal(n),
                                        return_eigenvectors=False)[0]
        return 1.0 / val if self.pd else val


class _StructuredCurvature(_ConvexCurvature):
    """The causal Hessian H = H_U + Z^T Z of J at the terminal kernel term,
    solved by Woodbury through S = I + Z H_U^-1 Z^T (see the module
    docstring).  pd is decided by inertia: neg_U and neg_S count the negative
    eigenvalues of H_U and S, None when a block of H_U is singular and the
    dense small space decided instead."""

    def __init__(self, ops, lam, mask, term):
        super().__init__(ops, lam, mask, term)
        n_x, m = ops.n_x, ops.n_x * ops.n_x
        p, qq = self.free.shape
        g = 1.0 / (np.outer(term.r, term.r) * np.add.outer(term.r, term.r))
        # row (a, b) of Z is sqrt(lam g_ab) (Bw_b^T Aw_a + Bw_a^T Aw_b) on the
        # free entries; `_dual_whiten` of free o (b kron v) is free o (b kron L^-1 v)
        Aw = (term.W.T @ term.OmS)[:, :qq] @ self.Linv.T
        Bw = term.W.T @ ops.FHu
        Z = Bw[None, :, :, None] * Aw[:, None, None, :]
        Z = (Z + Z.swapaxes(0, 1)).reshape(m, p, qq)
        Z *= np.sqrt(lam * g).reshape(-1, 1, 1)
        Z *= self.free
        self.Z = Z.reshape(m, -1)
        # H_U is block-diagonal: its block at column c of Phi has, besides
        # eigenvalues 2, those of 2 (I + C_t^T A C_t), t = c // n_x
        C = ops.input_grams[1]
        sig = np.linalg.eigvalsh(np.eye(n_x) + _mT(C) @ self.A @ C)
        tol = np.maximum(BLOCK_TOL, n_x * np.finfo(float).eps
                         * (1.0 + np.abs(sig - 1.0).max(axis=-1, keepdims=True)))
        self.neg_U = self.neg_S = None
        if (np.abs(sig) <= tol).any():
            self._dense_small_space()
            return
        # S = I + Z H_U^-1 Z^T = I + (Z Z^T - Z _correction(Z^T)) / 2, and as Z is
        # zero off the free entries, Z _correction(Z^T) = (FHu Z)^T E (FHu Z)
        FZ = (ops.FHu @ Z).reshape(m, -1)
        S = np.eye(m) + 0.5 * (self.Z @ self.Z.T - FZ @ self._block_E(FZ).T)
        self.s, self.SV = np.linalg.eigh(symmetrize(S))
        # Haynsworth on [[H_U, Z^T], [Z, -I]]: H > 0 iff S is nonsingular and
        # has as many negative eigenvalues as H_U
        self.neg_U = n_x * int(np.count_nonzero(sig < 0.0))
        self.neg_S = int(np.count_nonzero(self.s < 0.0))
        self.pd = self.neg_S == self.neg_U and bool(np.all(self.s != 0.0))

    @cached_property
    def E(self):
        # symmetric, but not as formed from an indefinite A (a 1.6e-12 backward error)
        return symmetrize(super().E)

    def _VMVt(self, Phi):
        return super()._VMVt(Phi) + ((self.Z @ Phi.ravel()) @ self.Z).reshape(Phi.shape)

    def _correction(self, Bw):
        """Woodbury: with c = H_U's correction of Bw, w = S^-1 Z (Bw - c) and
        X = Z^T w, H's is c + (X - H_U's correction of X) / 2."""
        c = super()._correction(Bw)
        w = self.SV @ ((self.SV.T @ (self.Z @ (Bw - c).ravel())) / self.s)
        X = (w @ self.Z).reshape(Bw.shape)
        return c + 0.5 * (X - super()._correction(X))

    def _dense_small_space(self):
        """The fallback when a block of H_U is singular, in the stacked layout
        y = V^T Phi, V = [U, Z^T], M = blkdiag(I kron A, I): form G = V^T D^-1 V,
        decide PD from I + R^T M R with R the pivoted Cholesky factor of G,
        cut at its numerical rank (H is congruent to I + D^-1/2 V M V^T D^-1/2,
        whose second term has the nonzero eigenvalues of R^T M R), and solve by
        Woodbury, D^-1 V (I + M G)^-1 M V^T D^-1, which needs no M^-1 and holds
        at lam = 0, with the LU factor of I + M G, in place of `_correction`."""
        import scipy.linalg

        FHu, Z, A, Q, free = self.FHu, self.Z, self.A, self.Q, self.free
        qq, n_x = free.shape[1], A.shape[0]
        k = qq * n_x  # M_U = I kron A acts on the first k entries of y

        def M(y):
            return np.concatenate([(A @ y[:k].reshape(qq, n_x, -1)).reshape(y[:k].shape), y[k:]])

        GUZ = 0.5 * (FHu @ Z.reshape(-1, *free.shape)).swapaxes(1, 2).reshape(Z.shape[0], -1).T
        GUU = 0.5 * np.eye(qq)[:, None, :, None] * Q[np.arange(qq) // n_x][:, :, None, :]
        G = symmetrize(np.block([[GUU.reshape(k, -1), GUZ], [GUZ.T, 0.5 * Z @ Z.T]]))
        c, piv, rank, _ = scipy.linalg.lapack.dpstrf(G, lower=1)
        R = np.zeros((G.shape[0], rank))
        R[piv - 1] = np.tril(c)[:, :rank]
        try:
            np.linalg.cholesky(symmetrize(np.eye(rank) + R.T @ M(R)))
        except np.linalg.LinAlgError:
            self.pd = False
            return
        self.pd = True
        lu = scipy.linalg.lu_factor(np.eye(G.shape[0]) + M(G), check_finite=False)

        def correction(Bw):
            y = M(np.concatenate([(FHu @ Bw).reshape(-1, order="F"), Z @ Bw.ravel()]))
            y = scipy.linalg.lu_solve(lu, y, check_finite=False)
            U = FHu.T @ y[:k].reshape(n_x, -1, order="F")
            return 0.5 * (U * free + (y[k:] @ Z).reshape(U.shape))

        self._correction = correction


def _curvature(ops, lam, mask, term=None):
    """The causal Hessian of J at the terminal kernel term, or with term None
    the CCP curvature H0 of J2 + J3, ready to solve with at every horizon: H0
    in closed form, also at lam = 0 where H = H0, else H = H_U + Z^T Z."""
    if term is None or lam == 0.0:
        return _ConvexCurvature(ops, lam, mask)
    return _StructuredCurvature(ops, lam, mask, term)


def hessian_theta(ops, lam, Theta, mask=None):
    """Exact Hessian of J with respect to vec(Theta) (column stacking),
    Stilde kron 2P plus the Frechet term of J4 (see the module docstring);
    with a CausalityMask only its block on mask.free_entries.  Exactly symmetric.
    """
    idx = np.arange(np.size(Theta)) if mask is None else mask.free_entries
    term = _terminal(ops, Theta) if lam != 0.0 else None
    return _hessian_block(ops, lam, idx, term)


def evaluate(ops, lam, policy, mask=None):
    """Evaluate J, its decomposition, the terminal law, and the gradients.

    When a CausalityMask is supplied the policy must already satisfy it.
    """
    if mask is not None and not mask.is_causal(policy.Theta):
        raise ValueError("policy violates the causality pattern")

    v = _values(ops, lam, policy.u_ff, policy.Theta)
    return ObjectiveReport(
        J=float(v.J), J1=float(v.J1), J2=float(v.J2), J3=float(v.J3), J4=float(v.J4),
        W2_sq=float(v.W2_sq),
        cost_to_go=float(v.uu + v.J2),
        terminal=Gaussian(mean=v.mean, cov=v.term.Y),
        grad_uff=grad_uff(ops, lam, policy.u_ff),
        grad_theta=_grad_theta(ops, lam, v.ThS, v.term),
        kernel=v.term,
    )


def stationarity_residual(ops, lam, policy, mask):
    """Norm of the J gradient projected on the free (causal) entries of Theta.

    The input Theta is projected onto the causal pattern first, so entries on
    the constrained complement never influence the result; the Lagrangian
    stationarity condition holds iff this residual vanishes, because the
    multiplier terms are supported exactly on the complement.
    """
    Theta = mask.project(policy.Theta)
    return float(np.linalg.norm(mask.gather(grad_theta(ops, lam, Theta))))


def convexity_certificate(ops, lam, Theta, mode="dominance"):
    """Check the sufficient convexity condition at the given Theta.

    mode "dominance" tests lambda_min(Omega Stilde Omega^T - Sd) >= -tol with
    tol = 1e-10 max(1, lambda_max(Omega Stilde Omega^T)) (terminal covariance
    dominates Sd in the Loewner order, which implies a PD Hessian); mode
    "spectral" reports the minimum eigenvalue of the Hessian over the causal
    entries of Theta, the matrix Newton factors.
    """
    if mode not in ("dominance", "spectral"):
        raise ValueError(f"unknown certificate mode {mode!r}")
    term = _terminal(ops, Theta)
    gap = float(np.linalg.eigvalsh(term.Y - ops.Sd)[0])
    if mode == "dominance":
        tol = 1e-10 * max(1.0, float(term.Y_eigvals[-1]))
        kind = "DominatedCovariance" if gap >= -tol else None
        return Certificate(kind=kind, dominance_gap=gap)
    mask = causality_mask(ops.N, ops.n_u, ops.n_x)
    if _structured(ops):
        Hmin = float(_StructuredCurvature(ops, lam, mask, term).lambda_min())
    else:
        Hmin = float(np.linalg.eigvalsh(_hessian_block(ops, lam, mask.free_entries, term))[0])
    kind = "HessianPD" if Hmin > 0.0 else None
    return Certificate(kind=kind, dominance_gap=gap, lambda_min_hessian=Hmin)
