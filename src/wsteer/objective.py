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
W diag(1/r) W^T of the J4 gradient.  The Hessian of J in vec(Theta) is

    H = Stilde kron 2P + Z^T Z,  P = I + lam sym(FHu^T (I - Mt) FHu),

with Z = sqrt(lam g) * (T + K T), T = (W^T Omega Stilde) kron (W^T FHu) (n_x^2
rows), K the commutation matrix and g = vec(G), G_ij = 1/(r_i r_j (r_i + r_j)).
The second term is the Frechet derivative of C^(-1/2), diagonal in the
eigenbasis.  The CCP curvature is the first term with Mt = 0.  The solver
builds both only on the causal entries of Theta.  `_terminal` and `_values`
(J1..J4 and the W2 check) also take a stack of policies along leading axes,
with the bits of each member equal to those of a lone policy; `line_scan`
evaluates its grid that way.
"""

from dataclasses import dataclass
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

    @classmethod
    def zeros(cls, N, n_u, n_x):
        return cls(np.zeros(N * n_u), np.zeros((N * n_u, (N + 1) * n_x)))


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

    Om: np.ndarray          # Omega = F(I + Hu Theta)
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
    NotPDError when Sd is not positive definite and
    SingularTerminalCovarianceError when Y or C of any member fails its
    conditioning guard.
    """
    if ops.sqrt_Sd is None:
        raise NotPDError("desired covariance Sd is not positive definite")
    Om = omega(ops, Theta)
    Y = symmetrize(Om @ ops.Stilde @ _mT(Om))
    y = np.linalg.eigvalsh(Y)
    require_conditioned(y, "terminal covariance is singular", SingularTerminalCovarianceError)
    c, V = np.linalg.eigh(symmetrize(ops.sqrt_Sd @ Y @ ops.sqrt_Sd))
    require_conditioned(c, "Sd^1/2 Y Sd^1/2 is not PD", SingularTerminalCovarianceError, rcond=0.0)
    r = np.sqrt(c)
    return _Terminal(Om=Om, Y=Y, Y_eigvals=y, trace_root=np.sum(r, axis=-1),
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
    J2 = np.trace(Theta @ ops.Stilde @ _mT(Theta), axis1=-2, axis2=-1)
    J3 = lam * (trace_Y + trace_Sd)
    J4 = 2.0 * lam * term.trace_root
    return _Values(
        J=J1 + J2 + J3 - J4, J1=J1, J2=J2, J3=J3, J4=J4,
        W2_sq=_w2_sq(dd, trace_Y, trace_Sd, term.trace_root),
        uu=uu, mean=mean, term=term,
    )


def grad_uff(ops, lam, u_ff):
    """Gradient of J with respect to u_ff: 2 u_ff + 2 lam FHu^T (mean - mud)."""
    u_ff = np.asarray(u_ff, dtype=float).reshape(-1)
    mean = ops.FGamma_mu0 + ops.FHu @ u_ff
    return 2.0 * u_ff + 2.0 * lam * (ops.FHu.T @ (mean - ops.mud))


def _grad_j4(ops, lam, term):
    return 2.0 * lam * (ops.FHu.T @ term.Mt @ term.Om @ ops.Stilde)


def grad_theta_j4(ops, lam, Theta):
    """Gradient of the concave-side term J4 alone.

    Equals 2 lam FHu^T (Sd # (Omega Stilde Omega^T)^(-1)) Omega Stilde.
    """
    if lam == 0.0:
        return np.zeros_like(np.asarray(Theta, dtype=float))
    return _grad_j4(ops, lam, _terminal(ops, Theta))


def _grad_theta(ops, lam, Theta, term):
    G = 2.0 * Theta @ ops.Stilde
    if lam != 0.0:
        G = G + 2.0 * lam * (ops.FHu.T @ term.Om @ ops.Stilde)
        G = G - _grad_j4(ops, lam, term)
    return G


def grad_theta(ops, lam, Theta):
    """Full (unprojected) gradient of J with respect to Theta."""
    Theta = np.asarray(Theta, dtype=float)
    term = _terminal(ops, Theta) if lam != 0.0 else None
    return _grad_theta(ops, lam, Theta, term)


def _hessian_block(ops, lam, idx, term=None):
    """Rows and columns idx of the Hessian of J in vec(Theta), symmetric by
    construction; with term None, of J2 + J3 alone (the CCP curvature).
    Entry c p + r of vec(Theta) is Theta[r, c], so (Stilde kron 2P)[i, j] is
    Stilde[c_i, c_j] 2P[r_i, r_j] and column i of T is A[:, c_i] kron B[:, r_i].
    """
    FHu = ops.FHu
    c, r = np.divmod(idx, FHu.shape[1])
    R = FHu if term is None else FHu - term.Mt @ FHu
    P2 = 2.0 * (np.eye(FHu.shape[1]) + lam * symmetrize(FHu.T @ R))
    H = ops.Stilde[c[:, None], c]
    H *= P2[r[:, None], r]  # in place: one full-size temporary fewer
    if term is not None:
        n_x, s = ops.n_x, term.r
        g = 1.0 / (np.outer(s, s) * np.add.outer(s, s))
        A, B = term.W.T @ term.Om @ ops.Stilde, term.W.T @ FHu
        T = (A[:, None, c] * B[None, :, r]).reshape(n_x * n_x, -1)
        Z = np.sqrt(lam * g).reshape(-1, 1) * (T + commutation_apply(T, n_x, n_x))
        H += Z.T @ Z
    return H


def hessian_theta(ops, lam, Theta, mask=None):
    """Exact Hessian of J with respect to vec(Theta) (column stacking).

    Stilde kron 2P, with P = I + lam sym(FHu^T (I - Mt) FHu), plus the
    rank-n_x^2 Frechet term of J4 in the eigenbasis of
    C = Sd^(1/2) Y Sd^(1/2); see the module docstring.  With a CausalityMask
    only the block on mask.free_entries is built.  Exactly symmetric.
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

    u = policy.u_ff
    Theta = policy.Theta
    v = _values(ops, lam, u, Theta)
    return ObjectiveReport(
        J=float(v.J), J1=float(v.J1), J2=float(v.J2), J3=float(v.J3), J4=float(v.J4),
        W2_sq=float(v.W2_sq),
        cost_to_go=float(v.uu + v.J2),
        terminal=Gaussian(mean=v.mean, cov=v.term.Y),
        grad_uff=grad_uff(ops, lam, u),
        grad_theta=_grad_theta(ops, lam, Theta, v.term),
    )


def stationarity_residual(ops, lam, policy, mask):
    """Norm of the J gradient projected on the free (causal) entries of Theta.

    The input Theta is projected onto the causal pattern first, so entries on
    the constrained complement never influence the result; the Lagrangian
    stationarity condition holds iff this residual vanishes, because the
    multiplier terms are supported exactly on the complement.
    """
    Theta = mask.project(policy.Theta)
    G = grad_theta(ops, lam, Theta)
    return float(np.linalg.norm(G.reshape(-1, order="F")[mask.free_entries]))


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
    free = causality_mask(ops.N, ops.n_u, ops.n_x).free_entries
    Hmin = float(np.linalg.eigvalsh(_hessian_block(ops, lam, free, term))[0])
    kind = "HessianPD" if Hmin > 0.0 else None
    return Certificate(kind=kind, dominance_gap=gap, lambda_min_hessian=Hmin)
