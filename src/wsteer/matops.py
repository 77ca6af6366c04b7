"""Dense Kronecker-calculus kernels and PSD matrix-function primitives.

All vectorization follows the column-stacking convention: vec(M) stacks the
columns of M top to bottom, so vec(A X B) = (B^T kron A) vec(X) holds for the
`kron` defined here.  Every function is pure and safe to call concurrently.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndefiniteBeyondToleranceError,
    NotPDError,
    NotSymmetricError,
    SingularMatrixError,
)

# Reject explicit inverses below this reciprocal condition number.
RCOND_GUARD = 1e-13


def _as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def symmetrize(S):
    """Return (S + S^T)/2, for one matrix or each matrix of a stack."""
    S = np.asarray(S, dtype=float)
    if S.ndim < 2:
        raise DimensionMismatchError(f"S must be 2-D, got ndim={S.ndim}")
    if not np.isfinite(S).all():
        raise ValueError("S contains non-finite entries")
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def check_symmetric(S, sym_tol=None, name="S"):
    """Raise NotSymmetricError if max|S - S^T| exceeds the tolerance.

    Default tolerance is 1e-10 * max|S|, the drift expected from accumulated
    Kronecker products.
    """
    S = _as_matrix(S, name)
    if S.shape[0] != S.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got {S.shape}")
    if sym_tol is None:
        sym_tol = 1e-10 * np.abs(S).max()
    skew = np.abs(S - S.T).max()
    if skew > sym_tol:
        raise NotSymmetricError(
            f"{name} is not symmetric: max|S - S^T| = {skew:.3e} > tol {sym_tol:.3e}"
        )
    return S


def require_conditioned(vals, what, error=NotPDError, rcond=RCOND_GUARD):
    """Raise `error` unless min(vals) > rcond * max(max(vals), 0).

    The one positive-definiteness, conditioning and rank rule of the package.
    vals is a spectrum the caller already has, sorted either way (eigvalsh
    returns it ascending, svd descending), or a stack of them along the last
    axis, tested in order; rcond = 0 is the plain positive definiteness test,
    and a NaN in either end always fails.
    """
    vals = np.asarray(vals, dtype=float)
    for a, b in zip(vals[..., 0].ravel().tolist(), vals[..., -1].ravel().tolist()):
        lo, hi = (a, b) if a <= b else (b, a)
        if not lo > rcond * max(hi, 0.0):
            raise error(f"{what}: min {lo:.3e} <= {rcond:g} * max {hi:.3e}")


def as_spd_matrix(S, name="S"):
    """S checked symmetric, symmetrized, and checked positive definite."""
    S = symmetrize(check_symmetric(S, name=name))
    require_conditioned(np.linalg.eigvalsh(S), f"{name} is not positive definite", rcond=0.0)
    return S


def vec(M):
    """Column-stack M into a vector of length rows*cols."""
    return _as_matrix(M, "M").reshape(-1, order="F")


def kron(A, B):
    """Standard Kronecker product A kron B."""
    return np.kron(_as_matrix(A, "A"), _as_matrix(B, "B"))


def kron_sum(A, B):
    """Kronecker sum A kron I + I kron B for square A (n x n), B (m x m)."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if A.shape[0] != A.shape[1] or B.shape[0] != B.shape[1]:
        raise DimensionMismatchError(
            f"kron_sum needs square operands, got {A.shape} and {B.shape}"
        )
    n, m = A.shape[0], B.shape[0]
    return np.kron(A, np.eye(m)) + np.kron(np.eye(n), B)


def commutation_matrix(m, n):
    """Dense permutation K with K @ vec(M) = vec(M^T) for every m-by-n M.

    For m = n the result is symmetric and involutory.
    """
    if m < 1 or n < 1:
        raise DimensionMismatchError("commutation_matrix needs m, n >= 1")
    K = np.zeros((m * n, m * n))
    src = np.arange(m * n)
    r = src % m
    c = src // m
    K[r * n + c, src] = 1.0
    return K


def commutation_apply(X, m, n):
    """Apply K_{m,n} to a vector or to each column of a matrix without
    materializing the permutation.

    Agrees bit-for-bit with commutation_matrix(m, n) @ X.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] != m * n:
        raise DimensionMismatchError(
            f"leading dimension {X.shape[0]} != m*n = {m * n}"
        )
    if X.ndim == 1:
        return X.reshape((m, n), order="F").reshape(-1, order="C")
    k = X.shape[1]
    cube = X.reshape((m, n, k), order="F")
    return cube.transpose(1, 0, 2).reshape((m * n, k), order="F")


def sqrtm_psd(S, clamp_tol=None):
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-clamp_tol, 0) are clamped to zero; anything below raises.
    Default clamp_tol is 1e-12 * max eigenvalue.
    """
    S = symmetrize(check_symmetric(S, name="S"))
    eigvals, V = np.linalg.eigh(S)
    if clamp_tol is None:
        clamp_tol = 1e-12 * max(eigvals[-1], 0.0)
    if eigvals[0] < -clamp_tol:
        raise IndefiniteBeyondToleranceError(
            f"matrix has eigenvalue {eigvals[0]:.3e} below -clamp_tol {-clamp_tol:.3e}"
        )
    root = np.sqrt(np.clip(eigvals, 0.0, None))
    R = (V * root) @ V.T
    return 0.5 * (R + R.T)


def pd_inverse(S, rcond=RCOND_GUARD):
    """Inverse of a symmetric PD matrix with a reciprocal-condition guard."""
    S = symmetrize(check_symmetric(S, name="S"))
    eigvals, V = np.linalg.eigh(S)
    require_conditioned(eigvals, "S is singular", SingularMatrixError, rcond=rcond)
    Si = (V / eigvals) @ V.T
    return 0.5 * (Si + Si.T)


def geometric_mean(A, B):
    """Matrix geometric mean of two symmetric PD matrices.

    Computed as A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2); satisfies
    A#A = A, A#B = B#A and (A#B)^(-1) = A^(-1)#B^(-1).
    """
    A = as_spd_matrix(A, "A")
    B = as_spd_matrix(B, "B")
    if A.shape != B.shape:
        raise DimensionMismatchError(
            f"geometric_mean operands differ in shape: {A.shape} vs {B.shape}"
        )
    eigvals, V = np.linalg.eigh(A)
    root = np.sqrt(eigvals)
    A_half = (V * root) @ V.T
    A_ihalf = (V / root) @ V.T
    inner = symmetrize(A_ihalf @ B @ A_ihalf)
    out = A_half @ sqrtm_psd(inner) @ A_half
    return 0.5 * (out + out.T)


def jac_axb(A, B):
    """Jacobian of X -> A X B under d vec F = DF d vec X, namely B^T kron A."""
    return np.kron(_as_matrix(B, "B").T, _as_matrix(A, "A"))


def jac_xxt(X):
    """Jacobian of X -> X X^T: (I + K0)(X kron I), K0 of the output dimension."""
    X = _as_matrix(X, "X")
    m = X.shape[0]
    P = np.kron(X, np.eye(m))
    return P + commutation_apply(P, m, m)


def jac_xsxt(X, S):
    """Jacobian of X -> X S X^T for symmetric S: (I + K0)(X S kron I)."""
    X = _as_matrix(X, "X")
    S = check_symmetric(S, name="S")
    if S.shape[0] != X.shape[1]:
        raise DimensionMismatchError(
            f"S side {S.shape[0]} does not match X cols {X.shape[1]}"
        )
    m = X.shape[0]
    P = np.kron(X @ S, np.eye(m))
    return P + commutation_apply(P, m, m)


def jac_inv(X):
    """Jacobian of X -> X^(-1): -(X^(-T) kron X^(-1)), with a condition guard."""
    X = _as_matrix(X, "X")
    if X.shape[0] != X.shape[1]:
        raise DimensionMismatchError(f"jac_inv needs a square matrix, got {X.shape}")
    require_conditioned(np.linalg.svd(X, compute_uv=False), "X is singular", SingularMatrixError)
    Xi = np.linalg.inv(X)
    return -np.kron(Xi.T, Xi)


def jac_sqrt_psd(S):
    """Jacobian of the PSD square root on symmetric matrices.

    Equals the inverse Kronecker sum (S^(1/2) kronsum S^(1/2))^(-1); exact on
    symmetric perturbation directions.
    """
    S = as_spd_matrix(S, "S")
    R = sqrtm_psd(S)
    return np.linalg.inv(kron_sum(R, R))
