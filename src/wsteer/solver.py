"""Policy computation: closed-form feedforward, convex-concave iteration on the
causal feedback gain, and optional guarded Newton refinement.

The objective splits into a convex quadratic part J1 + J2 + J3 and a convex
part J4 entering with a minus sign.  Each convex-concave step linearizes J4 at
the current iterate and minimizes the remaining convex quadratic over the
causal subspace; the curvature of that subproblem is constant, so its reduced
normal matrix is factored once and reused every iteration.  This guarantees
monotone descent of J.  When the reduced Hessian is positive definite, damped
Newton steps drive the projected gradient to zero with a quadratic tail.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import HessianNotPDError, ValidationError, WsteerError
from .objective import (
    Policy,
    _hessian_block,
    convexity_certificate,
    evaluate,
    grad_theta_j4,
    hessian_theta,
    stationarity_residual,
)
from .problem import assemble, causality_mask, validate
from .simulate import theta_to_k


@dataclass(frozen=True)
class SolverOptions:
    max_ccp_iters: int = 200
    obj_rel_tol: float = 1e-10
    stationarity_tol: float = 1e-6
    theta_init: Optional[np.ndarray] = None
    newton: str = "off"  # "off" | "when_certified"
    newton_max_iters: int = 20

    def __post_init__(self):
        if self.max_ccp_iters < 1:
            raise ValueError("max_ccp_iters must be >= 1")
        if not (self.obj_rel_tol > 0.0 and self.stationarity_tol > 0.0):
            raise ValueError("tolerances must be > 0")
        if self.newton not in ("off", "when_certified"):
            raise ValueError(f"unknown newton mode {self.newton!r}")
        if self.newton_max_iters < 1:
            raise ValueError("newton_max_iters must be >= 1")


@dataclass(frozen=True)
class IterRecord:
    k: int
    kind: str  # "init" | "ccp" | "newton"
    J: float
    J1: float
    J2: float
    J3: float
    J4: float
    residual: float


@dataclass
class SolveTrace:
    records: list = field(default_factory=list)
    termination: str = ""

    @property
    def iterations(self):
        return len([r for r in self.records if r.kind != "init"])

    @property
    def converged(self):
        return self.termination == "stationarity"


@dataclass(frozen=True)
class Solution:
    u_ff: np.ndarray
    Theta: np.ndarray
    K: np.ndarray
    report: object
    trace: SolveTrace

    @property
    def certificate(self):
        return self.report.certificate


def solve_feedforward(ops, lam, mu0=None, mud=None):
    """Unique optimal feedforward from the PD normal equations.

    Solves (I + lam FHu^T FHu) u = lam FHu^T (mud - F Gamma mu0) by Cholesky.
    """
    mu0 = ops.mu0 if mu0 is None else np.asarray(mu0, dtype=float).reshape(-1)
    mud = ops.mud if mud is None else np.asarray(mud, dtype=float).reshape(-1)
    FHu = ops.FHu
    m = FHu.shape[1]
    A = np.eye(m) + lam * (FHu.T @ FHu)
    rhs = lam * (FHu.T @ (mud - ops.Gamma[-ops.n_x:, :] @ mu0))
    c, low = scipy.linalg.cho_factor(A)
    return scipy.linalg.cho_solve((c, low), rhs)


def solve_feedforward_woodbury(ops, lam, mu0=None, mud=None):
    """Feedforward via the matrix-inversion-lemma form, as a cross-check.

    u = (I - lam FHu^T (I + lam FHu FHu^T)^(-1) FHu) lam FHu^T (mud - F Gamma mu0).
    """
    mu0 = ops.mu0 if mu0 is None else np.asarray(mu0, dtype=float).reshape(-1)
    mud = ops.mud if mud is None else np.asarray(mud, dtype=float).reshape(-1)
    FHu = ops.FHu
    d = mud - ops.Gamma[-ops.n_x:, :] @ mu0
    small = np.eye(ops.n_x) + lam * (FHu @ FHu.T)
    c, low = scipy.linalg.cho_factor(small)
    v = lam * (FHu.T @ d)
    return v - lam * (FHu.T @ scipy.linalg.cho_solve((c, low), FHu @ v))


def _reduced_curvature_factor(ops, lam, mask):
    """Cholesky factor of the causal restriction of the CCP curvature
    Stilde kron 2(I + lam FHu^T FHu), the Hessian of J without the J4 terms."""
    return scipy.linalg.cho_factor(_hessian_block(ops, lam, mask.free_entries))


def _subproblem_rhs(ops, lam, Theta_k, mask):
    """Right-hand side of the reduced normal equations at the linearization point."""
    G4 = grad_theta_j4(ops, lam, Theta_k)
    const = 2.0 * lam * (ops.FHu.T @ ops.Stilde[-ops.n_x:, :])
    rhs_full = (G4 - const).reshape(-1, order="F")
    return rhs_full[mask.free_entries]


def _theta_from_free(mask, theta_free):
    flat = np.zeros(mask.theta_shape[0] * mask.theta_shape[1])
    flat[mask.free_entries] = theta_free
    return flat.reshape(mask.theta_shape, order="F")


def ccp_subproblem(ops, lam, Theta_k, mask, factor=None):
    """One convex-concave step: minimize J2 + J3 - <grad J4(Theta_k), Theta>
    over causal Theta.  `factor` is the cached Cholesky factor of the reduced
    curvature; it is recomputed when not supplied.
    """
    if factor is None:
        factor = _reduced_curvature_factor(ops, lam, mask)
    rhs = _subproblem_rhs(ops, lam, Theta_k, mask)
    theta_free = scipy.linalg.cho_solve(factor, rhs)
    return _theta_from_free(mask, theta_free)


def ccp_solve(ops, lam, mask, options=None, u_ff=None):
    """Iterate the convex-concave step from theta_init until the relative J
    decrease or the projected stationarity residual crosses its tolerance.

    Returns (Theta, SolveTrace).  On hitting max_ccp_iters the best (last)
    iterate is returned with trace.termination == "max_iters".
    """
    options = options or SolverOptions()
    if u_ff is None:
        u_ff = np.zeros(ops.N * ops.n_u)
    if options.theta_init is None:
        Theta = np.zeros((ops.N * ops.n_u, (ops.N + 1) * ops.n_x))
    else:
        Theta = mask.project(np.asarray(options.theta_init, dtype=float))

    factor = _reduced_curvature_factor(ops, lam, mask)
    trace = SolveTrace()

    def _record(k, kind, Theta_k):
        rep = evaluate(ops, lam, Policy(u_ff, Theta_k), mask)
        # Theta_k is causal, so this is stationarity_residual at Theta_k
        G = rep.grad_theta.reshape(-1, order="F")[mask.free_entries]
        res = float(np.linalg.norm(G))
        trace.records.append(IterRecord(
            k=k, kind=kind, J=rep.J, J1=rep.J1, J2=rep.J2, J3=rep.J3,
            J4=rep.J4, residual=res,
        ))
        return rep.J, res

    J_prev, res = _record(0, "init", Theta)
    if res <= options.stationarity_tol:
        trace.termination = "stationarity"
        return Theta, trace

    for k in range(1, options.max_ccp_iters + 1):
        try:
            Theta = ccp_subproblem(ops, lam, Theta, mask, factor=factor)
        except WsteerError as e:
            raise type(e)(f"CCP iteration {k}: {e}") from e
        J, res = _record(k, "ccp", Theta)
        if res <= options.stationarity_tol:
            trace.termination = "stationarity"
            return Theta, trace
        if J_prev - J < options.obj_rel_tol * max(1.0, abs(J_prev)):
            trace.termination = "objective_stalled"
            return Theta, trace
        J_prev = J

    trace.termination = "max_iters"
    return Theta, trace


def newton_refine(ops, lam, Theta, mask, options=None, u_ff=None, trace=None):
    """Damped Newton on the free entries, guarded by reduced-Hessian PD.

    Raises HessianNotPDError when the reduced Hessian fails its Cholesky at
    the current iterate (caller falls back to the CCP iterate); never returns
    a Theta with larger J than the input.
    """
    options = options or SolverOptions()
    if u_ff is None:
        u_ff = np.zeros(ops.N * ops.n_u)
    Theta = mask.project(np.asarray(Theta, dtype=float))
    free = mask.free_entries

    rep = evaluate(ops, lam, Policy(u_ff, Theta), mask)
    base_iter = trace.records[-1].k if trace and trace.records else 0

    for k in range(1, options.newton_max_iters + 1):
        g = rep.grad_theta.reshape(-1, order="F")[free]
        res = float(np.linalg.norm(g))
        if res <= options.stationarity_tol:
            break
        H = hessian_theta(ops, lam, Theta, mask)
        try:
            c, low = scipy.linalg.cho_factor(H)
        except np.linalg.LinAlgError as e:
            raise HessianNotPDError(
                f"reduced Hessian not PD at Newton iteration {k}"
            ) from e
        step = scipy.linalg.cho_solve((c, low), g)

        t = 1.0
        accepted = False
        for _ in range(60):
            cand = _theta_from_free(mask, Theta.reshape(-1, order="F")[free] - t * step)
            rep_c = evaluate(ops, lam, Policy(u_ff, cand), mask)
            if rep_c.J <= rep.J:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        Theta, rep = cand, rep_c
        if trace is not None:
            res_new = stationarity_residual(ops, lam, Policy(u_ff, Theta), mask)
            trace.records.append(IterRecord(
                k=base_iter + k, kind="newton", J=rep_c.J, J1=rep_c.J1,
                J2=rep_c.J2, J3=rep_c.J3, J4=rep_c.J4, residual=res_new,
            ))
    return Theta


def solve(problem, options=None):
    """Full solve: feedforward, CCP (optionally Newton-refined), transforms,
    final report with a convexity certificate.

    Raises ValidationError when the problem data fail `validate`.
    """
    options = options or SolverOptions()
    violations = validate(problem)
    if violations:
        raise ValidationError(violations)

    ops = assemble(problem)
    mask = causality_mask(ops.N, ops.n_u, ops.n_x)
    lam = problem.lam

    u_star = solve_feedforward(ops, lam)
    Theta, trace = ccp_solve(ops, lam, mask, options, u_ff=u_star)

    if options.newton == "when_certified":
        try:
            Theta = newton_refine(ops, lam, Theta, mask, options,
                                  u_ff=u_star, trace=trace)
            if trace.records and trace.records[-1].residual <= options.stationarity_tol:
                trace.termination = "stationarity"
        except HessianNotPDError:
            pass  # keep the CCP iterate

    cert = convexity_certificate(ops, lam, Theta, mode="dominance")
    if cert.kind is None:
        cert = convexity_certificate(ops, lam, Theta, mode="spectral")

    policy = Policy(u_star, Theta)
    report = replace(evaluate(ops, lam, policy, mask), certificate=cert)
    K = theta_to_k(Theta, ops.Hu)
    return Solution(u_ff=u_star, Theta=Theta, K=K, report=report, trace=trace)


@dataclass(frozen=True)
class LineScanSample:
    gamma: float
    J: float
    J1: float
    J2: float
    J3: float
    J4: float


def line_scan(ops, lam, policy_a, policy_b, grid):
    """Evaluate J along the affine segment between two policies.

    g(gamma) = (1 - gamma) a + gamma b interpolates both u_ff and Theta, so
    gamma = 0 and 1 reproduce the endpoint evaluations exactly.  Returns one
    LineScanSample per grid point.
    """
    grid = np.asarray(grid, dtype=float)
    a, b = policy_a, policy_b
    samples = []
    for g in grid:
        pol = Policy((1.0 - g) * a.u_ff + g * b.u_ff, (1.0 - g) * a.Theta + g * b.Theta)
        try:
            rep = evaluate(ops, lam, pol)
        except WsteerError as e:
            raise type(e)(f"at gamma={g}: {e}") from e
        samples.append(LineScanSample(
            gamma=float(g), J=rep.J, J1=rep.J1, J2=rep.J2, J3=rep.J3, J4=rep.J4,
        ))
    return samples


def count_strict_local_minima(values):
    """Number of interior grid points strictly below both neighbors."""
    v = np.asarray(values, dtype=float)
    return int(np.sum((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])))
