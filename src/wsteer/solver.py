"""Policy computation: closed-form feedforward, then convex-concave iteration
on the causal feedback gain that hands over to guarded Newton once it crawls.

The objective splits into a convex quadratic part J1 + J2 + J3 and a convex
part J4 entering with a minus sign.  Each convex-concave step linearizes J4 at
the current iterate and minimizes the remaining convex quadratic over the
causal subspace.  That quadratic has the constant curvature H0 of J2 + J3, so
its minimizer is Theta_k - H0^(-1) grad J(Theta_k) on the free entries: the
Newton step with J4's curvature dropped, taken from the gradient the iterate
already has and a factor of H0 computed once.  This guarantees monotone
descent of J, but only a linear rate, which at large lambda is a crawl.  Once
the residual ratio shows that crawl, damped Newton steps, guarded by a
positive definite reduced Hessian and a line search that lets J rise only
within its evaluation noise, and then only when the projected residual falls,
drive the projected gradient to zero with a quadratic tail; when Newton
fails, CCP resumes from its iterate.  `objective._curvature` inverts H0 in
closed form, and each Newton step's H = H_U + Z^T Z by the same block closed
form plus a Woodbury border for Z, at every horizon.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    HessianNotPDError,
    NonFiniteError,
    ValidationError,
    WsteerError,
)
from .objective import (
    Policy,
    _curvature,
    _values,
    convexity_certificate,
    evaluate,
    grad_theta,
    grad_theta_j4,  # noqa: F401  (unused here; the benchmark tracer wraps this name)
    hessian_theta,  # noqa: F401  (unused here; the benchmark tracer wraps this name)
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
    newton: str = "when_certified"  # or "off": pure CCP
    newton_max_iters: int = 20

    def __post_init__(self):
        if self.max_ccp_iters < 1:
            raise ValueError("max_ccp_iters must be >= 1")
        for name in ("obj_rel_tol", "stationarity_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {tol!r}")
        if self.newton not in ("off", "when_certified"):
            raise ValueError(f"unknown newton mode {self.newton!r}")
        if self.newton_max_iters < 1:
            raise ValueError("newton_max_iters must be >= 1")
        if self.theta_init is not None:
            T = np.asarray(self.theta_init, dtype=float)
            if T.ndim != 2:
                raise ValueError(f"theta_init must be a 2-D matrix, got shape {T.shape}")
            if not np.isfinite(T).all():
                raise ValueError("theta_init holds an inf or NaN entry")


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


def _iter_record(k, kind, rep, residual):
    """The IterRecord of step k from the ObjectiveReport at its iterate."""
    return IterRecord(k=k, kind=kind, J=rep.J, J1=rep.J1, J2=rep.J2, J3=rep.J3,
                      J4=rep.J4, residual=residual)


@dataclass
class SolveTrace:
    records: list = field(default_factory=list)
    # "stationarity" | "objective_stalled" | "max_iters" | "newton_max_iters" | "switch"
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


def solve_feedforward(ops, lam):
    """Unique optimal feedforward from the normal equations
    (I + lam FHu^T FHu) u = lam FHu^T (mud - F Gamma mu0), whose matrix has
    eigenvalues >= 1, so an LU solve is as accurate as Cholesky.
    """
    FHu = ops.FHu
    A = np.eye(FHu.shape[1]) + lam * (FHu.T @ FHu)
    return np.linalg.solve(A, lam * (FHu.T @ (ops.mud - ops.FGamma_mu0)))


def solve_feedforward_woodbury(ops, lam):
    """Feedforward via the matrix-inversion-lemma form, as a cross-check.

    u = (I - lam FHu^T (I + lam FHu FHu^T)^(-1) FHu) lam FHu^T (mud - F Gamma mu0).
    """
    FHu = ops.FHu
    small = np.eye(ops.n_x) + lam * (FHu @ FHu.T)
    v = lam * (FHu.T @ (ops.mud - ops.FGamma_mu0))
    return v - lam * (FHu.T @ np.linalg.solve(small, FHu @ v))


# Switch rule of solve() with newton="when_certified".  After step k of a CCP
# run (k at least the run's first switch step), with rho = res_k / res_(k-1),
# CCP hands over to Newton when rho >= 1 or when linear convergence at rate
# rho would need more than SWITCH_CRAWL_STEPS further steps to reach the
# tolerance.  A stall and the max_ccp_iters cap hand over too.
SWITCH_FIRST_STEP = 3
SWITCH_CRAWL_STEPS = 20
# CCP steps after a failed Newton phase before the rule may fire again; the
# back-off doubles after each failure.
NEWTON_BACKOFF_STEPS = 10
# Newton's line search lets J rise by at most this many eps (J1 + J2 + J3 + J4)
# when the step lowers the projected residual.
NEWTON_ROUNDOFF = 4


def _curvature_solve(factor, rhs):
    """Solve with a curvature factor from `objective._curvature`; only the
    O(n) right-hand side is scanned for non-finite entries."""
    if not np.isfinite(rhs).all():
        raise NonFiniteError("right-hand side of the reduced normal equations is not finite")
    return factor.solve(rhs)


def _reduced_curvature_factor(ops, lam, mask):
    """The causal restriction of the CCP curvature Stilde kron 2(I + lam FHu^T FHu),
    the Hessian of J without the J4 terms, ready for `_curvature_solve`."""
    return _curvature(ops, lam, mask)


def ccp_subproblem(ops, lam, Theta_k, mask, factor=None, grad=None):
    """One convex-concave step from the causal Theta_k: the minimizer of
    J2 + J3 - <grad J4(Theta_k), Theta> over causal Theta, which is
    Theta_k - H0^(-1) grad J(Theta_k) on the free entries, H0 the constant
    curvature of J2 + J3.  `factor` is `_reduced_curvature_factor`'s H0 and
    `grad` the full gradient of J at Theta_k; each is computed when not
    supplied, with the same result.
    """
    if not mask.is_causal(Theta_k):
        raise ValueError("Theta_k violates the causality pattern")
    if factor is None:
        factor = _reduced_curvature_factor(ops, lam, mask)
    if grad is None:
        grad = grad_theta(ops, lam, Theta_k)
    return mask.scatter(mask.gather(Theta_k) - _curvature_solve(factor, mask.gather(grad)))


def _crawling(res_prev, res, tol):
    """The switch rule: the residual did not drop, or linear convergence at
    the observed rate needs more than SWITCH_CRAWL_STEPS steps to reach tol."""
    rho = res / res_prev
    return rho >= 1.0 or np.log(tol / res) / np.log(rho) > SWITCH_CRAWL_STEPS


def ccp_solve(ops, lam, mask, options=None, u_ff=None, *, resume=None, switch_after=None):
    """Iterate the convex-concave step until the projected stationarity
    residual meets its tolerance ("stationarity"), the relative J decrease
    falls below obj_rel_tol ("objective_stalled"), or max_ccp_iters CCP steps
    are spent ("max_iters").

    The run starts from options.theta_init, or continues resume = (Theta,
    trace), whose CCP records count against max_ccp_iters and to which the
    new records are appended.  With switch_after = j the run also stops, with
    termination "switch", after a step k >= j (not the last allowed one) at
    which the crawl rule fires.  Returns (Theta, SolveTrace).
    """
    options = options or SolverOptions()
    tol = options.stationarity_tol
    if u_ff is None:
        u_ff = np.zeros(ops.N * ops.n_u)

    def _record(k, kind, Theta_k):
        rep = evaluate(ops, lam, Policy(u_ff, Theta_k))
        # Theta_k is causal, so this is stationarity_residual at Theta_k
        res = float(np.linalg.norm(mask.gather(rep.grad_theta)))
        trace.records.append(_iter_record(k, kind, rep, res))
        return rep.J, res, rep.grad_theta

    if resume is None:
        if options.theta_init is None:
            Theta = np.zeros((ops.N * ops.n_u, (ops.N + 1) * ops.n_x))
        else:
            Theta = mask.project(options.theta_init, "theta_init")
        trace = SolveTrace()
        J_prev, res_prev, grad = _record(0, "init", Theta)
        if res_prev <= tol:
            trace.termination = "stationarity"
            return Theta, trace
    else:
        Theta, trace = resume
        J_prev, res_prev = trace.records[-1].J, trace.records[-1].residual
        grad = None

    factor = _reduced_curvature_factor(ops, lam, mask)
    k0 = trace.records[-1].k
    steps = options.max_ccp_iters - sum(r.kind == "ccp" for r in trace.records)
    for j in range(1, steps + 1):
        try:
            Theta = ccp_subproblem(ops, lam, Theta, mask, factor=factor, grad=grad)
        except WsteerError as e:
            raise type(e)(f"CCP iteration {k0 + j}: {e}") from e
        J, res, grad = _record(k0 + j, "ccp", Theta)
        if res <= tol:
            trace.termination = "stationarity"
            return Theta, trace
        if J_prev - J < options.obj_rel_tol * max(1.0, abs(J_prev)):
            trace.termination = "objective_stalled"
            return Theta, trace
        if (switch_after is not None and switch_after <= j < steps
                and _crawling(res_prev, res, tol)):
            trace.termination = "switch"
            return Theta, trace
        J_prev, res_prev = J, res

    trace.termination = "max_iters"
    return Theta, trace


def newton_refine(ops, lam, Theta, mask, options=None, u_ff=None, trace=None):
    """Damped Newton on the free entries, guarded by reduced-Hessian PD.

    Each step's curvature comes from the terminal kernel of the evaluation
    that accepted the iterate.  The backtracking line search accepts a
    candidate whose J does not exceed the current J, or exceeds it by at most
    NEWTON_ROUNDOFF eps (J1 + J2 + J3 + J4), the evaluation noise of J, while
    its projected residual falls below the current one.  Takes at most
    newton_max_iters steps, and stops early at the stationarity tolerance or
    when the line search accepts no step.  Raises HessianNotPDError, carrying
    the current iterate as its `theta`, when the reduced Hessian is not
    positive definite.  Accepted steps are appended to `trace` when one is
    given.
    """
    options = options or SolverOptions()
    if u_ff is None:
        u_ff = np.zeros(ops.N * ops.n_u)
    Theta = mask.project(np.asarray(Theta, dtype=float))

    rep = evaluate(ops, lam, Policy(u_ff, Theta))
    base_iter = trace.records[-1].k if trace and trace.records else 0

    for k in range(1, options.newton_max_iters + 1):
        g = mask.gather(rep.grad_theta)
        res = np.linalg.norm(g)
        if res <= options.stationarity_tol:
            break
        factor = _curvature(ops, lam, mask, rep.kernel)
        if not factor.pd:
            raise HessianNotPDError(f"reduced Hessian not PD at Newton iteration {k}",
                                    theta=Theta)
        step = _curvature_solve(factor, g)
        del factor  # the next curvature is built without this one alive

        theta_free = mask.gather(Theta)
        noise = NEWTON_ROUNDOFF * np.finfo(float).eps * (rep.J1 + rep.J2 + rep.J3 + rep.J4)
        t = 1.0
        for _ in range(60):
            cand = mask.scatter(theta_free - t * step)
            rep_c = evaluate(ops, lam, Policy(u_ff, cand))
            if rep_c.J <= rep.J or (rep_c.J <= rep.J + noise and
                                    np.linalg.norm(mask.gather(rep_c.grad_theta)) < res):
                break
            t *= 0.5
        else:
            break
        Theta, rep = cand, rep_c
        if trace is not None:
            res_new = stationarity_residual(ops, lam, Policy(u_ff, Theta), mask)
            trace.records.append(_iter_record(base_iter + k, "newton", rep, res_new))
    return Theta


def _ccp_then_newton(ops, lam, mask, options, u_ff):
    """CCP until the switch rule fires, then guarded Newton.  A Newton phase
    that ends above tolerance with budget left (reduced Hessian not PD, or a
    rejected step) hands its iterate back to CCP, which runs a back-off before
    the rule may fire again; after a stall or at the CCP cap it ends the solve.
    newton_max_iters bounds the accepted Newton steps of the whole solve."""
    budget = options.newton_max_iters
    first_switch = SWITCH_FIRST_STEP
    resume = None
    while True:
        Theta, trace = ccp_solve(ops, lam, mask, options, u_ff,
                                 resume=resume, switch_after=first_switch)
        if trace.termination == "stationarity":
            return Theta, trace
        n = len(trace.records)
        try:
            Theta = newton_refine(ops, lam, Theta, mask,
                                  replace(options, newton_max_iters=budget),
                                  u_ff=u_ff, trace=trace)
        except HessianNotPDError as e:
            Theta = e.theta
        budget -= len(trace.records) - n
        if trace.records[-1].residual <= options.stationarity_tol:
            trace.termination = "stationarity"
        elif budget == 0:
            trace.termination = "newton_max_iters"
        elif trace.termination == "switch":
            first_switch = max(NEWTON_BACKOFF_STEPS, 2 * first_switch)
            resume = (Theta, trace)
            continue
        return Theta, trace


def solve(problem, options=None):
    """Full solve: feedforward, the feedback gain (CCP handing over to guarded
    Newton, or pure CCP with newton="off"), transforms, and the final report
    with a convexity certificate.

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
    if options.newton == "off":
        Theta, trace = ccp_solve(ops, lam, mask, options, u_ff=u_star)
    else:
        Theta, trace = _ccp_then_newton(ops, lam, mask, options, u_star)

    cert = convexity_certificate(ops, lam, Theta, mode="dominance")
    if cert.kind is None:
        cert = convexity_certificate(ops, lam, Theta, mode="spectral")

    policy = Policy(u_star, Theta)
    report = replace(evaluate(ops, lam, policy), certificate=cert)
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


# Grid points per stacked pass of line_scan: its memory is this many policies'
# worth of temporaries, however long the grid.  At N = 10, n_x = 2 a stack of
# 64 gains stays below glibc malloc's 128 KB mmap threshold.
SCAN_CHUNK = 64


def _segment_values(ops, lam, a, b, gammas):
    """`objective._values` at the policies (1 - g) a + g b, stacked over the
    1-D array gammas."""
    gu, gt = gammas[:, None], gammas[:, None, None]
    # the lone expression, not an in-place update: each stacked gain then has
    # the memory order numpy gives a lone (1 - g) a + g b, on which BLAS bits
    # depend for some shapes
    return _values(ops, lam, (1.0 - gu) * a.u_ff + gu * b.u_ff,
                   (1.0 - gt) * a.Theta + gt * b.Theta)


def line_scan(ops, lam, policy_a, policy_b, grid):
    """Evaluate J along the affine segment between two policies.

    g(gamma) = (1 - gamma) a + gamma b interpolates both u_ff and Theta, so
    gamma = 0 and 1 reproduce the endpoint evaluations exactly.  Only values
    are computed, by one stacked objective pass per SCAN_CHUNK grid points;
    each sample is bit-identical to `evaluate` at its point, and the first
    point that fails one of evaluate's guards raises that guard's error,
    prefixed "at gamma=<g>: ".  Returns one LineScanSample per grid point.
    """
    grid = np.asarray(grid, dtype=float)
    samples = []
    for lo in range(0, grid.size, SCAN_CHUNK):
        g = grid[lo:lo + SCAN_CHUNK]
        try:
            v = _segment_values(ops, lam, policy_a, policy_b, g)
        except (ValueError, WsteerError) as err:
            # a stacked check names the first member failing that check, not
            # the first failing point: replay the chunk point by point
            for i in range(g.size):
                try:
                    _segment_values(ops, lam, policy_a, policy_b, g[i:i + 1])
                except WsteerError as e:
                    raise type(e)(f"at gamma={g[i]}: {e}") from e
            raise err
        samples += map(LineScanSample, g.tolist(), v.J.tolist(), v.J1.tolist(),
                       v.J2.tolist(), v.J3.tolist(), v.J4.tolist())
        del v  # the next chunk's stack is built without this one's alive
    return samples


def count_strict_local_minima(values):
    """Number of interior grid points strictly below both neighbors."""
    v = np.asarray(values, dtype=float)
    return int(np.sum((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])))
