"""Policy computation: closed-form feedforward, then guarded Newton on the
causal feedback gain from the first iterate, with the convex-concave step as
its fallback.

The objective splits into a convex quadratic part J1 + J2 + J3 and a convex
part J4 entering with a minus sign.  Each convex-concave step linearizes J4 at
the current iterate and minimizes the remaining convex quadratic over the
causal subspace.  That quadratic has the constant curvature H0 of J2 + J3, so
its minimizer is Theta_k - H0^(-1) grad J(Theta_k) on the free entries: the
Newton step with J4's curvature dropped, taken from the gradient the iterate
already has and a factor of H0 built at the first such step.  It guarantees
monotone descent of J, but only a linear rate, which at large lambda is a
crawl.  So `ccp_solve` takes one step per iterate: a damped Newton step,
guarded by a positive definite reduced Hessian and an Armijo line search on
J's change along the step, which `objective._ray` evaluates in difference
form, free of J's own round-off, from the terminal kernel of each trial
point; the convex-concave step only where Newton gives no iterate.
`_evaluate_iterate` evaluates every iterate the solve records, whichever
step made it, reusing the accepted trial's kernel.
`objective._Curvature` holds H0 and each Newton step's H = H_U + Z^T Z in
one spectral form at every horizon: 2I off a pole basis from the block QR
of FHu, a diagonal plus a rank-n_x(n_x + 1)/2 term on it, solved by
Woodbury.  One is built per Newton step; near a singular block the step
solves with H + 2 s I, the same poles shifted.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    HessianNotPDError,
    NonFiniteError,
    ValidationError,
    WsteerError,
)
from .objective import (
    Policy,
    _Curvature,
    _ray,
    _values,
    convexity_certificate,
    evaluate,
    grad_theta,
    grad_theta_j4,  # noqa: F401  (unused here; the benchmark tracer wraps this name)
    hessian_theta,  # noqa: F401  (unused here; the benchmark tracer wraps this name)
    stationarity_residual,
)
from .problem import assemble, causality_mask, validate
from .simulate import _integer, theta_to_k


@dataclass(frozen=True)
class SolverOptions:
    max_ccp_iters: int = 200
    obj_rel_tol: float = 1e-10
    stationarity_tol: float = 1e-6
    theta_init: Optional[np.ndarray] = None
    newton: str = "when_certified"  # or "off": pure CCP
    newton_max_iters: int = 20

    def __post_init__(self):
        for name in ("max_ccp_iters", "newton_max_iters"):
            if _integer(name, getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("obj_rel_tol", "stationarity_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {tol!r}")
        if self.newton not in ("off", "when_certified"):
            raise ValueError(f"unknown newton mode {self.newton!r}")
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


@dataclass
class SolveTrace:
    records: list = field(default_factory=list)
    # "stationarity" | "objective_stalled" | "max_iters" | "newton_max_iters"
    termination: str = ""
    # the ObjectiveReport of the last record's iterate, whose gradient and
    # terminal kernel the next Newton or CCP step and the certificate reuse
    report: Optional[object] = field(default=None, repr=False, compare=False)

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


# Newton's line search tries the step lengths 1, 1/2, ..., 2^-7 and accepts
# the first whose J change meets the Armijo test dJ(t) <= -ARMIJO t g^T step.
LINE_SEARCH_TRIALS = 8
ARMIJO = 1e-4


def _curvature_solve(factor, rhs, shift=0.0):
    """Solve with an `objective._Curvature` plus 2 shift I in Phi; only the
    O(n) right-hand side is scanned for non-finite entries."""
    if not np.isfinite(rhs).all():
        raise NonFiniteError("right-hand side of the reduced normal equations is not finite")
    return factor.solve(rhs, shift)


def _reduced_curvature_factor(ops, lam, mask):
    """The causal restriction of the CCP curvature Stilde kron 2(I + lam FHu^T FHu),
    the Hessian of J without the J4 terms, ready for `_curvature_solve`."""
    return _Curvature(ops, lam, mask)


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


def _evaluate_iterate(ops, lam, Theta, mask, u_ff, kernel=None):
    """(Theta, its ObjectiveReport, its projected stationarity residual):
    what the solve records of every iterate, Theta causal, kernel its kernel."""
    policy = Policy(u_ff, Theta)
    rep = evaluate(ops, lam, policy, kernel=kernel)
    return Theta, rep, stationarity_residual(ops, lam, policy, mask, grad=rep.grad_theta)


def ccp_solve(ops, lam, mask, options=None, u_ff=None):
    """Iterate from options.theta_init (else Theta = 0) until the projected
    stationarity residual meets its tolerance ("stationarity"), one step per
    pass: a guarded Newton step (`newton_refine`, from the report that
    accepted the iterate), else one convex-concave step, taken where the
    reduced Hessian is not positive definite or the line search runs out of
    trials.  The solve ends "newton_max_iters" once newton_max_iters Newton
    steps are accepted, "max_iters" when a CCP step is due after
    max_ccp_iters of them, and "objective_stalled" when a CCP step lowers J
    by less than obj_rel_tol max(1, |J|).  With newton="off" every step is a
    CCP step.  Returns (Theta, SolveTrace).
    """
    options = options or SolverOptions()
    if u_ff is None:
        u_ff = np.zeros(ops.N * ops.n_u)
    if options.theta_init is None:
        Theta = np.zeros((ops.N * ops.n_u, (ops.N + 1) * ops.n_x))
    else:
        Theta = mask.project(options.theta_init, "theta_init")

    trace = SolveTrace()
    factor = None  # the CCP curvature H0, built at the first CCP step
    kind, steps = "init", {"newton": 0, "ccp": 0}
    step = _evaluate_iterate(ops, lam, Theta, mask, u_ff)
    while True:
        Theta, rep, res = step
        stalled = kind == "ccp" and (trace.report.J - rep.J
                                     < options.obj_rel_tol * max(1.0, abs(trace.report.J)))
        trace.records.append(IterRecord(len(trace.records), kind, rep.J, rep.J1, rep.J2,
                                        rep.J3, rep.J4, res))
        trace.report = rep
        if res <= options.stationarity_tol:
            trace.termination = "stationarity"
        elif steps["newton"] == options.newton_max_iters:
            trace.termination = "newton_max_iters"
        elif stalled:
            trace.termination = "objective_stalled"
        if trace.termination:
            return Theta, trace

        step = None
        if options.newton != "off":
            try:
                step = newton_refine(ops, lam, Theta, mask, u_ff, rep)
            except HessianNotPDError:
                pass
        kind = "ccp" if step is None else "newton"
        if kind == "ccp":
            if steps["ccp"] == options.max_ccp_iters:
                trace.termination = "max_iters"
                return Theta, trace
            if factor is None:
                factor = _reduced_curvature_factor(ops, lam, mask)
            try:
                Theta = ccp_subproblem(ops, lam, Theta, mask, factor=factor,
                                       grad=rep.grad_theta)
            except WsteerError as e:
                raise type(e)(f"CCP iteration {len(trace.records)}: {e}") from e
            step = _evaluate_iterate(ops, lam, Theta, mask, u_ff)
        steps[kind] += 1


def newton_refine(ops, lam, Theta, mask, u_ff, rep):
    """One damped Newton step on the free entries of Theta, guarded by
    reduced-Hessian PD; rep is `evaluate`'s report at Theta.

    The step's curvature comes from rep's terminal kernel and its gradient
    from rep's, and its length from a backtracking line search that judges J
    along the step in difference form (`objective._ray`): the first of
    t = 1, 1/2, ..., 2^-7 with dJ(t) <= -ARMIJO t g^T step, g the projected
    gradient, is taken, and only that point is evaluated, from the terminal
    kernel its trial built.  Near a singular block of H_U the step solves
    with H + 2 s I = (1 + s) H(lam / (1 + s)), s the curvature's `shift`,
    on the same curvature: Newton's step on J + s ||Phi - Phi_k||^2.
    Returns the new iterate's (Theta, report, residual), as
    `_evaluate_iterate` gives them, or None when the line search accepts no
    step.  Raises HessianNotPDError when the reduced Hessian is not positive
    definite.
    """
    Theta = mask.project(np.asarray(Theta, dtype=float))
    g = mask.gather(rep.grad_theta)
    factor = _Curvature(ops, lam, mask, rep.kernel)
    if not factor.pd:
        raise HessianNotPDError("reduced Hessian not PD at the Newton iterate")
    step = _curvature_solve(factor, g, factor.shift if factor.near else 0.0)
    del factor  # the ray and the new iterate are built without it alive

    trial = _ray(ops, lam, Theta, mask.scatter(step), rep.kernel)
    slope = ARMIJO * float(g @ step)
    for t in 0.5 ** np.arange(LINE_SEARCH_TRIALS):
        dJ, Theta_t, kernel = trial(t)
        if dJ <= -t * slope:
            return _evaluate_iterate(ops, lam, Theta_t, mask, u_ff, kernel)
    return None


def solve(problem, options=None):
    """Full solve: feedforward, the feedback gain (`ccp_solve`: guarded Newton
    with CCP as its fallback step, or pure CCP with newton="off"), transforms,
    and the final report with a convexity certificate.

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

    # the last record's report is the evaluation at Theta
    kernel = trace.report.kernel
    cert = convexity_certificate(ops, lam, Theta, mode="dominance", kernel=kernel)
    if cert.kind is None:
        cert = convexity_certificate(ops, lam, Theta, mode="spectral", kernel=kernel)

    report = replace(trace.report, certificate=cert)
    K = theta_to_k(Theta, ops.Hu)
    return Solution(u_ff=u_star, Theta=Theta, K=K, report=report, trace=trace)


class LineScanSample(NamedTuple):
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
