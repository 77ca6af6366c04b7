"""The three benchmark workloads, their set-up, and their correctness anchors.

Every workload is a closed loop: one caller makes one library call at a time
and waits for it.  A workload is set up once (configs loaded and validated,
problems built, and for `montecarlo` the policies solved), then `run_pass`
makes the same sequence of calls again for as long as the run lasts.  Each
call is one operation; an operation fails when it raises or misses its anchor.
"""

import json
import os

import numpy as np

from wsteer import cli, problem, simulate, solver

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
CONFIGS = {
    "tight": os.path.join(REPO, "configs", "double_integrator_tight.json"),
    "wide": os.path.join(REPO, "configs", "double_integrator_wide.json"),
}
ANCHORS_PATH = os.path.join(HERE, "anchors.json")

J_REL_TOL = 1e-10

# lambda_scan: the README's documented scan.  config_a is the tight target.
SCAN_LAMBDAS = (0.1, 1.0, 10.0, 100.0, 2000.0)
SCAN_GRID = np.linspace(-0.5, 1.5, 401)
SCAN_MINIMA = {0.1: 1, 1.0: 1, 10.0: 1, 100.0: 1, 2000.0: 2}

# horizon_newton: few large CCP steps, then Newton, on the dense Kronecker system.
HORIZONS = (20, 40)
HORIZON_LAMBDA = 10.0
HORIZON_OPTIONS = solver.SolverOptions(
    max_ccp_iters=2000, obj_rel_tol=1e-14, stationarity_tol=1e-6,
    newton="when_certified",
)

# montecarlo: (horizon, samples) of the tight policy's rollouts.
ROLLOUTS = ((10, 100_000), (40, 25_000))


def with_changes(prob, lam=None, horizon=None):
    """The same problem at another lambda and/or horizon (time-invariant data)."""
    sysm = prob.system
    if horizon is not None:
        sysm = problem.TimeVaryingLinearSystem.time_invariant(
            sysm.A[0], sysm.B[0], sysm.G[0], horizon)
    return problem.SteeringProblem(
        system=sysm, initial=prob.initial, noise_cov=prob.noise_cov,
        desired=prob.desired, lam=prob.lam if lam is None else lam)


def load_anchors():
    with open(ANCHORS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["solve_J"]


def load_configs():
    """Load and validate both shipped configs; returns {name: (problem, options)}."""
    out = {}
    for name, path in CONFIGS.items():
        prob, cfg = cli.load_config(path)
        violations = problem.validate(prob)
        if violations:
            raise ValueError(f"{path}: {violations}")
        out[name] = (prob, cli.solver_options_from_config(cfg))
    return out


def solve_record(sol, options, reference=None):
    """Anchor fields of one solve: termination, final projected residual,
    iteration count, and J against its reference when there is one."""
    last = sol.trace.records[-1]
    rec = {
        "J": sol.report.J,
        "termination": sol.trace.termination,
        "residual": last.residual,
        "tol": options.stationarity_tol,
        "iterations": sol.trace.iterations,
        "converged": last.residual <= options.stationarity_tol,
        "stalled_above_tol": (sol.trace.termination == "objective_stalled"
                              and last.residual > options.stationarity_tol),
    }
    if reference is not None:
        rec["J_ref"] = reference
        rec["J_rel_err"] = abs(sol.report.J - reference) / abs(reference)
    return rec


class LambdaScan:
    """Both configs solved at each lambda of the documented sweep, then a
    401-point line scan between the two solved policies per lambda."""

    name = "lambda_scan"
    speed_probe = True  # interpreter-bound: thousands of tiny matrix calls

    def __init__(self, seed):
        self.seed = seed  # fixed instance: the seed does not change it
        refs = load_anchors()
        configs = load_configs()
        self.options = {name: opts for name, (_, opts) in configs.items()}
        self.problems = {}
        self.refs = {}
        self.scan_ops = {}
        for lam in SCAN_LAMBDAS:
            for name, (prob, _) in configs.items():
                self.problems[name, lam] = with_changes(prob, lam=lam)
                self.refs[name, lam] = refs[f"{name}/lambda={lam:g}"]
            self.scan_ops[lam] = problem.assemble(self.problems["tight", lam])
        self.setup_solves = []

    def run_pass(self, call):
        for lam in SCAN_LAMBDAS:
            sols = {}
            for name in ("tight", "wide"):
                sol, rec = call("solve", f"{name}/lambda={lam:g}", solver.solve,
                                self.problems[name, lam], self.options[name])
                if sol is not None:
                    rec.update(solve_record(sol, self.options[name],
                                            self.refs[name, lam]))
                    rec["ok"] = rec["J_rel_err"] <= J_REL_TOL
                    sols[name] = sol
            if len(sols) < 2:
                call("line_scan", f"lambda={lam:g}", _missing_endpoint)
                continue
            pa = solver.Policy(sols["tight"].u_ff, sols["tight"].Theta)
            pb = solver.Policy(sols["wide"].u_ff, sols["wide"].Theta)
            samples, rec = call("line_scan", f"lambda={lam:g}", solver.line_scan,
                                self.scan_ops[lam], lam, pa, pb, SCAN_GRID)
            if samples is not None:
                minima = solver.count_strict_local_minima([s.J for s in samples])
                rec.update(points=len(samples), strict_minima=minima,
                           strict_minima_ref=SCAN_MINIMA[lam])
                rec["ok"] = minima == SCAN_MINIMA[lam] and len(samples) == SCAN_GRID.size


def _missing_endpoint():
    raise RuntimeError("an endpoint solve failed")


class HorizonNewton:
    """Both targets at N in {20, 40} and lambda = 10, CCP then guarded Newton."""

    name = "horizon_newton"
    # dense LAPACK, whose speed the interpreter-bound probe does not track
    speed_probe = False

    def __init__(self, seed):
        self.seed = seed  # fixed instance: the seed does not change it
        refs = load_anchors()
        configs = load_configs()
        self.problems = {}
        self.refs = {}
        for N in HORIZONS:
            for name, (prob, _) in configs.items():
                self.problems[name, N] = with_changes(prob, lam=HORIZON_LAMBDA, horizon=N)
                self.refs[name, N] = refs[f"{name}/N={N}/lambda={HORIZON_LAMBDA:g}"]
        self.setup_solves = []

    def run_pass(self, call):
        for N in HORIZONS:
            for name in ("tight", "wide"):
                sol, rec = call("solve", f"{name}/N={N}", solver.solve,
                                self.problems[name, N], HORIZON_OPTIONS)
                if sol is not None:
                    rec.update(solve_record(sol, HORIZON_OPTIONS,
                                            self.refs[name, N]))
                    rec["ok"] = rec["J_rel_err"] <= J_REL_TOL and rec["converged"]


class MonteCarlo:
    """Rollouts of the solved tight policy at two horizons; the benchmark seed
    is the rollout seed.  The policies are solved in set-up."""

    name = "montecarlo"
    speed_probe = True  # interpreter-bound: a Python loop builds the noise streams

    def __init__(self, seed):
        self.seed = seed
        prob, options = load_configs()["tight"]
        self.cases = []
        self.setup_solves = []
        for N, samples in ROLLOUTS:
            p = with_changes(prob, horizon=N)
            sol = solver.solve(p, options)
            self.setup_solves.append({"label": f"tight/N={N}", **solve_record(sol, options)})
            self.cases.append((N, samples, p, solver.Policy(sol.u_ff, sol.Theta)))
        self.first_means = {}

    def run_pass(self, call):
        for N, samples, p, policy in self.cases:
            rep, rec = call("rollout", f"tight/N={N}/samples={samples}",
                            simulate.rollout, p, policy, samples, self.seed)
            if rep is None:
                continue
            # rollouts are bitwise reproducible given (samples, seed)
            first = self.first_means.setdefault(N, rep.empirical_mean.tobytes())
            rec.update(within_band=bool(rep.within_band), mean_err=rep.mean_err,
                       mean_band=rep.mean_band, cov_err=rep.cov_err,
                       cov_band=rep.cov_band,
                       repeats_bitwise=first == rep.empirical_mean.tobytes())
            rec["ok"] = rec["within_band"] and rec["repeats_bitwise"]


WORKLOADS = {w.name: w for w in (LambdaScan, HorizonNewton, MonteCarlo)}
