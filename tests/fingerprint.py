"""One SHA-256 over every number the benchmark's solves and scans produce.

Solves both shipped configs at lambda in {0.1, 1, 10, 100, 2000} with their
own solver options, and at N in {20, 40} with lambda = 10 and the options of
the benchmark's horizon workload; then scans J on the 401-point grid between
the two solved policies at each lambda of the first sweep.  The digest covers,
per solve, the bytes of Theta, every record's (k, kind, J, residual), the
termination and the certificate, and every scan sample.  Two trees that print
the same digest produce the same bits on all of these; a change meant to
alter no number is checked by running this at both, under the same BLAS
thread count (the N = 40 solves' bits depend on it).  A second digest leaves
out the certificates' lambda_min_hessian, for a change that alters only how
that number is found.

The solves and scans run twice in one process.  The first pass starts with
nothing kept, so each system is lifted at its first lambda (`assemble` keeps
liftings by content); the second finds every lifting kept.  Both passes'
digests are printed, and the exit code is 1 when they differ.  Run from the
repository root:

    PYTHONPATH=src python tests/fingerprint.py [-v]

With -v each solve, scan and rollout prints its own digest first, so a
difference can be located.

A third digest covers the bytes of the empirical mean and covariance of the
benchmark's Monte Carlo rollouts: the tight config's solved policy at N = 10
with 100k samples and at N = 40 with 25k, seed 1.  It is taken with one
rollout worker and with two, and the exit code is 1 when they differ.  A
fourth covers the bytes of the same rollouts' predicted terminal mean and
covariance.
"""

import hashlib
import os
import sys

import numpy as np

from wsteer import Policy, SolverOptions, assemble, line_scan, simulate, solve
from wsteer.cli import load_config, solver_options_from_config
from wsteer.problem import SteeringProblem, TimeVaryingLinearSystem

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
CONFIGS = ("tight", "wide")
LAMBDAS = (0.1, 1.0, 10.0, 100.0, 2000.0)
HORIZONS, HORIZON_LAMBDA = (20, 40), 10.0
HORIZON_OPTIONS = SolverOptions(max_ccp_iters=2000, obj_rel_tol=1e-14,
                                stationarity_tol=1e-6, newton="when_certified")
GRID = np.linspace(-0.5, 1.5, 401)
ROLLOUTS, ROLLOUT_SEED = ((10, 100_000), (40, 25_000)), 1


def with_changes(prob, lam, horizon=None):
    """prob at another lambda and, for time-invariant data, another horizon."""
    sysm = prob.system
    if horizon is not None:
        sysm = TimeVaryingLinearSystem.time_invariant(sysm.A[0], sysm.B[0], sysm.G[0], horizon)
    return SteeringProblem(system=sysm, initial=prob.initial, noise_cov=prob.noise_cov,
                           desired=prob.desired, lam=lam)


def solve_bytes(sol, lambda_min=True):
    """The bytes of Theta, each record's (k, kind, J, residual), the
    termination and the certificate, with its lambda_min_hessian or without;
    floats by repr, which round-trips."""
    c = sol.certificate
    parts = [sol.Theta.tobytes()]
    parts += [repr((r.k, r.kind, r.J, r.residual)).encode() for r in sol.trace.records]
    parts.append(repr((sol.trace.termination, c.kind, c.dominance_gap)
                      + ((c.lambda_min_hessian,) if lambda_min else ())).encode())
    return b"".join(parts)


def scan_bytes(samples):
    return b"".join(repr((s.gamma, s.J, s.J1, s.J2, s.J3, s.J4)).encode() for s in samples)


def solves():
    """(label, problem, options) of every solve: the lambda sweep, then the horizons."""
    configs = {name: load_config(os.path.join(ROOT, "configs", f"double_integrator_{name}.json"))
               for name in CONFIGS}
    for lam in LAMBDAS:
        for name, (prob, cfg) in configs.items():
            yield f"{name}/lambda={lam:g}", with_changes(prob, lam), solver_options_from_config(cfg)
    for N in HORIZONS:
        for name, (prob, _) in configs.items():
            yield (f"{name}/N={N}/lambda={HORIZON_LAMBDA:g}", with_changes(prob, HORIZON_LAMBDA, N),
                   HORIZON_OPTIONS)


def items():
    """(label, bytes, bytes without lambda_min_hessian) of every solve, then
    of every scan."""
    probs, sols = {}, {}
    for label, prob, options in solves():
        sol = solve(prob, options)
        probs[label], sols[label] = prob, sol
        yield label, solve_bytes(sol), solve_bytes(sol, False)
    for lam in LAMBDAS:
        tight, wide = f"tight/lambda={lam:g}", f"wide/lambda={lam:g}"
        a, b = sols[tight], sols[wide]
        samples = line_scan(assemble(probs[tight]), lam,
                            Policy(a.u_ff, a.Theta), Policy(b.u_ff, b.Theta), GRID)
        data = scan_bytes(samples)
        yield f"scan/lambda={lam:g}", data, data


def digests(verbose):
    """(digest, digest without lambda_min_hessian) over `items`."""
    total, without = hashlib.sha256(), hashlib.sha256()
    for label, data, data_without in items():
        total.update(label.encode() + b"\0" + data)
        without.update(label.encode() + b"\0" + data_without)
        if verbose:
            print(f"{hashlib.sha256(data).hexdigest()[:16]}  "
                  f"{hashlib.sha256(data_without).hexdigest()[:16]}  {label}")
    return total.hexdigest(), without.hexdigest()


def rollouts():
    """(label, problem, policy, samples) of every rollout, each policy
    solved with the tight config's own options."""
    prob, cfg = load_config(os.path.join(ROOT, "configs", "double_integrator_tight.json"))
    for N, samples in ROLLOUTS:
        p = with_changes(prob, prob.lam, N)
        sol = solve(p, solver_options_from_config(cfg))
        yield f"tight/N={N}/samples={samples}", p, Policy(sol.u_ff, sol.Theta), samples


def rollout_digests(cases, workers, verbose):
    """(digest over the rollouts' mean and covariance bytes, digest over
    their predicted mean and covariance bytes), with the rollout's worker
    count set to workers."""
    moments, predicted = hashlib.sha256(), hashlib.sha256()
    cpus = simulate._cpus
    simulate._cpus = lambda: workers
    try:
        for label, prob, policy, samples in cases:
            rep = simulate.rollout(prob, policy, samples, ROLLOUT_SEED)
            data = rep.empirical_mean.tobytes() + rep.empirical_cov.tobytes()
            pred = rep.predicted.mean.tobytes() + rep.predicted.cov.tobytes()
            moments.update(label.encode() + b"\0" + data)
            predicted.update(label.encode() + b"\0" + pred)
            if verbose:
                print(f"{hashlib.sha256(data).hexdigest()[:16]}  "
                      f"{hashlib.sha256(pred).hexdigest()[:16]}  {label}, {workers} worker(s)")
    finally:
        simulate._cpus = cpus
    return moments.hexdigest(), predicted.hexdigest()


def main(argv):
    verbose = "-v" in argv
    passes = {}
    # the second pass finds each system lifted and validated by the first
    for memo in ("cold", "warm"):
        passes[memo] = total, without = digests(verbose)
        print(total, f"{memo} memo")
        print(without, f"without lambda_min_hessian, {memo} memo")
    cases = list(rollouts())
    rolled = {}
    for workers in (1, 2):
        rolled[workers] = rollout_digests(cases, workers, verbose)
        print(rolled[workers][0], f"rollouts, {workers} worker(s)")
    print(rolled[1][1], "rollout predictions")
    failed = False
    if passes["cold"] != passes["warm"]:
        print("the passes differ")
        failed = True
    if rolled[1] != rolled[2]:
        print("the rollouts differ with the worker count")
        failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
