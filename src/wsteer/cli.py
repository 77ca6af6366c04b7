"""Command-line interface: config ingestion, solving, scanning, checking (on
the code `solve` runs, at every horizon), and Monte Carlo validation.

Configs are UTF-8 JSON with row-major nested arrays for matrices.  With
"time_invariant": true (a JSON boolean) the single A/B/G matrices are
broadcast over the horizon N; otherwise A/B/G are lists of N per-step
matrices.  An unknown top-level key, or one unknown to the "solver" or
"simulation" section, is rejected.  `solve` and `scan` check that the
directory of -o is writable before any solve.  Commands raise; `main` alone
turns an error into exit code 1, printing one "validation: ..." line per
violation, or one "error: ..." line for an input, file or solver error.
Exit code 2: the solve stopped above its stationarity tolerance (a step
budget ran out, or the objective stalled); 0: success.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import simulate as sim
from .errors import DimensionMismatchError, ValidationError, WsteerError
from .objective import (
    Policy,
    _curvature,
    _hessian_block,
    _lambda_min,
    _poles,
    _StructuredCurvature,
    _terminal,
    _values,
    convexity_certificate,
    grad_theta,
    grad_uff,
)
from .problem import Gaussian, SteeringProblem, TimeVaryingLinearSystem, assemble, causality_mask, validate
from .solver import SolverOptions, count_strict_local_minima, line_scan, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2

# the top-level keys of a config
CONFIG_FIELDS = {"N", "A", "B", "G", "mu0", "S0", "Sw", "mud", "Sd", "lambda",
                 "time_invariant", "solver", "simulation"}


def _object(value, what):
    """value when it is a JSON object; raises ValueError naming what otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _known(raw, known, prefix=""):
    """raw; raises ValueError naming the first key of raw that is not in known."""
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown field '{prefix}{key}'")
    return raw


def _section(cfg, name, known):
    """cfg[name] as a JSON object ({} when absent); raises ValueError naming
    the first key that is not in known."""
    return _known(_object(cfg.get(name, {}), f"field '{name}'"), known, f"{name}.")


def _writable_output(path):
    """Raises OSError naming path unless its directory exists and is writable.
    The file itself is not opened, so a later input error leaves it as it was."""
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise OSError(f"cannot write {path!r}: {parent!r} is not a writable directory")


def _matrix(cfg, key, source="config", prefix=""):
    """cfg[key] as a float array; raises ValueError naming source and field
    prefix + key when it is missing, not a numeric array, or holds a null (which
    numpy would read as nan), NaN or Infinity; a config's problem fields (no
    prefix) keep NaN and Infinity for SteeringProblem, whose error names them."""
    if key not in cfg:
        raise ValueError(f"{source} missing field '{prefix}{key}'")
    try:
        M = np.asarray(cfg[key], dtype=float)
    except (TypeError, ValueError) as e:  # a ragged array, a string, an object entry
        raise ValueError(f"field '{prefix}{key}' is not a numeric array: {e}") from None
    if not np.isfinite(M).all() and (source != "config" or prefix
                                     or None in np.asarray(cfg[key], dtype=object)):
        raise ValueError(f"{source} field '{prefix}{key}' has a null or non-finite entry")
    return M


def _number_field(name, value, integer=True, minimum=None):
    """value as an int (a float when integer is false); raises ValueError naming
    the field when value is a boolean, not a number, below minimum, or not integral."""
    # value % 1 is nan for inf and nan; bool is an int subclass
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (integer and value % 1 != 0)
            or (minimum is not None and value < minimum)):
        kind = "an integer" if integer else "a real number"
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"field '{name}' must be {kind}{bound}, got {value!r}")
    return int(value) if integer else float(value)


def load_config(path):
    """Parse a problem config; raises ValueError naming the offending field."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = _known(_object(json.load(fh), "config"), CONFIG_FIELDS)
    if "N" not in cfg:
        raise ValueError("config missing field 'N'")
    N = _number_field("N", cfg["N"], minimum=1)

    time_invariant = cfg.get("time_invariant", False)
    if not isinstance(time_invariant, bool):
        raise ValueError(f"field 'time_invariant' must be true or false, got {time_invariant!r}")
    if time_invariant:
        A = _matrix(cfg, "A")
        B = _matrix(cfg, "B")
        G = _matrix(cfg, "G")
        for name, M in (("A", A), ("B", B), ("G", G)):
            if M.ndim != 2:
                raise ValueError(f"field '{name}' must be a matrix when time_invariant")
        try:
            system = TimeVaryingLinearSystem.time_invariant(A, B, G, N)
        except (MemoryError, OverflowError):  # N copies of each matrix do not fit
            raise ValueError(f"field 'N' is too large to build the system, "
                             f"got {cfg['N']!r}") from None
    else:
        seqs = {}
        for name in ("A", "B", "G"):
            M = _matrix(cfg, name)
            if M.ndim != 3 or M.shape[0] != N:
                raise ValueError(
                    f"field '{name}' must be a list of N={N} matrices "
                    "(or set time_invariant: true)"
                )
            seqs[name] = tuple(M[k] for k in range(N))
        system = TimeVaryingLinearSystem(seqs["A"], seqs["B"], seqs["G"])

    mu0 = _matrix(cfg, "mu0").reshape(-1)
    S0 = _matrix(cfg, "S0")
    Sw = _matrix(cfg, "Sw")
    mud = _matrix(cfg, "mud").reshape(-1)
    Sd = _matrix(cfg, "Sd")
    if "lambda" not in cfg:
        raise ValueError("config missing field 'lambda'")
    lam = _number_field("lambda", cfg["lambda"], integer=False)

    problem = SteeringProblem(
        system=system,
        initial=Gaussian(mean=mu0, cov=S0),
        noise_cov=Sw,
        desired=Gaussian(mean=mud, cov=Sd),
        lam=lam,
    )
    return problem, cfg


def solver_options_from_config(cfg):
    raw = _section(cfg, "solver", {f.name for f in fields(SolverOptions)})
    kwargs = {}
    for key in ("max_ccp_iters", "newton_max_iters"):
        if key in raw:
            kwargs[key] = _number_field(f"solver.{key}", raw[key])
    for key in ("obj_rel_tol", "stationarity_tol"):
        if key in raw:
            kwargs[key] = _number_field(f"solver.{key}", raw[key], integer=False)
    if "newton" in raw:
        if raw["newton"] not in ("when_certified", "off"):
            raise ValueError('field \'solver.newton\' must be "when_certified" or "off", '
                             f"got {raw['newton']!r}")
        kwargs["newton"] = raw["newton"]
    theta_init = raw.get("theta_init", "zero")
    if isinstance(theta_init, str):
        if theta_init != "zero":
            raise ValueError("solver.theta_init must be 'zero' or a matrix")
    else:
        kwargs["theta_init"] = _matrix(raw, "theta_init", prefix="solver.")
    return SolverOptions(**kwargs)


def _require_valid(problem, source=None):
    """Raises ValidationError with the `validate` violations of problem, each
    prefixed by source when one is given."""
    violations = validate(problem)
    if violations:
        raise ValidationError([f"{source}: {v}" if source else v for v in violations])


def _solution_payload(problem, sol):
    rep = sol.report
    cert = rep.certificate
    kinds = [r.kind for r in sol.trace.records]
    return {
        "dimensions": {
            "N": problem.system.horizon,
            "n_x": problem.system.n_x,
            "n_u": problem.system.n_u,
            "n_w": problem.system.n_w,
        },
        "u_ff": sol.u_ff.tolist(),
        "Theta": sol.Theta.tolist(),
        "K": sol.K.tolist(),
        "objective": {
            "J": rep.J, "J1": rep.J1, "J2": rep.J2, "J3": rep.J3, "J4": rep.J4,
            "W2_sq": rep.W2_sq, "cost_to_go": rep.cost_to_go,
        },
        "terminal": {
            "mean": rep.terminal.mean.tolist(),
            "cov": rep.terminal.cov.tolist(),
        },
        "certificate": {
            "kind": cert.kind,
            "dominance_gap": cert.dominance_gap,
            "lambda_min_hessian": cert.lambda_min_hessian,
        },
        "trace": {
            "iterations": sol.trace.iterations,
            "ccp_steps": kinds.count("ccp"),
            "newton_steps": kinds.count("newton"),
            "termination": sol.trace.termination,
            "final_J": sol.trace.records[-1].J,
            "final_residual": sol.trace.records[-1].residual,
        },
    }


def cmd_solve(args):
    _writable_output(args.output)
    problem, cfg = load_config(args.config)
    options = solver_options_from_config(cfg)
    sol = solve(problem, options)  # raises ValidationError on invalid data

    payload = _solution_payload(problem, sol)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    trace = payload["trace"]
    print(
        f"solved: J={sol.report.J:.12g} termination={sol.trace.termination} "
        f"iterations={sol.trace.iterations} ccp_steps={trace['ccp_steps']} "
        f"newton_steps={trace['newton_steps']} -> {args.output}"
    )
    if not sol.trace.converged:
        print(f"not converged: final residual {sol.trace.records[-1].residual:.3e} > "
              f"stationarity_tol {options.stationarity_tol:g}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_scan(args):
    _writable_output(args.output)
    problem_a, cfg_a = load_config(args.config_a)
    problem_b, cfg_b = load_config(args.config_b)
    options_a = solver_options_from_config(cfg_a)
    options_b = solver_options_from_config(cfg_b)
    lams = _parse_lambda_sweep(args.lambda_sweep) or [problem_a.lam]

    sa, sb = problem_a.system, problem_b.system
    if (sa.horizon, sa.n_x, sa.n_u, sa.n_w) != (sb.horizon, sb.n_x, sb.n_u, sb.n_w):
        raise ValueError("configs have mismatched system dimensions")
    for prob, name in ((problem_a, args.config_a), (problem_b, args.config_b)):
        _require_valid(prob, name)
    if args.points < 2:
        raise ValueError("need at least 2 grid points")

    grid = np.linspace(args.gamma_min, args.gamma_max, args.points)
    results = []
    for lam in lams:
        pa, pb = replace(problem_a, lam=lam), replace(problem_b, lam=lam)
        sol_a = solve(pa, options_a)
        sol_b = solve(pb, options_b)
        samples = line_scan(assemble(pa), lam, Policy(sol_a.u_ff, sol_a.Theta),
                            Policy(sol_b.u_ff, sol_b.Theta), grid)
        results.append((lam, samples, count_strict_local_minima([s.J for s in samples])))

    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("lambda,gamma,J,J1,J2,J3,J4\n")
        for lam, samples, _ in results:
            for s in samples:
                fh.write(f"{lam!r},{s.gamma!r},{s.J!r},{s.J1!r},{s.J2!r},{s.J3!r},{s.J4!r}\n")

    for lam, _, minima in results:
        print(f"lambda={lam:g}: strict local minima on grid = {minima}")
    print(f"wrote {args.output} ({len(lams)} lambda value(s) x {args.points} points); "
          f"max local minima over sweep = {max(m for _, _, m in results)}")
    return EXIT_OK


# random directions per finite-difference row; free entries of the principal block
FD_DIRECTIONS, BLOCK_INDICES = 8, 32


def _directions(rng, shape):
    """FD_DIRECTIONS random directions of the given shape, each of unit norm."""
    D = rng.standard_normal((FD_DIRECTIONS, int(np.prod(shape))))
    return (D / np.linalg.norm(D, axis=1, keepdims=True)).reshape(-1, *shape)


def _central(f, x, D):
    """Central differences of f at x along each direction of D, from one call of f."""
    h = 1e-6 * max(1.0, float(np.abs(x).max()))
    values = f(np.concatenate([x + h * D, x - h * D]))
    return (values[:len(D)] - values[len(D):]) / (2.0 * h)


def _derivative_errors(ops, lam, mask, rng):
    """Relative errors at a random (u, Theta): <grad_uff, d>, <grad_theta, d>
    against central differences of J along random d of u, of all of Theta; the
    causal Hessian's `matvec` against those of the projected gradient along
    random causal d, and against `_hessian_block` on BLOCK_INDICES free entries."""
    def rel(exact, approx):
        return float(np.linalg.norm(exact - approx) / max(1.0, np.linalg.norm(exact)))

    u = 0.5 * rng.standard_normal(ops.N * ops.n_u)
    Theta = mask.project(0.2 * rng.standard_normal(mask.theta_shape))
    Du, DT, D = (_directions(rng, x.shape) for x in (u, Theta, mask.free_entries))
    fd_u = _central(lambda U: _values(ops, lam, U, Theta).J, u, Du)
    fd_t = _central(lambda T: _values(ops, lam, u, T).J, Theta, DT)
    fd_h = _central(lambda X: np.stack([mask.gather(g) for g in grad_theta(
        ops, lam, np.stack([mask.scatter(x) for x in X]))]), mask.gather(Theta), D)
    term = _terminal(ops, Theta)
    curv = _curvature(ops, lam, mask, term)
    n = mask.free_entries.size
    idx = np.sort(rng.choice(n, min(BLOCK_INDICES, n), replace=False))
    block = np.stack([curv.matvec(np.eye(1, n, i)[0])[idx] for i in idx])
    return (rel(Du @ grad_uff(ops, lam, u), fd_u),
            rel(np.tensordot(DT, grad_theta(ops, lam, Theta)), fd_t),
            rel(np.stack([curv.matvec(d) for d in D]), fd_h),
            rel(_hessian_block(ops, lam, mask.free_entries[idx], term), block))


def _structured_row(ops, lam, mask, term, rng, lmin=None):
    """H = H_U + Z^T Z at the kernel term, in the coordinates Phi: the inertia PD decision, the
    backward error of a solve with `newton_refine`'s factor, at lam / (1 + s) near a singular
    block (an upper bound: power iteration's ||H||_2 is a lower one), and lmin (else
    `_lambda_min`'s) bracketed by the same count: for mu < 2,
    H - mu I = (1 - mu/2) H(s lam), s = 2 / (2 - mu), PD at lmin - delta and not at lmin +
    delta, delta = 1e-8 max(1, |lmin|); from 2 up only 2 - delta, and H's eigenvalue-2 space
    (its dimension printed) caps lmin at 2.  A probe at a singular block decides by
    `_lambda_min`'s sign, not independently of the certificate, and the row names it."""
    curv = _StructuredCurvature(ops, lam, mask, term)
    lmin = _lambda_min(ops, lam, term) if lmin is None else lmin
    delta, n_2 = 1e-8 * max(1.0, abs(lmin)), _poles(ops, lam, term)[2]
    probes = [_StructuredCurvature(ops, 2.0 * lam / (2.0 - mu), mask, term)
              for mu in (min(lmin, 2.0) - delta, lmin + delta) if mu < 2.0]
    pd = [p.pd for p in probes]
    ok = pd[0] and not any(pd[1:]) and (lmin <= 2.0 or n_2 == 0)
    bracket = (f"lambda_min {lmin:.9e}, H - mu I PD at mu = lambda_min -/+ {delta:.1e}: {pd}, "
               f"eigenvalue 2 on {n_2} dimensions")
    if any(p.singular for p in probes):
        bracket += f", decided by lambda_min: {[p.singular for p in probes]}"
    neg_S = "- (singular block)" if curv.singular else curv.neg_S
    detail = f"neg(H_U) {curv.neg_U}, neg(S) {neg_S}, PD {curv.pd}, {bracket}"
    if curv.pd:
        factor = (_StructuredCurvature(ops, lam / (1.0 + curv.shift), mask, term)
                  if curv.near else curv)
        v = np.random.default_rng(1).standard_normal(mask.free_entries.size)
        for _ in range(20):  # ||H v|| <= ||H||_2 for a unit v
            v = factor.matvec(v / np.linalg.norm(v))
        b = rng.standard_normal(v.size)
        x = factor.solve(b)
        err = np.linalg.norm(factor.matvec(x) - b) / (np.linalg.norm(v) * np.linalg.norm(x)
                                                      + np.linalg.norm(b))
        at = f" at lambda/(1 + s), s = {curv.shift:.3e}," if curv.near else ""
        ok, detail = ok and err <= 1e-14, f"Newton solve{at} backward error {err:.3e}, {detail}"
    else:
        detail += ", not PD: no Newton solve"
    return ("structured curvature at Theta*", bool(ok), detail)


def _certificate_row(label, lam, cert, spectral):
    """cert is `solve`'s certificate (dominance first); dominance (or lam = 0) implies
    a PD Hessian, so only then the row counts, passing if spectral's lambda_min > 0."""
    hmin = spectral.lambda_min_hessian
    detail = f"dominance gap {cert.dominance_gap:.3e}, min eig Hess {hmin:.3e}"
    if cert.kind == "DominatedCovariance" or lam == 0.0:
        return (label, bool(hmin > 0.0), detail)
    return (label, None, detail + " (not dominated)")


def cmd_check(args):
    problem, cfg = load_config(args.config)
    options = solver_options_from_config(cfg)

    try:
        ops = assemble(problem)  # which rejects an Stilde that is not PD
    except WsteerError as e:
        _print_check_table([("Stilde positive definite", False, str(e))])
        return EXIT_INPUT
    rows = [("Stilde positive definite", True, f"min eig {np.linalg.eigvalsh(ops.Stilde)[0]:.3e}")]

    mask = causality_mask(ops.N, ops.n_u, ops.n_x)
    lam, rng = problem.lam, np.random.default_rng(0)

    try:
        errors = _derivative_errors(ops, lam, mask, rng)
        along, n = f"along {FD_DIRECTIONS} directions", mask.free_entries.size
        block = f"on {min(BLOCK_INDICES, n)} of {n} free entries"  # apart by rounding only
        for (name, tol, where), err in zip([
                ("grad_uff vs finite differences", 1e-6, along),
                ("grad_theta vs finite differences", 1e-6, along),
                ("Hessian matvec vs finite differences", 1e-5, along),
                ("Hessian matvec vs dense principal block", 1e-10, block)], errors):
            rows.append((name, bool(err <= tol), f"rel err {err:.3e} {where}"))
        zero = np.zeros(mask.theta_shape)
        rows.append(_certificate_row("Hessian PD at Theta=0 (certificate)", lam,
                                     convexity_certificate(ops, lam, zero),
                                     convexity_certificate(ops, lam, zero, mode="spectral")))
    except WsteerError as e:
        rows.append(("derivatives and Theta=0 certificate", False, f"{type(e).__name__}: {e}"))

    try:
        sol = solve(problem, options)
    except DimensionMismatchError:  # a theta_init that does not fit the problem
        raise
    except ValidationError as e:
        rows.append(("Hessian PD at Theta* (certificate)", None, f"not solved (validation: {e})"))
    except WsteerError as e:
        rows.append(("Hessian PD at Theta* (certificate)", None, f"not solved: {e}"))
    else:
        try:  # solve's certificate is spectral unless dominance held
            cert, kernel = sol.certificate, sol.report.kernel
            spectral = cert if cert.lambda_min_hessian is not None else convexity_certificate(
                ops, lam, sol.Theta, "spectral", kernel)
            rows.append(_certificate_row("Hessian PD at Theta* (certificate)", lam, cert, spectral))
            rows.append(_structured_row(ops, lam, mask, kernel, rng, spectral.lambda_min_hessian))
        except WsteerError as e:
            rows.append(("certificate and curvature at Theta*", False, f"{type(e).__name__}: {e}"))

    _print_check_table(rows)
    failed = [name for name, ok, _ in rows if ok is False]
    if failed:
        print(f"first failing check: {failed[0]}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def _print_check_table(rows):
    width = max(len(name) for name, _, _ in rows) + 2
    for name, ok, detail in rows:
        status = "PASS" if ok is True else ("FAIL" if ok is False else "INFO")
        print(f"{name:<{width}} {status}  {detail}")


def cmd_simulate(args):
    if args.output:
        _writable_output(args.output)
    problem, cfg = load_config(args.config)
    sim_cfg = _section(cfg, "simulation", {"samples", "seed"})
    samples, seed = args.samples, args.seed
    if samples is None:
        samples = _number_field("simulation.samples", sim_cfg.get("samples", 100000))
    if seed is None:
        seed = _number_field("simulation.seed", sim_cfg.get("seed", 42))
    _require_valid(problem)  # rollout does not validate
    with open(args.solution, "r", encoding="utf-8") as fh:
        sol = _object(json.load(fh), "solution file")
    u_ff = _matrix(sol, "u_ff", "solution file")
    Theta = _matrix(sol, "Theta", "solution file")

    report = sim.rollout(problem, Policy(u_ff, Theta), samples, seed)
    payload = {
        "samples": report.samples,
        "seed": report.seed,
        "empirical_mean": report.empirical_mean.tolist(),
        "empirical_cov": report.empirical_cov.tolist(),
        "predicted_mean": report.predicted.mean.tolist(),
        "predicted_cov": report.predicted.cov.tolist(),
        "w2_sq_empirical_vs_desired": report.w2_sq_empirical_vs_desired,
        "mean_err": report.mean_err,
        "cov_err": report.cov_err,
        "mean_band": report.mean_band,
        "cov_band": report.cov_band,
        "within_band": report.within_band,
    }
    text = json.dumps(payload, indent=1)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)
    print(
        f"mean_err {report.mean_err:.3e} (band {report.mean_band:.3e}); "
        f"cov_err {report.cov_err:.3e} (band {report.cov_band:.3e}); "
        f"within 5-sigma band: {report.within_band}"
    )
    return EXIT_OK if report.within_band else EXIT_INPUT


def _parse_lambda_sweep(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise ValueError(f"--lambda-sweep: {e}") from None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wsteer",
        description="Covariance steering with a squared Wasserstein terminal cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a steering problem")
    p_solve.add_argument("config")
    p_solve.add_argument("-o", "--output", default="solution.json")
    p_solve.set_defaults(run=cmd_solve)

    p_scan = sub.add_parser("scan", help="objective line scan between two solved policies")
    p_scan.add_argument("config_a")
    p_scan.add_argument("config_b")
    p_scan.add_argument("--gamma-min", type=float, default=-0.5)
    p_scan.add_argument("--gamma-max", type=float, default=1.5)
    p_scan.add_argument("--points", type=int, default=401)
    p_scan.add_argument("--lambda-sweep", default="",
                        help="comma-separated lambda overrides, e.g. 0.1,1,10,100,2000")
    p_scan.add_argument("-o", "--output", default="scan.csv")
    p_scan.set_defaults(run=cmd_scan)

    p_check = sub.add_parser("check", help="finite-difference and certificate checks")
    p_check.add_argument("config")
    p_check.set_defaults(run=cmd_check)

    p_sim = sub.add_parser("simulate", help="Monte Carlo validation of a solved policy")
    p_sim.add_argument("config")
    p_sim.add_argument("solution")
    p_sim.add_argument("--samples", type=int, default=None,
                       help="overrides config simulation.samples (default 100000)")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="overrides config simulation.seed (default 42)")
    p_sim.add_argument("-o", "--output", default=None)
    p_sim.set_defaults(run=cmd_simulate)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as e:
        for v in e.violations:
            print(f"validation: {v}", file=sys.stderr)
    except (MemoryError, OSError, OverflowError, ValueError, WsteerError) as e:
        # an input too large to allocate may raise a MemoryError without a message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
