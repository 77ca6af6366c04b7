"""Command-line interface: config ingestion, solving, scanning, checking,
and Monte Carlo validation.

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
    _hessian_block,
    _mT,
    _StructuredCurvature,
    _terminal,
    _values,
    convexity_certificate,
    grad_theta,
    grad_uff,
    hessian_theta,
)
from .problem import Gaussian, SteeringProblem, TimeVaryingLinearSystem, assemble, causality_mask, validate
from .solver import (
    SCAN_CHUNK,
    SolverOptions,
    count_strict_local_minima,
    line_scan,
    solve,
)

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


def _central_diff(f, x):
    """Central differences of f at the 1-D x, with step max(1e-6, 1e-6 |x_i|)
    along coordinate i; the difference along x_i is entry i of the last axis.
    f maps a stack of points to values stacked on the leading axis; it runs on
    stacks of SCAN_CHUNK points, x + h_i e_i or x - h_i e_i for a chunk of i."""
    h = np.maximum(1e-6, 1e-6 * np.abs(x))
    diffs = []
    for lo in range(0, x.size, SCAN_CHUNK):
        i = np.arange(lo, min(lo + SCAN_CHUNK, x.size))
        X = np.tile(x, (2, i.size, 1))  # X[0] = x + h_i e_i, X[1] = x - h_i e_i
        X[:, np.arange(i.size), i] += [h[i], -h[i]]
        diffs.append(np.moveaxis(f(X[0]) - f(X[1]), 0, -1) / (2 * h[i]))
    # C order: a norm sums in memory order, so the layout fixes its last bits
    return np.ascontiguousarray(np.concatenate(diffs, axis=-1))


def _fd_grad_check(ops, lam, mask, rng):
    """Relative errors of the analytic gradients against central differences."""
    u = 0.5 * rng.standard_normal(ops.N * ops.n_u)
    Theta = mask.project(0.2 * rng.standard_normal(mask.theta_shape))
    m, q = Theta.shape

    def vec_grad(flats):  # the Hessian's rows and columns follow vec(Theta), column-stacked
        return _mT(grad_theta(ops, lam, _mT(flats.reshape(-1, q, m)))).reshape(len(flats), -1)

    def rel(exact, approx):
        return np.linalg.norm(exact - approx) / max(1.0, np.linalg.norm(exact))

    fd_u = _central_diff(lambda U: _values(ops, lam, U, Theta).J, u)
    fd_t = _central_diff(lambda T: _values(ops, lam, u, T.reshape(-1, m, q)).J, Theta.ravel())
    fd_h = _central_diff(vec_grad, Theta.reshape(-1, order="F"))
    return (rel(grad_uff(ops, lam, u), fd_u),
            rel(grad_theta(ops, lam, Theta), fd_t.reshape(m, q)),
            rel(hessian_theta(ops, lam, Theta), fd_h))


def _cholesky_succeeds(H):
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _structured_row(ops, lam, mask, Theta, rng):
    """The structured curvature H = H_U + Z^T Z at Theta against the dense
    causal block: its inertia PD decision against dense Cholesky (counted
    only when |lambda_min| > 1e-8 ||H||_2), the backward error of a Newton
    solve with it, and its lambda_min against eigvalsh, whose own round-off
    is eps ||H||_2; the row ends with the number of rows P that nearly
    singular blocks of H_U shifted into the Woodbury border."""
    term = _terminal(ops, Theta)
    H = _hessian_block(ops, lam, mask.free_entries, term)
    curv = _StructuredCurvature(ops, lam, mask, term)
    eig = np.linalg.eigvalsh(H)
    lmin = float(curv.lambda_min())
    agree = abs(lmin - eig[0]) <= 1e-8 * abs(eig[0]) + np.finfo(float).eps * abs(eig).max()
    dense_pd = _cholesky_succeeds(H)
    agree = agree and (curv.pd == dense_pd or abs(eig[0]) <= 1e-8 * abs(eig).max())
    detail = (f"neg(H_U) {curv.neg_U}, neg(S) {curv.neg_S}, PD {curv.pd} vs dense "
              f"Cholesky {dense_pd}, min eig {lmin:.9e} vs dense {eig[0]:.9e}")
    rows = f", {curv.k} shifted border rows"
    if not curv.pd:
        return ("structured curvature vs dense causal block", bool(agree and eig[0] <= 0.0),
                detail + ", not PD: no Newton solve" + rows)
    b = rng.standard_normal(H.shape[0])
    x = curv.solve(b)
    err = np.linalg.norm(H @ x - b) / (eig[-1] * np.linalg.norm(x) + np.linalg.norm(b))
    return ("structured curvature vs dense causal block", bool(agree and err <= 1e-14),
            f"Newton solve backward error {err:.3e}, " + detail + rows)


def cmd_check(args):
    problem, cfg = load_config(args.config)
    options = solver_options_from_config(cfg)

    rows = []
    try:
        ops = assemble(problem)
        # assemble has already rejected an Stilde that is not PD
        smin = float(np.linalg.eigvalsh(ops.Stilde)[0])
        rows.append(("Stilde positive definite", True, f"min eig {smin:.3e}"))
    except WsteerError as e:
        rows.append(("Stilde positive definite", False, str(e)))
        _print_check_table(rows)
        return EXIT_INPUT

    mask = causality_mask(ops.N, ops.n_u, ops.n_x)
    lam = problem.lam
    rng = np.random.default_rng(0)

    def _certificate_row(label, Theta):
        # dominance (or lam = 0) implies a PD Hessian; report the eigenvalue,
        # and count the row pass/fail only when the implication applies
        cert = convexity_certificate(ops, lam, Theta, mode="dominance")
        hmin = float(np.linalg.eigvalsh(hessian_theta(ops, lam, Theta))[0])
        detail = f"dominance gap {cert.dominance_gap:.3e}, min eig Hess {hmin:.3e}"
        if cert.kind or lam == 0.0:
            rows.append((label, bool(hmin > 0.0), detail))
        else:
            rows.append((label, None, detail + " (not dominated)"))

    try:
        err_u, err_t, err_h = _fd_grad_check(ops, lam, mask, rng)
        rows.append(("grad_uff vs finite differences", bool(err_u <= 1e-6), f"rel err {err_u:.3e}"))
        rows.append(("grad_theta vs finite differences", bool(err_t <= 1e-6), f"rel err {err_t:.3e}"))
        rows.append(("hessian_theta vs finite differences", bool(err_h <= 1e-5), f"rel err {err_h:.3e}"))
        _certificate_row("Hessian PD at Theta=0 (certificate)", np.zeros(mask.theta_shape))
    except WsteerError as e:
        rows.append(("derivatives and Theta=0 certificate", False, f"{type(e).__name__}: {e}"))

    try:
        sol = solve(problem, options)
        _certificate_row("Hessian PD at Theta* (certificate)", sol.Theta)
        rows.append(_structured_row(ops, lam, mask, sol.Theta, rng))
    except DimensionMismatchError:  # a theta_init that does not fit the problem
        raise
    except ValidationError as e:
        rows.append(("Hessian PD at Theta* (certificate)", None, f"not solved (validation: {e})"))
    except WsteerError as e:
        rows.append(("Hessian PD at Theta* (certificate)", None, f"not solved: {e}"))

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
