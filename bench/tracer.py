"""Outside-in span tracing of wsteer from the benchmark's own files.

The tracer replaces the module-level names that the package calls through
with timing wrappers, so the program itself runs unchanged.  One wrapper is
made per function object and installed under every name the package reaches
it by, so a call is never timed twice.  Each span records its name, start,
end, parent span and operation id; spans stay in memory until the run ends.
"""

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

import numpy as np

import wsteer.cli
import wsteer.matops
import wsteer.objective
import wsteer.problem
import wsteer.simulate
import wsteer.solver

MARK = "__bench_span__"

# (module, attribute, span name)
TARGETS = (
    (wsteer.cli, "load_config", "cli.load_config"),
    (wsteer.problem, "assemble", "problem.assemble"),
    (wsteer.solver, "assemble", "problem.assemble"),
    (wsteer.simulate, "assemble", "problem.assemble"),
    (wsteer.problem, "validate", "problem.validate"),
    (wsteer.solver, "validate", "problem.validate"),
    (wsteer.solver, "solve_feedforward", "solver.feedforward"),
    (wsteer.solver, "ccp_solve", "solver.ccp"),
    (wsteer.solver, "ccp_subproblem", "solver.ccp_step"),
    (wsteer.solver, "_reduced_curvature_factor", "solver.curvature_factor"),
    (wsteer.solver, "newton_refine", "solver.newton"),
    (wsteer.solver, "evaluate", "objective.evaluate"),
    (wsteer.solver, "stationarity_residual", "objective.stationarity_residual"),
    (wsteer.solver, "grad_theta_j4", "objective.grad_theta_j4"),
    (wsteer.objective, "grad_theta_j4", "objective.grad_theta_j4"),
    (wsteer.solver, "hessian_theta", "objective.hessian_theta"),
    (wsteer.objective, "hessian_theta", "objective.hessian_theta"),
    (wsteer.solver, "convexity_certificate", "objective.certificate"),
    (wsteer.objective, "sqrtm_psd", "matops.sqrtm_psd"),
    (wsteer.matops, "sqrtm_psd", "matops.sqrtm_psd"),
    (wsteer.objective, "geometric_mean", "matops.geometric_mean"),
    (wsteer.matops, "geometric_mean", "matops.geometric_mean"),
    (wsteer.simulate, "_sample_noise", "simulate.noise"),
    (wsteer.simulate, "_closed_loop_states", "simulate.propagate"),
    (wsteer.simulate, "theta_to_k", "simulate.theta_to_k"),
    (wsteer.solver, "theta_to_k", "simulate.theta_to_k"),
    (np.linalg, "eigh", "matops.eig"),
    (np.linalg, "eigvalsh", "matops.eig"),
)

# spans the benchmark opens around each operation
OPERATION_SPANS = {
    "solve": "solver.solve",
    "line_scan": "solver.line_scan",
    "rollout": "simulate.rollout",
}


def installed_wrappers():
    """How many of the traced names currently hold a tracing wrapper."""
    return sum(hasattr(getattr(mod, attr), MARK) for mod, attr, _ in TARGETS)


def _certificate_name(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "dominance")
    return f"objective.certificate.{mode}"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self._stack = []
        self._op = -1
        self._saved = []
        self.installs = 0
        wrappers = {}
        self._plan = []
        for mod, attr, name in TARGETS:
            fn = getattr(mod, attr)
            if id(fn) not in wrappers:
                namer = _certificate_name if name == "objective.certificate" else None
                wrappers[id(fn)] = self._wrap(fn, name, namer)
            self._plan.append((mod, attr, wrappers[id(fn)]))

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, namer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(namer(args, kwargs) if namer else name)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        if self._saved:
            return
        for mod, attr, wrapper in self._plan:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)
        self.installs += 1

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def operation(self, kind, op_id, fn, *args):
        """Call fn(*args) under a top-level span; the exception, if any, propagates."""
        self._op = op_id
        rec = self._open(OPERATION_SPANS.get(kind, kind))
        rec[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self._op = -1

    def write(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('["name", "start", "end", "parent", "op"]\n')
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")


def layer_metrics(spans, lo, hi):
    """Per-layer counts and inclusive times of the spans spans[lo:hi], which
    hold whole operations (a parent always precedes its children)."""
    secs = defaultdict(float)
    calls = Counter()
    child_s = defaultdict(float)
    ccp_record_s = 0.0
    grad_unused = 0
    newton_evals = 0
    newton_accepted = 0
    solve_eigs = 0
    root = {}  # span index -> index of its top-level span
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        dur = end - start
        secs[name] += dur
        calls[name] += 1
        if parent < 0:
            root[i] = i
            continue
        root[i] = root[parent]
        if name == "matops.eig" and spans[root[i]][0] == "solver.solve":
            solve_eigs += 1
        child_s[parent] += dur
        pname = spans[parent][0]
        if pname == "solver.ccp" and name in ("objective.evaluate",
                                              "objective.stationarity_residual"):
            ccp_record_s += dur
        if name == "objective.evaluate" and pname in ("solver.line_scan", "solver.ccp",
                                                      "solver.newton"):
            grad_unused += 1
        if pname == "solver.newton":
            newton_evals += name == "objective.evaluate"
            newton_accepted += name == "objective.stationarity_residual"
    unattributed = sum(spans[i][2] - spans[i][1] - child_s[i]
                       for i in range(lo, hi) if spans[i][3] < 0)
    line_search = newton_evals - calls["solver.newton"]
    ccp_iters = calls["solver.ccp_step"]
    return {
        "problem.assemble.calls": calls["problem.assemble"],
        "problem.assemble.s": secs["problem.assemble"],
        "problem.validate.s": secs["problem.validate"],
        "solver.solve.s": secs["solver.solve"],
        "solver.ccp.iters": ccp_iters,
        "solver.ccp_step.s": secs["solver.ccp_step"],
        "solver.curvature_factor.s": secs["solver.curvature_factor"],
        "solver.ccp_record.s": ccp_record_s,
        "solver.newton.iters": newton_accepted,
        "solver.newton.s": secs["solver.newton"],
        "solver.newton.accept_ratio": newton_accepted / line_search if line_search else 0.0,
        "solver.feedforward.s": secs["solver.feedforward"],
        "solver.line_scan.s": secs["solver.line_scan"],
        "objective.evaluate.calls": calls["objective.evaluate"],
        "objective.evaluate.s": secs["objective.evaluate"],
        "objective.evaluate.grad_unused_share": (
            grad_unused / calls["objective.evaluate"] if calls["objective.evaluate"] else 0.0),
        "objective.stationarity_residual.calls": calls["objective.stationarity_residual"],
        "objective.stationarity_residual.s": secs["objective.stationarity_residual"],
        "objective.grad_theta_j4.calls": calls["objective.grad_theta_j4"],
        "objective.grad_theta_j4.s": secs["objective.grad_theta_j4"],
        "objective.hessian_theta.calls": calls["objective.hessian_theta"],
        "objective.hessian_theta.s": secs["objective.hessian_theta"],
        "objective.certificate.s": (secs["objective.certificate.dominance"]
                                    + secs["objective.certificate.spectral"]),
        "objective.certificate.spectral_calls": calls["objective.certificate.spectral"],
        "matops.eig.calls": calls["matops.eig"],
        "matops.eig.s": secs["matops.eig"],
        "matops.eig_per_ccp_iter": solve_eigs / ccp_iters if ccp_iters else 0.0,
        "matops.geometric_mean.calls": calls["matops.geometric_mean"],
        "matops.sqrtm_psd.calls": calls["matops.sqrtm_psd"],
        "simulate.rollout.s": secs["simulate.rollout"],
        "simulate.noise.s": secs["simulate.noise"],
        "simulate.propagate.s": secs["simulate.propagate"],
        "simulate.theta_to_k.s": secs["simulate.theta_to_k"],
        "trace.unattributed_s": unattributed,
    }
