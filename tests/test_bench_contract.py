"""The benchmark tracer wraps package names by (module, attribute); a renamed
or deleted name breaks every set-up measurement, traced or not, and a call
moved away from a wrapped name silently zeroes the count the tracer reads."""

import importlib.util
import pathlib
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import SD_TIGHT, SD_WIDE, double_integrator_problem, rand_causal_theta
import wsteer
import wsteer.solver

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in tracer.TARGETS
               if not hasattr(mod, attr)]
    assert missing == []
    assert tracer.installed_wrappers() == 0


def counted(monkeypatch, names):
    """Replace each wsteer.solver.<name> by a wrapper, as the tracer does, and
    return {name: list}, to whose list each call appends (the innermost
    wrapped name it runs inside, None at the top; its keyword arguments)."""
    calls, stack = {}, [None]

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append((stack[-1], kwargs))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper
    for name in names:
        calls[name] = []
        monkeypatch.setattr(wsteer.solver, name, wrap(name, getattr(wsteer.solver, name)))
    return calls


def start(Sd):
    """A start from which the solve takes both step kinds at lambda=100:
    Theta = 0 for the wide target (one CCP step), and for the tight target,
    which takes none from Theta = 0, a far causal gain (three)."""
    if Sd is SD_WIDE:
        return None
    return rand_causal_theta(np.random.default_rng(2), wsteer.causality_mask(10, 1, 2), 3.0)


def traced_solve(monkeypatch, Sd, theta_init):
    """Solve at lambda=100, counting the calls whose spans the tracer's solver
    metrics read; returns (solution, records per kind, counted calls)."""
    traced = {(mod.__name__, attr) for mod, attr, _ in load_tracer().TARGETS}
    names = ("newton_refine", "ccp_subproblem", "_reduced_curvature_factor", "evaluate",
             "stationarity_residual", "convexity_certificate")
    assert {("wsteer.solver", name) for name in names} <= traced
    calls = counted(monkeypatch, names)
    sol = wsteer.solver.solve(double_integrator_problem(Sd, lam=100.0),
                              wsteer.solver.SolverOptions(theta_init=theta_init))
    assert sol.trace.termination == "stationarity"
    return sol, Counter(r.kind for r in sol.trace.records), calls


def check_solver_calls(sol, records, calls):
    # Newton is tried once at every record but the last; each record, Newton's
    # included, is one evaluate and one stationarity_residual, which run
    # inside newton_refine exactly for its accepted steps
    assert len(calls["newton_refine"]) == len(sol.trace.records) - 1
    for name in ("evaluate", "stationarity_residual"):
        assert Counter(caller for caller, _ in calls[name]) == {
            "newton_refine": records["newton"], None: records["init"] + records["ccp"]}
    assert len(calls["ccp_subproblem"]) == records["ccp"]
    assert len(calls["_reduced_curvature_factor"]) == min(records["ccp"], 1)


@pytest.mark.parametrize("Sd, kinds", [(SD_TIGHT, ["dominance"]),
                                       (SD_WIDE, ["dominance", "spectral"])])
def test_solve_calls_what_the_tracer_counts(monkeypatch, Sd, kinds):
    # solver.ccp.iters, solver.newton.iters and the certificate spans count
    # calls of these names; a solve that bypassed them would read as no work
    sol, records, calls = traced_solve(monkeypatch, Sd, start(Sd))
    assert records["ccp"] > 0 and records["newton"] > 0
    check_solver_calls(sol, records, calls)
    assert [kw["mode"] for _, kw in calls["convexity_certificate"]] == kinds
    assert (sol.certificate.kind == "DominatedCovariance") == (kinds == ["dominance"])


def test_solve_without_ccp_step_builds_no_ccp_curvature(monkeypatch):
    # the tight target at lambda=100 takes Newton steps only from Theta = 0:
    # solver.curvature_factor.s must read 0, not the cost of an unused factor
    sol, records, calls = traced_solve(monkeypatch, SD_TIGHT, None)
    assert records["ccp"] == 0 and records["newton"] > 0
    check_solver_calls(sol, records, calls)
    assert calls["_reduced_curvature_factor"] == []
