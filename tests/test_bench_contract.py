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


def counted(monkeypatch, name):
    """Replace wsteer.solver.<name> by a wrapper, as the tracer does, and
    return the list to which each call appends its (args, kwargs)."""
    calls = []
    fn = getattr(wsteer.solver, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)
    monkeypatch.setattr(wsteer.solver, name, wrapper)
    return calls


def start(Sd):
    """A start from which the solve takes both step kinds at lambda=100:
    Theta = 0 for the wide target (one CCP step), and for the tight target,
    which takes none from Theta = 0, a far causal gain (three)."""
    if Sd is SD_WIDE:
        return None
    return rand_causal_theta(np.random.default_rng(2), wsteer.causality_mask(10, 1, 2), 3.0)


@pytest.mark.parametrize("Sd, kinds", [(SD_TIGHT, ["dominance"]),
                                       (SD_WIDE, ["dominance", "spectral"])])
def test_solve_calls_what_the_tracer_counts(monkeypatch, Sd, kinds):
    # solver.ccp.iters, solver.newton.iters and the certificate spans count
    # calls of these names; a solve that bypassed them would read as no work
    traced = {(mod.__name__, attr) for mod, attr, _ in load_tracer().TARGETS}
    names = ("ccp_subproblem", "stationarity_residual", "convexity_certificate")
    assert {("wsteer.solver", name) for name in names} <= traced
    steps, residuals, certificates = (counted(monkeypatch, name) for name in names)
    sol = wsteer.solver.solve(double_integrator_problem(Sd, lam=100.0),
                              wsteer.solver.SolverOptions(theta_init=start(Sd)))
    records = Counter(r.kind for r in sol.trace.records)
    assert records["ccp"] > 0 and records["newton"] > 0
    assert len(steps) == records["ccp"]
    assert len(residuals) == records["newton"]
    assert [kw["mode"] for _, kw in certificates] == kinds
    assert (sol.certificate.kind == "DominatedCovariance") == (kinds == ["dominance"])
