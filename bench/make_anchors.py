"""Regenerate bench/anchors.json, the reference J of every benchmark solve.

The reference is the Newton-refined J of each instance: the instance's own
solver options with newton="when_certified", which must end with a projected
residual at or below the tolerance.  Run from the repository root:

    python3 bench/make_anchors.py
"""

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from wsteer import solver  # noqa: E402


def reference_J(prob, options):
    options = replace(options, newton="when_certified")
    sol = solver.solve(prob, options)
    residual = sol.trace.records[-1].residual
    if residual > options.stationarity_tol:
        raise SystemExit(f"reference solve stopped at residual {residual:.3e}")
    return sol.report.J


def main():
    configs = wl.load_configs()
    refs = {}
    for lam in wl.SCAN_LAMBDAS:
        for name, (prob, options) in configs.items():
            refs[f"{name}/lambda={lam:g}"] = reference_J(wl.with_changes(prob, lam=lam), options)
    for N in wl.HORIZONS:
        for name, (prob, _) in configs.items():
            p = wl.with_changes(prob, lam=wl.HORIZON_LAMBDA, horizon=N)
            refs[f"{name}/N={N}/lambda={wl.HORIZON_LAMBDA:g}"] = reference_J(p, wl.HORIZON_OPTIONS)
    with open(wl.ANCHORS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"solve_J": refs}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {wl.ANCHORS_PATH}")


if __name__ == "__main__":
    main()
