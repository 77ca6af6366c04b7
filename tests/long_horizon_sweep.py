"""Long-horizon sweep of `solve`, the measurement behind ROADMAP's table of
long horizons.

Solves `conftest.long_horizon_problem` at N in {100, 120, ..., 200} and
seeds 0-2 with default options and default BLAS threads, each instance in a
fresh interpreter, and prints one row per instance: the termination (or the
class of the error that ended the solve), CCP + Newton steps, the Newton
steps taken with H + 2 s I near a singular block of H_U (counted from the
shift that `solver._curvature_solve` receives), the final projected
residual, J, the solve's wall time and the process's peak RSS.
Run from the repository root:

    PYTHONPATH=src python tests/long_horizon_sweep.py [N ...]
"""

import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

from conftest import long_horizon_problem
import wsteer as w
import wsteer.solver
from wsteer.errors import WsteerError

HORIZONS = tuple(range(100, 201, 20))
SEEDS = (0, 1, 2)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def instance(N, seed):
    """The row of long_horizon_problem(default_rng(seed), N), solved in this process."""
    problem = long_horizon_problem(np.random.default_rng(seed), N)
    solve, shifts = wsteer.solver._curvature_solve, []

    def spy(factor, rhs, shift=0.0):
        shifts.append(shift)
        return solve(factor, rhs, shift)
    wsteer.solver._curvature_solve = spy
    start = time.perf_counter()
    try:
        sol = w.solve(problem)
    except WsteerError as e:
        row = {"termination": type(e).__name__}
    else:
        kinds = [r.kind for r in sol.trace.records]
        row = {"termination": sol.trace.termination, "ccp": kinds.count("ccp"),
               "newton": kinds.count("newton"), "residual": sol.trace.records[-1].residual,
               "J": sol.report.J}
    row["seconds"] = time.perf_counter() - start
    wsteer.solver._curvature_solve = solve
    row["damped"] = sum(s != 0.0 for s in shifts)
    row["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    return row


def run(N, seed):
    """instance(N, seed) in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--one", str(N), str(seed)],
                         check=True, capture_output=True, text=True, env=env)
    return json.loads(out.stdout)


def format_row(N, seed, row):
    text = f"{N:4d} {seed:5d}  {row['termination']:<17}"
    if "J" in row:
        text += (f"{row['ccp']:4d} + {row['newton']:<3d} {row['damped']:6d}"
                 f" {row['residual']:9.2e}  {row['J']!r:<20}")
    else:
        text += " " * 49
    return text + f"{row['seconds']:6.1f} s {row['peak_mb']:6.0f} MB"


def main(horizons):
    print("   N  seed  termination       steps      damped residual  J"
          "                     time       peak RSS")
    for N in horizons:
        for seed in SEEDS:
            print(format_row(N, seed, run(N, seed)), flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(instance(int(sys.argv[2]), int(sys.argv[3]))))
    else:
        main([int(a) for a in sys.argv[1:]] or HORIZONS)
