"""Wall time and peak RSS of `wsteer check` against `wsteer solve` on the
same config, over horizons, and of `wsteer simulate` on the solved policy.

For each N the config is `conftest.long_horizon_problem(default_rng(0), N)`
written with per-step matrices, or with --tight the shipped tight double
integrator with N changed.  Each command runs REPEATS times, each time in a
fresh interpreter; a row prints the medians of each command's wall time and
peak RSS (the child's own maximum resident set), their check/solve ratios,
check's exit code, and the same medians for `simulate` with its default
100k samples, reading the policy the last solve wrote.  Run from the
repository root:

    PYTHONPATH=src python tests/check_scaling.py [--tight] [N ...]
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from conftest import long_horizon_problem, per_step_config

HORIZONS = (10, 40, 60, 100, 150)
REPEATS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def config(N, tight):
    if tight:
        path = os.path.join(ROOT, "configs", "double_integrator_tight.json")
        with open(path, encoding="utf-8") as fh:
            return dict(json.load(fh), N=N)
    return per_step_config(long_horizon_problem(np.random.default_rng(0), N))


def measure(argv):
    """(wall seconds, peak RSS in MB, exit code) of `python -m wsteer.cli argv`
    in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "wsteer.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return seconds, usage.ru_maxrss / 1024, proc.returncode  # ru_maxrss is in KB on Linux


def medians(argv):
    runs = [measure(argv) for _ in range(REPEATS)]
    seconds, peak_mb, codes = zip(*runs)
    return float(np.median(seconds)), float(np.median(peak_mb)), codes[-1]


def main(horizons, tight):
    print("   N  check s  check MB  solve s  solve MB  time x  RSS x  check exit"
          "  simulate s  simulate MB")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "solution.json")
        for N in horizons:
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(config(N, tight), fh)
            c_s, c_mb, code = medians(["check", cfg])
            s_s, s_mb, _ = medians(["solve", cfg, "-o", out])
            r_s, r_mb, _ = medians(["simulate", cfg, out])
            print(f"{N:4d} {c_s:8.2f} {c_mb:9.0f} {s_s:8.2f} {s_mb:9.0f} "
                  f"{c_s / s_s:7.1f} {c_mb / s_mb:6.2f} {code:11d} {r_s:11.2f} {r_mb:12.0f}",
                  flush=True)


if __name__ == "__main__":
    args = sys.argv[1:]
    tight = "--tight" in args
    main([int(a) for a in args if a != "--tight"] or HORIZONS, tight)
