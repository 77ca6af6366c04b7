"""Self-test of the benchmark harness.  Run from the repository root:

    python3 bench/selftest.py

It checks that
- every workload prints each end-to-end metric of BENCHMARK.json, with its
  unit, untraced, and each per-layer metric, with its unit, traced;
- two traced runs repeat solver.ccp.iters, matops.eig.calls and every
  operation's anchors exactly;
- the tracing wrappers are installed in the traced process only: never in
  an untraced run or its set-up processes, and removed again after tracing;
- without the repository's sources the benchmark exits non-zero and prints
  no result.
About two minutes on two cores.  Exit code 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# per-operation fields that are timings, so they may differ between runs
TIMING_FIELDS = {"s", "speed", "norm_s"}


def run_bench(workload, trace, seed=7, cwd=REPO):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


class Checks:
    def __init__(self):
        self.failed = 0

    def __call__(self, ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        self.failed += not ok


def check_metrics(check, label, result, declared):
    check(set(result) == RESULT_KEYS, f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
    got = result["metrics"]
    check(set(got) == set(declared), f"{label}: metric names "
          f"(missing {sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))})")
    bad = [n for n, m in got.items()
           if n in declared and (m.get("unit") != declared[n]
                                 or not isinstance(m.get("value"), (int, float)))]
    check(not bad, f"{label}: units and numeric values {bad or ''}")


def anchors(report):
    return [{k: v for k, v in op.items() if k not in TIMING_FIELDS}
            for op in report["operations"]]


def main():
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check = Checks()

    for w in (wl["name"] for wl in bench["workloads"]):
        code, lines, err = run_bench(w, 0)
        check(code == 0, f"{w} untraced: exit code {code} {err[-500:] if code else ''}")
        if code != 0:
            continue
        report = json.loads(lines[-2])["report"]
        check_metrics(check, f"{w} untraced", json.loads(lines[-1]), end_to_end)
        wr = report["wrappers"]
        check(wr["installs"] == 0 and wr["installed_at_end"] == 0
              and wr["in_setup_processes"] == 0, f"{w} untraced: no wrappers {wr}")

        traced = []
        for _ in range(2):
            code, lines, err = run_bench(w, 1)
            check(code == 0, f"{w} traced: exit code {code} {err[-500:] if code else ''}")
            if code != 0:
                break
            traced.append((json.loads(lines[-2])["report"], json.loads(lines[-1])))
        if len(traced) < 2:
            continue
        (rep_a, res_a), (rep_b, res_b) = traced
        check_metrics(check, f"{w} traced", res_a, per_layer)
        check(rep_a["wrappers"]["installs"] > 0 and rep_a["wrappers"]["installed_at_end"] == 0,
              f"{w} traced: wrappers installed, then removed {rep_a['wrappers']}")
        for name in ("solver.ccp.iters", "matops.eig.calls"):
            a, b = res_a["metrics"][name]["value"], res_b["metrics"][name]["value"]
            check(a == b, f"{w} traced: {name} repeats ({a} vs {b})")
        check(anchors(rep_a) == anchors(rep_b), f"{w} traced: anchors repeat")

    stripped = os.path.join(HERE, "out", "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        os.makedirs(os.path.join(stripped, "bench"))
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), stripped)
        for name in os.listdir(HERE):
            if os.path.isfile(os.path.join(HERE, name)):
                shutil.copy(os.path.join(HERE, name), os.path.join(stripped, "bench"))
        code, lines, _ = run_bench("lambda_scan", 0, cwd=stripped)
        check(code != 0 and not any(line.startswith('{"correct"') for line in lines),
              f"without sources: exit code {code}, no result printed")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)

    print(f"{check.failed} check(s) failed" if check.failed else "all checks passed")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
