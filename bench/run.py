"""wsteer benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (it imports the package from src/).  Set-up is
timed in fresh processes, one after another; then the workload's calls repeat
in this process, one at a time, for S seconds.  With --trace 0 the last line
of standard output is the JSON result with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of the traced passes, which
alternate with untraced passes so that the tracing overhead is measured in
the same run.  The line before it is a report with the environment, every
operation's anchors, and the spread of each timing.  The exit code is 0 only
when every operation met its anchor.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("lambda_scan", "horizon_newton", "montecarlo")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
BLAS_ENV = ("WSTEER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_only(workload, seed):
    """Body of a set-up process: import, load, validate, build; print the
    time and the machine's speed right after."""
    import workloads

    workloads.WORKLOADS[workload](seed)
    setup_s = time.perf_counter() - T_START
    import tracer

    print(json.dumps({"setup_s": setup_s, "speed": SpeedProbe().speed(setup_s),
                      "wrappers": tracer.installed_wrappers()}))


def time_setups(workload, seed):
    """Wall and normalized set-up times of SETUP_REPEATS fresh processes."""
    wall, norm, wrappers = [], [], 0
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            cwd=REPO, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        wall.append(out["setup_s"])
        norm.append(out["setup_s"] * out["speed"])
        wrappers += out["wrappers"]
    return wall, norm, wrappers


def _blas_threads():
    """Thread setting of every OpenBLAS loaded in this process."""
    import ctypes

    libs = set()
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    libs.add(path)
    except OSError:
        return None
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def _commit():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for root in (os.path.join(SRC, "wsteer"), os.path.join(REPO, "configs"), HERE):
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            if os.path.isfile(path) and name.endswith((".py", ".json")):
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


class SpeedProbe:
    """How fast the machine runs right now, relative to a fixed reference.

    On a shared host the same code runs up to 1.5x slower for tens of seconds
    at a time.  Right after each operation, and at the end of each set-up
    process, the probe repeats a fixed kernel, a small LAPACK call plus
    interpreter work, for 5% of the time just measured (at least 5 ms), and
    returns REFERENCE_S over its time per iteration.  A wall time times that
    speed is the time at the reference speed.  The probe runs no wsteer code,
    so a change to wsteer moves the normalized time fully.  Operations of
    workloads whose time goes to dense LAPACK are not normalized: the probe
    does not track their speed.
    """

    SHARE = 0.05
    MIN_S = 0.005
    WARMUP = 2
    # seconds per iteration at the reference speed, measured on a 2-vCPU
    # Intel Xeon VM (Python 3.11, numpy 2.4)
    REFERENCE_S = 1.3e-5

    def __init__(self):
        import numpy

        self._eigh = numpy.linalg.eigh  # bound before any tracing wrapper
        self._a = numpy.array([[4.0, 1.0, 0.0, 0.0], [1.0, 3.0, 1.0, 0.0],
                               [0.0, 1.0, 2.0, 1.0], [0.0, 0.0, 1.0, 1.0]])

    def _iteration(self):
        w, v = self._eigh(self._a)
        x = (v * w) @ v.T
        return float(x[0, 0]) + sum(range(32))

    def speed(self, op_s):
        # untimed iterations first, so that a cold cache left by the
        # operation does not enter the measured speed
        for _ in range(self.WARMUP):
            self._iteration()
        target = max(self.MIN_S, self.SHARE * op_s)
        k = 0
        t0 = time.perf_counter()
        while True:
            self._iteration()
            k += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= target:
                return self.REFERENCE_S * k / elapsed


class Caller:
    """Times each operation of one pass and records its outcome."""

    def __init__(self, tracer, probe, first_op):
        self.tracer = tracer
        self.probe = probe
        self.next_op = first_op
        self.ops = []

    def __call__(self, kind, label, fn, *args):
        rec = {"kind": kind, "label": label}
        op_id = self.next_op
        self.next_op += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                result = self.tracer.operation(kind, op_id, fn, *args)
            rec["ok"] = True
        except Exception as e:  # an operation's failure is counted, not fatal
            result = None
            rec["ok"] = False
            rec["error"] = f"{type(e).__name__}: {e}"
        rec["s"] = time.perf_counter() - t0
        rec["speed"] = self.probe.speed(rec["s"]) if self.probe else 1.0
        rec["norm_s"] = rec["s"] * rec["speed"]
        self.ops.append(rec)
        return result, rec


def spread(values):
    """Median, quartiles and count of a list of timings."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def op_seconds(ops, kind=None, key="s"):
    """Total wall time (key "s") or normalized time (key "norm_s") of ops."""
    return sum(r[key] for r in ops if kind is None or r["kind"] == kind)


def run(args):
    setup_wall, setup_norm, setup_wrappers = (
        ([], [], 0) if args.trace else time_setups(args.workload, args.seed))

    sys.path.insert(0, SRC)
    import tracer as tr
    import workloads

    # made before any tracing wrapper is installed, so it binds the plain eigh
    probe = SpeedProbe() if workloads.WORKLOADS[args.workload].speed_probe else None

    tracer = tr.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        wl = tracer.operation("bench.setup", 0, workloads.WORKLOADS[args.workload], args.seed)
        tracer.uninstall()
        setup_spans = len(tracer.spans)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)

    next_op = 1

    def one_pass(traced):
        nonlocal next_op
        if traced:
            tracer.install()
        lo = len(tracer.spans) if tracer else 0
        caller = Caller(tracer if traced else None, probe, next_op)
        try:
            wl.run_pass(caller)
        finally:
            if traced:
                tracer.uninstall()
        next_op = caller.next_op
        return traced, caller.ops, lo, len(tracer.spans) if tracer else 0

    # The first pass lets caches fill and allocations settle: its results are
    # checked, its time is not counted.
    first_ops = one_pass(False)[1]
    passes = []  # timed passes: (traced, ops, first span, end span)
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(one_pass(tracer is not None and len(passes) % 2 == 1))
        if time.perf_counter() >= deadline and len(passes) >= (2 if tracer else 1):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_ops = first_ops + [r for _, ops, _, _ in passes for r in ops]
    failed = sum(not r["ok"] for r in all_ops)
    solves = [r for r in all_ops if r["kind"] == "solve"] + wl.setup_solves
    converged = sum(bool(r.get("converged")) for r in solves)
    untraced = [ops for traced, ops, _, _ in passes if not traced]
    wrappers_now = tr.installed_wrappers()
    wrappers_ok = wrappers_now == 0 and (
        tracer.installs > 0 if tracer else setup_wrappers == 0)

    timings = {
        "pass_norm_s": spread([op_seconds(ops, key="norm_s") for ops in untraced]),
        "pass_s": spread([op_seconds(ops) for ops in untraced]),
        **{f"{kind}_s": spread([op_seconds(ops, kind) for ops in untraced])
           for kind in ("solve", "line_scan", "rollout")
           if any(r["kind"] == kind for r in first_ops)},
        "speed": spread([r["speed"] for ops in untraced for r in ops]),
    }
    if setup_norm:
        timings["setup_s"] = spread(setup_norm)
        timings["setup_wall_s"] = spread(setup_wall)

    if tracer is None:
        metrics = {
            "pass_norm_s": (timings["pass_norm_s"]["median"], "s"),
            "setup_s": (timings["setup_s"]["median"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "converged_share": (converged / len(solves) if solves else 1.0, "share"),
        }
    else:
        metrics = traced_metrics(tracer, passes, setup_spans)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.jsonl.gz"))

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "seconds": args.seconds,
        "passes": len(passes),  # timed passes, after one untimed warm-up pass
        "traced_passes": sum(t for t, _, _, _ in passes),
        "timings": timings,
        "peak_rss_mb": peak_rss_mb,
        "unconverged_share": 1.0 - converged / len(solves) if solves else 0.0,
        "stalled_above_tol": sum(bool(r.get("stalled_above_tol")) for r in first_ops),
        "setup_solves": wl.setup_solves,
        "operations": first_ops,
        "failures": [r for r in all_ops if not r["ok"]],
        "wrappers": {"installs": tracer.installs if tracer else 0,
                     "installed_at_end": wrappers_now,
                     "in_setup_processes": setup_wrappers},
    }
    print(json.dumps({"report": report}))
    correct = failed == 0 and wrappers_ok
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def traced_metrics(tracer, passes, setup_spans):
    from tracer import layer_metrics

    per_pass = []
    for traced, ops, lo, hi in passes:
        if not traced:
            continue
        m = layer_metrics(tracer.spans, lo, hi)
        m["solver.line_scan.points"] = sum(r.get("points", 0) for r in ops)
        m["solver.stalled_above_tol"] = sum(bool(r.get("stalled_above_tol")) for r in ops)
        per_pass.append(m)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["cli.load_config.s"] = sum(
        end - start for name, start, end, _, _ in tracer.spans[:setup_spans]
        if name == "cli.load_config")
    traced_s = [op_seconds(ops, key="norm_s") for t, ops, _, _ in passes if t]
    untraced_s = [op_seconds(ops, key="norm_s") for t, ops, _, _ in passes if not t]
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("share", "ratio", "per_ccp_iter")):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for need in (os.path.join(SRC, "wsteer", "__init__.py"),
                 os.path.join(REPO, "configs", "double_integrator_tight.json"),
                 os.path.join(REPO, "configs", "double_integrator_wide.json")):
        if not os.path.isfile(need):
            print(f"error: {os.path.relpath(need, REPO)} not found; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    if args.setup_only:
        sys.path.insert(0, SRC)
        setup_only(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
