"""Benchmark of the bosesemi solver: one workload per invocation.

    python3 perfbench/run.py --workload dw-spectra --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src``
without installing it.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See perfbench/README.md.

The invoking process only launches and collects.  The workload runs in a
fresh worker process: imports, inputs from the seed, one untimed warm-up
pass, then whole timed passes over the workload's operations, one
operation at a time, as many as come nearest to ``--seconds``.  With ``--trace 0``
two more fresh processes repeat the set-up alone, and ``setup_s`` is the
median of the three set-up times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# np.roots goes through LAPACK; one thread per process keeps the timing
# free of oversubscription on a small machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0


def _clock():
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("dw-spectra", "density-large", "states"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("launcher", "worker", "probe"), default="launcher",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# launcher


def _spawn(args, role, deadline):
    """Run a worker or probe to its end; returns (set-up seconds, stdout lines)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    start = _clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - _clock(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{role} exited with code {proc.returncode}")
    lines = stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if len(ready) != 1:
        raise RuntimeError(f"{role} did not report its set-up")
    return ready[0] - start, [line for line in lines if not line.startswith("READY ")]


def launch(args):
    # On SIGTERM, unwind so that _spawn kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = _clock() + WORKER_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(args, "probe", deadline)[0])
    setup, lines = _spawn(args, "worker", deadline)
    setups.append(setup)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        order = ("ops_per_s", "setup_s", "peak_rss_mb")
        result["metrics"] = {k: result["metrics"][k] for k in order}
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  attempted = {result['attempted']}  failed = {result['failed']}"
          f"  correct = {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# worker


class Tally:
    """Attempted and failed operations, and the worst deviation of every
    check per operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.errors = {}
        self.worst = {}

    def check(self, op, out):
        """Check one output; returns True when every check passed."""
        results = op.check(out)
        for c in results:
            key = (op.name, c.name)
            prev = self.worst.get(key)
            if prev is None or not c.value <= prev[0]:
                self.worst[key] = (c.value, c.bound)
        if all(c.ok for c in results):
            return True
        self.check_failures += 1
        return False

    def record(self, op, out, err):
        """Count one operation; returns True when it returned and passed."""
        self.attempted += 1
        if err is None and self.check(op, out):
            return True
        self.failed += 1
        if err is not None:
            key = (op.name, f"{type(err).__name__}: {err}")
            self.errors[key] = self.errors.get(key, 0) + 1
        return False

    def report(self):
        print("deviations (worst per operation and check; value / bound):")
        for (name, check), (value, bound) in sorted(self.worst.items()):
            flag = "" if value <= bound else "  FAILED"
            print(f"  {name:42s} {check:26s} {value:.3g} / {bound:.3g}{flag}")
        for (name, msg), count in sorted(self.errors.items()):
            print(f"  {name:42s} raised {count}x: {msg}")


def _another(elapsed, rounds, seconds):
    """Whether to start another whole round (pass, or pair of passes):
    a run makes at least one, and stops at the count whose total time is
    nearest to `seconds`."""
    return rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds


def _timed(fn):
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # a failed operation is recorded, not fatal
        out, err = None, exc
    return out, err, time.perf_counter() - t0


def work(args):
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    import bosesemi
    if os.path.dirname(os.path.abspath(bosesemi.__file__)) != os.path.join(SRC, "bosesemi"):
        raise SystemExit(f"bosesemi imported from {bosesemi.__file__}, not from {SRC}")
    import workloads

    ops, warmup = workloads.build(args.workload, args.seed, OUT)
    warm = [(op, _timed(op.run)) for op in warmup]
    print(f"READY {_clock()!r}", flush=True)
    if args.role == "probe":
        return 0

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass")
    for op in ops:
        print(f"  {op.name}")
    tally = Tally()
    for op, (out, err, _) in warm:
        if err is None:
            tally.check(op, out)
    if args.trace:
        metrics = _traced(args, ops, tally)
    else:
        metrics = _untraced(args, ops, tally)
    tally.report()
    result = {
        "correct": tally.check_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _untraced(args, ops, tally):
    pass_times, ok_counts = [], []
    op_times = {op.name: [] for op in ops}
    start = time.perf_counter()
    while _another(time.perf_counter() - start, len(pass_times), args.seconds):
        total, ok = 0.0, 0
        for op in ops:
            out, err, dt = _timed(op.run)
            op_times[op.name].append(dt)
            total += dt
            ok += tally.record(op, out, err)
        pass_times.append(total)
        ok_counts.append(ok)
    print(f"passes: {len(pass_times)}; pass times (s): "
          f"{', '.join(f'{t:.3f}' for t in pass_times)}")
    print("median operation times (s):")
    for name, times in op_times.items():
        print(f"  {name:42s} {statistics.median(times):.3f}")
    ops_per_s = statistics.mean(ok_counts) / statistics.median(pass_times)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"ops_per_s": (ops_per_s, "op/s"), "peak_rss_mb": (peak, "MB")}


def _traced(args, ops, tally):
    """Pairs of an untraced and a traced pass until the time is up."""
    from spans import Tracer

    tracer = Tracer()
    plain = traced = 0.0
    levels = 0
    pairs = 0
    start = time.perf_counter()
    while _another(time.perf_counter() - start, pairs, args.seconds):
        for op in ops:
            out, err, dt = _timed(op.run)
            plain += dt
            tally.record(op, out, err)
        tracer.install()
        try:
            results = [(op, tracer.run_op(op.name, op.run)) for op in ops]
        finally:
            tracer.uninstall()
        for op, (out, err, dt) in results:
            traced += dt
            if tally.record(op, out, err):
                levels += op.levels(out)
        pairs += 1
    metrics = tracer.metrics(levels)
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    selfs, wall = tracer.layer_sum()
    print(f"traced passes: {pairs}; layer self times sum to {selfs:.6f} s "
          f"of {wall:.6f} s traced operation wall time")
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed})
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return metrics


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "bosesemi", "__init__.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.role == "launcher":
        return launch(args)
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
