"""Paired benchmark record: a base revision against this checkout.

    python3 bench/record.py --base REV --label NAME [--seeds K]

Exports the committed files of the base revision into a temporary
directory (``git archive``), and copies this checkout's files (head:
those git tracks or would add, uncommitted changes included) into a
second one, so that neither side runs from the checkout itself; then runs

    python3 perfbench/run.py --workload W --seed s --seconds S --trace 0

on base and on head in alternation, for every workload W that
``BENCHMARK.json`` declares, at its ``run_seconds`` S, over seeds
s = 1..K.  The side that runs first swaps from seed to seed, so a slow
drift of the machine falls on both sides alike.

Writes ``BENCH_<label>.json`` at the root of the checkout: per workload
every run's metrics, operation counts and ``correct`` flag, and per
end-to-end metric both sides' medians and quartiles, the median and
quartiles of the per-seed ratios head / base, the number of seeds on
which head is better, whether head's median is worse than base's by
more than the metric's ``bound`` (``beyond_bound``: relative, in the
direction the metric counts as better), whether the median per-seed
ratio is worse than 1 by more than the bound (``beyond_bound_paired``:
a side's median alone moves with how many slow runs that side drew on
a machine whose timings are bimodal), and whether a gain is shown
(``gain_shown``: head is better in at least 9 of 10 pairs, and its
median is better than base's by more than base's quartile distance);
per workload also each side's failed operations and its number of runs
flagged not ``correct``.

After the paired runs, each side runs every workload once more with
``--trace 1`` at seed 1, and the record keeps those per-layer metrics
under ``layers: {base, head}``.

Exits with status 1 when head has more runs flagged not ``correct``, or
more failed operations, than base on any workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev, into):
    """Write the committed files of revision ``rev`` into directory ``into``."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def _copy_checkout(into):
    """Copy the working-tree files of this checkout that git tracks or
    would add (not ignored) into directory ``into``."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in names:
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):  # a tracked file deleted in the tree is skipped
            os.makedirs(os.path.dirname(os.path.join(into, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(into, name))


def _run(checkout, workload, seed, seconds, trace=0):
    """One ``perfbench/run.py`` run; returns its final JSON object."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        # run.py stops its worker on SIGTERM.
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{stderr}")
    return json.loads(stdout.splitlines()[-1])


def _quartiles(xs):
    """(q1, median, q3) of the values xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def _summary(base, head, better):
    """Both sides' values with their medians and quartiles, the median and
    quartiles of the paired ratios head / base, the number of pairs in
    which head is better (ties count for neither side), and whether that
    shows a gain: head better in at least 9 of 10 pairs, and its median
    better than base's by more than base's quartile distance."""
    ratios = [h / b for b, h in zip(base, head)]
    sign = 1.0 if better == "higher" else -1.0
    out = {"base": base, "head": head,
           "head_wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
           "pairs": len(ratios)}
    for name, xs in (("base", base), ("head", head), ("ratio", ratios)):
        out[f"{name}_q1"], out[f"{name}_median"], out[f"{name}_q3"] = _quartiles(xs)
    out["gain_shown"] = (10 * out["head_wins"] >= 9 * out["pairs"]
                         and sign * (out["head_median"] - out["base_median"])
                         > out["base_q3"] - out["base_q1"])
    return out


def _beyond_bound(base_median, head_median, better, bound):
    """Whether head's median is worse than base's by more than the
    relative ``bound``, in the direction ``better`` ("higher" or "lower")."""
    if better == "higher":
        return head_median < (1.0 - bound) * base_median
    return head_median > (1.0 + bound) * base_median


def record(base_dir, head_dir, bench, seeds):
    out = {}
    for w in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            sides = (("base", base_dir), ("head", head_dir))
            for side, checkout in sides if seed % 2 else sides[::-1]:
                print(f"{time.strftime('%H:%M:%S')} {w} seed {seed} {side}",
                      file=sys.stderr, flush=True)
                res = _run(checkout, w, seed, bench["run_seconds"])
                runs.append({"seed": seed, "side": side, "correct": res["correct"],
                             "attempted": res["attempted"], "failed": res["failed"],
                             "metrics": {k: m["value"] for k, m in res["metrics"].items()}})
        metrics = {}
        for decl in bench["end_to_end"]:
            side = lambda s: [r["metrics"][decl["name"]] for r in runs if r["side"] == s]
            m = _summary(side("base"), side("head"), decl["better"])
            m["beyond_bound"] = _beyond_bound(m["base_median"], m["head_median"],
                                              decl["better"], decl["bound"])
            m["beyond_bound_paired"] = _beyond_bound(1.0, m["ratio_median"],
                                                     decl["better"], decl["bound"])
            metrics[decl["name"]] = {"unit": decl["unit"], "better": decl["better"],
                                     "bound": decl["bound"], **m}
        failed = {s: sum(r["failed"] for r in runs if r["side"] == s) for s in ("base", "head")}
        incorrect = {s: sum(not r["correct"] for r in runs if r["side"] == s)
                     for s in ("base", "head")}
        layers = {}
        for side, checkout in (("base", base_dir), ("head", head_dir)):
            print(f"{time.strftime('%H:%M:%S')} {w} seed 1 {side} --trace 1",
                  file=sys.stderr, flush=True)
            res = _run(checkout, w, 1, bench["run_seconds"], trace=1)
            layers[side] = {k: m["value"] for k, m in res["metrics"].items()}
        out[w] = {"runs": runs, "failed": failed, "incorrect": incorrect, "metrics": metrics,
                  "layers": layers}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base revision")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--seeds", type=int, default=3, help="seeds 1..K (default 3)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seeds = list(range(1, args.seeds + 1))
    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head = {"rev": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git("status", "--porcelain"))}
    # On SIGTERM, unwind so that the running benchmark and the exported
    # copies are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.time()
    with tempfile.TemporaryDirectory(prefix="bench-record-") as base_dir, \
            tempfile.TemporaryDirectory(prefix="bench-record-head-") as head_dir:
        _export(base_rev, base_dir)
        _copy_checkout(head_dir)
        results = record(base_dir, head_dir, bench, seeds)
    doc = {"label": args.label, "base": {"rev": base_rev}, "head": head,
           "command": "perfbench/run.py --trace 0; layers: --trace 1 at seed 1",
           "seconds": bench["run_seconds"],
           "seeds": seeds,
           "machine": {"platform": platform.platform(), "python": platform.python_version(),
                       "cpus": os.cpu_count()},
           "wall_s": round(time.time() - start, 1), "workloads": results}
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    worse = False
    for w, res in results.items():
        failed, incorrect = res["failed"], res["incorrect"]
        print(f"{w:14s} failed operations  base {failed['base']}  head {failed['head']}"
              f"  incorrect runs  base {incorrect['base']}  head {incorrect['head']}")
        worse |= failed["head"] > failed["base"] or incorrect["head"] > incorrect["base"]
        for name, m in res["metrics"].items():
            print(f"{w:14s} {name:12s} base {m['base_median']:.4g}  head {m['head_median']:.4g}"
                  f"  ratio {m['ratio_median']:.3f} [{m['ratio_q1']:.3f}, {m['ratio_q3']:.3f}]"
                  f"  head better in {m['head_wins']}/{m['pairs']}"
                  f"  worse beyond bound {m['bound']}: {'YES' if m['beyond_bound'] else 'no'}"
                  f" (paired: {'YES' if m['beyond_bound_paired'] else 'no'})"
                  f"  gain shown: {'yes' if m['gain_shown'] else 'no'}")
    print(f"wrote {os.path.relpath(path)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
