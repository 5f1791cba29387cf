"""Level scan: the semiclassical spectrum at 226 fixed parameter points,
to compare two checkouts level by level.

    PYTHONPATH=src python tests/level_scan.py OUT.json
        writes each point's levels (as ``repr`` floats), region and
        orbit-class labels, or the text of the exception it raised, and
        the work it took: the calls of the connection condition
        (``quantize._dw_eval``) and the energies they evaluated (rows);
    python tests/level_scan.py A.json B.json
        prints the worst level change in mean level spacings next to both
        scans' total condition calls and rows, the label
        differences and the points whose outcome changed, and then, for
        each scan, every level whose labels differ from those that
        ``turning_points`` gives at its energy shifted by -1e-13 or
        +1e-13 (SHIFT); B's shift changes count toward the exit status.

The package is imported from PYTHONPATH, so the same script scans any
checkout; without it, the ``src`` next to this file is used.  The
points are N in {5, 10, 20, 40} x g*Ns in {-0.5, -1.2, -3, -6, -12} x
11 biases in [-2.5, 2.5], plus six larger or hand-picked ones; a scan
takes a few seconds.  The name has no ``test_`` prefix, so pytest does
not collect it.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

POINTS = [(N, g_ns, float(eps)) for N in (5, 10, 20, 40)
          for g_ns in (-0.5, -1.2, -3.0, -6.0, -12.0)
          for eps in np.linspace(-2.5, 2.5, 11)] + \
    [(200, -3.0, 0.3), (400, -3.0, 0.6), (80, -3.0, 0.7), (100, -0.6, 0.6), (80, -3.0, 0.8237),
     (200, -6.0, 0.31757286071777335)]
SHIFT = 1e-13  # the absolute energy shift of the label stability check


def scan():
    from bosesemi import quantize
    from bosesemi.actions import turning_points
    from bosesemi.model import ModelParams

    rows, real = [], quantize._dw_eval
    quantize._dw_eval = lambda p, E, **k: rows.append(np.size(E)) or real(p, E, **k)
    out = {}
    for N, g_ns, eps in POINTS:
        params = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
        rows.clear()
        try:
            levels = quantize.semiclassical_spectrum(params).levels
            E = np.array([l.energy for l in levels])
            shifted = [turning_points(params, E + d) for d in (-SHIFT, SHIFT)]
            out[repr((N, g_ns, eps))] = {
                "levels": [repr(l.energy) for l in levels],
                "regions": [l.region for l in levels],
                "classes": [l.orbit_class for l in levels],
                "shifted": [[[g.region, g.orbit_class] for g in pair] for pair in zip(*shifted)]}
        except Exception as exc:  # an outcome to record, not to stop at
            out[repr((N, g_ns, eps))] = {"error": f"{type(exc).__name__}: {exc}"}
        out[repr((N, g_ns, eps))].update(calls=len(rows), rows=sum(rows))
    quantize._dw_eval = real
    return out


def work(scan):
    """The scan's total condition calls and rows, as text; a scan written
    before they were recorded has none."""
    if not all("calls" in p for p in scan.values()):
        return "calls and rows not recorded"
    return f"{sum(p['calls'] for p in scan.values())} calls, " \
        f"{sum(p['rows'] for p in scan.values())} rows"


def shift_changes(scan):
    """(point, level, labels, labels at E - SHIFT, labels at E + SHIFT)
    for every level of ``scan`` whose labels the shift changes; a scan
    written before the check was added has none."""
    return [(key, n, (r, c), *map(tuple, s)) for key, p in sorted(scan.items())
            for n, (r, c, s) in enumerate(zip(p.get("regions", ()), p.get("classes", ()),
                                              p.get("shifted", ())))
            if any(tuple(x) != (r, c) for x in s)]


def compare(a, b):
    """Print how scan ``b`` differs from scan ``a`` and each scan's shift
    changes; return the number of points whose outcome or labels changed
    plus the number of ``b``'s levels whose labels the shift changes."""
    worst, moved, changed = (0.0, None), 0, 0
    for key in sorted(a.keys() | b.keys()):
        pa, pb = a.get(key, {"error": "missing"}), b.get(key, {"error": "missing"})
        if "error" in pa or "error" in pb:
            if pa != pb:
                changed += 1
                print(f"{key}: outcome {pa.get('error', 'levels')!r} -> {pb.get('error', 'levels')!r}")
            continue
        moved += pa["levels"] != pb["levels"]
        ea, eb = (np.array([float(x) for x in p["levels"]]) for p in (pa, pb))
        shift = float(np.max(np.abs(eb - ea)) / ((ea[-1] - ea[0]) / (len(ea) - 1)))
        if shift > worst[0]:
            worst = (shift, key)
        for label in ("regions", "classes"):
            diff = [(n, x, y) for n, (x, y) in enumerate(zip(pa[label], pb[label])) if x != y]
            if diff:
                changed += 1
                print(f"{key}: {label} differ at (level, old, new) {diff}")
    print(f"{len(b)} points, {sum('error' in p for p in b.values())} errors; "
          f"levels not bit-identical at {moved}, worst change {worst[0]:.3g} mean spacings "
          f"at {worst[1]} (work: A {work(a)}; B {work(b)}); "
          f"{changed} points with a changed outcome or label")
    for name, scan in (("A", a), ("B", b)):
        flips = shift_changes(scan)
        for key, n, labels, minus, plus in flips:
            print(f"{name} {key}: level {n} {labels}, at E -+ {SHIFT:g}: {minus} {plus}")
        print(f"{name}: {len(flips)} levels whose labels change under an energy shift of {SHIFT:g}")
    return changed + len(flips)


if __name__ == "__main__":
    if len(sys.argv) == 2:
        Path(sys.argv[1]).write_text(json.dumps(scan(), indent=1) + "\n")
    elif len(sys.argv) == 3:
        a, b = (json.loads(Path(f).read_text()) for f in sys.argv[1:])
        sys.exit(1 if compare(a, b) else 0)
    else:
        sys.exit(__doc__)
