"""Command-line front end.

Subcommands produce machine-readable data files (CSV or JSON):

    spectrum      exact and/or semiclassical levels at one parameter set
    sweep         spectra and stationary energies over a bias range
    density       level-density histogram with the smooth classical curve
    wavefunction  exact / primitive / uniform |Psi_n(p)|^2 on the grid
    portrait      energy surface H(p,q) on a grid plus fixed points

Identical invocations produce byte-identical files; numbers are printed
with six significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import actions as act
from . import meanfield as mf
from . import wavefun as wf
from .model import ModelParams
from .quantize import semiclassical_spectrum, sweep_epsilon
from .quantum import exact_spectrum, level_density, momentum_grid, momentum_representation


def _fmt(x):
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return f"{x:.6g}"


def _add_common(sub):
    sub.add_argument("--particles", type=int, required=True, metavar="N")
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--v", type=float, default=1.0)
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--g", type=float, default=None,
                     help="interaction strength (absolute)")
    grp.add_argument("--g-over-ns", type=float, default=None,
                     help="interaction strength in units of 1/(N+1)")
    sub.add_argument("--hbar", type=float, default=1.0)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _params(args) -> ModelParams:
    if args.g is not None:
        g = args.g
    elif args.g_over_ns is not None:
        g = args.g_over_ns / (args.particles + 1)
    else:
        g = 0.0
    return ModelParams(N=args.particles, eps=args.epsilon, v=args.v, g=g,
                       hbar=args.hbar)


def _emit(args, header, rows, config):
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(x) if not isinstance(x, str) else x
                                  for x in row))
        text = "\n".join(lines) + "\n"
    else:
        results = [
            {h: (x if isinstance(x, str) or x is None else float(x))
             for h, x in zip(header, row)}
            for row in rows
        ]
        text = json.dumps({"config": config, "results": results}, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(args, params, extra=None):
    cfg = {
        "command": args.command,
        "particles": params.N,
        "epsilon": params.eps,
        "v": params.v,
        "g": params.g,
        "hbar": params.hbar,
    }
    if extra:
        cfg.update(extra)
    return cfg


def cmd_spectrum(args):
    params = _params(args)
    exact = exact_spectrum(params).energies if args.method in ("exact", "both") else None
    sc = semiclassical_spectrum(params).energies if args.method in ("semiclassical", "both") else None
    e_ref = exact if exact is not None else sc
    span = float(e_ref.max() - e_ref.min())
    rows = []
    for n in range(params.N + 1):
        e1 = float(exact[n]) if exact is not None else None
        e2 = float(sc[n]) if sc is not None else None
        diff = abs(e1 - e2) if (e1 is not None and e2 is not None) else None
        rel = diff / span if diff is not None and span > 0 else None
        rows.append((str(n), e1, e2, diff, rel))
    _emit(args, ["n", "E_exact", "E_semiclassical", "abs_diff", "rel_diff"],
          rows, _config_dict(args, params, {"method": args.method}))
    return 0


def _parse_sweep(spec):
    try:
        lo, hi, steps = spec.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise SystemExit(f"bad --sweep spec {spec!r}, expected min:max:steps")
    if steps < 1:
        raise SystemExit("--sweep needs at least 1 step")
    if steps == 1:
        # Degenerate single-point sweep.
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, steps)


def cmd_sweep(args):
    params = _params(args)
    eps_values = _parse_sweep(args.sweep)
    points = sweep_epsilon(params, eps_values)
    rows = []
    failed = 0
    for pt in points:
        if pt.error is not None:
            failed += 1
            print(f"epsilon={pt.eps:g}: {pt.error}", file=sys.stderr)
        else:
            for n in range(params.N + 1):
                rows.append((_fmt(pt.eps), "level", str(n),
                             float(pt.exact[n]), float(pt.semiclassical[n])))
        for label, energy in pt.stationary:
            rows.append((_fmt(pt.eps), "Hstat", label, float(energy), None))
    _emit(args, ["epsilon", "kind", "index", "E_exact", "E_sc"], rows,
          _config_dict(args, params, {"sweep": args.sweep}))
    return 1 if failed else 0


def cmd_density(args):
    params = _params(args)
    hist = level_density(params, args.bins)
    centers = 0.5 * (hist.bin_edges[1:] + hist.bin_edges[:-1])
    rows = [("histogram", float(c), float(h), "")
            for c, h in zip(centers, hist.heights)]
    # Smooth classical curve: sum of orbit periods over 2 pi hbar Ns; the
    # period is inf on the separatrix.
    norm = 2.0 * np.pi * params.hbar * params.Ns
    for c, t in zip(centers, act.period_direct(params, centers, lobe="total")):
        rows.append(("smooth", float(c), float(t / norm), "") if np.isfinite(t) else
                    ("smooth", float(c), None, "separatrix"))
    for f in mf.fixed_points(params):
        rows.append(("stationary", float(f.energy), None, f.label))
    _emit(args, ["section", "E", "value", "label"], rows,
          _config_dict(args, params, {"bins": args.bins}))
    return 0


def cmd_wavefunction(args):
    params = _params(args)
    n = args.state
    if not 0 <= n <= params.N:
        print(f"state index {n} outside 0..{params.N}", file=sys.stderr)
        return 1
    grid = momentum_grid(params)
    exact = prim = uni = None
    if args.method in ("exact", "both"):
        exact = momentum_representation(exact_spectrum(params, want_vectors=True), n)
    if args.method in ("semiclassical", "both"):
        # Both forms share one level solve; a failing solve is reported by each.
        try:
            prim = wf.primitive_wavefunction(params, n)
        except act.GeometryError as exc:
            print(f"primitive form unavailable: {exc}", file=sys.stderr)
        try:
            uni = wf.uniform_wavefunction(params, n)
        except act.GeometryError as exc:
            print(f"uniform form unavailable: {exc}", file=sys.stderr)
    um, up = mf.momentum_potentials(params, grid * params.hbar)
    rows = []
    for i, lab in enumerate(grid):
        rows.append((
            _fmt(lab),
            float(exact.values[i]) if exact is not None else None,
            float(prim.values[i]) if prim is not None else None,
            float(uni.values[i]) if uni is not None else None,
            float(um[i]), float(up[i]),
        ))
    _emit(args, ["p", "exact", "primitive", "uniform", "U_minus", "U_plus"],
          rows, _config_dict(args, params, {"state": n, "method": args.method}))
    return 0


def cmd_portrait(args):
    params = _params(args)
    try:
        nq, npts = (int(x) for x in args.grid.lower().split("x"))
    except ValueError:
        raise SystemExit(f"bad --grid spec {args.grid!r}, expected NQxNP")
    q = np.linspace(0.0, np.pi, nq, endpoint=False)
    p = np.linspace(-params.p_max, params.p_max, npts)
    rows = []
    for qi in q:
        h = mf.hamiltonian(params, qi, p)
        for pj, hj in zip(p, h):
            rows.append(("grid", float(qi), float(pj), float(hj), ""))
    saddle_energy = None
    for f in mf.fixed_points(params):
        rows.append(("fixed_point", float(f.q), float(f.p), float(f.energy),
                     f"{f.label}:{f.kind}"))
        if f.kind == "saddle":
            saddle_energy = f.energy
    if saddle_energy is not None:
        rows.append(("separatrix", None, None, float(saddle_energy), ""))
    _emit(args, ["section", "q", "p", "H", "label"], rows,
          _config_dict(args, params, {"grid": args.grid}))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bosesemi",
        description="Exact and semiclassical spectra of the two-mode "
                    "Bose-Hubbard model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="levels at one parameter set")
    _add_common(sp)
    sp.add_argument("--method", choices=("exact", "semiclassical", "both"),
                    default="both")
    sp.set_defaults(func=cmd_spectrum)

    sw = sub.add_parser("sweep", help="spectra over a bias range")
    _add_common(sw)
    sw.add_argument("--sweep", required=True, metavar="MIN:MAX:STEPS")
    sw.set_defaults(func=cmd_sweep)

    de = sub.add_parser("density", help="level-density histogram")
    _add_common(de)
    de.add_argument("--bins", type=int, default=60)
    de.set_defaults(func=cmd_density)

    wv = sub.add_parser("wavefunction", help="|Psi_n(p)|^2 on the grid")
    _add_common(wv)
    wv.add_argument("--state", type=int, required=True, metavar="n")
    wv.add_argument("--method", choices=("exact", "semiclassical", "both"),
                    default="both")
    wv.set_defaults(func=cmd_wavefunction)

    po = sub.add_parser("portrait", help="phase-space energy surface")
    _add_common(po)
    po.add_argument("--grid", default="200x200", metavar="NQxNP")
    po.set_defaults(func=cmd_portrait)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
