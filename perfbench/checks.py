"""Checks of each operation's output against the oracle.

Every check yields a deviation and the bound it must not exceed.  A NaN
or infinite deviation fails, so a missing or malformed output cannot
pass by accident.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

import oracle

SPACING_BOUND = 0.1         # ROADMAP item 4; its parameter scan's worst case was 0.036
TABLE_BOUND = 2e-3          # the paper table's rounding plus the test suite's tolerance
EXACT_REL_BOUND = 1e-9      # of the spectral norm
DENSITY_INTEGRAL_BOUND = 0.03
STATE_BOUND = 1e-9
NORM_BOUND = 1e-10
UNIFORM_MAX_BOUND = 0.01    # criterion 8: uniform vs exact, ground state
UNIFORM_PEAK_BOUND = 0.10   # criterion 8: peak heights of an excited state
PRIMITIVE_MAX_BOUND = 0.3   # the primitive form diverges at turning points


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.bound)


def _max_abs(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


# Keyed by (N, g*Ns, v, eps).
PAPER_KEY = {(20, -3.0, 1.0, eps): rows for eps, rows in oracle.PAPER_TABLE_N20.items()}


def spectra(N, eps, v, g, exact, semiclassical):
    """Exact and semiclassical levels of one double-well parameter point."""
    w = oracle.eigenvalues(N, eps, v, g)
    norm = float(np.max(np.abs(w)))
    spacing = float(w[-1] - w[0]) / N
    exact = np.asarray(exact, dtype=float)
    sc = np.asarray(semiclassical, dtype=float)
    steps = np.diff(sc)
    out = [
        Check("exact_vs_oracle_rel", _max_abs(exact, w) / norm, EXACT_REL_BOUND),
        Check("sc_count_off", abs(sc.size - (N + 1)), 0),
        Check("sc_descending_steps",
              int(np.sum(~(steps >= 0))) + int(np.sum(~np.isfinite(sc))), 0),
        Check("sc_vs_oracle_spacings", _max_abs(sc, w) / spacing, SPACING_BOUND),
    ]
    table = PAPER_KEY.get((N, round(g * (N + 1), 12), v, eps))
    if table is not None:
        out.append(Check("table_exact", _max_abs(np.sort(-exact), [r[1] for r in table]),
                         TABLE_BOUND))
        out.append(Check("table_semiclassical",
                         _max_abs(np.sort(-sc), [r[0] for r in table]), TABLE_BOUND))
    return out


def _half_unit(x):
    """Half a unit in the sixth significant digit of x: the rounding of
    the CLI's %.6g output."""
    if x == 0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 5)


def _digits_off(printed, ref):
    """Largest |printed - ref| in units of ref's half-unit; 1 means equal
    to the printed digits."""
    printed = np.asarray(printed, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if printed.shape != ref.shape:
        return math.inf
    worst = 0.0
    for p, r in zip(printed, ref):
        d = abs(p - r)
        unit = _half_unit(r)
        worst = max(worst, d / unit if unit else (0.0 if d == 0 else math.inf))
    return worst


def density(N, eps, v, g, bins, exit_code, text):
    """The CSV of ``bosesemi density``: histogram, smooth curve, stationary
    energies."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    hist = [(float(r[1]), float(r[2])) for r in rows if r[0] == "histogram"]
    smooth = [(float(r[1]), float(r[2]) if r[2] else None) for r in rows
              if r[0] == "smooth"]
    stationary = sorted(float(r[1]) for r in rows if r[0] == "stationary")

    w = oracle.eigenvalues(N, eps, v, g)
    heights, edges = np.histogram(w, bins, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    width = float(edges[1] - edges[0])
    fixed = oracle.stationary_energies(N, eps, v, g)
    saddle = [e for e, kind in fixed if kind == "saddle"]

    out = [
        Check("exit_code", abs(exit_code), 0),
        Check("hist_centers_digits", _digits_off([c for c, _ in hist], centers), 1.0 + 1e-6),
        Check("hist_heights_digits", _digits_off([h for _, h in hist], heights), 1.0 + 1e-6),
        Check("stationary_digits", _digits_off(stationary, [e for e, _ in fixed]), 1.0 + 1e-6),
    ]
    # Integral of T(E)/(2 pi hbar Ns) over the classical range is one,
    # since the integral of T dE is the whole phase-space area.
    if len(smooth) == bins:
        integral = sum(s for _, s in smooth if s is not None) * width
        out.append(Check("smooth_integral_off", abs(integral - 1.0), DENSITY_INTEGRAL_BOUND))
    else:
        out.append(Check("smooth_integral_off", math.inf, DENSITY_INTEGRAL_BOUND))
    # Criterion 7 at 60 bins: away from the saddle, each bin within 5 %
    # of the smooth curve or within one level of it.
    bad = 0
    worst = 0.0
    for (c, h), (_, s) in zip(hist, smooth):
        if not saddle or abs(c - saddle[0]) <= 5 * width or s is None:
            continue
        rel = abs(h - s) / s
        worst = max(worst, rel)
        if rel > 0.05 and abs(h - s) * (N + 1) * width > 1.0:
            bad += 1
    out.append(Check("hist_vs_smooth_bins_off", bad if len(hist) == bins else math.inf, 0))
    out.append(Check("hist_vs_smooth_worst_rel", worst, math.inf))
    return out


def _local_spacing(w, n):
    gaps = [w[k + 1] - w[k] for k in (n - 1, n) if 0 <= k < len(w) - 1]
    return float(min(gaps))


def _peak_rel(ref, values):
    big = ref > 0.5 * ref.max()
    return float(np.max(np.abs(values[big] - ref[big]) / ref[big]))


def state(N, eps, v, g, n, exact, primitive, uniform=None):
    """Exact, primitive and (where defined) uniform |Psi_n(p)|^2."""
    w, prob = oracle.eigenstates(N, eps, v, g)
    ref = prob[:, n]
    grid = np.arange(-N, N + 1, 2, dtype=float)
    spacing = _local_spacing(w, n)
    out = [
        Check("grid_off", _max_abs(exact.grid, grid), 0.0),
        Check("exact_vs_oracle", _max_abs(exact.values, ref), STATE_BOUND),
        Check("exact_energy_rel", abs(exact.energy - w[n]) / np.max(np.abs(w)), 1e-9),
    ]
    forms = [("exact", exact), ("primitive", primitive)]
    if uniform is not None:
        forms.append(("uniform", uniform))
    for kind, wf in forms:
        vals = np.asarray(wf.values, dtype=float)
        out.append(Check(f"{kind}_negative", float(max(0.0, -np.min(vals))), 0.0))
        out.append(Check(f"{kind}_sum_off", abs(float(np.sum(vals)) - 1.0), NORM_BOUND))
        if kind != "exact":
            out.append(Check(f"{kind}_energy_spacings",
                             abs(wf.energy - w[n]) / spacing, SPACING_BOUND))
    out.append(Check("primitive_max_dev", _max_abs(primitive.values, ref), PRIMITIVE_MAX_BOUND))
    if uniform is not None:
        out.append(Check("uniform_max_dev", _max_abs(uniform.values, ref), UNIFORM_MAX_BOUND))
        out.append(Check("uniform_peak_rel", _peak_rel(ref, np.asarray(uniform.values)),
                         UNIFORM_PEAK_BOUND))
    return out
