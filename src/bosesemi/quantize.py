"""Semiclassical spectrum assembly.

Every landscape solves one condition over its whole spectrum, the
two-region connection condition

    sqrt(1 + kappa^2) cos(Sl + Sr + Sphi) = -cos(Sl - Sr)

with kappa the barrier transmission factor and Sphi the connection
phase.  Wherever the upper lobe is empty (Sr = 0, kappa = 0, Sphi = 0)
the condition reduces to the plain rule S = 2 pi hbar (n + 1/2): up to
the upper well minimum, wherever that lobe is still too narrow to
resolve, and at every energy of a single well, which is the landscape
without an upper lobe.  Writing the condition as
Sl + Sr + Sphi = 2 pi k +- alpha(E)  with
alpha = arccos(-cos(Sl - Sr)/sqrt(1 + kappa^2))  turns root finding
into bracketing of monotone-ish phase functions, which resolves
near-degenerate tunneling doublets that a naive sign scan of the
condition would miss (the condition only dips below zero by O(kappa^2)
at a deep doublet).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import actions as act
from .meanfield import fixed_points
from .model import ModelParams
from .quad import QuadratureError
from .quantum import exact_spectrum


class QuantizationError(RuntimeError):
    pass


def _bisect(f, a, b, fa=None, fb=None):
    """Bracketed root refinement by false position with the Illinois
    step (Dowell and Jarratt, BIT 11, 1971): an end kept twice in a row
    has its value halved, so both ends close in.  A step not strictly
    inside (a, b) falls back to the midpoint; it stops at adjacent floats."""
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0:
        return a
    if fb == 0:
        return b
    if fa * fb > 0:
        raise QuantizationError("root bracket lost")
    kept = None  # the end the last step left in place
    for _ in range(200):
        mid = b - fb * (b - a) / (fb - fa)
        if not a < mid < b:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm < 0) == (fb < 0):
            b, fb = mid, fm
            if kept == "a":
                fa *= 0.5
            kept = "a"
        else:
            a, fa = mid, fm
            if kept == "b":
                fb *= 0.5
            kept = "b"
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# single-region quantization


def quantize_single(params: ModelParams, n: int) -> float:
    """Root of S(E) = 2 pi hbar (n + 1/2), exploiting monotonicity."""
    if not 0 <= n <= params.N:
        raise ValueError(f"level index {n} outside 0..{params.N}")
    e_min, e_max = act.classical_range(params)
    target = 2.0 * np.pi * params.hbar * (n + 0.5)

    def f(E):
        return act.action(params, E, lobe="total") - target

    # S is exactly 0 at e_min and 2 pi hbar Ns at e_max; the orbits right
    # at the ends are too small to integrate at full precision.
    s_max = 2.0 * np.pi * params.hbar * params.Ns
    return float(_bisect(f, e_min, e_max, fa=-target, fb=s_max - target))


# ---------------------------------------------------------------------------
# the connection condition


def _stable_alpha(delta, kappa):
    """alpha = arccos(-cos(delta)/sqrt(1+kappa^2)), computed so that
    near-tangency (alpha near pi) keeps full precision:
    1 - cos(delta)/sqrt(1+kappa^2) is assembled from two positive terms,
    and pi - alpha = arccos(1 - deficit) is taken as 2 arcsin(sqrt(deficit/2)),
    which does not round 1 - deficit to 1 when kappa^2 is below roundoff."""
    if not np.isfinite(kappa) or kappa > 1e150:
        return 0.5 * np.pi
    cosd = np.cos(delta)
    if cosd >= 0.0:
        # alpha = pi - arccos(cosd/sqrt(1+k^2)); the complement's cosine
        # deficit splits into (1 - 1/sqrt(1+k^2)) + (1 - cosd)/sqrt(1+k^2).
        inv = 1.0 / np.hypot(1.0, kappa)
        deficit = -np.expm1(-0.5 * np.log1p(kappa * kappa)) + (1.0 - cosd) * inv
        return float(np.pi - 2.0 * np.arcsin(np.sqrt(0.5 * deficit)))
    y = -cosd / np.hypot(1.0, kappa)
    return float(np.arccos(np.clip(y, -1.0, 1.0)))


def _landmarks(params: ModelParams) -> act.BarrierInfo:
    """``barrier(params)``; a single well, whose upper lobe is empty at
    every energy, gets its upper minimum and barrier at +inf."""
    ctx = act._context(params)
    if ctx["saddle"] is None:
        return act.BarrierInfo(np.inf, np.nan, ctx["e_min"], np.inf)
    return act.barrier(params)


def _dw_eval(params: ModelParams, E):
    """(psi, alpha) of the connection condition at energy E.

    psi = Sl + Sr + Sphi and alpha = arccos(-cos(Sl - Sr)/sqrt(1 + kappa^2));
    roots sit at psi = 2 pi k +- alpha.  At or below the upper minimum,
    below the barrier while the contour has fewer than two components,
    and in a single well, the upper lobe is empty: psi = S/2 hbar, kappa = 0.
    """
    info = _landmarks(params)
    *_, segs = act._orbit(params, float(E))
    if E <= info.e_min_upper or (E < info.e_barr and len(act._components(segs)) < 2):
        half = act.action(params, E, lobe="total") / (2.0 * params.hbar)
        return half, _stable_alpha(half, 0.0)
    left, right = act.lobe_phases(params, E)
    tunneling = act.tunneling_below if E < info.e_barr else act.tunneling_above
    s_eps, kappa = tunneling(params, E)
    psi = left + right + act.phase_correction(s_eps)
    return psi, _stable_alpha(left - right, kappa)


def _sample_grid(params, e_lo, e_hi, base_points):
    """Sampling grid for the phase functions, refined geometrically toward
    the barrier where the phase varies logarithmically.  The upper well
    minimum is a grid point: a lower-well level can sit on it, and only
    the condition's value right there brackets that level."""
    info = _landmarks(params)
    scale = params.energy_scale()
    grid = list(np.linspace(e_lo, e_hi, base_points))
    if e_lo < info.e_min_upper < e_hi:
        grid.append(info.e_min_upper)
    if e_lo < info.e_barr < e_hi:
        for j in range(2, 9):
            d = 10.0 ** (-j) * scale
            for e in (info.e_barr - d, info.e_barr + d):
                if e_lo < e < e_hi:
                    grid.append(e)
    guard = 1e-9 * scale
    grid = [e for e in grid if abs(e - info.e_barr) > guard]
    return np.array(sorted(grid))


def _phase_grid(params: ModelParams, info: act.BarrierInfo):
    """Energies from just above the lower well minimum to just below the
    top of the spectrum, with the condition's (psi, alpha) at each.

    The grid is bisected until the psi step between neighbours is
    resolved.
    """
    e_min, e_max = act.classical_range(params)
    scale = params.energy_scale()
    e_lo = info.e_min_lower + max(1e-9 * scale, 1e-11)
    # Stay clear of the very top, where the outer turning points pinch the
    # above-barrier contour; the highest level sits ~pi/2 in phase below.
    e_hi = e_max - 1e-8 * scale
    grid = _sample_grid(params, e_lo, e_hi, 16 * (params.N + 1))

    evals = {}

    def ev(E):
        if E not in evals:
            evals[E] = _dw_eval(params, E)
        return evals[E]

    work = list(grid)
    for _ in range(24):
        vals = [ev(e) for e in work]
        new = []
        for (e1, (p1, a1)), (e2, (p2, a2)) in zip(zip(work, vals), zip(work[1:], vals[1:])):
            if abs(p2 - p1) > 0.75 and e2 - e1 > 1e-12 * scale:
                new.append(0.5 * (e1 + e2))
        if not new:
            break
        work = sorted(set(work) | set(new))
    return work, [ev(e) for e in work]


def _bracket_roots(ev, grid, vals, scale):
    """Roots of psi -+ alpha = 2 pi k between neighbouring grid points.

    ``ev(E)`` returns (psi, alpha) and ``vals[i]`` is its value at
    ``grid[i]``.  Yields (root, f) per bracketed root, f being the
    function the root zeroes, in sign, interval, k order; f's defaults
    (2 pi k, sign) name the root's branch.  Yielding lazily keeps each
    caller's own evaluations interleaved with the bisections.
    """
    for sign in (+1.0, -1.0):
        h = [v[0] - sign * v[1] for v in vals]
        for i in range(len(grid) - 1):
            if abs(grid[i + 1] - grid[i]) < 1e-15 * scale:
                continue
            k_lo = np.ceil(min(h[i], h[i + 1]) / (2.0 * np.pi) - 1e-12)
            k_hi = np.floor(max(h[i], h[i + 1]) / (2.0 * np.pi) + 1e-12)
            for k in np.arange(k_lo, k_hi + 0.5):
                target = 2.0 * np.pi * k

                def f(E, t=target, s=sign):
                    p, a = ev(E)
                    return p - s * a - t

                try:
                    root = _bisect(f, grid[i], grid[i + 1],
                                   fa=h[i] - target, fb=h[i + 1] - target)
                except QuantizationError:
                    continue
                yield root, f


def quantize_double(params: ModelParams):
    """Every connection-condition root of a landscape: every level of a
    single well, or of a double well, its plain region-I levels included.

    Returns a list of (energy, region, residual) sorted in energy, the
    region as ``turning_points`` assigns it; ``residual`` is the phase
    mismatch |psi - (2 pi k +- alpha)|.
    """
    info = _landmarks(params)
    scale = params.energy_scale()
    grid, vals = _phase_grid(params, info)
    # Each root is keyed by its branch (2 pi k, sign) of
    # psi - sign * alpha = 2 pi k.  The two roots of a deep tunneling
    # doublet can lie closer than any energy tolerance, but never on one
    # branch; a branch yields twice only for a root on a grid point, which
    # both neighbouring brackets return.
    roots = {}
    guard = 1e-9 * scale
    for root, f in _bracket_roots(lambda E: _dw_eval(params, E), grid, vals, scale):
        if f.__defaults__ in roots:
            continue
        if abs(root - info.e_barr) < guard:
            root = info.e_barr + guard * (1 if root >= info.e_barr else -1)
        roots[f.__defaults__] = (float(root), act.turning_points(params, root).region,
                                 abs(f(root)))
    return sorted(roots.values())


# ---------------------------------------------------------------------------
# full spectrum


@dataclass(frozen=True)
class Level:
    energy: float
    region: str        # single | I | II | III
    orbit_class: str | None
    residual: float


@dataclass(frozen=True)
class SemiclassicalSpectrum:
    params: ModelParams
    energies: np.ndarray
    levels: tuple

    def __len__(self):
        return len(self.energies)


def semiclassical_spectrum(params: ModelParams) -> SemiclassicalSpectrum:
    """All N + 1 semiclassical levels with region metadata.

    Every level is a root of the one connection condition
    (``quantize_double``); ``residual`` is its phase mismatch.  The
    condition reduces to the plain rule wherever the upper lobe is empty:
    below the upper minimum, and everywhere in a single well.
    """
    dbl = quantize_double(params)
    if len(dbl) != params.N + 1:
        raise QuantizationError(f"level count mismatch: connection condition found "
                                f"{len(dbl)}, need {params.N + 1}")
    levels = [Level(e, region, act.turning_points(params, e).orbit_class, resid)
              for e, region, resid in dbl]
    return SemiclassicalSpectrum(
        params=params,
        energies=np.array([l.energy for l in levels]),
        levels=tuple(levels),
    )


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class SweepPoint:
    eps: float
    exact: np.ndarray | None
    semiclassical: np.ndarray | None
    stationary: tuple           # (label, energy) pairs
    swallowtail: bool
    error: str | None = None


def sweep_epsilon(params: ModelParams, eps_values) -> list:
    """Exact + semiclassical spectra and the stationary mean-field
    energies on a grid of bias values.  A point failing with a numerical
    error (QuantizationError, QuadratureError or a ValueError such as
    GeometryError) is recorded; any other exception propagates."""
    eps_values = np.atleast_1d(np.asarray(eps_values, dtype=float))
    out = []
    for e in eps_values:
        p = ModelParams(N=params.N, eps=float(e), v=params.v, g=params.g,
                        hbar=params.hbar)
        fps = fixed_points(p)
        stationary = tuple((f.label, f.energy) for f in fps)
        try:
            ex = exact_spectrum(p).energies
            sc = semiclassical_spectrum(p).energies
            out.append(SweepPoint(float(e), ex, sc, stationary,
                                  swallowtail=len(fps) == 4))
        except (QuantizationError, QuadratureError, ValueError) as exc:
            out.append(SweepPoint(float(e), None, None, stationary,
                                  swallowtail=len(fps) == 4, error=str(exc)))
    return out
