"""Semiclassical spectrum assembly.

Single-region levels solve S(E) = h (n + 1/2) on the monotone action.
In a double-well landscape the levels between the upper minimum and far
above the barrier solve the two-region connection condition

    sqrt(1 + kappa^2) cos(Sl + Sr + Sphi) = -cos(Sl - Sr)

with kappa the barrier transmission factor and Sphi the connection
phase.  Writing the condition as  Sl + Sr + Sphi = 2 pi k +- alpha(E)
with  alpha = arccos(-cos(Sl - Sr)/sqrt(1 + kappa^2))  turns root
finding into bracketing of monotone-ish phase functions, which resolves
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
from .quantum import exact_spectrum


class QuantizationError(RuntimeError):
    pass


def _bisect(f, a, b, fa=None, fb=None):
    """Bracketed hybrid secant/bisection root refinement."""
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0:
        return a
    if fb == 0:
        return b
    if fa * fb > 0:
        raise QuantizationError("root bracket lost")
    for _ in range(200):
        mid = 0.5 * (a + b)
        # Secant proposal, accepted when it stays safely interior.
        if fb != fa:
            sec = b - fb * (b - a) / (fb - fa)
            if a + 0.1 * (b - a) < sec < b - 0.1 * (b - a):
                mid = sec
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm == 0:
            return mid
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
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


def _single_residual(params, E, n):
    return abs(act.action(params, E, lobe="total") / (2.0 * params.hbar) - np.pi * (n + 0.5))


# ---------------------------------------------------------------------------
# double-well condition


def _stable_alpha(delta, kappa):
    """alpha = arccos(-cos(delta)/sqrt(1+kappa^2)), computed so that
    near-tangency (alpha near pi) keeps full precision:
    1 - cos(delta)/sqrt(1+kappa^2) is assembled from two positive terms."""
    if not np.isfinite(kappa) or kappa > 1e150:
        return 0.5 * np.pi
    cosd = np.cos(delta)
    if cosd >= 0.0:
        # alpha = pi - arccos(cosd/sqrt(1+k^2)); the complement's cosine
        # deficit splits into (1 - 1/sqrt(1+k^2)) + (1 - cosd)/sqrt(1+k^2).
        inv = 1.0 / np.hypot(1.0, kappa)
        deficit = -np.expm1(-0.5 * np.log1p(kappa * kappa)) + (1.0 - cosd) * inv
        y = 1.0 - deficit
        return float(np.pi - np.arccos(np.clip(y, -1.0, 1.0)))
    y = -cosd / np.hypot(1.0, kappa)
    return float(np.arccos(np.clip(y, -1.0, 1.0)))


def _dw_eval(params: ModelParams, E):
    """(psi, alpha) of the connection condition at energy E.

    psi = Sl + Sr + Sphi and alpha = arccos(-cos(Sl - Sr)/sqrt(1 + kappa^2));
    roots sit at psi = 2 pi k +- alpha.
    """
    info = act.barrier(params)
    left, right = act.lobe_phases(params, E)
    tunneling = act.tunneling_below if E < info.e_barr else act.tunneling_above
    s_eps, kappa = tunneling(params, E)
    psi = left + right + act.phase_correction(s_eps)
    return psi, _stable_alpha(left - right, kappa)


def _sample_grid(params, e_lo, e_hi, base_points):
    """Sampling grid for the phase functions, refined geometrically toward
    the barrier where the phase varies logarithmically."""
    info = act.barrier(params)
    scale = params.energy_scale()
    grid = list(np.linspace(e_lo, e_hi, base_points))
    if e_lo < info.e_barr < e_hi:
        for j in range(2, 9):
            d = 10.0 ** (-j) * scale
            for e in (info.e_barr - d, info.e_barr + d):
                if e_lo < e < e_hi:
                    grid.append(e)
    guard = 1e-9 * scale
    grid = [e for e in grid if abs(e - info.e_barr) > guard]
    return np.array(sorted(grid))


def _phase_grid(params: ModelParams, info: act.BarrierInfo, refine=0):
    """Energies from just above the upper well minimum to just below the
    top of the spectrum, with the condition's (psi, alpha) at each.

    The grid is bisected until the psi step between neighbours is
    resolved; ``refine`` densifies the starting grid.
    """
    e_min, e_max = act.classical_range(params)
    scale = params.energy_scale()
    e_lo = info.e_min_upper + max(1e-9 * scale, 1e-11)
    # Stay clear of the very top, where the outer turning points pinch the
    # above-barrier contour; the highest level sits ~pi/2 in phase below.
    e_hi = e_max - 1e-8 * scale
    base = (16 + 8 * refine) * (params.N + 1)
    grid = _sample_grid(params, e_lo, e_hi, base)

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
    ``grid[i]``, or None where it could not be evaluated.  Yields
    (root, f) per bracketed root, f being the function the root zeroes,
    in sign, interval, k order.  Yielding lazily keeps each caller's own
    evaluations interleaved with the bisections.
    """
    for sign in (+1.0, -1.0):
        h = [None if v is None else v[0] - sign * v[1] for v in vals]
        for i in range(len(grid) - 1):
            if h[i] is None or h[i + 1] is None or abs(grid[i + 1] - grid[i]) < 1e-15 * scale:
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


def quantize_double(params: ModelParams, refine=0):
    """All connection-condition roots above the upper well minimum.

    Returns a list of (energy, region, residual) sorted in energy;
    ``residual`` is the phase mismatch |psi - (2 pi k +- alpha)|.
    """
    info = act.barrier(params)
    scale = params.energy_scale()
    grid, vals = _phase_grid(params, info, refine)
    roots = []
    guard = 1e-9 * scale
    for root, f in _bracket_roots(lambda E: _dw_eval(params, E), grid, vals, scale):
        if abs(root - info.e_barr) < guard:
            root = info.e_barr + guard * (1 if root >= info.e_barr else -1)
        region = "II" if root < info.e_barr else "III"
        roots.append((float(root), region, abs(f(root))))
    roots.sort()
    # Merge duplicates from adjacent brackets hitting the same root.
    merged = []
    for r in roots:
        if merged and abs(r[0] - merged[-1][0]) < 1e-10 * scale:
            continue
        merged.append(r)
    return merged


def _recover_boundary_roots(params, info, region1, dbl):
    """Hunt for connection-condition roots that slipped just below the
    upper well minimum.

    The simple quantization and the connection condition disagree by the
    small connection-phase correction, so a level sitting right at the
    region boundary can be skipped by both enumerations: its plain root
    lies above the upper minimum (hence outside region I) while its
    corrected root lies below it (outside the condition scan).  The
    one-component fallbacks in the action layer keep the condition
    evaluable slightly below the boundary, so the missing roots can be
    bracketed there.
    """
    scale = params.energy_scale()
    spacing = (info.e_barr - info.e_min_lower) / max(1, params.N // 2)
    e_hi = info.e_min_upper + 1e-9 * scale
    e_lo = max(info.e_min_lower + 1e-6 * scale, e_hi - spacing)
    if e_lo >= e_hi:
        return dbl
    grid = np.linspace(e_lo, e_hi, 48)
    vals = []
    for e in grid:
        try:
            vals.append(_dw_eval(params, e))
        except Exception:
            vals.append(None)
    found = list(dbl)
    existing = [e for e, _, _ in dbl] + list(region1)
    for root, f in _bracket_roots(lambda E: _dw_eval(params, E), grid, vals, scale):
        if any(abs(root - e0) < 0.3 * spacing for e0 in existing):
            continue
        found.append((float(root), "I", abs(f(root))))
        existing.append(float(root))
    found.sort()
    return found


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

    Uses plain quantization when the landscape has no saddle at these
    parameters (whatever the interaction strength); otherwise region-I
    levels come from per-lobe quantization below the upper minimum and
    the rest from the connection condition, with the sampling refined up
    to four times if the total count disagrees with the dimension.
    """
    try:
        info = act.barrier(params)
    except act.GeometryError:
        info = None
    levels = []
    if info is None:
        for n in range(params.N + 1):
            e = quantize_single(params, n)
            geo = act.turning_points(params, e)
            levels.append(Level(e, "single", geo.orbit_class,
                                _single_residual(params, e, n)))
    else:
        s_um = act.action(params, info.e_min_upper - 1e-12 * params.energy_scale(),
                          lobe="total")
        n_region1 = int(np.floor(s_um / (2.0 * np.pi * params.hbar) + 0.5))
        region1 = [quantize_single(params, n) for n in range(n_region1)]
        spacing = (act.classical_range(params)[1] - info.e_min_lower) / (params.N + 1)
        last_err = None
        for attempt in range(5):
            dbl = quantize_double(params, refine=attempt)
            missing = params.N + 1 - n_region1 - len(dbl)
            # A level whose plain root sits just above the upper minimum
            # is skipped by both enumerations (its connection-corrected
            # root falls below the boundary): keep the plain value, which
            # is how such boundary levels are conventionally assigned.
            while missing > 0 and n_region1 < params.N + 1:
                e_next = quantize_single(params, n_region1)
                if e_next >= info.e_min_upper + 0.1 * spacing:
                    break
                if dbl and abs(e_next - dbl[0][0]) < 0.05 * spacing:
                    break
                region1.append(e_next)
                n_region1 += 1
                missing -= 1
            if missing > 0:
                dbl = _recover_boundary_roots(params, info, region1, dbl)
                missing = params.N + 1 - n_region1 - len(dbl)
            if missing == 0:
                break
            last_err = (f"level count mismatch: region I has {n_region1}, "
                        f"connection condition found {len(dbl)}, "
                        f"need {params.N + 1} total")
        else:
            raise QuantizationError(last_err)
        for n, e in enumerate(region1):
            geo = act.turning_points(params, e)
            levels.append(Level(e, "I", geo.orbit_class,
                                _single_residual(params, e, n)))
        for e, region, resid in dbl:
            geo = act.turning_points(params, e)
            levels.append(Level(e, region, geo.orbit_class, resid))
    levels.sort(key=lambda l: l.energy)
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
    energies on a grid of bias values.  A failing point is recorded
    rather than fatal."""
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
        except Exception as exc:  # recorded, not fatal
            out.append(SweepPoint(float(e), None, None, stationary,
                                  swallowtail=len(fps) == 4, error=str(exc)))
    return out
