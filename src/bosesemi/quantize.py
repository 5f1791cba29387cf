"""Semiclassical spectrum assembly.

Every landscape solves one condition over its whole spectrum, the
two-region connection condition

    sqrt(1 + kappa^2) cos(Sl + Sr + Sphi) = -cos(Sl - Sr)

with kappa the barrier transmission factor and Sphi the connection
phase.  At the barrier top the tunneling action vanishes (kappa = 1,
Sphi = 0), the parabolic-barrier limit, so a level may sit there.
Wherever the upper lobe is empty (its half of the contour holds
nothing, kappa = 0, Sphi = 0) the condition reduces to the plain rule
S = 2 pi hbar (n + 1/2): up to the upper well minimum, wherever that
lobe is still too narrow to resolve, and at every energy of a single
well, which is the landscape without an upper lobe.  Writing the
condition as Sl + Sr + Sphi = 2 pi k +- alpha(E) with
alpha = arccos(-cos(Sl - Sr)/sqrt(1 + kappa^2)) turns root finding
into bracketing of the branches psi -+ alpha, non-decreasing in E but
for a drop where the upper lobe opens, which resolves the
near-degenerate tunneling doublets a naive sign scan of the condition
would miss (at a deep doublet it dips below zero by only O(kappa^2)).

The condition is evaluated on energy arrays: the sampling grid, one
energy per level, is one ``_dw_eval`` call, and the one refiner,
``_bisect``, takes every bracketed root in lockstep, one call per step.
Its calls also read the condition's exact slope from the same contour
record (``_dw_slope``), so its steps are Newton steps, safeguarded by
bisection and false position, and a spectrum takes 4-6 calls in all.
``quantize_single`` hands it the slope of the plain rule, the period,
likewise: three or so contour solves per level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import actions as act
from .meanfield import fixed_points
from .model import ModelParams, _level_index
from .quad import QuadratureError
from .quantum import exact_spectrum


class QuantizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Level:
    energy: float
    region: str        # single | I | II | III
    orbit_class: str | None
    residual: float


def _bisect(f, a, b, fa=None, fb=None, ftol=0.0, xtol=0.0):
    """Bracketed root refinement of every bracket [a[j], b[j]] in lockstep,
    by safeguarded Newton steps (rtsafe, Numerical Recipes 9.4) over false
    position with the Illinois step (Dowell and Jarratt, BIT 11, 1971).
    ``f(x, rows)`` returns the function, or a pair (function, slope), of
    bracket ``rows[j]`` at ``x[j]``, so each step is one call for all
    brackets still open.  A Newton step dx from the point last evaluated
    is taken where it lands strictly inside the bracket and is at most half
    of dx', the step before (the Newton step, or the width that a step of
    another kind left); one that lands inside but does not halve, as from
    one side of a bend to the other and back, gives way to the midpoint.
    Newton's error squares at each step, so where two Newton steps come in
    a row, |dx| <= xtol and |dx| (dx/dx')^2 <= 1e-8 xtol, the bracket closes
    at the stepped point, unevaluated, with the residual Newton's model
    predicts there, |f| (dx/dx')^2, or ftol if that is larger.  Any other
    step is false position, where an end kept twice in a row has its value
    halved.  A step on or outside an end moves one ulp inside (Brent's
    minimal step), so an end on the root closes its bracket with one more
    evaluation; a step that is not finite takes the midpoint.  A bracket
    also stops at adjacent floats, or at an end where |f| <= ftol (one
    value, or one per bracket; 0, an exact root, by default).  Returns
    (root, |f(root)|), the end with the smaller |f| or the Newton point,
    laid out like a and b: floats for scalar ends.
    """
    pair = lambda out: out if isinstance(out, tuple) else (out, np.nan)
    shape = np.broadcast(a, b).shape
    flat = lambda x: np.array(np.broadcast_to(x, shape), dtype=float).reshape(-1)
    a, b = flat(a), flat(b)
    rows = np.arange(a.size)
    fa = pair(f(a, rows))[0] if fa is None else flat(fa)
    fb = pair(f(b, rows))[0] if fb is None else flat(fb)
    if np.any(fa * fb > 0):
        raise QuantizationError("root bracket lost")
    tol = flat(ftol)
    root = np.where(np.abs(fa) <= np.abs(fb), a, b)
    resid = np.minimum(np.abs(fa), np.abs(fb))
    # The open brackets, compacted; ga and gb are the ends' unhalved values,
    # last says whether the last step moved b (1) or a (0), -1 at first, dx
    # the Newton step from the end it moved (NaN without a slope), dx0 the
    # step before and stepped whether that was a Newton step.
    live = (np.abs(fa) > tol) & (np.abs(fb) > tol)
    a, b, fa, fb, rows = a[live], b[live], fa[live], fb[live], rows[live]
    ga, gb, last, dx, dx0 = fa, fb, np.full(rows.size, -1.0), *np.full((2, rows.size), np.nan)
    stepped = np.zeros(rows.size, dtype=bool)

    def close(done):
        nearer = np.abs(ga[done]) < np.abs(gb[done])
        root[rows[done]] = np.where(nearer, a[done], b[done])
        resid[rows[done]] = np.abs(np.where(nearer, ga[done], gb[done]))
        return (x[~done] for x in (a, b, fa, fb, ga, gb, last, dx, dx0, stepped, rows))

    # A step compacts the open brackets only when one of them closes.
    for _ in range(200):
        with np.errstate(invalid="ignore", over="ignore"):
            mid = b - fb * (b - a) / (fb - fa)
            newton = np.where(last > 0, b, a) + dx
            inside = (a < newton) & (newton < b)
            take = inside & (np.abs(dx) <= 0.5 * np.abs(dx0))
            near = take & stepped & (np.abs(dx) <= xtol) & \
                (np.abs(dx) ** 3 <= 1e-8 * xtol * dx0 * dx0)
            # The residual Newton's model predicts at the stepped point, or
            # the tolerance where that lies below it, as roundoff does.
            model = np.maximum(np.abs(np.where(last > 0, gb, ga)) * (dx / dx0) ** 2, tol[rows])
        mid = np.where(take, newton, np.where(np.isfinite(mid) & ~inside, np.clip(
            mid, np.nextafter(a, b), np.nextafter(b, a)), 0.5 * (a + b)))
        # closed on the Newton point
        a, b = np.where(near, mid, a), np.where(near, mid, b)
        ga, gb = np.where(near, model, ga), np.where(near, model, gb)
        done = ~((a < mid) & (mid < b))
        if done.any():
            a, b, fa, fb, ga, gb, last, dx, dx0, stepped, rows = close(done)
            mid, take = mid[~done], take[~done]
        if not rows.size:
            break
        fm, slope = pair(f(mid, rows))
        right = (fm < 0) == (fb < 0)  # mid replaces b
        # The end kept in place twice in a row has its value halved.
        h = np.where(right == last, 0.5, 1.0)
        fa, fb = np.where(right, h * fa, fm), np.where(right, fm, h * fb)
        ga, gb = np.where(right, ga, fm), np.where(right, fm, gb)
        a, b, last = np.where(right, a, mid), np.where(right, mid, b), right
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx0, dx, stepped = np.where(take, dx, b - a), -fm / slope, take
        done = np.abs(fm) <= tol[rows]
        if done.any():
            a, b, fa, fb, ga, gb, last, dx, dx0, stepped, rows = close(done)
    close(np.ones(rows.size, dtype=bool))
    root, resid = root.reshape(shape), resid.reshape(shape)
    return (float(root), float(resid)) if not shape else (root, resid)


# ---------------------------------------------------------------------------
# single-region quantization


def quantize_single(params: ModelParams, n: int) -> float:
    """Root of S(E) = 2 pi hbar (n + 1/2) by Newton steps on S and its slope,
    the period, each from one contour record, after one false-position step."""
    _level_index(params, n)
    e_min, e_max = act.classical_range(params)
    target = 2.0 * np.pi * params.hbar * (n + 0.5)

    def f(E, rows):
        orb = act._orbit(params, E)
        halves = act._halves(params, E, orb)
        # A sliver orbit, with no allowed segment to time, has a NaN slope.
        return (act._half_areas(params, E, halves)[:, 2] - target,
                act._half_periods(params, orb, halves)[:, 2])

    # S is exactly 0 at e_min and 2 pi hbar Ns at e_max; the orbits right
    # at the ends are too small to integrate at full precision.  A bracket
    # stops within one ulp of the target, as at the connection condition.
    s_max = 2.0 * np.pi * params.hbar * params.Ns
    return _bisect(f, e_min, e_max, fa=-target, fb=s_max - target, ftol=np.spacing(target),
                   xtol=1.5e-8 * params.energy_scale())[0]


# ---------------------------------------------------------------------------
# the connection condition


def _stable_alpha(delta, kappa):
    """alpha = arccos(-cos(delta)/sqrt(1+kappa^2)) elementwise, computed so
    that near-tangency (alpha near pi) keeps full precision:
    1 - cos(delta)/sqrt(1+kappa^2) is assembled from two positive terms,
    and pi - alpha = arccos(1 - deficit) is taken as 2 arcsin(sqrt(deficit/2)),
    which does not round 1 - deficit to 1 when kappa^2 is below roundoff."""
    delta, kappa = np.broadcast_arrays(np.asarray(delta, dtype=float),
                                       np.asarray(kappa, dtype=float))
    cosd = np.cos(delta)
    with np.errstate(over="ignore", invalid="ignore"):
        hyp = np.hypot(1.0, kappa)
        # alpha = pi - arccos(cosd/sqrt(1+k^2)) where cosd >= 0; the
        # complement's cosine deficit splits into
        # (1 - 1/sqrt(1+k^2)) + (1 - cosd)/sqrt(1+k^2).
        deficit = -np.expm1(-0.5 * np.log1p(kappa * kappa)) + (1.0 - cosd) * (1.0 / hyp)
        alpha = np.where(cosd >= 0.0, np.pi - 2.0 * np.arcsin(np.sqrt(0.5 * deficit)),
                         np.arccos(np.clip(-cosd / hyp, -1.0, 1.0)))
    alpha = np.where(np.isfinite(kappa) & (kappa <= 1e150), alpha, 0.5 * np.pi)
    return float(alpha) if alpha.ndim == 0 else alpha


def _dw_eval(params: ModelParams, E, slope=False):
    """(psi, alpha) of the connection condition at the energies E, floats
    for a scalar E and arrays for an array of energies; with ``slope``
    also their derivatives (psi', alpha') in E.

    psi = Sl + Sr + Sphi and alpha = arccos(-cos(Sl - Sr)/sqrt(1 + kappa^2));
    roots sit at psi = 2 pi k +- alpha.  Every term comes from one contour
    record, Sl and Sr from its left and right halves (``actions._halves``).
    Where the upper lobe is empty its half holds nothing and kappa = 0, so
    the whole area is Sl, or Sr with the upper minimum on the left: the
    condition, even in Sl - Sr, does not tell them apart.  The slopes are
    read from the same record (``_dw_slope``).
    """
    info = act._context(params)
    Er, shaped = act._rows(E)
    orb = act._orbit(params, Er)
    halves = act._halves(params, Er, orb)
    sl, sr = (act._half_areas(params, Er, halves)[:, :2] / (2.0 * params.hbar)).T
    two, s_eps, kappa = ~halves.empty, np.zeros(len(Er)), np.zeros(len(Er))
    if two.any():
        s_eps[two], kappa[two] = act._tunneling(params, info, Er[two], orb._make(x[two] for x in orb))
    out = (sl + sr + act.phase_correction(s_eps), _stable_alpha(sl - sr, kappa))
    if slope:
        out += _dw_slope(params, info, Er, orb, halves, sl - sr, s_eps, kappa)
    return tuple(shaped(x) for x in out)


def _dw_slope(params, info, Er, orb, halves, delta, s_eps, kappa):
    """(psi', alpha') at the energies Er from their contour record ``orb``.

    (Sl + Sr)' is the total period over 2 hbar, and the lobes' slopes are
    ``actions._half_periods``: equal in region II, where the two lobes share
    one period, and split by an incomplete integral at the cut above the
    barrier.  With Seps' from ``actions._tunneling_slope``, Sphi' =
    (Re psi(1/2 + i Seps) - log|Seps|) Seps' and kappa' = -pi kappa Seps',
    and differentiating cos alpha = -cos(delta)/sqrt(1+kappa^2) gives
    alpha' = -(sin(delta) delta' - pi Seps' cos(delta) kappa^2/(1+kappa^2))
    / sqrt(sin^2 delta + kappa^2), whose denominator, (sin alpha)
    sqrt(1+kappa^2), does not cancel at a deep doublet.  Within 1e-6
    energy scales of the barrier top the log divergences of (Sl + Sr)' and
    Sphi' cancel, and at the computed top the roundoff-split double root
    leaves the period finite, so both slopes are NaN there, as on a row
    without a closed form.
    """
    half = act._half_periods(params, orb, halves) / (2.0 * params.hbar)
    d_psi, d_delta = half[:, 0] + half[:, 1], half[:, 0] - half[:, 1]
    two, d_eps = ~halves.empty, np.zeros(len(Er))
    if two.any():
        d_eps[two] = act._tunneling_slope(params, orb._make(x[two] for x in orb))
        d_psi[two] += act._phase_slope(s_eps[two]) * d_eps[two]
    sin_d = np.sin(delta)
    with np.errstate(invalid="ignore", over="ignore"):
        share = kappa * kappa / (1.0 + kappa * kappa)
        d_alpha = -(sin_d * d_delta - np.pi * d_eps * np.cos(delta) * share) / np.hypot(sin_d, kappa)
    d_alpha = np.where(kappa <= 1e150, d_alpha, 0.0)  # alpha = pi/2 where kappa overflows
    near = np.abs(Er - info.e_barr) < 1e-6 * params.energy_scale()
    return np.where(near, np.nan, d_psi), np.where(near, np.nan, d_alpha)


def _phase_grid(params: ModelParams, info: act.BarrierInfo):
    """Energies from just above the lower well minimum to just below the
    top of the spectrum, with the condition's (psi, alpha) at each.

    The grid is N+1 even energies, one per level, and the upper well
    minimum: a lower-well level can sit on it, and only the condition's
    value right there brackets that level.  Each branch psi -+ alpha is
    non-decreasing in E on either side of the upper minimum, where it
    jumps down as the upper lobe opens, so an interval holds at most one
    root per target 2 pi k, and the refiner's Newton steps need no finer
    sampling.
    """
    scale = params.energy_scale()
    e_lo = info.e_min_lower + max(1e-9 * scale, 1e-11)
    # Stay clear of the very top, where the outer turning points pinch the
    # above-barrier contour; the highest level sits ~pi/2 in phase below.
    e_hi = info.e_max - 1e-8 * scale
    grid = np.linspace(e_lo, e_hi, params.N + 1)
    if e_lo < info.e_min_upper < e_hi:
        grid = np.sort(np.append(grid, info.e_min_upper))
    return grid, _dw_eval(params, grid)


def _bracket_roots(ev, grid, vals, scale):
    """Roots of psi -+ alpha = 2 pi k between neighbouring grid points.

    ``ev(E)`` returns (psi, alpha) at an array of energies and ``vals``
    is its value on ``grid``.  Every bracket is refined at once, one
    ``ev`` call per step.  Returns (root, (2 pi k, sign), residual)
    triples in sign, interval, k order; the pair names the root's branch
    and the residual is |psi -+ alpha - 2 pi k| at the root.
    """
    psi, alpha = vals
    lo, target, signs = [], [], []
    for sign in (+1.0, -1.0):
        h = psi - sign * alpha
        k_lo = np.ceil(np.minimum(h[:-1], h[1:]) / (2.0 * np.pi) - 1e-12)
        k_hi = np.floor(np.maximum(h[:-1], h[1:]) / (2.0 * np.pi) + 1e-12)
        wide = np.abs(np.diff(grid)) >= 1e-15 * scale
        for i in np.flatnonzero(wide & (k_hi >= k_lo)):
            for k in np.arange(k_lo[i], k_hi[i] + 0.5):
                lo.append(i)
                target.append(2.0 * np.pi * k)
                signs.append(sign)
    lo, target, signs = np.array(lo, dtype=int), np.array(target), np.array(signs)
    fa = psi[lo] - signs * alpha[lo] - target
    fb = psi[lo + 1] - signs * alpha[lo + 1] - target
    # The 1e-12 slack of k_lo and k_hi admits a few targets outside a
    # bracket's range; those hold no root.
    keep = fa * fb <= 0
    lo, target, signs = lo[keep], target[keep], signs[keep]

    def f(E, rows):
        p, a, *slope = ev(E)
        value = p - signs[rows] * a - target[rows]
        return (value, slope[0] - signs[rows] * slope[1]) if slope else value

    # The condition cannot come closer to its target than the target's
    # last bit; past that the steps only walk the roundoff of psi - alpha.
    roots, resid = _bisect(f, grid[lo], grid[lo + 1], fa[keep], fb[keep],
                           ftol=np.spacing(np.abs(target)), xtol=1.5e-8 * scale)
    return list(zip(roots.tolist(), zip(target.tolist(), signs.tolist()), resid.tolist()))


def quantize_double(params: ModelParams):
    """Every connection-condition root of a landscape: every level of a
    single well, or of a double well, its plain region-I levels included.

    Returns a list of ``Level`` records sorted in energy, region and
    orbit class as ``turning_points`` assigns them; ``residual`` is the
    phase mismatch |psi - (2 pi k +- alpha)|.
    """
    info = act._context(params)
    scale = params.energy_scale()
    grid, vals = _phase_grid(params, info)
    # Each root is keyed by its branch (2 pi k, sign) of
    # psi - sign * alpha = 2 pi k.  The two roots of a deep tunneling
    # doublet can lie closer than any energy tolerance, but never on one
    # branch; a branch yields twice only for a root on a grid point, which
    # both neighbouring brackets return.
    found = {}
    for root, branch, resid in _bracket_roots(lambda E: _dw_eval(params, E, slope=True), grid,
                                               vals, scale):
        found.setdefault(branch, (root, resid))
    E, resid = np.array(list(found.values())).reshape(-1, 2).T
    return sorted((Level(e, geo.region, geo.orbit_class, r) for e, geo, r in
                   zip(E.tolist(), act.turning_points(params, E), resid.tolist())),
                  key=lambda level: level.energy)


# ---------------------------------------------------------------------------
# full spectrum


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
    levels = quantize_double(params)
    if len(levels) != params.N + 1:
        raise QuantizationError(f"level count mismatch: connection condition found "
                                f"{len(levels)}, need {params.N + 1}")
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
        p = replace(params, eps=float(e))
        fps = fixed_points(p)
        try:
            ex, sc, error = exact_spectrum(p).energies, semiclassical_spectrum(p).energies, None
        except (QuantizationError, QuadratureError, ValueError) as exc:
            ex, sc, error = None, None, str(exc)
        out.append(SweepPoint(float(e), ex, sc, tuple((f.label, f.energy) for f in fps),
                              swallowtail=len(fps) == 4, error=error))
    return out
