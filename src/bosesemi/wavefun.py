"""Semiclassical momentum-space eigenstates.

The classical weight, the two-branch interference ("primitive") form,
its forbidden-region tails and the turning-point-regular uniform
approximation, all sampled on the discrete momentum grid
p = -N, -N+2, ..., N and renormalized to unit sum there.

The momentum functions take a scalar (returning a float) or an array of
momenta, and solve the contour at E once per call; the two normalised
over the orbit, ``classical_density`` and ``forbidden_tail``, also read
the period from it.  The primitive and uniform forms are renormalized on
the grid, where the period's 1/T cancels, so they compute no period.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial

import numpy as np

from . import actions as act
from .model import ModelParams, _level_index
from .quad import turning_point_rows
from .quantum import MomentumWavefunction, momentum_grid
from .quantize import quantize_single


# A state's orbit and its integrals at the momenta p, by default the grid
# p = hbar * momentum_grid: which momenta lie on the orbit, the phase S(p)
# there or the decay integral elsewhere, and the ``_weight``; ``orb`` is the
# contour record at E.  The momentum arrays are read-only, since ``_level``
# hands one record to every caller.
_State = namedtuple("_State", "E lo hi on_orbit integral weight orb")


def _state(params: ModelParams, E, p=None, orb=None):
    """The record of the state at energy E: one contour solve (none if
    ``orb`` is given), one phase and one decay quadrature for all of p,
    and no period."""
    orb = act._orbit(params, E) if orb is None else orb
    lo, hi = _orbit_interval(params, E, orb)
    p = momentum_grid(params) * params.hbar if p is None else p
    on_orbit = (lo.p <= p) & (p <= hi.p)
    integral = np.empty_like(p)
    integral[on_orbit] = _phase(params, E, lo, p[on_orbit])
    integral[~on_orbit] = _decay(params, E, orb, lo, hi, p[~on_orbit])
    weight = _weight(params, orb, p)
    for a in (on_orbit, integral, weight):
        a.flags.writeable = False
    return _State(E, lo, hi, on_orbit, integral, weight, orb)


@lru_cache(maxsize=1)
def _level(params: ModelParams, n):
    """The record of state n at its level, kept for the last state asked for:
    both forms built without an energy share one solve and one set of integrals."""
    return _state(params, quantize_single(params, n))


def _orbit_interval(params: ModelParams, E, orb=None):
    """The single orbit's momentum range [(p-, branch), (p+, branch)], read
    from the contour record ``orb`` at E (solved here if not given)."""
    geo = act._turning_points(params, E, orb)
    if geo.orbit_class == "double_well_pair":
        raise act.GeometryError("two disconnected orbits at this energy; wavefunction "
                                "forms are defined per single orbit")
    tps = geo.turning_points
    if len(tps) < 2:
        raise act.GeometryError("no classical orbit at this energy")
    return tps[0], tps[-1]


def _weight(params: ModelParams, orb, p):
    """1 / sqrt|B(p)|, B the speed bracket of the contour record ``orb``:
    over the period, the classical density."""
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(np.abs(act._speed_bracket(params, orb, p)))


def _phase(params: ModelParams, E, lo, p):
    """Phase integral from the lower turning point to each allowed momentum,
    all in one row-wise quadrature.

    With the lower turning point on the lower potential curve the local
    wavenumber is pi/2 - q, otherwise q.
    """
    if lo.branch == "U-":
        f = lambda rows, pp: 0.5 * np.pi - act._angle_allowed(params, E, pp)
    else:
        f = lambda rows, pp: act._angle_allowed(params, E, pp)
    return turning_point_rows(f, lo.p, p, rtol=1e-11)


def _decay(params: ModelParams, E, orb, lo, hi, p):
    """Integral of |Im q| from the orbit to each momentum (zero on it), one
    quadrature row per forbidden or open segment of the contour record
    ``orb`` on the way.

    Each segment is cut at the upper minimum's momentum: up to a few ulp
    above that minimum its double root has not split into turning points
    yet, and |Im q| has a kink there inside the forbidden segment."""
    cut = np.minimum(np.maximum(act._context(params).p_min_upper, orb.a[0]), orb.b[0])
    ends = np.column_stack([orb.a[0], cut, orb.b[0]])
    kind = np.repeat(orb.kind[0], 2)
    a = np.maximum(ends[:, :2].ravel(), np.minimum(p, hi.p)[:, None])
    b = np.minimum(ends[:, 1:].ravel(), np.maximum(p, lo.p)[:, None])
    piece = (b > a) & ((kind == act._FORBIDDEN) | (kind == act._OPEN))
    return np.bincount(np.nonzero(piece)[0], turning_point_rows(
        lambda rows, pp: act._imag_angle(params, E, pp), a[piece], b[piece], rtol=1e-11),
        minlength=len(p))


def classical_density(params: ModelParams, E, p):
    """Classical momentum distribution w(p) = C / sqrt(bracket), with C
    fixed by unit integral over the classically allowed range.

    Diverges at the turning points; that divergence integrates away and
    is cured pointwise by the uniform approximation.
    """
    orb = act._orbit(params, E)
    lo, hi = _orbit_interval(params, E, orb)
    p, shaped = act._rows(p)
    if np.any((p <= lo.p) | (p >= hi.p)):
        raise ValueError("momentum outside the classically allowed interval")
    return shaped(_weight(params, orb, p) / act._period(params, E, orb, "auto"))


def action_phase(params: ModelParams, E, p):
    """Half-phase S(p) accumulated from the lower turning point.

    S grows from zero at p- and reaches the half-cycle phase at p+.
    """
    lo, hi = _orbit_interval(params, E)
    p, shaped = act._rows(p)
    if not np.all((lo.p <= p) & (p <= hi.p)):
        raise ValueError("momentum outside the classically allowed interval")
    return shaped(_phase(params, E, lo, p))


def forbidden_tail(params: ModelParams, E, p):
    """|Psi|^2 in the classically forbidden region: half the (modulus of
    the) classical weight damped by twice the imaginary action."""
    orb = act._orbit(params, E)
    lo, hi = _orbit_interval(params, E, orb)
    p, shaped = act._rows(p)
    decay = _decay(params, E, orb, lo, hi, p)
    weight = _weight(params, orb, p) / act._period(params, E, orb, "auto")
    return shaped(0.5 * weight * np.exp(-2.0 * decay / params.hbar))


def primitive_wavefunction(params: ModelParams, n, E=None) -> MomentumWavefunction:
    """Two-branch interference form 2 w(p) cos^2(S(p)/hbar - pi/4) on the
    allowed grid points, with decaying tails outside, renormalized to
    unit sum on the discrete grid."""
    _level_index(params, n)
    st = _level(params, n) if E is None else _state(params, E)
    s = st.integral
    vals = st.weight * np.where(st.on_orbit, 2.0 * np.cos(s / params.hbar - 0.25 * np.pi) ** 2,
                                0.5 * np.exp(-2.0 * s / params.hbar))
    return MomentumWavefunction(grid=momentum_grid(params), values=vals / vals.sum(),
                                kind="primitive", state_index=int(n),
                                energy=float(st.E))


def _hermite_weight(n, xi):
    """H_n(xi)^2 e^(-xi^2) / (2^n n!) by the recurrence of the normalised
    Hermite functions (DLMF 18.9), f_{k+1} = sqrt(2/(k+1)) xi f_k -
    sqrt(k/(k+1)) f_{k-1}, with e^(-xi^2/2) carried as a log scale that
    absorbs f whenever it passes 1e150, so no order overflows."""
    xi = np.asarray(xi, dtype=float)
    f_prev, f = np.zeros_like(xi), np.ones_like(xi)
    log_scale = -0.5 * xi * xi
    for k in range(int(n)):
        f_prev, f = f, np.sqrt(2.0 / (k + 1)) * xi * f - np.sqrt(k / (k + 1)) * f_prev
        rescale = np.where(np.abs(f) > 1e150, 1e-150, 1.0)
        f_prev, f, log_scale = f_prev * rescale, f * rescale, log_scale - np.log(rescale)
    with np.errstate(divide="ignore"):
        return np.exp(2.0 * (log_scale + np.log(np.abs(f))))


def oscillator_coordinate(params: ModelParams, n, E, p):
    """Map a momentum to the harmonic-oscillator coordinate xi by
    matching accumulated phase; |xi| <= xi0 = sqrt(2n+1) on the allowed
    interval, continued through the decay integral outside it."""
    p, shaped = act._rows(p)
    st = _state(params, E, p)
    return shaped(_oscillator_xi(n, st.on_orbit, st.integral / params.hbar, p < st.lo.p))


# x - sin x, sinh x - x = x^3 sum_k (-+x^2)^k / (2k+3)!, to 5e-17 by k = 7 below x = 1.
_KEPLER_SERIES = np.array([1.0 / factorial(k) for k in range(17, 2, -2)])


def _oscillator_xi(n, on_orbit, t, below):
    """The oscillator coordinate xi whose phase integral from -xi0 is t on
    the orbit, or whose decay integral from xi0 to |xi| is t off it,
    negative below the orbit.

    With xi = -xi0 cos(x/2) the phase is (xi0^2/4)(x - sin x), and with
    |xi| = xi0 cosh(x/2) the decay is (xi0^2/4)(sinh x - x): Kepler's
    equation in m = 4 t / xi0^2, solved per element by five Newton steps
    from cbrt(6m), a lower bound on the orbit, or from the upper bound
    min(cbrt(6m), asinh(m + cbrt(6m))) off it; four steps reach an ulp for m
    from 1e-300 to pi or 1e5.  Past half the orbit, x -> 2 pi - x counts
    the phase from the upper turning point."""
    xi0sq = 2.0 * n + 1.0
    top = 0.5 * np.pi * xi0sq
    if np.any(on_orbit & ((t < 0) | (t > top + 1e-9))):
        raise ValueError("phase outside the oscillator mapping range")
    upper = on_orbit & (t > 0.5 * top)
    m = 4.0 * np.where(upper, top - np.minimum(t, top), t) / xi0sq
    c = np.cbrt(6.0 * m)
    x = np.where(on_orbit, c, np.minimum(c, np.arcsinh(m + c)))
    for _ in range(5):
        half = np.where(on_orbit, np.sin(0.5 * x), np.sinh(0.5 * x))
        series = x**3 * np.polyval(_KEPLER_SERIES, np.where(on_orbit, -x * x, x * x))
        f = np.where(x < 1.0, series, np.where(on_orbit, x - np.sin(x), np.sinh(x) - x))
        x = x - (f - m) / np.maximum(2.0 * half * half, 1e-300)
    xi = np.sqrt(xi0sq) * np.where(on_orbit, np.cos(0.5 * x), np.cosh(0.5 * x))
    return np.where(upper | ~(on_orbit | below), xi, -xi)


def uniform_wavefunction(params: ModelParams, n, E=None) -> MomentumWavefunction:
    """Turning-point-regular form |w(p) sqrt(2n+1-xi^2)| H_n(xi)^2 e^(-xi^2),
    for orbits whose turning points both lie on the lower potential curve.

    Other turning-point geometries raise ``GeometryError``; the
    ``wavefunction`` command then leaves its uniform column empty and
    reports the reason on stderr.
    """
    _level_index(params, n)
    st = _level(params, n) if E is None else _state(params, E)
    lo, hi = st.lo, st.hi
    if not (lo.branch == "U-" and hi.branch == "U-"):
        raise act.GeometryError("uniform approximation implemented only for orbits with "
                                "both turning points on the lower potential curve")
    grid = momentum_grid(params)
    p = grid * params.hbar
    on_orbit, integral, weight = st.on_orbit, st.integral, st.weight
    # Nudge off a turning point, where weight and envelope separately
    # blow up / vanish; the product stays finite either side.  Only the
    # nudged momenta are integrated afresh, on the state's contour record.
    d_lo, d_hi = np.abs(p - lo.p), np.abs(p - hi.p)
    near = np.minimum(d_lo, d_hi) < 1e-9 * params.p_max
    if near.any():
        p = np.where(near, p + 1e-6 * params.p_max * np.where(d_lo < d_hi, 1.0, -1.0), p)
        fresh = _state(params, st.E, p[near], st.orb)
        on_orbit, integral, weight = on_orbit.copy(), integral.copy(), weight.copy()
        on_orbit[near], integral[near], weight[near] = fresh.on_orbit, fresh.integral, fresh.weight
    xi = _oscillator_xi(n, on_orbit, integral / params.hbar, p < lo.p)
    envelope = np.abs(weight * np.sqrt(np.abs(2.0 * n + 1.0 - xi * xi)))
    vals = envelope * _hermite_weight(n, xi)
    return MomentumWavefunction(grid=grid, values=vals / vals.sum(),
                                kind="uniform", state_index=int(n),
                                energy=float(st.E))
