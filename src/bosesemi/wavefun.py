"""Semiclassical momentum-space eigenstates.

The classical weight, the two-branch interference ("primitive") form,
its forbidden-region tails and the turning-point-regular uniform
approximation, all sampled on the discrete momentum grid
p = -N, -N+2, ..., N and renormalized to unit sum there.

The momentum functions take a scalar (returning a float) or an array of
momenta, and find the orbit at E once per call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import actions as act
from .model import ModelParams, _level_index
from .quad import turning_point_rows
from .quantum import MomentumWavefunction, momentum_grid
from .quantize import _bisect, quantize_single


@lru_cache(maxsize=1)
def _level(params: ModelParams, n):
    """``quantize_single(params, n)``, kept for the last state asked for, so
    that both forms of a state built without an energy solve it once."""
    return quantize_single(params, n)


def _orbit_interval(params: ModelParams, E):
    """The single orbit's momentum range [(p-, branch), (p+, branch)]."""
    geo = act.turning_points(params, E)
    if geo.orbit_class == "double_well_pair":
        raise act.GeometryError(
            "two disconnected orbits at this energy; wavefunction forms "
            "are defined per single orbit"
        )
    tps = geo.turning_points
    if len(tps) < 2:
        raise act.GeometryError("no classical orbit at this energy")
    return tps[0], tps[-1]


def _shaped(val, p):
    """val laid out like the momenta p; a float for a scalar p."""
    val = np.reshape(val, np.shape(p))
    return float(val) if val.ndim == 0 else val


def _weight(params: ModelParams, E, p):
    """1 / (sqrt|B(p)| T(E)) with B the speed bracket and T the period,
    the normalization integral of B^(-1/2) over the allowed range."""
    bracket = act._speed_bracket(params, E)
    with np.errstate(divide="ignore"):
        return 1.0 / (np.sqrt(np.abs(bracket(p))) * act.period_direct(params, E, lobe="auto"))


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


def _decay(params: ModelParams, E, lo, hi, p):
    """Integral of |Im q| from the orbit to each momentum (zero on it), one
    quadrature row per forbidden or open record segment on the way.

    Each segment is cut at the upper minimum's momentum: up to a few ulp
    above that minimum its double root has not split into turning points
    yet, and |Im q| has a kink there inside the forbidden segment."""
    orb = act._orbit(params, E)
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
    lo, hi = _orbit_interval(params, E)
    p = np.asarray(p, dtype=float)
    if np.any((p <= lo.p) | (p >= hi.p)):
        raise ValueError("momentum outside the classically allowed interval")
    return _shaped(_weight(params, E, p.ravel()), p)


def action_phase(params: ModelParams, E, p):
    """Half-phase S(p) accumulated from the lower turning point.

    S grows from zero at p- and reaches the half-cycle phase at p+.
    """
    lo, hi = _orbit_interval(params, E)
    p = np.asarray(p, dtype=float)
    if not np.all((lo.p <= p) & (p <= hi.p)):
        raise ValueError("momentum outside the classically allowed interval")
    return _shaped(_phase(params, E, lo, p.ravel()), p)


def forbidden_tail(params: ModelParams, E, p):
    """|Psi|^2 in the classically forbidden region: half the (modulus of
    the) classical weight damped by twice the imaginary action."""
    lo, hi = _orbit_interval(params, E)
    p = np.asarray(p, dtype=float)
    decay = _decay(params, E, lo, hi, p.ravel())
    return _shaped(0.5 * _weight(params, E, p.ravel()) * np.exp(-2.0 * decay / params.hbar), p)


def primitive_wavefunction(params: ModelParams, n, E=None) -> MomentumWavefunction:
    """Two-branch interference form 2 w(p) cos^2(S(p)/hbar - pi/4) on the
    allowed grid points, with decaying tails outside, renormalized to
    unit sum on the discrete grid."""
    _level_index(params, n)
    E = _level(params, n) if E is None else E
    lo, hi = _orbit_interval(params, E)
    grid = momentum_grid(params)
    p = grid * params.hbar
    inside = (lo.p < p) & (p < hi.p)
    vals = _weight(params, E, p)
    s = _phase(params, E, lo, p[inside])
    vals[inside] *= 2.0 * np.cos(s / params.hbar - 0.25 * np.pi) ** 2
    vals[~inside] *= 0.5 * np.exp(-2.0 * _decay(params, E, lo, hi, p[~inside]) / params.hbar)
    return MomentumWavefunction(grid=grid, values=vals / vals.sum(),
                                kind="primitive", state_index=int(n),
                                energy=float(E))


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


def _ho_phase(xi, xi0):
    """Harmonic-oscillator phase integral from -xi0 to xi (allowed side)."""
    return 0.5 * xi * np.sqrt(np.maximum(xi0**2 - xi**2, 0.0)) + \
        0.5 * xi0**2 * (0.5 * np.pi + np.arcsin(np.clip(xi / xi0, -1.0, 1.0)))


def _ho_decay(xi, xi0):
    """Forbidden-side phase integral from xi0 to xi > xi0."""
    return 0.5 * xi * np.sqrt(np.maximum(xi**2 - xi0**2, 0.0)) - \
        0.5 * xi0**2 * np.arccosh(np.maximum(xi / xi0, 1.0))


def oscillator_coordinate(params: ModelParams, n, E, p):
    """Map a momentum to the harmonic-oscillator coordinate xi by
    matching accumulated phase; |xi| <= xi0 = sqrt(2n+1) on the allowed
    interval, continued through the decay integral outside it."""
    lo, hi = _orbit_interval(params, E)
    p = np.asarray(p, dtype=float)
    return _shaped(_oscillator_xi(params, n, E, lo, hi, p.ravel()), p)


def _oscillator_xi(params: ModelParams, n, E, lo, hi, ps):
    """``oscillator_coordinate`` on the momenta ps of the orbit lo..hi."""
    xi0 = np.sqrt(2.0 * n + 1.0)
    allowed = (lo.p <= ps) & (ps <= hi.p)
    phase = _phase(params, E, lo, ps[allowed]) / params.hbar
    top = _ho_phase(xi0, xi0)
    if np.any((phase < 0) | (phase > top + 1e-9)):
        raise ValueError("phase outside the oscillator mapping range")
    xi = np.empty_like(ps)
    t = np.minimum(phase, top)
    xi[allowed] = _bisect(lambda x, rows: _ho_phase(x, xi0) - t[rows],
                          -xi0, np.full(t.shape, xi0))[0]
    # Forbidden side: match the decay integral with |xi| beyond xi0; it
    # exceeds (xi - xi0)^2 / 2, which bounds the root.
    decay = _decay(params, E, lo, hi, ps[~allowed]) / params.hbar
    xi[~allowed] = _bisect(lambda x, rows: _ho_decay(x, xi0) - decay[rows],
                           xi0, xi0 + 1.0 + np.sqrt(2.0 * decay))[0]
    xi[ps < lo.p] *= -1.0
    return xi


def uniform_wavefunction(params: ModelParams, n, E=None) -> MomentumWavefunction:
    """Turning-point-regular form |w(p) sqrt(2n+1-xi^2)| H_n(xi)^2 e^(-xi^2),
    for orbits whose turning points both lie on the lower potential curve.

    Other turning-point geometries raise ``GeometryError``; the
    ``wavefunction`` command then leaves its uniform column empty and
    reports the reason on stderr.
    """
    _level_index(params, n)
    E = _level(params, n) if E is None else E
    lo, hi = _orbit_interval(params, E)
    if not (lo.branch == "U-" and hi.branch == "U-"):
        raise act.GeometryError(
            "uniform approximation implemented only for orbits with both "
            "turning points on the lower potential curve"
        )
    grid = momentum_grid(params)
    p = grid * params.hbar
    pscale = params.p_max
    # Nudge off a turning point, where weight and envelope separately
    # blow up / vanish; the product stays finite either side.
    d_lo, d_hi = np.abs(p - lo.p), np.abs(p - hi.p)
    nudge = 1e-6 * pscale * np.where(d_lo < d_hi, 1.0, -1.0)
    p = np.where(np.minimum(d_lo, d_hi) < 1e-9 * pscale, p + nudge, p)
    xi = _oscillator_xi(params, n, E, lo, hi, p)
    envelope = np.abs(_weight(params, E, p) * np.sqrt(np.abs(2.0 * n + 1.0 - xi * xi)))
    vals = envelope * _hermite_weight(n, xi)
    return MomentumWavefunction(grid=grid, values=vals / vals.sum(),
                                kind="uniform", state_index=int(n),
                                energy=float(E))
