"""Classical action machinery: turning points, orbit areas, periods and
the barrier integrals entering the double-well quantization condition,
and the slopes of those integrals in the energy.

Everything is built on one primitive: the width in the angle coordinate
of the sublevel set {H(p,q) <= E} at fixed momentum, which is
pi - 2*q(p,E) on classically allowed momenta, pi where E exceeds the
upper momentum potential and zero in forbidden strips.  The action S(E)
is the area of the sublevel set; orbit-type case formulas are just this
integral split at the turning points.

The energy-dependent functions take a scalar energy or a 1-D array of
energies.  An array is one batch: its turning quartics are solved
together and its contours are held as fixed-shape arrays (``_orbit``),
every consumer picks segments by masks, and each quadrature takes all
the segments it needs as rows of one call; a scalar is a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .meanfield import fixed_points
from .model import ModelParams
from .quad import turning_point_rows
from .roots import quartic_rows
from .special import _re_digamma_half_line, arg_gamma_half_line


class GeometryError(ValueError):
    """Raised when an operation is applied to an unsupported orbit shape."""


class SeparatrixError(ValueError):
    """Raised for energies inside the guard band around the barrier top."""


# ---------------------------------------------------------------------------
# angle coordinate


def _cos2q(params: ModelParams, E, p):
    """X = cos(2q) along the energy contour, complex-safe.  Flipping the
    sign of one mode maps v to -v and leaves every contour as it is, so
    this reads |v|: the one place the contours depend on v's sign."""
    u = np.asarray(p) / params.hbar
    ns = params.Ns
    root = np.sqrt((ns**2 - u**2).astype(complex)) if np.iscomplexobj(u) else \
        np.sqrt(np.maximum(ns**2 - u**2, 0.0))
    num = E - params.eps * u - 0.5 * params.g * (ns**2 + u**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / (abs(params.v) * root)


def _angle_allowed(params, E, p):
    """Real q on allowed momenta; clips roundoff excursions of |X|."""
    x = np.clip(np.real(_cos2q(params, E, p)), -1.0, 1.0)
    return 0.5 * np.arccos(x)


def _imag_angle(params, E, p):
    """|Im q| on forbidden momenta (zero on allowed ones)."""
    x = np.real(_cos2q(params, E, p))
    ax = np.maximum(np.abs(x), 1.0)
    return 0.5 * np.arccosh(ax)


# ---------------------------------------------------------------------------
# turning points and segment decomposition


@dataclass(frozen=True)
class TurningPoint:
    p: float
    branch: str  # "U-" or "U+"


@dataclass(frozen=True)
class OrbitGeometry:
    energy: float
    turning_points: tuple
    orbit_class: str | None   # min_encircling | max_encircling | rotor | double_well_pair
    region: str                # I | II | III | single
    diagnostic: str | None = None


@dataclass(frozen=True)
class BarrierInfo:
    """The landscape's energy landmarks: the barrier top (the saddle) and
    its momentum, the lower and upper well minima, the top of the
    spectrum, and the upper minimum's momentum.  A single well is the
    landscape whose upper lobe is empty at every energy: its upper
    minimum and barrier lie at +inf, and ``p_barr`` and ``p_min_upper``
    are the rim p_max, so a cut there leaves the whole contour on the
    left."""
    e_barr: float
    p_barr: float
    e_min_lower: float
    e_min_upper: float
    e_max: float
    p_min_upper: float


@lru_cache(maxsize=128)
def _context(params: ModelParams) -> BarrierInfo:
    """The landmarks from the fixed points, cached per parameter set."""
    fps = fixed_points(params)
    minima = sorted((f for f in fps if f.kind == "minimum"), key=lambda f: f.energy)
    maxima = [f.energy for f in fps if f.kind == "maximum"]
    saddles = [f for f in fps if f.kind == "saddle"]
    if not minima or not maxima:
        raise GeometryError("phase space lacks a minimum/maximum pair")
    if not saddles:
        return BarrierInfo(np.inf, params.p_max, minima[0].energy, np.inf, max(maxima), params.p_max)
    return BarrierInfo(saddles[0].energy, saddles[0].p, minima[0].energy, minima[-1].energy,
                       max(maxima), minima[-1].p)


def classical_range(params: ModelParams):
    info = _context(params)
    return info.e_min_lower, info.e_max


def _rows(x):
    """x flattened to a 1-D float array, and the function that lays
    per-row results out like x: a float for a scalar x."""
    x = np.asarray(x, dtype=float)

    def shaped(val):
        val = np.reshape(val, x.shape)
        return float(val) if val.ndim == 0 else val

    return x.reshape(-1), shaped


# Segment kinds: forbidden, allowed (E between the momentum potentials)
# and open (E above the upper one); an empty segment has no width or is a
# roundoff sliver, and belongs to no component.
_EMPTY, _FORBIDDEN, _ALLOWED, _OPEN = -1, 0, 1, 2


class _Contour(NamedTuple):
    """The energy contours of a batch, one row per energy: the turning
    quartic's leading nonzero coefficient ``lead`` and its ``roots`` in
    s = p/(hbar*Ns), NaN after the last, the real ones polished on the
    unsquared condition; the real roots with |s| <= 1 as turning momenta
    ``tp`` sorted in p, NaN after the last, with ``upper`` flagging the
    U+ branch; and [-p_max, p_max] cut at them into 5 segments [a, b] of
    a ``kind``, the missing ones of zero width at p_max, with a component
    id ``comp`` that counts the forbidden segments up to each."""
    lead: np.ndarray
    roots: np.ndarray
    tp: np.ndarray
    upper: np.ndarray
    a: np.ndarray
    b: np.ndarray
    kind: np.ndarray
    comp: np.ndarray


def _orbit(params: ModelParams, E) -> _Contour:
    """The contours at the energies E, one row per energy, from one
    stacked solve of the turning quartics [A - eps*s - (G/2) s^2]^2 -
    v^2 (1 - s^2)."""
    E = np.asarray(E, dtype=float).reshape(-1)
    ns, hbar, pmax = params.Ns, params.hbar, params.p_max
    G = params.g * ns
    A = E / ns - 0.5 * G
    eps, v = params.eps, params.v
    coeffs = np.empty((len(E), 5))
    coeffs[:, 0], coeffs[:, 1] = 0.25 * G * G, eps * G
    coeffs[:, 2] = eps * eps - A * G + v * v
    coeffs[:, 3], coeffs[:, 4] = -2.0 * A * eps, A * A - v * v
    roots = quartic_rows(coeffs)
    # The solver drops a row's negligible leading coefficients, one NaN
    # root each, so the NaN count indexes the coefficient it kept.
    lead = coeffs[np.arange(len(E)), np.isnan(roots).sum(axis=1)]
    # The real roots inside the rim.
    real = (np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))) & \
        (np.abs(roots.real) <= 1.0 + 1e-10)
    # Squaring loses digits where the quartic nearly has a double root, as
    # for an orbit pressed against the rim by a strong bias, so each real
    # root takes a Newton step on the unsquared A - eps s - (G/2) s^2 =
    # +-|v| sqrt(1 - s^2); a step above 1e-6 has left the root's basin.
    s0 = np.where(real, roots.real, np.nan)
    bra = A[:, None] - eps * s0 - 0.5 * G * s0 * s0
    sv = np.where(bra > 0, 1.0, -1.0) * abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(1.0 - s0 * s0)
        step = (bra - sv * root) / (-eps - G * s0 + sv * s0 / root)
    roots = np.where(real & (np.abs(step) < 1e-6), s0 - step, roots)
    # Sorted, NaN last; the sign of the unsquared bracket picks each one's branch.
    s = np.sort(np.where(real, np.minimum(np.maximum(roots.real, -1.0), 1.0), np.nan), axis=1)
    upper = A[:, None] - eps * s - 0.5 * G * s * s > 0
    tp = s * ns * hbar
    pts = np.empty((len(E), 6))
    pts[:, 0], pts[:, 1:5], pts[:, 5] = -pmax, np.fmin(tp, pmax), pmax
    a, b = pts[:, :-1], pts[:, 1:]
    # Each segment's kind from X = cos 2q at its midpoint: open above 1,
    # allowed in [-1, 1], forbidden below -1 (and where X is NaN).
    x = np.real(_cos2q(params, E[:, None], 0.5 * (a + b)))
    kind = (x >= -1.0) + (x > 1.0).astype(int)
    # Roundoff splits a double root (a well minimum) by about
    # sqrt(machine eps); an allowed sliver that thin has no area to speak
    # of, and no quadrature could resolve it against the noise.
    kind[b - a <= np.where(kind == _ALLOWED, 1e-7, 1e-13) * pmax] = _EMPTY
    return _Contour(lead, roots, tp, upper, a, b, kind, (kind == _FORBIDDEN).cumsum(axis=1))


def _ncomp(orb: _Contour):
    """The number of components of each contour: forbidden segments part
    them, so they are the ids that own an allowed or open segment."""
    owned = (orb.kind > _FORBIDDEN)[:, :, None] & (orb.comp[:, :, None] == np.arange(6))
    return owned.any(axis=1).sum(axis=1)


def _speed_bracket(params: ModelParams, orb: _Contour, p):
    """B(p) = v^2 (Ns^2 - u^2) - (E - eps u - g(Ns^2+u^2)/2)^2 of the
    contour record ``orb``'s first row at the momenta p.

    B is minus the turning-point quartic, so evaluating it as a product
    over the quartic's roots avoids the catastrophic cancellation of the
    closed form near turning points (|dH/dq| = 2 sqrt(B) there), which
    matters for large particle numbers.
    """
    s = np.asarray(p) / (params.hbar * params.Ns)
    q = np.full(np.shape(s), orb.lead[0], dtype=complex)
    # A missing (NaN) root is a factor of one.
    for root in orb.roots[0]:
        q = q * np.where(np.isnan(root), 1.0, s - root)
    return -params.Ns ** 2 * q.real


def _upper_empty(info: BarrierInfo, E, orb: _Contour):
    """Where the upper lobe of the contours ``orb`` at E is empty: up to the
    upper minimum, below the barrier on one component, and in a single well."""
    return (E <= info.e_min_upper) | ((E < info.e_barr) & (_ncomp(orb) < 2))


def turning_points(params: ModelParams, E):
    """Turning points with branch labels plus orbit classification; a
    tuple of ``OrbitGeometry``, one per energy, for an array E.  Below the
    barrier, region I has an empty upper lobe (``_upper_empty``) and II is
    the ``double_well_pair``; other classes are the off-rim branch set,
    and a point orbit has none."""
    return _turning_points(params, E)


def _turning_points(params: ModelParams, E, orb: _Contour | None = None):
    """``turning_points`` at E, read from the contour record ``orb`` at E
    where the caller has one; otherwise only the energies inside the
    classical range are solved."""
    info = _context(params)
    Er, _ = _rows(E)
    tol = 1e-12 * params.energy_scale()
    inside = (Er >= info.e_min_lower - tol) & (Er <= info.e_max + tol)
    orb = _orbit(params, Er[inside]) if orb is None else orb._make(x[inside] for x in orb)
    pmax, Ein = params.p_max, Er[inside]
    # Turning point j lies between segments j and j+1; it goes where they
    # share a kind or one is an empty segment between two turning points:
    # a sliver, or the double root of a point orbit or a tangency.
    real = ~np.isnan(orb.tp)
    hollow = (orb.kind[:, 1:4] == _EMPTY) & real[:, 1:]
    kept = real & (orb.kind[:, :4] != orb.kind[:, 1:])
    kept[:, :3] &= ~hollow
    kept[:, 1:] &= ~hollow
    interior = kept & (np.abs(np.abs(orb.tp) - pmax) > 1e-9 * pmax)
    use = np.where(interior.any(axis=1)[:, None], interior, kept)
    minus, plus = (use & ~orb.upper).any(axis=1), (use & orb.upper).any(axis=1)
    two = (Ein < info.e_barr) & ~_upper_empty(info, Ein, orb)
    klass = np.where(two, "double_well_pair", np.where(
        minus == plus, "rotor", np.where(minus, "min_encircling", "max_encircling")))
    # A point orbit (at a well bottom or the top) has no turning point and no class.
    klass = np.where(kept.any(axis=1), klass, None)
    region = np.where(two, "II", np.where(Ein < info.e_barr, "I", "III")) if info.e_barr < np.inf \
        else np.full(len(Ein), "single")
    tps = (tuple(TurningPoint(p, "U+" if u else "U-") for p, u, k in zip(*row) if k)
           for row in zip(orb.tp.tolist(), orb.upper.tolist(), kept.tolist()))
    labels = zip(tps, klass.tolist(), region.tolist())
    out = tuple(OrbitGeometry(e, *next(labels)) if ok else
                OrbitGeometry(e, (), None, "single",
                              diagnostic="energy outside the classical range")
                for e, ok in zip(Er.tolist(), inside.tolist()))
    return out[0] if np.ndim(E) == 0 else out


def _halves(orb: _Contour, pb):
    """The contours cut at momentum pb: every segment clipped to p <= pb
    and to p >= pb, as (a, b, kind), each of shape (rows, 2, 5) with the
    left half first.  Below the barrier its momentum lies in the
    forbidden gap, where min_q H = e_barr > E, so a cut there parts the
    two lobes."""
    lo, hi = np.array([[-np.inf], [pb]]), np.array([[pb], [np.inf]])
    clip = lambda x: np.minimum(np.maximum(x[:, None], lo), hi)
    return clip(orb.a), clip(orb.b), np.repeat(orb.kind[:, None], 2, axis=1)


def _half_areas(params, E, orb: _Contour, pb):
    """The areas of the contours' parts on either side of momentum pb,
    shape (rows, 2) with the left part first, from one quadrature."""
    halves = (x.reshape(-1, 5) for x in _halves(orb, pb))
    return _area_of(params, np.repeat(E, 2), *halves).reshape(-1, 2)


def _lobe(params, orb: _Contour, lobe):
    """(a, b, kind) of the segments a lobe covers, one row per contour:
    "left" and "right" the half of a two-component contour on that side
    of the barrier, "auto" (one component) and "total" the whole contour
    cut at the barrier; above the barrier the saddle's log singularity
    lies inside the contour, and the cut puts it at a segment end.  Raises
    ``GeometryError`` where a contour does not suit the lobe."""
    if lobe not in ("auto", "total", "left", "right"):
        raise ValueError(f"lobe must be auto/total/left/right, got {lobe!r}")
    ncomp = _ncomp(orb) if lobe != "total" else ()
    if lobe == "auto" and np.any(ncomp > 1):
        raise GeometryError("two disconnected orbits at this energy; pick lobe='left' or 'right'")
    if lobe in ("left", "right") and np.any(ncomp != 2):
        raise GeometryError(f"expected two orbit components, found {ncomp[ncomp != 2][0]}")
    halves = _halves(orb, _context(params).p_barr)
    if lobe in ("left", "right"):
        return tuple(x[:, int(lobe == "right")] for x in halves)
    return tuple(x.reshape(len(x), 10) for x in halves)


def _area_of(params, E, a, b, kind):
    """Area of the sublevel set over each row's allowed and open segments,
    row i at energy E[i]; the parts add up in segment order, and every
    allowed segment of every row goes into one quadrature."""
    live = kind > _FORBIDDEN
    owner = np.nonzero(live)[0]
    a, b, allowed = a[live], b[live], kind[live] == _ALLOWED
    part = np.pi * (b - a)
    if allowed.any():
        Es = E[owner[allowed]]
        part[allowed] = turning_point_rows(
            lambda r, p: np.pi - 2.0 * _angle_allowed(params, Es[r, None], p),
            a[allowed], b[allowed])
    return np.bincount(owner, part, minlength=len(E))


# ---------------------------------------------------------------------------
# the action S(E) and the period


def action(params: ModelParams, E, lobe="auto"):
    """Phase-space area enclosed below the energy contour, a float for a
    scalar E and an array for an array of energies.

    ``lobe="total"`` is the whole sublevel area, which grows from 0 at
    the bottom of the spectrum to 2*pi*Ns*hbar at the top; ``"auto"`` is
    the same but raises ``GeometryError`` where the contour has two
    components.  ``"left"`` and ``"right"`` pick one of exactly two
    components and raise ``GeometryError`` otherwise: below the upper
    well minimum the contour has one component, and the quantizer uses
    the total area there.
    """
    info = _context(params)
    scale = params.energy_scale()
    Er, shaped = _rows(E)
    out = np.zeros(len(Er))
    top = Er >= info.e_max - 1e-14 * scale
    if lobe in ("auto", "total"):
        out[top] = 2.0 * np.pi * params.Ns * params.hbar
    mid = (Er > info.e_min_lower + 1e-14 * scale) & ~top
    out[mid] = _area_of(params, Er[mid], *_lobe(params, _orbit(params, Er[mid]), lobe))
    return shaped(out)


def period_direct(params: ModelParams, E, lobe="auto"):
    """Orbit period T = hbar * \\int du / sqrt(B) with B = v^2 (Ns^2 - u^2)
    - (E - eps u - g(Ns^2 + u^2)/2)^2 over the orbit's allowed momentum
    range, in closed form (``_period``), a float for a scalar E and an
    array for an array of energies.  ``lobe="total"`` sums every
    component, so it is dS/dE of ``action(lobe="total")``; ``"auto"``
    needs a contour of one component, ``"left"`` and ``"right"`` one of
    exactly two; any other contour raises ``GeometryError``.  The period
    diverges on the separatrix: within 1e-9 energy scales of the barrier
    top a scalar E raises ``SeparatrixError`` and an array gets inf; a
    single well's barrier lies at +inf, so none of its energies is near it."""
    Er, shaped = _rows(E)
    sep = np.abs(Er - _context(params).e_barr) < 1e-9 * params.energy_scale()
    if np.ndim(E) == 0 and sep[0]:
        raise SeparatrixError("period diverges on the separatrix")
    out = np.full(len(Er), np.inf)
    out[~sep] = _period(params, _orbit(params, Er[~sep]), lobe)
    return shaped(out)


def _agm(x, y):
    """The arithmetic-geometric mean, by 24 steps for every element alike."""
    for _ in range(24):
        x, y = 0.5 * (x + y), np.sqrt(x * y)
    return x


def _period(params: ModelParams, orb: _Contour, lobe):
    """The period of each contour's ``lobe`` (see ``_lobe``): the number of
    allowed segments it covers times pi hbar / ``_cycle_agm``.  The real
    cycles are homologous, so a row's allowed segments share one value."""
    a, b, kind = _lobe(params, orb, lobe)
    # A segment that the cut at the barrier splits counts once.
    count = ((kind == _ALLOWED) & (b > a)).reshape(len(kind), -1, 5).any(axis=1).sum(axis=1)
    if not count.all():
        raise GeometryError("no classically allowed momenta at this energy")
    return count * (np.pi * params.hbar / _cycle_agm(params, orb))


def _cycle_agm(params: ModelParams, orb: _Contour):
    """The AGM(sqrt(A B), sqrt((A+B)^2 - k (b-a)^2)/2) of each contour's
    first allowed segment [a, b] in s = p/(hbar*Ns), whose complete
    integral of ds/sqrt|P| is pi over it (Byrd and Friedman 1971, 254.00
    and 259.00; DLMF 19.8).  A^2 and B^2 are |lead| times the product of
    the other roots' distances to a and to b, and k is |lead| on a quartic
    row and 0 on a lower degree; the width enters only through k (b-a)^2,
    so a thin orbit loses nothing.  A row without an allowed segment gets
    a meaningless value."""
    rows = np.arange(len(orb.lead))
    seg = np.argmax(orb.kind == _ALLOWED, axis=1)
    ends = np.stack([orb.a[rows, seg], orb.b[rows, seg]]) / (params.hbar * params.Ns)
    # Each end's own root is the nearest one not already taken; a NaN
    # root is a factor of one.
    taken = np.isnan(orb.roots)
    for x in ends:
        taken[rows, np.argmin(np.where(taken, np.inf, np.abs(x[:, None] - orb.roots)), axis=1)] = True
    A, B = (np.sqrt(np.abs(orb.lead * np.prod(np.where(taken, 1.0, x[:, None] - orb.roots), axis=1)))
            for x in ends)
    k = np.where(np.isnan(orb.roots[:, -1]), 0.0, np.abs(orb.lead))
    return _agm(np.sqrt(A * B), 0.5 * np.sqrt((A + B) ** 2 - k * (ends[1] - ends[0]) ** 2))


def _rf(x, y, z):
    """Carlson's symmetric integral R_F(x, y, z) (DLMF 19.16.1) of complex
    arguments off the negative real axis, by 12 duplication steps and the
    fifth-order series (Carlson, Numer. Algorithms 10, 13, 1995), the same
    steps for every element, so array calls equal scalar calls bit for bit."""
    for _ in range(12):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    mean = (x + y + z) / 3.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(mean)


def _half_periods(params: ModelParams, orb: _Contour, pb):
    """dS/dE of the contours' parts on either side of momentum pb, the
    slopes of ``_half_areas``: shape (rows, 2) with the left part first,
    summing to ``_period(..., "total")``.  Every allowed segment wholly on
    one side adds the complete integral pi hbar / ``_cycle_agm``; a segment
    [a, b] that pb splits at c = pb/(hbar*Ns) in s adds hbar times the
    incomplete integral J of ds/sqrt|P| from a to c on the left and the
    rest on the right.  With the roots of P = lead prod(s - r_i), r_1 = a,
    and f_i = |s - r_i| for a real root and s - r_i for a complex one,
    J = 2 sqrt(c-a) R_F(f_2(c) f_3(a) f_4(a), f_3(c) f_2(a) f_4(a),
    f_4(c) f_2(a) f_3(a)) / sqrt|lead| (DLMF 19.29.4 with Y_1 = 0).  NaN on a
    row without an allowed segment, and where a split segment lies on a
    row of lower degree."""
    allowed = orb.kind == _ALLOWED
    with np.errstate(invalid="ignore", divide="ignore"):  # meaningless without an allowed segment
        full = np.pi * params.hbar / _cycle_agm(params, orb)
    split = allowed & (orb.a < pb) & (pb < orb.b)
    left = (allowed & (orb.b <= pb)).sum(axis=1) * full
    right = (allowed & (orb.a >= pb)).sum(axis=1) * full
    rows = np.flatnonzero(split.any(axis=1))
    if rows.size:
        scale = params.hbar * params.Ns
        a, c = orb.a[rows, np.argmax(split[rows], axis=1)][:, None] / scale, pb / scale
        # The root at a comes first, then the other three in any order.
        r = orb.roots[rows]
        r = np.take_along_axis(r, np.argsort(np.abs(r - a), axis=1), axis=1)
        real = np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r))
        r = np.where(real, r.real, r)
        sign = np.where(real & (r.real > a), -1.0, 1.0)
        fa, fc = ((sign * (x - r))[:, 1:] for x in (a, c))
        with np.errstate(invalid="ignore"):
            j = 2.0 * np.sqrt((c - a[:, 0]) / np.abs(orb.lead[rows])) * _rf(
                fc[:, 0] * fa[:, 1] * fa[:, 2], fc[:, 1] * fa[:, 0] * fa[:, 2],
                fc[:, 2] * fa[:, 0] * fa[:, 1]).real
        half = params.hbar * j
        left[rows] += half
        right[rows] += full[rows] - half
    out = np.stack([left, right], axis=1)
    out[~allowed.any(axis=1)] = np.nan
    return out


# ---------------------------------------------------------------------------
# barrier bookkeeping and the tunneling integral


def barrier(params: ModelParams) -> BarrierInfo:
    """The landscape's landmarks, its saddle's energy and momentum among them.

    Requires an actual double-well landscape at these parameters; the
    interaction being supercritical is necessary but, at large bias, not
    sufficient.
    """
    info = _context(params)
    if info.e_barr == np.inf:
        raise GeometryError("no saddle point: single-well landscape")
    return info


def phase_correction(tunnel_action):
    """Connection phase arg Gamma(1/2 + i x) - x log|x| + x at
    x = tunnel_action, elementwise; vanishes at x = 0 and for
    |x| -> infinity."""
    x, shaped = _rows(tunnel_action)
    nz = x != 0.0
    xs = x[nz]
    out = np.zeros(len(x))
    out[nz] = arg_gamma_half_line(xs) - xs * np.log(np.abs(xs)) + xs
    return shaped(out)


def _phase_slope(tunnel_action):
    """d phase_correction / dx = Re psi(1/2 + i x) - log|x| at x =
    tunnel_action, an array; +inf at x = 0, where the phase has a log
    singularity."""
    with np.errstate(divide="ignore"):
        return _re_digamma_half_line(tunnel_action) - np.log(np.abs(tunnel_action))


def tunneling(params: ModelParams, E):
    """Tunneling action and factor (Seps, kappa), floats for a scalar E
    and arrays for an array of energies.

    Seps = Re[(i/2)(z2 - z1) - (i/pi) * integral of q dp from z1 to z2] / hbar,
    q = arccos(cos 2q)/2 on the principal branch, between the inner
    turning points: below the barrier top the ends (z1, z2) = (b, a) of
    the interior forbidden gap, where Seps = (1/(pi*hbar)) * integral of
    |Im q| over the gap > 0; above it the complex-conjugate pair
    (conj pc, pc) nearest the real axis, where Seps < 0.  Within 1e-12
    energy scales of the top Seps takes its limit 0.  kappa =
    exp(-pi * Seps), inf where that exponential would overflow.
    """
    info = barrier(params)
    Er, shaped = _rows(E)
    if np.any(Er <= info.e_min_lower):
        raise GeometryError("no tunneling geometry below the well bottoms")
    s_eps, kappa = _tunneling(params, info, Er, _orbit(params, Er))
    return shaped(s_eps), shaped(kappa)


def _tunneling(params: ModelParams, info: BarrierInfo, Er, orb: _Contour):
    """(Seps, kappa) arrays of ``tunneling`` at the energies Er, from
    their contour record ``orb``; a row without the turning points the
    integral needs raises ``GeometryError``."""
    gap = Er - info.e_barr
    below = gap < -1e-12 * params.energy_scale()
    above = gap > 1e-12 * params.energy_scale()
    rows, pmax = np.arange(len(Er)), params.p_max
    inner = (orb.kind == _FORBIDDEN) & (orb.a > -pmax + 1e-9 * pmax) & (orb.b < pmax - 1e-9 * pmax)
    if not inner[below].any(axis=1).all():
        raise GeometryError("no interior forbidden gap at this energy")
    cplx = orb.roots.imag > 1e-9 * (1.0 + np.abs(orb.roots))
    if not cplx[above].any(axis=1).all():
        raise GeometryError("no complex turning-point pair at this energy")
    first = np.argmax(inner, axis=1)
    # The pair continuing the inner turning points lies near the barrier.
    pick = np.argmin(np.where(cplx, np.abs(orb.roots.imag), np.inf), axis=1)
    pc = orb.roots[rows, pick] * params.Ns * params.hbar
    z1 = np.where(above, pc.conjugate(), np.where(below, orb.b[rows, first], 0.0))
    z2 = np.where(above, pc, np.where(below, orb.a[rows, first], 0.0))
    # A complex pair's path is split where it crosses the real axis: near
    # the top of the spectrum the outer turning points pinch it there,
    # and the endpoint substitution absorbs the resulting half-power
    # feature only at a segment end.  A real pair is one segment, the
    # second one empty.
    mid = np.where(above, z2.real, z2)
    Es = np.concatenate([Er, Er])
    seg = turning_point_rows(lambda r, p: 0.5 * np.arccos(_cos2q(params, Es[r, None], p)),
                             np.concatenate([z1, mid]), np.concatenate([mid, z2]))
    n = len(Er)
    s_eps = np.real(0.5j * (z2 - z1) + (-1j / np.pi) * (seg[:n] + seg[n:])) / params.hbar
    with np.errstate(over="ignore"):
        kappa = np.where(-np.pi * s_eps < 700, np.exp(-np.pi * s_eps), np.inf)
    return s_eps, kappa


def _tunneling_slope(params: ModelParams, orb: _Contour):
    """dSeps/dE of ``_tunneling`` on each contour row: -1/(2 pi) times the
    integral of ds/sqrt|P| between the inner turning points, the quartic's
    imaginary half period, which stays finite at the barrier top.  With
    four real roots r1 < ... < r4 (below the top) it is pi / (sqrt|lead|
    AGM(sqrt((r3-r1)(r4-r2)), sqrt((r2-r1)(r4-r3)))); with two real roots
    a, b and a complex pair z (above it) it is pi / AGM(sqrt(A B),
    sqrt(|lead| (a-b)^2 - (A-B)^2)/2), A = sqrt|lead| |a - z| and B =
    sqrt|lead| |b - z|: ``_cycle_agm``'s modulus swapped for its complement,
    as K' is K of the complementary modulus (DLMF 19.8.5).  NaN on a row
    with neither root pattern."""
    roots = orb.roots
    cplx = np.abs(roots.imag) > 1e-9 * (1.0 + np.abs(roots))
    ncplx = np.where(np.isnan(roots), 4, cplx).sum(axis=1)
    k = np.abs(orb.lead)
    r = np.sort(np.where(cplx, np.inf, roots.real), axis=1)  # the real roots first
    with np.errstate(invalid="ignore"):
        below = np.sqrt(k) * _agm(np.sqrt((r[:, 2] - r[:, 0]) * (r[:, 3] - r[:, 1])),
                                  np.sqrt((r[:, 1] - r[:, 0]) * (r[:, 3] - r[:, 2])))
        z = roots[np.arange(len(k)), np.argmax(cplx, axis=1)]
        A, B = np.sqrt(k) * np.abs(r[:, 0] - z), np.sqrt(k) * np.abs(r[:, 1] - z)
        above = _agm(np.sqrt(A * B), 0.5 * np.sqrt(k * (r[:, 1] - r[:, 0]) ** 2 - (A - B) ** 2))
    return -0.5 / np.select([ncplx == 0, ncplx == 2], [below, above], np.nan)
