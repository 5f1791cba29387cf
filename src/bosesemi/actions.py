"""Classical action machinery: turning points, orbit areas, periods and
the barrier integrals entering the double-well quantization condition.

Everything is built on one primitive: the width in the angle coordinate
of the sublevel set {H(p,q) <= E} at fixed momentum, which is
pi - 2*q(p,E) on classically allowed momenta, pi where E exceeds the
upper momentum potential and zero in forbidden strips.  The action S(E)
is the area of the sublevel set; orbit-type case formulas are just this
integral split at the turning points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .meanfield import fixed_points
from .model import ModelParams
from .quad import turning_point_integral
from .roots import quartic_roots
from .special import arg_gamma_half_line


class GeometryError(ValueError):
    """Raised when an operation is applied to an unsupported orbit shape."""


class SeparatrixError(ValueError):
    """Raised for energies inside the guard band around the barrier top."""


# ---------------------------------------------------------------------------
# angle coordinate


def _cos2q(params: ModelParams, E, p):
    """X = cos(2q) along the energy contour, complex-safe."""
    u = np.asarray(p) / params.hbar
    ns = params.Ns
    root = np.sqrt((ns**2 - u**2).astype(complex)) if np.iscomplexobj(u) else \
        np.sqrt(np.maximum(ns**2 - u**2, 0.0))
    num = E - params.eps * u - 0.5 * params.g * (ns**2 + u**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / (params.v * root)


def orbit_angle(params: ModelParams, E, p):
    """Angle q(p, E) solving H(p, q) = E, with q in [0, pi/2] on allowed
    momenta and the decaying complex continuation (Im q >= 0) on
    forbidden ones."""
    u = np.asarray(p, dtype=complex) / params.hbar
    if np.any(np.abs(u.real) >= params.Ns) and not np.iscomplexobj(np.asarray(p)):
        raise ValueError("momentum on or outside the phase-space rim")
    x = _cos2q(params, E, np.asarray(p, dtype=complex))
    q = 0.5 * np.arccos(x)
    q = np.where(q.imag < 0, np.conj(q), q)
    if q.ndim == 0:
        q = complex(q)
        return q.real if q.imag == 0 else q
    return q


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


@lru_cache(maxsize=128)
def _context(params: ModelParams):
    """Fixed-point derived energy landmarks, cached per parameter set."""
    fps = fixed_points(params)
    minima = [f for f in fps if f.kind == "minimum"]
    maxima = [f for f in fps if f.kind == "maximum"]
    saddles = [f for f in fps if f.kind == "saddle"]
    if not minima or not maxima:
        raise GeometryError("phase space lacks a minimum/maximum pair")
    return {
        "fps": fps,
        "e_min": min(f.energy for f in minima),
        "e_max": max(f.energy for f in maxima),
        "e_upper_min": max(f.energy for f in minima),
        "saddle": saddles[0] if saddles else None,
    }


def classical_range(params: ModelParams):
    ctx = _context(params)
    return ctx["e_min"], ctx["e_max"]


@lru_cache(maxsize=1)
def _orbit(params: ModelParams, E: float):
    """The energy contour at E from one solve of the turning quartic
    [A - eps*s - (G/2) s^2]^2 - v^2 (1 - s^2) in s = p/(hbar*Ns), as
    (lead, roots, turning, segments): the quartic's leading nonzero
    coefficient and roots; the real roots with |s| <= 1 as (p, branch)
    turning points sorted in p, the sign of the unsquared bracket picking
    the branch; and [-p_max, p_max] split at them into (a, b, kind) with
    kind allowed / open (E above the upper potential) / forbidden.
    Callers pass float(E); consecutive calls at one energy share it."""
    ns = params.Ns
    G = params.g * ns
    A = E / ns - 0.5 * G
    eps, v = params.eps, params.v
    coeffs = np.array([0.25 * G * G, eps * G, eps * eps - A * G + v * v,
                       -2.0 * A * eps, A * A - v * v])
    roots = quartic_roots(*coeffs)
    lead = coeffs[np.abs(coeffs) > 1e-14 * np.max(np.abs(coeffs))][0]
    turning = []
    for r in roots:
        if abs(r.imag) > 1e-9 * (1.0 + abs(r)) or abs(r.real) > 1.0 + 1e-10:
            continue
        s = min(1.0, max(-1.0, r.real))
        branch = "U+" if A - eps * s - 0.5 * G * s * s > 0 else "U-"
        turning.append((s * ns * params.hbar, branch))
    turning.sort(key=lambda t: t[0])
    pmax = params.p_max
    pts = [-pmax] + [p for p, _ in turning] + [pmax]
    segs = []
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a <= 1e-13 * pmax:
            continue
        xm = float(np.real(_cos2q(params, E, 0.5 * (a + b))))
        kind = "allowed" if abs(xm) <= 1.0 else ("open" if xm > 1.0 else "forbidden")
        segs.append((a, b, kind))
    return lead, roots, tuple(turning), tuple(segs)


def _speed_bracket(params: ModelParams, E):
    """Factored evaluator of B(p) = v^2 (Ns^2 - u^2) - (E - eps u - g(Ns^2+u^2)/2)^2.

    B is minus the turning-point quartic, so evaluating it as a product
    over the quartic's roots avoids the catastrophic cancellation of the
    closed form near turning points (|dH/dq| = 2 sqrt(B) there), which
    matters for large particle numbers.
    """
    lead, roots, _, _ = _orbit(params, float(E))
    ns2 = params.Ns ** 2

    def bracket(p):
        s = np.asarray(p) / (params.hbar * params.Ns)
        q = np.full_like(s, lead, dtype=complex)
        for r in roots:
            q = q * (s - r)
        return -ns2 * q.real

    return bracket


def turning_points(params: ModelParams, E) -> OrbitGeometry:
    """Turning points with branch labels plus orbit classification."""
    ctx = _context(params)
    if E < ctx["e_min"] - 1e-12 * params.energy_scale() or \
       E > ctx["e_max"] + 1e-12 * params.energy_scale():
        return OrbitGeometry(E, (), None, "single",
                             diagnostic="energy outside the classical range")
    _, _, turning, _ = _orbit(params, float(E))
    tps = tuple(TurningPoint(p, b) for p, b in turning)
    saddle = ctx["saddle"]
    if saddle is None:
        region = "single"
    elif E <= ctx["e_upper_min"]:
        region = "I"
    elif E < saddle.energy:
        region = "II"
    else:
        region = "III"
    interior = [t for t in tps if abs(abs(t.p) - params.p_max) > 1e-9 * params.p_max]
    if region == "II" and len(interior) >= 4:
        klass = "double_well_pair"
    else:
        branches = {t.branch for t in interior} if interior else {t.branch for t in tps}
        if branches == {"U-"}:
            klass = "min_encircling"
        elif branches == {"U+"}:
            klass = "max_encircling"
        else:
            klass = "rotor"
    return OrbitGeometry(E, tps, klass, region)


def _components(segs):
    """Maximal runs of non-forbidden segments (the connected pieces of the
    sublevel set's momentum projection)."""
    comps, cur = [], []
    for seg in segs:
        if seg[2] == "forbidden":
            if cur:
                comps.append(cur)
                cur = []
        else:
            cur.append(seg)
    if cur:
        comps.append(cur)
    return comps


def _area_of(params, E, segs):
    """Area of the sublevel set over the given segments."""
    area = 0.0
    for a, b, kind in segs:
        if kind == "open":
            area += np.pi * (b - a)
        elif kind == "allowed":
            area += turning_point_integral(
                lambda p: np.pi - 2.0 * _angle_allowed(params, E, p), a, b
            )
    return area


# ---------------------------------------------------------------------------
# the action S(E) and the period


def action(params: ModelParams, E, lobe="auto") -> float:
    """Phase-space area enclosed below the energy contour.

    ``lobe="total"`` is the whole sublevel area, which grows from 0 at
    the bottom of the spectrum to 2*pi*Ns*hbar at the top; ``"auto"`` is
    the same but raises ``GeometryError`` where the contour has two
    components.  ``"left"`` and ``"right"`` pick one of exactly two
    components and raise ``GeometryError`` otherwise: below the upper
    well minimum the contour has one component, and the quantizer uses
    the total area there.
    """
    ctx = _context(params)
    scale = params.energy_scale()
    if E <= ctx["e_min"] + 1e-14 * scale:
        return 0.0
    if E >= ctx["e_max"] - 1e-14 * scale:
        return 2.0 * np.pi * params.Ns * params.hbar if lobe in ("auto", "total") else 0.0
    *_, segs = _orbit(params, float(E))
    comps = _components(segs)
    if lobe in ("auto", "total"):
        if len(comps) > 1 and lobe == "auto":
            raise GeometryError(
                "two disconnected orbits at this energy; pick lobe='left' or 'right'"
            )
        saddle = ctx["saddle"]
        if saddle is None or E < saddle.energy:
            return _area_of(params, E, [s for c in comps for s in c])
        # Above the barrier the saddle's log singularity lies inside the
        # contour; split there so that it sits at a segment end.
        return sum(_area_of(params, E, half) for half in _split_at(segs, saddle.p))
    return _area_of(params, E, _pick_component(comps, lobe))


def period_direct(params: ModelParams, E, lobe="auto") -> float:
    """Orbit period from the time integral T = hbar * \\int du / sqrt(B)
    with B = v^2 (Ns^2 - u^2) - (E - eps u - g(Ns^2 + u^2)/2)^2 over the
    orbit's allowed momentum range.  ``lobe="total"`` sums every
    component, so it is dS/dE of ``action(lobe="total")``; ``"auto"``
    needs a contour of one component, ``"left"`` and ``"right"`` one of
    exactly two; any other contour raises ``GeometryError``."""
    saddle = _context(params)["saddle"]
    if saddle is not None and abs(E - saddle.energy) < 1e-9 * params.energy_scale():
        raise SeparatrixError("period diverges on the separatrix")
    *_, segs = _orbit(params, float(E))
    comps = _components(segs)
    comp = [s for c in comps for s in c] if lobe == "total" else _pick_component(comps, lobe)
    allowed = [s for s in comp if s[2] == "allowed"]
    if not allowed:
        raise GeometryError("no classically allowed momenta at this energy")
    bracket = _speed_bracket(params, E)

    def inv_speed(p):
        return 1.0 / np.sqrt(np.maximum(bracket(p), 1e-300))

    return float(sum(
        turning_point_integral(inv_speed, a, b, rtol=1e-11)
        for a, b, _ in allowed
    ))


def _pick_component(comps, lobe):
    """The lone component for "auto"; one of exactly two for
    "left"/"right"."""
    if lobe == "auto":
        if len(comps) != 1:
            raise GeometryError("two orbits at this energy; pick lobe='left' or 'right'")
        return comps[0]
    if lobe not in ("left", "right"):
        raise ValueError(f"lobe must be auto/total/left/right, got {lobe!r}")
    if len(comps) != 2:
        raise GeometryError(f"expected two orbit components, found {len(comps)}")
    return comps[0] if lobe == "left" else comps[1]


# ---------------------------------------------------------------------------
# barrier bookkeeping and tunneling integrals


@dataclass(frozen=True)
class BarrierInfo:
    e_barr: float
    p_barr: float
    e_min_lower: float
    e_min_upper: float


def barrier(params: ModelParams) -> BarrierInfo:
    """Saddle energy/momentum and the two well depths.

    Requires an actual double-well landscape at these parameters; the
    interaction being supercritical is necessary but, at large bias, not
    sufficient.
    """
    ctx = _context(params)
    saddle = ctx["saddle"]
    if saddle is None:
        raise GeometryError("no saddle point: single-well landscape")
    return BarrierInfo(
        e_barr=saddle.energy,
        p_barr=saddle.p,
        e_min_lower=ctx["e_min"],
        e_min_upper=ctx["e_upper_min"],
    )


def tunneling_below(params: ModelParams, E):
    """Barrier-penetration integral and tunneling factor below the top.

    tunnel_action = (1/(pi*hbar)) * integral of |Im q| over the forbidden
    gap between the inner turning points; tunnel_factor = exp(-pi * that).
    """
    info = barrier(params)
    if E >= info.e_barr:
        raise GeometryError("energy above the barrier; use tunneling_above")
    if E <= info.e_min_lower:
        raise GeometryError("no tunneling geometry below the well bottoms")
    *_, segs = _orbit(params, float(E))
    gaps = [
        (a, b) for a, b, kind in segs
        if kind == "forbidden" and a > -params.p_max + 1e-9 * params.p_max
        and b < params.p_max - 1e-9 * params.p_max
    ]
    if not gaps:
        raise GeometryError("no interior forbidden gap at this energy")
    a, b = gaps[0]
    integral = turning_point_integral(lambda p: _imag_angle(params, E, p), a, b)
    s_eps = integral / (np.pi * params.hbar)
    return s_eps, float(np.exp(-np.pi * s_eps))


def phase_correction(tunnel_action) -> float:
    """Connection phase arg Gamma(1/2 + i x) - x log|x| + x at
    x = tunnel_action; vanishes at x = 0 and for |x| -> infinity."""
    x = float(tunnel_action)
    if x == 0.0:
        return 0.0
    return arg_gamma_half_line(x) - x * np.log(abs(x)) + x


def _complex_turning_pair(params: ModelParams, E):
    """The complex-conjugate inner turning points above the barrier."""
    _, roots, _, _ = _orbit(params, float(E))
    cplx = [r for r in roots if r.imag > 1e-9 * (1.0 + abs(r))]
    if not cplx:
        raise GeometryError("no complex turning-point pair at this energy")
    # The pair continuing the inner turning points lies near the barrier.
    pc = min(cplx, key=lambda r: abs(r.imag)) * params.Ns * params.hbar
    return complex(pc)


def tunneling_above(params: ModelParams, E):
    """Continuation of the tunneling integral above the barrier.

    Returns (tunnel_action, tunnel_factor) as ``tunneling_below`` does.
    The action is real and <= 0, vanishing at the barrier top, so the
    factor exp(-pi * tunnel_action) is at least one; it is inf where
    that exponential would overflow.
    """
    info = barrier(params)
    if E <= info.e_barr:
        raise GeometryError("energy below the barrier; use tunneling_below")
    pc = _complex_turning_pair(params, E)
    pcc = pc.conjugate()
    qfun = lambda p: 0.5 * np.arccos(_cos2q(params, E, p))
    # Split the contour between the conjugate pair where it crosses the
    # real axis: near the top of the spectrum the outer turning points
    # pinch it there, and the endpoint substitution absorbs the resulting
    # half-power feature only at a segment end.
    mid = complex(pc.real, 0.0)
    seg = turning_point_integral(qfun, pcc, mid) + turning_point_integral(qfun, mid, pc)
    s_eps = float(np.real(((0.5j * (pc - pcc)) + (-1j / np.pi) * seg) / params.hbar))
    kappa = float(np.exp(-np.pi * s_eps)) if np.pi * abs(s_eps) < 700 else np.inf
    return s_eps, kappa


# ---------------------------------------------------------------------------
# dimensionless lobe phases for the quantization condition


def _split_at(segs, pb):
    """The non-forbidden segments left and right of momentum pb."""
    lsegs, rsegs = [], []
    for a, b, kind in segs:
        if kind == "forbidden":
            continue
        if b <= pb:
            lsegs.append((a, b, kind))
        elif a >= pb:
            rsegs.append((a, b, kind))
        else:
            lsegs.append((a, pb, kind))
            rsegs.append((pb, b, kind))
    return lsegs, rsegs


def lobe_phases(params: ModelParams, E):
    """Half-action phases (area / 2 hbar) of the left and right regions.

    Below the barrier these are the areas of the two disconnected orbit
    components; above it the single component is split at the barrier
    momentum.  Either way their sum is the total sublevel area / 2 hbar.
    """
    info = barrier(params)
    *_, segs = _orbit(params, float(E))
    if E < info.e_barr:
        comps = _components(segs)
        if len(comps) != 2:
            raise GeometryError(
                f"expected two orbit components below the barrier, found {len(comps)}"
            )
    else:
        comps = _split_at(segs, info.p_barr)
    h2 = 2.0 * params.hbar
    return _area_of(params, E, comps[0]) / h2, _area_of(params, E, comps[1]) / h2
