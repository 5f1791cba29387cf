"""Classical action machinery: turning points, orbit areas, periods and
the barrier integrals entering the double-well quantization condition.

Everything is built on one primitive: the width in the angle coordinate
of the sublevel set {H(p,q) <= E} at fixed momentum, which is
pi - 2*q(p,E) on classically allowed momenta, pi where E exceeds the
upper momentum potential and zero in forbidden strips.  The action S(E)
is the area of the sublevel set; orbit-type case formulas are just this
integral split at the turning points.

The energy-dependent functions take a scalar energy or a 1-D array of
energies.  An array is one batch: its turning quartics are solved
together (``_orbit``), the segment bookkeeping runs per energy, and all
its segments go into one row-wise quadrature; a scalar is a one-row
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .meanfield import fixed_points
from .model import ModelParams
from .quad import turning_point_rows
from .roots import quartic_rows
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


def _rows(E):
    """E as a 1-D float array, and the function that lays per-row results
    out like E: a float for a scalar E."""
    E = np.asarray(E, dtype=float)
    if E.ndim == 0:
        return E.reshape(1), lambda x: float(x[0])
    return E, lambda x: x


_memo = {"params": None, "rows": {}}


def _orbit(params: ModelParams, E):
    """The energy contours at the energies E from one stacked solve of the
    turning quartics [A - eps*s - (G/2) s^2]^2 - v^2 (1 - s^2) in
    s = p/(hbar*Ns), one (lead, roots, turning, segments) row per energy:
    the quartic's leading nonzero coefficient and roots; the real roots
    with |s| <= 1 as (p, branch) turning points sorted in p, the sign of
    the unsquared bracket picking the branch; and [-p_max, p_max] split
    at them into (a, b, kind) with kind allowed / open (E above the upper
    potential) / forbidden.  The rows of the last call that had to solve
    are kept, so every consumer of one batch reads one solve."""
    E = np.asarray(E, dtype=float).reshape(-1).tolist()
    rows = _memo["rows"] if _memo["params"] == params else {}
    miss = [e for e in dict.fromkeys(E) if e not in rows]
    if miss:
        rows = {e: rows[e] for e in E if e in rows}
        rows.update(zip(miss, _solve_orbits(params, np.array(miss))))
        _memo["params"], _memo["rows"] = params, rows
    return [rows[e] for e in E]


_orbit.cache_clear = lambda: _memo.update(params=None, rows={})


def _solve_orbits(params: ModelParams, E):
    ns, hbar, pmax = params.Ns, params.hbar, params.p_max
    G = params.g * ns
    A = E / ns - 0.5 * G
    eps, v = params.eps, params.v
    coeffs = np.empty((len(E), 5))
    coeffs[:, 0], coeffs[:, 1] = 0.25 * G * G, eps * G
    coeffs[:, 2] = eps * eps - A * G + v * v
    coeffs[:, 3], coeffs[:, 4] = -2.0 * A * eps, A * A - v * v
    mag = np.abs(coeffs)
    big = mag > 1e-14 * np.max(mag, axis=1, keepdims=True)
    lead = coeffs[np.arange(len(E)), np.argmax(big, axis=1)]
    cuts, owner, mids = [], [], []
    for i, (a_, roots) in enumerate(zip(A.tolist(), quartic_rows(coeffs))):
        turning = []
        for r in roots.tolist():
            if abs(r.imag) > 1e-9 * (1.0 + abs(r)) or abs(r.real) > 1.0 + 1e-10:
                continue
            s = min(1.0, max(-1.0, r.real))
            branch = "U+" if a_ - eps * s - 0.5 * G * s * s > 0 else "U-"
            turning.append((s * ns * hbar, branch))
        turning.sort(key=lambda t: t[0])
        pts = [-pmax] + [p for p, _ in turning] + [pmax]
        segs = [(a, b) for a, b in zip(pts[:-1], pts[1:]) if b - a > 1e-13 * pmax]
        cuts.append((roots, tuple(turning), segs))
        owner += [i] * len(segs)
        mids += [0.5 * (a + b) for a, b in segs]
    # Each segment's kind from X = cos 2q at its midpoint, all at once.
    xm = np.real(_cos2q(params, E[owner], np.array(mids))).tolist()
    kinds = iter("allowed" if abs(x) <= 1.0 else ("open" if x > 1.0 else "forbidden")
                 for x in xm)
    return [(l, roots, turning, tuple((a, b, next(kinds)) for a, b in segs))
            for l, (roots, turning, segs) in zip(lead.tolist(), cuts)]


def _speed_bracket(params: ModelParams, E):
    """Factored evaluator of B(p) = v^2 (Ns^2 - u^2) - (E - eps u - g(Ns^2+u^2)/2)^2.

    B is minus the turning-point quartic, so evaluating it as a product
    over the quartic's roots avoids the catastrophic cancellation of the
    closed form near turning points (|dH/dq| = 2 sqrt(B) there), which
    matters for large particle numbers.
    """
    lead, roots, _, _ = _orbit(params, E)[0]
    ns2 = params.Ns ** 2

    def bracket(p):
        s = np.asarray(p) / (params.hbar * params.Ns)
        q = np.full_like(s, lead, dtype=complex)
        for r in roots:
            q = q * (s - r)
        return -ns2 * q.real

    return bracket


def turning_points(params: ModelParams, E):
    """Turning points with branch labels plus orbit classification; a
    tuple of ``OrbitGeometry``, one per energy, for an array E."""
    ctx = _context(params)
    Er, _ = _rows(E)
    tol = 1e-12 * params.energy_scale()
    inside = (Er >= ctx["e_min"] - tol) & (Er <= ctx["e_max"] + tol)
    orbits = iter(_orbit(params, Er[inside]))
    out = tuple(_classify(params, ctx, e, next(orbits)[2]) if ok else
                OrbitGeometry(e, (), None, "single",
                              diagnostic="energy outside the classical range")
                for e, ok in zip(Er.tolist(), inside.tolist()))
    return out[0] if np.ndim(E) == 0 else out


def _classify(params, ctx, E, turning):
    """One in-range energy's geometry from its (p, branch) turning points."""
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


def _area_of(params, E, rows):
    """Area of the sublevel set over each row's segments, row i at energy
    E[i]; every allowed segment of every row goes into one quadrature."""
    seg = np.array([(i, a, b, kind == "open") for i, segs in enumerate(rows)
                    for a, b, kind in segs if kind != "forbidden"]).reshape(-1, 4)
    owner, allowed = seg[:, 0].astype(int), seg[:, 3] == 0.0
    part = np.pi * (seg[:, 2] - seg[:, 1])
    if allowed.any():
        Es = E[owner[allowed]]
        part[allowed] = turning_point_rows(
            lambda r, p: np.pi - 2.0 * _angle_allowed(params, Es[r, None], p),
            seg[allowed, 1], seg[allowed, 2])
    return np.bincount(owner, part, minlength=len(rows))


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
    ctx = _context(params)
    scale = params.energy_scale()
    Er, shaped = _rows(E)
    out = np.zeros(len(Er))
    top = Er >= ctx["e_max"] - 1e-14 * scale
    if lobe in ("auto", "total"):
        out[top] = 2.0 * np.pi * params.Ns * params.hbar
    mid = np.flatnonzero((Er > ctx["e_min"] + 1e-14 * scale) & ~top)
    saddle = ctx["saddle"]
    rows = []
    for e, (*_, segs) in zip(Er[mid].tolist(), _orbit(params, Er[mid])):
        comps = _components(segs)
        if lobe not in ("auto", "total"):
            rows.append(_pick_component(comps, lobe))
        elif len(comps) > 1 and lobe == "auto":
            raise GeometryError(
                "two disconnected orbits at this energy; pick lobe='left' or 'right'"
            )
        elif saddle is None or e < saddle.energy:
            rows.append([s for c in comps for s in c])
        else:
            # Above the barrier the saddle's log singularity lies inside the
            # contour; split there so that it sits at a segment end.
            rows.append([s for half in _split_at(segs, saddle.p) for s in half])
    out[mid] = _area_of(params, Er[mid], rows)
    return shaped(out)


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
    *_, segs = _orbit(params, E)[0]
    comps = _components(segs)
    comp = [s for c in comps for s in c] if lobe == "total" else _pick_component(comps, lobe)
    allowed = np.array([(a, b) for a, b, kind in comp if kind == "allowed"]).reshape(-1, 2)
    if not allowed.size:
        raise GeometryError("no classically allowed momenta at this energy")
    bracket = _speed_bracket(params, E)
    return float(np.sum(turning_point_rows(
        lambda r, p: 1.0 / np.sqrt(np.maximum(bracket(p), 1e-300)),
        allowed[:, 0], allowed[:, 1], rtol=1e-11)))


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
    """Barrier-penetration integral and tunneling factor below the top,
    floats for a scalar E and arrays for an array of energies.

    tunnel_action = (1/(pi*hbar)) * integral of |Im q| over the forbidden
    gap between the inner turning points; tunnel_factor = exp(-pi * that).
    """
    info = barrier(params)
    Er, shaped = _rows(E)
    if np.any(Er >= info.e_barr):
        raise GeometryError("energy above the barrier; use tunneling_above")
    if np.any(Er <= info.e_min_lower):
        raise GeometryError("no tunneling geometry below the well bottoms")
    gaps = []
    for *_, segs in _orbit(params, Er):
        gap = [(a, b) for a, b, kind in segs
               if kind == "forbidden" and a > -params.p_max + 1e-9 * params.p_max
               and b < params.p_max - 1e-9 * params.p_max]
        if not gap:
            raise GeometryError("no interior forbidden gap at this energy")
        gaps.append(gap[0])
    a, b = np.array(gaps).reshape(-1, 2).T
    integral = turning_point_rows(lambda r, p: _imag_angle(params, Er[r, None], p), a, b)
    s_eps = integral / (np.pi * params.hbar)
    return shaped(s_eps), shaped(np.exp(-np.pi * s_eps))


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


def _complex_turning_pair(params: ModelParams, E):
    """The complex-conjugate inner turning points above the barrier, one
    per energy of the 1-D array E."""
    out = []
    for _, roots, _, _ in _orbit(params, E):
        cplx = roots[roots.imag > 1e-9 * (1.0 + np.abs(roots))]
        if not cplx.size:
            raise GeometryError("no complex turning-point pair at this energy")
        # The pair continuing the inner turning points lies near the barrier.
        out.append(cplx[np.argmin(np.abs(cplx.imag))])
    return np.array(out, dtype=complex) * params.Ns * params.hbar


def tunneling_above(params: ModelParams, E):
    """Continuation of the tunneling integral above the barrier.

    Returns (tunnel_action, tunnel_factor) as ``tunneling_below`` does.
    The action is real and <= 0, vanishing at the barrier top, so the
    factor exp(-pi * tunnel_action) is at least one; it is inf where
    that exponential would overflow.
    """
    info = barrier(params)
    Er, shaped = _rows(E)
    if np.any(Er <= info.e_barr):
        raise GeometryError("energy below the barrier; use tunneling_below")
    pc = _complex_turning_pair(params, Er)
    pcc = pc.conjugate()
    # Split the contour between the conjugate pair where it crosses the
    # real axis: near the top of the spectrum the outer turning points
    # pinch it there, and the endpoint substitution absorbs the resulting
    # half-power feature only at a segment end.
    mid = pc.real + 0j
    n = len(Er)
    Es = np.concatenate([Er, Er])
    seg = turning_point_rows(lambda r, p: 0.5 * np.arccos(_cos2q(params, Es[r, None], p)),
                             np.concatenate([pcc, mid]), np.concatenate([mid, pc]))
    s_eps = np.real(((0.5j * (pc - pcc)) + (-1j / np.pi) * (seg[:n] + seg[n:])) / params.hbar)
    with np.errstate(over="ignore"):
        kappa = np.where(np.pi * np.abs(s_eps) < 700, np.exp(-np.pi * s_eps), np.inf)
    return shaped(s_eps), shaped(kappa)


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
    """Half-action phases (area / 2 hbar) of the left and right regions,
    floats for a scalar E and arrays for an array of energies.

    Below the barrier these are the areas of the two disconnected orbit
    components; above it the single component is split at the barrier
    momentum.  Either way their sum is the total sublevel area / 2 hbar.
    """
    info = barrier(params)
    Er, shaped = _rows(E)
    halves = []
    for e, (*_, segs) in zip(Er.tolist(), _orbit(params, Er)):
        if e < info.e_barr:
            comps = _components(segs)
            if len(comps) != 2:
                raise GeometryError(
                    f"expected two orbit components below the barrier, found {len(comps)}"
                )
        else:
            comps = _split_at(segs, info.p_barr)
        halves += comps
    area = _area_of(params, np.repeat(Er, 2), halves) / (2.0 * params.hbar)
    return shaped(area[0::2]), shaped(area[1::2])
