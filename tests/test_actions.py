import sys
import threading

import numpy as np
import pytest

from bosesemi import actions as act
from bosesemi import meanfield as mf
from bosesemi.model import ModelParams
from oracles import gap_period_mp, hessian, left_period_mp, period_fd, period_mp

SUPER21 = ModelParams(N=20, eps=0.0, v=1.0, g=-1.0 / 7.0)
LINEAR = ModelParams(N=10, eps=0.7, v=1.0, g=0.0)
# The turning quartic's leading coefficient is negligible here (a cubic
# row) or zero (a quadratic row).
CUBIC = ModelParams(N=20, eps=0.5, v=1.0, g=-2.1e-8 / 21)
QUADRATIC = ModelParams(N=20, eps=0.5, v=1.0, g=0.0)

BENCH_SETS = [
    ModelParams(N=10, eps=0.4, v=1.0, g=-0.5 / 11.0),
    ModelParams(N=10, eps=0.4, v=1.0, g=-3.0 / 11.0),
    ModelParams(N=14, eps=0.6, v=1.0, g=-0.6 / 15.0),
    ModelParams(N=14, eps=0.0, v=1.0, g=-0.9 / 15.0),
    SUPER21,
]


def area_oracle(params, E, n=3000):
    """Brute-force area of the sublevel set on a phase-space grid."""
    q = np.linspace(0, np.pi, n, endpoint=False) + np.pi / (2 * n)
    p = np.linspace(-params.p_max, params.p_max, n, endpoint=False) + params.p_max / n
    qq, pp = np.meshgrid(q, p)
    h = mf.hamiltonian(params, qq, pp)
    return np.sum(h <= E) * (np.pi / n) * (2 * params.p_max / n)


def width_oracle(params, E, n=300000):
    """Independent action route: trapezoid over the angular width."""
    p = np.linspace(-params.p_max, params.p_max, n)
    um, up = mf.momentum_potentials(params, p)
    with np.errstate(invalid="ignore", divide="ignore"):
        x = np.where(np.abs(p) < params.p_max,
                     (E - 0.5 * (um + up)) / (0.5 * (up - um)), np.nan)
    x = np.clip(np.nan_to_num(x, nan=-1.0), -1.0, 1.0)
    width = np.pi - np.arccos(x)
    return np.trapezoid(width, p)


# ---------------------------------------------------------------------------
# angle coordinate


def test_orbit_angle_at_turning_points():
    E = -60.0
    for tp in act.turning_points(SUPER21, E).turning_points:
        q = act._angle_allowed(SUPER21, E, tp.p)
        expected = 0.5 * np.pi if tp.branch == "U-" else 0.0
        assert q == pytest.approx(expected, abs=2e-6)
        assert act._imag_angle(SUPER21, E, tp.p) < 2e-6


def test_orbit_angle_forbidden_is_arccosh():
    E = -60.0
    p = 0.0  # middle of the barrier gap
    x = (E - 0.5 * SUPER21.g * SUPER21.Ns**2) / (SUPER21.v * SUPER21.Ns)
    # independent arccosh via the log identity
    ref = np.log(-x + np.sqrt(x * x - 1.0))
    assert act._imag_angle(SUPER21, E, p) == pytest.approx(0.5 * ref, rel=1e-12)
    assert act._angle_allowed(SUPER21, E, p) == pytest.approx(0.5 * np.pi, rel=1e-12)


# ---------------------------------------------------------------------------
# turning points


def test_turning_points_rim_case():
    p = ModelParams(N=10, eps=0.0, v=1.0, g=0.0)
    geo = act.turning_points(p, 0.0)
    ps = sorted(t.p for t in geo.turning_points)
    assert ps == pytest.approx([-11.0, 11.0], abs=1e-6)


def test_turning_points_double_well():
    geo = act.turning_points(SUPER21, -60.0)
    assert geo.orbit_class == "double_well_pair"
    assert geo.region == "II"
    assert len(geo.turning_points) == 4
    um, up = {}, {}
    for tp in geo.turning_points:
        u_m, u_p = mf.momentum_potentials(SUPER21, tp.p)
        resid = abs((u_m if tp.branch == "U-" else u_p) - (-60.0))
        assert resid < 1e-9 * SUPER21.energy_scale()
    ps = [t.p for t in geo.turning_points]
    assert ps == sorted(ps)
    assert ps[0] == pytest.approx(-ps[3]) and ps[1] == pytest.approx(-ps[2])


def test_turning_points_above_barrier():
    geo = act.turning_points(SUPER21, -45.0)
    assert geo.region == "III"
    assert geo.orbit_class == "max_encircling"
    assert len(geo.turning_points) == 2
    assert {t.branch for t in geo.turning_points} == {"U+"}


def test_turning_points_region_I_and_rotor():
    p = ModelParams(N=20, eps=1.0, v=1.0, g=-1.0 / 7.0)
    info = act.barrier(p)
    e = info.e_min_lower + 0.2 * (info.e_min_upper - info.e_min_lower)
    geo = act.turning_points(p, e)
    assert geo.region == "I"
    assert geo.orbit_class in ("min_encircling", "rotor")
    # Rotor orbits appear above the barrier at large bias.
    e2 = info.e_barr + 2.0
    geo2 = act.turning_points(p, e2)
    assert geo2.region == "III"
    assert geo2.orbit_class == "rotor"
    assert {t.branch for t in geo2.turning_points} == {"U-", "U+"}


@pytest.mark.parametrize("N,g_ns,eps", [(20, -3.0, 0.5), (20, -12.0, 2.5), (80, -6.0, 2.0),
                                        (80, -12.0, -1.5)])
def test_turning_points_ignore_roundoff_at_the_upper_minimum(N, g_ns, eps):
    # Within a few ulp of the upper well minimum roundoff leaves the upper
    # lobe a complex pair, a double root, an allowed sliver or a real pair
    # around a forbidden midpoint.  None of them is a turning point: the
    # labels and turning points are those of the lower orbit alone.
    p = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    info = act.barrier(p)
    below = act.turning_points(p, info.e_min_upper - 1e-9 * p.energy_scale())
    assert below.region == "I" and len(below.turning_points) == 2
    for geo in act.turning_points(p, info.e_min_upper + 1e-13 * np.arange(-3, 4)):
        assert (geo.region, geo.orbit_class) == (below.region, below.orbit_class)
        assert [t.branch for t in geo.turning_points] == [t.branch for t in below.turning_points]


@pytest.mark.parametrize("N,g_ns,eps", [(80, -12.0, 2.0), (20, -3.0, 0.5), (20, -0.5, 0.6),
                                        (80, -6.0, 2.5)])
def test_turning_points_none_at_the_ends_of_the_range(N, g_ns, eps):
    # At the bottom and the top of the classical range the orbit is a
    # point, a double root that roundoff leaves complex, split around an
    # empty sliver or split around a forbidden midpoint.  Every form reads
    # as no turning point and no orbit class; before, the split ones read
    # as two turning points, and the others as a rotor.
    p = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    for geo in act.turning_points(p, np.array(act.classical_range(p))):
        assert geo.turning_points == ()
        assert geo.orbit_class is None
        assert geo.diagnostic is None


def test_turning_points_out_of_range():
    geo = act.turning_points(SUPER21, 100.0)
    assert geo.turning_points == ()
    assert geo.diagnostic is not None


# ---------------------------------------------------------------------------
# action


def test_action_endpoints():
    full = 2.0 * np.pi * SUPER21.Ns * SUPER21.hbar
    e_min, e_max = act.classical_range(SUPER21)
    assert act.action(SUPER21, e_min + 1e-9, lobe="left") < 1e-8 * full
    assert act.action(SUPER21, e_max - 1e-9, lobe="total") == pytest.approx(full, rel=1e-7)


def test_action_linear_case():
    full = 2.0 * np.pi * LINEAR.Ns
    w = np.sqrt(LINEAR.eps**2 + LINEAR.v**2)
    for E in np.linspace(-0.95, 0.95, 7) * w * LINEAR.Ns:
        s = act.action(LINEAR, E, lobe="total")
        expected = np.pi * (E / w + LINEAR.Ns)
        assert abs(s - expected) < 1e-8 * full
    assert act.action(LINEAR, 0.0, lobe="total") == pytest.approx(np.pi * LINEAR.Ns, rel=1e-10)
    # Zero interaction, zero bias: same linearity.
    p0 = ModelParams(N=10, eps=0.0, v=1.0, g=0.0)
    assert act.action(p0, 0.0, lobe="total") == pytest.approx(np.pi * 11.0, rel=1e-10)


def test_action_against_area_oracle():
    for params, E in [(SUPER21, -45.0), (SUPER21, -20.0), (LINEAR, 3.0),
                      (ModelParams(N=10, eps=0.4, v=1.0, g=-3.0 / 11.0), -20.0)]:
        s = act.action(params, E, lobe="total")
        assert s == pytest.approx(area_oracle(params, E), rel=3e-3)


def test_action_against_width_oracle():
    # The trapezoid oracle carries ~5e-4 endpoint bias of its own.
    for params, E in [(SUPER21, -45.0), (SUPER21, -12.0), (LINEAR, -4.0)]:
        s = act.action(params, E, lobe="total")
        assert s == pytest.approx(width_oracle(params, E), abs=2e-3)


def test_action_lobe_bookkeeping():
    # Disconnected orbits: lobe areas add up to the total sublevel area.
    for E in (-64.0, -60.0, -55.0):
        left = act.action(SUPER21, E, "left")
        right = act.action(SUPER21, E, "right")
        assert left == pytest.approx(right, rel=1e-10)  # symmetric wells
        assert left + right == pytest.approx(act.action(SUPER21, E, "total"), rel=1e-9)
        assert left + right == pytest.approx(width_oracle(SUPER21, E), abs=2e-3)
    with pytest.raises(act.GeometryError):
        act.action(SUPER21, -60.0, lobe="auto")


def test_lobe_area_needs_two_components():
    # Below the upper well minimum the contour has one component; a lobe
    # area or period is undefined there, and the total area is the action.
    p = ModelParams(N=20, eps=0.5, v=1.0, g=-3.0 / 21.0)
    info = act.barrier(p)
    E = 0.5 * (info.e_min_lower + info.e_min_upper)
    assert act.action(p, E, lobe="total") > 0.0
    assert act.period_direct(p, E, lobe="auto") > 0.0
    for lobe in ("left", "right"):
        with pytest.raises(act.GeometryError):
            act.action(p, E, lobe=lobe)
        with pytest.raises(act.GeometryError):
            act.period_direct(p, E, lobe=lobe)


def test_empty_upper_lobe_is_never_integrated():
    # At the upper well minimum the upper lobe is empty, but roundoff
    # splits its double root into an allowed sliver 7e-5 wide (above the
    # record's 1e-7 p_max sliver rule).  That sliver's half of the split
    # holds nothing, so the total area and period there continue those one
    # ulp below: the area to 1.2e-15, the period to 3.2e-8, the precision
    # of the roots next to a double root.  Integrating the sliver raised
    # QuadratureError, and counting it doubled the period.
    p = ModelParams(N=441, eps=-1.8302284486756182, v=1.0, g=-3.9478642751681967 / 442)
    E = act.barrier(p).e_min_upper
    assert E == -1048.9055845563616
    below = np.nextafter(E, -np.inf)
    assert act.action(p, E, "total") == pytest.approx(act.action(p, below, "total"), rel=1e-12, abs=0)
    assert act.period_direct(p, E, "total") == pytest.approx(
        act.period_direct(p, below, "total"), rel=1e-7, abs=0)


def test_action_monotone_on_benchmark_sets():
    for params in BENCH_SETS:
        e_min, e_max = act.classical_range(params)
        es = np.linspace(e_min + 1e-6, e_max - 1e-6, 200)
        s = [act.action(params, e, lobe="total") for e in es]
        assert np.all(np.diff(s) > 0)


def test_lobe_phases_sum_to_total():
    # The quantizer's cut at the barrier momentum, below and above the
    # barrier; below it the two halves are the lobes ``action`` picks.
    info = act.barrier(SUPER21)
    es = np.array([-60.0, -45.0, -30.0, info.e_barr + 1e-6 * SUPER21.energy_scale()])
    orb = act._orbit(SUPER21, es)
    halves = act._half_areas(SUPER21, es, act._halves(SUPER21, es, orb))
    assert np.array_equal(halves[:, 2], act.action(SUPER21, es, "total"))
    assert halves[:, :2].sum(axis=1) == pytest.approx(halves[:, 2], rel=1e-15)
    assert halves[:, 0] == pytest.approx(halves[:, 1], rel=1e-9)  # symmetric wells
    left, right = (act.action(SUPER21, -60.0, lobe) for lobe in ("left", "right"))
    assert left + right == pytest.approx(act.action(SUPER21, -60.0, "total"), rel=1e-9)
    assert left == pytest.approx(right, rel=1e-9)


# ---------------------------------------------------------------------------
# the contour record


def test_batch_contour_equals_one_row_contours():
    # A row of the record depends only on its own energy, so results do
    # not depend on how a batch is made up.
    for params in (SUPER21, BENCH_SETS[1], LINEAR, ModelParams(N=20, eps=0.5, v=1.0, g=-3.0 / 21.0)):
        e_min, e_max = act.classical_range(params)
        es = np.linspace(e_min, e_max, 41)
        batch = act._orbit(params, es)
        for i, e in enumerate(es):
            one = act._orbit(params, e)
            for x, y in zip(batch, one):
                assert np.array_equal(x[i], y[0], equal_nan=True)


def _component_areas(params, E):
    """Oracle: the areas of the first and second connected components of
    each contour, from the record's component ids (runs of allowed and
    open segments between forbidden ones)."""
    orb = act._orbit(params, E)
    comp, live = orb.comp, orb.kind > act._FORBIDDEN
    ids = np.where(live, comp, 99)
    first = ids.min(axis=1, keepdims=True)
    second = np.where(live & (comp > first), comp, 99).min(axis=1, keepdims=True)
    # Each component alone, as the left half of an uncut record.
    a, b = (np.stack([x, x], axis=1) for x in (orb.a, orb.b))
    alone = lambda c: np.stack([np.where(live & (comp == c), orb.kind, act._EMPTY),
                                np.full_like(orb.kind, act._EMPTY)], axis=1)
    return [act._half_areas(params, E, act._Halves(a, b, alone(c), None))[:, 0]
            for c in (first, second)]


@pytest.mark.parametrize("N,g_ns,eps", [(20, -3.0, 0.5), (40, -6.0, 0.0), (80, -3.0, 0.8)])
def test_barrier_cut_is_the_component_split(N, g_ns, eps):
    # Below the barrier its momentum lies in the forbidden gap, so the
    # cut there gives the two components themselves.
    params = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    info = act.barrier(params)
    es = np.linspace(info.e_min_upper, info.e_barr, 202)[1:-1]
    es = es[act._ncomp(act._orbit(params, es)) == 2]
    assert es.size >= 190
    orb = act._orbit(params, es)
    halves = act._half_areas(params, es, act._halves(params, es, orb))
    oracle = _component_areas(params, es)
    assert np.array_equal(halves[:, 0], oracle[0])
    assert np.array_equal(halves[:, 1], oracle[1])
    for lobe, area in zip(("left", "right"), oracle):
        assert np.array_equal(act.action(params, es, lobe=lobe), area)


def test_period_on_an_array_equals_scalar_calls():
    info = act.barrier(SUPER21)
    below = np.linspace(info.e_min_lower, info.e_barr, 9)[1:-1]
    above = np.linspace(info.e_barr, act.classical_range(SUPER21)[1], 9)[1:-1]
    for lobe, es in (("left", below), ("right", below), ("total", below),
                     ("auto", above), ("total", np.concatenate([below, above]))):
        batch = act.period_direct(SUPER21, es, lobe=lobe)
        assert np.array_equal(batch, [act.period_direct(SUPER21, e, lobe=lobe) for e in es])
    # On the separatrix an array gets inf where a scalar raises.
    es = np.array([info.e_barr - 1.0, info.e_barr, info.e_barr + 1.0])
    t = act.period_direct(SUPER21, es, lobe="total")
    assert np.isinf(t[1]) and np.all(np.isfinite(t[[0, 2]]))
    assert t[0] == act.period_direct(SUPER21, es[0], lobe="total")
    # A single well's barrier lies at +inf: no energy is on a separatrix.
    # The solver drops the quartic's negligible leading coefficient at
    # g*Ns = -2.1e-8, leaving a cubic row, and the cubic's too at g = 0.
    for single, missing in ((ModelParams(N=14, eps=0.6, v=1.0, g=-0.6 / 15.0), 0),
                            (CUBIC, 1), (QUADRATIC, 2)):
        es = np.linspace(*act.classical_range(single), 9)[1:-1]
        assert np.all(np.isnan(act._orbit(single, es).roots).sum(axis=1) == missing)
        for lobe in ("auto", "total"):
            batch = act.period_direct(single, es, lobe=lobe)
            assert np.all(np.isfinite(batch))
            assert np.array_equal(batch, [act.period_direct(single, e, lobe=lobe) for e in es])


# ---------------------------------------------------------------------------
# period


def test_one_quartic_solve_per_energy(monkeypatch):
    # Every quantity at one energy reads one solve of the turning quartic,
    # which it hands to every helper.  A solve is one row of the batched
    # solver.
    from bosesemi import quantize
    from bosesemi import wavefun as wf

    real, rows = act.quartic_rows, []
    monkeypatch.setattr(act, "quartic_rows", lambda c: rows.append(len(c)) or real(c))

    def solves(fn, *args):
        rows.clear()
        out = fn(*args)
        return sum(rows), out

    assert solves(quantize._dw_eval, SUPER21, -60.0)[0] == 1
    assert solves(quantize._dw_eval, SUPER21, -45.0)[0] == 1
    sym = BENCH_SETS[3]
    E = quantize.quantize_single(sym, 2)
    assert solves(act.period_direct, sym, E)[0] == 1
    assert solves(wf.classical_density, sym, E, 0.0)[0] == 1
    assert solves(wf.forbidden_tail, sym, E, 0.9 * sym.p_max)[0] == 1
    assert solves(wf.primitive_wavefunction, sym, 2, E)[0] == 1
    assert solves(wf.uniform_wavefunction, sym, 2, E)[0] == 1
    assert act.action(sym, np.array(E)) == act.action(sym, E)


def test_orbit_cache_is_safe_across_threads():
    # Two threads on different parameters share the landmark cache
    # (``_context``) and the quadrature rules (``quad._rule``); a thread
    # switch between a lookup and its use must not hand one thread the
    # other's values.  Switching every microsecond makes such an
    # interleaving likely within 3,000 calls each.
    sets = [(p, np.linspace(*act.classical_range(p), 32)[1:-1])
            for p in (SUPER21, BENCH_SETS[2])]
    serial = [[act.action(p, e, lobe="total") for e in es] for p, es in sets]
    results, errors, start = [None, None], [], threading.Barrier(2)

    def run(i):
        p, es = sets[i]
        try:
            start.wait(timeout=60)
            results[i] = [[act.action(p, e, lobe="total") for e in es] for _ in range(100)]
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for got, want in zip(results, serial):
        assert all(r == want for r in got)


def test_period_linear_case():
    p0 = ModelParams(N=10, eps=0.0, v=1.0, g=0.0)
    assert period_fd(p0, 0.3) == pytest.approx(np.pi, rel=1e-7)
    assert act.period_direct(p0, 0.3) == pytest.approx(np.pi, rel=1e-10)


# At g = 0 the flow is a rotation about the eps-v axis, and every orbit's
# period is pi hbar / sqrt(eps^2 + v^2).  Measured on 19 energies from 5 %
# to 95 % of the range: equal to it at every point, at large bias too
# (abs=0: pytest's default absolute 1e-12 is 3e-10 of the period at eps=1000).
@pytest.mark.parametrize("N,eps,rtol", [
    (5, 0.0, 1e-12), (14, 0.6, 1e-12), (40, 3.0, 1e-12), (1000, 0.3, 1e-12),
    (5, 100.0, 1e-12), (20, 300.0, 1e-12), (5, 1000.0, 1e-12)])
def test_free_period_is_the_rotation_period(N, eps, rtol):
    params = ModelParams(N=N, eps=eps, v=1.0, g=0.0)
    e_min, e_max = act.classical_range(params)
    es = e_min + (e_max - e_min) * np.linspace(0.05, 0.95, 19)
    ref = np.pi * params.hbar / np.hypot(eps, 1.0)
    assert act.period_direct(params, es) == pytest.approx(np.full(19, ref), rel=rtol, abs=0)


# Thin orbits 1e-9 to 1e-6 of the range above the bottom, on which a
# quadrature of 1/sqrt(B) does not converge: within 4 ulp of the rotation
# period at g = 0 (measured 0), and within 1e-12 of the oracle otherwise
# (measured 8.3e-14 at N=20, eps=0, 2.7e-14 at eps=1, 1.0e-14 at eps=1.5,
# 2.2e-16 at N=30, eps=50 and 8.6e-14 at N=10, eps=1.2).
@pytest.mark.parametrize("N,g_ns,eps,frac", [
    (5, 0.0, 1000.0, 1e-9), (5, 0.0, 1000.0, 1e-8), (5, 0.0, 1000.0, 1e-7), (5, 0.0, 1000.0, 1e-6),
    (20, -3.0, 0.0, 1e-9), (20, -3.0, 1.0, 1e-9), (20, -3.0, 1.5, 1e-9),
    (30, -3.0, 50.0, 1e-9), (10, -3.0, 1.2, 1e-7)])
def test_free_period_on_thin_orbits(N, g_ns, eps, frac):
    params = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    e_min, e_max = act.classical_range(params)
    E = e_min + frac * (e_max - e_min)
    t = act.period_direct(params, E, lobe="total")
    if g_ns == 0.0:
        ref = np.pi * params.hbar / np.hypot(eps, 1.0)
        assert abs(t - ref) <= 4 * np.spacing(ref)
    else:
        assert t == pytest.approx(period_mp(params, E), rel=1e-12, abs=0)


@pytest.mark.parametrize("params", [SUPER21, BENCH_SETS[2], CUBIC, QUADRATIC,
                                    ModelParams(N=400, eps=1.0, v=1.0, g=-3.0 / 401)],
                         ids=["SUPER21", "N14", "cubic", "quadratic", "N400"])
def test_period_against_the_mpmath_oracle(params):
    # Within 1e-14 at 1e-6 of the range or more from an end (measured
    # 4.0e-15), within 1e-12 closer to one (measured 8.3e-14 at 1e-9).
    e_min, e_max = act.classical_range(params)
    for fracs, rtol in (([1e-6, 0.1, 0.3, 0.7, 0.9, 1 - 1e-6], 1e-14), ([1e-9, 1 - 1e-9], 1e-12)):
        es = e_min + np.array(fracs) * (e_max - e_min)
        ref = [period_mp(params, e) for e in es]
        assert act.period_direct(params, es, lobe="total") == pytest.approx(ref, rel=rtol, abs=0)


@pytest.mark.xfail(strict=True, reason=(
    "near the rim the area quadrature's roundoff plateau exits early, at the "
    "64-interval rule, so the action's difference quotient is off by 7.5e-5"))
def test_action_slope_near_the_rim():
    # A single-well orbit whose allowed segment [-164.758, 381.99999676]
    # ends 3.2e-6 below p_max = 382.  The closed-form period matches the
    # oracle to 2e-16, but dS/dE by differences of the action does not:
    # the 64-interval area is 4.6e-6 above the 512-4096-interval one.
    p = ModelParams(N=381, eps=0.9900651227673105, v=1.0, g=-1.265411884483532 / 382)
    E = -105.13272688
    assert period_fd(p, E, lobe="total") == pytest.approx(period_mp(p, E), rel=1e-8, abs=0)


@pytest.mark.parametrize("N,eps", [(20, 0.0), (20, 0.5), (400, 1.0)])
def test_region_two_lobes_share_one_period(N, eps):
    # The quartic's two real cycles are homologous, so in region II both
    # lobes have the same period, bit for bit, and the total is twice it.
    params = ModelParams(N=N, eps=eps, v=1.0, g=-3.0 / (N + 1))
    info = act.barrier(params)
    es = np.linspace(info.e_min_upper, info.e_barr, 9)[1:-1]
    left = act.period_direct(params, es, lobe="left")
    assert np.array_equal(left, act.period_direct(params, es, lobe="right"))
    assert np.array_equal(2.0 * left, act.period_direct(params, es, lobe="total"))


_SLOPE_SETS = [(20, -3.0, 0.0), (20, -3.0, 0.5), (40, -6.0, 0.3), (40, -12.0, 2.0), (80, -3.0, 0.7)]


def _two_lobe_energies(params, n=7):
    """n energies from the upper well minimum to the top of the spectrum,
    none within 1e-6 energy scales of the barrier top."""
    info = act.barrier(params)
    es = np.linspace(info.e_min_upper, info.e_max, n + 2)[1:-1]
    return es[np.abs(es - info.e_barr) > 1e-6 * params.energy_scale()]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N,g_ns,eps", _SLOPE_SETS)
def test_imaginary_half_period_against_the_mpmath_oracle(N, g_ns, eps):
    # dSeps/dE is -1/(2 pi) times the integral of ds/sqrt|P| between the
    # inner turning points: over the real gap in region II, by the AGM of
    # the four real roots, and between the complex pair in region III, by
    # the complementary AGM (measured within 4e-16).
    params = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    es = _two_lobe_energies(params)
    assert {g.region for g in act.turning_points(params, es)} >= {"III"}
    got = -2.0 * np.pi * act._tunneling_slope(params, act._orbit(params, es))
    assert got == pytest.approx([gap_period_mp(params, e) for e in es], rel=1e-13, abs=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N,g_ns,eps", _SLOPE_SETS)
def test_half_periods_against_the_mpmath_oracle(N, g_ns, eps):
    # The slopes of the areas on either side of the barrier momentum: the
    # left one from whole allowed segments and, above the barrier, the
    # segment the cut splits, integrated from its left root to the cut by
    # one Carlson R_F (measured within 1.4e-15); the two add up to the
    # period.
    params = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    info, es = act.barrier(params), _two_lobe_energies(params)
    orb = act._orbit(params, es)
    half = act._half_periods(params, orb, act._halves(params, es, orb))
    left = [left_period_mp(params, e, info.p_barr) for e in es]
    assert half[:, 0] == pytest.approx(left, rel=1e-13, abs=0)
    total = [period_mp(params, e) for e in es]
    assert half[:, :2].sum(axis=1) == pytest.approx(total, rel=1e-13, abs=0)
    assert half[:, 2] == pytest.approx(total, rel=1e-13, abs=0)
    single = [act._half_periods(params, o, act._halves(params, e, o))
              for e, o in ((e, act._orbit(params, e)) for e in es)]
    assert np.array_equal(np.concatenate(single), half)


def test_carlson_rf_against_mpmath():
    # Twelve duplication steps reach full precision even for arguments
    # 1e16 apart, and a conjugate pair gives a real value.
    mpmath = pytest.importorskip("mpmath")
    for args in [(1e-16, 0.3 + 0.4j, 0.3 - 0.4j), (0.0, 1.0, 2.0), (2.0, 1e8, 3e15), (1.0, 1.0, 1.0)]:
        got = complex(act._rf(*(np.complex128(a) for a in args)))
        assert abs(got - complex(mpmath.elliprf(*args))) <= 2e-15 * abs(got)


def test_period_needs_no_quadrature(monkeypatch):
    calls = []
    real = act.turning_point_rows
    monkeypatch.setattr(act, "turning_point_rows", lambda *a, **k: calls.append(1) or real(*a, **k))
    es = np.linspace(*act.classical_range(SUPER21), 9)[1:-1]
    act.period_direct(SUPER21, es, lobe="total")
    act.period_direct(SUPER21, es[0], lobe="left")
    assert calls == []


def test_period_fd_vs_direct():
    cases = [(SUPER21, -60.0, "left"), (SUPER21, -45.0, "auto"),
             (SUPER21, -20.0, "auto"), (LINEAR, 2.0, "auto"),
             (ModelParams(N=10, eps=0.4, v=1.0, g=-3.0 / 11.0), -20.0, "auto"),
             (SUPER21, -60.0, "total")]
    for params, E, lobe in cases:
        t1 = period_fd(params, E, lobe=lobe)
        t2 = act.period_direct(params, E, lobe=lobe)
        assert t1 == pytest.approx(t2, rel=1e-5)
    # Below the barrier the total period is the sum of the two lobes'.
    both = (act.period_direct(SUPER21, -60.0, lobe="left")
            + act.period_direct(SUPER21, -60.0, lobe="right"))
    assert act.period_direct(SUPER21, -60.0, lobe="total") == pytest.approx(both, rel=1e-12)


@pytest.mark.parametrize("hbar", [1.0, 0.5])
@pytest.mark.parametrize("g_ns,eps,frac,region", [
    (-0.6, 0.6, 0.3, "single"), (-3.0, 0.5, 0.1, "I"), (-3.0, 0.5, 0.3, "II"),
    (-3.0, 0.5, 0.6, "III")])
def test_period_is_the_slope_of_the_total_action(hbar, g_ns, eps, frac, region):
    # quantize_single takes Newton steps on action(lobe="total") with
    # _period(E, orb, "total") of the same contour record as the slope: that
    # is dS/dE itself at either hbar, not dS/dE / hbar (measured within
    # 6e-12 relative of the extrapolated central differences).
    p = ModelParams(N=20, eps=eps, v=1.0, g=g_ns / 21.0, hbar=hbar)
    e_min, e_max = act.classical_range(p)
    E = e_min + frac * (e_max - e_min)
    assert act.turning_points(p, E).region == region
    slope = act._period(p, E, act._orbit(p, E), "total")[0]
    assert slope == pytest.approx(period_fd(p, E, lobe="total"), rel=1e-10)
    assert slope == act.period_direct(p, E, lobe="total")


def test_period_harmonic_limit():
    fps = [f for f in mf.fixed_points(SUPER21) if f.kind == "minimum"]
    f = fps[0]
    hess = hessian(SUPER21, f.q, f.p)
    omega = np.sqrt(hess[0, 0] * hess[1, 1])
    t = act.period_direct(SUPER21, f.energy + 1e-5 * SUPER21.energy_scale(), lobe="left")
    assert t == pytest.approx(2.0 * np.pi / omega, rel=1e-3)


def test_period_diverges_at_separatrix():
    info = act.barrier(SUPER21)
    ts = [act.period_direct(SUPER21, info.e_barr - d, lobe="left")
          for d in (1.0, 0.1, 0.01, 0.001)]
    assert np.all(np.diff(ts) > 0)
    with pytest.raises(act.SeparatrixError):
        act.period_direct(SUPER21, info.e_barr, lobe="left")


# ---------------------------------------------------------------------------
# barrier and tunneling integrals


def test_barrier_info():
    info = act.barrier(SUPER21)
    assert info.e_barr == pytest.approx(-52.5)
    assert info.p_barr == pytest.approx(0.0, abs=1e-10)
    assert info.e_min_lower == pytest.approx(-66.5)
    assert info.e_min_upper == pytest.approx(-66.5)
    assert info.e_max == act.classical_range(SUPER21)[1]
    assert act.barrier(SUPER21) is info  # one cached record per parameter set
    asym = ModelParams(N=10, eps=0.6, v=1.0, g=-4.0 / 11.0)
    info2 = act.barrier(asym)
    assert info2.e_min_lower < info2.e_min_upper < info2.e_barr
    with pytest.raises(act.GeometryError):
        act.barrier(ModelParams(N=10, eps=0.0, v=1.0, g=-0.5 / 11.0))


def test_tunneling_below_limits():
    info = act.barrier(SUPER21)
    s1, k1 = act.tunneling(SUPER21, info.e_barr - 1e-4)
    assert 0 < s1 < 1e-4
    assert k1 == pytest.approx(1.0, abs=1e-3)
    # Deep-tunneling regime at the well bottoms.
    s2, k2 = act.tunneling(SUPER21, info.e_min_lower + 0.05)
    assert s2 > 3.0 and k2 < 1e-6


def test_tunneling_below_trapezoid_oracle():
    E = -58.0
    s_eps, kappa = act.tunneling(SUPER21, E)
    assert kappa == np.exp(-np.pi * s_eps)
    assert 0 < kappa < 1
    geo = act.turning_points(SUPER21, E)
    a = geo.turning_points[1].p
    b = geo.turning_points[2].p
    p = np.linspace(a, b, 400001)
    x = np.real(act._cos2q(SUPER21, E, p))
    y = 0.5 * np.arccosh(np.maximum(-x, 1.0))
    ref = np.trapezoid(y, p) / (np.pi * SUPER21.hbar)
    assert s_eps == pytest.approx(ref, rel=1e-6)


def test_tunneling_above_continuity_and_symmetry():
    info = act.barrier(SUPER21)
    gaps = []
    for d in (1e-1, 1e-3, 1e-5):
        s_below, k_below = act.tunneling(SUPER21, info.e_barr - d)
        s_above, k_above = act.tunneling(SUPER21, info.e_barr + d)
        assert s_above < 0
        # Linear through the top with the same slope on both sides.
        assert s_above == pytest.approx(-s_below, rel=1e-2)
        assert k_above == np.exp(-np.pi * s_above)
        assert k_below < 1 < k_above
        gaps.append(max(1.0 - k_below, k_above - 1.0))
    # Both factors tend to one at the barrier top, where the action
    # takes its limit.
    assert np.all(np.diff(gaps) < 0) and gaps[-1] < 1e-4
    assert act.tunneling(SUPER21, info.e_barr) == (0.0, 1.0)
    # Within 1e-10 energy scales of the top at N=200 the integral of
    # |Im q| over the real gap alone did not converge; the one integral
    # does, odd through the top.  Measured asymmetry at most 1.7e-6.
    for N, g_ns, eps in ((200, -12.0, 0.25), (200, -6.0, 2.5)):
        p = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
        e_barr = act.barrier(p).e_barr
        for d in (1e-10, 1e-11):
            s_below, _ = act.tunneling(p, e_barr - d * p.energy_scale())
            s_above, _ = act.tunneling(p, e_barr + d * p.energy_scale())
            assert s_below > 0 > s_above
            assert s_above == pytest.approx(-s_below, rel=1e-4)


def test_tunneling_above_asymmetric_real():
    p = ModelParams(N=20, eps=0.5, v=1.0, g=-1.0 / 7.0)
    info = act.barrier(p)
    s_eps, kappa = act.tunneling(p, info.e_barr + 1.5)
    assert s_eps < 0
    assert kappa == np.exp(-np.pi * s_eps)
    assert kappa > 1
    # Near the top of a large spectrum exp(-pi * s) overflows: the factor
    # is reported as inf instead.
    big = ModelParams(N=400, eps=0.0, v=1.0, g=-3.0 / 401.0)
    e_top = act.classical_range(big)[1] - 1e-3 * big.energy_scale()
    s_top, k_top = act.tunneling(big, e_top)
    assert np.pi * s_top < -700
    assert k_top == np.inf
