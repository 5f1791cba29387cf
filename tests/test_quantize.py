import mpmath
import numpy as np
import pytest

from bosesemi import actions as act
from bosesemi import quantize
from bosesemi.model import ModelParams
from bosesemi.quantize import (
    QuantizationError,
    _bisect,
    _bracket_roots,
    _phase_grid,
    _stable_alpha,
    quantize_single,
    semiclassical_spectrum,
    sweep_epsilon,
)
from bosesemi.quantum import exact_spectrum
from oracles import ho_decay, walked_level
from reference_data import semiclassical_column

TABLE_PARAMS = {eps: ModelParams(N=20, eps=eps, v=1.0, g=-3.0 / 21.0)
                for eps in (0.0, 0.5, 1.0, 1.5)}


def test_single_linear_exact():
    p = ModelParams(N=10, eps=0.0, v=1.0, g=0.0)
    assert quantize_single(p, 3) == pytest.approx(-4.0, abs=1e-8)
    p2 = ModelParams(N=10, eps=0.7, v=1.0, g=0.0)
    assert quantize_single(p2, 10) == pytest.approx(10.0 * np.sqrt(1.49), abs=1e-8)
    # At large N the end levels sit on orbits too small to integrate at
    # full precision right at the ends of the classical range.
    for eps in (0.0, 0.7):
        p3 = ModelParams(N=800, eps=eps, v=1.0, g=0.0)
        for n in (0, 400, 800):
            assert quantize_single(p3, n) == pytest.approx(
                np.sqrt(eps**2 + 1.0) * (2 * n - 800), abs=1e-8)


@pytest.mark.parametrize("N", [2, 10, 20])
@pytest.mark.parametrize("eps", [0.0, 0.7])
def test_linear_case_is_exact(N, eps):
    p = ModelParams(N=N, eps=eps, v=1.0, g=0.0)
    sc = semiclassical_spectrum(p).energies
    n = np.arange(N + 1)
    expected = np.sqrt(eps**2 + 1.0) * (2 * n - N)
    assert np.max(np.abs(sc - expected)) < 1e-8


@pytest.mark.parametrize("N,g_ns,eps,states", [
    (12, -0.4, 0.3, (0, 5, 12)),
    (400, -0.6, 0.6, (0, 5, 200, 400)),
], ids=["N12", "N400"])
def test_single_phase_residual(N, g_ns, eps, states):
    p = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    for n in states:
        e = quantize_single(p, n)
        resid = abs(act.action(p, e) / (2 * p.hbar) - np.pi * (n + 0.5))
        assert resid < 1e-10


def test_single_rejects_bad_index():
    p = ModelParams(N=4, eps=0.0, v=1.0, g=0.0)
    for n in (-1, 5, 2.5):
        with pytest.raises(ValueError, match="level index"):
            quantize_single(p, n)


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 1.5])
def test_reference_semiclassical_n20(eps):
    sc = np.sort(-semiclassical_spectrum(TABLE_PARAMS[eps]).energies)
    ref = np.array(semiclassical_column(eps))
    assert sc.size == 21
    assert np.max(np.abs(sc - ref)) <= 2e-3


@pytest.mark.parametrize("N,g_ns,eps", [(20, -3.0, 0.5), (5, -6.0, 0.5), (20, -6.0, 1.0),
                                        (20, -3.0, -0.5), (5, -6.0, 2.5)])
def test_level_on_the_upper_minimum(N, g_ns, eps):
    # A lower-well level sits on the upper well minimum at these biases.
    # Only the grid point there brackets it.  It lies a few ulp above the
    # minimum, where roundoff leaves the upper lobe a sliver, a double
    # root or nothing; the contour record counts each as an empty lobe,
    # so the level is a region-I rotor, and every level's labels and
    # turning points hold under a 1e-13 energy shift.  Before, they
    # flipped to ("II", "double_well_pair") with the sliver's ends as
    # turning points.
    p = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    spec = semiclassical_spectrum(p)
    assert len(spec) == N + 1
    dist = np.abs(spec.energies - act.barrier(p).e_min_upper)
    i = int(np.argmin(dist))
    assert dist[i] <= 1e-12 * p.energy_scale()
    assert (spec.levels[i].region, spec.levels[i].orbit_class) == ("I", "rotor")
    for level in spec.levels:
        at = [act.turning_points(p, level.energy + d) for d in (-1e-13, 0.0, 1e-13)]
        assert [(g.region, g.orbit_class) for g in at] == [(level.region, level.orbit_class)] * 3
        assert len({len(g.turning_points) for g in at}) == 1
    ex = exact_spectrum(p).energies
    assert abs(spec.energies[i] - ex[i]) <= 0.02 * (ex[-1] - ex[0]) / N


_BARRIER_TOP_CASES = [(10, -3.0, 0.09398472894895538), (20, -3.0, 0.07667434299661074),
                      (40, -3.0, 0.1266630308851279), (80, -3.0, 0.38425127555334704),
                      (80, -3.0, 0.3842512755533425), (200, -6.0, 0.31757286071777335)]


@pytest.mark.parametrize("N,g_ns,eps", _BARRIER_TOP_CASES,
                         ids=[f"{N}-{eps}" for N, _, eps in _BARRIER_TOP_CASES])
def test_level_through_the_barrier_top(N, g_ns, eps):
    # At these biases a level sits on the barrier top, to within a few
    # ulp.  There the tunneling action takes its limit (Seps = 0,
    # kappa = 1).  At N=200 the real-gap form of the integral, |Im q|
    # alone, did not converge 1e-10 energy scales below the top and
    # raised QuadratureError.  Measured errors 0.0090, 0.0046, 0.0023,
    # 0.0011, 0.0011 and 0.00046 spacings.
    p = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    sc = semiclassical_spectrum(p).energies
    ex = exact_spectrum(p).energies
    assert sc.size == N + 1
    assert np.max(np.abs(sc - ex)) <= 0.02 * (ex[-1] - ex[0]) / N


def test_upper_minimum_sliver_at_large_n():
    # At N=200 roundoff splits the upper well's double turning point at
    # its minimum, a grid point, into an allowed sliver 1.2e-8 p_max
    # wide; integrating that noise raised QuadratureError.  Measured
    # error 0.00044 mean spacings.
    p = ModelParams(N=200, eps=0.3, v=1.0, g=-3.0 / 201.0)
    sc = semiclassical_spectrum(p).energies
    ex = exact_spectrum(p).energies
    assert sc.size == 201
    assert np.max(np.abs(sc - ex)) <= 0.002 * (ex[-1] - ex[0]) / 200


def test_condition_reads_one_contour_record(monkeypatch):
    # A batch across regions I-III is one quartic solve of all its rows
    # and two quadratures: the lobe areas of the record cut at the
    # barrier momentum, and the tunneling integral of the rows whose
    # upper lobe is present.
    params = TABLE_PARAMS[0.5]
    e_min, e_max = act.classical_range(params)
    E = np.linspace(e_min, e_max, 43)[1:-1]
    assert {g.region for g in act.turning_points(params, E)} == {"I", "II", "III"}
    solves, quads = [], []
    real_solve, real_quad = act.quartic_rows, act.turning_point_rows
    monkeypatch.setattr(act, "quartic_rows", lambda c: solves.append(len(c)) or real_solve(c))
    monkeypatch.setattr(act, "turning_point_rows",
                        lambda *a, **k: quads.append(1) or real_quad(*a, **k))
    psi, alpha = quantize._dw_eval(params, E)
    assert solves == [41]
    assert len(quads) == 2
    assert np.all(np.isfinite(psi)) and np.all(np.isfinite(alpha))


def test_integrand_point_budget(monkeypatch):
    # Every doubling of the nested rule reuses the points it already has,
    # and the first check costs 63 points: the parent's Gauss-Legendre
    # doubling (64 then 128 nodes) took 143,104 integrand points for this
    # spectrum, the nested rule 64,781.
    points = []
    real = act.turning_point_rows
    monkeypatch.setattr(act, "turning_point_rows", lambda f, *a, **k: real(
        lambda r, p: points.append(p.size) or f(r, p), *a, **k))
    semiclassical_spectrum(TABLE_PARAMS[0.5])
    assert sum(points) <= 143_104 // 2


def test_level_refinement_budget(monkeypatch):
    # Each row of the batched quartic solver is one energy evaluated: every
    # refinement step, and for a spectrum every grid pass as well (26.9
    # rows per level at eps=1.5 with the midpoint fallback, 22.4 with the
    # one-ulp minimal step).  The single level takes one false-position
    # step and two Newton steps on S and the period (8 Illinois steps
    # without the slope).
    real, rows = act.quartic_rows, []
    monkeypatch.setattr(act, "quartic_rows", lambda c: rows.append(len(c)) or real(c))
    quantize_single(ModelParams(N=100, eps=0.6, v=1.0, g=-0.6 / 101.0), 2)
    assert sum(rows) <= 3
    rows.clear()
    spec = semiclassical_spectrum(TABLE_PARAMS[1.5])
    assert sum(rows) <= 25 * len(spec)
    # On a convex function plain false position keeps one end for good
    # and stalls; the Illinois step moves it (60 evaluations with the
    # guarded secant, none converged within 200 without the halving).
    x = []
    root, _ = _bisect(lambda e, _: x.append(e) or np.expm1(20.0 * e) - 1.0, 0.0, 1.0)
    assert root == pytest.approx(np.log(2.0) / 20.0, abs=1e-15)
    assert len(x) <= 40


def test_single_level_stops_within_an_ulp_of_its_action(monkeypatch):
    # quantize_single closes a bracket at an end where |S - target| is
    # within spacing(target), as the connection condition does, or at a
    # Newton step whose estimated error is below roundoff; walking down to
    # adjacent floats moves no level by more than roundoff.  Each contour
    # row is one energy evaluated: 82 walked for these 11 levels, 73 with
    # the stop rule alone, 33 with Newton steps.
    p = ModelParams(N=100, eps=0.6, v=1.0, g=-0.6 / 101.0)
    real, rows = act.quartic_rows, []
    monkeypatch.setattr(act, "quartic_rows", lambda c: rows.append(len(c)) or real(c))
    levels = [quantize_single(p, n) for n in range(0, 101, 10)]
    evals = sum(rows)
    rows.clear()
    walked = [walked_level(p, n) for n in range(0, 101, 10)]
    assert evals <= 33 < sum(rows)
    e_min, e_max = act.classical_range(p)
    assert np.max(np.abs(np.subtract(levels, walked))) <= 1e-13 * (e_max - e_min) / p.N


@pytest.mark.parametrize("N,g_ns,eps", [(20, -3.0, 0.0), (20, -3.0, 0.5), (40, -6.0, 0.0),
                                        (40, -6.0, 0.3)])
def test_single_levels_straddling_the_barrier(monkeypatch, N, g_ns, eps):
    # The period diverges logarithmically at the barrier top, so S bends
    # sharply there and Newton's error shrinks more slowly next to it.
    # The two levels on either side of e_barr still agree with the walked
    # root to 1e-12 mean spacings (measured 2.5e-15 or 0), in at most 7
    # contour rows each (measured 4-7).
    p = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    e_barr = act.barrier(p).e_barr
    e_min, e_max = act.classical_range(p)
    walked = np.array([walked_level(p, n) for n in range(N + 1)])
    k = int(np.searchsorted(walked, e_barr))
    real, rows = act.quartic_rows, []
    monkeypatch.setattr(act, "quartic_rows", lambda c: rows.append(len(c)) or real(c))
    for n in (k - 1, k):
        rows.clear()
        assert abs(quantize_single(p, n) - walked[n]) <= 1e-12 * (e_max - e_min) / N
        assert sum(rows) <= 7


def test_refiner_takes_no_step_from_a_slope_that_is_not_finite():
    # An infinite slope gives a Newton step of 0, back onto the end just
    # evaluated: that step is not taken and does not close the bracket,
    # however large xtol.  A NaN slope gives no step.  Either way every
    # step is the Illinois one, evaluation for evaluation.
    g = lambda e: np.expm1(20.0 * e) - 1.0
    plain, x = [], []
    want = _bisect(lambda e, _: plain.append(e) or g(e), 0.0, 1.0)
    for slope in (np.inf, -np.inf, np.nan):
        x.clear()
        got = _bisect(lambda e, _: x.append(e) or (g(e), np.full_like(e, slope)), 0.0, 1.0,
                      xtol=1.0)
        assert got == want
        assert np.array_equal(x, plain)


@pytest.mark.parametrize("where", ["barrier top", "sliver"])
def test_single_level_without_a_finite_slope_takes_illinois_steps(monkeypatch, where):
    # Every slope comes from one contour record: at the barrier top, where
    # the period diverges (an infinite one stands in for it here, since the
    # AGM at the computed e_barr is 1.5e8), and on a sliver orbit, where
    # _period raises GeometryError.  Without a finite slope quantize_single
    # takes Illinois steps, bit for bit: its levels and contour rows are
    # those of the slope-free refiner with the one-ulp stop rule.
    p = ModelParams(N=20, eps=0.0, v=1.0, g=-3.0 / 21.0)
    e_min, e_max = act.classical_range(p)
    sliver = act._orbit(p, e_min + 1e-14 * (e_max - e_min))
    with pytest.raises(act.GeometryError):
        act._period(p, sliver, "total")
    real_period = act._period

    def period(params, orb, lobe):
        if where == "sliver":
            return real_period(params, sliver, lobe)
        return np.full(len(orb.lead), np.inf)

    monkeypatch.setattr(act, "_period", period)
    real, rows = act.quartic_rows, []
    monkeypatch.setattr(act, "quartic_rows", lambda c: rows.append(len(c)) or real(c))
    s_max = 2.0 * np.pi * p.hbar * p.Ns
    e_barr = act.barrier(p).e_barr
    for n in range(4, 8):  # levels 5 and 6 straddle e_barr
        rows.clear()
        level = quantize_single(p, n)
        newton_rows = sum(rows)
        rows.clear()
        target = 2.0 * np.pi * p.hbar * (n + 0.5)
        plain = _bisect(lambda E, _: act.action(p, E, lobe="total") - target, e_min, e_max,
                        fa=-target, fb=s_max - target, ftol=np.spacing(target))[0]
        assert level == plain and newton_rows == sum(rows)
    assert quantize_single(p, 5) < e_barr < quantize_single(p, 6)


def test_refiner_endgame_takes_the_minimal_step():
    # Once one end sits on the root every secant step rounds onto it; a
    # step one ulp inside closes the bracket, where the midpoint fallback
    # halved the other end down to adjacent floats (45 evaluations here).
    x = []
    root, resid = _bisect(lambda e, _: x.append(e) or ho_decay(e, 1.0) - 0.1,
                          1.0, 2.0 + np.sqrt(0.2))
    assert len(x) <= 15
    assert resid == abs(ho_decay(root, 1.0) - 0.1) <= 1e-15
    assert np.nextafter(root, 0.0) in x or np.nextafter(root, 3.0) in x


def test_refiner_stops_within_ftol():
    # Past its roundoff a function's sign is noise, and walking a bracket
    # down to adjacent floats through it only costs evaluations.  A bracket
    # closes at an end within ftol; the root and residual are that end's.
    noisy = lambda e: (e - 0.3) + 3e-14 * np.sin(1e15 * e)
    x, y = [], []
    root, resid = _bisect(lambda e, _: x.append(e) or noisy(e), 0.0, 1.0, ftol=1e-13)
    _bisect(lambda e, _: y.append(e) or noisy(e), 0.0, 1.0)
    assert resid == abs(noisy(root)) <= 1e-13
    assert abs(root - 0.3) <= 2e-13
    assert len(x) < len(y)


def test_lockstep_brackets_refine_as_if_alone():
    # One batch whose brackets close at different steps: by ftol on the
    # first step (false position is exact on a line), and two at adjacent
    # floats, one after midpoint steps while f is infinite at an end, one
    # on x^2 = 2, which has no float root.  Each bracket's (root, resid)
    # and number of evaluations are those it gets when refined on its own.
    def pole(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (1.0 - x) - 3.0

    funcs = [lambda x: x - 0.3, pole, lambda x: x * x - 2.0]
    a, b, tol = np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 2.0]), np.array([1e-15, 0.0, 0.0])
    fa, fb = [np.array([g(x) for g, x in zip(funcs, ends)]) for ends in (a, b)]
    assert not np.isfinite(fb[1])
    evals = np.zeros(3, dtype=int)

    def f(x, rows):
        np.add.at(evals, rows, 1)
        return np.array([funcs[j](xj) for j, xj in zip(rows, x)])

    root, resid = _bisect(f, a, b, fa, fb, ftol=tol)
    batch = evals.copy()
    for j in range(3):
        evals[:] = 0
        alone = _bisect(lambda x, rows: f(x, np.full_like(rows, j)), a[j], b[j], fa[j], fb[j],
                        ftol=tol[j])
        assert alone == (root[j], resid[j])
        assert evals[j] == batch[j]
    assert batch[0] == 1 and len(set(batch)) == 3  # measured 1, 11 and 9


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 1.5])
def test_condition_evaluations_per_spectrum(monkeypatch, eps):
    # Each grid pass and each lockstep refinement step is one call of the
    # condition, and the refiner's own residuals leave no final call
    # (31-35 calls with the midpoint fallback and a residual call).
    real, calls = quantize._dw_eval, []
    monkeypatch.setattr(quantize, "_dw_eval", lambda p, E: calls.append(1) or real(p, E))
    assert len(semiclassical_spectrum(TABLE_PARAMS[eps])) == 21
    assert len(calls) <= 12


@pytest.mark.parametrize("N, eps", [(1, 1000.0), (5, 1000.0), (20, 300.0)])
def test_linear_model_at_strong_bias(N, eps):
    # The grid's end orbit hugs the rim, 2.8e-7 p_max wide at N=5, eps=1000;
    # the squared turning quartic alone put its ends 4e-9 off in momentum,
    # and the area quadrature did not converge there.
    p = ModelParams(N=N, eps=eps, v=1.0, g=0.0)
    sc, ex = semiclassical_spectrum(p).energies, exact_spectrum(p).energies
    assert sc.size == N + 1
    assert np.max(np.abs(sc - ex)) <= 1e-10 * (ex[-1] - ex[0]) / N


@pytest.mark.parametrize("N,eps", [(20, 0.0), (20, 0.5), (20, 1.0), (20, 1.5), (80, 0.7)])
def test_phase_grid_row_budget(monkeypatch, N, eps):
    # The grid starts from 4(N+1) energies and splits only the intervals
    # where psi or alpha steps by more than 0.75.  Measured 126-137 rows
    # at N=20 and 492 at N=80; a 16(N+1) start took 337 and 1297.  Any
    # splitting of that start needs at least 135 rows at eps=1.0.
    p = ModelParams(N=N, eps=eps, v=1.0, g=-3.0 / (N + 1))
    real, rows = quantize._dw_eval, []
    monkeypatch.setattr(quantize, "_dw_eval", lambda q, E: rows.append(np.size(E)) or real(q, E))
    _phase_grid(p, act._context(p))
    assert sum(rows) <= 7 * (N + 1) + 1


def test_doublet_splittings():
    sc = np.sort(-semiclassical_spectrum(TABLE_PARAMS[0.0]).energies)
    assert sc[16] - sc[15] == pytest.approx(0.094, abs=5e-3)
    assert sc[18] - sc[17] <= 3e-3
    assert sc[20] - sc[19] <= 1e-3


def test_spectrum_metadata_and_residuals():
    # A double well, and a single well quantized by the same condition.
    for eps, regions in ((0.5, {"I", "II", "III"}), (1.5, {"single"})):
        spec = semiclassical_spectrum(TABLE_PARAMS[eps])
        assert len(spec) == 21
        assert {l.region for l in spec.levels} == regions
        for l in spec.levels:
            assert l.residual < 1e-10
        assert np.all(np.diff(spec.energies) > 0)


def test_level_counts_on_benchmark_sets():
    cases = [ModelParams(N=2, eps=0.3, v=1.0, g=-0.9 / 3.0),
             ModelParams(N=10, eps=0.4, v=1.0, g=-0.5 / 11.0),
             ModelParams(N=10, eps=0.4, v=1.0, g=-3.0 / 11.0),
             ModelParams(N=14, eps=0.6, v=1.0, g=-0.6 / 15.0),
             ModelParams(N=20, eps=1.0, v=1.0, g=-3.0 / 21.0)]
    # Symmetric double wells with deep tunneling doublets.
    doublets = [ModelParams(N=20, eps=0.0, v=1.0, g=-6.0 / 21.0),
                ModelParams(N=10, eps=0.0, v=1.0, g=-12.0 / 11.0),
                ModelParams(N=40, eps=0.0, v=1.0, g=-3.0 / 41.0)]
    for p in cases:
        assert len(semiclassical_spectrum(p)) == p.N + 1
    for p in doublets:
        sc = semiclassical_spectrum(p).energies
        ex = exact_spectrum(p).energies
        assert len(sc) == p.N + 1
        assert np.max(np.abs(sc - ex)) <= 0.1 * (ex[-1] - ex[0]) / p.N


def test_stable_alpha_near_tangency():
    # At delta = 0, pi - alpha = arctan(kappa): a tunneling factor whose
    # square is below roundoff must still split a doublet's two branches.
    with mpmath.workdps(40):
        for kappa in (1e-12, 1e-9, 1e-6, 1e-3, 0.5, 3.0):
            for delta in (0.0, 0.3, 2.0):
                ref = mpmath.acos(-mpmath.cos(delta) / mpmath.sqrt(1 + mpmath.mpf(kappa) ** 2))
                assert abs(_stable_alpha(delta, kappa) - float(ref)) <= 1e-15


def test_pairing_accuracy_benchmark_sets():
    # Sorted exact and semiclassical levels pair off with small relative
    # deviation for N >= 10.
    for p in [ModelParams(N=10, eps=0.4, v=1.0, g=-0.5 / 11.0),
              ModelParams(N=10, eps=0.4, v=1.0, g=-3.0 / 11.0),
              TABLE_PARAMS[0.5]]:
        ex = exact_spectrum(p).energies
        sc = semiclassical_spectrum(p).energies
        span = ex.max() - ex.min()
        assert np.max(np.abs(ex - sc)) / span <= 5e-3


def test_small_system_tracks_exact():
    # Even three levels follow the exact spectrum across the bias range.
    devs = []
    for eps in np.linspace(-2.0, 2.0, 9):
        p = ModelParams(N=2, eps=float(eps), v=1.0, g=-0.9 / 3.0)
        devs.append(np.max(np.abs(exact_spectrum(p).energies
                                  - semiclassical_spectrum(p).energies)))
    assert max(devs) < 0.2


def test_supercritical_interaction_without_saddle():
    # Beyond the cusp in bias there is no barrier even though the
    # interaction is supercritical; plain quantization must take over.
    p = TABLE_PARAMS[1.5]
    spec = semiclassical_spectrum(p)
    assert {l.region for l in spec.levels} == {"single"}


def test_hbar_invariance():
    # Levels are independent of hbar: the action and the quantum both
    # scale, leaving the spectrum fixed.
    for g in (-0.4 / 7.0, -2.0 / 7.0):
        p1 = ModelParams(N=6, eps=0.3, v=1.0, g=g, hbar=1.0)
        p2 = ModelParams(N=6, eps=0.3, v=1.0, g=g, hbar=0.5)
        e1 = semiclassical_spectrum(p1).energies
        e2 = semiclassical_spectrum(p2).energies
        assert np.max(np.abs(e1 - e2)) < 1e-7


def _rhs_kappa_condition(params, E):
    """(psi, alpha) of the rejected variant that multiplies the right-hand
    cosine by the tunneling factor:
    sqrt(1 + kappa^2) cos(Sl + Sr + Sphi) = -kappa cos(Sl - Sr)."""
    halves = act._half_areas(params, np.array([E]), act._orbit(params, E), act.barrier(params).p_barr)
    left, right = halves[0] / (2.0 * params.hbar)
    s_eps, kappa = act.tunneling(params, E)
    psi = left + right + act.phase_correction(s_eps)
    if kappa > 1e150:
        return psi, 0.5 * np.pi
    y = -np.cos(left - right) * kappa / np.hypot(1.0, kappa)
    return psi, float(np.arccos(np.clip(y, -1.0, 1.0)))


def test_printed_condition_variant_misses_doublets():
    # The variant with the tunneling factor multiplying the right-hand
    # cosine cannot reproduce the near-degenerate pairs.
    p = TABLE_PARAMS[0.0]
    scale = p.energy_scale()
    grid, _ = _phase_grid(p, act.barrier(p))
    ev = lambda E: tuple(np.array(v) for v in zip(*[_rhs_kappa_condition(p, e) for e in E]))
    found = sorted(root for root, *_ in _bracket_roots(ev, grid, ev(grid), scale))
    roots = []
    for r in found:
        if not roots or r - roots[-1] >= 1e-10 * scale:
            roots.append(r)
    assert len(roots) < 21


def test_barrier_seam_continuity():
    # Track the level nearest the barrier while the bias moves it across;
    # steps of 1e-5 in bias must not produce jumps beyond slope * step.
    base = ModelParams(N=10, eps=0.0, v=1.0, g=-3.0 / 11.0)
    info = act.barrier(base)
    spec = semiclassical_spectrum(base)
    idx = int(np.argmin(np.abs(spec.energies - info.e_barr)))
    eps_grid = 0.3 + 1e-5 * np.arange(6)
    levels = []
    for e in eps_grid:
        p = ModelParams(N=10, eps=float(e), v=1.0, g=-3.0 / 11.0)
        levels.append(semiclassical_spectrum(p).energies[idx])
    steps = np.abs(np.diff(levels))
    # |dE/d eps| <= N, so anything beyond that plus the allowed seam jump
    # indicates a discontinuity.
    assert np.max(steps) < 10 * 1e-5 + 1e-4


def test_sweep_output_structure():
    p = ModelParams(N=4, eps=0.0, v=1.0, g=-0.5 / 5.0)
    pts = sweep_epsilon(p, np.linspace(-1.0, 1.0, 5))
    assert len(pts) == 5
    for pt in pts:
        assert pt.error is None
        assert pt.exact.size == 5 and pt.semiclassical.size == 5
        assert not pt.swallowtail
        assert {lab for lab, _ in pt.stationary} == {"E+", "E-"}
    # Bias-reversal symmetry of the exact spectra.
    assert np.max(np.abs(pts[0].exact - pts[-1].exact)) < 1e-9


def test_sweep_swallowtail_flag():
    p = ModelParams(N=10, eps=0.0, v=1.0, g=-3.0 / 11.0)
    pts = sweep_epsilon(p, [0.0, 2.0])
    assert pts[0].swallowtail and not pts[1].swallowtail


def test_sweep_records_only_numerical_errors(monkeypatch):
    # A numerical failure becomes the point's error; a bug propagates.
    p = ModelParams(N=4, eps=0.0, v=1.0, g=-0.5 / 5.0)

    def fail(exc):
        def spectrum(params):
            raise exc
        return spectrum

    monkeypatch.setattr(quantize, "semiclassical_spectrum",
                        fail(QuantizationError("level count mismatch")))
    (pt,) = sweep_epsilon(p, [0.3])
    assert pt.error == "level count mismatch" and pt.semiclassical is None
    monkeypatch.setattr(quantize, "semiclassical_spectrum", fail(TypeError("bug")))
    with pytest.raises(TypeError):
        sweep_epsilon(p, [0.3])


def test_levels_bounded_by_stationary_energies():
    p = ModelParams(N=10, eps=0.8, v=1.0, g=-0.5 / 11.0)
    ex = exact_spectrum(p).energies
    e_min, e_max = act.classical_range(p)
    assert ex.min() > e_min - 0.5
    assert ex.max() < e_max + 0.5
