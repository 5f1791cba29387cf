import sys
import threading
import time
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest

from bosesemi import actions as act
from bosesemi import wavefun as wf
from bosesemi.model import ModelParams
from bosesemi.quantize import quantize_single, semiclassical_spectrum
from bosesemi.quantum import exact_spectrum, momentum_representation
from oracles import ho_phase, oscillator_inverse

BIASED14 = ModelParams(N=14, eps=0.6, v=1.0, g=-0.6 / 15.0)
SYM14 = ModelParams(N=14, eps=0.0, v=1.0, g=-0.9 / 15.0)
BIASED100 = ModelParams(N=100, eps=0.6, v=1.0, g=-0.6 / 101.0)
# The parameter sets and states of the benchmark's ``states`` workload.
STATES = [(BIASED14, 0), (SYM14, 2)] + [(BIASED100, n) for n in range(5)]


def test_hermite_weight_against_mpmath():
    # H_n(xi)^2 e^(-xi^2) / (2^n n!) at orders whose plain Hermite
    # recurrence overflows, inside and past the turning point sqrt(2n+1).
    mpmath.mp.dps = 50
    for n in (0, 1, 2, 10, 90, 400, 1500):
        xi0 = np.sqrt(2.0 * n + 1.0)
        for xi in np.linspace(-1.3 * xi0 - 2.0, 1.3 * xi0 + 2.0, 37):
            x = mpmath.mpf(float(xi))
            ref = mpmath.hermite(n, x) ** 2 * mpmath.exp(-x * x) / (2 ** n * mpmath.factorial(n))
            got = wf._hermite_weight(n, xi)
            if ref > 1e-300:
                assert got == pytest.approx(float(ref), rel=2e-12)
            else:
                assert 0.0 <= got <= 1e-299


def test_uniform_finite_at_high_excitation():
    # N=300, n=120: the unnormalised Hermite polynomial overflowed here
    # and left zeros and NaNs in the uniform form.
    params = ModelParams(N=300, eps=0.0, v=1.0, g=0.0)
    uni = wf.uniform_wavefunction(params, 120)
    assert np.all(np.isfinite(uni.values)) and np.all(uni.values > 0)
    assert uni.values.sum() == pytest.approx(1.0, abs=1e-12)
    ex = momentum_representation(exact_spectrum(params, want_vectors=True), 120)
    assert np.max(np.abs(uni.values - ex.values)) < 1e-4  # measured 6.0e-5; peak 0.027


def test_classical_density_symmetry_and_norm():
    E = quantize_single(SYM14, 2)
    lo, hi = wf._orbit_interval(SYM14, E)
    p = np.linspace(lo.p + 0.05 * (hi.p - lo.p), hi.p - 0.05 * (hi.p - lo.p), 41)
    w = wf.classical_density(SYM14, E, p)
    assert np.allclose(w, w[::-1], rtol=1e-10)
    from bosesemi.quad import turning_point_rows
    total = turning_point_rows(lambda r, x: wf.classical_density(SYM14, E, x),
                               [lo.p], [hi.p], rtol=1e-9)[0]
    assert total == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        wf.classical_density(SYM14, E, hi.p + 0.1)


def test_ground_state_concentrates_at_well_minimum():
    # The low orbit hugs the well, so the distribution it generates is
    # localized around the stationary momentum.
    from bosesemi.meanfield import fixed_points
    E = quantize_single(BIASED14, 0)
    lo, hi = wf._orbit_interval(BIASED14, E)
    pmin = min(fixed_points(BIASED14), key=lambda f: f.energy).p
    assert lo.p < pmin < hi.p
    assert hi.p - lo.p < 0.45 * 2 * BIASED14.p_max
    uni = wf.uniform_wavefunction(BIASED14, 0)
    peak_p = uni.grid[np.argmax(uni.values)] * BIASED14.hbar
    assert abs(peak_p - pmin) <= 2 * BIASED14.hbar


def test_action_phase_endpoints_and_monotonicity():
    n = 2
    E = quantize_single(SYM14, n)
    lo, hi = wf._orbit_interval(SYM14, E)
    assert wf.action_phase(SYM14, E, lo.p) == 0.0
    total = wf.action_phase(SYM14, E, hi.p - 1e-12)
    assert total == pytest.approx(np.pi * SYM14.hbar * (n + 0.5), abs=1e-8)
    ps = np.linspace(lo.p + 1e-9, hi.p - 1e-9, 30)
    vals = [wf.action_phase(SYM14, E, p) for p in ps]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValueError):
        wf.action_phase(SYM14, E, hi.p + 1.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_primitive_interior_node_count(n):
    E = quantize_single(SYM14, n)
    lo, hi = wf._orbit_interval(SYM14, E)
    ps = np.linspace(lo.p + 1e-7, hi.p - 1e-7, 4001)
    phases = wf.action_phase(SYM14, E, ps) / SYM14.hbar
    signs = np.sign(np.cos(phases - 0.25 * np.pi))
    crossings = int(np.sum(signs[1:] * signs[:-1] < 0))
    assert crossings == n


def test_primitive_three_peak_structure():
    prim = wf.primitive_wavefunction(SYM14, 2)
    v = prim.values
    peaks = [i for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]]
    assert len(peaks) == 3
    assert abs(v.sum() - 1.0) < 1e-12
    assert np.allclose(v, v[::-1], atol=1e-12)  # parity at zero bias


def test_wavefunction_normalization_all_kinds():
    spec = exact_spectrum(SYM14, want_vectors=True)
    for n in (0, 2):
        for kind_fn in (lambda m: momentum_representation(spec, m),
                        lambda m: wf.primitive_wavefunction(SYM14, m),
                        lambda m: wf.uniform_wavefunction(SYM14, m)):
            w = kind_fn(n)
            assert abs(w.values.sum() - 1.0) < 1e-12
            assert np.all(w.values >= 0)


def test_tail_decays():
    n = 0
    E = quantize_single(BIASED14, n)
    lo, hi = wf._orbit_interval(BIASED14, E)
    ps = np.linspace(hi.p + 0.2, min(hi.p + 8.0, BIASED14.p_max - 0.5), 12)
    tails = [wf.forbidden_tail(BIASED14, E, p) for p in ps]
    assert np.all(np.diff(tails) < 0)
    # Deep in the forbidden region (outermost grid momentum) the weight is
    # below 1e-8 of the peak.
    prim = wf.primitive_wavefunction(BIASED14, n)
    deep = wf.forbidden_tail(BIASED14, E, BIASED14.N * BIASED14.hbar)
    assert deep < 1e-8 * prim.values.max()


@pytest.mark.parametrize("params", [SYM14, BIASED14], ids=["SYM14", "BIASED14"])
def test_momentum_arrays_match_scalar_calls(params):
    n = 1
    E = quantize_single(params, n)
    lo, hi = wf._orbit_interval(params, E)
    inside = np.linspace(lo.p + 0.05 * (hi.p - lo.p), hi.p - 0.05 * (hi.p - lo.p), 5)
    closed = np.concatenate([[lo.p], inside, [hi.p]])
    both = np.concatenate([[0.5 * (lo.p - params.p_max)], inside,
                           [0.5 * (hi.p + params.p_max)]])
    cases = [
        (lambda p: wf.classical_density(params, E, p), inside),
        (lambda p: wf.action_phase(params, E, p), closed),
        (lambda p: wf.forbidden_tail(params, E, p), both),
        (lambda p: wf.oscillator_coordinate(params, n, E, p), both),
    ]
    for fn, ps in cases:
        scalars = [fn(float(x)) for x in ps]
        assert all(type(s) is float for s in scalars)
        arr = fn(ps)
        assert isinstance(arr, np.ndarray) and arr.shape == ps.shape
        assert np.array_equal(arr, scalars)
    for fn in (wf.classical_density, wf.action_phase):
        with pytest.raises(ValueError):
            fn(params, E, both)


def test_oscillator_coordinate_special_points():
    n = 2
    E = quantize_single(SYM14, n)
    xi0 = np.sqrt(2 * n + 1.0)
    lo, hi = wf._orbit_interval(SYM14, E)
    assert wf.oscillator_coordinate(SYM14, n, E, lo.p + 1e-10) == pytest.approx(-xi0, abs=1e-4)
    assert wf.oscillator_coordinate(SYM14, n, E, hi.p - 1e-10) == pytest.approx(xi0, abs=1e-4)
    # Bisect the momentum where the phase is half the total: xi = 0 there.
    target = np.pi * (2 * n + 1) / 4.0
    a, b = lo.p + 1e-9, hi.p - 1e-9
    for _ in range(60):
        mid = 0.5 * (a + b)
        if wf.action_phase(SYM14, E, mid) / SYM14.hbar < target:
            a = mid
        else:
            b = mid
    assert wf.oscillator_coordinate(SYM14, n, E, 0.5 * (a + b)) == pytest.approx(0.0, abs=1e-8)
    # Round trip through the phase map.
    for p in np.linspace(lo.p + 0.3, hi.p - 0.3, 7):
        xi = wf.oscillator_coordinate(SYM14, n, E, p)
        assert ho_phase(xi, xi0) == pytest.approx(
            wf.action_phase(SYM14, E, p) / SYM14.hbar, abs=1e-9)


def _oracle_xi(params, n, E, p):
    """(xi, on_orbit): ``oscillator_inverse`` at the phase or decay
    integrals the library finds at momenta p, negative below the orbit."""
    st = wf._state(params, E, p)
    ref = np.array([oscillator_inverse(t / params.hbar, n, forbidden=not on)
                    for t, on in zip(st.integral, st.on_orbit)])
    return np.where(p < st.lo.p, -ref, ref), st.on_orbit


@pytest.mark.parametrize("params,n", STATES)
def test_oscillator_coordinate_against_mpmath(params, n):
    # The Kepler-form map agrees with a 40-digit inversion of the closed
    # forms to 1e-14 at every grid momentum (measured 3.6e-15; the
    # bisection it replaced gave 4.6e-14).
    E = quantize_single(params, n)
    p = wf.momentum_grid(params) * params.hbar
    ref, _ = _oracle_xi(params, n, E, p)
    assert np.max(np.abs(wf.oscillator_coordinate(params, n, E, p) - ref)) <= 1e-14
    # 1e-10 off each turning point the same holds (measured 4.4e-16; the
    # bisection gave up to 1.1e-8), except on the orbit's upper half: there
    # xi follows the phase counted down from the top pi (2n+1)/2, which
    # rounding moves by up to an ulp, and xi by that over sqrt(2n+1-xi^2).
    lo, hi = wf._orbit_interval(params, E)
    p = np.array([lo.p - 1e-10, lo.p + 1e-10, hi.p - 1e-10, hi.p + 1e-10])
    ref, on_orbit = _oracle_xi(params, n, E, p)
    top = 0.5 * np.pi * (2 * n + 1)
    with np.errstate(divide="ignore"):
        ulp_shift = np.spacing(top) / np.sqrt(np.abs(2 * n + 1 - ref**2))
    tol = 1e-14 + np.where(on_orbit & (ref > 0), ulp_shift, 0.0)
    assert np.all(np.abs(wf.oscillator_coordinate(params, n, E, p) - ref) <= tol)


@pytest.mark.parametrize("n", [0, 1, 2, 50, 1500])
def test_oscillator_map_ends(n):
    # Phase 0 and the top phase are the turning points -xi0 and xi0, as is
    # decay 0; a decay of 1e3 lies deep in the tail (|xi| 45-81), where
    # xi is good to a few ulp.
    xi0 = np.sqrt(2 * n + 1.0)
    t = np.array([0.0, 0.5 * np.pi * (2 * n + 1), 0.0, 0.0, 1e3, 1e3])
    on_orbit = np.array([True, True, False, False, False, False])
    below = np.array([False, False, False, True, False, True])
    xi = wf._oscillator_xi(n, on_orbit, t, below)
    assert np.array_equal(xi[:4], [-xi0, xi0, xi0, -xi0])
    deep = oscillator_inverse(1e3, n, forbidden=True)
    assert xi[4] == -xi[5] == pytest.approx(deep, rel=1e-15, abs=1e-14)


def test_one_orbit_lookup_per_state(monkeypatch):
    # Each builder solves the contour at a given energy once, and reads its
    # turning points from that record once.
    params, n = ModelParams(N=100, eps=0.6, v=1.0, g=-0.6 / 101.0), 3
    E = quantize_single(params, n)
    calls = Counter()
    for name in ("_orbit", "_turning_points"):
        real = getattr(act, name)
        monkeypatch.setattr(act, name, lambda *a, _f=real, _n=name:
                            calls.update([_n]) or _f(*a))
    for build in (wf.primitive_wavefunction, wf.uniform_wavefunction):
        calls.clear()
        build(params, n, E)
        assert calls == {"_orbit": 1, "_turning_points": 1}


def test_both_forms_share_one_level_solve(monkeypatch):
    # Built without an energy, the two forms of a state share one solve of
    # its level, and each carries that level bit for bit; another state
    # or other parameters solve again.
    calls = []
    monkeypatch.setattr(wf, "quantize_single", lambda *a: calls.append(a) or quantize_single(*a))
    wf._level.cache_clear()
    prim, uni = wf.primitive_wavefunction(BIASED14, 0), wf.uniform_wavefunction(BIASED14, 0)
    assert calls == [(BIASED14, 0)]
    assert prim.energy == uni.energy == quantize_single(BIASED14, 0)
    wf.uniform_wavefunction(BIASED14, 1)
    wf.uniform_wavefunction(SYM14, 1)
    assert calls == [(BIASED14, 0), (BIASED14, 1), (SYM14, 1)]


def test_both_forms_share_one_state_record(monkeypatch):
    # Built without an energy, the two forms of a state share one contour
    # solve and one phase and one decay quadrature over the grid, and
    # compute no period; another state or other parameters compute their
    # own.  No grid momentum here lies within 1e-9 p_max of a turning
    # point, so the uniform form nudges none and integrates nothing afresh.
    states = [(BIASED100, 2), (BIASED100, 3), (SYM14, 3)]
    levels = {state: quantize_single(*state) for state in states}
    monkeypatch.setattr(wf, "quantize_single", lambda *a: levels[a])
    counts = Counter()
    for mod, name in ((act, "quartic_rows"), (act, "period_direct"),
                      (wf, "_phase"), (wf, "_decay")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _f=real, _n=name, **kw:
                            counts.update([_n]) or _f(*a, **kw))
    wf._level.cache_clear()
    for k, (params, n) in enumerate(states, start=1):
        prim, uni = wf.primitive_wavefunction(params, n), wf.uniform_wavefunction(params, n)
        assert counts == {"quartic_rows": k, "_phase": k, "_decay": k}
        assert counts["period_direct"] == 0
        assert prim.energy == uni.energy == wf._level(params, n).E
    record = wf._level(SYM14, 3)
    for values in (record.on_orbit, record.integral, record.weight):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = values[1]


def test_forms_need_no_period(monkeypatch):
    # Both forms are normalised on the grid, so neither computes a period.
    def fail(*a, **kw):
        raise AssertionError("period_direct called")

    monkeypatch.setattr(act, "period_direct", fail)
    for params, n in STATES[:3]:
        E = quantize_single(params, n)
        for build in (wf.primitive_wavefunction, wf.uniform_wavefunction):
            assert build(params, n, E).values.sum() == pytest.approx(1.0, abs=1e-12)


def test_uniform_nudges_a_grid_momentum_off_a_turning_point(monkeypatch):
    # At an energy whose lower turning point is the grid momentum -12, the
    # uniform form moves that momentum 1e-6 p_max into the orbit and
    # integrates afresh there only, leaving the state record as it was.
    from bosesemi.meanfield import momentum_potentials
    p_grid = wf.momentum_grid(BIASED14) * BIASED14.hbar
    E = float(momentum_potentials(BIASED14, p_grid[1])[0])
    record = wf._state(BIASED14, E)
    assert abs(record.lo.p - p_grid[1]) < 1e-9 * BIASED14.p_max
    kept = [a.copy() for a in record[3:6]]
    rows, solves, real, state = [], [], wf._phase, wf._state
    monkeypatch.setattr(wf, "_phase", lambda *a: rows.append(len(a[-1])) or real(*a))
    monkeypatch.setattr(act, "_orbit", lambda *a: solves.append(a))
    monkeypatch.setattr(wf, "_state", lambda *a: record if len(a) == 2 else state(*a))
    uni = wf.uniform_wavefunction(BIASED14, 0, E)
    assert rows == [1] and solves == []
    assert all(np.array_equal(a, b) for a, b in zip(record[3:6], kept))
    assert np.all(np.isfinite(uni.values)) and np.all(uni.values >= 0)
    assert 0.0 < uni.values[1] < 3.0 * max(uni.values[0], uni.values[2])


def test_level_cache_is_safe_across_threads():
    # Three threads on different states share the one-entry state cache
    # for 0.3 s; each must get its own state record, its level and every
    # array, whether its lookup hits or not.  A thread hands on the
    # interpreter lock after each pair of lookups, and switching every
    # microsecond interleaves the solves, so the states alternate in the
    # cache (measured 14-20 misses and 2,700-4,200 hits).  A memo that
    # stores its key before its level failed here on each of 3 runs.
    states = [(BIASED14, 0), (SYM14, 2), (BIASED14, 1)]
    serial = [wf._state(p, quantize_single(p, n)) for p, n in states]
    results, errors, start = [[], [], []], [], threading.Barrier(3)

    def run(i):
        try:
            start.wait(timeout=60)
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                results[i] += [wf._level(*states[i]), wf._level(*states[i])]
                time.sleep(0)
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    wf._level.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for got, want in zip(results, serial):
        assert got and all(r[:3] == want[:3] and all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(r[3:6] + r.orb, want[3:6] + want.orb)) for r in got)
    info = wf._level.cache_info()
    assert info.misses > len(states) and info.hits > 0


def test_uniform_matches_exact_ground_state():
    spec = exact_spectrum(BIASED14, want_vectors=True)
    ex = momentum_representation(spec, 0)
    uni = wf.uniform_wavefunction(BIASED14, 0)
    assert np.max(np.abs(uni.values - ex.values)) <= 0.01


def _interpolated_minima(values, grid):
    """Sub-grid node locations via a parabola through each local minimum."""
    out = []
    step = grid[1] - grid[0]
    for i in range(1, len(values) - 1):
        if values[i] <= values[i - 1] and values[i] <= values[i + 1]:
            denom = values[i - 1] - 2 * values[i] + values[i + 1]
            shift = (values[i - 1] - values[i + 1]) / (2 * denom) if denom else 0.0
            out.append(grid[i] + shift * step)
    return np.array(out)


def test_uniform_overlay_excited_state():
    spec = exact_spectrum(SYM14, want_vectors=True)
    ex = momentum_representation(spec, 2)
    uni = wf.uniform_wavefunction(SYM14, 2)
    ex_nodes = _interpolated_minima(ex.values, ex.grid)
    un_nodes = _interpolated_minima(uni.values, uni.grid)
    assert len(ex_nodes) == len(un_nodes)
    assert np.max(np.abs(ex_nodes - un_nodes)) < 0.5 * (ex.grid[1] - ex.grid[0])
    for i in range(15):
        if ex.values[i] > 0.5 * ex.values.max():
            assert uni.values[i] == pytest.approx(ex.values[i], rel=0.10)


def test_uniform_single_peak_ground_state():
    uni = wf.uniform_wavefunction(BIASED14, 0)
    v = uni.values
    peaks = [i for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]]
    assert len(peaks) == 1


def test_uniform_finite_near_turning_points():
    for params, n in ((BIASED14, 0), (SYM14, 2)):
        spec = exact_spectrum(params, want_vectors=True)
        ex = momentum_representation(spec, n)
        uni = wf.uniform_wavefunction(params, n)
        lo, hi = wf._orbit_interval(params, uni.energy)
        for tp in (lo.p, hi.p):
            i = int(np.argmin(np.abs(uni.grid * params.hbar - tp)))
            assert np.isfinite(uni.values[i])
            neighbor = max(ex.values[max(i - 1, 0)], ex.values[min(i + 1, params.N)],
                           ex.values[i])
            assert uni.values[i] < 3.0 * max(neighbor, 1e-6)


def test_uniform_unsupported_geometry():
    # Top states orbit the phase-space maximum: turning points on the
    # upper curve, outside the implemented mapping.
    with pytest.raises(act.GeometryError, match="uniform"):
        wf.uniform_wavefunction(SYM14, 14)


@pytest.mark.parametrize("n,spread", [(2, 0.08), (3, 0.08), (4, 0.02), (5, 0.02)])
def test_uniform_proportional_to_primitive_midorbit(n, spread):
    # Away from the turning points the two forms share the oscillation and
    # differ only by an overall factor (the grid renormalization transfers
    # weight differently near the divergent primitive endpoints), with the
    # envelope mismatch shrinking as n grows.
    E = quantize_single(SYM14, n)
    prim = wf.primitive_wavefunction(SYM14, n)
    uni = wf.uniform_wavefunction(SYM14, n)
    lo, hi = wf._orbit_interval(SYM14, E)
    xi0 = np.sqrt(2 * n + 1)
    ratios = []
    for i, lab in enumerate(uni.grid):
        p = lab * SYM14.hbar
        if not lo.p + 0.3 < p < hi.p - 0.3:
            continue
        xi = wf.oscillator_coordinate(SYM14, n, E, p)
        phase = wf.action_phase(SYM14, E, p) / SYM14.hbar
        if abs(xi) < 0.8 * xi0 and abs(np.cos(phase - np.pi / 4)) > 0.9:
            ratios.append(uni.values[i] / prim.values[i])
    assert len(ratios) >= 2
    assert max(ratios) / min(ratios) - 1.0 < spread


def test_envelope_consistency():
    # Averaged over the fast oscillation, the exact grid weights follow the
    # classical density times the grid spacing.
    n = 4
    spec = exact_spectrum(SYM14, want_vectors=True)
    ex = momentum_representation(spec, n)
    E = float(spec.energies[n])
    lo, hi = wf._orbit_interval(SYM14, E)
    mid_idx = [i for i, lab in enumerate(ex.grid)
               if lo.p + 0.2 * (hi.p - lo.p) < lab * SYM14.hbar < hi.p - 0.2 * (hi.p - lo.p)]
    window = ex.values[mid_idx[0]:mid_idx[-1] + 1]
    avg = window.mean()
    pmid = 0.5 * (ex.grid[mid_idx[0]] + ex.grid[mid_idx[-1]]) * SYM14.hbar
    expected = float(np.mean([wf.classical_density(SYM14, E, lab * SYM14.hbar)
                              for lab in ex.grid[mid_idx[0]:mid_idx[-1] + 1]])) * 2 * SYM14.hbar
    assert avg == pytest.approx(expected, rel=0.15)
    assert pmid == pytest.approx(0.0, abs=2.1)


@pytest.mark.parametrize("build", [wf.primitive_wavefunction, wf.uniform_wavefunction])
def test_builders_reject_bad_level_index(build):
    # With E given no quantizer checks n; the builders check it themselves.
    E = quantize_single(SYM14, 2)
    for n in (-1, SYM14.N + 1, 2.5):
        with pytest.raises(ValueError, match="level index"):
            build(SYM14, n, E)


def test_primitive_state_on_the_upper_minimum():
    # Level 3 sits within a few ulp of the upper well minimum, where the
    # upper lobe is a roundoff sliver 1e-6 wide or not yet split off.  The decay integral
    # splits at the sliver instead of integrating across it; before, the
    # level was labelled a double-well pair and had no primitive form.
    # Measured total-variation distance to exact 0.150 (levels 0-2:
    # 0.085-0.158).
    p = ModelParams(N=20, eps=0.5, v=1.0, g=-3.0 / 21.0)
    E = semiclassical_spectrum(p).energies[3]
    prim = wf.primitive_wavefunction(p, 3, E)
    ex = momentum_representation(exact_spectrum(p, want_vectors=True), 3)
    assert 0.5 * np.abs(prim.values - ex.values).sum() <= 0.2


@pytest.mark.parametrize("eps", [0.5, -0.5])
def test_primitive_state_within_ulps_of_the_upper_minimum(eps):
    # From 4 ulp below to 8 ulp above the upper well minimum its double
    # root is complex, split around an empty sliver or split into real
    # turning points.  The decay row from the orbit to the rim is cut at
    # that minimum's momentum, where |Im q| has a kink while the root is
    # unsplit; before, every energy up to 1 ulp above raised
    # QuadratureError.  Measured total-variation distance 0.150 at each.
    p = ModelParams(N=20, eps=eps, v=1.0, g=-3.0 / 21.0)
    e0 = act.barrier(p).e_min_upper
    ex = momentum_representation(exact_spectrum(p, want_vectors=True), 3)
    for k in range(-4, 9):
        prim = wf.primitive_wavefunction(p, 3, e0 + k * np.spacing(e0))
        assert 0.5 * np.abs(prim.values - ex.values).sum() <= 0.2


def _built(build, params, n):
    """(values, energy) of a builder's form of state n, or its GeometryError text."""
    try:
        wave = build(params, n)
    except act.GeometryError as exc:
        return str(exc)
    return wave.values.tolist(), wave.energy


@pytest.mark.parametrize("N,g_ns,eps,states", [
    (14, -0.6, 0.6, (0,)), (14, -0.9, 0.0, (2,)), (100, -0.6, 0.6, (0, 1, 2, 3, 4)),
    (20, -3.0, 0.0, (0, 2)), (20, -3.0, 0.5, (0, 2)),
])
def test_coupling_sign_changes_nothing(N, g_ns, eps, states):
    # Flipping one mode's sign maps v to -v: every semiclassical result at
    # v = -1 is the one at v = +1, bit for bit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos, neg = (ModelParams(N=N, eps=eps, v=v, g=g_ns / (N + 1)) for v in (1.0, -1.0))
    spec_pos, spec_neg = semiclassical_spectrum(pos), semiclassical_spectrum(neg)
    assert np.array_equal(spec_pos.energies, spec_neg.energies)
    assert spec_pos.levels == spec_neg.levels
    for n in (0, 2):
        assert quantize_single(pos, n) == quantize_single(neg, n)
    for n in states:
        for build in (wf.primitive_wavefunction, wf.uniform_wavefunction):
            assert _built(build, pos, n) == _built(build, neg, n)
