from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from bosesemi import actions as act
from bosesemi import quantize
from bosesemi.model import ModelParams
from bosesemi.quantize import quantize_single, semiclassical_spectrum
from bosesemi.quantum import exact_spectrum
from oracles import walked_level


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(N=st.integers(2, 30),
       g_ns=st.floats(-12.0, -0.5),
       eps=st.one_of(st.just(0.0), st.floats(-2.5, 2.5)),
       v=st.sampled_from([-1.0, 1.0]))
def test_semiclassical_spectrum_tracks_exact(N, g_ns, eps, v):
    # Supercritical interaction across biases, symmetric wells included,
    # and either sign of the coupling: every level is found, in order,
    # within a tenth of a mean spacing.  A doublet split below roundoff
    # (N=17, g*Ns=-12, eps=0: 2 ulp in the exact spectrum) may give two
    # equal levels.
    p = ModelParams(N=N, eps=eps, v=v, g=g_ns / (N + 1))
    sc = semiclassical_spectrum(p).energies
    ex = exact_spectrum(p).energies
    e_min, e_max = act.classical_range(p)
    assert sc.size == N + 1
    assert np.all(np.diff(sc) >= 0)
    assert e_min <= sc[0] and sc[-1] <= e_max
    assert np.max(np.abs(sc - ex)) <= 0.1 * (ex[-1] - ex[0]) / N


@settings(max_examples=4, derandomize=True, deadline=None, database=None)
@given(N=st.integers(100, 400),
       g_ns=st.floats(-12.0, -0.5),
       eps=st.one_of(st.just(0.0), st.floats(-2.5, 2.5)))
def test_semiclassical_spectrum_tracks_exact_at_large_n(N, g_ns, eps):
    # Large N, where roundoff splits the double roots at the well minima
    # into slivers the contour must not count as orbits; the assertions
    # are those of the test above.
    test_semiclassical_spectrum_tracks_exact.hypothesis.inner_test(N, g_ns, eps, 1.0)


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(N=st.integers(1, 30),
       eps=st.floats(-1000.0, 1000.0),
       v=st.sampled_from([-1.0, 1.0]))
def test_linear_model_spectrum_is_exact(N, eps, v):
    # Without interaction the quantization rule is exact, and a strong
    # bias squeezes the extremal orbits against the rim.
    p = ModelParams(N=N, eps=eps, v=v, g=0.0)
    sc = semiclassical_spectrum(p).energies
    ex = exact_spectrum(p).energies
    assert sc.size == N + 1
    assert np.max(np.abs(sc - ex)) <= 1e-10 * (ex[-1] - ex[0]) / N


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(N=st.integers(1, 1000),
       g_ns=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)),
       eps=st.one_of(st.just(0.0), st.floats(-3.0, 3.0), st.floats(-1000.0, 1000.0)),
       level=st.floats(0.0, 1.0))
@example(N=855, g_ns=-1.0188630399846659, eps=0.0, level=0.0)
@example(N=316, g_ns=-7.077743885141869, eps=-2.965634713199182, level=175 / 316)
def test_single_level_newton_matches_the_walked_root(N, g_ns, eps, level):
    # Over the strong-bias plane, single and double wells alike, and at any
    # level n = level * N, the Newton steps on S and the period stop where
    # the slope-free refiner walked down to adjacent floats does, to 1e-12
    # mean spacings.  A fixed stop at Newton steps below 1.5e-8 energy
    # scales, without the error estimate, missed by 6.1e-12 and 4.0e-12 at
    # the two explicit examples.
    n = int(round(level * N))
    p = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    e_min, e_max = act.classical_range(p)
    assert abs(quantize_single(p, n) - walked_level(p, n)) <= 1e-12 * (e_max - e_min) / N


def _no_slope(params, info, Er, *record):
    return np.full(len(Er), np.nan), np.full(len(Er), np.nan)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(N=st.integers(2, 200),
       g_ns=st.floats(-12.0, -1.2),
       eps=st.one_of(st.just(0.0), st.floats(-2.5, 2.5)))
@example(N=400, g_ns=-3.0, eps=0.6)
def test_newton_spectrum_matches_the_slope_free_spectrum(N, g_ns, eps):
    # Over supercritical double and single wells, every level found by
    # Newton steps on the connection condition and its slope lies within
    # 1e-12 mean spacings of the level the refiner finds with every slope
    # NaN, that is by Illinois steps walked to within an ulp of the target.
    # At the explicit example a stop on the first Newton step, its error
    # estimated from the false-position bracket before it, missed by
    # 1.25e-12 spacings.
    p = ModelParams(N=N, eps=eps, v=1.0, g=g_ns / (N + 1))
    newton = semiclassical_spectrum(p).energies
    with mock.patch.object(quantize, "_dw_slope", _no_slope):
        plain = semiclassical_spectrum(p).energies
    assert np.max(np.abs(newton - plain)) <= 1e-12 * (plain[-1] - plain[0]) / N
