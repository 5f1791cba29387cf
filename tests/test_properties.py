import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bosesemi import actions as act
from bosesemi.model import ModelParams
from bosesemi.quantize import semiclassical_spectrum
from bosesemi.quantum import exact_spectrum


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
