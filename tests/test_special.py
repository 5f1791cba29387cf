import mpmath
import numpy as np
import pytest

from bosesemi.actions import phase_correction
from bosesemi.special import arg_gamma_half_line, log_gamma


@pytest.mark.parametrize("x", [0.01, 0.1, 0.5, 1.0, 5.0, 10.0])
def test_arg_gamma_against_mpmath(x):
    mpmath.mp.dps = 40
    ref = float(mpmath.im(mpmath.loggamma(mpmath.mpc(0.5, x))))
    assert abs(arg_gamma_half_line(x) - ref) < 1e-10


def test_log_gamma_real_axis():
    mpmath.mp.dps = 30
    for z in [0.5, 1.0, 2.5, 7.3, 0.51]:
        assert abs(log_gamma(z) - float(mpmath.loggamma(z))) < 1e-12 * (1 + abs(log_gamma(z)))


def test_log_gamma_complex_points():
    mpmath.mp.dps = 30
    for z in [0.5 + 3j, 2.0 - 1j, 0.5 + 40j, 1.5 + 0.1j]:
        ref = complex(mpmath.loggamma(z))
        assert abs(log_gamma(z) - ref) < 1e-10 * (1 + abs(ref))


def test_arg_continuous_no_wrapping():
    # The phase formulas need the analytically continued argument, which
    # grows like x log x without 2*pi jumps.
    xs = np.linspace(0.01, 30.0, 400)
    vals = np.array([arg_gamma_half_line(x) for x in xs])
    assert np.all(np.abs(np.diff(vals)) < 0.5)
    assert vals[-1] > 50.0


def test_arg_gamma_odd():
    for x in [0.3, 2.0, 11.0]:
        assert arg_gamma_half_line(-x) == pytest.approx(-arg_gamma_half_line(x), abs=1e-13)


def test_phase_correction_limits():
    assert phase_correction(0.0) == 0.0
    assert abs(phase_correction(10.0)) < 0.01
    # Large-argument falloff ~ 1/(24 x).
    assert phase_correction(20.0) == pytest.approx(1.0 / (24.0 * 20.0), rel=1e-2)
    assert phase_correction(-5.0) == pytest.approx(-phase_correction(5.0), abs=1e-12)


def test_phase_correction_against_high_precision():
    mpmath.mp.dps = 40
    x = 0.5
    ref = float(mpmath.im(mpmath.loggamma(mpmath.mpc(0.5, x))) - x * mpmath.log(x) + x)
    assert phase_correction(x) == pytest.approx(ref, abs=1e-12)


def test_log_gamma_domain_is_the_right_half_plane():
    # No caller needs Re z < 1/2, so no reflection formula serves it.
    with pytest.raises(ValueError):
        log_gamma(0.3)
    with pytest.raises(ValueError):
        log_gamma(np.array([0.5 + 1j, 0.49 - 2j]))
    assert log_gamma(0.5) == pytest.approx(0.5 * np.log(np.pi), rel=1e-13)
