"""Complex log-gamma via the Lanczos approximation, and its derivative.

Only the continuous imaginary part along the line Re z = 1/2 is needed
(the barrier connection phase), but the full log-gamma is exposed since
it costs nothing extra and is easy to validate against high-precision
references.  Its domain is the half-plane Re z >= 1/2; no reflection
formula continues it further.  The digamma function, the same series
differentiated term by term, gives the connection phase its slope.
"""

from __future__ import annotations

import numpy as np

# Lanczos coefficients, g = 7, 9 terms.  Good to ~1e-13 relative for
# Re z >= 1/2.
_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)

_HALF_LOG_TWO_PI = 0.5 * np.log(2.0 * np.pi)


def log_gamma(z):
    """log Gamma(z) for complex z with Re z >= 1/2 (or an array of them),
    principal branch continued in Im; raises ``ValueError`` for
    Re z < 1/2.

    The imaginary part is computed without mod-2pi wrapping, which is what
    phase formulas built on arg Gamma require.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 0.5):
        raise ValueError("log_gamma is defined here for Re z >= 1/2 only")
    zz = z - 1.0
    series, t = _lanczos(zz)[0], zz + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(series)
    return out[()]


def _lanczos(zz):
    """The Lanczos series at z = zz + 1 and its derivative in z."""
    series, slope = _LANCZOS_C[0], 0.0
    for k in range(1, len(_LANCZOS_C)):
        series = series + _LANCZOS_C[k] / (zz + k)
        slope = slope - _LANCZOS_C[k] / (zz + k) ** 2
    return series, slope


def _re_digamma_half_line(x):
    """Re psi(1/2 + i x), psi = d log Gamma / dz: ``log_gamma``'s formula
    differentiated term by term, good to ~1e-13 absolute; even in x."""
    zz = -0.5 + 1j * np.asarray(x, dtype=float)
    series, slope = _lanczos(zz)
    t = zz + _LANCZOS_G + 0.5
    return (np.log(t) + (zz + 0.5) / t - 1.0 + slope / series).real


def arg_gamma_half_line(x):
    """arg Gamma(1/2 + i x), continuous in x (odd function)."""
    return log_gamma(0.5 + 1j * np.asarray(x, dtype=float)).imag
