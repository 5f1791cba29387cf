"""Gauss-Legendre quadrature with a turning-point substitution.

Action-type integrands behave like sqrt(x - a) (or 1/sqrt) at segment
ends where the orbit touches a turning point.  Substituting
``x = a + (b - a) sin^2 theta`` removes the half-power behaviour at both
ends and restores spectral convergence, so a modest node count doubled
until stationarity is enough for ~1e-12 relative accuracy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_N0, _NMAX = 64, 4096  # node counts of the first and the last rule tried


class QuadratureError(RuntimeError):
    pass


@lru_cache(maxsize=32)
def _gl_nodes(n):
    x, w = np.polynomial.legendre.leggauss(n)
    # Map [-1, 1] -> [0, pi/2].
    theta = 0.25 * np.pi * (x + 1.0)
    return theta, 0.25 * np.pi * w


def turning_point_integral(f, a, b, rtol=1e-12):
    """Integrate f over the straight segment [a, b] (endpoints may be
    complex) using the sin^2 endpoint substitution.

    f must accept an array of points on the segment.  Node count doubles
    until the result is stationary to `rtol` (relative to the running
    magnitude), which also serves as the convergence diagnostic.
    """
    is_real = not (np.iscomplexobj(a) or np.iscomplexobj(b)
                   or isinstance(a, complex) or isinstance(b, complex))
    a = float(a) if is_real else complex(a)
    b = float(b) if is_real else complex(b)
    span = b - a
    if span == 0:
        return 0.0
    prev = None
    prev_delta = None
    n = _N0
    while n <= _NMAX:
        theta, w = _gl_nodes(n)
        s = np.sin(theta) ** 2
        pts = a + span * s
        jac = span * np.sin(2.0 * theta)
        val = np.sum(w * jac * f(pts))
        if prev is not None:
            delta = abs(val - prev)
            if delta <= rtol * (abs(val) + 1e-300) + 1e-15:
                break
            # Roundoff plateau: once the doubling stops improving while the
            # change is already tiny, the innermost nodes are resolving
            # floating-point noise near the endpoints, not the integrand;
            # the previous (less noise-amplified) value is the answer.
            if prev_delta is not None and delta >= 0.5 * prev_delta \
                    and delta <= 1e-8 * (abs(val) + 1e-300):
                val = prev
                break
            prev_delta = delta
        prev = val
        n *= 2
    else:
        raise QuadratureError(
            f"quadrature did not converge to rtol={rtol} by n={_NMAX} nodes"
        )
    if is_real:
        return float(val.real) if np.iscomplexobj(val) else float(val)
    return val
