"""Gauss-Legendre quadrature with a turning-point substitution, on rows.

Action-type integrands behave like sqrt(x - a) (or 1/sqrt) at segment
ends where the orbit touches a turning point.  Substituting
``x = a + (b - a) sin^2 theta`` removes the half-power behaviour at both
ends and restores spectral convergence, so a modest node count doubled
until stationarity is enough for ~1e-12 relative accuracy.

``turning_point_rows`` integrates many segments at once, one row per
segment: every row doubles its node count until its own value is
stationary and then drops out, so a row's result does not depend on
the other rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_N0, _NMAX = 64, 4096  # node counts of the first and the last rule tried
_CHUNK = 1 << 12      # integrand points per evaluation, at any row count


class QuadratureError(RuntimeError):
    pass


@lru_cache(maxsize=None)
def _gl_nodes(n):
    """The substituted n-point rule on [0, 1]: nodes sin^2 theta and
    weights w sin 2 theta, theta in [0, pi/2]."""
    x, w = np.polynomial.legendre.leggauss(n)
    theta = 0.25 * np.pi * (x + 1.0)
    return np.sin(theta) ** 2, 0.25 * np.pi * w * np.sin(2.0 * theta)


def turning_point_rows(f, a, b, rtol=1e-12):
    """Integrate over the straight segments [a[i], b[i]] (endpoints may be
    complex) using the sin^2 endpoint substitution.

    ``f(rows, pts)`` returns the integrand of segment ``rows[j]`` at the
    points ``pts[j]``, an array of shape (len(rows), n).  Each row's node
    count doubles until its value is stationary to `rtol` (relative to
    the running magnitude), which also serves as the convergence
    diagnostic.  Returns one value per segment, real for real endpoints.
    """
    dtype = complex if np.iscomplexobj(a) or np.iscomplexobj(b) else float
    a, b = (x.ravel() for x in np.broadcast_arrays(np.asarray(a, dtype), np.asarray(b, dtype)))
    span = b - a
    out = np.zeros(span.shape, dtype)
    rows = np.flatnonzero(span != 0)
    lo, width = a[rows, None], span[rows, None]  # the open rows' segments
    prev, prev_delta = None, np.inf
    n = _N0
    while rows.size:
        if n > _NMAX:
            raise QuadratureError(
                f"quadrature did not converge to rtol={rtol} by n={_NMAX} nodes"
            )
        s, w = _gl_nodes(n)
        step = max(1, _CHUNK // n)
        val = np.concatenate([
            np.sum(w * width[i:i + step] * f(rows[i:i + step], lo[i:i + step] + width[i:i + step] * s),
                   axis=-1)
            for i in range(0, rows.size, step)
        ])
        if prev is not None:
            delta = np.abs(val - prev)
            mag = np.abs(val) + 1e-300
            done = delta <= rtol * mag + 1e-15
            # Roundoff plateau: once the doubling stops improving while the
            # change is already tiny, the innermost nodes are resolving
            # floating-point noise near the endpoints, not the integrand;
            # the previous (less noise-amplified) value is the answer.
            plateau = ~done & (delta >= 0.5 * prev_delta) & (delta <= 1e-8 * mag)
            val = np.where(plateau, prev, val)
            done |= plateau
            out[rows[done]] = val[done].real if dtype is float else val[done]
            rows, val, prev_delta, lo, width = (x[~done] for x in (rows, val, delta, lo, width))
        prev = val
        n *= 2
    return out

