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

Each Gauss-Legendre rule is built once, by Newton's method on the
Legendre recurrence in the angle theta of x = cos theta: O(n) memory
and O(n^2) work, with no n x n eigenproblem, and full relative accuracy
at the nodes nearest the ends, the ones next to the turning points.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_N0, _NMAX = 64, 4096  # node counts of the first and the last rule tried
_CHUNK = 1 << 12      # integrand points per evaluation, at any row count


class QuadratureError(RuntimeError):
    pass


def _legendre(n, d):
    """P_n and D_n = P_n - P_(n-1) at x = 1 - d, by the three-term
    recurrence written for the differences, (k+1) D_(k+1) = k D_k -
    (2k+1) d P_k: no term rounds x, so a node near x = 1 keeps its
    relative accuracy in d."""
    p, diff = 1.0 - d, -d
    for k in range(1, n):
        diff = (k * diff - (2 * k + 1) * d * p) / (k + 1)
        p = p + diff
    return p, diff


@lru_cache(maxsize=None)
def _gl_nodes(n):
    """The substituted n-point rule on [0, 1]: nodes sin^2 t and weights
    w sin 2t, t in [0, pi/2], for the Gauss-Legendre nodes x = cos theta
    and weights w.

    Newton's method on P_n(cos theta) = 0 in theta, from Tricomi's
    guesses, finds the ceil(n/2) nodes with x >= 0 and mirrors them
    (Hale and Townsend, SIAM J. Sci. Comput. 35, A652, 2013), in O(n)
    memory.  Each end's distance from its endpoint comes from theta, so
    nodes and weights near both ends keep full relative accuracy.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    phi = (4 * k - 1) * np.pi / (4 * n + 2)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n**3)) * np.cos(phi))
    for _ in range(10):
        d = 2.0 * np.sin(0.5 * theta) ** 2
        p, diff = _legendre(n, d)
        # n (P_(n-1) - x P_n) = -sin(theta) dP_n/dtheta.
        step = p * np.sin(theta) / (n * (d * p - diff))
        theta = theta + step
        # Newton's error squares: after a step under 1e-11 theta is at roundoff.
        if np.max(np.abs(step)) <= 1e-11:
            break
    # One more pass gives the weights 2 / (dP_n/dtheta)^2 at the nodes.
    d = 2.0 * np.sin(0.5 * theta) ** 2
    p, diff = _legendre(n, d)
    w = 2.0 * (np.sin(theta) / (n * (d * p - diff))) ** 2
    # u = (1 + x)/2 and 1 - u, in ascending x, each without cancellation:
    # sin^2(theta/2) at the mirrored nodes -x, cos^2(theta/2) at the nodes
    # x.  An odd n's middle node x = 0 is not mirrored.
    neg, pos = np.sin(0.5 * theta) ** 2, np.cos(0.5 * theta) ** 2
    u = np.concatenate([neg, pos[::-1][n % 2:]])
    v = np.concatenate([pos, neg[::-1][n % 2:]])
    w = np.concatenate([w, w[::-1][n % 2:]])
    sin_t = np.sin(0.5 * np.pi * u)
    return sin_t ** 2, 0.5 * np.pi * w * sin_t * np.sin(0.5 * np.pi * v)


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

