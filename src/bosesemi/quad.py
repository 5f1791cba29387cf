"""Nested Fejer quadrature with a turning-point substitution, on rows.

Action-type integrands behave like sqrt(x - a) (or 1/sqrt) at segment
ends where the orbit touches a turning point.  Substituting
``x = a + (b - a) sin^2 theta`` removes the half-power behaviour at both
ends and restores spectral convergence, so a modest rule doubled until
stationarity is enough for ~1e-12 relative accuracy.

The rule is Fejer's second rule, the interior points of Clenshaw-Curtis:
rule n has the n - 1 nodes x = cos(k pi / n), k = 1 .. n - 1, and its
nodes are rule 2n's even-k nodes.  So a doubling evaluates the
integrand only at the n new odd-k nodes and reuses every old value under
the new weights (Waldvogel, BIT 46, 195, 2006; Trefethen, SIAM Rev. 50,
67, 2008).

``turning_point_rows`` integrates many segments at once, one row per
segment: every row doubles its rule until its own value is stationary
and then drops out, so a row's result does not depend on the other rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Intervals n of the first and the last rule tried; rule n has n - 1 points.
_N0, _NMAX = 32, 4096
_CHUNK = 1 << 12  # values held per chunk of rows (rows x points of the rule)


class QuadratureError(RuntimeError):
    pass


def _fejer(n):
    """Fejer's second rule with n intervals on [-1, 1]: the angles
    phi_k = k pi / n of its nodes x = -cos phi_k, k = 1 .. n - 1, and the
    weights w_k = (4/n) sin phi_k sum_(j <= n/2) sin((2j - 1) phi_k) / (2j - 1).

    The weights are summed directly, in O(n) memory; each sine is looked
    up at the exact integer multiple (2j - 1) k mod 2n of pi / n.
    """
    k = np.arange(1, n)
    table = np.sin(np.arange(2 * n) * np.pi / n)
    m, total = k.copy(), np.zeros(n - 1)
    for j in range(1, n // 2 + 1):
        total += table[m] / (2 * j - 1)
        m = (m + 2 * k) % (2 * n)
    phi = k * np.pi / n
    return phi, 4.0 / n * np.sin(phi) * total


@lru_cache(maxsize=None)
def _rule(n):
    """Rule n substituted onto [0, 1]: nodes sin^2 t and weights (pi/4) w sin 2t,
    t = pi u / 2 in (0, pi/2), in ascending order.  u = (1 + x)/2 =
    sin^2(phi/2) and 1 - u = cos^2(phi/2) come from phi, so nodes and
    weights near both ends keep full relative accuracy."""
    phi, w = _fejer(n)
    sin_t = np.sin(0.5 * np.pi * np.sin(0.5 * phi) ** 2)
    return sin_t ** 2, 0.5 * np.pi * w * sin_t * np.sin(0.5 * np.pi * np.cos(0.5 * phi) ** 2)


def turning_point_rows(f, a, b, rtol=1e-12):
    """Integrate over the straight segments [a[i], b[i]] (endpoints may be
    complex) using the sin^2 endpoint substitution.

    ``f(rows, pts)`` returns the integrand of segment ``rows[j]`` at the
    points ``pts[j]``, an array of shape (len(rows), n).  Each row's rule
    doubles until its value is stationary to `rtol` (relative to the
    running magnitude), which also serves as the convergence diagnostic;
    no point of a row is evaluated twice.  Returns one value per segment,
    real for real endpoints.
    """
    dtype = complex if np.iscomplexobj(a) or np.iscomplexobj(b) else float
    a, b = (x.ravel() for x in np.broadcast_arrays(np.asarray(a, dtype), np.asarray(b, dtype)))
    span = b - a
    out = np.zeros(span.shape, dtype)
    rows = np.flatnonzero(span != 0)
    # The open rows: segments, integrand values in order of k, and the
    # value and its change at the last rule.
    lo, width, prev_delta = a[rows], span[rows], np.full(rows.size, np.inf)
    vals = prev = None
    n = 2 * _N0  # the rule of the first check
    while rows.size:
        if n > _NMAX:
            raise QuadratureError(
                f"quadrature did not converge to rtol={rtol} by {n // 2 - 1} points"
            )
        s, w = _rule(n)
        step = max(1, _CHUNK // n)
        kept = []
        # Chunk by chunk, so that only the rows left open keep their values.
        for i in range(0, rows.size, step):
            r = slice(i, i + step)
            x0, dx = lo[r, None], width[r, None]
            if vals is None:  # rule n/2 first: the even-k nodes of rule n
                old = f(rows[r], x0 + dx * s[1::2])
                before = np.add.reduce(_rule(n // 2)[1] * old, axis=-1) * width[r]
            else:
                old, before = vals[r], prev[r]
            new = f(rows[r], x0 + dx * s[::2])
            grown = np.empty((len(x0), n - 1), np.result_type(new, old))
            grown[:, ::2], grown[:, 1::2] = new, old
            val = np.add.reduce(w * grown, axis=-1) * width[r]
            delta = np.abs(val - before)
            mag = np.abs(val) + 1e-300
            done = delta <= rtol * mag + 1e-15
            # Roundoff plateau: once the doubling stops improving while the
            # change is already tiny, the innermost nodes are resolving
            # floating-point noise near the endpoints, not the integrand;
            # the previous (less noise-amplified) value is the answer.
            plateau = ~done & (delta >= 0.5 * prev_delta[r]) & (delta <= 1e-8 * mag)
            val = np.where(plateau, before, val)
            done |= plateau
            out[rows[r][done]] = val[done].real if dtype is float else val[done]
            keep = ~done
            if keep.any():
                kept.append(tuple(x[keep] for x in (rows[r], lo[r], width[r], grown, val, delta)))
        if not kept:
            break
        rows, lo, width, vals, prev, prev_delta = (
            kept[0] if len(kept) == 1 else (np.concatenate(x) for x in zip(*kept)))
        n *= 2
    return out
