"""Polynomial roots for degree <= 4.

Turning points and fixed points both reduce to quartic equations after
squaring a square root; `quartic_rows` returns all complex roots so the
caller can filter squaring artifacts by back-substitution.  It takes the
companion-matrix roots and polishes them with Newton steps, which stays
accurate near double roots (a bifurcation or a barrier top), where
closed-form Ferrari/Cardano roots lose several digits.  Many quartics
are solved at once: one eigenvalue call on the stacked companion
matrices of each degree and one vectorised polish.
"""

from __future__ import annotations

import numpy as np


def quartic_rows(coeffs):
    """The roots of every row a x^4 + ... + e of the (rows, 5) array
    ``coeffs``, highest degree first; any of a row's leading coefficients
    may vanish.  Returns a complex (rows, 4) array, each row's roots
    first and NaN after them."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 5)
    mag = np.abs(coeffs)
    # A row's degree counts from its first coefficient above 1e-14 of its
    # largest; rows of one degree share a stacked eigenvalue call.
    big = mag > 1e-14 * np.max(mag, axis=1, keepdims=True)
    first = np.where(big.any(axis=1), np.argmax(big, axis=1), 5)
    out = np.full((len(coeffs), 4), np.nan, dtype=complex)
    for start in sorted(set(first.tolist()) & {0, 1, 2, 3}):
        rows = np.flatnonzero(first == start)
        c = coeffs[rows, start:]
        deg = c.shape[1] - 1
        comp = np.zeros((len(rows), deg, deg))
        comp[:, 1:, :-1] = np.eye(deg - 1)
        comp[:, 0, :] = -c[:, 1:] / c[:, :1]
        out[rows, :deg] = _polish(c, np.linalg.eigvals(comp))
    return out


def _polish(coeffs, roots):
    """A few Newton steps on each row's original polynomial to tighten
    its roots; one polynomial with a 1-D coeffs."""
    coeffs = np.atleast_2d(coeffs)
    roots = np.asarray(roots, dtype=complex)
    shape, roots = roots.shape, roots.reshape(len(coeffs), -1)
    # Coefficients as columns, highest degree first, one per row.
    cols = coeffs.T[:, :, None]
    der = cols[:-1] * np.arange(len(cols) - 1, 0, -1)[:, None, None]
    for _ in range(3):
        fval = _horner(cols, roots)
        dval = _horner(der, roots)
        step = np.where(dval != 0, fval / np.where(dval == 0, 1, dval), 0.0)
        # Keep the step bounded so a near-degenerate derivative cannot
        # throw a root across the spectrum.
        scale = 1.0 + np.abs(roots)
        step = np.where(np.abs(step) > 0.5 * scale, 0.0, step)
        roots = roots - step
    return roots.reshape(shape)


def _horner(cols, x):
    """Each row's polynomial at that row's points x, by Horner's rule."""
    y = cols[0] + 0.0 * x
    for c in cols[1:]:
        y = y * x + c
    return y


def real_roots(roots):
    """Filter (complex) roots down to the real ones.

    Near-degenerate real pairs can acquire a small spurious imaginary
    part, so imaginary parts up to 1e-7 relative to the root magnitude
    count as zero.
    """
    roots = np.asarray(roots, dtype=complex)
    keep = np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots))
    return np.sort(roots[keep].real)
