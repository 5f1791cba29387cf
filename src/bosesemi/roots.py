"""Polynomial roots for degree <= 4.

Turning points and fixed points both reduce to quartic equations after
squaring a square root; `quartic_roots` returns all complex roots so the
caller can filter squaring artifacts by back-substitution.  It takes the
companion-matrix roots and polishes them with Newton steps, which stays
accurate near double roots (a bifurcation or a barrier top), where
closed-form Ferrari/Cardano roots lose several digits.
"""

from __future__ import annotations

import numpy as np


def quartic_roots(a, b, c, d, e):
    """All roots of a x^4 + ... + e, highest degree first, any of the
    leading coefficients may vanish."""
    coeffs = np.array([a, b, c, d, e], dtype=float)
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        return np.array([], dtype=complex)
    nz = np.flatnonzero(np.abs(coeffs) > 1e-14 * scale)
    coeffs = coeffs[nz[0]:]
    if coeffs.size <= 1:
        return np.array([], dtype=complex)
    return _polish(coeffs, np.roots(coeffs))


def _polish(coeffs, roots):
    """A few Newton steps on the original polynomial to tighten each root."""
    der = np.polyder(coeffs)
    roots = np.asarray(roots, dtype=complex)
    for _ in range(3):
        fval = np.polyval(coeffs, roots)
        dval = np.polyval(der, roots)
        step = np.where(dval != 0, fval / np.where(dval == 0, 1, dval), 0.0)
        # Keep the step bounded so a near-degenerate derivative cannot
        # throw a root across the spectrum.
        scale = 1.0 + np.abs(roots)
        step = np.where(np.abs(step) > 0.5 * scale, 0.0, step)
        roots = roots - step
    return roots


def real_roots(roots):
    """Filter (complex) roots down to the real ones.

    Near-degenerate real pairs can acquire a small spurious imaginary
    part, so imaginary parts up to 1e-7 relative to the root magnitude
    count as zero.
    """
    roots = np.asarray(roots, dtype=complex)
    keep = np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots))
    return np.sort(roots[keep].real)
