"""Eigen-decomposition of real symmetric tridiagonal matrices.

The Hamiltonian in the number basis is exactly tridiagonal, so this is
the whole linear-algebra core of the exact side.

- Eigenvalues alone: Sturm-count bisection (Barth, Martin and Wilkinson,
  Numer. Math. 9, 1967; LAPACK's ``dstebz``), all eigenvalues at once.
  It needs O(n) memory, so the large-N level densities never form the
  dense matrix.
- With eigenvectors: LAPACK through ``np.linalg.eigh`` on the dense
  matrix.  A matrix equal to its own reflection i -> n-1-i (the model at
  eps = 0) is diagonalized on its even and odd blocks, so a doublet that
  is degenerate below roundoff still comes out as two parity states.
"""

from __future__ import annotations

import numpy as np


def tridiag_eigh(diag, offdiag, want_vectors=False):
    """Eigen-decomposition of the symmetric tridiagonal matrix with main
    diagonal `diag` (length n) and sub/super-diagonal `offdiag` (n - 1).

    Returns (w,) or (w, V) with w ascending and V's columns the matching
    eigenvectors, each flipped so its first nonzero component is positive.
    """
    d = np.array(diag, dtype=float)
    e = np.array(offdiag, dtype=float)
    if e.size != d.size - 1:
        raise ValueError(f"offdiag must have length {d.size - 1}")
    if not want_vectors:
        return (_bisect(d, e),)
    w, V = _parity_eigh(d, e)
    big = np.abs(V) > 1e-12 * np.max(np.abs(V), axis=0)
    V *= np.where(V[np.argmax(big, axis=0), np.arange(d.size)] < 0, -1.0, 1.0)
    return w, V


def _bisect(d, e):
    """All eigenvalues by bisection on the Sturm count: the number of
    negative pivots of T - x I equals the number of eigenvalues below x."""
    e2 = e**2
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    lo, hi = np.min(d - radius), np.max(d + radius)
    # A pivot q with |q| < pivmin counts as -pivmin, so e2 / q stays finite.
    pivmin = np.finfo(float).tiny * np.max(e2, initial=1.0)
    k = np.arange(d.size)
    a, b = np.full(d.size, lo), np.full(d.size, hi)
    # Halving the Gershgorin width hi - lo <= 2 |T| 52 times leaves each
    # midpoint within eps |T| of its eigenvalue.
    for _ in range(np.finfo(float).nmant):
        x = 0.5 * (a + b)
        q = d[0] - x
        count = np.zeros(d.size, dtype=int)
        for di, e2i in zip(d[1:], e2):
            count += q < pivmin
            q = di - x - e2i / np.where(np.abs(q) < pivmin, -pivmin, q)
        below = count + (q < pivmin) > k
        a, b = np.where(below, a, x), np.where(below, x, b)
    return 0.5 * (a + b)


def _parity_eigh(d, e):
    """Dense eigh, split into the even and odd blocks of the reflection
    i -> n-1-i when the matrix equals its own reflection exactly."""
    n = d.size
    h = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    if not (np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])):
        return np.linalg.eigh(h)
    flip, m = np.eye(n)[::-1], n // 2
    w, V = [], []
    for basis in ((np.eye(n) + flip)[:, : n - m], (np.eye(n) - flip)[:, :m]):
        basis /= np.linalg.norm(basis, axis=0)
        wb, vb = np.linalg.eigh(basis.T @ h @ basis)
        w.append(wb)
        V.append(basis @ vb)
    w, V = np.concatenate(w), np.hstack(V)
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]
