"""Eigen-decomposition of real symmetric tridiagonal matrices.

The Hamiltonian in the number basis is exactly tridiagonal, so this is
the whole linear-algebra core of the exact side.

- Eigenvalues alone: LAPACK through ``np.linalg.eigvalsh`` on the dense
  matrix while it fits in 1 MB (n <= 350); above that, Sturm-count bisection
  (LAPACK's ``dstebz``) in O(n) memory, the pivots counted by their IEEE
  sign bits (Demmel, Dhillon and Ren 1995; Marques, Riedy and Voemel 2006,
  LAPACK's ``dlaneg``), so the large-N level densities never form the matrix.
- With eigenvectors: LAPACK through ``np.linalg.eigh`` on the dense
  matrix.  A matrix equal to its own reflection i -> n-1-i (the model at
  eps = 0) is diagonalized on its even and odd blocks, so a doublet that
  is degenerate below roundoff still comes out as two parity states.
"""

from __future__ import annotations

import numpy as np

_DENSE_MAX_N = 350  # a dense 350 x 350 float64 matrix takes 980 kB


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
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("matrix entries must be finite")
    if not want_vectors:
        dense = d.size <= _DENSE_MAX_N
        return (np.linalg.eigvalsh(dense_tridiagonal(d, e)) if dense else _bisect(d, e),)
    w, V = _parity_eigh(d, e)
    big = np.abs(V) > 1e-12 * np.max(np.abs(V), axis=0)
    V *= np.where(V[np.argmax(big, axis=0), np.arange(d.size)] < 0, -1.0, 1.0)
    return w, V


def dense_tridiagonal(diag, offdiag):
    """The symmetric tridiagonal matrix as one dense n x n array."""
    n = diag.size
    h = np.zeros((n, n))
    for start, band in ((0, diag), (1, offdiag), (n, offdiag)):
        h.reshape(-1)[start :: n + 1] += band
    return h


@np.errstate(divide="ignore", over="ignore")
def _bisect(d, e):
    """All eigenvalues by bisection on the Sturm count: the number of
    negative pivots of T - x I equals the number of eigenvalues below x.
    The pivots are unguarded and counted by their IEEE sign bits (Demmel,
    Dhillon and Ren, ETNA 3, 116, 1995; Marques, Riedy and Voemel, SIAM J.
    Sci. Comput. 28, 1613, 2006): a zero pivot makes the next one infinite,
    and the pair still counts one negative pivot."""
    e2 = e**2
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    lo, hi = np.min(d - radius), np.max(d + radius)
    pivmin = np.finfo(float).tiny * np.max(e2, initial=1.0)
    rows = list(zip(d[1:].tolist(), e2.tolist()))
    blocks = [rows[s : s + 32] for s in range(0, e.size, 32)]
    k, a, b = np.arange(d.size), np.full(d.size, lo), np.full(d.size, hi)
    q, r, signs = np.empty(d.size), np.empty(d.size), np.empty((32, d.size), dtype=bool)
    # Halving the Gershgorin width hi - lo <= 2 |T| 52 times leaves each
    # midpoint within eps |T| of its eigenvalue.
    for _ in range(np.finfo(float).nmant):
        x = 0.5 * (a + b)
        np.subtract(d[0], x, out=q)
        count = np.zeros(d.size, dtype=int)
        for block in blocks:
            for sign, (di, e2i) in zip(signs, block):
                if e2i:
                    np.signbit(q, out=sign)
                    np.divide(e2i, q, out=r)
                    np.subtract(di, x, out=q)
                    q -= r
                else:  # no pivot follows from q: it counts if q < pivmin
                    np.less(q, pivmin, out=sign)
                    np.subtract(di, x, out=q)
            count += np.count_nonzero(signs[: len(block)], axis=0)
        below = count + (q < pivmin) > k  # the last pivot, likewise
        a, b = np.where(below, a, x), np.where(below, x, b)
    return 0.5 * (a + b)


def _parity_eigh(d, e):
    """Dense eigh, split into the even and odd blocks of the reflection
    i -> n-1-i when the matrix equals its own reflection exactly."""
    n = d.size
    h = dense_tridiagonal(d, e)
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
