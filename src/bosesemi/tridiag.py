"""Implicit-shift QL eigensolver for real symmetric tridiagonal matrices.

The Hamiltonian in the number basis is exactly tridiagonal, so this is
the whole linear-algebra core of the exact side.  Eigenvalues cost
O(n^2); accumulating eigenvectors makes it O(n^3) with vectorized
rotations, which is ample for the matrix sizes that need vectors.
"""

from __future__ import annotations

import numpy as np


class EigensolverError(RuntimeError):
    pass


def tridiag_eigh(diag, offdiag, want_vectors=False, max_iter=50):
    """Eigen-decomposition of the symmetric tridiagonal matrix with main
    diagonal `diag` (length n) and sub/super-diagonal `offdiag` (n - 1).

    Returns (w,) or (w, V) with w ascending and V's columns the matching
    eigenvectors, each flipped so its first nonzero component is positive.
    """
    d = np.array(diag, dtype=float)
    n = d.size
    e = np.zeros(n)
    e[: n - 1] = np.asarray(offdiag, dtype=float)
    if np.asarray(offdiag).size != n - 1:
        raise ValueError(f"offdiag must have length {n - 1}")
    V = np.eye(n) if want_vectors else None
    eps = np.finfo(float).eps

    for l in range(n):
        for iteration in range(max_iter + 1):
            # Find the active block end: first negligible subdiagonal.
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
                m += 1
            if m == l:
                break
            if iteration == max_iter:
                raise EigensolverError(
                    f"QL failed to converge for eigenvalue {l} after {max_iter} iterations"
                )
            # Implicit Wilkinson-like shift from the leading 2x2.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s, c = 1.0, 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = np.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if V is not None:
                    col_i = V[:, i].copy()
                    V[:, i + 1], V[:, i] = s * col_i + c * V[:, i + 1], c * col_i - s * V[:, i + 1]
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0

    order = np.argsort(d, kind="stable")
    w = d[order]
    if V is None:
        return (w,)
    V = V[:, order]
    # Deterministic sign: first component of magnitude above a relative
    # threshold is made positive.
    for j in range(n):
        col = V[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if nz.size and col[nz[0]] < 0:
            V[:, j] = -col
    return w, V
