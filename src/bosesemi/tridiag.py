"""Eigen-decomposition of real symmetric tridiagonal matrices.

The Hamiltonian in the number basis is exactly tridiagonal, so this is
the whole linear-algebra core of the exact side.

- Eigenvalues alone: LAPACK through ``np.linalg.eigvalsh`` on the dense
  matrix while it fits in 1 MB (n <= 350); above that, Sturm-count bisection
  (LAPACK's ``dstebz``) in O(n) memory, the pivots counted by their IEEE
  sign bits (Demmel, Dhillon and Ren 1995; Marques, Riedy and Voemel 2006,
  LAPACK's ``dlaneg``): two numpy calls per row for all shifts at once,
  and one sign-bit count per block of 32 rows.
- A histogram of the eigenvalues: the same Sturm count at the bin edges,
  after the two extreme eigenvalues, so the level densities never compute
  the spectrum.
- With eigenvectors: LAPACK through ``np.linalg.eigh`` on the dense
  matrix.  A matrix equal to its own reflection i -> n-1-i (the model at
  eps = 0) is diagonalized on its even and odd blocks, so a doublet that
  is degenerate below roundoff still comes out as two parity states.
"""

from __future__ import annotations

import numpy as np

_DENSE_MAX_N = 350  # a dense 350 x 350 float64 matrix takes 980 kB
_TREE_DEPTH = 6  # halvings per Sturm count when bisecting for the extremes


def tridiag_eigh(diag, offdiag, want_vectors=False):
    """Eigen-decomposition of the symmetric tridiagonal matrix with main
    diagonal `diag` (length n) and sub/super-diagonal `offdiag` (n - 1).

    Returns (w,) or (w, V) with w ascending and V's columns the matching
    eigenvectors, each flipped so its first nonzero component is positive.
    """
    d, e = _checked(diag, offdiag)
    if not want_vectors:
        dense = d.size <= _DENSE_MAX_N
        return (np.linalg.eigvalsh(dense_tridiagonal(d, e)) if dense else _bisect(d, e),)
    w, V = _parity_eigh(d, e)
    big = np.abs(V) > 1e-12 * np.max(np.abs(V), axis=0)
    V *= np.where(V[np.argmax(big, axis=0), np.arange(d.size)] < 0, -1.0, 1.0)
    return w, V


def eigenvalue_histogram(diag, offdiag, bins):
    """Histogram of the eigenvalues of the symmetric tridiagonal matrix
    (`diag`, `offdiag`) over their range in `bins` equal bins, as
    (edges, counts) of ``np.histogram(w, bins, range=(w[0], w[-1]))``.

    Only the extremes w[0] and w[-1] are computed, bit for bit as Sturm
    bisection gives them; the counts are differences of Sturm counts at
    the interior edges, so an eigenvalue within roundoff of an edge can
    fall in the neighbouring bin.
    """
    d, e = _checked(diag, offdiag)
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    count, lo, hi = _sturm(d, e)
    edges = np.linspace(*_multisect(count, lo, hi, np.array([0, d.size - 1]), _TREE_DEPTH),
                        bins + 1)
    return edges, np.diff(np.concatenate(([0], count(edges[1:-1]), [d.size])))


def dense_tridiagonal(diag, offdiag):
    """The symmetric tridiagonal matrix as one dense n x n array."""
    n = diag.size
    h = np.zeros((n, n))
    for start, band in ((0, diag), (1, offdiag), (n, offdiag)):
        h.reshape(-1)[start :: n + 1] += band
    return h


def _checked(diag, offdiag):
    """The matrix as float arrays (d, e), checked for length and finiteness."""
    d = np.array(diag, dtype=float)
    e = np.array(offdiag, dtype=float)
    if e.size != d.size - 1:
        raise ValueError(f"offdiag must have length {d.size - 1}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("matrix entries must be finite")
    return d, e


def _sturm(d, e):
    """The Sturm count of T = (d, e) and T's Gershgorin interval: returns
    (count, lo, hi), where count(x) is the number of negative pivots of
    T - x I, that is of eigenvalues below x, for every entry of the 1-d
    array x.  The pivots are unguarded and counted by their IEEE sign bits
    (Demmel, Dhillon and Ren, ETNA 3, 116, 1995; Marques, Riedy and Voemel,
    SIAM J. Sci. Comput. 28, 1613, 2006): a zero pivot makes the next one
    infinite, and the pair still counts one negative pivot.

    The rows go in blocks of 32.  One subtraction fills rows 1-32 of a
    buffer with a block's d - x; each pivot then takes one division and
    one subtraction in place, and one sign-bit count covers the block.
    Row 0 carries the previous block's last pivot.  A pivot that no
    coupling follows (one before a zero e, and the last) is not divided
    by, and counts if it is below pivmin, as in LAPACK."""
    e2 = e**2
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    pivmin = np.finfo(float).tiny * np.max(e2, initial=1.0)
    into, after = np.append(0.0, e2), np.append(e2, 0.0)  # each row's couplings
    # Per block: d, the (row, coupling into it) of each nonzero coupling,
    # as 0-d arrays that numpy need not convert on every call, and the
    # rows that no coupling follows.
    blocks = [(d[s : s + 32],
               [(j, np.array(c)) for j, c in enumerate(into[s : s + 32].tolist(), 1) if c],
               (np.flatnonzero(after[s : s + 32] == 0.0) + 1).tolist())
              for s in range(0, d.size, 32)]

    @np.errstate(divide="ignore", over="ignore")
    def count(x):
        q, r, neg = np.empty((33, x.size)), np.empty(x.size), np.empty((32, x.size), dtype=bool)
        rows, total = list(q), np.zeros(x.size, dtype=int)
        for dk, steps, ends in blocks:
            k = dk.size
            np.subtract.outer(dk, x, out=q[1 : k + 1])
            for j, c in steps:
                np.divide(c, rows[j - 1], r)
                np.subtract(rows[j], r, rows[j])
            np.signbit(q[1 : k + 1], out=neg[:k])
            for j in ends:
                np.less(rows[j], pivmin, out=neg[j - 1])
            total += np.count_nonzero(neg[:k], axis=0)
            q[0] = q[k]
        return total

    return count, np.min(d - radius), np.max(d + radius)


def _multisect(count, lo, hi, k, depth):
    """The eigenvalues with the indices `k` by bisection on the Sturm count
    from the bracket [lo, hi].  Each call of `count` takes the next `depth`
    halvings at once: it counts at the tree of 2**depth - 1 midpoints that
    they can visit, each formed as bisection forms it, so the result does
    not depend on `depth`, bit for bit."""
    cols, a, b = np.arange(k.size), np.full(k.size, lo), np.full(k.size, hi)
    # Halving the Gershgorin width hi - lo <= 2 |T| 52 times leaves each
    # midpoint within eps |T| of its eigenvalue.
    halvings = np.finfo(float).nmant
    for done in range(0, halvings, depth):
        tree, left, right = [], a[None], b[None]  # one row per node of a level
        for _ in range(min(depth, halvings - done)):
            mid = 0.5 * (left + right)
            tree.append(mid)
            # Node j's children are nodes 2j (left, mid) and 2j + 1 (mid, right).
            left, right = (np.stack(ends, axis=1).reshape(-1, k.size)
                           for ends in ((left, mid), (mid, right)))
        below = count(np.concatenate(tree).ravel()).reshape(-1, k.size) > k
        node, first = np.zeros(k.size, dtype=int), 0
        for mid in tree:
            x, lower = mid[node, cols], below[first + node, cols]
            a, b = np.where(lower, a, x), np.where(lower, x, b)
            node, first = 2 * node + ~lower, first + len(mid)
    return 0.5 * (a + b)


def _bisect(d, e):
    """All eigenvalues by bisection on the Sturm count, one halving per
    count."""
    count, lo, hi = _sturm(d, e)
    return _multisect(count, lo, hi, np.arange(d.size), 1)


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
