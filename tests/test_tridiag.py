import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bosesemi import tridiag
from bosesemi.model import ModelParams
from bosesemi.quantum import build_hamiltonian, exact_spectrum, level_density
from bosesemi.tridiag import tridiag_eigh
from oracles import sturm_bisect_guarded, sturm_count_guarded


def dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _switch_sizes():
    """The last size on the dense route and the first on Sturm bisection."""
    return tridiag._DENSE_MAX_N, tridiag._DENSE_MAX_N + 1


def _model(n, eps, g_ns, v):
    """The n x n Bose-Hubbard matrix at interaction g*Ns = g_ns."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # g > 0 or v < 0 is unvalidated
        ham = build_hamiltonian(ModelParams(N=n - 1, eps=eps, v=v, g=g_ns / n))
    return ham.diag, ham.offdiag


# Small integer matrices whose bisection midpoints land on eigenvalues, so
# that a pivot is exactly zero, also right before a zero off-diagonal, and
# on a diagonal of -0.0, whose pivots at x = 0 are -0.0.
_ZERO_PIVOT_MATRICES = [
    ([1.0, 2.0, 3.0], [0.0, 1.0]), ([0.0, 0.0, 0.0], [np.sqrt(2), np.sqrt(2)]),
    ([0.0, 0.0, 0.0], [1.0, 1.0]), ([1.0, 1.0, 1.0], [0.0, 0.0]),
    ([0.0, 0.0, 2.0], [0.0, 1.0]), ([-1.0, -1.0, 2.0], [1.0, 0.0]),
    ([-0.0, -0.0, -0.0], [1.0, 1.0])]


def _reducible_matrices():
    """v = 0 (a diagonal with equal pairs at eps = 0) and a random matrix
    with a few zero off-diagonals, both at n = 400."""
    rng = np.random.default_rng(3)
    split = rng.normal(size=399)
    split[rng.choice(399, size=5, replace=False)] = 0.0
    return [_model(400, 0.0, -3.0, 0.0), (rng.normal(size=400), split)]


def test_small_known_matrix():
    w, = tridiag_eigh([0.0, 0.0, 0.0], [np.sqrt(2), np.sqrt(2)])
    assert np.allclose(w, [-2.0, 0.0, 2.0], atol=1e-14)


def test_oracle_equivalence_parameter_grid():
    # Brute-force dense diagonalization as the independent route, over
    # all sizes up to 9x9, a grid of matrix contents and the Bose-Hubbard
    # matrix at g*Ns=-3, eps=1 at the last dense size, the first Sturm
    # size and N=400; the eigenvalues computed with and without
    # eigenvectors agree as well.  Sturm bisection is also checked
    # directly, since the small matrices take the dense route.
    rng = np.random.default_rng(0)
    cases = [(rng.normal(scale=rng.uniform(0.5, 20.0), size=n),
              rng.normal(scale=rng.uniform(0.5, 20.0), size=n - 1))
             for n in range(2, 10) for _ in range(25)]
    for n in (*_switch_sizes(), 401):
        ham = build_hamiltonian(ModelParams(N=n - 1, eps=1.0, v=1.0, g=-3.0 / n))
        cases.append((ham.diag, ham.offdiag))
    for d, e in cases:
        w, = tridiag_eigh(d, e)
        w_vec, _ = tridiag_eigh(d, e, want_vectors=True)
        h = dense(d, e)
        ref = np.linalg.eigvalsh(h)
        norm = np.linalg.norm(h, 2)
        assert np.max(np.abs(w - ref)) < 1e-13 * norm
        assert np.max(np.abs(w - w_vec)) < 1e-13 * norm
        assert np.max(np.abs(tridiag._bisect(np.asarray(d), np.asarray(e)) - ref)) < 1e-13 * norm


def test_eigenvectors_orthonormal_and_accurate():
    rng = np.random.default_rng(1)
    for n in (3, 8, 25, 60):
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        w, v = tridiag_eigh(d, e, want_vectors=True)
        h = dense(d, e)
        norm = max(np.max(np.abs(d)), np.max(np.abs(e)))
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
        resid = h @ v - v * w
        assert np.max(np.abs(resid)) < 1e-9 * norm
        assert np.all(np.diff(w) >= -1e-12 * norm)


def test_sign_convention_first_nonzero_positive():
    rng = np.random.default_rng(2)
    d = rng.normal(size=12)
    e = rng.normal(size=11)
    _, v = tridiag_eigh(d, e, want_vectors=True)
    for j in range(12):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        assert col[nz[0]] > 0


def test_degenerate_and_trivial_cases():
    w, = tridiag_eigh([3.0], [])
    assert np.allclose(w, [3.0])
    w, = tridiag_eigh([1.0, 1.0, 1.0], [0.0, 0.0])
    assert np.allclose(w, [1.0, 1.0, 1.0])
    # Reducible and degenerate input with eigenvectors: the identity, the
    # zero matrix and v=0, g!=0 at eps=0 (a diagonal with equal pairs).
    ham = build_hamiltonian(ModelParams(N=9, eps=0.0, v=0.0, g=-0.3))
    for d, e in (([1.0, 1.0, 1.0], [0.0, 0.0]), (np.zeros(4), np.zeros(3)),
                 (ham.diag, ham.offdiag)):
        w, v = tridiag_eigh(d, e, want_vectors=True)
        h = dense(d, e)
        norm = np.linalg.norm(h, 2)
        assert np.max(np.abs(v.T @ v - np.eye(len(d)))) < 1e-12
        assert np.max(np.abs(h @ v - v * w)) <= 1e-12 * norm
        assert np.all(np.diff(w) >= 0)


def test_non_finite_entries_rejected():
    # LAPACK returns finite eigenvalues, [-1.414, 1.414], for the matrix
    # with diag (nan, 1) and offdiag (1,).
    for n in (2, *_switch_sizes()):
        nan_diag, inf_off = np.ones(n), np.ones(n - 1)
        nan_diag[0], inf_off[-1] = np.nan, np.inf
        for d, e in ((nan_diag, np.ones(n - 1)), (np.ones(n), inf_off)):
            for want_vectors in (False, True):
                with pytest.raises(ValueError, match="finite"):
                    tridiag_eigh(d, e, want_vectors=want_vectors)
            with pytest.raises(ValueError, match="finite"):
                tridiag.eigenvalue_histogram(d, e, 10)


def test_parity_states_at_reflection_symmetric_matrix():
    # At eps=0 the deep doublets are degenerate below roundoff; each
    # eigenvector must still be a parity state, |V|^2 symmetric in n1.
    for N in (40, 41):
        ham = build_hamiltonian(ModelParams(N=N, eps=0.0, v=1.0, g=-3.0 / (N + 1)))
        w, v = tridiag_eigh(ham.diag, ham.offdiag, want_vectors=True)
        assert np.max(np.abs(v**2 - v[::-1] ** 2)) < 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(N + 1))) < 1e-12
        assert np.all(np.diff(w) >= 0)


def test_eigenvalues_alone_need_no_dense_matrix():
    # A dense 1001x1001 matrix takes 8 MB; bisection keeps O(n) arrays and
    # a 32-row block of pivots and of their sign bits (about 400 kB at 1501
    # shifts), and the dense route is taken only while its matrix fits the
    # bound.
    for n in (*_switch_sizes(), 1001, 1501):
        ham = build_hamiltonian(ModelParams(N=n - 1, eps=1.0, v=1.0, g=-3.0 / n))
        tracemalloc.start()
        try:
            tridiag_eigh(ham.diag, ham.offdiag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, n
    # The histogram route at n = 1501 counts at 126 shifts at a time.
    tracemalloc.start()
    try:
        tridiag.eigenvalue_histogram(ham.diag, ham.offdiag, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sturm_count_equals_guarded_recurrence_bit_for_bit():
    # The IEEE sign-bit count and the guarded recurrence count the same
    # negative pivots, so every halving keeps the same half.  The model at
    # n = 351 without bias and n = 401 with it, each pair of signs of g*Ns
    # and v once over the four, and at n = 801; and the zero-pivot matrices.
    cases = [_model(351, 0.0, -3.0, 1.0), _model(351, 0.0, 3.0, -1.0),
             _model(401, 1.0, -3.0, -1.0), _model(401, 1.0, 3.0, 1.0),
             _model(801, 1.0, -3.0, 1.0)]
    for d, e in cases + _ZERO_PIVOT_MATRICES:
        d, e = np.asarray(d), np.asarray(e)
        assert np.array_equal(tridiag._bisect(d, e), sturm_bisect_guarded(d, e)), d.size


def _counted_shifts(monkeypatch):
    """The number of shifts of every Sturm count made from now on."""
    real, shifts = tridiag._sturm, []

    def counted_sturm(d, e):
        count, lo, hi = real(d, e)
        return (lambda x: shifts.append(x.size) or count(x)), lo, hi

    monkeypatch.setattr(tridiag, "_sturm", counted_sturm)
    return shifts


def test_full_spectrum_sturm_count_budget(monkeypatch):
    # Values-only exact_spectrum above the dense route's last size is one
    # Sturm count per halving, all n levels at once: measured 52 counts of
    # 1501 shifts each (78,052) at N = 1500.  No benchmark workload times
    # this path, so its budget is kept here.
    shifts = _counted_shifts(monkeypatch)
    w = exact_spectrum(ModelParams(N=1500, eps=1.0, v=1.0, g=-3.0 / 1501)).energies
    assert w.size == 1501
    assert len(shifts) <= 56
    assert sum(shifts) <= 56 * 1501


def test_histogram_sturm_count_budget(monkeypatch):
    # The level density at N = 1500 (the benchmark's largest) bisects for
    # its two extremes 6 halvings per count, ceil(52 / 6) = 9 counts of at
    # most 2 (2**6 - 1) = 126 shifts, and then counts once at the 59
    # interior bin edges.
    shifts = _counted_shifts(monkeypatch)
    density = level_density(ModelParams(N=1500, eps=1.0, v=1.0, g=-3.0 / 1501), 60)
    assert density.heights.size == 60
    assert len(shifts) == math.ceil(np.finfo(float).nmant / tridiag._TREE_DEPTH) + 1 == 10
    assert max(shifts) <= 2 * (2**tridiag._TREE_DEPTH - 1) == 126


def test_reducible_matrices_on_the_sturm_route():
    # A zero off-diagonal ends the pivot recurrence.  Dividing there would
    # be 0/0 at a zero pivot, which pytest turns into an error as a
    # RuntimeWarning.
    for d, e in _reducible_matrices():
        w, = tridiag_eigh(d, e)
        h = dense(d, e)
        assert np.max(np.abs(w - np.linalg.eigvalsh(h))) < 1e-13 * np.linalg.norm(h, 2)
        assert np.array_equal(w, sturm_bisect_guarded(d, e))


def test_histogram_equals_np_histogram_of_the_spectrum():
    # The bin counts from Sturm counts at the edges equal np.histogram of
    # the eigenvalues, edges and all, at g*Ns = -3 with and without bias;
    # at eps = 0 the deep doublets are pairs of levels within roundoff of
    # each other.  Above the dense route's last size the extremes are
    # bisection's levels 0 and n - 1 bit for bit.
    for n in (351, 401, 1001):
        for eps in (1.0, 0.0, 0.37):
            d, e = _model(n, eps, -3.0, 1.0)
            w, = tridiag_eigh(d, e)
            edges, counts = tridiag.eigenvalue_histogram(d, e, 60)
            ref_counts, ref_edges = np.histogram(w, 60, range=(w[0], w[-1]))
            assert edges[0] == w[0] and edges[-1] == w[-1], (n, eps)
            assert np.array_equal(edges, ref_edges), (n, eps)
            assert np.array_equal(counts, ref_counts), (n, eps)


def test_histogram_needs_a_bin():
    with pytest.raises(ValueError, match="bins"):
        tridiag.eigenvalue_histogram([1.0, 2.0], [1.0], 0)


def test_sturm_kernel_counts_equal_guarded_count():
    # At integer and half-integer shifts, the diagonal entries and the
    # eigenvalues, many of them making a pivot exactly zero, the sign-bit
    # count equals the guarded recurrence's count, without a warning.
    for d, e in _ZERO_PIVOT_MATRICES + _reducible_matrices():
        d, e = np.asarray(d), np.asarray(e)
        count, lo, hi = tridiag._sturm(d, e)
        x = np.concatenate([np.arange(np.floor(lo) - 1.0, hi + 1.5, 0.5), d,
                            np.linalg.eigvalsh(dense(d, e))])
        assert np.array_equal(count(x), sturm_count_guarded(d, e, x)), d.size


def _seam_matrices():
    """Matrices whose 32-row Sturm blocks meet at a pivot that matters:
    random ones of the sizes around one and two blocks, and d = 1, e = 1
    with d[0] = 1 or 0, whose pivots at x = 0 run 1, 0, -inf (or 0, -inf,
    1) with period 3, so that the pivot carried from the first block (row
    31) or from the second (row 63) is exactly zero.  Each comes with all
    couplings and with e[30], e[31], e[32] and e[63] (where they exist)
    set to zero."""
    rng = np.random.default_rng(4)
    cases = [(rng.normal(size=n), rng.normal(size=n - 1))
             for n in (1, 2, 31, 32, 33, 34, 64, 65, 66)]
    for first in (1.0, 0.0):
        d = np.ones(66)
        d[0] = first
        cases.append((d, np.ones(65)))
    for d, e in cases[:]:
        split = e.copy()
        split[[i for i in (30, 31, 32, 63) if i < e.size]] = 0.0
        cases.append((d, split))
    return cases


def _pivots(d, e, x):
    """The unguarded pivots of T - x I at one shift x."""
    q = [d[0] - x]
    with np.errstate(divide="ignore"):
        for di, ei in zip(d[1:], e):
            q.append(di - x - ei**2 / q[-1] if ei else di - x)
    return np.array(q)


def test_sturm_count_across_block_seams():
    # Where one 32-row block of the Sturm kernel ends and the next begins
    # (the carried pivot, a zero coupling on either side of the seam, a
    # last block of one or two rows), the count equals the guarded
    # recurrence's bit for bit at every shift, without a warning.
    assert _pivots(np.ones(66), np.ones(65), 0.0)[31] == 0.0
    d0 = np.ones(66)
    d0[0] = 0.0
    assert _pivots(d0, np.ones(65), 0.0)[63] == 0.0
    for d, e in _seam_matrices():
        count, lo, hi = tridiag._sturm(d, e)
        x = np.concatenate([np.arange(np.floor(lo) - 1.0, hi + 1.5, 0.5), d,
                            np.linalg.eigvalsh(dense(d, e)), np.linspace(lo, hi, 101)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = count(x)
        assert np.array_equal(got, sturm_count_guarded(d, e, x)), (d.size, np.sum(e == 0))
