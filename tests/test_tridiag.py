import tracemalloc

import numpy as np

from bosesemi.model import ModelParams
from bosesemi.quantum import build_hamiltonian
from bosesemi.tridiag import tridiag_eigh


def dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_small_known_matrix():
    w, = tridiag_eigh([0.0, 0.0, 0.0], [np.sqrt(2), np.sqrt(2)])
    assert np.allclose(w, [-2.0, 0.0, 2.0], atol=1e-14)


def test_oracle_equivalence_parameter_grid():
    # Brute-force dense diagonalization as the independent route, over
    # all sizes up to 9x9, a grid of matrix contents and the Bose-Hubbard
    # matrix at N=400, g*Ns=-3, eps=1; the eigenvalues computed with and
    # without eigenvectors agree as well.
    rng = np.random.default_rng(0)
    cases = [(rng.normal(scale=rng.uniform(0.5, 20.0), size=n),
              rng.normal(scale=rng.uniform(0.5, 20.0), size=n - 1))
             for n in range(2, 10) for _ in range(25)]
    ham = build_hamiltonian(ModelParams(N=400, eps=1.0, v=1.0, g=-3.0 / 401.0))
    cases.append((ham.diag, ham.offdiag))
    for d, e in cases:
        w, = tridiag_eigh(d, e)
        w_vec, _ = tridiag_eigh(d, e, want_vectors=True)
        h = dense(d, e)
        ref = np.linalg.eigvalsh(h)
        norm = np.linalg.norm(h, 2)
        assert np.max(np.abs(w - ref)) < 1e-13 * norm
        assert np.max(np.abs(w - w_vec)) < 1e-13 * norm


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
    # A dense 1001x1001 matrix takes 8 MB; bisection keeps O(n) arrays.
    ham = build_hamiltonian(ModelParams(N=1000, eps=1.0, v=1.0, g=-3.0 / 1001.0))
    tracemalloc.start()
    try:
        tridiag_eigh(ham.diag, ham.offdiag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
