"""Exact N-particle side: Hamiltonian construction, diagonalization,
momentum-space eigenvectors and level-density histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _level_index
from .tridiag import dense_tridiagonal, eigenvalue_histogram, tridiag_eigh


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Two-mode Hamiltonian in the number basis |n1, N - n1>, n1 = 0..N.

    Symmetrizing the occupation operators shifts the diagonal by the
    constant g*(N + 1/2); that symmetrized form is what corresponds to
    the classical energy function.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    params: ModelParams
    symmetrized: bool

    def dense(self) -> np.ndarray:
        return dense_tridiagonal(self.diag, self.offdiag)


def build_hamiltonian(params: ModelParams, symmetrized=True) -> TridiagonalHamiltonian:
    """Matrix elements in the number basis.

    diag[n1]    = eps*(2 n1 - N) + g*(n1^2 + n2^2) [+ g*(N + 1/2) if symmetrized]
    offdiag[n1] = v*sqrt((n1 + 1)(N - n1))   coupling n1 <-> n1 + 1
    """
    n1 = np.arange(params.N + 1, dtype=float)
    n2 = params.N - n1
    diag = params.eps * (2.0 * n1 - params.N) + params.g * (n1**2 + n2**2)
    if symmetrized:
        diag = diag + params.g * (params.N + 0.5)
    offdiag = params.v * np.sqrt((n1[:-1] + 1.0) * (params.N - n1[:-1]))
    return TridiagonalHamiltonian(diag=diag, offdiag=offdiag, params=params,
                                  symmetrized=symmetrized)


@dataclass(frozen=True)
class Spectrum:
    params: ModelParams
    energies: np.ndarray
    eigenvectors: np.ndarray | None = None
    symmetrized: bool = True


def diagonalize(ham: TridiagonalHamiltonian, want_vectors=False) -> Spectrum:
    """All N + 1 eigenvalues (ascending), optionally with orthonormal
    eigenvectors whose first nonzero component is positive."""
    w, *vec = tridiag_eigh(ham.diag, ham.offdiag, want_vectors=want_vectors)
    return Spectrum(params=ham.params, energies=w, eigenvectors=vec[0] if vec else None,
                    symmetrized=ham.symmetrized)


def exact_spectrum(params: ModelParams, symmetrized=True, want_vectors=False) -> Spectrum:
    return diagonalize(build_hamiltonian(params, symmetrized), want_vectors)


@dataclass(frozen=True)
class MomentumWavefunction:
    """|Psi_n(p)|^2 on the discrete grid p = -N, -N + 2, ..., N.

    The grid carries the dimensionless momentum labels 2*n1 - N; the
    physical momentum is label * hbar.
    """

    grid: np.ndarray
    values: np.ndarray
    kind: str          # exact | primitive | uniform
    state_index: int
    energy: float


def momentum_grid(params: ModelParams) -> np.ndarray:
    return np.arange(-params.N, params.N + 1, 2, dtype=float)


def momentum_representation(spec: Spectrum, n: int) -> MomentumWavefunction:
    """Probability distribution of the population imbalance for state n.

    A unit eigenvector resolves its components only down to machine
    epsilon, so squares below epsilon^2 are roundoff, not amplitude;
    they are returned as 0.
    """
    if spec.eigenvectors is None:
        raise ValueError("spectrum was computed without eigenvectors")
    _level_index(spec.params, n)
    vals = spec.eigenvectors[:, n] ** 2
    vals[vals < np.finfo(float).eps ** 2] = 0.0
    return MomentumWavefunction(
        grid=momentum_grid(spec.params),
        values=vals / np.sum(vals),
        kind="exact",
        state_index=n,
        energy=float(spec.energies[n]),
    )


@dataclass(frozen=True)
class LevelDensity:
    bin_edges: np.ndarray
    heights: np.ndarray


def level_density(params: ModelParams, num_bins: int) -> LevelDensity:
    """Histogram of the N + 1 exact levels in `num_bins` equal bins over
    [E_min, E_max], normalized so the integral over energy is one, with
    the float operations of ``np.histogram(..., density=True)``.

    The levels inside the range are not computed: each bin's count comes
    from the Sturm counts at its edges (``tridiag.eigenvalue_histogram``).
    A level within roundoff of an interior edge can so fall in the
    neighbouring bin.  At g = 0 and eps = 0 the levels are evenly spaced
    and the edges fall on them; there a bin can hold one level more or
    less than in a histogram of ``exact_spectrum``.
    """
    if num_bins < 2:
        raise ValueError("need at least 2 bins")
    ham = build_hamiltonian(params)
    edges, counts = eigenvalue_histogram(ham.diag, ham.offdiag, num_bins)
    if edges[0] == edges[-1]:
        raise ValueError("degenerate spectrum range; histogram undefined")
    return LevelDensity(bin_edges=edges, heights=counts / np.diff(edges) / counts.sum())
