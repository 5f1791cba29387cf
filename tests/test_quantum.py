import numpy as np
import pytest

from bosesemi.model import ModelParams
from bosesemi.quantum import (
    build_hamiltonian,
    diagonalize,
    exact_spectrum,
    level_density,
    momentum_grid,
    momentum_representation,
)
from reference_data import exact_column


def dense_from_operators(params, symmetrized):
    """Independent dense construction: explicit ladder-operator algebra on
    the fixed-number basis, no shared code with build_hamiltonian."""
    N = params.N
    dim = N + 1
    h = np.zeros((dim, dim))
    for i in range(dim):          # i = n1, ket |n1, N - n1>
        n1, n2 = i, N - i
        occ1 = n1 + 0.5 if symmetrized else n1
        occ2 = n2 + 0.5 if symmetrized else n2
        h[i, i] = params.eps * (n1 - n2) + params.g * (occ1**2 + occ2**2)
        if i + 1 < dim:
            # a1^dag a2 |n1, n2> = sqrt((n1+1) n2) |n1+1, n2-1>
            h[i + 1, i] += params.v * np.sqrt((n1 + 1) * n2)
            h[i, i + 1] += params.v * np.sqrt((n1 + 1) * n2)
    return h


def test_build_examples_n2():
    p = ModelParams(N=2, eps=0.0, v=1.0, g=0.0)
    ham = build_hamiltonian(p, symmetrized=False)
    assert np.allclose(ham.diag, [0.0, 0.0, 0.0])
    assert np.allclose(ham.offdiag, [np.sqrt(2), np.sqrt(2)])


def test_symmetrization_is_constant_shift():
    # Positive g is accepted but flagged as outside the validated regime.
    with pytest.warns(UserWarning, match="validated regime"):
        p = ModelParams(N=2, eps=0.0, v=1.0, g=1.0)
    sym = build_hamiltonian(p, symmetrized=True)
    unsym = build_hamiltonian(p, symmetrized=False)
    assert np.allclose(sym.diag - unsym.diag, 2.5)
    assert np.allclose(sym.offdiag, unsym.offdiag)
    # Spectra shift by exactly the same constant.
    es = diagonalize(sym).energies
    eu = diagonalize(unsym).energies
    assert np.allclose(es - eu, 2.5, atol=1e-12)


@pytest.mark.parametrize("symmetrized", [True, False])
def test_build_against_operator_oracle(symmetrized):
    p = ModelParams(N=20, eps=0.5, v=1.0, g=-3.0 / 21.0)
    ham = build_hamiltonian(p, symmetrized=symmetrized)
    ref = dense_from_operators(p, symmetrized)
    assert np.max(np.abs(ham.dense() - ref)) < 1e-12


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ModelParams(N=0, eps=0.0, v=1.0, g=0.0)
    with pytest.raises(ValueError):
        ModelParams(N=3, eps=0.0, v=1.0, g=0.0, hbar=0.0)


@pytest.mark.parametrize("field", ["eps", "v", "g", "hbar"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_params_rejected(field, value):
    # NaN passes the hbar <= 0 check, and a NaN or inf bias, coupling or
    # interaction gave all-NaN or all-inf exact levels.
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ModelParams(N=4, **{field: value})


def test_cli_rejects_non_finite_params(capsys):
    from bosesemi.cli import main
    code = main(["spectrum", "--particles", "4", "--epsilon", "nan", "--method", "exact"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: eps must be finite")


def test_linear_case_spectrum():
    p = ModelParams(N=10, eps=0.7, v=1.0, g=0.0)
    e = exact_spectrum(p).energies
    n = np.arange(11)
    expected = np.sqrt(1.49) * (2 * n - 10)
    assert np.max(np.abs(e - expected)) < 1e-9 * np.max(np.abs(expected))


def test_level_count():
    for N in (1, 2, 7, 33):
        p = ModelParams(N=N, eps=0.3, v=1.0, g=-0.02)
        assert exact_spectrum(p).energies.size == N + 1


def test_reference_convention():
    """Sorted negated eigenvalues of the symmetrized Hamiltonian reproduce
    the benchmark magnitudes; the plain sorted eigenvalues do not."""
    p = ModelParams(N=20, eps=0.0, v=1.0, g=-3.0 / 21.0)
    e = exact_spectrum(p).energies
    ref = np.array(exact_column(0.0))
    assert np.max(np.abs(np.sort(-e) - ref)) < 1e-3
    assert np.max(np.abs(np.sort(e) - ref)) > 1.0


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 1.5])
def test_reference_spectra_n20(eps):
    p = ModelParams(N=20, eps=eps, v=1.0, g=-3.0 / 21.0)
    vals = np.sort(-exact_spectrum(p).energies)
    assert np.max(np.abs(vals - np.array(exact_column(eps)))) <= 1e-3


def test_bias_reversal_symmetry():
    for eps in (0.4, 1.1):
        p1 = ModelParams(N=12, eps=eps, v=1.0, g=-0.1)
        p2 = ModelParams(N=12, eps=-eps, v=1.0, g=-0.1)
        e1 = exact_spectrum(p1).energies
        e2 = exact_spectrum(p2).energies
        assert np.max(np.abs(e1 - e2)) < 1e-9


def test_momentum_representation_ground_n2():
    p = ModelParams(N=2, eps=0.0, v=1.0, g=0.0)
    spec = exact_spectrum(p, want_vectors=True)
    w = momentum_representation(spec, 0)
    assert np.allclose(w.grid, [-2.0, 0.0, 2.0])
    assert np.allclose(w.values, [0.25, 0.5, 0.25], atol=1e-12)


def test_momentum_representation_normalized():
    p = ModelParams(N=17, eps=0.3, v=1.0, g=-0.05)
    spec = exact_spectrum(p, want_vectors=True)
    for n in range(p.N + 1):
        w = momentum_representation(spec, n)
        assert abs(w.values.sum() - 1.0) < 1e-12
        assert np.all(w.values >= 0)


def test_momentum_representation_zeroes_roundoff_floor():
    # At p = 80 the amplitude is ~1.6e-44 (uniform form); the eigenvector
    # component there is roundoff, which squared printed 6.0e-42.
    p = ModelParams(N=100, eps=0.6, v=1.0, g=-0.6 / 101.0)
    spec = exact_spectrum(p, want_vectors=True)
    w = momentum_representation(spec, 3)
    floor = np.finfo(float).eps ** 2
    assert w.values[list(w.grid).index(80.0)] == 0.0
    assert np.all((w.values == 0.0) | (w.values >= floor))
    raw = spec.eigenvectors[:, 3] ** 2
    kept = raw >= floor
    assert np.array_equal(w.values[kept], raw[kept] / raw.sum())


def test_momentum_representation_rejects_bad_level_index():
    spec = exact_spectrum(ModelParams(N=4, eps=0.0, v=1.0, g=0.0), want_vectors=True)
    for n in (-1, 5, 1.5, True):
        with pytest.raises(ValueError, match="level index"):
            momentum_representation(spec, n)


def test_momentum_representation_requires_vectors():
    p = ModelParams(N=4, eps=0.0, v=1.0, g=0.0)
    spec = exact_spectrum(p)
    with pytest.raises(ValueError, match="eigenvectors"):
        momentum_representation(spec, 0)


def test_ground_state_support_inside_turning_points():
    # The low state concentrates in the classically allowed window.
    from bosesemi.actions import turning_points
    p = ModelParams(N=14, eps=0.6, v=1.0, g=-0.6 / 15.0)
    spec = exact_spectrum(p, want_vectors=True)
    w = momentum_representation(spec, 0)
    geo = turning_points(p, float(spec.energies[0]))
    lo, hi = geo.turning_points[0].p, geo.turning_points[-1].p
    # allow two grid steps of quantum tail beyond the turning points
    inside = (w.grid * p.hbar >= lo - 4 * p.hbar) & (w.grid * p.hbar <= hi + 4 * p.hbar)
    assert w.values[inside].sum() > 0.99
    outside_peak = w.values[~inside].max() if np.any(~inside) else 0.0
    assert outside_peak < 0.2 * w.values.max()


def test_level_density_flat_for_linear_spectrum():
    p = ModelParams(N=400, eps=0.0, v=1.0, g=0.0)
    hist = level_density(p, 20)
    span = hist.bin_edges[-1] - hist.bin_edges[0]
    assert np.max(np.abs(hist.heights * span - 1.0)) < 0.06
    widths = np.diff(hist.bin_edges)
    assert abs(np.sum(hist.heights * widths) - 1.0) < 1e-12


def test_level_density_errors():
    p = ModelParams(N=6, eps=0.0, v=1.0, g=0.0)
    with pytest.raises(ValueError):
        level_density(p, 1)
    degenerate = ModelParams(N=3, eps=0.0, v=0.0, g=0.0)
    with pytest.raises(ValueError, match="degenerate"):
        level_density(degenerate, 5)


def test_level_density_rejects_non_finite_matrix():
    # eps = 1e308 overflows the diagonal, v = 1e308 the off-diagonal.
    for p in (ModelParams(N=10, eps=1e308), ModelParams(N=400, v=1e308)):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            level_density(p, 10)


def test_momentum_grid_labels():
    p = ModelParams(N=5, eps=0.0, v=1.0, g=0.0)
    assert np.allclose(momentum_grid(p), [-5, -3, -1, 1, 3, 5])
