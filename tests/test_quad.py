"""Row-wise quadrature: a row's value does not depend on the rows beside
it, a doubling reuses every point, a row that never converges raises,
and a whole sampling grid stays within a fixed memory bound."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from bosesemi import ModelParams
from bosesemi import actions as act
from bosesemi import quad
from bosesemi import quantize as qz
from bosesemi.quad import QuadratureError, _fejer, _rule, turning_point_rows

SUPER21 = ModelParams(N=20, eps=0.5, v=1.0, g=-3.0 / 21.0)


def _semicircle(p):
    # sqrt((p - a)(b - p)) on the unit segment: half-power at both ends.
    return np.sqrt(np.maximum(p * (1.0 - p), 0.0))


def _one_row(f, a, b):
    # The segment [a, b] as a batch of one row.
    return turning_point_rows(lambda r, p: f(p[0]), [a], [b])[0]


def test_rows_equal_one_row_calls():
    # Real segments of several widths, a reversed one and zero spans.
    a = np.array([0.0, 0.2, 0.0, 0.7, 1.0, 0.5])
    b = np.array([1.0, 0.2, 0.5, 0.1, 1.0, 0.9])
    f = lambda x: np.sqrt(np.abs(x * (1.0 - x))) + np.cos(3.0 * x)
    rows = turning_point_rows(lambda r, p: f(p), a, b)
    single = [_one_row(f, x, y) for x, y in zip(a, b)]
    assert rows.dtype == float
    assert np.array_equal(rows, single)
    assert rows[1] == 0.0 and rows[4] == 0.0
    assert _one_row(_semicircle, 0.0, 1.0) == pytest.approx(np.pi / 8, rel=1e-12)


def test_complex_rows_equal_one_row_calls():
    a = np.array([0.0, 1.0 - 1.0j, 0.5 + 0.5j, 2.0 + 0.0j])
    b = np.array([1.0 + 1.0j, 1.0 + 1.0j, 0.5 + 0.5j, 0.0])
    f = lambda z: np.exp(1j * z) * np.sqrt(z + 3.0)
    rows = turning_point_rows(lambda r, p: f(p), a, b)
    single = [_one_row(f, x, y) for x, y in zip(a, b)]
    assert rows.dtype == complex
    assert np.array_equal(rows, single)
    assert rows[2] == 0.0
    assert isinstance(single[0], complex)


def test_row_integrand_sees_its_own_rows():
    # The integrand gets the indices of the rows still open, so each row
    # integrates its own function; a row leaves once it has converged,
    # and only row 2, peaked at p = 0, needs more than the 63 points of
    # the first check.
    scale = np.array([1.0, 2.0, 1.0, 7.0, 5.0])
    seen = []

    def f(rows, p):
        seen.append(list(rows))
        return np.where(rows[:, None] == 2, 1.0 / (p + 1e-3), scale[rows, None] * np.sqrt(p))

    out = turning_point_rows(f, np.zeros(5), np.array([1.0, 1.0, 1.0, 0.0, 1.0]))
    assert np.allclose(out, [2.0 / 3.0, 4.0 / 3.0, np.log(1001.0), 0.0, 10.0 / 3.0],
                       rtol=1e-12, atol=0.0)
    assert seen[:2] == [[0, 1, 2, 4]] * 2
    assert len(seen) > 2 and seen[2:] == [[2]] * (len(seen) - 2)


def test_no_point_is_evaluated_twice():
    # Row 2 above needs several doublings; each adds only the new odd-k
    # nodes, so its points are distinct and number the last rule's n - 1.
    calls = []

    def f(rows, p):
        calls.append(p[0])
        return 1.0 / (p + 1e-3)

    turning_point_rows(f, [0.0], [1.0])
    pts = np.concatenate(calls)
    assert len(calls) > 2
    assert pts.size == quad._N0 * 2 ** (len(calls) - 1) - 1
    assert np.unique(pts).size == pts.size


def test_non_converging_row_raises(monkeypatch):
    # A non-integrable singularity inside the segment never settles; the
    # smooth row beside it does not rescue the call.  A 256-node cap
    # keeps the test short: rules past 256 nodes add nothing to it.
    monkeypatch.setattr(quad, "_NMAX", 256)
    f = lambda rows, p: np.where(rows[:, None] == 1, np.abs(p - 0.3) ** -1.5, 1.0)
    with pytest.raises(QuadratureError):
        turning_point_rows(f, np.zeros(2), np.ones(2))
    with pytest.raises(QuadratureError):
        _one_row(lambda p: np.abs(p - 0.3) ** -1.5, 0.0, 1.0)


def test_quadrature_error_names_the_points_reached(monkeypatch):
    # The last rule tried, 128 intervals, has 127 points.
    monkeypatch.setattr(quad, "_NMAX", 128)
    with pytest.raises(QuadratureError, match=r"rtol=1e-12 by 127 points$"):
        _one_row(lambda p: np.abs(p - 0.3) ** -1.5, 0.0, 1.0)


def test_noisy_row_stops_at_its_roundoff_plateau():
    # Deterministic noise of 1e-10 relative, drawn from the bits of p: every
    # doubling changes the value by more than rtol, so only the plateau
    # exit can stop the row, and it returns the rule before the last.
    def noise(p):
        return (np.floor(p * 2.0**40).astype(np.int64) * 2654435761) % 1000003 / 500001.5 - 1.0

    seen = []

    def f(rows, p):
        seen.append(np.sqrt(np.maximum((p - 0.1) * (1.1 - p), 0.0)) * (1.0 + 1e-10 * noise(p)))
        return seen[-1]

    val = turning_point_rows(f, [0.1], [1.1])[0]
    assert val == pytest.approx(np.pi / 8, rel=0.0, abs=1e-9)
    # Each rule's value, rebuilt from the points the row was given.
    n, y = quad._N0, seen[0][0]
    rules = [np.sum(_rule(n)[1] * y)]
    for fresh in seen[1:]:
        n *= 2
        y = np.insert(fresh[0], np.arange(1, fresh.shape[1]), y)
        rules.append(np.sum(_rule(n)[1] * y))
    assert n < quad._NMAX
    assert np.all(np.abs(np.diff(rules)) > 1e-12 * np.abs(rules[1:]) + 1e-15)
    assert val == rules[-2]


def test_substituted_nodes_are_cached():
    assert _rule(64)[0] is _rule(64)[0]
    for n in (32, 64, 256, 4096):
        s, w = _rule(n)
        assert s.size == n - 1 and np.all(np.diff(s) > 0.0)
        assert np.all((s > 0.0) & (s < 1.0))
        # The substituted weights integrate ds over [0, 1].
        assert np.sum(w) == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_rule_nodes_nest():
    # Rule n's nodes are rule 2n's even-k nodes, bit for bit.
    n = quad._N0
    while n < quad._NMAX:
        assert np.array_equal(_rule(n)[0], _rule(2 * n)[0][1::2])
        n *= 2


def _substituted_reference(n, k):
    # Node k of rule n and its weight at 40 digits, carried through
    # x -> sin^2 t with u = (1 + x)/2 = sin^2(phi/2).
    with mpmath.workdps(40):
        phi = k * mpmath.pi / n
        w = 4 * mpmath.sin(phi) / n * mpmath.fsum(
            mpmath.sin((2 * j - 1) * phi) / (2 * j - 1) for j in range(1, n // 2 + 1))
        t = mpmath.pi / 2 * mpmath.sin(phi / 2) ** 2
        return float(mpmath.sin(t) ** 2), float(mpmath.pi / 4 * w * mpmath.sin(2 * t))


@pytest.mark.parametrize("n", [64, 256])
def test_rule_matches_mpmath_reference(n):
    # Unsubstituted, the rule integrates x^m over [-1, 1] exactly for
    # m <= n - 2.
    phi, w = _fejer(n)
    x = -np.cos(phi)
    for m in range(n - 1):
        exact = mpmath.mpf(2) / (m + 1) if m % 2 == 0 else mpmath.mpf(0)
        assert np.sum(w * x ** m) == pytest.approx(float(exact), rel=0.0, abs=1e-14)
    # The two outermost substituted nodes and node n/4: both ends keep
    # full relative accuracy.
    s, w = _rule(n)
    for k in (1, n // 4, n - 1):
        s_ref, w_ref = _substituted_reference(n, k)
        assert s[k - 1] == pytest.approx(s_ref, rel=1e-13, abs=0.0)
        assert w[k - 1] == pytest.approx(w_ref, rel=1e-13, abs=0.0)


def test_rule_memory_is_linear_in_nodes():
    # The weight sum holds a few arrays of n nodes; a dense n x n
    # construction of the 4096-interval rule would hold 134 MB.
    tracemalloc.start()
    try:
        s, w = _rule.__wrapped__(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_batched_condition_equals_per_energy_calls():
    # Output must not depend on how energies are grouped into batches.
    grid, (psi, alpha) = qz._phase_grid(SUPER21, act.barrier(SUPER21))
    picks = grid[::7]
    single = np.array([qz._dw_eval(SUPER21, e) for e in picks])
    batch = np.array(qz._dw_eval(SUPER21, picks)).T
    assert np.allclose(batch, single, rtol=1e-14, atol=0.0)
    assert np.allclose(np.column_stack([psi, alpha])[::7], single, rtol=1e-14, atol=0.0)


def test_grid_pass_memory_is_bounded():
    # 1,311 energies over the N=80 sampling range in one call, a grid
    # pass's worth: rows are integrated in chunks, so no temporary grows
    # with rows x nodes.
    # Measured peak 1.3 MB; 21 MB with every open row in one evaluation.
    p = ModelParams(N=80, eps=0.8237, v=1.0, g=-3.0 / 81.0)
    info = act.barrier(p)
    scale = p.energy_scale()
    grid = np.linspace(info.e_min_lower + 1e-9 * scale, info.e_max - 1e-8 * scale,
                       16 * (p.N + 1) + 15)
    assert len(grid) > 1300
    qz._dw_eval(p, grid)  # node tables and fixed points built first
    tracemalloc.start()
    try:
        qz._dw_eval(p, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
