import numpy as np
import pytest

from bosesemi.roots import quartic_rows, real_roots
from oracles import solve_cubic, solve_quadratic, solve_quartic


def quartic_roots(*c):
    # One quartic as a batch of one row, its NaN padding dropped.
    r = quartic_rows([c])[0]
    return r[~np.isnan(r)]


def match_dev(found, expected):
    """Greedy multiset match; robust against conjugate-pair ordering."""
    pool = list(found)
    dev = 0.0
    for r in expected:
        i = int(np.argmin([abs(r - x) for x in pool]))
        dev = max(dev, abs(r - pool.pop(i)))
    return dev


def test_quadratic_stable():
    # The small root must not be lost to cancellation.
    r = sorted(solve_quadratic(1.0, -1e8, 1.0), key=abs)
    assert r[0].real == pytest.approx(1e-8, rel=1e-12)
    assert r[1].real == pytest.approx(1e8, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_cubic_random(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        c = rng.normal(size=4)
        assert match_dev(solve_cubic(*c), np.roots(c)) < 1e-8


def test_quartic_random_vs_companion():
    rng = np.random.default_rng(1)
    for _ in range(500):
        c = rng.normal(size=5)
        assert match_dev(solve_quartic(*c), np.roots(c)) < 1e-8


def test_production_route_near_double_roots():
    # Double roots are where turning points merge (barrier top, orbit
    # bottoms); the production route must stay accurate there.
    rng = np.random.default_rng(2)
    for _ in range(200):
        r = rng.normal(size=4) * 10.0 ** rng.integers(-2, 3, size=4)
        r[1] = r[0] + 10.0 ** rng.integers(-9, -3)
        c = np.poly(r)
        assert match_dev(quartic_roots(*c), r) < 2e-4


def test_ferrari_cross_check():
    # Independent closed-form route agrees away from degeneracies.
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = rng.normal(size=5)
        assert match_dev(solve_quartic(*c), quartic_roots(*c)) < 1e-8


def test_degenerate_leading_coefficients():
    assert match_dev(quartic_roots(0.0, 0.0, 2.0, 0.0, -8.0), [2.0, -2.0]) < 1e-14
    assert match_dev(quartic_roots(0.0, 1.0, -6.0, 11.0, -6.0), [1.0, 2.0, 3.0]) < 1e-10
    assert match_dev(quartic_roots(0.0, 0.0, 0.0, 2.0, -5.0), [2.5]) < 1e-14
    assert quartic_roots(0.0, 0.0, 0.0, 0.0, 3.0).size == 0


def test_real_root_filter():
    roots = np.array([1.0 + 1e-12j, 2.0 + 0.5j, -3.0 - 1e-10j])
    assert np.allclose(real_roots(roots), [-3.0, 1.0])
