"""Independent reference routes that the production code is checked against.

The closed-form Ferrari/Cardano solvers cross-check the companion-matrix
`quartic_roots`; the finite-difference period dS/dE cross-checks the
time integral `period_direct`; the guarded Sturm recurrence is what the
IEEE sign-bit count of `tridiag._bisect` must reproduce bit for bit; the
full 2x2 Hessian checks `fixed_points`, which reads only its diagonal.
"""

import numpy as np

from bosesemi import actions as act
from bosesemi.roots import _polish


def solve_quadratic(a, b, c):
    """Roots of a x^2 + b x + c, numerically stable form."""
    if a == 0:
        if b == 0:
            return np.array([], dtype=complex)
        return np.array([-c / b], dtype=complex)
    disc = complex(b * b - 4 * a * c) ** 0.5
    # Avoid cancellation: pick the large-magnitude numerator first.
    if (np.conj(b) * disc).real >= 0:
        qq = -0.5 * (b + disc)
    else:
        qq = -0.5 * (b - disc)
    r1 = qq / a
    r2 = c / qq if qq != 0 else 0.0 + 0.0j
    return np.array([r1, r2], dtype=complex)


def solve_cubic(a, b, c, d):
    """All roots of a x^3 + b x^2 + c x + d (Cardano / trigonometric)."""
    if a == 0:
        return solve_quadratic(b, c, d)
    b, c, d = b / a, c / a, d / a
    # Depressed cubic t^3 + p t + q with x = t - b/3.
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc < 0:
        # Three real roots.
        rho = np.sqrt(-(p / 3.0) ** 3)
        theta = np.arccos(np.clip(-q / (2.0 * rho), -1.0, 1.0)) / 3.0
        m = 2.0 * np.sqrt(-p / 3.0)
        t = m * np.cos(theta + np.array([0.0, -2.0, 2.0]) * np.pi / 3.0)
        roots = t.astype(complex) + shift
    else:
        sq = np.sqrt(disc)
        u = np.cbrt(-q / 2.0 + sq)
        w = np.cbrt(-q / 2.0 - sq)
        x0 = (u + w) + shift
        # Remaining pair from deflating the real root x0.
        beta = b + x0
        gamma = c + x0 * beta
        roots = np.concatenate([[complex(x0)], solve_quadratic(1.0, beta, gamma)])
    coeffs = np.array([1.0, b, c, d])
    return _polish(coeffs, roots)


def solve_quartic(a, b, c, d, e):
    """All four roots of a x^4 + b x^3 + c x^2 + d x + e (Ferrari).

    Degenerate leading coefficients fall through to the lower-degree
    solvers, so the interaction-free case (quartic collapsing to a
    quadratic) needs no special casing by the caller.
    """
    coeffs = np.array([a, b, c, d, e], dtype=float)
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        return np.array([], dtype=complex)
    if abs(a) <= 1e-14 * scale:
        return solve_cubic(b, c, d, e)
    b, c, d, e = b / a, c / a, d / a, e / a
    # Depressed quartic y^4 + p y^2 + q y + r with x = y - b/4.
    p = c - 3.0 * b * b / 8.0
    q = d - b * c / 2.0 + b**3 / 8.0
    r = e - b * d / 4.0 + b * b * c / 16.0 - 3.0 * b**4 / 256.0
    shift = -b / 4.0
    qscale = max(abs(p), abs(r), 1.0)
    if abs(q) <= 1e-14 * qscale:
        # Biquadratic.
        z = solve_quadratic(1.0, p, r)
        roots = np.concatenate([np.sqrt(z), -np.sqrt(z)]) + shift
    else:
        # Resolvent cubic 8 m^3 + 8 p m^2 + (2 p^2 - 8 r) m - q^2 = 0.
        mroots = solve_cubic(8.0, 8.0 * p, 2.0 * p * p - 8.0 * r, -q * q)
        mreal = [m.real for m in mroots if abs(m.imag) <= 1e-8 * (1 + abs(m)) and m.real > 0]
        m = max(mreal) if mreal else max(mroots, key=lambda z: z.real).real
        if m <= 0:
            m = abs(m) + 1e-30
        s = np.sqrt(2.0 * m)
        # (y^2 + p/2 + m)^2 = 2m (y - q/(4m))^2
        r1 = solve_quadratic(1.0, -s, p / 2.0 + m + s * q / (4.0 * m))
        r2 = solve_quadratic(1.0, s, p / 2.0 + m - s * q / (4.0 * m))
        roots = np.concatenate([r1, r2]) + shift
    coeffs_monic = np.array([1.0, b, c, d, e])
    return _polish(coeffs_monic, roots)


def period_fd(params, E, lobe="auto"):
    """T = dS/dE by central differences with one Richardson step.

    The stencil half-width is 1e-5 of the energy scale, so E must sit
    farther than that from the separatrix and the range edges.
    """
    h = 1e-5 * params.energy_scale()

    def d(hh):
        return (act.action(params, E + hh, lobe=lobe) - act.action(params, E - hh, lobe=lobe)) / (2.0 * hh)

    return float((4.0 * d(0.5 * h) - d(h)) / 3.0)


def hessian(params, q, p):
    """The Hessian of H(p, q) in (q, p), off-diagonal terms included."""
    u = p / params.hbar
    ns = params.Ns
    root = np.sqrt(ns**2 - u**2)
    c2q = np.cos(2.0 * q)
    hqq = -4.0 * params.v * root * c2q
    hqp = 2.0 * params.v * u * np.sin(2.0 * q) / (params.hbar * root)
    hpp = (-params.v * c2q * ns**2 / root**3 + params.g) / params.hbar**2
    return np.array([[hqq, hqp], [hqp, hpp]])


def sturm_count_guarded(d, e, x):
    """Eigenvalues of the symmetric tridiagonal matrix (d, e) below each
    entry of x, by the Sturm count with a guarded pivot recurrence (Barth,
    Martin and Wilkinson, Numer. Math. 9, 1967; LAPACK's ``dstebz``): a
    pivot q with |q| < pivmin is replaced by -pivmin, so every quotient
    stays finite and each pivot q < pivmin counts as negative."""
    pivmin = np.finfo(float).tiny * np.max(e**2, initial=1.0)
    q = d[0] - x
    count = np.zeros(x.size, dtype=int)
    for di, e2i in zip(d[1:], e**2):
        count += q < pivmin
        q = di - x - e2i / np.where(np.abs(q) < pivmin, -pivmin, q)
    return count + (q < pivmin)


def sturm_bisect_guarded(d, e):
    """All eigenvalues of (d, e) by bisection on ``sturm_count_guarded``.
    Same brackets and halvings as ``tridiag._bisect``, so the two agree bit
    for bit."""
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    lo, hi = np.min(d - radius), np.max(d + radius)
    k = np.arange(d.size)
    a, b = np.full(d.size, lo), np.full(d.size, hi)
    for _ in range(np.finfo(float).nmant):
        x = 0.5 * (a + b)
        below = sturm_count_guarded(d, e, x) > k
        a, b = np.where(below, a, x), np.where(below, x, b)
    return 0.5 * (a + b)
