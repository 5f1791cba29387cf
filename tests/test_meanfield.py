import numpy as np
import pytest

from bosesemi import meanfield as mf
from bosesemi.model import ModelParams

SUPER21 = ModelParams(N=20, eps=0.0, v=1.0, g=-1.0 / 7.0)  # Ns = 21


def test_energy_values():
    assert mf.hamiltonian(SUPER21, 0.0, 0.0) == pytest.approx(-10.5)
    assert mf.hamiltonian(SUPER21, np.pi / 2, 0.0) == pytest.approx(-52.5)
    for q in (0.0, 0.3, 1.1):
        assert mf.hamiltonian(SUPER21, q, 21.0) == pytest.approx(-63.0)
        assert mf.hamiltonian(SUPER21, q, -21.0) == pytest.approx(-63.0)
    with pytest.raises(mf.RimError):
        mf.hamiltonian(SUPER21, 0.0, 21.5)


def test_energy_symmetry_and_periodicity():
    rng = np.random.default_rng(0)
    q = rng.uniform(0, np.pi, 50)
    p = rng.uniform(-20.9, 20.9, 50)
    h = mf.hamiltonian(SUPER21, q, p)
    assert np.allclose(h, mf.hamiltonian(SUPER21, -q, p))
    assert np.allclose(h, mf.hamiltonian(SUPER21, q + np.pi, p))


def test_potentials_bound_energy():
    rng = np.random.default_rng(1)
    q = rng.uniform(0, np.pi, 200)
    p = rng.uniform(-20.99, 20.99, 200)
    um, up = mf.momentum_potentials(SUPER21, p)
    h = mf.hamiltonian(SUPER21, q, p)
    assert np.all(um - 1e-12 <= h) and np.all(h <= up + 1e-12)
    # The potentials join at the rim.
    um_r, up_r = mf.momentum_potentials(SUPER21, 21.0)
    assert um_r == pytest.approx(up_r)
    assert um_r == pytest.approx(-63.0)


def test_potentials_double_well_shape():
    # Strongly interacting case: the lower potential has two minima.
    p = ModelParams(N=10, eps=0.6, v=1.0, g=-4.0 / 11.0)
    x = np.linspace(-10.99, 10.99, 4001)
    um, _ = mf.momentum_potentials(p, x)
    interior_minima = np.flatnonzero((um[1:-1] < um[:-2]) & (um[1:-1] < um[2:]))
    assert interior_minima.size == 2


def test_gradient_at_example_point():
    dq, dp_ = mf.gradient(SUPER21, np.pi / 4, 0.0)
    assert dq == pytest.approx(-2.0 * 21.0)  # dH/dq; momentum rate is -dH/dq
    assert dp_ == pytest.approx(0.0, abs=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(100):
        q = rng.uniform(0, np.pi)
        p = rng.uniform(-19.0, 19.0)
        dq, dp_ = mf.gradient(SUPER21, q, p)
        fd_q = (mf.hamiltonian(SUPER21, q + h, p) - mf.hamiltonian(SUPER21, q - h, p)) / (2 * h)
        fd_p = (mf.hamiltonian(SUPER21, q, p + h) - mf.hamiltonian(SUPER21, q, p - h)) / (2 * h)
        scale = abs(dq) + abs(dp_) + 1.0
        assert abs(dq - fd_q) < 1e-6 * scale
        assert abs(dp_ - fd_p) < 1e-6 * scale


def test_gradient_rim_singularity():
    with pytest.raises(mf.RimError):
        mf.gradient(SUPER21, 0.3, 21.0)


def test_fixed_points_subcritical():
    p = ModelParams(N=10, eps=0.0, v=1.0, g=-0.5 / 11.0)
    fps = mf.fixed_points(p)
    assert len(fps) == 2
    mx = next(f for f in fps if f.kind == "maximum")
    mn = next(f for f in fps if f.kind == "minimum")
    ns = p.Ns
    assert mx.energy == pytest.approx(p.v * ns + p.g * ns**2 / 2)
    assert mn.energy == pytest.approx(-p.v * ns + p.g * ns**2 / 2)
    assert mx.label == "E+" and mn.label == "E-"
    assert mx.p == pytest.approx(0.0, abs=1e-10) and mx.q == 0.0


def test_fixed_points_at_critical_coupling():
    # At g*Ns = -v exactly the pitchfork point's Hessian has an exactly
    # zero eigenvalue; it is still the flat-bottomed minimum of one well.
    p = ModelParams(N=2, eps=0.0, v=1.0, g=-1.0 / 3.0)
    fps = mf.fixed_points(p)
    assert [f.kind for f in fps] == ["minimum", "maximum"]
    assert fps[0].degenerate and fps[0].label == "E-"


def test_fixed_points_supercritical_closed_form():
    fps = mf.fixed_points(SUPER21)
    minima = [f for f in fps if f.kind == "minimum"]
    saddles = [f for f in fps if f.kind == "saddle"]
    assert len(minima) == 2 and len(saddles) == 1
    assert sorted(f.p for f in minima) == pytest.approx([-np.sqrt(392), np.sqrt(392)])
    for f in minima:
        assert f.energy == pytest.approx(-66.5)
    assert saddles[0].p == pytest.approx(0.0, abs=1e-10)
    assert saddles[0].energy == pytest.approx(-52.5)
    assert saddles[0].energy > minima[0].energy
    labels = {f.label for f in fps}
    assert labels == {"E+", "E-+", "E--", "E-saddle"}


def test_fixed_points_biased_supercritical():
    p = ModelParams(N=10, eps=-0.5, v=1.0, g=-3.0 / 11.0)
    fps = mf.fixed_points(p)
    assert len(fps) == 4
    for f in fps:
        dq, dp_ = mf.gradient(p, f.q, f.p)
        assert abs(dq) < 1e-10 and abs(dp_) < 1e-10
        hess = mf._hessian(p, f.q, f.p)
        lam = np.linalg.eigvalsh(hess)
        if f.kind == "minimum":
            assert lam[0] > 0
        elif f.kind == "maximum":
            assert lam[1] < 0
        else:
            assert lam[0] < 0 < lam[1]


def test_regime_classification():
    N = 10
    for v in (1.0, -1.0):  # the threshold is |v|/Ns
        assert mf.regime(ModelParams(N=N, eps=0.0, v=v, g=-0.5 / 11.0)) == "subcritical"
        assert mf.regime(ModelParams(N=N, eps=0.0, v=v, g=-3.0 / 11.0)) == "supercritical"
        assert mf.regime(ModelParams(N=N, eps=0.0, v=v, g=-1.0 / 11.0)) == "critical"
        assert mf.regime(ModelParams(N=N, eps=0.0, v=v, g=0.0)) == "subcritical"
    with pytest.raises(ValueError, match="v != 0"):
        mf.regime(ModelParams(N=N, eps=0.0, v=0.0, g=-3.0 / 11.0))


def test_bifurcation_count_transition():
    N = 10
    thr = 1.0 / 11.0
    for fac, expected in ((0.8, 2), (0.99, 2), (1.01, 4), (3.0, 4)):
        p = ModelParams(N=N, eps=0.0, v=1.0, g=-fac * thr)
        assert len(mf.fixed_points(p)) == expected


def test_trajectory_energy_conservation():
    p = ModelParams(N=10, eps=-0.5, v=1.0, g=-3.0 / 11.0)
    tr = mf.integrate_trajectory(p, 0.9, 2.0, t_final=100.0, dt=1e-3)
    e = mf.hamiltonian(p, tr.q, tr.p)
    assert np.max(np.abs(e - e[0])) <= 1e-8 * abs(e[0])
    assert not tr.hit_rim
    assert np.all(tr.q >= 0) and np.all(tr.q < np.pi)


def test_trajectory_stationary_at_fixed_point():
    p = ModelParams(N=10, eps=-0.5, v=1.0, g=-3.0 / 11.0)
    f = mf.fixed_points(p)[0]
    tr = mf.integrate_trajectory(p, f.q, f.p, t_final=10.0, dt=1e-3)
    assert np.max(np.abs(tr.p - f.p)) < 1e-8
    assert np.max(np.abs(np.mod(tr.q, np.pi) - np.mod(f.q, np.pi))) < 1e-8


def test_trajectory_loops_stay_in_their_well():
    p = ModelParams(N=10, eps=-0.5, v=1.0, g=-3.0 / 11.0)
    minima = [f for f in mf.fixed_points(p) if f.kind == "minimum"]
    assert len(minima) == 2
    for f in minima:
        tr = mf.integrate_trajectory(p, f.q, 0.9 * f.p, t_final=30.0, dt=1e-3)
        assert np.all(np.sign(tr.p) == np.sign(f.p))


def test_trajectory_rim_stop():
    # Along q = pi/4 with eps = g = 0, the momentum grows monotonically
    # until the rim; the integrator must stop with a partial result.
    p = ModelParams(N=10, eps=0.0, v=1.0, g=0.0)
    tr = mf.integrate_trajectory(p, np.pi / 4, 0.0, t_final=50.0, dt=1e-3)
    assert tr.hit_rim
    assert tr.t[-1] < 50.0
    assert abs(tr.p[-1]) > 0.99 * p.p_max
    with pytest.raises(mf.RimError):
        mf.integrate_trajectory(p, 0.2, p.p_max, t_final=1.0)


def test_gpe_norm_and_rabi():
    p = ModelParams(N=10, eps=0.0, v=1.0, g=0.0)
    psi0 = mf.amplitudes_from_phase_point(p, 0.0, 6.0)
    out = mf.gpe_propagate(p, psi0, t_final=float(np.pi), dt=1e-4)
    norm = np.abs(out.psi[:, 0]) ** 2 + np.abs(out.psi[:, 1]) ** 2
    assert np.max(np.abs(norm - p.Ns)) < 1e-8
    # One full population oscillation over pi * hbar / v.
    n1 = np.abs(out.psi[:, 0]) ** 2
    assert abs(n1[-1] - n1[0]) < 1e-8
    assert n1.min() < n1[0] - 1.0  # it actually oscillated


def test_gpe_matches_canonical_flow():
    p = ModelParams(N=10, eps=-0.5, v=1.0, g=-3.0 / 11.0)
    q0, p0 = 0.7, 1.5
    psi0 = mf.amplitudes_from_phase_point(p, q0, p0)
    gpe = mf.gpe_propagate(p, psi0, t_final=20.0, dt=1e-3)
    qg, pg = gpe.phase_path(p.hbar)
    tr = mf.integrate_trajectory(p, q0, p0, t_final=20.0, dt=1e-3)
    dq = np.abs(qg - tr.q)
    dq = np.minimum(dq, np.pi - dq)  # angle identified mod pi
    assert np.max(dq) < 1e-6
    assert np.max(np.abs(pg - tr.p)) < 1e-6


def test_gpe_self_trapping_and_long_time_norm():
    p = ModelParams(N=10, eps=0.0, v=1.0, g=-3.0 / 11.0)
    well = [f for f in mf.fixed_points(p) if f.kind == "minimum"][0]
    psi0 = mf.amplitudes_from_phase_point(p, well.q, 0.9 * well.p)
    out = mf.gpe_propagate(p, psi0, t_final=100.0, dt=1e-3)
    imbalance = np.abs(out.psi[:, 0]) ** 2 - np.abs(out.psi[:, 1]) ** 2
    assert np.all(np.sign(imbalance) == np.sign(imbalance[0]))
    norm = np.abs(out.psi[:, 0]) ** 2 + np.abs(out.psi[:, 1]) ** 2
    assert np.max(np.abs(norm - p.Ns)) <= 1e-8 * p.Ns


def test_gpe_rejects_bad_norm():
    p = ModelParams(N=10, eps=0.0, v=1.0, g=0.0)
    with pytest.raises(ValueError, match="Ns"):
        mf.gpe_propagate(p, np.array([1.0, 0.0]), t_final=1.0)
