"""Mean-field (classical) side: pendulum Hamiltonian on the cylinder,
amplitude dynamics, fixed points and the self-trapping bifurcation.

Phase space is q in [0, pi) with q = 0 and q = pi identified, and
|p| <= Ns*hbar.  The two-mode amplitude equations reduce to this
one-degree-of-freedom system through the population imbalance
p = (|psi1|^2 - |psi2|^2) * hbar and relative phase q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .roots import quartic_rows, real_roots


class RimError(ValueError):
    """Raised when an operation is evaluated at or beyond |p| = Ns*hbar."""


def hamiltonian(params: ModelParams, q, p):
    """Classical energy H(p, q) of the non-rigid pendulum."""
    u = np.asarray(p, dtype=float) / params.hbar
    ns = params.Ns
    if np.any(np.abs(u) > ns * (1 + 1e-12)):
        raise RimError(f"|p| exceeds the phase-space rim {ns * params.hbar}")
    root = np.sqrt(np.maximum(ns**2 - u**2, 0.0))
    val = params.eps * u + params.v * root * np.cos(2.0 * np.asarray(q)) \
        + 0.5 * params.g * (ns**2 + u**2)
    return val if val.ndim else float(val)


def gradient(params: ModelParams, q, p):
    """(dH/dq, dH/dp); singular on the rim |p| = Ns*hbar."""
    u = np.asarray(p, dtype=float) / params.hbar
    ns = params.Ns
    if np.any(np.abs(u) >= ns * (1 - 1e-12)):
        raise RimError("gradient is singular at the phase-space rim")
    root = np.sqrt(ns**2 - u**2)
    q = np.asarray(q, dtype=float)
    dhdq = -2.0 * params.v * root * np.sin(2.0 * q)
    dhdp = (params.eps - params.v * u * np.cos(2.0 * q) / root + params.g * u) / params.hbar
    if dhdq.ndim:
        return dhdq, dhdp
    return float(dhdq), float(dhdp)


def momentum_potentials(params: ModelParams, p):
    """(U_minus, U_plus) = (H(p, pi/2), H(p, 0)).

    These bound the classically allowed energies at each p and join at
    the rim.
    """
    return hamiltonian(params, 0.5 * np.pi, p), hamiltonian(params, 0.0, p)


def regime(params: ModelParams) -> str:
    """Classify the interaction strength relative to the self-trapping
    threshold g = -|v|/Ns; the sign of v does not matter."""
    if params.v == 0:
        raise ValueError("regime classification needs v != 0")
    thr = abs(params.v) / params.Ns
    if params.g >= 0:
        return "subcritical"
    if abs(abs(params.g) - thr) <= 1e-12 * thr:
        return "critical"
    return "supercritical" if abs(params.g) > thr else "subcritical"


@dataclass(frozen=True)
class FixedPoint:
    q: float
    p: float
    energy: float
    kind: str        # maximum | minimum | saddle
    label: str       # E+ | E- | E-+ | E-- | E-saddle
    degenerate: bool = False


def fixed_points(params: ModelParams):
    """All stationary points of H(p, q), classified by the signs of the
    Hessian's eigenvalues.

    Stationarity forces sin(2q) = 0, so candidates live on the q = 0 and
    q = pi/2 branches; on each branch the momentum condition is squared
    into a quartic in s = p/(hbar*Ns) and spurious roots are discarded by
    back-substitution.
    """
    ns = params.Ns
    eps, v, g = params.eps, params.v, params.g
    G = g * ns
    out = []
    deg_tol = 1e-9 * (abs(v) * ns + abs(g) * ns**2 + 1e-30)
    # dH/dp = 0 on the branch q0: (eps + G s) sqrt(1 - s^2) = sgn * v * s.
    # Squared, both branches give (eps + G s)^2 (1 - s^2) - v^2 s^2 = 0.
    cand = real_roots(quartic_rows([[G * G, 2.0 * eps * G, eps * eps + v * v - G * G,
                                     -2.0 * eps * G, -eps * eps]])[0])
    for q0, sgn in ((0.0, +1.0), (0.5 * np.pi, -1.0)):
        seen = []
        for s in cand:
            if abs(s) > 1.0 - 1e-13:
                continue
            resid = (eps + G * s) * np.sqrt(1.0 - s * s) - sgn * v * s
            if abs(resid) > 1e-7 * (abs(v) + abs(G) + abs(eps) + 1.0):
                continue
            if any(abs(s - s0) < 1e-10 for s0 in seen):
                continue
            seen.append(s)
            p0 = s * ns * params.hbar
            # sin 2q = 0 and cos 2q = sgn here, so the Hessian is diagonal
            # and its eigenvalues are the curvatures in q and in p.
            root = np.sqrt(ns**2 - (p0 / params.hbar) ** 2)
            lam = sorted((-4.0 * v * root * sgn, (-v * sgn * ns**2 / root**3 + g) / params.hbar**2))
            degenerate = bool(np.min(np.abs(lam)) < deg_tol)
            if lam[0] >= 0:
                kind = "minimum"
            elif lam[1] <= 0:
                kind = "maximum"
            else:
                kind = "saddle"
            out.append((q0, p0, float(hamiltonian(params, q0, p0)), kind, degenerate))

    # Label: single max is E+, single min is E-; the bifurcated pair is
    # E-+/E-- (by momentum sign) with the saddle E-saddle.
    minima = [f for f in out if f[3] == "minimum"]
    result = []
    for q0, p0, en, kind, degenerate in out:
        if kind == "maximum":
            label = "E+"
        elif kind == "saddle":
            label = "E-saddle"
        elif len(minima) > 1:
            label = "E-+" if p0 >= 0 else "E--"
        else:
            label = "E-"
        result.append(FixedPoint(q0, p0, en, kind, label, degenerate))
    result.sort(key=lambda f: f.energy)
    return result


def _rk4(params: ModelParams, deriv, y, t_final, dt, stop=lambda y: False):
    """Fixed-step classical 4th-order Runge-Kutta of dy/dt = deriv(y) from
    y over t_final, with dt = 1e-3/|v| by default.  Returns the times, the
    states and whether the run stopped early: at a step whose substep
    raised ``RimError`` (that step is dropped) or after a step whose state
    satisfies ``stop``."""
    if dt is None:
        dt = 1e-3 / abs(params.v) if params.v else 1e-3
    n = max(1, int(round(t_final / dt)))
    out = np.empty((n + 1, *y.shape), dtype=y.dtype)
    out[0] = y
    for i in range(n):
        try:
            k1 = deriv(y)
            k2 = deriv(y + 0.5 * dt * k1)
            k3 = deriv(y + 0.5 * dt * k2)
            k4 = deriv(y + dt * k3)
        except RimError:
            return dt * np.arange(i + 1), out[: i + 1], True
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
        if stop(y):
            return dt * np.arange(i + 2), out[: i + 2], True
    return dt * np.arange(n + 1), out, False


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    hit_rim: bool


def integrate_trajectory(params: ModelParams, q0, p0, t_final, dt=None) -> Trajectory:
    """Fixed-step 4th-order integration of the canonical equations.

    The angle is folded into [0, pi) only on output, to avoid branch
    jumps during the integration.  If the trajectory reaches the rim the
    partial result is returned with ``hit_rim`` set.
    """
    rim = params.p_max * (1.0 - 1e-12)
    if abs(p0) >= rim:
        raise RimError("trajectory must start strictly inside phase space")

    def deriv(y):
        dhdq, dhdp = gradient(params, y[0], y[1])
        return np.array([dhdp, -dhdq])

    # A substep that crosses the rim, or a step that ends at it, stops the
    # run with the partial trajectory.
    t, out, hit = _rk4(params, deriv, np.array([q0, p0], dtype=float), t_final, dt,
                       stop=lambda y: abs(y[1]) >= rim - 1e-9 * params.p_max)
    return Trajectory(t=t, q=np.mod(out[:, 0], np.pi), p=out[:, 1], hit_rim=hit)


@dataclass(frozen=True)
class AmplitudeTrajectory:
    t: np.ndarray
    psi: np.ndarray  # complex, shape (nt, 2)

    def phase_path(self, hbar):
        """Reduce to the canonical pair: q = (arg psi2 - arg psi1)/2 folded
        into [0, pi), p = (|psi1|^2 - |psi2|^2) * hbar."""
        q = 0.5 * (np.angle(self.psi[:, 1]) - np.angle(self.psi[:, 0]))
        p = (np.abs(self.psi[:, 0]) ** 2 - np.abs(self.psi[:, 1]) ** 2) * hbar
        return np.mod(q, np.pi), p


def amplitudes_from_phase_point(params: ModelParams, q, p):
    """Amplitude pair realizing the phase-space point (q, p)."""
    n1 = 0.5 * (params.Ns + p / params.hbar)
    n2 = 0.5 * (params.Ns - p / params.hbar)
    if n1 < 0 or n2 < 0:
        raise RimError("momentum outside the phase space")
    return np.array([np.sqrt(n1) * np.exp(-1j * q), np.sqrt(n2) * np.exp(1j * q)])


def gpe_propagate(params: ModelParams, psi0, t_final, dt=None) -> AmplitudeTrajectory:
    """Propagate the two-mode nonlinear amplitude equations.

    i hbar d/dt (psi1, psi2) = ((eps + 2 g |psi1|^2, v), (v, -eps + 2 g |psi2|^2)) psi
    with norm |psi1|^2 + |psi2|^2 = Ns, conserved by the flow.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    norm = np.sum(np.abs(psi0) ** 2)
    if abs(norm - params.Ns) > 1e-10 * params.Ns:
        raise ValueError(f"|psi|^2 = {norm:.12g}, expected Ns = {params.Ns}")

    eps, v, g, hbar = params.eps, params.v, params.g, params.hbar

    def deriv(psi):
        d1 = (eps + 2.0 * g * abs(psi[0]) ** 2) * psi[0] + v * psi[1]
        d2 = v * psi[0] + (-eps + 2.0 * g * abs(psi[1]) ** 2) * psi[1]
        return np.array([d1, d2]) / (1j * hbar)

    t, out, _ = _rk4(params, deriv, psi0, t_final, dt)
    return AmplitudeTrajectory(t=t, psi=out)
