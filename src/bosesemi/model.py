"""Model parameters shared by the quantum and mean-field sides."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the two-mode boson model.

    N     -- particle count (integer >= 1)
    eps   -- onsite energy bias between the two modes
    v     -- mode coupling constant; its sign does not change the
             spectrum, and the semiclassical side reads |v|
    g     -- onsite interaction strength
    hbar  -- Planck constant (sets the momentum/action scale, default 1)

    The derived symmetrized norm ``Ns = N + 1`` is the mean-field
    normalization |psi1|^2 + |psi2|^2.
    """

    N: int
    eps: float = 0.0
    v: float = 1.0
    g: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        for name in ("eps", "v", "g", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar!r}")
        object.__setattr__(self, "N", int(self.N))
        if self.g > 0:
            # Accepted, but outside the regime the solver is validated for.
            warnings.warn("parameters outside the validated regime (g <= 0)", stacklevel=3)

    @property
    def Ns(self) -> int:
        return self.N + 1

    @property
    def p_max(self) -> float:
        """Rim of the classical phase space, |p| <= Ns*hbar."""
        return self.Ns * self.hbar

    def energy_scale(self) -> float:
        """Natural magnitude of classical energies, used for tolerances."""
        return abs(self.v) * self.Ns + abs(self.g) * self.Ns**2 + abs(self.eps) * self.Ns + 1e-30


def _level_index(params: ModelParams, n):
    """Raises ``ValueError`` unless n is an integer level index in 0..N (not a bool)."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 0 <= n <= params.N):
        raise ValueError(f"level index {n!r} is not an integer in 0..{params.N}")
