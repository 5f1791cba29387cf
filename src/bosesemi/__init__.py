"""Exact and semiclassical treatment of the two-mode Bose-Hubbard model.

The exact side diagonalizes the (N+1)-dimensional number-basis
Hamiltonian; the semiclassical side reconstructs spectra and
momentum-space eigenstates from the mean-field phase-space flow via
action quantization with barrier-tunneling corrections.
"""

from .actions import (
    BarrierInfo,
    GeometryError,
    OrbitGeometry,
    SeparatrixError,
    TurningPoint,
    action,
    barrier,
    classical_range,
    period_direct,
    phase_correction,
    tunneling,
    turning_points,
)
from .meanfield import (
    FixedPoint,
    RimError,
    amplitudes_from_phase_point,
    fixed_points,
    gpe_propagate,
    gradient,
    hamiltonian,
    integrate_trajectory,
    momentum_potentials,
    regime,
)
from .model import ModelParams
from .quantize import (
    Level,
    QuantizationError,
    SemiclassicalSpectrum,
    quantize_double,
    quantize_single,
    semiclassical_spectrum,
    sweep_epsilon,
)
from .quantum import (
    LevelDensity,
    MomentumWavefunction,
    Spectrum,
    TridiagonalHamiltonian,
    build_hamiltonian,
    diagonalize,
    exact_spectrum,
    level_density,
    momentum_grid,
    momentum_representation,
)
from .wavefun import (
    action_phase,
    classical_density,
    forbidden_tail,
    oscillator_coordinate,
    primitive_wavefunction,
    uniform_wavefunction,
)

__version__ = "0.1.0"
