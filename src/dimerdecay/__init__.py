"""Collective attenuation of exciton relaxation in a dissipative dimer.

A coupled oscillator pair with asymmetric phonon coupling relaxes
through a single collective channel whose decay constant is the site
dephasing rate scaled down by the attenuation factor
alpha = (|eta| j12 / omega0)^2.  The package provides the exciton
transformation, the rate algebra, closed-form and numerical dynamics
of the one-excitation density matrix, and the inverse analyses that
recover |eta| from measured lifetime ratios.

The names imported below are the package's top-level API.
"""

from .analysis import (
    EtaEstimate,
    NoSolutionError,
    SweepResult,
    estimate_eta,
    estimate_eta_limit,
    find_alpha_minimum,
    sweep_inverse_alpha,
)
from .dynamics import (
    EvolutionParams,
    OneExcitationState,
    StepSizeError,
    analytic_evolve,
    analytic_trajectory,
    from_site_basis,
    lindblad_generator,
    numeric_evolve,
    numeric_trajectory,
    to_site_basis,
    trajectory_to_site,
)
from .excitons import (
    DegenerateDimerError,
    DimerParams,
    ExcitonFrame,
    basis_map,
    exciton_frame,
    exciton_frequencies,
    exciton_splitting,
    lambda2_from_eta,
    mixing_angle,
    renormalized_gap,
    su2_identity_check,
)
from .rates import (
    BathSpec,
    RateSet,
    ResonantModeError,
    attenuation_factor,
    bose_occupation,
    decay_constant,
    frequency_renormalization,
    helix_attenuation,
    limit_inverse_alpha,
    load_modes_csv,
    rate_set,
    renormalized_frequencies,
)
from .units import (
    C_CM_PER_FS,
    KB_CM1_PER_K,
    thermal_energy,
    wavenumber_to_angular,
)

__version__ = "0.1.0"
