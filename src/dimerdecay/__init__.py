"""Collective attenuation of exciton relaxation in a dissipative dimer.

A coupled oscillator pair with asymmetric phonon coupling relaxes
through a single collective channel whose decay constant is the site
dephasing rate scaled down by the attenuation factor
alpha = (|eta| j12 / omega0)^2.  The package provides the exciton
transformation, the rate algebra, closed-form and numerical dynamics
of the one-excitation density matrix, and the inverse analyses that
recover |eta| from measured lifetime ratios.

The names imported below are the package's top-level API, the ones the
README's "Library use" section shows; everything else is reached
through its module (dimerdecay.excitons, .rates, .dynamics, .analysis,
.units, .cli).
"""

from .analysis import estimate_eta, find_alpha_minimum
from .dynamics import (
    EvolutionParams,
    OneExcitationState,
    analytic_evolve,
    analytic_trajectory,
    numeric_evolve,
    numeric_trajectory,
    trajectory_to_site,
    write_trajectory_csv,
)
from .excitons import DimerParams, exciton_frame
from .rates import BathSpec, rate_set

__version__ = "0.1.0"
