"""Unit system, physical constants and the number format of output files.

Internal unit conventions, used consistently by every other module:

* energies / frequencies : wavenumbers, cm^-1
* time                   : femtoseconds
* temperature            : kelvin
* length                 : angstroms

Rates quoted in fs^-1 therefore pair with lifetimes in fs.  Wavenumbers
enter dynamical phases only after conversion to angular frequency in
rad/fs via :func:`wavenumber_to_angular`.
"""

from __future__ import annotations

import math

# Speed of light in cm/fs (CODATA exact value 2.99792458e10 cm/s).
C_CM_PER_FS = 2.99792458e-5

# Boltzmann constant over hc, cm^-1 per kelvin (CODATA).
KB_CM1_PER_K = 0.69503480

TWO_PI = 2.0 * math.pi


def _fmt(x: float) -> str:
    # 9 significant digits; +0.0 folds negative zero for stable bytes
    return f"{x + 0.0:.9g}"


def wavenumber_to_angular(omega_cm1: float) -> float:
    """Convert a wavenumber in cm^-1 to an angular frequency in rad/fs.

    omega[rad/fs] = 2 pi c[cm/fs] * omega[cm^-1].  Accepts any finite
    value, including zero and negatives (sign is preserved).
    """
    if not math.isfinite(omega_cm1):
        raise ValueError(f"wavenumber must be finite, got {omega_cm1}")
    return TWO_PI * C_CM_PER_FS * omega_cm1


def thermal_energy(temperature_k: float) -> float:
    """k_B T expressed as a wavenumber in cm^-1.

    Temperature must be strictly positive; a physical bath at T = 0 is
    handled separately by the occupation functions.
    """
    if not (temperature_k > 0.0) or not math.isfinite(temperature_k):
        raise ValueError(f"temperature must be > 0 K, got {temperature_k}")
    return KB_CM1_PER_K * temperature_k
