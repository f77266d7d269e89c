"""Collective decay constants of the dimer's exciton pair.

The dissipative dynamics of the exciton pair is controlled by a single
collective decay constant gamma = alpha * gamma_d, where gamma_d is the
dephasing rate of an individual site in its phonon bath and

    alpha = (|eta| j12 / omega0)^2

is the attenuation factor built from the site asymmetry, the intersite
coupling, and the exciton splitting omega0.  Thermal occupation of the
resonant phonon mode sets the branching between upward and downward
exciton transitions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

from .excitons import DimerParams, _dressed_gap, exciton_splitting, renormalized_gap
from .units import thermal_energy, wavenumber_to_angular

__all__ = [
    "ResonantModeError",
    "BathSpec",
    "RateSet",
    "bose_occupation",
    "attenuation_factor",
    "decay_constant",
    "rate_set",
    "limit_inverse_alpha",
    "helix_attenuation",
    "frequency_renormalization",
    "renormalized_frequencies",
    "load_modes_csv",
    "MODES_CSV_HEADER",
]

# Required header of a phonon-mode CSV: frequency and squared coupling.
MODES_CSV_HEADER = ("omega_k_cm1", "V2_k_cm2")


class ResonantModeError(ValueError):
    """A discrete phonon mode sits exactly on the exciton resonance."""


@dataclass(frozen=True)
class BathSpec:
    """Phonon-bath inputs.

    Attributes
    ----------
    temperature : float
        Bath temperature in K, > 0.
    gamma_d : float
        Site dephasing rate in fs^-1, >= 0.  A direct input: the
        delta-correlated bath sets no scale of its own here.
    modes : tuple of (omega_k, V2_k) pairs, optional
        Discrete phonon modes (cm^-1, cm^-2) for the principal-value
        frequency-shift sums.  Empty/None means no shift.
    """

    temperature: float
    gamma_d: float
    modes: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not (self.temperature > 0.0) or not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be > 0 K, got {self.temperature}")
        if self.gamma_d < 0.0 or not math.isfinite(self.gamma_d):
            raise ValueError(f"gamma_d must be >= 0 fs^-1, got {self.gamma_d}")
        if self.modes is not None:
            norm = tuple((float(w), float(v2)) for w, v2 in self.modes)
            for w, v2 in norm:
                if not w > 0.0:
                    raise ValueError(f"mode frequency must be > 0 cm^-1, got {w}")
                if v2 < 0.0:
                    raise ValueError(f"squared coupling must be >= 0, got {v2}")
            object.__setattr__(self, "modes", norm)


@dataclass(frozen=True)
class RateSet:
    """Derived decay quantities for one dimer/bath combination.

    lifetime is 1/gamma in fs, or None when gamma = 0 (infinite);
    inverse_alpha is inf when the attenuation factor vanishes.
    """

    alpha: float
    gamma: float
    nbar0: float
    lifetime: float | None
    inverse_alpha: float

    def __post_init__(self) -> None:
        if self.alpha < 0.0 or self.nbar0 < 0.0:
            raise ValueError("alpha and nbar0 must be >= 0")
        if self.gamma != 0.0 and self.alpha != 0.0:
            ratio = self.gamma / self.alpha
            if not math.isfinite(ratio) or ratio < 0.0:
                raise ValueError("gamma must equal alpha * gamma_d with gamma_d >= 0")


def bose_occupation(omega0: float, temperature_k: float) -> float:
    """Mean thermal occupation 1/(exp(omega0/kT) - 1) at omega0 in cm^-1.

    T = 0 returns the limit value 0.  omega0 must be positive: it is the
    exciton splitting, a resonance frequency.
    """
    if not omega0 > 0.0:
        raise ValueError(f"omega0 must be > 0 cm^-1, got {omega0}")
    if temperature_k < 0.0:
        raise ValueError(f"temperature must be >= 0 K, got {temperature_k}")
    if temperature_k == 0.0:
        return 0.0
    x = omega0 / thermal_energy(temperature_k)
    if x > 700.0:
        # expm1 overflows near x = 709; here 1/expm1(x) = exp(-x) to
        # relative accuracy exp(-x) < 1e-304
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def _attenuation(gap, j12, lambda1, eta_abs, cos_theta):
    """alpha = (|eta| j12)^2 / (D^2 + 4 j12^2) with D the dressed gap.

    D^2 + 4 j12^2 = omega0^2.  Floats or numpy arrays; plain arithmetic
    only, so an array gives the same bits as the scalars point by point.
    """
    d = _dressed_gap(gap, lambda1, eta_abs, cos_theta)
    xj = eta_abs * j12
    return xj * xj / (d * d + 4.0 * j12 * j12)


def attenuation_factor(p: DimerParams) -> float:
    """Attenuation alpha = (|eta| j12 / omega0)^2 of the collective decay.

    omega0 is the exciton splitting built from the renormalized gap.
    Vanishing coupling or vanishing asymmetry gives alpha = 0 exactly:
    the exciton pair then decouples from the dissipative channel.
    """
    if p.j12 == 0.0:
        return 0.0
    return _attenuation(p.gap, p.j12, p.lambda1, p.eta_abs, math.cos(p.theta))


def decay_constant(alpha: float, gamma_d: float) -> float:
    """Collective decay constant gamma = alpha * gamma_d in fs^-1."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if gamma_d < 0.0:
        raise ValueError(f"gamma_d must be >= 0 fs^-1, got {gamma_d}")
    return alpha * gamma_d


def rate_set(p: DimerParams, bath: BathSpec) -> RateSet:
    """Bundle alpha, gamma, nbar0, lifetime for one configuration."""
    alpha = attenuation_factor(p)
    gamma = decay_constant(alpha, bath.gamma_d)
    omega0 = exciton_splitting(renormalized_gap(p), p.j12)
    nbar0 = bose_occupation(omega0, bath.temperature) if omega0 > 0.0 else 0.0
    return RateSet(
        alpha=alpha,
        gamma=gamma,
        nbar0=nbar0,
        lifetime=(1.0 / gamma) if gamma > 0.0 else None,
        inverse_alpha=(1.0 / alpha) if alpha > 0.0 else math.inf,
    )


def limit_inverse_alpha(eta_abs: float, gap0: float, j12: float) -> float:
    """Weak-coupling limit of 1/alpha: (gap0/j12)^2 / |eta|^2.

    Valid when both the reorganization energy and the coupling are small
    against the bare gap; then omega0 ~ gap0 and the full expression
    collapses to this ratio.
    """
    if eta_abs <= 0.0:
        raise ValueError(f"eta_abs must be > 0, got {eta_abs}")
    if j12 == 0.0:
        raise ValueError("j12 must be nonzero")
    return (gap0 / j12) ** 2 / eta_abs**2


def helix_attenuation(a_angstrom: float, v_m_per_s: float, j12: float) -> float:
    """Attenuation factor for a lattice of sites on an elastic chain.

    For long-wavelength acoustic phonons the site asymmetry is the phase
    advance over one lattice spacing, |eta| ~ q a, and on resonance
    q = omega0 / v.  The attenuation then collapses to

        alpha = ((a / v) * omega_J)^2

    with omega_J the coupling expressed as an angular frequency; the
    exciton splitting cancels.  a in angstrom, v in m/s, j12 in cm^-1.
    """
    if a_angstrom <= 0.0:
        raise ValueError(f"spacing must be > 0 angstrom, got {a_angstrom}")
    if v_m_per_s <= 0.0:
        raise ValueError(f"sound speed must be > 0 m/s, got {v_m_per_s}")
    # angstrom per (m/s) is 1e-10 s, i.e. 1e5 fs
    transit_fs = (a_angstrom / v_m_per_s) * 1.0e5
    root = transit_fs * wavenumber_to_angular(j12)
    if not math.isfinite(root * root):
        raise ValueError(f"attenuation factor overflows: (a / v) * omega_J = {root:.6g}")
    return root**2


def frequency_renormalization(
    modes: Iterable[tuple[float, float]] | None,
    omega0: float,
    temperature_k: float,
) -> tuple[float, float]:
    """Second-order exciton frequency shifts from discrete phonon modes.

    Returns (delta_plus, delta_minus) in cm^-1:

        delta_plus  =  sum_k V2_k (nbar_k + 1) / (omega_k - omega0)
        delta_minus = -sum_k V2_k  nbar_k      / (omega_k - omega0)

    a discrete realization of the principal-value sums.  A mode exactly
    at omega0 makes the sum singular and must be excluded or shifted by
    the caller.
    """
    if not omega0 > 0.0:
        raise ValueError(f"omega0 must be > 0 cm^-1, got {omega0}")
    delta_plus = 0.0
    delta_minus = 0.0
    for omega_k, v2_k in modes or ():
        if not omega_k > 0.0:
            raise ValueError(f"mode frequency must be > 0 cm^-1, got {omega_k}")
        if v2_k < 0.0:
            raise ValueError(f"squared coupling must be >= 0, got {v2_k}")
        if omega_k == omega0:
            raise ResonantModeError(
                f"mode at {omega_k} cm^-1 sits exactly on the exciton "
                f"resonance omega0 = {omega0} cm^-1; exclude or shift it"
            )
        nbar_k = bose_occupation(omega_k, temperature_k)
        delta_plus += v2_k * (nbar_k + 1.0) / (omega_k - omega0)
        delta_minus -= v2_k * nbar_k / (omega_k - omega0)
    return delta_plus, delta_minus


def renormalized_frequencies(
    omega_plus: float,
    omega_minus: float,
    modes: Iterable[tuple[float, float]] | None,
    temperature_k: float,
) -> tuple[float, float]:
    """Exciton frequencies with the mode shifts applied: omega_bar = omega - delta."""
    delta_plus, delta_minus = frequency_renormalization(
        modes, omega_plus - omega_minus, temperature_k
    )
    return omega_plus - delta_plus, omega_minus - delta_minus


def load_modes_csv(path: str) -> tuple[tuple[float, float], ...]:
    """Read discrete phonon modes from a two-column CSV.

    The header row must be exactly ``omega_k_cm1,V2_k_cm2``; each data
    row gives one mode's frequency (cm^-1) and squared coupling (cm^-2).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty modes file, header row required")
        if tuple(h.strip() for h in header) != MODES_CSV_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(MODES_CSV_HEADER)}, "
                f"got {','.join(header)}"
            )
        modes: list[tuple[float, float]] = []
        for i, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{i}: expected 2 columns, got {len(row)}")
            try:
                modes.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{i}: {exc}") from None
    return tuple(modes)
