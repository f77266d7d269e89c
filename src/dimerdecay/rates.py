"""Collective decay constants of the dimer's exciton pair.

The dissipative dynamics of the exciton pair is controlled by a single
collective decay constant gamma = alpha * gamma_d, where gamma_d is the
dephasing rate of an individual site in its phonon bath and

    alpha = (|eta| j12 / omega0)^2

is the attenuation factor built from the site asymmetry, the intersite
coupling, and the exciton splitting omega0.  Divided through by j12^2,

    1/alpha = u^2 + (2/x)^2,    u = g/x + 2 l (2 cos(theta) + x),

with x = |eta|, g = gap/|j12| and l = lambda1/|j12|: the attenuation
depends on those three dimensionless numbers and theta only, and no
j12^2 is ever formed.  Thermal occupation of the resonant phonon mode
sets the branching between upward and downward exciton transitions.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Iterable

from .excitons import DimerParams, ExcitonFrame, exciton_frame
from .units import thermal_energy, wavenumber_to_angular

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
    modes : tuple of (omega_k, V2_k) pairs
        Discrete phonon modes (cm^-1, cm^-2) for the principal-value
        frequency-shift sums.  Empty means no shift.
    """

    temperature: float
    gamma_d: float
    modes: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not (self.temperature > 0.0) or not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be > 0 K, got {self.temperature}")
        if self.gamma_d < 0.0 or not math.isfinite(self.gamma_d):
            raise ValueError(f"gamma_d must be >= 0 fs^-1, got {self.gamma_d}")
        norm = tuple((float(w), float(v2)) for w, v2 in self.modes)
        inf = math.inf
        for w, v2 in norm:
            if not (0.0 < w < inf and 0.0 <= v2 < inf):
                _check_mode(w, v2)
        object.__setattr__(self, "modes", norm)


@dataclass(frozen=True)
class RateSet:
    """Derived decay quantities for one dimer/bath combination, as rate_set builds them.

    lifetime is 1/gamma in fs, inf where gamma = 0; inverse_alpha is inf
    where 1/alpha exceeds the float range, which includes alpha = 0.
    frame is the exciton frame nbar0 was read from.
    """

    alpha: float
    gamma: float
    nbar0: float
    lifetime: float
    inverse_alpha: float
    frame: ExcitonFrame


def _check_mode(omega_k: float, v2_k: float) -> None:
    """Refuse a mode outside 0 < omega_k < inf, 0 <= V2_k < inf; comparisons only, so nan fails too."""
    if not 0.0 < omega_k < math.inf:
        raise ValueError(f"mode frequency must be finite and > 0 cm^-1, got {omega_k}")
    if not 0.0 <= v2_k < math.inf:
        raise ValueError(f"squared coupling must be finite and >= 0, got {v2_k}")


def _bath_energy(temperature_k: float) -> float:
    """kT in cm^-1 of a bath at T >= 0 K; 0 at T = 0."""
    if temperature_k < 0.0:
        raise ValueError(f"temperature must be >= 0 K, got {temperature_k}")
    return thermal_energy(temperature_k) if temperature_k else 0.0


# below this omega/kT the occupation, about kT/omega, exceeds the float range
_X_MIN = 1.0 / sys.float_info.max


def _occupation(omega: float, kt: float, name: str) -> float:
    """1/(exp(x) - 1) at x = omega/kT for the frequency omega > 0 called `name`; 0 at kT = 0."""
    if not kt:
        return 0.0
    x = omega / kt
    if x > 700.0:
        # expm1 overflows near x = 709; here 1/expm1(x) = exp(-x) to
        # relative accuracy exp(-x) < 1e-304
        return math.exp(-x)
    if x < _X_MIN:
        raise ValueError(f"the thermal occupation overflows at {name} = {omega:.6g} cm^-1: {name}/kT = {x:.6g}")
    return 1.0 / math.expm1(x)


def bose_occupation(omega0: float, temperature_k: float) -> float:
    """Mean thermal occupation 1/(exp(omega0/kT) - 1) at omega0 in cm^-1.

    T = 0 returns the limit value 0; where kT/omega0 overflows, the occupation is
    refused.  omega0 must be positive: it is the exciton splitting, a resonance frequency.
    """
    if not omega0 > 0.0:
        raise ValueError(f"omega0 must be > 0 cm^-1, got {omega0}")
    return _occupation(omega0, _bath_energy(temperature_k), "omega0")


def _inverse_attenuation(p: DimerParams, x, cos_theta):
    """1/alpha = u^2 + (2/x)^2 with u = g/x + 2 l (2 cos(theta) + x) at x = |eta| > 0.

    g = gap/|j12|, l = lambda1/|j12|.  x is a float or a numpy array: plain
    arithmetic only, so an array gives the same bits as the scalars point by point.
    """
    j = abs(p.j12)
    # |j12| divides g and l where that shrinks them, and D/x where it would grow them:
    # at a subnormal j12, u then reads inf, not the inf - inf of g/x and 2 l (2 cos(theta) + x)
    if j > 1.0:
        u = p.gap / j / x + 2.0 * (p.lambda1 / j) * (2.0 * cos_theta + x)
    else:
        u = (p.gap / x + 2.0 * p.lambda1 * (2.0 * cos_theta + x)) / j
    v = 2.0 / x
    return u * u + v * v


def _dimer_inverse_alpha(p: DimerParams) -> float:
    """1/alpha of one dimer, inf where alpha = 0; refused where it is nan or alpha leaves the float range."""
    if p.j12 == 0.0 or p.eta_abs == 0.0:
        return math.inf
    inverse = _inverse_attenuation(p, p.eta_abs, math.cos(p.theta))
    if not inverse >= sys.float_info.min:
        raise ValueError(f"alpha cannot be represented at j12 = {p.j12:.6g}, |eta| = {p.eta_abs:.6g}: 1/alpha = {inverse:.6g}")
    return inverse


def attenuation_factor(p: DimerParams) -> float:
    """Attenuation alpha = (|eta| j12 / omega0)^2 of the collective decay.

    omega0 is the exciton splitting built from the renormalized gap.
    Vanishing coupling or vanishing asymmetry gives alpha = 0 exactly:
    the exciton pair then decouples from the dissipative channel.
    """
    return 1.0 / _dimer_inverse_alpha(p)


def decay_constant(alpha: float, gamma_d: float) -> float:
    """Collective decay constant gamma = alpha * gamma_d in fs^-1; refused where it overflows."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if gamma_d < 0.0:
        raise ValueError(f"gamma_d must be >= 0 fs^-1, got {gamma_d}")
    gamma = alpha * gamma_d
    if not math.isfinite(gamma):
        raise ValueError(f"the decay constant alpha * gamma_d overflows: alpha = {alpha:.6g}, gamma_d = {gamma_d:.6g}")
    return gamma


def rate_set(p: DimerParams, bath: BathSpec) -> RateSet:
    """Bundle alpha, gamma, nbar0 (at the frame's omega0 > 0), lifetime and the exciton frame for one configuration."""
    frame = exciton_frame(p)
    nbar0 = bose_occupation(frame.omega0, bath.temperature)
    inverse_alpha = _dimer_inverse_alpha(p)
    alpha = 1.0 / inverse_alpha
    gamma = decay_constant(alpha, bath.gamma_d)
    return RateSet(
        alpha=alpha,
        gamma=gamma,
        nbar0=nbar0,
        lifetime=1.0 / gamma if gamma else math.inf,
        inverse_alpha=inverse_alpha,
        frame=frame,
    )


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
    modes: Iterable[tuple[float, float]],
    omega0: float,
    temperature_k: float,
) -> tuple[float, float]:
    """Second-order exciton frequency shifts from discrete phonon modes.

    Returns (delta_plus, delta_minus) in cm^-1:

        delta_plus  =  sum_k V2_k (nbar_k + 1) / (omega_k - omega0)
        delta_minus = -sum_k V2_k  nbar_k      / (omega_k - omega0)

    a discrete realization of the principal-value sums, with nbar_k the
    bose_occupation of mode k.  A mode exactly at omega0 makes the sum
    singular and must be excluded or shifted by the caller; a sum that
    overflows is refused.  T is checked before the first mode is read.
    """
    if not omega0 > 0.0:
        raise ValueError(f"omega0 must be > 0 cm^-1, got {omega0}")
    kt = _bath_energy(temperature_k)
    inf = math.inf
    delta_plus = 0.0
    delta_minus = 0.0
    for omega_k, v2_k in modes:
        if not (0.0 < omega_k < inf and 0.0 <= v2_k < inf):
            _check_mode(omega_k, v2_k)
        if omega_k == omega0:
            raise ResonantModeError(
                f"mode at {omega_k} cm^-1 sits exactly on the exciton "
                f"resonance omega0 = {omega0} cm^-1; exclude or shift it"
            )
        nbar_k = _occupation(omega_k, kt, "omega_k")
        delta_plus += v2_k * (nbar_k + 1.0) / (omega_k - omega0)
        delta_minus -= v2_k * nbar_k / (omega_k - omega0)
    if not (math.isfinite(delta_plus) and math.isfinite(delta_minus)):
        raise ValueError(f"the frequency shifts overflow: delta_plus = {delta_plus:.6g}, delta_minus = {delta_minus:.6g}")
    return delta_plus, delta_minus


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
            # the common row costs one unpacking and two floats; only a row that raises is examined
            try:
                omega_k, v2_k = row
                modes.append((float(omega_k), float(v2_k)))
            except ValueError as exc:
                if not any(cell.strip() for cell in row):
                    continue  # a blank row
                if len(row) != 2:
                    raise ValueError(f"{path}:{i}: expected 2 columns, got {len(row)}") from None
                raise ValueError(f"{path}:{i}: {exc}") from None
    return tuple(modes)
