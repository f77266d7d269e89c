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

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .excitons import DimerParams, ExcitonFrame, exciton_frame
from .units import thermal_energy, wavenumber_to_angular

if TYPE_CHECKING:
    from array import array

# Required header of a phonon-mode CSV: frequency and squared coupling.
MODES_CSV_HEADER = ("omega_k_cm1", "V2_k_cm2")


class Modes:
    """Discrete phonon modes held as two float columns, read-only.

    omega_k (cm^-1) and V2_k (cm^-2) are read-only memoryviews of the two
    columns given, array('d') or other buffers of C doubles, which the
    Modes keeps without copying; an array that exports a view can no
    longer change its length.  len() is
    the mode count, iteration yields the (omega_k, V2_k) float pairs in
    column order, and a Modes compares equal to, and hashes as, the tuple
    of those pairs.  It takes 16 B per mode, where a tuple of float pairs
    takes 112.  Only the code that fills columns imports array, an
    extension module of about 0.1 MB, so a run without modes never loads it.
    """

    __slots__ = ("omega_k", "V2_k")

    def __init__(self, omega_k: array, V2_k: array) -> None:
        if len(omega_k) != len(V2_k):
            raise ValueError(f"mode columns must have equal length, got {len(omega_k)} and {len(V2_k)}")
        object.__setattr__(self, "omega_k", memoryview(omega_k).toreadonly())
        object.__setattr__(self, "V2_k", memoryview(V2_k).toreadonly())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Modes is read-only: cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Modes is read-only: cannot delete {name}")

    def __len__(self) -> int:
        return len(self.omega_k)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self.omega_k, self.V2_k)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Modes, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


# no modes: two empty views of C doubles, made without the array module
NO_MODES = Modes(memoryview(b"").cast("d"), memoryview(b"").cast("d"))


@dataclass(frozen=True)
class BathSpec:
    """Phonon-bath inputs.

    Attributes
    ----------
    temperature : float
        Bath temperature in K, >= 0 and finite, the rule of thermal_energy.
    gamma_d : float
        Site dephasing rate in fs^-1, >= 0.  A direct input: the
        delta-correlated bath sets no scale of its own here.
    modes : Modes
        Discrete phonon modes (cm^-1, cm^-2) for the principal-value
        frequency-shift sums.  Empty, as NO_MODES, the default, means no
        shift.  A Modes, as load_modes_csv returns it, is kept as it is;
        any other iterable of (omega_k, V2_k) pairs is made one, each
        value through float().
    """

    temperature: float
    gamma_d: float
    modes: Modes = NO_MODES

    def __post_init__(self) -> None:
        thermal_energy(self.temperature)  # refuses T outside 0 <= T < inf, as every function of T does
        if self.gamma_d < 0.0 or not math.isfinite(self.gamma_d):
            raise ValueError(f"gamma_d must be >= 0 fs^-1, got {self.gamma_d}")
        modes = self.modes
        if not isinstance(modes, Modes):
            from array import array
            omega_k, v2_k = array("d"), array("d")
            for w, v2 in modes:
                omega_k.append(float(w))
                v2_k.append(float(v2))
            modes = Modes(omega_k, v2_k)
            object.__setattr__(self, "modes", modes)
        inf = math.inf
        for w, v2 in modes:
            if not (0.0 < w < inf and 0.0 <= v2 < inf):
                _check_mode(w, v2)


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
    return _occupation(omega0, thermal_energy(temperature_k), "omega0")


def _inverse_attenuation(p: DimerParams, x, cos_theta):
    """1/alpha = u^2 + (2/x)^2 with u = g/x + 2 l (2 cos(theta) + x) at x = |eta| > 0.

    g = gap/|j12|, l = lambda1/|j12|.  x is a float or a numpy array: plain
    arithmetic only, so an array gives the same bits as the scalars point by point.
    """
    j = abs(p.j12)
    g, l = p.gap / j, p.lambda1 / j
    # g/x keeps its digits where gap/x would be subnormal.  At |j12| <= 1, |j12| divides D/x
    # last where g is not finite or 6 l reaches the float max: g/x overflows only at x < 1,
    # where |2 l (2 cos(theta) + x)| < 6 l, so u reads inf there, not inf - inf
    if j > 1.0 or (math.isfinite(g) and l < 1e307):
        u = g / x + 2.0 * l * (2.0 * cos_theta + x)
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
    """gamma = alpha * gamma_d in fs^-1 for alpha and a BathSpec's gamma_d, both >= 0; refused where it overflows."""
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
    kt = thermal_energy(temperature_k)
    inf = math.inf
    delta_plus = 0.0
    delta_minus = 0.0
    for omega_k, v2_k in modes:
        if not (0.0 < omega_k < inf and 0.0 <= v2_k < inf):
            _check_mode(omega_k, v2_k)
        if omega_k == omega0:
            raise ValueError(
                f"mode at {omega_k} cm^-1 sits exactly on the exciton "
                f"resonance omega0 = {omega0} cm^-1; exclude or shift it"
            )
        nbar_k = _occupation(omega_k, kt, "omega_k")
        detuning = omega_k - omega0
        delta_plus += v2_k * (nbar_k + 1.0) / detuning
        delta_minus -= v2_k * nbar_k / detuning
    if not (math.isfinite(delta_plus) and math.isfinite(delta_minus)):
        raise ValueError(f"the frequency shifts overflow: delta_plus = {delta_plus:.6g}, delta_minus = {delta_minus:.6g}")
    return delta_plus, delta_minus


def load_modes_csv(path: str) -> Modes:
    """Read discrete phonon modes from a two-column CSV.

    The header line, split at its commas and stripped, must be
    ``omega_k_cm1,V2_k_cm2``.  A row whose every comma-separated cell is
    whitespace is skipped; every other row is one mode's frequency (cm^-1)
    and squared coupling (cm^-2), two floats split at its one comma, and
    any other is refused with its line number.  The file streams through
    one pass, which appends each float to its column; the Modes returned
    holds the two columns, in file order.
    """
    from array import array
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise ValueError(f"{path}: empty modes file, header row required")
            header = header.rstrip("\r\n").split(",")
            if tuple(h.strip() for h in header) != MODES_CSV_HEADER:
                raise ValueError(f"{path}: expected header {','.join(MODES_CSV_HEADER)}, got {','.join(header)}")
            omega, v2, blank = array("d"), array("d"), 0
            add_omega, add_v2 = omega.append, v2.append
            while True:
                try:
                    for line in fh:
                        omega_k, v2_k = line.split(",")
                        add_omega(float(omega_k))
                        add_v2(float(v2_k))
                    break
                except UnicodeDecodeError:  # the file's, not a row's
                    raise
                except ValueError:  # off the hot path: a blank row, skipped, or a row refused by its line number
                    row = line.rstrip("\r\n").split(",")
                    if any(cell.strip() for cell in row):
                        i = len(v2) + blank + 2  # the header, each row read, each blank row, then this one
                        if len(row) != 2:
                            raise ValueError(f"{path}:{i}: expected 2 columns, got {len(row)}") from None
                        try:  # again without the line end, which float() would quote
                            float(row[0]), float(row[1])
                        except ValueError as exc:
                            raise ValueError(f"{path}:{i}: {exc}") from None
                    blank += 1
    except UnicodeDecodeError:  # its position counts from the decoder's chunk, so the line is found again
        i, exc = _undecodable(path)
        raise ValueError(f"{path}:{i}: {exc}") from None
    return Modes(omega, v2)


def _undecodable(path: str) -> tuple[int, UnicodeDecodeError]:
    """The number of the line that holds a file's first byte that is not UTF-8, and the
    decoder's error with its position counted within that line.

    The file is read again whole, as bytes.  A line ends at "\n", "\r\n" or a lone "\r", as
    the text readers split it; no byte of a longer UTF-8 sequence is one of those.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        lo = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return line, UnicodeDecodeError(exc.encoding, data[lo:exc.end], exc.start - lo, exc.end - lo, exc.reason)
    raise OSError(f"{path} changed while it was read: it decodes now")
