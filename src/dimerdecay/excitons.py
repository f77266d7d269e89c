"""Exciton frame of a coupled dissipative dimer.

A pair of coupled oscillators (site basis, site 1 the higher-frequency
one) is diagonalized by a rotation through half the mixing angle phi0.
Phonon dressing first shifts each site frequency down by twice its
reorganization energy; the shift of site 2 is tied to site 1's through
the site-asymmetry parameter eta = |eta| e^{i theta}, so every derived
quantity depends on eta only through |eta| and cos(theta).

Conventions used throughout:

* energies/frequencies in cm^-1, angles in radians
* phi0 lies in [-pi/2, pi/2]; omega_plus >= omega_minus always
* theta is canonically quoted in [0, pi]; negative values down to -pi
  are accepted and are physically identical to +theta (cos is even),
  which keeps the reflection symmetry directly testable
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DimerParams:
    """Bare parameters of the dissipative dimer.

    Attributes
    ----------
    omega1, omega2 : float
        Bare site frequencies in cm^-1; site 1 is the higher one.
    j12 : float
        Intersite coupling in cm^-1.  May be negative; the attenuation
        depends on j12 squared only, the sign flips phi0.
    lambda1 : float
        Reorganization energy of site 1 in cm^-1, >= 0.
    eta_abs : float
        Magnitude of the site-asymmetry parameter, >= 0.
    theta : float
        Phase of the site-asymmetry parameter, radians in [-pi, pi].
    """

    omega1: float
    omega2: float
    j12: float
    lambda1: float
    eta_abs: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("omega1", "omega2", "j12", "lambda1", "eta_abs", "theta"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if not self.omega1 > self.omega2:
            raise ValueError(
                f"omega1 must exceed omega2 (site 1 is the higher-frequency "
                f"site), got omega1={self.omega1}, omega2={self.omega2}"
            )
        if self.lambda1 < 0:
            raise ValueError(f"lambda1 must be >= 0, got {self.lambda1}")
        if self.eta_abs < 0:
            raise ValueError(f"eta_abs must be >= 0, got {self.eta_abs}")
        theta = self.theta
        if not -math.pi <= theta <= math.pi:
            raise ValueError(f"theta must lie in [-pi, pi], got {theta}")

    @property
    def gap(self) -> float:
        """Bare frequency gap omega1 - omega2 in cm^-1."""
        return self.omega1 - self.omega2


@dataclass(frozen=True)
class ExcitonFrame:
    """Renormalized and diagonalized frame of the dimer, as exciton_frame builds it.

    Attributes
    ----------
    omega1p, omega2p : float
        Phonon-dressed site frequencies in cm^-1.
    phi0 : float
        Mixing angle in [-pi/2, pi/2]; the basis rotation is phi0/2.
    omega_plus, omega_minus : float
        Exciton frequencies in cm^-1, omega_plus >= omega_minus.
    omega0 : float
        Exciton splitting hypot(gap', 2 j12) > 0, with the dressed gap
        gap' = omega1' - omega2' formed from the bare gap; it equals
        omega_plus - omega_minus without the round-off of a large carrier.
    lambda2 : float
        Reorganization energy of site 2 in cm^-1, from :func:`lambda2_from_eta`.
    """

    omega1p: float
    omega2p: float
    phi0: float
    omega_plus: float
    omega_minus: float
    omega0: float
    lambda2: float

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")


def lambda2_from_eta(lambda1: float, eta_abs: float, theta: float) -> float:
    """Reorganization energy of site 2 implied by the site asymmetry.

    lambda2 = lambda1 |1 + |eta| e^{i theta}|^2
            = lambda1 (1 + |eta| (2 cos(theta) + |eta|)),

    evaluated as a sum of two squares, so it is nonnegative for every
    lambda1 >= 0, which DimerParams checks, and 0 for lambda1 = 0 however
    large |eta| is.
    """
    if lambda1 == 0.0:  # 0 * inf where |eta|^2 overflows
        return 0.0
    real = 1.0 + eta_abs * math.cos(theta)
    imag = eta_abs * math.sin(theta)
    return lambda1 * (real * real + imag * imag)


def mixing_angle(gap: float, j12: float) -> float:
    """Angle phi0 in [-pi/2, pi/2] that diagonalizes the coupled pair.

    phi0 = atan2(-2 j12, gap) folded into [-pi/2, pi/2].  For gap > 0
    this equals arctan(-2 j12 / gap); for gap = 0 it is +-pi/2 with the
    sign of -j12.  A negative gap (dressed frequencies out of order) is
    allowed with a warning; the fold keeps the branch consistent.
    """
    if gap == 0.0 and j12 == 0.0:
        raise ValueError(
            "mixing angle undefined: gap and coupling are both zero"
        )
    if gap < 0.0:
        warnings.warn(
            f"renormalized gap {gap:.6g} cm^-1 is negative (dressed site "
            f"frequencies out of order); folding the mixing angle branch",
            stacklevel=2,
        )
    phi = math.atan2(-2.0 * j12, gap)
    if phi > math.pi / 2:
        phi -= math.pi
    elif phi < -math.pi / 2:
        phi += math.pi
    return phi


def exciton_frequencies(
    omega1p: float, omega2p: float, j12: float
) -> tuple[float, float]:
    """Exciton frequencies (omega_plus, omega_minus) in cm^-1.

    omega_+- = (omega1' + omega2')/2 +- sqrt((omega1' - omega2')^2 + 4 j12^2)/2,

    equivalent to the trigonometric forms through the mixing angle,

        omega_plus  = omega1' cos^2(phi0/2) + omega2' sin^2(phi0/2) - j12 sin(phi0)
        omega_minus = omega1' sin^2(phi0/2) + omega2' cos^2(phi0/2) + j12 sin(phi0)

    mean +- half cancels in the root nearer 0, so that root is taken from
    Vieta: the product of the roots, omega1' omega2' - j12^2, over the other.
    """
    mean = 0.5 * (omega1p + omega2p)
    half = 0.5 * math.hypot(omega1p - omega2p, 2.0 * j12)
    far = mean + math.copysign(half, mean)
    if not far or not math.isfinite(far):  # both roots 0, or a root past the float range
        return mean + half, mean - half
    det = omega1p * omega2p - j12 * j12
    if math.isfinite(det) and abs(det) >= sys.float_info.min:
        near = det / far
    else:
        # |far| bounds |omega1'|, |omega2'| and |j12|: scaled by a power of two
        # near 1/|far|, which is exact, the product neither overflows nor underflows
        e = math.frexp(far)[1]
        w1, w2, j, r = (math.ldexp(v, -e) for v in (omega1p, omega2p, j12, far))
        near = math.ldexp((w1 * w2 - j * j) / r, e)
    # where half is below an ulp of mean, rounding can put near a hair past far
    return max(far, near), min(far, near)


def _dressing_error(lambda1: float, eta_abs: float) -> ValueError:
    """The refusal of a phonon dressing, 2 lambda2 or the dressed gap, that leaves the float range."""
    return ValueError(f"the phonon dressing leaves the float range at lambda1 = {lambda1:.6g} cm^-1, |eta| = {eta_abs:.6g}")


def exciton_frame(p: DimerParams) -> ExcitonFrame:
    """Dress the site frequencies and diagonalize.

    Site 1 shifts by -2 lambda1, site 2 by -2 lambda2 with lambda2 tied
    to the asymmetry via :func:`lambda2_from_eta`.  phi0 and omega0 read
    the dressed gap gap + 2 lambda1 |eta| (2 cos(theta) + |eta|), formed
    from p.gap, so a large common carrier does not cancel it.  Where
    2 lambda2 or the dressing of a finite bare gap leaves the float
    range, the frame is refused.
    """
    lam2 = lambda2_from_eta(p.lambda1, p.eta_abs, p.theta)
    gap = p.gap + 2.0 * p.lambda1 * p.eta_abs * (2.0 * math.cos(p.theta) + p.eta_abs)
    if not math.isfinite(2.0 * lam2) or (math.isfinite(p.gap) and not math.isfinite(gap)):
        raise _dressing_error(p.lambda1, p.eta_abs)
    omega1p = p.omega1 - 2.0 * p.lambda1
    omega2p = p.omega2 - 2.0 * lam2
    plus, minus = exciton_frequencies(omega1p, omega2p, p.j12)
    return ExcitonFrame(
        omega1p=omega1p,
        omega2p=omega2p,
        phi0=mixing_angle(gap, p.j12),
        omega_plus=plus,
        omega_minus=minus,
        omega0=math.hypot(gap, 2.0 * p.j12),
        lambda2=lam2,
    )


def basis_map(phi0: float) -> np.ndarray:
    """Rotation R taking exciton coordinates to site coordinates.

    R = [[cos(phi0/2), sin(phi0/2)], [-sin(phi0/2), cos(phi0/2)]]; its
    inverse is the transpose.  The columns of R are the exciton states
    expressed in the site basis.
    """
    import numpy as np
    if not -math.pi / 2 <= phi0 <= math.pi / 2:
        raise ValueError(f"phi0 must lie in [-pi/2, pi/2], got {phi0}")
    c, s = math.cos(0.5 * phi0), math.sin(0.5 * phi0)
    return np.array([[c, s], [-s, c]])


def su2_identity_check(
    phi: float,
    omega1p: float | None = None,
    omega2p: float | None = None,
    j12: float | None = None,
) -> dict[str, float]:
    """Max-norm residuals of the rotation identities used by the model.

    With U = [[cos(phi/2), -sin(phi/2)], [sin(phi/2), cos(phi/2)]] the
    generators transform as

        U L1 U+ = L1 cos(phi) - L3 sin(phi)
        U L3 U+ = L1 sin(phi) + L3 cos(phi)

    while L0 and L2 are invariant.  When the dressed frequencies and
    coupling are supplied, the rotated pair Hamiltonian

        (omega1'+omega2') L0 + (omega1'-omega2') L3 + 2 j12 L1

    is additionally checked at phi: its off-diagonal must vanish for
    phi equal to the mixing angle and its diagonal must then equal
    (omega_plus, omega_minus).

    Returns a dict of named residuals; all are ~1e-16 for exact inputs.
    """
    import numpy as np
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    # generators of the two-state algebra on the one-excitation subspace
    L0 = 0.5 * np.eye(2, dtype=complex)
    L1 = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    L2 = 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    L3 = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    c, s = math.cos(0.5 * phi), math.sin(0.5 * phi)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    uh = u.conj().T

    def rot(a: np.ndarray) -> np.ndarray:
        return u @ a @ uh

    def maxabs(a: np.ndarray) -> float:
        return float(np.max(np.abs(a)))

    cp, sp = math.cos(phi), math.sin(phi)
    residuals = {
        "l1_rotation": maxabs(rot(L1) - (L1 * cp - L3 * sp)),
        "l3_rotation": maxabs(rot(L3) - (L1 * sp + L3 * cp)),
        "l0_invariance": maxabs(rot(L0) - L0),
        "l2_invariance": maxabs(rot(L2) - L2),
    }

    if omega1p is not None or omega2p is not None or j12 is not None:
        if omega1p is None or omega2p is None or j12 is None:
            raise ValueError(
                "omega1p, omega2p, j12 must be supplied together for the "
                "Hamiltonian check"
            )
        h = (
            (omega1p + omega2p) * L0
            + (omega1p - omega2p) * L3
            + 2.0 * j12 * L1
        )
        hrot = rot(h)
        plus, minus = exciton_frequencies(omega1p, omega2p, j12)
        residuals["hamiltonian_offdiag"] = maxabs(hrot[0, 1])
        residuals["hamiltonian_diag"] = max(
            abs(hrot[0, 0].real - plus), abs(hrot[1, 1].real - minus)
        )
    return residuals
