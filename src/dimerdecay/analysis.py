"""Inverse analyses of the attenuation factor.

Three questions, all about 1/alpha as a function of the asymmetry
magnitude x = |eta| at fixed phase theta:

* how does the attenuation curve look over an |eta| grid (sweep),
* where is its interior minimum,
* which |eta| reproduces a measured lifetime ratio gamma_d/gamma.

With the dressed gap D(x) = gap + 4 lambda1 cos(theta) x + 2 lambda1 x^2,
1/alpha = (D^2 + 4 j12^2) / (x^2 j12^2) is rational in x, so the minimum
and the inversion are positive real roots of quartics, found as
companion-matrix eigenvalues and checked by back-substitution.  For
lambda1 > 0 an interior minimum always exists and a target ratio below
it has no solution; for lambda1 = 0, 1/alpha only falls.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .excitons import DimerParams, lambda2_from_eta
from .rates import _attenuation
from .units import _fmt

__all__ = [
    "NoSolutionError",
    "SweepResult",
    "EtaEstimate",
    "sweep_inverse_alpha",
    "find_alpha_minimum",
    "estimate_eta",
    "estimate_eta_limit",
    "write_sweep_csv",
    "write_theta_table_csv",
    "SWEEP_CSV_HEADER",
]

SWEEP_CSV_HEADER = ("theta_rad", "eta_abs", "inverse_alpha")


class NoSolutionError(ValueError):
    """The requested extremum or lifetime ratio does not exist for any |eta|."""


@dataclass(frozen=True)
class SweepResult:
    """1/alpha sampled over an |eta| grid at one asymmetry phase.

    points holds (eta_abs, inverse_alpha) pairs in increasing eta_abs;
    minimum is the interior minimum of the continuous curve, refined
    beyond the grid.
    """

    theta: float
    points: tuple[tuple[float, float], ...]
    minimum: tuple[float, float]

    def __post_init__(self) -> None:
        etas = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(etas, etas[1:])):
            raise ValueError("sweep points must be strictly increasing in eta_abs")
        # the refined minimum can undercut grid samples only by round-off
        slack = 1e-9 * max(1.0, abs(self.minimum[1]))
        if any(v < self.minimum[1] - slack for _, v in self.points):
            raise ValueError("minimum is inconsistent with sampled points")


@dataclass(frozen=True)
class EtaEstimate:
    """Asymmetry magnitude inferred from a lifetime ratio gamma_d/gamma."""

    target_ratio: float
    theta: float
    eta_abs: float
    lambda2: float
    all_roots: tuple[float, ...]


def _inverse_alpha(p: DimerParams, theta: float, eta_abs: np.ndarray) -> np.ndarray:
    """1/alpha over an array of |eta|; inf where alpha underflows to 0."""
    with np.errstate(divide="ignore"):
        return 1.0 / _attenuation(p.gap, p.j12, p.lambda1, eta_abs, math.cos(theta))


def _gap_polynomial(p: DimerParams, theta: float) -> np.ndarray:
    """Coefficients of D(x) = 2 lambda1 x^2 + 4 lambda1 cos(theta) x + gap."""
    if not -math.pi <= theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    return np.array([2.0 * p.lambda1, 4.0 * p.lambda1 * math.cos(theta), p.gap])


def _taylor(q: np.ndarray, x: float) -> tuple[float, float, float]:
    """q(x), q'(x) and q''(x)/2 for the polynomial coefficients q."""
    q1 = np.polyder(q)
    return np.polyval(q, x), np.polyval(q1, x), 0.5 * np.polyval(np.polyder(q1), x)


def _positive_roots(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted positive real roots of f = A D + B.

    np.roots on the expanded f places them, but the expanded
    coefficients lose accuracy where D nearly cancels: a close pair of
    real roots can come out complex, and a complex pair real.  So every
    root within 1e-3 of the positive real axis is replaced by the roots
    of the quadratic Taylor model of f at its real part, with f, f' and
    f'' taken in the factored form: a real root by the nearer model
    root, a complex pair by both, and either by none when the model
    roots are complex.
    """
    roots = set()
    for z in np.roots(np.polyadd(np.polymul(a, d), b)):
        x = z.real
        # one root of each conjugate pair
        if not (x > 0.0 and 0.0 <= z.imag <= 1e-3 * x):
            continue
        (a0, a1, a2), (d0, d1, d2), (b0, b1, b2) = (_taylor(q, x) for q in (a, d, b))
        f0 = a0 * d0 + b0
        f1 = a1 * d0 + a0 * d1 + b1
        f2 = a2 * d0 + a1 * d1 + a0 * d2 + b2
        disc = f1 * f1 - 4.0 * f0 * f2
        if disc < 0.0:
            continue
        # model roots f0/q and q/f2, the first the nearer one
        q = -0.5 * (f1 + math.copysign(math.sqrt(disc), f1))
        roots.add(x + f0 / q if q else x)
        if z.imag > 0.0 and f2:
            roots.add(x + q / f2)
    return np.array(sorted(x for x in roots if x > 0.0))


def sweep_inverse_alpha(
    p: DimerParams, theta: float, eta_grid: Sequence[float]
) -> SweepResult:
    """Evaluate 1/alpha over eta_grid at phase theta.

    The template's eta_abs/theta are overridden by the grid and theta.
    """
    grid = np.asarray(eta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("eta_grid must not be empty")
    if not np.all(grid > 0.0):
        raise ValueError("eta_grid values must be > 0")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("eta_grid must be strictly increasing")
    if p.j12 == 0.0:
        raise NoSolutionError(
            "attenuation vanishes on the whole grid (zero coupling?)"
        )
    values = _inverse_alpha(p, theta, grid)
    minimum = find_alpha_minimum(p, theta)
    return SweepResult(
        theta=theta,
        points=tuple(zip(grid.tolist(), values.tolist())),
        minimum=minimum,
    )


def find_alpha_minimum(p: DimerParams, theta: float) -> tuple[float, float]:
    """Interior minimum of 1/alpha over |eta|, as (eta_min, inv_alpha_min).

    The stationary points of 1/alpha are the positive real roots of
    x D'(x) D(x) - D(x)^2 - 4 j12^2, with D'(x) = 4 lambda1 (cos(theta) + x);
    the one with the smallest 1/alpha is returned.
    """
    if p.j12 == 0.0:
        raise NoSolutionError(
            "j12 must be nonzero: 1/alpha is infinite without coupling"
        )
    d = _gap_polynomial(p, theta)
    # x D' D - D^2 - 4 j12^2 = (x D' - D) D - 4 j12^2
    a = np.polysub(np.polymul([1.0, 0.0], np.polyder(d)), d)
    roots = _positive_roots(a, d, [-4.0 * p.j12 * p.j12])
    if roots.size == 0:
        raise NoSolutionError(
            f"no interior minimum of 1/alpha at lambda1 = {p.lambda1:.6g} "
            "(1/alpha decreases monotonically in |eta|)"
        )
    values = _inverse_alpha(p, theta, roots)
    k = int(np.argmin(values))
    return float(roots[k]), float(values[k])


def estimate_eta(p: DimerParams, theta: float, target_ratio: float) -> EtaEstimate:
    """Solve 1/alpha = target_ratio for |eta|; return the smallest root.

    The condition is a quartic in x = |eta|:

        D(x)^2 + 4 j12^2 - target_ratio * x^2 * j12^2 = 0

    with D(x) = gap + 2 lambda1 x (2 cos(theta) + x).  Every positive
    real root is found and verified by back-substitution into the
    attenuation factor.
    """
    if not target_ratio > 0.0:
        raise ValueError(f"target_ratio must be > 0, got {target_ratio}")
    if p.j12 == 0.0:
        raise NoSolutionError(
            "attenuation vanishes identically for zero coupling; "
            "no |eta| can reach a finite lifetime ratio"
        )
    d = _gap_polynomial(p, theta)
    j2 = p.j12 * p.j12
    roots = _positive_roots(d, d, [-target_ratio * j2, 0.0, 4.0 * j2])
    if roots.size == 0:
        eta_min, inv_min = find_alpha_minimum(p, theta)
        raise NoSolutionError(
            f"target ratio {target_ratio:.6g} is below the attainable "
            f"minimum 1/alpha = {inv_min:.6g} (at |eta| = {eta_min:.6g})"
        )

    for x, back in zip(roots, _inverse_alpha(p, theta, roots)):
        if abs(back - target_ratio) > 1e-8 * target_ratio:
            raise ArithmeticError(
                f"root {x} fails back-substitution: 1/alpha = {back} "
                f"vs target {target_ratio}"
            )

    eta_abs = float(roots[0])
    return EtaEstimate(
        target_ratio=target_ratio,
        theta=theta,
        eta_abs=eta_abs,
        lambda2=lambda2_from_eta(p.lambda1, eta_abs, theta),
        all_roots=tuple(roots.tolist()),
    )


def estimate_eta_limit(gap0: float, j12: float, target_ratio: float) -> float:
    """Weak-coupling inversion: |eta| = (gap0/|j12|)/sqrt(target_ratio).

    Valid when reorganization energy and coupling are both small against
    the bare gap, where 1/alpha collapses to (gap0/j12)^2/|eta|^2.
    """
    if not target_ratio > 0.0:
        raise ValueError(f"target_ratio must be > 0, got {target_ratio}")
    if j12 == 0.0:
        raise ValueError("j12 must be nonzero")
    return (gap0 / abs(j12)) / math.sqrt(target_ratio)


def write_sweep_csv(fh: IO[str], results: Sequence[SweepResult]) -> None:
    """Serialize sweep curves: one row per (theta, eta) sample."""
    # formatted numbers hold no separator or quote, so rows need no csv quoting
    lines = [",".join(SWEEP_CSV_HEADER) + "\n"]
    for res in results:
        theta = _fmt(res.theta)
        lines.extend(f"{theta},{_fmt(eta)},{_fmt(inv_alpha)}\n" for eta, inv_alpha in res.points)
    fh.write("".join(lines))


def write_theta_table_csv(
    fh: IO[str],
    theta_list: Sequence[float],
    rows: Sequence[tuple[str, Sequence[float]]],
) -> None:
    """Serialize per-theta quantities as a table, one column per theta."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["quantity"] + [f"theta={_fmt(t)}" for t in theta_list])
    for name, values in rows:
        if len(values) != len(theta_list):
            raise ValueError(f"row {name!r} length mismatch")
        writer.writerow([name] + [_fmt(v) for v in values])
