"""Inverse analyses of the attenuation factor.

Three questions, all about 1/alpha as a function of the asymmetry
magnitude x = |eta| at fixed phase theta:

* how does the attenuation curve look over an |eta| grid (sweep),
* where is its interior minimum,
* which |eta| reproduces a measured lifetime ratio gamma_d/gamma.

With g = gap/|j12|, l = lambda1/|j12| and the scaled gap polynomial
D~(x) = 2 l x^2 + 4 l cos(theta) x + g, 1/alpha = (D~^2 + 4) / x^2, so
the minimum and the inversion are positive real roots of quartics
A D~ + B, each factor a (c2, c1, c0) float triple: companion-matrix
eigenvalues, refined by Horner's rule on the factors and checked by
back-substitution.  For lambda1 > 0 an interior minimum always exists
and a target ratio below it has no solution; for lambda1 = 0, 1/alpha
only falls.  A quartic whose coefficients leave the float range is
refused.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Sequence

from .excitons import DimerParams, lambda2_from_eta
from .rates import _inverse_attenuation
from .units import _fmt, _fmt_table

if TYPE_CHECKING:
    import numpy as np

SWEEP_CSV_HEADER = ("theta_rad", "eta_abs", "inverse_alpha")


class NoSolutionError(ValueError):
    """The requested extremum or lifetime ratio does not exist for any |eta|."""


@dataclass(frozen=True, eq=False)
class SweepResult:
    """1/alpha sampled over an |eta| grid at one asymmetry phase.

    points is a read-only (n, 2) array of (eta_abs, inverse_alpha) rows
    in increasing eta_abs; minimum is the interior minimum of the
    continuous curve, refined beyond the grid.
    """

    theta: float
    points: np.ndarray
    minimum: tuple[float, float]

    def __post_init__(self) -> None:
        import numpy as np
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"sweep points must have shape (n, 2), got {points.shape}")
        if np.any(np.diff(points[:, 0]) <= 0.0):
            raise ValueError("sweep points must be strictly increasing in eta_abs")
        # the refined minimum can undercut grid samples only by round-off
        slack = 1e-9 * max(1.0, abs(self.minimum[1]))
        if np.any(points[:, 1] < self.minimum[1] - slack):
            raise ValueError("minimum is inconsistent with sampled points")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class EtaEstimate:
    """Asymmetry magnitude inferred from a lifetime ratio gamma_d/gamma."""

    target_ratio: float
    theta: float
    eta_abs: float
    lambda2: float
    all_roots: tuple[float, ...]


def _inverse_alpha(p: DimerParams, theta: float, eta_abs):
    """1/alpha at a float or an array of |eta|; inf where it exceeds the float range."""
    import numpy as np
    with np.errstate(over="ignore"):
        return _inverse_attenuation(p, eta_abs, math.cos(theta))


def _gap_polynomial(p: DimerParams, theta: float) -> tuple[float, float, float]:
    """Coefficients (c2, c1, c0) = (2 l, 4 l cos(theta), g) of D~ = D/|j12|."""
    if not -math.pi <= theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    l = p.lambda1 / abs(p.j12)
    if p.lambda1 and not l:  # it would read as lambda1 = 0, a quartic of lower degree
        raise ValueError(f"the quartic in |eta| leaves the float range: lambda1/|j12| = {p.lambda1:.6g}/{abs(p.j12):.6g} underflows to 0")
    return 2.0 * l, 4.0 * l * math.cos(theta), p.gap / abs(p.j12)


def _positive_roots(a: Sequence[float], d: Sequence[float], b: Sequence[float]) -> list[float]:
    """Sorted positive real roots of f = A D + B, each factor given as (c2, c1, c0).

    The companion matrix of the expanded f places them, but the expanded
    coefficients lose accuracy where D nearly cancels: a close pair of
    real roots can come out complex, and a complex pair real.  So every
    root within 1e-3 of the positive real axis is replaced by the roots
    of the quadratic Taylor model of f at its real part, with f, f' and
    f'' taken in the factored form: a real root by the nearer model
    root, a complex pair by both, and either by none when the model
    roots are complex.  Raises ValueError where a coefficient of f, or
    its ratio to the leading one, leaves the float range, where a
    nonzero a2 d2 underflows (np.roots would trim it as a zero) and
    where f overflows at a root.  The constant term of f must not vanish.
    """
    import numpy as np
    (a2, a1, a0), (d2, d1, d0), (b2, b1, b0) = a, d, b
    # A D + B, highest power first; np.roots trims its leading zeros (lambda1 = 0)
    f = [a2 * d2, a2 * d1 + a1 * d2, a2 * d0 + a1 * d1 + a0 * d2 + b2, a1 * d0 + a0 * d1 + b1, a0 * d0 + b0]
    k = next(i for i, c in enumerate(f) if c)
    if (a2 and d2 and abs(f[0]) < sys.float_info.min) or not all(math.isfinite(c / f[k]) for c in f):
        raise ValueError(f"the quartic in |eta| leaves the float range at D/|j12| = ({d2:.6g}, {d1:.6g}, {d0:.6g})")
    roots = set()
    for z in np.roots(f).tolist():
        x = z.real
        # one root of each conjugate pair
        if not (x > 0.0 and 0.0 <= z.imag <= 1e-3 * x):
            continue
        # each factor and its first derivative at x by Horner's rule; q''/2 is c2
        av, dv, bv = (a2 * x + a1) * x + a0, (d2 * x + d1) * x + d0, (b2 * x + b1) * x + b0
        ad, dd, bd = 2.0 * a2 * x + a1, 2.0 * d2 * x + d1, 2.0 * b2 * x + b1
        f0 = av * dv + bv
        f1 = ad * dv + av * dd + bd
        f2 = a2 * dv + ad * dd + av * d2 + b2
        if not (math.isfinite(f0) and math.isfinite(f1) and math.isfinite(f2)):
            raise ValueError(f"the quartic in |eta| overflows at its root near |eta| = {x:.6g}")
        # scaled by a power of two so that f1^2 stays in range; the model roots are ratios
        e = -math.frexp(max(abs(f0), abs(f1), abs(f2)))[1]
        f0, f1, f2 = math.ldexp(f0, e), math.ldexp(f1, e), math.ldexp(f2, e)
        disc = f1 * f1 - 4.0 * f0 * f2
        if disc < 0.0:
            continue
        # model roots f0/q and q/f2, the first the nearer one
        q = -0.5 * (f1 + math.copysign(math.sqrt(disc), f1))
        roots.add(x + f0 / q if q else x)
        if z.imag > 0.0 and f2:
            roots.add(x + q / f2)
    return sorted(x for x in roots if x > 0.0)


def sweep_inverse_alpha(
    p: DimerParams, theta: float, eta_grid: Sequence[float]
) -> SweepResult:
    """Evaluate 1/alpha over eta_grid at phase theta.

    The template's eta_abs/theta are overridden by the grid and theta.
    1/alpha reads inf where it exceeds the float range.
    """
    import numpy as np
    grid = np.asarray(eta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("eta_grid must not be empty")
    if not np.all(grid > 0.0):
        raise ValueError("eta_grid values must be > 0")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("eta_grid must be strictly increasing")
    if p.j12 == 0.0:
        raise NoSolutionError("attenuation vanishes on the whole grid (zero coupling?)")
    # the minimum first: it refuses a g or l that would show as nan on the grid
    minimum = find_alpha_minimum(p, theta)
    values = _inverse_alpha(p, theta, grid)
    return SweepResult(theta=theta, points=np.column_stack((grid, values)), minimum=minimum)


def find_alpha_minimum(p: DimerParams, theta: float) -> tuple[float, float]:
    """Interior minimum of 1/alpha over |eta|, as (eta_min, inv_alpha_min).

    The stationary points of 1/alpha are the positive real roots of
    x D~'(x) D~(x) - D~(x)^2 - 4, with D~'(x) = 4 l (cos(theta) + x);
    the one with the smallest 1/alpha is returned.  Raises ValueError
    where that quartic leaves the float range.
    """
    if p.j12 == 0.0:
        raise NoSolutionError("j12 must be nonzero: 1/alpha is infinite without coupling")
    d = _gap_polynomial(p, theta)
    # x D~' D~ - D~^2 - 4 = (x D~' - D~) D~ - 4, and x D~' - D~ = 2 l x^2 - g
    roots = _positive_roots((d[0], 0.0, -d[2]), d, (0.0, 0.0, -4.0))
    if not roots:
        raise NoSolutionError(f"no interior minimum of 1/alpha at lambda1 = {p.lambda1:.6g} "
                              "(1/alpha decreases monotonically in |eta|)")
    values = [_inverse_alpha(p, theta, x) for x in roots]
    k = values.index(min(values))
    return roots[k], values[k]


def estimate_eta(p: DimerParams, theta: float, target_ratio: float) -> EtaEstimate:
    """Solve 1/alpha = target_ratio for |eta|; return the smallest root.

    The condition is a quartic in x = |eta|:

        D~(x)^2 + 4 - target_ratio * x^2 = 0

    with D~(x) = g + 2 l x (2 cos(theta) + x).  Every positive real
    root is found and verified by back-substitution into the
    attenuation factor.  For lambda1 > 0, 1/alpha grows without bound
    at both ends, so the roots must bracket its minimum; where they do
    not, a root was lost to round-off and ValueError is raised.
    """
    if not target_ratio > 0.0:
        raise ValueError(f"target_ratio must be > 0, got {target_ratio}")
    if p.j12 == 0.0:
        raise NoSolutionError("attenuation vanishes identically for zero coupling; "
                              "no |eta| can reach a finite lifetime ratio")
    d = _gap_polynomial(p, theta)
    roots = _positive_roots(d, d, (-target_ratio, 0.0, 4.0))
    if not roots or d[0] > 0.0:
        eta_min, inv_min = find_alpha_minimum(p, theta)
        if not roots:
            raise NoSolutionError(f"target ratio {target_ratio:.6g} is below the attainable minimum "
                                  f"1/alpha = {inv_min:.6g} (at |eta| = {eta_min:.6g})")
        # the slack admits the two halves of a double root at the minimum
        if not (roots[0] <= eta_min * (1.0 + 1e-9) and roots[-1] >= eta_min * (1.0 - 1e-9)):
            raise ValueError(f"a root of 1/alpha = {target_ratio:.6g} was lost to round-off: the roots "
                             f"found do not bracket the minimum at |eta| = {eta_min:.6g}")

    for x in roots:
        back = _inverse_alpha(p, theta, x)
        if abs(back - target_ratio) > 1e-8 * target_ratio:
            raise ValueError(f"root {x} fails back-substitution: 1/alpha = {back} vs target {target_ratio}")

    eta_abs = roots[0]
    return EtaEstimate(
        target_ratio=target_ratio,
        theta=theta,
        eta_abs=eta_abs,
        lambda2=lambda2_from_eta(p.lambda1, eta_abs, theta),
        all_roots=tuple(roots),
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
    import numpy as np
    table = np.concatenate([np.empty((0, 3)), *(np.insert(res.points, 0, res.theta, axis=1) for res in results)])
    # formatted numbers hold no separator or quote, so rows need no csv quoting
    fh.write(",".join(SWEEP_CSV_HEADER) + "\n" + _fmt_table(table))


def write_theta_table_csv(
    fh: IO[str],
    theta_list: Sequence[float],
    rows: Sequence[tuple[str, Sequence[float]]],
) -> None:
    """Serialize per-theta quantities as a table, one column per theta."""
    lines = [["quantity", *(f"theta={_fmt(t)}" for t in theta_list)]]
    for name, values in rows:
        if len(values) != len(theta_list):
            raise ValueError(f"row {name!r} length mismatch")
        lines.append([name, *map(_fmt, values)])
    # formatted numbers hold no separator or quote, so rows need no csv quoting
    fh.write("".join(",".join(line) + "\n" for line in lines))
