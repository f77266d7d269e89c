"""Inverse analyses of the attenuation factor.

Three questions, all about 1/alpha as a function of the asymmetry
magnitude x = |eta| at fixed phase theta:

* how does the attenuation curve look over an |eta| grid (sweep),
* where is its interior minimum,
* which |eta| reproduces a measured lifetime ratio gamma_d/gamma.

With g = gap/|j12|, l = lambda1/|j12| and the scaled gap polynomial
D~(x) = 2 l x^2 + 4 l cos(theta) x + g, 1/alpha = (D~^2 + 4) / x^2, and
d(1/alpha)/dx has the sign of f = (2 l x^2 - g) D~ - 4.  On x > 0,
f'' = 48 l^2 x (x + cos(theta)) changes sign only at -cos(theta), so f,
and 1/alpha between its stationary points, are monotone on pieces whose
ends are closed forms or roots of f'; one bracketed root finder finds
the root on each piece that changes sign.  Each theta is solved alone,
and a theta list is a loop whose first failing theta raises.  For
lambda1 > 0 an interior minimum always exists and a target ratio below
it has no solution; for lambda1 = 0, 1/alpha only falls.  A quartic
that overflows at its root bound is refused.  1/alpha at a root is
Python float arithmetic, which reads inf past the float range without
a warning; only sweep's array evaluation enters numpy.errstate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Sequence

from .excitons import DimerParams, lambda2_from_eta
from .rates import _inverse_attenuation
from .units import _fmt, _fmt_table

if TYPE_CHECKING:
    import numpy as np

SWEEP_CSV_HEADER = ("theta_rad", "eta_abs", "inverse_alpha")
Triple = tuple[float, float, float]  # (c2, c1, c0) of a quadratic factor


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


def _gap_polynomial(p: DimerParams, theta: float) -> Triple:
    """Coefficients (c2, c1, c0) = (2 l, 4 l cos(theta), g) of D~ = D/|j12| at theta."""
    if not -math.pi <= theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    l = p.lambda1 / abs(p.j12)
    if p.lambda1 and not l:  # it would read as lambda1 = 0, a quartic of lower degree
        raise ValueError(f"the quartic in |eta| leaves the float range: lambda1/|j12| = "
                         f"{p.lambda1:.6g}/{abs(p.j12):.6g} underflows to 0")
    return (2.0 * l, 4.0 * l * math.cos(theta), p.gap / abs(p.j12))


def _root(fn, lo: float, hi: float, rising: bool) -> float:
    """The root of fn in (lo, hi), across which it changes sign once; fn(x) = (value, slope).

    Newton steps that land inside the bracket shrink it, bisection
    otherwise: geometric where hi > 4 lo > 0, so a root many powers of ten
    from an end takes few steps.  Ends where a Newton step rounds to
    nothing, or at the point of least |value| once the bracket closes.
    """
    x, last = _middle(lo, hi), hi - lo
    best = (math.inf, x)
    while True:
        v, s = fn(x)
        best = min(best, (abs(v), x))
        if v == 0.0:
            return x
        if (v < 0.0) == rising:
            lo = x
        else:
            hi = x
        step = x - v / s if 0.0 < abs(s) < math.inf else math.nan
        if step == x:
            return x
        # bisect where Newton leaves the bracket or gains less than half the last step
        if not (lo < step < hi and abs(step - x) <= 0.5 * last):
            step = _middle(lo, hi)
            if not lo < step < hi:
                return best[1]
        x, last = step, abs(step - x)


def _middle(lo: float, hi: float) -> float:
    return math.sqrt(lo) * math.sqrt(hi) if 0.0 < 4.0 * lo < hi else lo + 0.5 * (hi - lo)


def _roots(fn, ends: Sequence[float]) -> list[float]:
    """The roots of fn(x) = (value, slope) in (ends[0], ends[-1]), fn monotone between consecutive ends."""
    roots = []
    values = [fn(x)[0] for x in ends]
    for k in range(len(ends) - 1):
        (a, b), (va, vb) = ends[k:k + 2], values[k:k + 2]
        if va == 0.0 and k:
            roots.append(a)
        elif va and vb and (va < 0.0) != (vb < 0.0):
            roots.append(_root(fn, a, b, va < 0.0))
    return roots


def _stationary(d: Triple, c: float) -> list[float]:
    """The stationary points of 1/alpha at cos(theta) = c, the roots in x > 0 of
    f = (d2 x^2 - g) D~ - 4, which has the sign of d(1/alpha)/dx.

    f(0) < 0 and f'' = 6 d2 x (2 d2 x + d1) = 48 l^2 x (x + c), so f is
    convex for c >= 0; for c < 0, f' falls to its least value at -c and
    rises again, with f'(-1.5 c) = f'(0) > 0.  The roots of f' in (0, -c)
    and (-c, -1.5 c), if f'(-c) < 0, so split x > 0 into pieces on which
    f is monotone, the last bounded by twice Fujiwara's bound on the
    roots of f.  Refused where f is not finite there.
    """
    d2, d1, g = d

    def slope(x):  # f' and f''; f = d2^2 x^4 + d2 d1 x^3 - g d1 x - g^2 - 4
        return d2 * x * x * (4.0 * d2 * x + 3.0 * d1) - g * d1, 6.0 * d2 * x * (2.0 * d2 * x + d1)

    def f(x):
        return (d2 * x * x - g) * ((d2 * x + d1) * x + g) - 4.0, slope(x)[0]

    # for lambda1 = 0, f = -(g^2 + 4) has no root
    outer = 2.0 * max(2.0 * abs(c), (2.0 * abs(c) * g / d2) ** (1 / 3), math.sqrt(math.hypot(g, 2.0) / d2)) if d2 else 0.0
    if not math.isfinite(f(outer)[0]):
        raise ValueError(f"the quartic in |eta| leaves the float range at D/|j12| = ({d2:.6g}, {d1:.6g}, {g:.6g})")
    if not d2:
        return []
    knees = []
    # f'(0) = f'(-1.5 c) = -g d1 > 0 exactly; f' at -1.5 c in floats is round-off of its cancelling terms
    if c < 0.0 and slope(-c)[0] < 0.0:
        knees = [_root(slope, 0.0, -c, False), _root(slope, -c, -1.5 * c, True)]
    return _roots(f, [0.0, *knees, outer])


def _crossings(p: DimerParams, d: Triple, c: float, r: float, stationary: list[float]) -> list[float]:
    """The roots of 1/alpha = r at cos(theta) = c, given the stationary points of 1/alpha.

    1/alpha >= 4/x^2 > r below 2/sqrt(r), and D~ > sqrt(r) x above
    (sqrt(r) + |d1|)/d2, so between the ends below and above those
    bounds 1/alpha - r is monotone on each piece between stationary
    points.  For lambda1 = 0, 1/alpha = (g^2 + 4)/x^2.
    """
    d2, d1, g = d

    def excess(x):
        # 1/alpha = u^2 + w^2, u = D~/x and w = 2/x; the value as back-substitution takes it
        u, w = g / x + d1 + d2 * x, 2.0 / x
        return _inverse_attenuation(p, x, c) - r, 2.0 * u * (d2 - g / x / x) - w * w * w

    root = math.sqrt(r)
    hi = 2.0 * max((root + abs(d1)) / d2, stationary[-1]) if d2 else 2.0 * math.hypot(g, 2.0) / root
    if not math.isfinite(hi):
        raise ValueError(f"the quartic in |eta| leaves the float range at D/|j12| = ({d2:.6g}, {d1:.6g}, {g:.6g})")
    return _roots(excess, [0.5 * min([2.0 / root, *stationary[:1]]), *stationary, hi])


def _least(p: DimerParams, theta: float, roots: list[float]) -> tuple[float, float]:
    """Of roots, the stationary points of 1/alpha at theta, the one of least 1/alpha, with that value."""
    if not roots:
        raise NoSolutionError(f"no interior minimum of 1/alpha at lambda1 = {p.lambda1:.6g} "
                              "(1/alpha decreases monotonically in |eta|)")
    c = math.cos(theta)
    values = [_inverse_attenuation(p, x, c) for x in roots]
    k = values.index(min(values))
    return roots[k], values[k]


def _minimum(p: DimerParams, theta: float) -> tuple[float, float]:
    """(eta_min, inv_alpha_min) at theta."""
    return _least(p, theta, _stationary(_gap_polynomial(p, theta), math.cos(theta)))


def sweep_inverse_alpha(
    p: DimerParams, theta: float, eta_grid: Sequence[float]
) -> SweepResult:
    """Evaluate 1/alpha over eta_grid at phase theta: sweep_inverse_alphas at one theta."""
    return sweep_inverse_alphas(p, [theta], eta_grid)[0]


def sweep_inverse_alphas(
    p: DimerParams, thetas: Sequence[float], eta_grid: Sequence[float]
) -> list[SweepResult]:
    """Evaluate 1/alpha over eta_grid at each phase of thetas.

    The template's eta_abs/theta are overridden by the grid and theta.
    1/alpha reads inf where it exceeds the float range.  The first theta
    that fails raises.
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
    results = []
    for theta in thetas:
        # the minimum first: it refuses a g or l that would show as nan on the grid
        minimum = _minimum(p, theta)
        with np.errstate(over="ignore"):
            values = _inverse_attenuation(p, grid, math.cos(theta))
        results.append(SweepResult(theta=theta, points=np.column_stack((grid, values)), minimum=minimum))
    return results


def find_alpha_minimum(p: DimerParams, theta: float) -> tuple[float, float]:
    """Interior minimum of 1/alpha over |eta|, as (eta_min, inv_alpha_min): find_alpha_minima at one theta."""
    return find_alpha_minima(p, [theta])[0]


def find_alpha_minima(p: DimerParams, thetas: Sequence[float]) -> list[tuple[float, float]]:
    """Interior minimum of 1/alpha over |eta| at each theta, as (eta_min, inv_alpha_min).

    The stationary points of 1/alpha are the positive roots of
    x D~'(x) D~(x) - D~(x)^2 - 4 = (2 l x^2 - g) D~(x) - 4; the one with
    the smallest 1/alpha is returned.  Raises ValueError where that
    quartic leaves the float range; the first theta that fails raises.
    """
    if p.j12 == 0.0:
        raise NoSolutionError("j12 must be nonzero: 1/alpha is infinite without coupling")
    return [_minimum(p, theta) for theta in thetas]


def estimate_eta(p: DimerParams, theta: float, target_ratio: float) -> EtaEstimate:
    """Solve 1/alpha = target_ratio for |eta|; return the smallest root: estimate_etas at one theta."""
    return estimate_etas(p, [theta], target_ratio)[0]


def estimate_etas(p: DimerParams, thetas: Sequence[float], target_ratio: float) -> list[EtaEstimate]:
    """Solve 1/alpha = target_ratio for |eta| at each theta; return the smallest roots.

    The condition is a quartic in x = |eta|:

        D~(x)^2 + 4 - target_ratio * x^2 = 0

    with D~(x) = g + 2 l x (2 cos(theta) + x).  Every positive root is
    found, one on each monotone piece of 1/alpha that crosses the
    target, and verified by back-substitution into the attenuation
    factor.  The first theta that fails raises.
    """
    if not target_ratio > 0.0:
        raise ValueError(f"target_ratio must be > 0, got {target_ratio}")
    if p.j12 == 0.0:
        raise NoSolutionError("attenuation vanishes identically for zero coupling; "
                              "no |eta| can reach a finite lifetime ratio")
    return [_estimate(p, theta, target_ratio) for theta in thetas]


def _estimate(p: DimerParams, theta: float, target_ratio: float) -> EtaEstimate:
    """One theta of estimate_etas."""
    d, c = _gap_polynomial(p, theta), math.cos(theta)
    stationary = _stationary(d, c)
    roots = _crossings(p, d, c, target_ratio, stationary)
    if not roots:
        eta_min, inv_min = _least(p, theta, stationary)
        raise NoSolutionError(f"target ratio {target_ratio:.6g} is below the attainable minimum "
                              f"1/alpha = {inv_min:.6g} (at |eta| = {eta_min:.6g})")
    for x in roots:
        back = _inverse_attenuation(p, x, c)
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
    """Serialize sweep curves: one row per (theta, eta) sample.

    Each grid is formatted once per sweep and each theta once per phase,
    with the same bytes as formatting every cell.
    """
    import numpy as np
    # formatted numbers hold no separator or quote, so rows need no csv quoting
    fh.write(",".join(SWEEP_CSV_HEADER) + "\n")
    grid = None
    for res in results:
        if not len(res.points):
            continue
        if grid is None or not np.array_equal(res.points[:, 0], grid):
            grid = res.points[:, 0]
            etas = _fmt_table(grid[:, None]).splitlines()
        # one "<theta>,<eta>,%.9g" row per grid point, joined around the formatted etas
        lead = _fmt(res.theta) + ","
        rows = lead + (",%.9g\n" + lead).join(etas) + ",%.9g\n"
        fh.write(rows % tuple((res.points[:, 1] + 0.0).tolist()))


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
