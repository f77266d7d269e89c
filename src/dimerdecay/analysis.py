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
back-substitution.  A theta list is prepared in list order up to the
first theta refused, whose refusal is held; the quartics prepared are
solved in one stacked eigenvalue call per degree; each theta is then
finished in order, and the held refusal is raised last.  So the first
theta that fails raises the error it raises alone.  For lambda1 > 0
an interior minimum always exists and a target ratio below it has no
solution; for lambda1 = 0, 1/alpha only falls.  A quartic whose
coefficients leave the float range is refused.  1/alpha at a root is
Python float arithmetic, which reads inf past the float range without
a warning; only sweep's array evaluation enters numpy.errstate.
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


def _expanded(a: Triple, d: Triple, b: Triple) -> list[float]:
    """f = A D + B, highest power first (lambda1 = 0 gives leading zeros); refused where a
    coefficient, or its ratio to the leading one, leaves the float range, and where a
    nonzero a2 d2 underflows (it would be trimmed as a zero).  f(0) must not vanish."""
    (a2, a1, a0), (d2, d1, d0), (b2, b1, b0) = a, d, b
    f = [a2 * d2, a2 * d1 + a1 * d2, a2 * d0 + a1 * d1 + a0 * d2 + b2, a1 * d0 + a0 * d1 + b1, a0 * d0 + b0]
    k = next(j for j, c in enumerate(f) if c)
    if (a2 and d2 and abs(f[0]) < sys.float_info.min) or not all(math.isfinite(c / f[k]) for c in f):
        raise ValueError(f"the quartic in |eta| leaves the float range at D/|j12| = ({d2:.6g}, {d1:.6g}, {d0:.6g})")
    return f


def _companion_roots(polys: Sequence[Sequence[float]]) -> list[list[complex]]:
    """The roots of each polynomial, highest power first, from one stacked
    eigvals call per degree.

    Each companion matrix is built as numpy's polynomial root finder builds
    it: leading zeros trimmed, -f[1:]/f[0] in the top row, ones on the
    subdiagonal; so the roots have its bits and its order.  The constant
    terms must not vanish.
    """
    import numpy as np
    out: list[list[complex]] = [[] for _ in polys]
    by_degree: dict[int, tuple[list[int], list[Sequence[float]]]] = {}
    for i, f in enumerate(polys):
        f = f[next(k for k, c in enumerate(f) if c):]
        if len(f) > 1:
            slots, rows = by_degree.setdefault(len(f) - 1, ([], []))
            slots.append(i)
            rows.append(f)
    for n, (slots, rows) in by_degree.items():
        f = np.array(rows)
        m = np.zeros((len(rows), n, n))
        m[:, 0, :] = -f[:, 1:] / f[:, :1]
        m.reshape(len(rows), n * n)[:, n::n + 1] = 1.0  # the subdiagonal
        for i, z in zip(slots, np.linalg.eigvals(m).tolist()):
            out[i] = z
    return out


def _refined_roots(a: Triple, d: Triple, b: Triple, zs: list[complex]) -> list[float]:
    """Sorted positive real roots of f = A D + B from its companion roots zs.

    The companion matrix of the expanded f places them, but the expanded
    coefficients lose accuracy where D nearly cancels: a close pair of
    real roots can come out complex, and a complex pair real.  So every
    root within 1e-3 of the positive real axis is replaced by the roots
    of the quadratic Taylor model of f at its real part, with f, f' and
    f'' taken in the factored form: a real root by the nearer model
    root, a complex pair by both, and either by none when the model
    roots are complex.  Refused where f overflows at a root.
    """
    (a2, a1, a0), (d2, d1, d0), (b2, b1, b0) = a, d, b
    roots = set()
    for z in zs:
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


def _solved(p: DimerParams, thetas: Sequence[float], target_ratio: float | None = None):
    """Yield (theta, roots...) for each theta in list order: the sorted
    positive roots of D~^2 + 4 - target_ratio x^2 when a target is given,
    then those of the minimum quartic x D~' D~ - D~^2 - 4.

    The quartics are expanded theta by theta up to the first refusal,
    which is held; those expanded are solved in one stacked eigenvalue
    call per degree; each theta is refined and yielded in turn, and the
    refusal is raised last.  So the first theta that fails, here or in
    the caller, raises the error it raises alone.
    """
    prepared, polys, refusal = [], [], None
    try:
        for theta in thetas:
            d = _gap_polynomial(p, theta)
            # x D~' D~ - D~^2 - 4 = (x D~' - D~) D~ - 4, and x D~' - D~ = 2 l x^2 - g
            minimum = ((d[0], 0.0, -d[2]), d, (0.0, 0.0, -4.0))
            quartics = [minimum] if target_ratio is None else [(d, d, (-target_ratio, 0.0, 4.0)), minimum]
            polys += [_expanded(*q) for q in quartics]
            prepared.append((theta, quartics))
    except ValueError as exc:
        refusal = exc
    zs = iter(_companion_roots(polys))
    for theta, quartics in prepared:
        yield (theta, *[_refined_roots(*q, next(zs)) for q in quartics])
    if refusal is not None:
        raise refusal


def _least(p: DimerParams, theta: float, roots: list[float]) -> tuple[float, float]:
    """The stationary point of least 1/alpha among the roots of the minimum quartic at theta."""
    if not roots:
        raise NoSolutionError(f"no interior minimum of 1/alpha at lambda1 = {p.lambda1:.6g} "
                              "(1/alpha decreases monotonically in |eta|)")
    c = math.cos(theta)
    values = [_inverse_attenuation(p, x, c) for x in roots]
    k = values.index(min(values))
    return roots[k], values[k]


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
    1/alpha reads inf where it exceeds the float range.  The minima are
    solved together; the first theta that fails raises.
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
    for theta, roots in _solved(p, thetas):
        # the minimum first: it refuses a g or l that would show as nan on the grid
        minimum = _least(p, theta, roots)
        with np.errstate(over="ignore"):
            values = _inverse_attenuation(p, grid, math.cos(theta))
        results.append(SweepResult(theta=theta, points=np.column_stack((grid, values)), minimum=minimum))
    return results


def find_alpha_minimum(p: DimerParams, theta: float) -> tuple[float, float]:
    """Interior minimum of 1/alpha over |eta|, as (eta_min, inv_alpha_min): find_alpha_minima at one theta."""
    return find_alpha_minima(p, [theta])[0]


def find_alpha_minima(p: DimerParams, thetas: Sequence[float]) -> list[tuple[float, float]]:
    """Interior minimum of 1/alpha over |eta| at each theta, as (eta_min, inv_alpha_min).

    The stationary points of 1/alpha are the positive real roots of
    x D~'(x) D~(x) - D~(x)^2 - 4, with D~'(x) = 4 l (cos(theta) + x);
    the one with the smallest 1/alpha is returned.  Raises ValueError
    where that quartic leaves the float range; the quartics of all the
    thetas are solved together, and the first theta that fails raises.
    """
    if p.j12 == 0.0:
        raise NoSolutionError("j12 must be nonzero: 1/alpha is infinite without coupling")
    return [_least(p, theta, roots) for theta, roots in _solved(p, thetas)]


def estimate_eta(p: DimerParams, theta: float, target_ratio: float) -> EtaEstimate:
    """Solve 1/alpha = target_ratio for |eta|; return the smallest root: estimate_etas at one theta."""
    return estimate_etas(p, [theta], target_ratio)[0]


def estimate_etas(p: DimerParams, thetas: Sequence[float], target_ratio: float) -> list[EtaEstimate]:
    """Solve 1/alpha = target_ratio for |eta| at each theta; return the smallest roots.

    The condition is a quartic in x = |eta|:

        D~(x)^2 + 4 - target_ratio * x^2 = 0

    with D~(x) = g + 2 l x (2 cos(theta) + x).  Every positive real
    root is found and verified by back-substitution into the
    attenuation factor.  For lambda1 > 0, 1/alpha grows without bound
    at both ends, so the roots must bracket its minimum; where they do
    not, a root was lost to round-off and ValueError is raised.  Each
    theta's quartic and its minimum quartic are solved with all the
    others, and the first theta that fails raises.
    """
    if not target_ratio > 0.0:
        raise ValueError(f"target_ratio must be > 0, got {target_ratio}")
    if p.j12 == 0.0:
        raise NoSolutionError("attenuation vanishes identically for zero coupling; "
                              "no |eta| can reach a finite lifetime ratio")
    return [_estimate(p, theta, target_ratio, roots, minimum_roots)
            for theta, roots, minimum_roots in _solved(p, thetas, target_ratio)]


def _estimate(p: DimerParams, theta: float, target_ratio: float,
              roots: list[float], minimum_roots: list[float]) -> EtaEstimate:
    """One theta of estimate_etas, from the roots of its quartic and of its minimum quartic."""
    if not roots or p.lambda1 > 0.0:
        eta_min, inv_min = _least(p, theta, minimum_roots)
        if not roots:
            raise NoSolutionError(f"target ratio {target_ratio:.6g} is below the attainable minimum "
                                  f"1/alpha = {inv_min:.6g} (at |eta| = {eta_min:.6g})")
        # the slack admits the two halves of a double root at the minimum
        if not (roots[0] <= eta_min * (1.0 + 1e-9) and roots[-1] >= eta_min * (1.0 - 1e-9)):
            raise ValueError(f"a root of 1/alpha = {target_ratio:.6g} was lost to round-off: the roots "
                             f"found do not bracket the minimum at |eta| = {eta_min:.6g}")

    c = math.cos(theta)
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
        if grid is None or not np.array_equal(res.points[:, 0], grid):
            grid = res.points[:, 0]
            # one "<theta>,<eta>,%.9g" row per grid point; each phase puts in its theta
            rows = "".join(f"<theta>,{eta},%.9g\n" for eta in _fmt_table(grid[:, None]).splitlines())
        fh.write(rows.replace("<theta>", _fmt(res.theta)) % tuple((res.points[:, 1] + 0.0).tolist()))


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
