"""One-excitation dynamics of the dissipative exciton pair.

The density matrix lives on the three states {|e0>, |e1>, |e2>}: the
vacuum and the upper/lower excitons.  The generator splits into a
commutator with H = diag(0, omega_plus, omega_minus) (angular units)
and a dissipator with jump operators L+ = |e1><e2| (phonon absorption,
rate gamma*nbar0) and L- = |e2><e1| (emission, rate gamma*(nbar0+1)).
The vacuum row and column are untouched by the dissipator: the vacuum
population is carried along only so the generator stays a single
trace-preserving linear map.

Closed-form solutions, with G = gamma*(1 + 2*nbar0) and P = 1 - rho00:

    rho00(t) = rho00(0)
    rho01(t) = rho01(0) exp(-gamma(1+nbar0) t/2) exp(+i omega_plus t)
    rho02(t) = rho02(0) exp(-gamma nbar0 t/2)    exp(+i omega_minus t)
    rho11(t) = rho11(0) exp(-G t) + nbar0 P/(1+2 nbar0) (1 - exp(-G t))
    rho22(t) = 1 - rho00 - rho11(t)
    rho12(t) = rho12(0) exp(-G t/2) exp(-i omega0 t)

The vacuum-coherence phases rotate at the exciton frequencies
omega_plus and omega_minus (the natural reading on this subspace; bare
site frequencies never appear in the diagonal frame).  The numerical
propagator integrates the same generator with a classical fixed-step
fourth-order scheme and shares no code with the closed forms, so the two
paths cross-validate each other.  In this frame the generator is
diagonal up to a projector: it scales rho01, rho02 and rho12 by
lam01 = -dn/2 + i omega_plus, lam02 = -up/2 + i omega_minus and
lam12 = -G/2 - i omega0, and acts on (rho11, rho22) as -G Q with the
projector Q = [[dn, -up], [-dn, up]] / G, where dn = gamma (nbar0 + 1)
is the emission rate, up = gamma nbar0 the absorption rate, G = dn + up
and omega0 = omega_plus - omega_minus.  So n RK4 steps of h multiply
each coherence by R(h lam)^n and add (R(-h G)^n - 1) Q to the
populations, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the step's
stability polynomial: four scalar powers per distinct step, found by
binary powering, so the cost grows with log n rather than n.

Of the stacks only the numeric one is checked: RK4 is not positive by
construction.  The closed forms conjugate the upper triangle into the
lower, set rho22 = 1 - rho00 - rho11 and turn rho02 by the product of
the rho01 and rho12 phases, so each state is a diagonal unitary turn of
a CPTP image of the initial state, to round-off; its smallest eigenvalue
stays at or above minus the summed negative eigenvalues of the initial
state.  The site rotation is real orthogonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Sequence

from .excitons import DimerParams, basis_map
from .rates import BathSpec, rate_set
from .units import _fmt_table, wavenumber_to_angular

if TYPE_CHECKING:
    import numpy as np

BASES = ("exciton", "site")

# (row, column) indices of rho01, rho02, rho12
_UPPER = ((0, 0, 1), (1, 2, 2))

# output points per block: the per-point temporaries of the numeric path and of the
# trajectory writer live for one block, so a run holds its stacks plus one block
_BLOCK = 1024

TRAJECTORY_CSV_HEADER = (
    "t_fs",
    "rho00",
    "rho11",
    "rho22",
    "re_rho01",
    "im_rho01",
    "re_rho02",
    "im_rho02",
    "re_rho12",
    "im_rho12",
)


class StepSizeError(ValueError):
    """Integration step too coarse for the fastest system timescale."""


def _check_states(rhos: np.ndarray) -> None:
    """Raise ValueError at the first state of a (T, 3, 3) stack that breaks a rule.

    The rules, in order: finite, Hermitian to 1e-12, unit trace to 1e-12,
    smallest eigenvalue >= -1e-10.  A stack that keeps the first three is
    accepted if one stacked Cholesky of H + (1e-10 - 1e-14) I succeeds, H
    the Hermitian part: for trace-one states its round-off, and eigvalsh's,
    lie far below the 1e-14 margin, so such a stack also has eigmin >= -1e-10.
    Otherwise one stacked eigvalsh decides and names the first bad state.
    """
    import numpy as np
    finite = np.isfinite(rhos).all(axis=(1, 2))
    if not finite.all():
        rhos = np.where(finite[:, None, None], rhos, 0.0)
    adj = rhos.conj().transpose(0, 2, 1)
    asym = np.abs(rhos - adj).max(axis=(1, 2))
    trace = rhos.trace(axis1=1, axis2=2)
    herm = 0.5 * (rhos + adj)
    ok = finite & (asym <= 1e-12) & (np.abs(trace - 1.0) <= 1e-12)
    if ok.all():
        try:
            np.linalg.cholesky(herm + (1e-10 - 1e-14) * np.eye(3))
            return
        except np.linalg.LinAlgError:
            pass
    eigmin = np.linalg.eigvalsh(herm)[:, 0]
    ok &= eigmin >= -1e-10
    if ok.all():
        return
    i = int(ok.argmin())
    if not finite[i]:
        raise ValueError("rho must be finite")
    if not asym[i] <= 1e-12:
        raise ValueError("rho must be Hermitian to 1e-12")
    if not abs(trace[i] - 1.0) <= 1e-12:
        raise ValueError(f"rho must have unit trace to 1e-12, got {trace[i]}")
    raise ValueError(f"rho must be positive semidefinite, eigmin={float(eigmin[i])}")


@dataclass(frozen=True, eq=False)
class OneExcitationState:
    """Density matrix on {|e0>,|e1>,|e2>} (exciton) or {|0>,|1>,|2>} (site).

    Index 0 is the shared vacuum; indices 1, 2 are the two excitons or
    the two sites depending on the basis tag.  Validated on
    construction by the rules trajectories are checked with: finite,
    Hermitian to 1e-12, unit trace to 1e-12, smallest eigenvalue
    >= -1e-10.
    """

    rho: np.ndarray
    basis: str

    def __post_init__(self) -> None:
        import numpy as np
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (3, 3):
            raise ValueError(f"rho must be 3x3, got shape {rho.shape}")
        _check_states(rho[None])
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def pure(cls, index: int, basis: str = "exciton") -> "OneExcitationState":
        """Pure state on one basis vector: 0 vacuum, 1 and 2 excited."""
        import numpy as np
        if index not in (0, 1, 2):
            raise ValueError(f"index must be 0, 1 or 2, got {index}")
        rho = np.zeros((3, 3), dtype=complex)
        rho[index, index] = 1.0
        return cls(rho=rho, basis=basis)

    # named components (upper triangle; conjugates are implied)
    @property
    def rho00(self) -> float:
        return float(self.rho[0, 0].real)

    @property
    def rho11(self) -> float:
        return float(self.rho[1, 1].real)

    @property
    def rho22(self) -> float:
        return float(self.rho[2, 2].real)

    @property
    def rho01(self) -> complex:
        return complex(self.rho[0, 1])

    @property
    def rho02(self) -> complex:
        return complex(self.rho[0, 2])

    @property
    def rho12(self) -> complex:
        return complex(self.rho[1, 2])


@dataclass(frozen=True)
class EvolutionParams:
    """Parameters of the exciton-frame generator.

    gamma in fs^-1, nbar0 dimensionless, omega_plus/omega_minus in
    cm^-1 (converted to angular frequency only inside phase factors),
    phi0 in radians for site-basis conversion of the results.
    """

    gamma: float
    nbar0: float
    omega_plus: float
    omega_minus: float
    phi0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma", "nbar0", "omega_plus", "omega_minus", "phi0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0 fs^-1, got {self.gamma}")
        if self.nbar0 < 0.0:
            raise ValueError(f"nbar0 must be >= 0, got {self.nbar0}")

    @classmethod
    def for_dimer(cls, p: DimerParams, bath: BathSpec) -> "EvolutionParams":
        """gamma, nbar0, the frequencies and phi0 from one rate_set call and its frame.

        The exciton frequencies are the unshifted ones: the discrete-mode
        shifts move only unitary phases, never populations.
        """
        rates = rate_set(p, bath)
        return cls(gamma=rates.gamma, nbar0=rates.nbar0, omega_plus=rates.frame.omega_plus,
                   omega_minus=rates.frame.omega_minus, phi0=rates.frame.phi0)


def analytic_trajectory(
    state: OneExcitationState, times: Sequence[float], p: EvolutionParams
) -> np.ndarray:
    """Closed-form states at each of ``times`` as a (T, 3, 3) stack, unchecked.

    ``state``, the exciton-basis state at t = 0, was checked when built;
    the stack keeps the rules by construction (module notes).  The real
    decay factors come from math.exp and the complex products are written
    out, since np.exp and numpy's vectorized complex multiply can move
    the last bit of the scalar closed forms.
    """
    import numpy as np
    if state.basis != "exciton":
        raise ValueError("analytic_trajectory requires an exciton-basis state")
    ts = np.asarray(times, dtype=float)
    bad = ~(np.isfinite(ts) & (ts >= 0.0))
    if bad.any():
        raise ValueError(f"t must be >= 0 fs, got {ts[bad][0]}")
    g_pop = p.gamma * (1.0 + 2.0 * p.nbar0)
    wp, wm = wavenumber_to_angular(p.omega_plus), wavenumber_to_angular(p.omega_minus)
    t_last = float(ts.max(initial=0.0))
    if not math.isfinite(t_last * max(abs(wp), abs(wm), abs(wp - wm))):
        raise ValueError(f"the phases omega t leave the float range by t = {t_last:.6g} fs")
    # exponents of the population and of the rho01, rho02, rho12 moduli
    rates = (-g_pop, -0.5 * p.gamma * (1.0 + p.nbar0), -0.5 * p.gamma * p.nbar0, -0.5 * g_pop)
    tl = ts.tolist()
    decay = np.array([[math.exp(k * t) for t in tl] for k in rates]).T
    p01, p12 = np.exp(1j * np.multiply.outer((wp, -(wp - wm)), ts))
    # rho02 turns by p01 * p12, so the three phases agree to round-off at any t
    cos = np.column_stack([p01.real, p01.real * p12.real - p01.imag * p12.imag, p12.real])
    sin = np.column_stack([p01.imag, p01.real * p12.imag + p01.imag * p12.real, p12.imag])

    r = state.rho
    rho00 = r[0, 0].real
    eq11 = p.nbar0 * (1.0 - rho00) / (1.0 + 2.0 * p.nbar0)
    rho11 = r[1, 1].real * decay[:, 0] + eq11 * (1.0 - decay[:, 0])
    re, im = r[_UPPER].real * decay[:, 1:], r[_UPPER].imag * decay[:, 1:]
    out = np.empty((len(ts), 3, 3), dtype=complex)
    out[:, 0, 0], out[:, 1, 1], out[:, 2, 2] = rho00, rho11, 1.0 - rho00 - rho11
    out.real[:, _UPPER[0], _UPPER[1]] = re * cos - im * sin
    out.imag[:, _UPPER[0], _UPPER[1]] = re * sin + im * cos
    out[:, _UPPER[1], _UPPER[0]] = out[:, _UPPER[0], _UPPER[1]].conj()
    return out


def analytic_evolve(
    state: OneExcitationState, t: float, p: EvolutionParams
) -> OneExcitationState:
    """Closed-form propagation: the one-time :func:`analytic_trajectory`, checked by the state."""
    return OneExcitationState(rho=analytic_trajectory(state, (t,), p)[0], basis="exciton")


def _site_map(phi0: float) -> np.ndarray:
    """T with rho_site = T rho_exciton T^T: the vacuum fixed, basis_map's R on the excitons."""
    import numpy as np
    t = np.eye(3, dtype=complex)
    t[1:, 1:] = basis_map(phi0)
    return t


def to_site_basis(state: OneExcitationState, phi0: float) -> OneExcitationState:
    """Rotate an exciton-basis state to the site basis.

    Exact unitary conjugation, so the spectrum is preserved; for states
    with no vacuum weight the components reduce to the familiar
    half-angle combinations, e.g. rho11_site = 1/2 +
    (rho11_exc - 1/2) cos(phi0) + Re(rho12_exc) sin(phi0).
    """
    if state.basis != "exciton":
        raise ValueError("to_site_basis requires an exciton-basis state")
    return OneExcitationState(rho=trajectory_to_site(state.rho[None], phi0)[0], basis="site")


def trajectory_to_site(rhos: np.ndarray, phi0: float) -> np.ndarray:
    """:func:`to_site_basis` for a (T, 3, 3) stack, unchecked.

    T rho T^T as two 2-D products: T times the states side by side, then their rows times T^T.
    """
    t, n = _site_map(phi0), len(rhos)
    left = (t @ rhos.transpose(1, 0, 2).reshape(3, -1)).reshape(3, n, 3).transpose(1, 0, 2)
    return (left.reshape(-1, 3) @ t.T).reshape(n, 3, 3)


def from_site_basis(state: OneExcitationState, phi0: float) -> OneExcitationState:
    """Inverse of :func:`to_site_basis`."""
    if state.basis != "site":
        raise ValueError("from_site_basis requires a site-basis state")
    t = _site_map(phi0)
    return OneExcitationState(rho=t.T @ state.rho @ t, basis="exciton")


def _eigenvalues(p: EvolutionParams) -> tuple[complex, complex, complex, float, float, float]:
    """lam01, lam02, lam12 and -G, the generator's eigenvalues (module notes), then dn and up."""
    wp, wm = wavenumber_to_angular(p.omega_plus), wavenumber_to_angular(p.omega_minus)
    dn, up = p.gamma * (p.nbar0 + 1.0), p.gamma * p.nbar0
    g = dn + up
    return complex(-0.5 * dn, wp), complex(-0.5 * up, wm), complex(-0.5 * g, -(wp - wm)), -g, dn, up


def _powered_factor(lam: complex | float, h: float, n: int) -> complex | float:
    """R(h lam)^n - 1 for n >= 1, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the RK4 step factor.

    Binary powering on the increment d = R - 1: squares as d <- 2d + d d and
    combines as a + b + a b, so 1 + d is never formed and the 1 never
    swamps a small increment (scaling and squaring with the increment kept
    apart from 1; Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179).
    """
    z = h * lam
    d = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    out = None
    while True:
        if n & 1:
            out = d if out is None else out + d + out * d
        n >>= 1
        if not n:
            return out
        d = 2.0 * d + d * d


def numeric_trajectory(
    state: OneExcitationState, times: Sequence[float], dt: float, p: EvolutionParams
) -> np.ndarray:
    """Checked (T, 3, 3) stack of the states at each of ``times`` by RK4.

    ``state`` is the state at ``times[0]``; ``times`` must be non-empty
    and non-decreasing.
    Each interval t is covered by n = ceil(t/dt) equal steps h = t/n, and
    the n steps are applied at once: on each eigenvector of the generator
    (module notes) they multiply by R(h lam)^n, whose increment d comes
    from :func:`_powered_factor`, once per distinct interval and
    eigenvalue.  The state is carried as five recurrences on Python
    complex numbers: c += d c for rho01, rho02, rho12, and, with f the
    population increment, inc = (f dn/G) rho11 - (f up/G) rho22,
    rho11 += inc, rho22 -= inc.  numpy's array complex multiply may fuse
    multiply-adds, so a vectorized recurrence could round differently
    from one CPU to another.  rho00 is copied and the lower triangle is
    the conjugate of the upper, so every state after the first is
    Hermitian by construction.  The recurrences run, and the stack is
    checked, one block of _BLOCK output points at a time.  Serves
    as an independent cross-check of :func:`analytic_evolve`; the step
    must resolve the fastest timescale, dt <= 0.1 * min over the
    relaxation time and the unitary phase periods.  The trace is kept
    exactly; positivity is checked on the returned stack, not enforced.
    """
    import numpy as np
    if state.basis != "exciton":
        raise ValueError("numeric_trajectory requires an exciton-basis state")
    ts = np.asarray(times, dtype=float)
    if ts.size == 0:
        raise ValueError("times must not be empty: the state belongs to times[0]")
    intervals = np.diff(ts)
    bad = ~(np.isfinite(intervals) & (intervals >= 0.0))
    if bad.any():
        raise ValueError(f"t must be finite and >= 0 fs per interval, got {intervals[bad][0]}")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0 fs, got {dt}")

    rates = [p.gamma * (1.0 + 2.0 * p.nbar0)]
    rates.append(abs(wavenumber_to_angular(p.omega_plus)))
    rates.append(abs(wavenumber_to_angular(p.omega_minus)))
    fastest = max(rates)
    if fastest > 0.0 and dt > 0.1 / fastest:
        raise StepSizeError(
            f"dt = {dt} fs exceeds 0.1/max(rate) = {0.1 / fastest:.6g} fs; "
            f"the fastest timescale would be under-resolved"
        )
    longest = float(intervals.max(initial=0.0))
    if not math.isfinite(longest / dt):
        raise ValueError(f"t/dt must be finite, got t = {longest} fs, dt = {dt} fs")

    *lams, dn, up = _eigenvalues(p)
    g = dn + up
    # the five factors per distinct interval; None for t = 0
    factors: dict[float, tuple[complex, ...] | None] = {}
    for t in set(intervals.tolist()):
        if t == 0.0:
            factors[t] = None
            continue
        n_steps = max(1, math.ceil(t / dt - 1e-9))
        h = t / n_steps
        d01, d02, d12, f = (_powered_factor(lam, h, n_steps) for lam in lams)
        factors[t] = (d01, d02, d12, f * dn / g, -f * up / g) if g else (d01, d02, d12, 0.0, 0.0)
    r = state.rho
    p11, p22, c01, c02, c12 = r[(1, 2) + _UPPER[0], (1, 2) + _UPPER[1]].tolist()
    out = np.empty((len(ts), 3, 3), dtype=complex)
    out[0] = r
    out[1:, 0, 0] = r[0, 0]
    for lo in range(0, len(intervals), _BLOCK):
        flat: list[complex] = []
        for t in intervals[lo:lo + _BLOCK].tolist():
            e = factors[t]
            if e is not None:
                d01, d02, d12, e44, e48 = e
                c01 += d01 * c01
                c02 += d02 * c02
                c12 += d12 * c12
                inc = e44 * p11 + e48 * p22
                p11 += inc
                p22 -= inc
            flat += (p11, p22, c01, c02, c12)
        rows = np.fromiter(flat, complex, len(flat)).reshape(-1, 5)
        if not np.isfinite(rows).all():
            raise ValueError(f"round-off in the RK4 propagator overflows over {longest:.6g} fs at dt = {dt:.6g} fs: too little decay")
        block = out[lo + 1:lo + 1 + len(rows)]
        block[:, (1, 2), (1, 2)] = rows[:, :2]
        block[:, _UPPER[0], _UPPER[1]] = rows[:, 2:]
        block[:, _UPPER[1], _UPPER[0]] = rows[:, 2:].conj()
    # checked only once all is finite: an overflow anywhere is refused before a bad state
    for lo in range(0, len(out), _BLOCK):
        _check_states(out[lo:lo + _BLOCK])
    return out


def numeric_evolve(
    state: OneExcitationState, t: float, dt: float, p: EvolutionParams
) -> OneExcitationState:
    """Propagate by t fs: the one-interval case of :func:`numeric_trajectory`."""
    return OneExcitationState(rho=numeric_trajectory(state, (0.0, t), dt, p)[-1], basis="exciton")


def write_trajectory_csv(
    fh: IO[str],
    times: Sequence[float],
    rhos: np.ndarray,
    reference: np.ndarray | None = None,
) -> float | None:
    """Emit a (T, 3, 3) stack of states, one row per time, as CSV.

    Columns: t_fs, the three populations, then Re/Im of the three
    independent coherences (upper triangle).  Given a reference stack,
    each row ends in supnorm_vs_analytic, the largest |rhos - reference|
    over its nine entries, and the largest of that column is returned;
    without one, None.  Values at 9 significant digits, LF line endings.
    Rows are built, formatted and written one block of _BLOCK at a time.
    """
    import numpy as np
    if len(times) != len(rhos) or (reference is not None and np.shape(reference) != np.shape(rhos)):
        raise ValueError("times and states must have equal length")
    # formatted numbers hold no separator or quote, so rows need no csv quoting
    fh.write(",".join(TRAJECTORY_CSV_HEADER) + ("\n" if reference is None else ",supnorm_vs_analytic\n"))
    worst = -math.inf
    for lo in range(0, len(rhos), _BLOCK):
        block = rhos[lo:lo + _BLOCK]
        upper = block[:, _UPPER[0], _UPPER[1]]
        # populations, then Re and Im of rho01, rho02, rho12 as interleaved pairs
        pairs = np.dstack([upper.real, upper.imag]).reshape(len(block), 6)
        cols = [times[lo:lo + _BLOCK], block.diagonal(axis1=1, axis2=2).real, pairs]
        if reference is not None:
            cols.append(np.abs(block - reference[lo:lo + _BLOCK]).reshape(len(block), 9).max(axis=1))
            worst = np.maximum(worst, cols[-1].max())  # nan, as numpy's max gives it, carries through
        fh.write(_fmt_table(np.column_stack(cols)))
    return None if reference is None else worst
