"""One-excitation reduced dynamics: state type, closed forms, propagator."""

import io
import json
import math
import random
import time
import tracemalloc

import numpy as np
import oracle
import pytest

from dimerdecay import cli, dynamics
from dimerdecay.cli import _initial_state as initial_state
from dimerdecay.cli import build_config, build_parser, main
from dimerdecay.dynamics import (
    TRAJECTORY_CSV_HEADER,
    EvolutionParams,
    OneExcitationState,
    StepSizeError,
    analytic_evolve,
    analytic_trajectory,
    from_site_basis,
    numeric_evolve,
    numeric_trajectory,
    to_site_basis,
    trajectory_to_site,
    write_trajectory_csv,
)
from dimerdecay.dynamics import _check_states, _eigenvalues, _powered_factor
from dimerdecay.excitons import DimerParams, exciton_frame
from dimerdecay.rates import BathSpec, rate_set
from dimerdecay.units import _fmt, wavenumber_to_angular

# frozen from 40-digit evaluations of the transform chain
FMO_PHI0 = 0.6459710864886066
FMO_OMEGA_PLUS = 22.131786462354411
FMO_OMEGA_MINUS = -296.81878646235441
FMO_OMEGA0 = 318.95057292470882
FMO_NBAR0 = 0.27650142946590151
FMO_GAMMA = 0.00091336083688468896  # alpha * gamma_d at gamma_d = 0.02
EQ_SITE_COHERENCE = 0.19380973655293942  # sin(phi0) / (2 (1 + 2 nbar0))
EPS = 2.0**-52

FMO = DimerParams(
    omega1=60.0, omega2=-60.0, j12=-96.0, lambda1=35.0, eta_abs=0.71, theta=0.0
)
BATH300 = BathSpec(temperature=300.0, gamma_d=0.02)

FMO_PARAMS = EvolutionParams(
    gamma=FMO_GAMMA,
    nbar0=FMO_NBAR0,
    omega_plus=FMO_OMEGA_PLUS,
    omega_minus=FMO_OMEGA_MINUS,
    phi0=FMO_PHI0,
)


def equilibrium(nbar0):
    """Fixed point of the dissipative dynamics: diag(0, nbar0, nbar0 + 1) / (1 + 2 nbar0)."""
    s = 1.0 / (1.0 + 2.0 * nbar0)
    rho = np.diag([0.0, nbar0 * s, (nbar0 + 1.0) * s]).astype(complex)
    return OneExcitationState(rho=rho, basis="exciton")


def dyadic_state():
    """Mixed state whose entries are all exact binary fractions."""
    rho = np.array(
        [
            [0.25, 0.125, 0.0],
            [0.125, 0.5, 0.25],
            [0.0, 0.25, 0.25],
        ],
        dtype=complex,
    )
    return OneExcitationState(rho=rho, basis="exciton")


def coherent_state():
    """Pure superposition with all coherences populated."""
    rho = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    return OneExcitationState(rho=rho, basis="exciton")


def random_state(rng):
    """Random full-rank density matrix in the exciton basis."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= rho.trace().real
    return OneExcitationState(rho=rho, basis="exciton")


def supnorm(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def lindblad_generator(p):
    """Action rho -> d(rho)/dt of the exciton-frame generator, built from operators.

    Commutator with diag(0, omega_plus, omega_minus) in angular units
    plus the two-jump dissipator: the reference that the entry-by-entry
    oracle.generator_matrix and the dimer-built oracle.dimer_generator are
    checked against.
    """
    h = np.diag(
        [0.0, wavenumber_to_angular(p.omega_plus), wavenumber_to_angular(p.omega_minus)]
    ).astype(complex)
    l_up = np.zeros((3, 3), dtype=complex)
    l_up[1, 2] = 1.0  # |e1><e2|: absorption, e2 -> e1
    l_dn = l_up.conj().T  # |e2><e1|: emission, e1 -> e2
    rate_up = p.gamma * p.nbar0
    rate_dn = p.gamma * (p.nbar0 + 1.0)
    n_up = l_dn @ l_up  # |e2><e2|
    n_dn = l_up @ l_dn  # |e1><e1|

    def act(rho):
        rho = np.asarray(rho, dtype=complex)
        out = -1j * (h @ rho - rho @ h)
        out += rate_up * (l_up @ rho @ l_dn - 0.5 * (n_up @ rho + rho @ n_up))
        out += rate_dn * (l_dn @ rho @ l_up - 0.5 * (n_dn @ rho + rho @ n_dn))
        return out

    return act


# --------------------------------------------------------------- state type

def test_state_rejects_bad_shape():
    with pytest.raises(ValueError, match="3x3"):
        OneExcitationState(rho=np.eye(2, dtype=complex), basis="exciton")


def test_state_rejects_non_hermitian():
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    rho[0, 1] = 0.1
    rho[1, 0] = 0.2
    with pytest.raises(ValueError, match="Hermitian"):
        OneExcitationState(rho=rho, basis="exciton")


def test_state_rejects_bad_trace():
    with pytest.raises(ValueError, match="unit trace"):
        OneExcitationState(rho=np.diag([0.5, 0.5, 0.5]).astype(complex), basis="exciton")


def test_state_rejects_negative_eigenvalue():
    rho = np.diag([-0.1, 0.55, 0.55]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        OneExcitationState(rho=rho, basis="exciton")


def test_state_rejects_non_finite():
    rho = np.diag([math.nan, 0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="finite"):
        OneExcitationState(rho=rho, basis="exciton")


def test_state_rejects_unknown_basis():
    with pytest.raises(ValueError, match="basis"):
        OneExcitationState(rho=np.diag([0, 1, 0]).astype(complex), basis="orbital")


def test_state_array_is_frozen():
    s = OneExcitationState(rho=np.diag([0, 1, 0]).astype(complex), basis="exciton")
    with pytest.raises(ValueError):
        s.rho[0, 0] = 0.9


def test_pure_states():
    s = OneExcitationState.pure(1)
    assert s.basis == "exciton"
    assert s.rho11 == 1.0 and s.rho00 == 0.0 and s.rho22 == 0.0
    assert OneExcitationState.pure(0, basis="site").basis == "site"
    with pytest.raises(ValueError, match="index"):
        OneExcitationState.pure(3)


def test_equilibrium_is_stationary():
    eq = equilibrium(FMO_NBAR0)
    act = lindblad_generator(FMO_PARAMS)
    assert float(np.max(np.abs(act(eq.rho)))) <= 1e-12


def test_component_properties():
    rng = np.random.default_rng(7)
    s = random_state(rng)
    assert s.rho01 == s.rho[0, 1]
    assert s.rho02 == s.rho[0, 2]
    assert s.rho12 == s.rho[1, 2]
    assert s.rho00 == s.rho[0, 0].real
    assert isinstance(s.rho11, float)


def bad_state(rule):
    """A 3x3 matrix that breaks exactly one of the state rules."""
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    if rule == "finite":
        rho[0, 0] = math.inf
    elif rule == "Hermitian":
        rho[0, 1] = 0.1
    elif rule == "unit trace":
        rho[0, 0] = 0.3
    else:
        rho = np.diag([-0.1, 0.55, 0.55]).astype(complex)
    return rho


@pytest.mark.parametrize("rule", ["finite", "Hermitian", "unit trace", "positive semidefinite"])
def test_check_states_rejects_one_bad_state_in_a_stack(rule):
    stack = analytic_trajectory(coherent_state(), np.linspace(0.0, 2000.0, 3001), FMO_PARAMS)
    _check_states(stack)
    stack[1777] = bad_state(rule)
    with pytest.raises(ValueError, match=rule) as batched:
        _check_states(stack)
    with pytest.raises(ValueError) as single:
        OneExcitationState(rho=stack[1777], basis="exciton")
    assert str(batched.value) == str(single.value)
    # the first bad state sets the message, whatever rule a later one breaks
    stack[2500] = bad_state("finite" if rule != "finite" else "Hermitian")
    with pytest.raises(ValueError) as first:
        _check_states(stack)
    assert str(first.value) == str(single.value)


def eigvalsh_rule(rhos):
    """The state rules with one stacked eigvalsh deciding positivity, and no Cholesky before it."""
    finite = np.isfinite(rhos).all(axis=(1, 2))
    if not finite.all():
        rhos = np.where(finite[:, None, None], rhos, 0.0)
    adj = rhos.conj().transpose(0, 2, 1)
    asym = np.abs(rhos - adj).max(axis=(1, 2))
    trace = rhos.trace(axis1=1, axis2=2)
    eigmin = np.linalg.eigvalsh(0.5 * (rhos + adj))[:, 0]
    ok = finite & (asym <= 1e-12) & (np.abs(trace - 1.0) <= 1e-12) & (eigmin >= -1e-10)
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


def verdict(check, rhos):
    try:
        check(rhos)
    except ValueError as exc:
        return str(exc)
    return None


def edge_state(rng):
    """A random 3x3 state near the edges of the rules: its smallest eigenvalue within 1e-6 relative of
    -1e-10 or of the Cholesky shift -(1e-10 - 1e-14), pure or rank two, or off Hermitian or unit trace
    by about 1e-12, or not finite."""
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    kind = rng.integers(8)
    edge = (-1e-10, -1e-10 + 1e-14)[kind % 2] * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0))
    w = rng.dirichlet((1.0, 1.0, 1.0))
    if kind < 2:  # one eigenvalue at an edge
        w = np.array([edge, *(w[:2] / w[:2].sum() * (1.0 - edge))])
    elif kind < 4:  # pure or rank two: zero eigenvalues
        w[: kind - 1] = 0.0
        w /= w.sum()
    elif kind == 4:  # two eigenvalues near -1e-10, refused
        w = np.array([edge, edge, 1.0 - 2.0 * edge])
    rho = (u * w) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    if kind == 5:  # off Hermitian by about 1e-12
        rho[0, 1] += 1e-12 * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0))
    elif kind == 6:  # off unit trace by about 1e-12
        rho[1, 1] += 1e-12 * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0))
    elif kind == 7:
        rho[2, 0] = (math.nan, math.inf)[int(rng.integers(2))]
    return rho


def test_check_states_decides_as_the_eigenvalue_rule():
    # the Cholesky of H + (1e-10 - 1e-14) I accepts a stack only where eigvalsh would, so every
    # decision and message is the eigvalsh rule's, at both edges and with mixed failures
    rng = np.random.default_rng(79)
    refused, accepted = 0, 0
    for _ in range(3000):
        stack = np.array([edge_state(rng) for _ in range(int(rng.integers(1, 4)))])
        expected = verdict(eigvalsh_rule, stack)
        assert verdict(_check_states, stack) == expected
        refused += expected is not None
        accepted += expected is None
    assert refused > 500 and accepted > 500


def test_check_states_accepts_a_passing_stack_without_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    stack = numeric_trajectory(coherent_state(), np.linspace(0.0, 2000.0, 3001), 0.01, FMO_PARAMS)
    assert calls == []
    stack[1777] = bad_state("positive semidefinite")
    with pytest.raises(ValueError, match="positive semidefinite"):
        _check_states(stack)
    assert calls == [3001]


# --------------------------------------------------------------- parameters

def test_evolution_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        EvolutionParams(gamma=-1.0, nbar0=0.0, omega_plus=1.0, omega_minus=-1.0)
    with pytest.raises(ValueError, match="nbar0"):
        EvolutionParams(gamma=0.0, nbar0=-0.5, omega_plus=1.0, omega_minus=-1.0)
    with pytest.raises(ValueError, match="finite"):
        EvolutionParams(gamma=0.0, nbar0=0.0, omega_plus=math.inf, omega_minus=0.0)


def test_for_dimer_assembles_frozen_values():
    p = EvolutionParams.for_dimer(FMO, BATH300)
    assert p.gamma == pytest.approx(FMO_GAMMA, rel=1e-12)
    assert p.nbar0 == pytest.approx(FMO_NBAR0, rel=1e-12)
    assert p.omega_plus == pytest.approx(FMO_OMEGA_PLUS, rel=1e-12)
    assert p.omega_minus == pytest.approx(FMO_OMEGA_MINUS, rel=1e-12)
    assert p.phi0 == pytest.approx(FMO_PHI0, rel=1e-12)


@pytest.mark.filterwarnings("ignore:renormalized gap:UserWarning")
def test_for_dimer_reads_rate_set_and_exciton_frame():
    rng = random.Random(5)
    dimers = [FMO] + [
        DimerParams(rng.uniform(1.0, 500.0), 0.0, rng.uniform(-200.0, 200.0), rng.uniform(0.0, 100.0),
                    rng.uniform(0.0, 3.0), rng.uniform(-math.pi, math.pi))
        for _ in range(50)
    ]
    for p in dimers:
        bath = BathSpec(temperature=rng.uniform(1.0, 500.0), gamma_d=rng.uniform(0.0, 0.1))
        params, rates, frame = EvolutionParams.for_dimer(p, bath), rate_set(p, bath), exciton_frame(p)
        assert (params.gamma, params.nbar0) == (rates.gamma, rates.nbar0)
        assert (params.omega_plus, params.omega_minus, params.phi0) == (
            frame.omega_plus, frame.omega_minus, frame.phi0)
        assert rates.frame == frame


# --------------------------------------------------------------- closed forms

def test_analytic_evolve_requires_exciton_basis():
    s = OneExcitationState.pure(1, basis="site")
    with pytest.raises(ValueError, match="exciton"):
        analytic_evolve(s, 1.0, FMO_PARAMS)


def test_analytic_evolve_rejects_negative_time():
    with pytest.raises(ValueError, match="t must be"):
        analytic_evolve(dyadic_state(), -1.0, FMO_PARAMS)


def test_analytic_evolve_time_zero_is_identity():
    s = dyadic_state()
    out = analytic_evolve(s, 0.0, FMO_PARAMS)
    assert np.array_equal(out.rho, s.rho)


def test_analytic_trajectory_equals_pointwise_evolve():
    rng = np.random.default_rng(17)
    times = np.linspace(0.0, 3000.0, 401)
    for s in (coherent_state(), dyadic_state(), random_state(rng), random_state(rng)):
        traj = analytic_trajectory(s, times, FMO_PARAMS)
        assert traj.shape == (len(times), 3, 3)
        for t, rho in zip(times, traj):
            assert np.array_equal(rho, analytic_evolve(s, float(t), FMO_PARAMS).rho)


def test_vacuum_population_is_conserved():
    s = dyadic_state()
    for t in (0.0, 13.7, 400.0, 5000.0):
        assert analytic_evolve(s, t, FMO_PARAMS).rho00 == s.rho00


def test_coherence_moduli_decay_rates():
    s = coherent_state()
    p = FMO_PARAMS
    g_pop = p.gamma * (1.0 + 2.0 * p.nbar0)
    for t in (50.0, 500.0, 2000.0):
        out = analytic_evolve(s, t, p)
        assert abs(out.rho01) == pytest.approx(
            abs(s.rho01) * math.exp(-0.5 * p.gamma * (1.0 + p.nbar0) * t), rel=1e-12
        )
        assert abs(out.rho02) == pytest.approx(
            abs(s.rho02) * math.exp(-0.5 * p.gamma * p.nbar0 * t), rel=1e-12
        )
        assert abs(out.rho12) == pytest.approx(
            abs(s.rho12) * math.exp(-0.5 * g_pop * t), rel=1e-12
        )


def test_coherence_phase_winding():
    # each coherence rotates at the transition frequency of its level pair
    s = coherent_state()
    p = FMO_PARAMS
    t = 10.0
    wp = wavenumber_to_angular(p.omega_plus)
    wm = wavenumber_to_angular(p.omega_minus)
    out = analytic_evolve(s, t, p)
    assert cphase(out.rho01 / s.rho01) == pytest.approx(wp * t, rel=1e-10)
    assert cphase(out.rho02 / s.rho02) == pytest.approx(wm * t, rel=1e-10)
    assert cphase(out.rho12 / s.rho12) == pytest.approx(-(wp - wm) * t, rel=1e-10)


def cphase(z):
    return math.atan2(z.imag, z.real)


def test_population_relaxation_to_equilibrium():
    s = dyadic_state()
    p = FMO_PARAMS
    g_pop = p.gamma * (1.0 + 2.0 * p.nbar0)
    out = analytic_evolve(s, 40.0 / g_pop, p)
    excited = 1.0 - s.rho00
    assert out.rho11 == pytest.approx(
        p.nbar0 * excited / (1.0 + 2.0 * p.nbar0), rel=1e-12
    )
    assert out.rho22 == pytest.approx(
        (p.nbar0 + 1.0) * excited / (1.0 + 2.0 * p.nbar0), rel=1e-12
    )


def test_population_ratio_matches_boltzmann_factor():
    s = coherent_state()
    p = FMO_PARAMS
    out = analytic_evolve(s, 25.0 / p.gamma, p)
    kt = 208.51044  # cm^-1 at 300 K
    assert out.rho11 / out.rho22 == pytest.approx(
        math.exp(-FMO_OMEGA0 / kt), rel=1e-6
    )


def test_analytic_evolve_semigroup_property():
    s = coherent_state()
    p = FMO_PARAMS
    once = analytic_evolve(s, 7.3 + 12.9, p)
    twice = analytic_evolve(analytic_evolve(s, 7.3, p), 12.9, p)
    assert supnorm(once.rho, twice.rho) <= 1e-12


def test_analytic_evolve_is_affine():
    rng = np.random.default_rng(11)
    a, b = random_state(rng), random_state(rng)
    lam = 0.375
    mix = OneExcitationState(
        rho=lam * a.rho + (1.0 - lam) * b.rho, basis="exciton"
    )
    t = 180.0
    direct = analytic_evolve(mix, t, FMO_PARAMS).rho
    recombined = (
        lam * analytic_evolve(a, t, FMO_PARAMS).rho
        + (1.0 - lam) * analytic_evolve(b, t, FMO_PARAMS).rho
    )
    assert supnorm(direct, recombined) <= 1e-12


def test_log_slope_regression_recovers_rates():
    # fit the decay exponents from sampled trajectories
    s = coherent_state()
    p = FMO_PARAMS
    ts = np.linspace(0.0, 3000.0, 31)
    m01 = [abs(analytic_evolve(s, t, p).rho01) for t in ts]
    m12 = [abs(analytic_evolve(s, t, p).rho12) for t in ts]
    slope01 = np.polyfit(ts, np.log(m01), 1)[0]
    slope12 = np.polyfit(ts, np.log(m12), 1)[0]
    assert slope01 == pytest.approx(-0.5 * p.gamma * (1.0 + p.nbar0), rel=1e-6)
    assert slope12 == pytest.approx(-0.5 * p.gamma * (1.0 + 2.0 * p.nbar0), rel=1e-6)


def test_analytic_matches_generator_derivative():
    # central difference of the closed forms against the generator action
    s = coherent_state()
    p = FMO_PARAMS
    act = lindblad_generator(p)
    t0, h = 5.0, 1e-3
    fwd = analytic_evolve(s, t0 + h, p).rho
    bwd = analytic_evolve(s, t0 - h, p).rho
    deriv = (fwd - bwd) / (2.0 * h)
    assert supnorm(deriv, act(analytic_evolve(s, t0, p).rho)) <= 1e-6


# --------------------------------------------------------------- basis maps

def test_site_map_at_zero_angle_is_identity():
    s = dyadic_state()
    out = to_site_basis(s, 0.0)
    assert out.basis == "site"
    assert np.array_equal(out.rho, s.rho)


def test_site_map_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = random_state(rng)
        back = from_site_basis(to_site_basis(s, 0.83), 0.83)
        assert back.basis == "exciton"
        assert supnorm(back.rho, s.rho) <= 1e-14


def test_site_map_preserves_spectrum():
    rng = np.random.default_rng(29)
    s = random_state(rng)
    site = to_site_basis(s, FMO_PHI0)
    assert supnorm(
        np.linalg.eigvalsh(site.rho), np.linalg.eigvalsh(s.rho)
    ) <= 1e-12


def test_site_map_checks_basis_tags():
    with pytest.raises(ValueError, match="exciton"):
        to_site_basis(OneExcitationState.pure(1, basis="site"), 0.5)
    with pytest.raises(ValueError, match="site"):
        from_site_basis(OneExcitationState.pure(1), 0.5)


def test_trajectory_to_site_equals_pointwise_rotation():
    rng = np.random.default_rng(31)
    every = (FMO_PHI0, -1.1, 0.0, math.pi / 2, -math.pi / 2)
    for points, angles in ((1, every), (2, every), (401, every[1:4]), (3001, every[::4])):
        times = np.linspace(0.0, 2000.0, points)
        s = random_state(rng)
        for traj in (analytic_trajectory(s, times, FMO_PARAMS), numeric_trajectory(s, times, 0.01, FMO_PARAMS)):
            states = [OneExcitationState(rho=rho, basis="exciton") for rho in traj]
            for phi0 in angles:
                site = trajectory_to_site(traj, phi0)
                assert site.shape == traj.shape
                for state, rotated in zip(states, site):
                    assert np.array_equal(rotated, to_site_basis(state, phi0).rho)


def accepted_initial_states(rng, phi0):
    """Exciton-basis states that pass the initial check: the pure presets in both bases,
    random full-rank, rank-one and rank-two states, and random custom site-basis states."""
    states = [OneExcitationState.pure(i, basis) for basis in ("exciton", "site") for i in (0, 1, 2)]
    for _ in range(2):
        states.append(random_state(rng))
        vs = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        pure = np.outer(vs[0], vs[0].conj())
        states.append(OneExcitationState(rho=pure, basis="exciton"))
        w = rng.uniform()
        states.append(OneExcitationState(rho=w * pure + (1.0 - w) * np.outer(vs[1], vs[1].conj()), basis="exciton"))
        states.append(OneExcitationState(rho=random_state(rng).rho, basis="site"))
    return [from_site_basis(s, phi0) if s.basis == "site" else s for s in states]


@pytest.mark.filterwarnings("ignore:renormalized gap:UserWarning")
def test_unchecked_stacks_keep_the_state_rules():
    # analytic_trajectory and trajectory_to_site return unchecked stacks: the closed forms are a
    # CPTP image turned by a diagonal unitary and the rotation is real orthogonal, so states
    # positive to round-off stay within the rules, undamped at 1e9 fs too
    rng = np.random.default_rng(67)
    for i, p in enumerate(seeded_dimer_params(rng, 12)):
        times = np.linspace(0.0, 1e9 if i % 4 == 0 else 10.0 ** rng.uniform(1.0, 9.0), 201)
        for s in accepted_initial_states(rng, p.phi0):
            traj = analytic_trajectory(s, times, p)
            _check_states(traj)
            for phi0 in (p.phi0, FMO_PHI0, 0.0, math.pi / 2, -math.pi / 2):
                _check_states(trajectory_to_site(traj, phi0))


@pytest.mark.filterwarnings("ignore:renormalized gap:UserWarning")
def test_analytic_stack_keeps_the_negative_part_of_a_boundary_state():
    # the state check admits eigenvalues down to -1e-10; the closed forms are CPTP up to a
    # diagonal unitary, so no state goes below minus the summed negative eigenvalues at t = 0
    rng = np.random.default_rng(71)
    for i, p in enumerate(seeded_dimer_params(rng, 240)):
        lam = -1e-10 * rng.uniform(0.0, 0.999, size=2) * (1.0, i % 2)  # one or two negative
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rho = (u * np.array([*lam, 1.0 - lam.sum()])) @ u.conj().T
        s = OneExcitationState(rho=0.5 * (rho + rho.conj().T), basis="exciton")
        negative = -np.linalg.eigvalsh(s.rho).clip(max=0.0).sum()
        times = np.linspace(0.0, 10.0 ** rng.uniform(1.0, 9.0), 201)
        assert np.linalg.eigvalsh(analytic_trajectory(s, times, p))[:, 0].min() >= -negative - 1e-15


@pytest.mark.parametrize("basis", ["exciton", "site"])
@pytest.mark.parametrize("preset", ["exciton1", "site2"])
def test_evolve_checks_one_trajectory_stack(basis, preset, tmp_path, monkeypatch):
    states, blocks = [], []
    check = dynamics._check_states

    def counted(into):
        def checked(rhos):
            into.append(rhos.copy())
            check(rhos)
        return checked

    monkeypatch.setattr(dynamics, "_check_states", counted(states))
    monkeypatch.setattr(cli, "_check_states", counted(blocks))
    n = 2 * dynamics._BLOCK + 45
    argv = ["evolve", "--basis", basis, "--preset", preset, "--time-points", str(n), "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    # the initial state once per construction: the preset, then its exciton form
    assert [len(rhos) for rhos in states] == ([1] if preset.startswith("exciton") else [1, 1])
    # then the numeric states, each once and in grid order, one block of at most _BLOCK at a time
    assert [len(block) for block in blocks] == [dynamics._BLOCK, dynamics._BLOCK, 45]
    cfg = build_config(build_parser().parse_args(argv))
    p = EvolutionParams.for_dimer(cfg.dimer, cfg.bath)
    times = np.linspace(0.0, cfg.t_max, n)
    assert np.array_equal(np.concatenate(blocks), numeric_trajectory(initial_state(cfg, p.phi0), times, cfg.dt, p))


def test_site_map_rejects_angle_outside_half_turn():
    with pytest.raises(ValueError, match="phi0"):
        to_site_basis(dyadic_state(), 2.0)
    with pytest.raises(ValueError, match="phi0"):
        from_site_basis(OneExcitationState.pure(1, basis="site"), -2.0)


def test_equilibrium_site_coherence():
    eq = equilibrium(FMO_NBAR0)
    site = to_site_basis(eq, FMO_PHI0)
    assert site.rho12.real == pytest.approx(EQ_SITE_COHERENCE, rel=1e-12)
    assert site.rho12.imag == 0.0
    # general angle and occupation
    eq2 = equilibrium(0.8)
    site2 = to_site_basis(eq2, -1.1)
    assert site2.rho12.real == pytest.approx(
        math.sin(-1.1) / (2.0 * (1.0 + 2.0 * 0.8)), rel=1e-12
    )


def test_site_population_oscillates_at_splitting_frequency():
    # an excitation placed on one site beats between the sites with
    # period 2 pi / omega0; locate successive maxima of the population
    start = from_site_basis(OneExcitationState.pure(1, basis="site"), FMO_PHI0)
    ts = np.arange(0.0, 320.0001, 0.1)
    pops = trajectory_to_site(analytic_trajectory(start, ts, FMO_PARAMS), FMO_PHI0)[:, 1, 1].real
    interior = (pops[1:-1] > pops[:-2]) & (pops[1:-1] >= pops[2:])
    peaks = ts[1:-1][interior]
    assert len(peaks) >= 2
    period = 2.0 * math.pi / wavenumber_to_angular(FMO_OMEGA0)
    assert np.all(np.abs(np.diff(peaks) - period) <= 0.01 * period)


# --------------------------------------------------------------- generator

def test_generator_is_trace_free_exactly():
    act = lindblad_generator(FMO_PARAMS)
    rng = np.random.default_rng(41)
    for _ in range(100):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a + a.conj().T
        assert act(rho).trace() == 0.0


def test_generator_preserves_hermiticity():
    act = lindblad_generator(FMO_PARAMS)
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a + a.conj().T
        out = act(rho)
        assert supnorm(out, out.conj().T) <= 1e-14


def test_generator_freezes_populations_without_dissipation():
    p = EvolutionParams(
        gamma=0.0, nbar0=0.0, omega_plus=FMO_OMEGA_PLUS, omega_minus=FMO_OMEGA_MINUS
    )
    act = lindblad_generator(p)
    rng = np.random.default_rng(47)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a + a.conj().T
    assert np.all(act(rho).diagonal() == 0.0)


def test_generator_matrix_equals_probe_of_generator():
    rng = np.random.default_rng(53)
    cases = [FMO_PARAMS] + [
        EvolutionParams(
            gamma=10.0 ** rng.uniform(-6.0, 1.0),
            nbar0=10.0 ** rng.uniform(-4.0, 2.0),
            omega_plus=rng.normal(scale=300.0),
            omega_minus=rng.normal(scale=300.0),
        )
        for _ in range(20)
    ]
    for p in cases:
        act = lindblad_generator(p)
        probe = np.zeros((9, 9), dtype=complex)
        for k in range(9):
            unit = np.zeros(9, dtype=complex)
            unit[k] = 1.0
            probe[:, k] = act(unit.reshape(3, 3)).reshape(9)
        assert np.array_equal(oracle.generator_matrix(p), probe)


def generator_probe(p):
    """lindblad_generator(p) as a 9x9 matrix on the row-major flattened rho."""
    act = lindblad_generator(p)
    return np.column_stack([act(unit.reshape(3, 3)).reshape(9) for unit in np.eye(9, dtype=complex)])


def oracle_dimers():
    """Seeded dimers for the oracle checks: both signs of j12, every third undamped, and negative dressed gaps."""
    rng = np.random.default_rng(73)
    dimers = [(FMO, BATH300)] + seeded_dimers(rng, 40) + negative_gap_dimers(rng, 12)
    assert {d.j12 > 0 for d, _ in dimers} == {True, False}
    assert sum(exciton_frame(d).omega1p < exciton_frame(d).omega2p for d, _ in dimers) >= 12
    assert sum(b.gamma_d == 0.0 for _, b in dimers) >= 10
    return dimers


@pytest.mark.filterwarnings("ignore:renormalized gap:UserWarning")
def test_dimer_generator_equals_probe_of_generator():
    # the generator from the Bohr components of V against the one EvolutionParams.for_dimer
    # feeds the solvers: the same zeros exactly, every other entry to 1e-10 relative (eigh's
    # eigenvectors carry round-off of order eps |H| / omega0; worst seen 1.4e-12 over 300 draws)
    for dimer, bath in oracle_dimers():
        probe = generator_probe(EvolutionParams.for_dimer(dimer, bath))
        m = oracle.dimer_generator(dimer, bath)
        zero = probe == 0.0
        assert np.all(m[zero] == 0.0)
        assert np.all(np.abs(m[~zero] - probe[~zero]) <= 1e-10 * np.abs(probe[~zero]))


@pytest.mark.filterwarnings("ignore:renormalized gap:UserWarning")
def test_eigenvalues_diagonalize_the_dimer_generator():
    # numeric_trajectory powers four scalars: the eigenvalues of the dimer-built generator on
    # rho01, rho02, rho12 (their conjugates on the lower triangle) and -G on the populations, whose
    # block is -G times the projector Q = [[dn, -up], [-dn, up]] / G
    for dimer, bath in oracle_dimers():
        m = oracle.dimer_generator(dimer, bath)
        lam01, lam02, lam12, lam_pop, dn, up = _eigenvalues(EvolutionParams.for_dimer(dimer, bath))
        tol = 1e-10 * np.abs(m).max()
        for k, lam in ((1, lam01), (2, lam02), (5, lam12), (3, lam01.conjugate()), (6, lam02.conjugate()),
                       (7, lam12.conjugate())):
            unit = np.eye(9)[k]
            assert supnorm(m @ unit, lam * unit) <= tol, k
        assert np.all(m[0] == 0.0) and np.all(m[:, 0] == 0.0)
        pops = np.ix_((4, 8), (4, 8))
        decaying, steady = np.array([1.0, -1.0]), np.array([up, dn])
        assert supnorm(m[pops] @ decaying, lam_pop * decaying) <= tol
        assert supnorm(m[pops] @ steady, 0.0) <= tol
        g = -lam_pop
        if g:
            q = np.array([[dn, -up], [-dn, up]]) / g
            assert supnorm(q @ q, q) <= 1e-15
            assert supnorm(m[pops], lam_pop * q) <= tol
        else:
            assert np.all(m[pops] == 0.0)


# --------------------------------------------------------------- propagator

def test_powered_increment_matches_step_loop():
    y0 = coherent_state().rho.reshape(9)
    incr = oracle.rk4_increment(0.01 * oracle.generator_matrix(FMO_PARAMS))
    lams = _eigenvalues(FMO_PARAMS)[:4]
    for n in list(range(1, 34)) + [1000]:
        y = y0.copy()
        for _ in range(n):
            y = y + incr @ y
        assert supnorm(y0 + oracle.powered_increment(incr, n) @ y0, y) <= 1e-14, n
        # the scalar factors of numeric_trajectory against n explicit RK4 steps on each eigenvalue
        for lam in lams:
            z, c = 0.01 * lam, 1.0
            for _ in range(n):
                c += c * (z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0)
            assert abs(_powered_factor(lam, 0.01, n) - (c - 1.0)) <= 1e-14, n


def test_numeric_trajectory_equals_chained_evolve():
    # nine distinct intervals, all of the same step count
    times = np.linspace(0.0, 1234.5, 201)
    traj = numeric_trajectory(coherent_state(), times, 0.01, FMO_PARAMS)
    assert len(traj) == len(times)
    chained = [coherent_state()]
    for t_prev, t_next in zip(times[:-1], times[1:]):
        chained.append(numeric_evolve(chained[-1], float(t_next - t_prev), 0.01, FMO_PARAMS))
    for a, b in zip(traj, chained):
        assert np.array_equal(a, b.rho)


def seeded_dimers(rng, count):
    """``count`` seeded (DimerParams, BathSpec) pairs: both signs of j12, 1 to 1000 K, every third at gamma_d = 0."""
    out = []
    for i in range(count):
        dimer = DimerParams(
            omega1=rng.uniform(0.0, 200.0),
            omega2=rng.uniform(-200.0, 0.0),
            j12=rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 150.0),
            lambda1=rng.uniform(0.0, 60.0),
            eta_abs=rng.uniform(0.0, 1.5),
            theta=rng.uniform(-math.pi, math.pi),
        )
        bath = BathSpec(temperature=10.0 ** rng.uniform(0.0, 3.0), gamma_d=0.0 if i % 3 == 0 else rng.uniform(0.001, 0.1))
        out.append((dimer, bath))
    return out


def seeded_dimer_params(rng, count):
    """EvolutionParams of :func:`seeded_dimers`."""
    return [EvolutionParams.for_dimer(dimer, bath) for dimer, bath in seeded_dimers(rng, count)]


def negative_gap_dimers(rng, count):
    """``count`` seeded (DimerParams, BathSpec) pairs whose dressed gap is negative: a bare gap
    under 20 cm^-1 and 2 lambda1 |eta| (2 cos(theta) + |eta|) below -21 cm^-1."""
    out = []
    for i in range(count):
        dimer = DimerParams(
            omega1=rng.uniform(0.0, 10.0),
            omega2=rng.uniform(-10.0, 0.0),
            j12=(-1.0) ** i * rng.uniform(1.0, 150.0),
            lambda1=rng.uniform(30.0, 60.0),
            eta_abs=rng.uniform(0.5, 1.0),
            theta=rng.choice((-1.0, 1.0)) * rng.uniform(2.6, math.pi),
        )
        out.append((dimer, BathSpec(temperature=10.0 ** rng.uniform(0.0, 3.0), gamma_d=rng.uniform(0.001, 0.1))))
    return out


def resolving_step(p):
    """A step one tenth of the largest dt that numeric_trajectory accepts for p."""
    fastest = max(
        p.gamma * (1.0 + 2.0 * p.nbar0),
        abs(wavenumber_to_angular(p.omega_plus)),
        abs(wavenumber_to_angular(p.omega_minus)),
    )
    return 0.01 / fastest


def hermitian_state(rng):
    """Random full-rank exciton-basis state whose lower triangle is exactly the conjugate of its upper."""
    rho = random_state(rng).rho
    upper = np.triu(rho, 1)
    rho = upper + upper.conj().T + np.diag(rho.diagonal().real)
    return OneExcitationState(rho=rho, basis="exciton")


def test_powered_increment_keeps_the_one_excitation_structure():
    # numeric_trajectory reads only E[1,1], E[2,2], E[5,5], E[4,4] and E[4,8]
    rng = np.random.default_rng(59)
    kept = np.eye(9, dtype=bool)
    kept[4, 8] = kept[8, 4] = True
    for p in [FMO_PARAMS] + seeded_dimer_params(rng, 12):
        m = oracle.generator_matrix(p)
        h = resolving_step(p) * rng.uniform(1.0, 10.0)
        for n in (1, 2, 67, 1000, 200000, 50000000000):
            e = oracle.powered_increment(oracle.rk4_increment(h * m), n)
            assert np.isfinite(e).all()
            assert np.all(e[~kept] == 0.0), n
            assert np.all(e[0] == 0.0), n
            assert np.array_equal(e[8], -e[4]), n
            for upper, lower in ((1, 3), (2, 6), (5, 7)):
                assert e[lower, lower] == e[upper, upper].conjugate(), n


def reference_trajectory(state, times, dt, p):
    """numeric_trajectory as a 9x9 mat-vec per interval, y = y + E y, on the oracle's powered increments."""
    m = oracle.generator_matrix(p)
    powered = {}
    ys = [state.rho.reshape(9)]
    for t in np.diff(np.asarray(times, dtype=float)).tolist():
        y = ys[-1]
        if t > 0.0:
            n = max(1, math.ceil(t / dt - 1e-9))
            key = (n, t / n)
            if key not in powered:
                powered[key] = oracle.powered_increment(oracle.rk4_increment(key[1] * m), n)
            y = y + powered[key] @ y
        ys.append(y)
    return np.array(ys).reshape(len(ys), 3, 3)


def test_numeric_trajectory_equals_the_matrix_vector_loop():
    # numeric_trajectory powers four scalars where the reference powers the 9x9 increment; the two
    # round apart (numpy's matmul may fuse multiply-adds, Python's complex product does not), and
    # states of trace one carry that as a few ulps of 1: worst seen 4.4e-16 here and over 300
    # further seeded dimers to 1e9 fs, so the bound is 4 eps, twice that
    rng = np.random.default_rng(61)
    presets = [OneExcitationState.pure(int(name[-1]), name[:-1]) for name in ("exciton1", "exciton2", "site1", "site2")]
    params = [FMO_PARAMS] + seeded_dimer_params(rng, 5)
    for i, p in enumerate(params):
        dt = resolving_step(p) if i else 0.01  # the CLI's default step for the FMO dimer
        pure = [from_site_basis(s, p.phi0) if s.basis == "site" else s for s in presets]
        grids = [
            np.linspace(0.0, 1000.0, 3001 if i == 0 else 1001),
            np.linspace(0.0, rng.uniform(1.0, 1e5), int(rng.integers(2, 400))),
            np.sort(rng.uniform(0.0, 300.0, 50)),  # non-uniform spacing
            np.repeat(np.linspace(5.0, 80.0, 20), rng.integers(1, 4, 20)),  # repeated times
            np.array([0.0, 7.5]),
        ]
        for s in pure + [hermitian_state(rng), hermitian_state(rng)]:
            for ts in grids:
                assert supnorm(numeric_trajectory(s, ts, dt, p), reference_trajectory(s, ts, dt, p)) <= 4.0 * EPS


@pytest.mark.parametrize("t_max", [2e4, 1e9])
def test_long_horizons_keep_trace_and_closed_forms(t_max, tmp_path):
    start = time.perf_counter()
    code = main(["evolve", "--t-max", str(t_max), "--output-dir", str(tmp_path)])
    assert code == 0
    assert time.perf_counter() - start < 5.0
    with open(tmp_path / "trajectory_numeric.csv", encoding="utf-8") as fh:
        supnorms = [float(line.rsplit(",", 1)[1]) for line in fh.readlines()[1:]]
    assert max(supnorms) <= 1e-8

    s = coherent_state()
    times = np.linspace(0.0, t_max, 201)
    for t, out in zip(times, numeric_trajectory(s, times, 0.01, FMO_PARAMS)):
        assert abs(out.trace() - 1.0) <= 1e-12
        assert supnorm(out, analytic_evolve(s, float(t), FMO_PARAMS).rho) <= 1e-8


def test_printed_supnorm_is_the_predicted_rk4_error(tmp_path, capsys):
    # the numeric factors are R(h lam)^n, so the printed error of each row is oracle.rk4_error's,
    # turned to the output basis, up to round-off: the closed forms and the powering each round the
    # phase lam t to a few eps |lam| t; worst seen 4.25 eps (1 + |lam| t) over 96 seeded runs
    rng = np.random.default_rng(83)
    dominated = 0
    for i in range(16):
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rho = (u * (rng.dirichlet((1.0, 1.0, 1.0)) * 0.85 + 0.05)) @ u.conj().T  # eigenvalues >= 0.05
        rho = 0.5 * (rho + rho.conj().T)
        state_file = tmp_path / f"state{i}.json"
        basis_in = ("exciton", "site")[i % 3 == 1]
        state_file.write_text(json.dumps({"basis": basis_in, "rho": [[[c.real, c.imag] for c in row] for row in rho.tolist()]}))
        t_max = 1e14 if i % 4 == 0 else float(10.0 ** rng.uniform(2.0, 14.0))
        argv = ["evolve", "--basis", ("exciton", "site")[i % 2], "--preset", "custom", "--state-file", str(state_file),
                "--t-max", repr(t_max), "--gamma-d", "0" if i % 3 == 0 else repr(float(10.0 ** rng.uniform(-4.0, -1.0))),
                "--j12", repr(float(rng.choice((-1.0, 1.0)) * rng.uniform(20.0, 150.0))),
                "--temperature", repr(float(10.0 ** rng.uniform(0.5, 3.0))),
                "--time-points", str(int(rng.integers(11, 61))), "--output-dir", str(tmp_path)]
        cfg = build_config(build_parser().parse_args(argv))
        p = EvolutionParams.for_dimer(cfg.dimer, cfg.bath)
        *lams, dn, up = _eigenvalues(p)
        fastest = max(abs(lam) for lam in lams)
        # a step whose truncation error at t_max is about 1e-10 to 1e-3, within the step rule
        target = 10.0 ** rng.uniform(-10.0, -3.0)
        dt = min((120.0 * target / (t_max * fastest**5)) ** 0.25, 0.09 / fastest)
        assert main(argv + ["--dt", repr(dt)]) == 0
        times = np.linspace(0.0, t_max, cfg.time_points)
        error = oracle.rk4_error(initial_state(cfg, p.phi0).rho, times, dt, lams, dn, up)
        if cfg.basis == "site":
            t = dynamics._site_map(p.phi0)
            error = t @ error @ t.T
        predicted = np.abs(error).reshape(len(times), 9).max(axis=1)
        with open(tmp_path / "trajectory_numeric.csv", encoding="utf-8") as fh:
            printed = np.array([float(line.rsplit(",", 1)[1]) for line in fh.readlines()[1:]])
        round_off = EPS * (1.0 + fastest * times)
        assert np.all(np.abs(printed - predicted) <= 0.01 * predicted + 8.0 * round_off), i
        assert capsys.readouterr().out == f"max |analytic - numeric| over the grid: {printed.max():.3e}\n"
        dominated += predicted.max() > 100.0 * round_off[-1]
    assert dominated >= 4  # runs where the prediction, not round-off, sets the printed error


@pytest.mark.parametrize("n_points", [2 * dynamics._BLOCK + 1, 3 * dynamics._BLOCK - 17])
@pytest.mark.parametrize("basis", ["exciton", "site"])
@pytest.mark.parametrize("preset", ["site1", "site2", "exciton1", "exciton2", "custom"])
def test_streamed_evolve_writes_the_bytes_of_the_whole_stacks(preset, basis, n_points, tmp_path, capsys):
    # the blocks join without a seam: the CSVs and stdout are those of write_trajectory_csv over
    # the whole-stack functions, across block edges and a last block shorter than the rest
    state = tmp_path / "state.json"
    rho = random_state(np.random.default_rng(n_points)).rho.tolist()
    state.write_text(json.dumps({"basis": "site", "rho": [[[z.real, z.imag] for z in row] for row in rho]}), encoding="utf-8")
    argv = ["evolve", "--preset", preset, "--basis", basis, "--time-points", str(n_points), "--t-max", "5000",
            "--state-file", str(state), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    streamed = capsys.readouterr().out

    cfg = build_config(build_parser().parse_args(argv))
    p = EvolutionParams.for_dimer(cfg.dimer, cfg.bath)
    start, times = initial_state(cfg, p.phi0), np.linspace(0.0, cfg.t_max, n_points)
    analytic, numeric = analytic_trajectory(start, times, p), numeric_trajectory(start, times, cfg.dt, p)
    if basis == "site":
        analytic, numeric = trajectory_to_site(analytic, p.phi0), trajectory_to_site(numeric, p.phi0)
    fa, fn = io.StringIO(), io.StringIO()
    write_trajectory_csv(fa, times, analytic)
    supnorm = write_trajectory_csv(fn, times, numeric, reference=analytic)
    assert streamed == f"max |analytic - numeric| over the grid: {supnorm:.3e}\n"
    assert (tmp_path / "out" / "trajectory_analytic.csv").read_text(encoding="utf-8") == fa.getvalue()
    assert (tmp_path / "out" / "trajectory_numeric.csv").read_text(encoding="utf-8") == fn.getvalue()
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["trajectory_analytic.csv", "trajectory_numeric.csv"]


def test_evolve_builds_no_state_per_grid_point(tmp_path, monkeypatch):
    built = []
    post_init = OneExcitationState.__post_init__

    def counted(self):
        built.append(self.basis)
        post_init(self)

    monkeypatch.setattr(OneExcitationState, "__post_init__", counted)
    argv = ["evolve", "--basis", "site", "--time-points", "3001", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(built) < 10


@pytest.mark.parametrize("basis", ["exciton", "site"])
def test_evolve_memory_is_one_block_and_the_time_grid(basis, tmp_path, capsys):
    # tracemalloc counts numpy's buffers too; a first run keeps imports and caches out of the peak
    argv = ["evolve", "--preset", "exciton2", "--basis", basis, "--output-dir", str(tmp_path)]
    assert main(argv + ["--time-points", "11"]) == 0
    peaks = {}
    for n in (20001, 100001):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(argv + ["--time-points", str(n)]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # two whole (T, 3, 3) complex stacks alone are 288 B per point; holding them, the
        # peak read 449 B per point in the exciton basis and 728 B in the site basis
        assert peaks[n] / n < 32.0, n
    # from one size to the next the peak grows by the held time grid, 8 B per point, alone
    assert peaks[100001] - peaks[20001] < 9 * 80000


def test_numeric_trajectory_is_its_two_halves_chained():
    # the recurrence carries its five numbers from block to block exactly
    rng = np.random.default_rng(31)
    n = 2 * dynamics._BLOCK + 1
    times = np.concatenate([[0.0, 0.0], np.sort(rng.uniform(0.0, 2000.0, n - 2))])
    whole = numeric_trajectory(coherent_state(), times, 0.01, FMO_PARAMS)
    half = n // 2
    first = numeric_trajectory(coherent_state(), times[:half + 1], 0.01, FMO_PARAMS)
    second = numeric_trajectory(OneExcitationState(rho=first[-1], basis="exciton"), times[half:], 0.01, FMO_PARAMS)
    assert np.array_equal(whole, np.concatenate([first, second[1:]]))


def test_numeric_trajectory_checks_its_blocks_in_order(monkeypatch):
    # undamped, the coherent state's RK4 phase errors pass -1e-10 from state 1221 on, past the first blocks
    p = EvolutionParams(gamma=0.0, nbar0=0.0, omega_plus=FMO_OMEGA_PLUS, omega_minus=FMO_OMEGA_MINUS)
    state, times = coherent_state(), np.linspace(0.0, 1e8, 2049)
    first_bad = 1221 // dynamics._BLOCK
    assert first_bad >= 1
    with pytest.raises(ValueError, match="positive semidefinite") as blocked:
        numeric_trajectory(state, times, 0.01, p)
    # a stream refuses the first bad block, so a bad state comes before an overflow in a later block
    with pytest.raises(ValueError, match="positive semidefinite"):
        numeric_trajectory(state, [*times, 1e24], 0.01, p)
    seen = []
    monkeypatch.setattr(dynamics, "_check_states", lambda rhos: seen.append(rhos.copy()))
    stack = numeric_trajectory(state, times, 0.01, p)
    assert [len(block) for block in seen] == [min(dynamics._BLOCK, len(times) - lo) for lo in range(0, len(times), dynamics._BLOCK)]
    assert np.array_equal(np.concatenate(seen), stack)
    # the first bad state names the refusal, as a check of the whole stack would
    assert str(blocked.value) == verdict(_check_states, stack) == verdict(_check_states, seen[first_bad])
    assert [verdict(_check_states, block) for block in seen[:first_bad]] == [None] * first_bad


def test_numeric_evolve_validation():
    s = coherent_state()
    with pytest.raises(ValueError, match="exciton"):
        numeric_evolve(OneExcitationState.pure(1, basis="site"), 1.0, 0.01, FMO_PARAMS)
    with pytest.raises(ValueError, match="t must be"):
        numeric_evolve(s, -1.0, 0.01, FMO_PARAMS)
    with pytest.raises(ValueError, match="dt must be"):
        numeric_evolve(s, 1.0, 0.0, FMO_PARAMS)
    with pytest.raises(ValueError, match="t must be"):
        numeric_trajectory(s, [0.0, 2.0, 1.0], 0.01, FMO_PARAMS)
    with pytest.raises(ValueError, match="t must be"):
        numeric_trajectory(s, [0.0, math.inf], 0.01, FMO_PARAMS)
    with pytest.raises(ValueError, match="t/dt must be finite"):
        numeric_trajectory(s, [0.0, 1e307], 0.01, FMO_PARAMS)
    assert np.array_equal(numeric_trajectory(s, [5.0], 0.01, FMO_PARAMS), [s.rho])
    # the state belongs to times[0], so an empty grid has no place for it
    with pytest.raises(ValueError, match="times must not be empty"):
        numeric_trajectory(s, [], 0.01, FMO_PARAMS)


def test_numeric_evolve_rejects_coarse_step():
    # fastest scale here is the lower exciton frequency, about 0.056 rad/fs
    with pytest.raises(StepSizeError, match="under-resolved"):
        numeric_evolve(coherent_state(), 10.0, 2.0, FMO_PARAMS)


def test_numeric_evolve_time_zero():
    s = dyadic_state()
    out = numeric_evolve(s, 0.0, 0.01, FMO_PARAMS)
    assert np.array_equal(out.rho, s.rho)


def test_numeric_evolve_keeps_populations_exact_without_dissipation():
    p = EvolutionParams(
        gamma=0.0, nbar0=0.0, omega_plus=FMO_OMEGA_PLUS, omega_minus=FMO_OMEGA_MINUS
    )
    s = dyadic_state()
    out = numeric_evolve(s, 5.0, 0.05, p)
    assert out.rho00 == s.rho00
    assert out.rho11 == s.rho11
    assert out.rho22 == s.rho22


def test_numeric_evolve_fourth_order_convergence():
    s = coherent_state()
    exact = analytic_evolve(s, 20.0, FMO_PARAMS).rho
    err_coarse = supnorm(numeric_evolve(s, 20.0, 0.8, FMO_PARAMS).rho, exact)
    err_fine = supnorm(numeric_evolve(s, 20.0, 0.4, FMO_PARAMS).rho, exact)
    assert err_coarse > 1e-10  # well above round-off, so the ratio is meaningful
    ratio = err_coarse / err_fine
    assert 13.0 <= ratio <= 19.0  # halving the step divides the error by ~2^4


def test_numeric_evolve_tracks_closed_forms():
    s = coherent_state()
    out = numeric_evolve(s, 100.0, 0.01, FMO_PARAMS)
    ref = analytic_evolve(s, 100.0, FMO_PARAMS)
    assert supnorm(out.rho, ref.rho) <= 1e-8


# --------------------------------------------------------------- trajectory CSV

def test_trajectory_csv_golden():
    fh = io.StringIO()
    states = [OneExcitationState.pure(1), equilibrium(0.5)]
    write_trajectory_csv(fh, [0.0, 1.5], np.array([st.rho for st in states]))
    assert fh.getvalue() == (
        "t_fs,rho00,rho11,rho22,re_rho01,im_rho01,re_rho02,im_rho02,"
        "re_rho12,im_rho12\n"
        "0,0,1,0,0,0,0,0,0,0\n"
        "1.5,0,0.25,0.75,0,0,0,0,0,0\n"
    )


def test_trajectory_csv_header_constant():
    assert TRAJECTORY_CSV_HEADER[0] == "t_fs"
    assert len(TRAJECTORY_CSV_HEADER) == 10


def test_trajectory_csv_formatting():
    fh = io.StringIO()
    rho = OneExcitationState.pure(0).rho.copy()
    rho[0, 1] = complex(-0.0, -0.0)
    supnorm = write_trajectory_csv(fh, [0.1234567891234], rho[None], reference=OneExcitationState.pure(0).rho[None])
    lines = fh.getvalue().split("\n")
    assert lines[0] == ",".join(TRAJECTORY_CSV_HEADER) + ",supnorm_vs_analytic"
    # nine significant digits, negative zero folded to plain zero
    assert lines[1] == "0.123456789,1,0,0,0,0,0,0,0,0,0"
    assert supnorm == 0.0


def test_trajectory_csv_in_blocks_formats_every_cell():
    # re_rho12 and the sup-norm are constant inside the middle block only; -0 and non-finite
    # cells fold and print as _fmt does, and a nan in the sup-norm column is its maximum
    n = 2 * dynamics._BLOCK + 1
    times = np.linspace(0.0, 2000.0, n)
    rhos = analytic_trajectory(coherent_state(), times, FMO_PARAMS)
    rhos[dynamics._BLOCK:2 * dynamics._BLOCK, 1, 2] = complex(0.125, 0.5)
    rhos[5, 0, 1] = complex(-0.0, -0.0)
    reference = rhos.copy()
    reference[:, 0, 0] += np.linspace(-1.0, 1.0, n)
    reference[dynamics._BLOCK:2 * dynamics._BLOCK, 0, 0] = rhos[dynamics._BLOCK, 0, 0] + 0.25
    reference[7, 1, 1], reference[n - 1, 2, 2] = math.nan, -math.inf
    fh = io.StringIO()
    worst = write_trajectory_csv(fh, times, rhos, reference=reference)
    cells = [
        [t, *rho.diagonal().real, *(part for c in rho[(0, 0, 1), (1, 2, 2)] for part in (c.real, c.imag)),
         np.abs(rho - ref).max()]
        for t, rho, ref in zip(times.tolist(), rhos, reference)
    ]
    assert math.isnan(cells[7][-1]) and cells[n - 1][-1] == math.inf
    assert len({row[-1] for row in cells[dynamics._BLOCK:2 * dynamics._BLOCK]}) == 1
    header = ",".join([*TRAJECTORY_CSV_HEADER, "supnorm_vs_analytic"]) + "\n"
    assert fh.getvalue() == header + "".join(",".join(map(_fmt, row)) + "\n" for row in cells)
    assert math.isnan(worst)


def test_trajectory_csv_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        write_trajectory_csv(io.StringIO(), [0.0, 1.0], np.array([OneExcitationState.pure(0).rho]))


def test_trajectory_csv_refuses_a_reference_of_another_shape_before_writing():
    rhos = np.array([OneExcitationState.pure(k).rho for k in range(3)])
    fh = io.StringIO()
    with pytest.raises(ValueError, match="times and states must have equal length"):
        write_trajectory_csv(fh, [0.0, 1.0, 2.0], rhos, reference=np.zeros((3, 2, 2)))
    assert fh.getvalue() == ""


def test_trajectory_csv_refuses_a_reference_of_another_length_before_writing():
    times = np.linspace(0.0, 10.0, 2000)
    rhos = np.broadcast_to(OneExcitationState.pure(1).rho, (2000, 3, 3))
    fh = io.StringIO()
    with pytest.raises(ValueError, match="times and states must have equal length"):
        write_trajectory_csv(fh, times, rhos, reference=rhos[:1500])
    assert fh.getvalue() == ""
