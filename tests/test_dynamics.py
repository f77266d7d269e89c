"""One-excitation reduced dynamics: state type, closed forms, propagator."""

import io
import math
import random
import time

import numpy as np
import pytest

from dimerdecay.cli import main
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
from dimerdecay.dynamics import _check_states, _generator_matrix, _powered_increment, _rk4_increment
from dimerdecay.excitons import DimerParams, exciton_frame
from dimerdecay.rates import BathSpec, rate_set
from dimerdecay.units import wavenumber_to_angular

# frozen from 40-digit evaluations of the transform chain
FMO_PHI0 = 0.6459710864886066
FMO_OMEGA_PLUS = 22.131786462354411
FMO_OMEGA_MINUS = -296.81878646235441
FMO_OMEGA0 = 318.95057292470882
FMO_NBAR0 = 0.27650142946590151
FMO_GAMMA = 0.00091336083688468896  # alpha * gamma_d at gamma_d = 0.02
EQ_SITE_COHERENCE = 0.19380973655293942  # sin(phi0) / (2 (1 + 2 nbar0))

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
    _generator_matrix is checked against.
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
    times = np.linspace(0.0, 2000.0, 401)
    for phi0 in (FMO_PHI0, -1.1, 0.0):
        traj = analytic_trajectory(random_state(rng), times, FMO_PARAMS)
        site = trajectory_to_site(traj, phi0)
        for rho, rotated in zip(traj, site):
            state = OneExcitationState(rho=rho, basis="exciton")
            assert np.array_equal(rotated, to_site_basis(state, phi0).rho)


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
        assert np.array_equal(_generator_matrix(p), probe)


# --------------------------------------------------------------- propagator

def test_powered_increment_matches_step_loop():
    y0 = coherent_state().rho.reshape(9)
    incr = _rk4_increment(0.01 * _generator_matrix(FMO_PARAMS))
    for n in list(range(1, 34)) + [1000]:
        y = y0.copy()
        for _ in range(n):
            y = y + incr @ y
        assert supnorm(y0 + _powered_increment(incr, n) @ y0, y) <= 1e-14, n


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


def seeded_dimer_params(rng, count):
    """EvolutionParams of ``count`` seeded dimers: both signs of j12, every third at gamma_d = 0."""
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
        bath = BathSpec(temperature=rng.uniform(1.0, 400.0), gamma_d=0.0 if i % 3 == 0 else rng.uniform(0.001, 0.1))
        out.append(EvolutionParams.for_dimer(dimer, bath))
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
        m = _generator_matrix(p)
        h = resolving_step(p) * rng.uniform(1.0, 10.0)
        for n in (1, 2, 67, 1000, 200000, 50000000000):
            e = _powered_increment(_rk4_increment(h * m), n)
            assert np.isfinite(e).all()
            assert np.all(e[~kept] == 0.0), n
            assert np.all(e[0] == 0.0), n
            assert np.array_equal(e[8], -e[4]), n
            for upper, lower in ((1, 3), (2, 6), (5, 7)):
                assert e[lower, lower] == e[upper, upper].conjugate(), n


def reference_trajectory(state, times, dt, p):
    """numeric_trajectory as a 9x9 mat-vec per interval, y = y + E y, from the unchanged helpers."""
    m = _generator_matrix(p)
    powered = {}
    ys = [state.rho.reshape(9)]
    for t in np.diff(np.asarray(times, dtype=float)).tolist():
        y = ys[-1]
        if t > 0.0:
            n = max(1, math.ceil(t / dt - 1e-9))
            key = (n, t / n)
            if key not in powered:
                powered[key] = _powered_increment(_rk4_increment(key[1] * m), n)
            y = y + powered[key] @ y
        ys.append(y)
    return np.array(ys).reshape(len(ys), 3, 3)


def test_numeric_trajectory_equals_the_matrix_vector_loop():
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
                assert np.array_equal(numeric_trajectory(s, ts, dt, p), reference_trajectory(s, ts, dt, p))


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
    write_trajectory_csv(
        fh,
        [0.1234567891234],
        np.array([OneExcitationState.pure(0).rho]),
        extra_header=("x",),
        extra_rows=[[-0.0]],
    )
    lines = fh.getvalue().split("\n")
    assert lines[0].endswith(",x")
    # nine significant digits, negative zero folded to plain zero
    assert lines[1] == "0.123456789,1,0,0,0,0,0,0,0,0,0"


def test_trajectory_csv_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        write_trajectory_csv(io.StringIO(), [0.0, 1.0], np.array([OneExcitationState.pure(0).rho]))
