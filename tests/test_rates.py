"""Decay constants: thermal occupation, attenuation, mode shifts, CSV input."""

import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dimerdecay.excitons import DimerParams
from dimerdecay.rates import (
    MODES_CSV_HEADER,
    BathSpec,
    ResonantModeError,
    attenuation_factor,
    bose_occupation,
    decay_constant,
    frequency_renormalization,
    helix_attenuation,
    load_modes_csv,
    rate_set,
)
from dimerdecay.units import thermal_energy

# frozen from 40-digit evaluations
BOSE_AT_KT = 0.58197670686932642  # occupation at omega0 = kT, i.e. 1/(e-1)
BOSE_226_41_AT_300K = 0.50969923590544986
FMO_ALPHA = 0.045668041844234448
HELIX_INV_ALPHA = 36.601982340749211

FMO = DimerParams(
    omega1=60.0, omega2=-60.0, j12=-96.0, lambda1=35.0, eta_abs=0.71, theta=0.0
)


# --------------------------------------------------------------- bath spec

def test_bath_spec_validation():
    with pytest.raises(ValueError, match="temperature"):
        BathSpec(temperature=0.0, gamma_d=0.02)
    with pytest.raises(ValueError, match="temperature"):
        BathSpec(temperature=-10.0, gamma_d=0.02)
    with pytest.raises(ValueError, match="gamma_d"):
        BathSpec(temperature=300.0, gamma_d=-0.01)
    with pytest.raises(ValueError, match="mode frequency"):
        BathSpec(temperature=300.0, gamma_d=0.02, modes=((0.0, 1.0),))
    with pytest.raises(ValueError, match="squared coupling"):
        BathSpec(temperature=300.0, gamma_d=0.02, modes=((100.0, -1.0),))


# the rule 0 < omega_k < inf, 0 <= V2_k < inf, which BathSpec and frequency_renormalization share
BAD_MODES = [
    ((0.0, 1.0), "mode frequency"),
    ((math.inf, 1.0), "mode frequency"),
    ((math.nan, 1.0), "mode frequency"),
    ((100.0, -1.0), "squared coupling"),
    ((100.0, math.inf), "squared coupling"),
    ((100.0, math.nan), "squared coupling"),
]


@pytest.mark.parametrize("mode, text", BAD_MODES)
def test_modes_outside_the_rule_are_refused(mode, text):
    with pytest.raises(ValueError, match=f"{text} must be finite"):
        BathSpec(temperature=300.0, gamma_d=0.02, modes=(mode,))
    with pytest.raises(ValueError, match=f"{text} must be finite"):
        frequency_renormalization(((50.0, 1.0), mode), 100.0, 300.0)


def test_bath_spec_normalizes_modes():
    bath = BathSpec(temperature=300.0, gamma_d=0.02, modes=((100, 2), (200, 3)))
    assert bath.modes == ((100.0, 2.0), (200.0, 3.0))
    assert all(isinstance(v, float) for pair in bath.modes for v in pair)


# --------------------------------------------------------------- occupation

def test_bose_occupation_zero_temperature():
    assert bose_occupation(226.41, 0.0) == 0.0


def test_bose_occupation_at_kt():
    assert bose_occupation(thermal_energy(300.0), 300.0) == pytest.approx(
        BOSE_AT_KT, rel=1e-12
    )
    # the five-digit quoted value at omega0 = 208.51
    assert bose_occupation(208.51, 300.0) == pytest.approx(0.58198, abs=5e-6)


def test_bose_occupation_bare_splitting():
    assert bose_occupation(226.41, 300.0) == pytest.approx(
        BOSE_226_41_AT_300K, rel=1e-12
    )


def test_bose_occupation_domain():
    with pytest.raises(ValueError, match="omega0"):
        bose_occupation(0.0, 300.0)
    with pytest.raises(ValueError, match="omega0"):
        bose_occupation(-10.0, 300.0)
    with pytest.raises(ValueError, match="temperature"):
        bose_occupation(100.0, -1.0)


def test_bose_occupation_refuses_overflow():
    # about kT/omega0, beyond the float range once omega0/kT < 1/max
    assert bose_occupation(1e-300, 1e6) == pytest.approx(thermal_energy(1e6) / 1e-300, rel=1e-12)
    for omega0, temperature in ((1e-308, 1e6), (1e-308, 1e300)):
        with pytest.raises(ValueError, match="the thermal occupation overflows"):
            bose_occupation(omega0, temperature)


@given(
    st.floats(min_value=1.0, max_value=5000.0),
    st.floats(min_value=1.0, max_value=1000.0),
)
def test_bose_occupation_detailed_balance(omega0, temperature):
    n = bose_occupation(omega0, temperature)
    assert n / (n + 1.0) == pytest.approx(
        math.exp(-omega0 / thermal_energy(temperature)), rel=1e-12
    )


# --------------------------------------------------------------- attenuation

def test_attenuation_decoupling():
    p = DimerParams(60.0, -60.0, -96.0, 35.0, 0.0, 0.0)
    assert attenuation_factor(p) == 0.0
    q = DimerParams(60.0, -60.0, 0.0, 35.0, 0.71, 0.0)
    assert attenuation_factor(q) == 0.0


def test_attenuation_fmo():
    assert attenuation_factor(FMO) == pytest.approx(FMO_ALPHA, rel=1e-12)


def test_attenuation_coupling_sign_irrelevant():
    plus = DimerParams(60.0, -60.0, 96.0, 35.0, 0.71, 0.0)
    assert attenuation_factor(plus) == attenuation_factor(FMO)


@given(
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_attenuation_even_in_theta(theta, eta):
    p = DimerParams(60.0, -60.0, -96.0, 35.0, eta, theta)
    m = DimerParams(60.0, -60.0, -96.0, 35.0, eta, -theta)
    assert attenuation_factor(p) == attenuation_factor(m)


@given(st.floats(min_value=1e-3, max_value=0.5))
def test_attenuation_vanishes_with_asymmetry(eta):
    # monotone decrease toward the decoupling point
    lo = attenuation_factor(
        DimerParams(60.0, -60.0, -96.0, 35.0, 0.5 * eta, 0.0)
    )
    hi = attenuation_factor(DimerParams(60.0, -60.0, -96.0, 35.0, eta, 0.0))
    assert 0.0 < lo < hi


def _coupling_matrix_element(omega1, omega2, j12, lambda1, eta):
    # |<e+| diag(1, 1 + eta) |e->|^2, the site coupling operator between the
    # eigenvectors of the dressed site Hamiltonian, lambda2 = lambda1 |1 + eta|^2
    import numpy as np

    lambda2 = lambda1 * abs(1.0 + eta) ** 2
    h = np.array([[omega1 - 2.0 * lambda1, j12], [j12, omega2 - 2.0 * lambda2]])
    _, vectors = np.linalg.eigh(h)  # ascending: e- then e+
    e_minus, e_plus = vectors[:, 0], vectors[:, 1]
    return abs(e_plus.conj() @ np.diag([1.0, 1.0 + eta]) @ e_minus) ** 2


@pytest.mark.parametrize("seed", range(5))
def test_attenuation_is_the_coupling_matrix_element(seed):
    rng = random.Random(seed)
    negative_gaps = 0
    for _ in range(200):
        gap = rng.uniform(5.0, 160.0)
        mean = rng.uniform(-40.0, 40.0)
        j12 = rng.choice((-1.0, 1.0)) * rng.uniform(20.0, 120.0)
        lambda1 = rng.uniform(0.0, 80.0)
        eta_abs, theta = rng.uniform(0.01, 2.0), rng.uniform(-math.pi, math.pi)
        p = DimerParams(mean + 0.5 * gap, mean - 0.5 * gap, j12, lambda1, eta_abs, theta)
        eta = eta_abs * complex(math.cos(theta), math.sin(theta))
        oracle = _coupling_matrix_element(p.omega1, p.omega2, j12, lambda1, eta)
        assert attenuation_factor(p) == pytest.approx(oracle, rel=1e-12)
        negative_gaps += gap + 2.0 * lambda1 * eta_abs * (2.0 * math.cos(theta) + eta_abs) < 0.0
    assert negative_gaps > 0  # the dressed site frequencies also cross


# --------------------------------------------------------------- decay constant

def test_decay_constant_lifetime_product():
    gamma = decay_constant(1.0 / 22.0, 1.0 / 50.0)
    assert gamma == pytest.approx(1.0 / 1100.0, rel=1e-15)


def test_decay_constant_zero_attenuation():
    assert decay_constant(0.0, 0.02) == 0.0


def test_decay_constant_rejects_negative():
    with pytest.raises(ValueError):
        decay_constant(-0.1, 0.02)
    with pytest.raises(ValueError):
        decay_constant(0.1, -0.02)
    with pytest.raises(ValueError, match="the decay constant alpha [*] gamma_d overflows"):
        decay_constant(1e300, 1e10)


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_decay_constant_bilinear(alpha, gamma_d, scale):
    assert decay_constant(scale * alpha, gamma_d) == pytest.approx(
        scale * decay_constant(alpha, gamma_d), rel=1e-12, abs=1e-300
    )
    assert decay_constant(alpha, scale * gamma_d) == pytest.approx(
        scale * decay_constant(alpha, gamma_d), rel=1e-12, abs=1e-300
    )


def test_rate_set_fmo():
    bath = BathSpec(temperature=300.0, gamma_d=0.02)
    rs = rate_set(FMO, bath)
    assert rs.alpha == pytest.approx(FMO_ALPHA, rel=1e-12)
    assert rs.gamma == pytest.approx(FMO_ALPHA * 0.02, rel=1e-12)
    assert rs.lifetime == pytest.approx(1.0 / (FMO_ALPHA * 0.02), rel=1e-12)
    assert rs.inverse_alpha == pytest.approx(1.0 / FMO_ALPHA, rel=1e-12)
    assert rs.nbar0 == pytest.approx(0.27650142946590151, rel=1e-12)


def test_rate_set_decoupled():
    p = DimerParams(60.0, -60.0, -96.0, 35.0, 0.0, 0.0)
    rs = rate_set(p, BathSpec(temperature=300.0, gamma_d=0.02))
    assert rs.alpha == 0.0
    assert rs.gamma == 0.0
    assert rs.lifetime == math.inf
    assert rs.inverse_alpha == math.inf


def test_rate_set_at_subnormal_coupling():
    # 1/alpha = (D/x)^2 / j12^2 + (2/x)^2 overflows: alpha = 0, also where
    # 2 cos(theta) + |eta| < 0 and g/x, 2 l (2 cos(theta) + x) would cancel
    bath = BathSpec(temperature=300.0, gamma_d=0.02)
    for theta in (0.0, math.pi):
        rs = rate_set(DimerParams(60.0, -60.0, 1e-320, 35.0, 0.71, theta), bath)
        assert (rs.alpha, rs.inverse_alpha) == (0.0, math.inf)


@pytest.mark.parametrize("carrier", [0.0, 1e6, 1e10, 1e15])
def test_rate_set_alpha_reads_the_frame_splitting(carrier):
    # alpha = (|eta| j12 / omega0)^2 with the frame's omega0, also where a large
    # common carrier would cancel omega_plus - omega_minus
    rng = random.Random(7)
    bath = BathSpec(temperature=300.0, gamma_d=0.02)
    for _ in range(200):
        gap = rng.uniform(100.0, 300.0)
        p = DimerParams(
            carrier + 0.5 * gap, carrier - 0.5 * gap, rng.choice((-1.0, 1.0)) * rng.uniform(10.0, 150.0),
            rng.uniform(0.0, 50.0), rng.uniform(0.05, 3.0), rng.uniform(-math.pi, math.pi),
        )
        rs = rate_set(p, bath)
        assert rs.alpha == pytest.approx((p.eta_abs * p.j12 / rs.frame.omega0) ** 2, rel=2e-15, abs=0.0)


def test_attenuation_beyond_the_float_range_is_refused():
    # lambda1 = 0: 1/alpha = ((gap/j12)^2 + 4)/|eta|^2 underflows to 0 at |eta| = 1e170
    with pytest.raises(ValueError, match="alpha cannot be represented at j12 = -96, [|]eta[|] = 1e[+]170"):
        attenuation_factor(DimerParams(60.0, -60.0, -96.0, 0.0, 1e170, 0.0))
    # still a normal float at 1e150, where 1/alpha is about 5.6e-300
    assert attenuation_factor(DimerParams(60.0, -60.0, -96.0, 0.0, 1e150, 0.0)) == pytest.approx(
        1e300 / ((120.0 / 96.0) ** 2 + 4.0), rel=1e-12)


# --------------------------------------------------------------- chain lattice

def test_helix_attenuation_value():
    alpha = helix_attenuation(4.5, 4000.0, 7.8)
    assert 1.0 / alpha == pytest.approx(HELIX_INV_ALPHA, rel=1e-12)
    assert 1.0 / alpha == pytest.approx(36.6, abs=0.2)


def test_helix_attenuation_zero_coupling():
    assert helix_attenuation(4.5, 4000.0, 0.0) == 0.0


def test_helix_attenuation_quadratic_in_spacing():
    one = helix_attenuation(4.5, 4000.0, 7.8)
    two = helix_attenuation(9.0, 4000.0, 7.8)
    assert two == 4.0 * one


def test_helix_attenuation_domain():
    with pytest.raises(ValueError, match="spacing"):
        helix_attenuation(0.0, 4000.0, 7.8)
    with pytest.raises(ValueError, match="sound speed"):
        helix_attenuation(4.5, -1.0, 7.8)


# --------------------------------------------------------------- mode shifts

def test_frequency_renormalization_empty():
    assert frequency_renormalization((), 100.0, 300.0) == (0.0, 0.0)


def test_frequency_renormalization_single_mode_cold():
    # mode at 2*omega0 with V2 = omega0^2 and no thermal occupation
    delta_plus, delta_minus = frequency_renormalization(
        ((200.0, 10000.0),), 100.0, 0.0
    )
    assert delta_plus == pytest.approx(100.0, rel=1e-14)
    assert delta_minus == 0.0


def test_frequency_renormalization_antisymmetric_cancellation():
    modes = ((100.0 - 25.0, 7.5), (100.0 + 25.0, 7.5))
    delta_plus, delta_minus = frequency_renormalization(modes, 100.0, 0.0)
    assert delta_plus == 0.0
    assert delta_minus == 0.0


def test_frequency_renormalization_resonant_mode():
    with pytest.raises(ResonantModeError, match="resonance"):
        frequency_renormalization(((100.0, 1.0),), 100.0, 300.0)


def test_frequency_renormalization_domain():
    with pytest.raises(ValueError):
        frequency_renormalization(((100.0, 1.0),), 0.0, 300.0)
    with pytest.raises(ValueError):
        frequency_renormalization(((-5.0, 1.0),), 100.0, 300.0)
    with pytest.raises(ValueError):
        frequency_renormalization(((50.0, -1.0),), 100.0, 300.0)


def test_frequency_renormalization_checks_the_temperature_first():
    # kT is formed once, before the first mode: an empty mode list or a bad
    # mode meets the temperature refusal first
    for modes in ((), ((-5.0, 1.0),)):
        with pytest.raises(ValueError, match="temperature must be >= 0 K, got -1"):
            frequency_renormalization(modes, 100.0, -1.0)
        with pytest.raises(ValueError, match="temperature must be > 0 K, got nan"):
            frequency_renormalization(modes, 100.0, math.nan)


@pytest.mark.parametrize("modes", [((100.05, 1e308),), ((100.05, 1e308), (99.95, 1e308))])
def test_frequency_renormalization_refuses_an_overflowing_shift(modes):
    with pytest.raises(ValueError, match="the frequency shifts overflow"):
        frequency_renormalization(modes, 100.0, 300.0)


def test_a_mode_too_soft_for_the_bath_is_named():
    with pytest.raises(ValueError, match=r"the thermal occupation overflows at omega_k = 1e-308 cm\^-1"):
        frequency_renormalization(((50.0, 1.0), (1e-308, 1.0)), 100.0, 1e6)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=500.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=500.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        max_size=6,
    ),
)
def test_frequency_renormalization_additive(modes_a, modes_b):
    omega0 = 123.456
    assume(all(abs(w - omega0) > 1e-6 for w, _ in modes_a + modes_b))
    da = frequency_renormalization(modes_a, omega0, 300.0)
    db = frequency_renormalization(modes_b, omega0, 300.0)
    dab = frequency_renormalization(modes_a + modes_b, omega0, 300.0)
    assert dab[0] == pytest.approx(da[0] + db[0], rel=1e-12, abs=1e-12)
    assert dab[1] == pytest.approx(da[1] + db[1], rel=1e-12, abs=1e-12)


def _per_mode_shifts(modes, omega0, temperature_k):
    # the definition: one bose_occupation per mode, summed in file order
    delta_plus = delta_minus = 0.0
    for omega_k, v2_k in modes:
        nbar_k = bose_occupation(omega_k, temperature_k)
        delta_plus += v2_k * (nbar_k + 1.0) / (omega_k - omega0)
        delta_minus -= v2_k * nbar_k / (omega_k - omega0)
    return delta_plus, delta_minus


# 0.05 K: kT = 0.035 cm^-1, so omega/kT > 700 above about 24 cm^-1 and below it not
@pytest.mark.parametrize("temperature", [0.0, 0.05, 77.0, 300.0, 1e5])
@pytest.mark.parametrize("seed, n_modes", [(1, 0), (2, 1), (3, 20), (4, 300), (5, 3000)])
def test_frequency_renormalization_is_the_per_mode_sum(seed, n_modes, temperature):
    rng = random.Random(seed)
    omega0 = rng.uniform(50.0, 400.0)
    modes = tuple(
        (rng.uniform(0.5, 2.0 * omega0) if rng.random() < 0.9 else rng.uniform(1.0, 1e4), rng.uniform(0.0, 50.0))
        for _ in range(n_modes)
    )
    if n_modes > 1:  # modes on both sides of the resonance
        assert min(modes)[0] < omega0 < max(modes)[0]
    assert frequency_renormalization(modes, omega0, temperature) == _per_mode_shifts(modes, omega0, temperature)


# --------------------------------------------------------------- modes CSV

def test_load_modes_csv_round_trip(tmp_path):
    path = tmp_path / "modes.csv"
    path.write_text(
        "omega_k_cm1,V2_k_cm2\n100.0,2.5\n\n200.0,0.0\n", encoding="utf-8"
    )
    assert load_modes_csv(str(path)) == ((100.0, 2.5), (200.0, 0.0))


def test_load_modes_csv_header_required():
    assert MODES_CSV_HEADER == ("omega_k_cm1", "V2_k_cm2")


def test_load_modes_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "modes.csv"
    path.write_text("freq,coupling\n100.0,2.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected header"):
        load_modes_csv(str(path))


def test_load_modes_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "modes.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="header row required"):
        load_modes_csv(str(path))


def test_load_modes_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "modes.csv"
    path.write_text("omega_k_cm1,V2_k_cm2\n100.0,2.5\n200.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":3:"):
        load_modes_csv(str(path))
    path.write_text("omega_k_cm1,V2_k_cm2\nabc,2.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        load_modes_csv(str(path))


HEADER = "omega_k_cm1,V2_k_cm2\n"
# row text after the header -> the modes read, or the message with {path} for the file
MODE_ROWS = {
    "blank-line": ("100,1\n\n200,2\n", ((100.0, 1.0), (200.0, 2.0))),
    "space-comma-space": (" , \n100,1\n", ((100.0, 1.0),)),
    "two-commas": (",,\n100,1\n", ((100.0, 1.0),)),
    "whitespace-cell": ("   \n100,1\n", ((100.0, 1.0),)),
    "padded-cells": (" 100 , 2.5 \n", ((100.0, 2.5),)),
    "quoted-numbers": ('"100.5","2"\n', ((100.5, 2.0),)),
    "crlf": ("100,1\r\n200,2\r\n", ((100.0, 1.0), (200.0, 2.0))),
    "one-cell": ("100,1\n200\n", "{path}:3: expected 2 columns, got 1"),
    "three-cells": ("100,1,2\n", "{path}:2: expected 2 columns, got 3"),
    "empty-coupling": ("100.0,\n", "{path}:2: could not convert string to float: ''"),
    "empty-frequency": (",5\n", "{path}:2: could not convert string to float: ''"),
    "word": ("abc,1\n", "{path}:2: could not convert string to float: 'abc'"),
    "header-only": ("", ()),
}


@pytest.mark.parametrize("case", sorted(MODE_ROWS))
def test_load_modes_csv_edge_rows(case, tmp_path):
    rows, expected = MODE_ROWS[case]
    path = tmp_path / "modes.csv"
    path.write_bytes((HEADER + rows).encode("utf-8"))
    if isinstance(expected, tuple):
        assert load_modes_csv(str(path)) == expected
    else:
        with pytest.raises(ValueError) as exc:
            load_modes_csv(str(path))
        assert str(exc.value) == expected.format(path=path)
