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
