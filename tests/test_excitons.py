"""Exciton transformation: dressing, mixing angle, frequencies, rotations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimerdecay.excitons import (
    DimerParams,
    basis_map,
    exciton_frame,
    exciton_frequencies,
    lambda2_from_eta,
    mixing_angle,
    su2_identity_check,
)

# frozen from 40-digit evaluations of the closed forms
ATAN_1_6 = 1.0121970114513342
GAP_DRESSED_FMO = 254.687
OMEGA0_BARE_120_96 = 226.41554716935849
FMO_PHI0 = 0.6459710864886066
FMO_OMEGA_PLUS = 22.131786462354411
FMO_OMEGA_MINUS = -296.81878646235441
FMO_OMEGA0 = 318.95057292470882
FMO_LAMBDA2 = 102.3435

FMO = DimerParams(
    omega1=60.0, omega2=-60.0, j12=-96.0, lambda1=35.0, eta_abs=0.71, theta=0.0
)

thetas = st.floats(min_value=-math.pi, max_value=math.pi)
etas = st.floats(min_value=0.0, max_value=20.0)
angles_half = st.floats(min_value=-math.pi / 2, max_value=math.pi / 2)


# ---------------------------------------------------------------- parameters

def test_dimer_params_requires_ordered_sites():
    with pytest.raises(ValueError, match="omega1"):
        DimerParams(-60.0, 60.0, -96.0, 35.0, 0.71, 0.0)
    with pytest.raises(ValueError):
        DimerParams(60.0, 60.0, -96.0, 35.0, 0.71, 0.0)


def test_dimer_params_rejects_bad_ranges():
    with pytest.raises(ValueError, match="lambda1"):
        DimerParams(60.0, -60.0, -96.0, -1.0, 0.71, 0.0)
    with pytest.raises(ValueError, match="eta_abs"):
        DimerParams(60.0, -60.0, -96.0, 35.0, -0.1, 0.0)
    with pytest.raises(ValueError, match="theta"):
        DimerParams(60.0, -60.0, -96.0, 35.0, 0.71, 4.0)
    with pytest.raises(ValueError, match="finite"):
        DimerParams(math.nan, -60.0, -96.0, 35.0, 0.71, 0.0)


def test_dimer_params_gap():
    assert FMO.gap == 120.0
    assert DimerParams(1060.0, 940.0, -96.0, 35.0, 0.71, 0.0).gap == 120.0


# ---------------------------------------------------------------- dressed gap

def dressed_gap(p):
    frame = exciton_frame(p)
    return frame.omega1p - frame.omega2p


def test_renormalized_gap_no_asymmetry():
    p = DimerParams(60.0, -60.0, -96.0, 35.0, 0.0, 0.0)
    assert dressed_gap(p) == 120.0


def test_renormalized_gap_fmo():
    # 120 + 2*35*0.71*(2 + 0.71)
    assert dressed_gap(FMO) == pytest.approx(GAP_DRESSED_FMO, rel=1e-12)


def test_renormalized_gap_cancellation():
    # 2 cos(pi) + 2 = 0 exactly, shift cancels
    p = DimerParams(60.0, -60.0, -96.0, 35.0, 2.0, math.pi)
    assert dressed_gap(p) == 120.0


@given(thetas, etas)
def test_renormalized_gap_even_in_theta(theta, eta):
    p = DimerParams(60.0, -60.0, -96.0, 35.0, eta, theta)
    m = DimerParams(60.0, -60.0, -96.0, 35.0, eta, -theta)
    assert dressed_gap(p) == dressed_gap(m)


# ---------------------------------------------------------------- mixing angle

def test_mixing_angle_uncoupled():
    assert mixing_angle(120.0, 0.0) == 0.0


def test_mixing_angle_fmo_sign_convention():
    # arctan(192/120) for a negative coupling
    assert mixing_angle(120.0, -96.0) == pytest.approx(ATAN_1_6, rel=1e-12)
    assert mixing_angle(120.0, 96.0) == pytest.approx(-ATAN_1_6, rel=1e-12)


def test_mixing_angle_resonant_sites():
    assert mixing_angle(0.0, 96.0) == pytest.approx(-math.pi / 2, rel=1e-15)
    assert mixing_angle(0.0, -96.0) == pytest.approx(math.pi / 2, rel=1e-15)


def test_mixing_angle_degenerate():
    with pytest.raises(ValueError, match="mixing angle undefined"):
        mixing_angle(0.0, 0.0)


def test_mixing_angle_negative_gap_warns_and_folds():
    with pytest.warns(UserWarning, match="negative"):
        phi = mixing_angle(-120.0, -96.0)
    assert -math.pi / 2 <= phi <= math.pi / 2
    # same tangent as the unfolded branch
    assert math.tan(phi) == pytest.approx(192.0 / -120.0, rel=1e-12)


@given(
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=-1e4, max_value=1e4),
)
def test_mixing_angle_positive_gap_is_plain_arctan(gap, j12):
    assert mixing_angle(gap, j12) == pytest.approx(
        math.atan(-2.0 * j12 / gap), rel=1e-14, abs=1e-300
    )


# ---------------------------------------------------------------- frequencies

def test_exciton_frequencies_diagonal_input():
    assert exciton_frequencies(100.0, 50.0, 0.0) == (100.0, 50.0)


def test_exciton_frequencies_symmetric_splitting():
    assert exciton_frequencies(100.0, 100.0, 96.0) == (196.0, 4.0)


def test_exciton_frequencies_bare_splitting():
    plus, minus = exciton_frequencies(60.0, -60.0, 96.0)
    assert plus - minus == pytest.approx(OMEGA0_BARE_120_96, rel=1e-12)


@given(
    st.floats(min_value=-500.0, max_value=500.0),
    st.floats(min_value=-500.0, max_value=500.0),
    st.floats(min_value=-200.0, max_value=200.0),
)
def test_exciton_frequencies_trace_and_splitting(w1, w2, j12):
    plus, minus = exciton_frequencies(w1, w2, j12)
    scale = max(1.0, abs(w1) + abs(w2))
    assert plus + minus == pytest.approx(w1 + w2, abs=1e-12 * scale)
    assert plus >= minus
    # splitting is bounded below by twice the coupling
    assert plus - minus >= 2.0 * abs(j12) - 1e-12 * scale
    # the trigonometric forms through the mixing angle agree
    if w1 != w2 or j12 != 0.0:
        with warnings.catch_warnings():
            # random draws legitimately produce out-of-order dressed frequencies
            warnings.simplefilter("ignore", UserWarning)
            phi0 = mixing_angle(w1 - w2, j12)
        c2 = math.cos(0.5 * phi0) ** 2
        s2 = math.sin(0.5 * phi0) ** 2
        sp = math.sin(phi0)
        trig = sorted(
            (w1 * c2 + w2 * s2 - j12 * sp, w1 * s2 + w2 * c2 + j12 * sp),
            reverse=True,
        )
        assert trig == pytest.approx(
            [plus, minus], abs=1e-10 * max(1.0, abs(plus), abs(minus))
        )


def test_exciton_frequencies_splitting_floor_is_tight():
    # equality of the splitting bound when the dressed gap vanishes
    plus, minus = exciton_frequencies(25.0, 25.0, -96.0)
    assert plus - minus == pytest.approx(192.0, rel=1e-14)


def test_exciton_frame_fmo():
    frame = exciton_frame(FMO)
    assert frame.omega1p == pytest.approx(-10.0, rel=1e-12)
    assert frame.omega2p == pytest.approx(-60.0 - 2.0 * FMO_LAMBDA2, rel=1e-12)
    assert frame.phi0 == pytest.approx(FMO_PHI0, rel=1e-12)
    assert frame.omega_plus == pytest.approx(FMO_OMEGA_PLUS, rel=1e-12)
    assert frame.omega_minus == pytest.approx(FMO_OMEGA_MINUS, rel=1e-12)
    assert frame.omega0 == pytest.approx(FMO_OMEGA0, rel=1e-12)
    assert frame.lambda2 == pytest.approx(FMO_LAMBDA2, rel=1e-12)


@given(thetas, st.floats(min_value=0.0, max_value=5.0))
def test_exciton_frame_even_in_theta(theta, eta):
    a = exciton_frame(DimerParams(60.0, -60.0, -96.0, 35.0, eta, theta))
    b = exciton_frame(DimerParams(60.0, -60.0, -96.0, 35.0, eta, -theta))
    assert a == b


@pytest.mark.parametrize("j12", [1e11, 1e150, -1e300])
def test_exciton_frame_is_finite_at_large_coupling(j12):
    # omega_plus and omega_minus round the dressed frequencies away here; only an
    # overflowing frame is refused
    frame = exciton_frame(DimerParams(60.0, -60.0, j12, 35.0, 0.71, 0.0))
    assert all(math.isfinite(v) for v in vars(frame).values())
    splitting = math.hypot(frame.omega1p - frame.omega2p, 2.0 * j12)
    assert abs(frame.omega0 - splitting) <= 1e-15 * splitting


def test_exciton_frame_refuses_overflowed_fields():
    # 2 j12 overflows, so omega_plus and omega_minus read +-inf; the finiteness check refuses them
    with pytest.raises(ValueError, match="omega_plus must be finite, got inf"):
        exciton_frame(DimerParams(60.0, -60.0, 1e308, 35.0, 0.71, 0.0))


@pytest.mark.parametrize(
    "dimer, text",
    [
        # lambda2 = lambda1 |1 + |eta||^2 overflows
        ((60.0, -60.0, -96.0, 35.0, 1.4e308, 0.0), r"the phonon dressing leaves the float range at lambda1 = 35 cm\^-1, \|eta\| = 1.4e\+308"),
        # 2 lambda2 = 8e307 stays finite; the bare gap 1.7e308 plus the dressing 6e307 does not
        ((1.7e308, 0.0, -96.0, 1e307, 1.0, 0.0), r"the phonon dressing leaves the float range at lambda1 = 1e\+307 cm\^-1, \|eta\| = 1"),
        # a bare gap past the float range is no dressing's: lambda1 = 0
        ((1e308, -1e308, -96.0, 0.0, 0.71, 0.0), "omega_plus must be finite, got inf"),
    ],
)
def test_exciton_frame_names_an_overflowing_dressing_by_lambda1_and_eta(dimer, text):
    with pytest.raises(ValueError, match=text):
        exciton_frame(DimerParams(*dimer))


# --------------------------------------------------------------- lambda2

def test_lambda2_no_asymmetry():
    assert lambda2_from_eta(35.0, 0.0, 1.2) == 35.0


def test_lambda2_fmo():
    assert lambda2_from_eta(35.0, 0.71, 0.0) == pytest.approx(FMO_LAMBDA2, rel=1e-12)


def test_lambda2_antiphase():
    # 35*(1 + 0.45*(0.45 - 2)), quoted as ~11 at single-digit rounding
    v = lambda2_from_eta(35.0, 0.45, math.pi)
    assert v == pytest.approx(10.5875, rel=1e-12)
    assert round(v) == 11


@given(st.floats(min_value=0.0, max_value=100.0), etas, thetas)
def test_lambda2_nonnegative(lambda1, eta, theta):
    # lambda2 = lambda1 * |1 + eta e^{i theta}|^2, nonnegative up to round-off
    assert lambda2_from_eta(lambda1, eta, theta) >= -1e-12 * max(1.0, lambda1)


# --------------------------------------------------------------- basis map

def test_basis_map_identity():
    r = basis_map(0.0)
    assert np.array_equal(r, np.eye(2))
    assert np.array_equal(r.T, np.eye(2))


def test_basis_map_maximal_mixing():
    r = basis_map(math.pi / 2)
    # both sites carry weight 1/sqrt(2) in each exciton
    assert np.max(np.abs(np.abs(r) - 1.0 / math.sqrt(2.0))) < 1e-15


def test_basis_map_range_check():
    with pytest.raises(ValueError):
        basis_map(2.0)


@given(angles_half)
def test_basis_map_orthogonal_round_trip(phi0):
    r = basis_map(phi0)
    assert np.max(np.abs(r @ r.T - np.eye(2))) < 1e-14
    assert np.max(np.abs(r.T @ r - np.eye(2))) < 1e-14


# --------------------------------------------------------------- rotation identities

def test_su2_identities_at_zero():
    res = su2_identity_check(0.0)
    assert all(v == 0.0 for v in res.values())


def test_su2_identities_quarter_turn():
    res = su2_identity_check(math.pi / 2)
    assert max(res.values()) < 1e-14


def test_su2_identities_random_angles():
    rng = np.random.default_rng(7)
    for phi in rng.uniform(-math.pi / 2, math.pi / 2, size=100):
        res = su2_identity_check(float(phi))
        assert max(res.values()) < 1e-12


def test_su2_hamiltonian_diagonalization():
    phi0 = mixing_angle(120.0, -96.0)
    res = su2_identity_check(phi0, omega1p=60.0, omega2p=-60.0, j12=-96.0)
    plus, minus = exciton_frequencies(60.0, -60.0, -96.0)
    scale = max(1.0, abs(plus), abs(minus))
    assert res["hamiltonian_offdiag"] < 1e-12 * scale
    assert res["hamiltonian_diag"] < 1e-12 * scale


def test_su2_hamiltonian_needs_all_three_parameters():
    with pytest.raises(ValueError, match="together"):
        su2_identity_check(0.3, omega1p=60.0)


def test_su2_rejects_nonfinite():
    with pytest.raises(ValueError):
        su2_identity_check(math.nan)
