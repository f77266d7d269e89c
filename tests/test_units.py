"""Unit conversions: constants, round trips, linearity."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dimerdecay.units import (
    C_CM_PER_FS,
    KB_CM1_PER_K,
    thermal_energy,
    wavenumber_to_angular,
)

# frozen from a 40-digit evaluation of 2*pi*c with c = 2.99792458e-5 cm/fs
W2A_OF_1 = 1.8836515673088533e-4
W2A_OF_7_8 = 1.4692482225009056e-3

finite_wavenumbers = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_constants():
    assert C_CM_PER_FS == 2.99792458e-5
    assert KB_CM1_PER_K == 0.69503480


def test_wavenumber_to_angular_zero():
    assert wavenumber_to_angular(0.0) == 0.0


def test_wavenumber_to_angular_unit():
    assert wavenumber_to_angular(1.0) == pytest.approx(W2A_OF_1, rel=1e-12)


def test_wavenumber_to_angular_chain_coupling():
    assert wavenumber_to_angular(7.8) == pytest.approx(W2A_OF_7_8, rel=1e-12)


def test_wavenumber_to_angular_rejects_nonfinite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            wavenumber_to_angular(bad)


@given(finite_wavenumbers)
def test_angular_round_trip(x):
    assert wavenumber_to_angular(x) / (2.0 * math.pi * C_CM_PER_FS) == pytest.approx(
        x, rel=1e-13, abs=1e-300
    )


@given(finite_wavenumbers, finite_wavenumbers)
def test_wavenumber_to_angular_additive(a, b):
    # exact over the reals; in floats the residual is a few round-offs
    # of the larger operand, which dominates when a + b cancels
    wa, wb = wavenumber_to_angular(a), wavenumber_to_angular(b)
    scale = max(abs(wa), abs(wb), 1e-300)
    assert abs((wa + wb) - wavenumber_to_angular(a + b)) <= 1e-14 * scale


@given(finite_wavenumbers, st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
def test_wavenumber_to_angular_scaling(a, lam):
    # power-of-two scaling commutes with rounding away from the subnormal range
    assume(a == 0.0 or abs(a) > 1e-280)
    assert wavenumber_to_angular(lam * a) == lam * wavenumber_to_angular(a)


def test_thermal_energy_room_temperature():
    assert thermal_energy(300.0) == pytest.approx(208.51044, rel=1e-12)


def test_thermal_energy_cryogenic():
    assert thermal_energy(77.0) == pytest.approx(53.5176796, rel=1e-12)


def test_thermal_energy_inverse_of_constant():
    assert thermal_energy(1.0 / KB_CM1_PER_K) == pytest.approx(1.0, rel=1e-12)


def test_thermal_energy_rejects_nonpositive():
    for bad in (0.0, -1.0, -300.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            thermal_energy(bad)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-12, max_value=1e6),
)
def test_thermal_energy_strictly_increasing(t, dt):
    assume(t + dt > t)  # skip increments below the float resolution of t
    assert thermal_energy(t + dt) >= thermal_energy(t)
    # kB * t can round neighbouring temperatures to the same value; a
    # few ulps of t apart the products must differ
    if dt > 4.0 * math.ulp(t):
        assert thermal_energy(t + dt) > thermal_energy(t)
