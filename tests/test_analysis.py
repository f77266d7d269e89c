"""Inverse analyses over the asymmetry parameter: sweeps, minima, estimates."""

import io
import math

import numpy as np
import pytest

from dimerdecay.analysis import (
    SWEEP_CSV_HEADER,
    EtaEstimate,
    NoSolutionError,
    SweepResult,
    estimate_eta,
    estimate_eta_limit,
    find_alpha_minimum,
    sweep_inverse_alpha,
    write_sweep_csv,
    write_theta_table_csv,
)
from dimerdecay.excitons import DimerParams
from dimerdecay.rates import attenuation_factor

FMO = DimerParams(
    omega1=60.0, omega2=-60.0, j12=-96.0, lambda1=35.0, eta_abs=0.71, theta=0.0
)


def from_gap(gap, j12, lambda1, eta_abs, theta):
    """Sites split symmetrically about 0, as the CLI's --gap does."""
    return DimerParams(0.5 * gap, -0.5 * gap, j12, lambda1, eta_abs, theta)


# interior minima of 1/alpha over |eta|, frozen from 40-digit evaluations
MINIMA = {
    0.0: (1.6409566831234082, 13.158734514524669),
    0.25 * math.pi: (1.675188686235993, 10.418629838142695),
    0.5 * math.pi: (1.7984737464597923, 5.2623889543956368),
    0.75 * math.pi: (2.0507714877621187, 2.1038947233953644),
    math.pi: (2.2446073049850342, 1.3345168141209342),
}

# smallest |eta| with 1/alpha = 22, frozen from 40-digit evaluations
ESTIMATES_AT_22 = {
    0.0: (0.70711545665961768, 101.99851138281613, 3.9626040092923115),
    0.25 * math.pi: (0.63312984212790906, 80.368197226566781, 4.6198272753345776),
    0.5 * math.pi: (0.52698804199521997, 44.72007387420845, 6.1377252593038152),
    0.75 * math.pi: (0.4699266272517591, 19.468904889718548, 7.6114576149569177),
    math.pi: (0.45449152251289444, 10.415282465360498, 8.2152279434390347),
}

LIMIT_ETA_200_5_14 = 10.690449676496975

# every positive |eta| with 1/alpha = ratio, frozen from 40-digit
# evaluations: (dimer, theta, ratio, roots)
ALL_ROOTS = {
    # far outside the O(1) physics
    "ratio_1e5": (FMO, 0.0, 1e5, (0.0074766169988804565, 431.67982215074415)),
    "ratio_1e12": (FMO, 0.0, 1e12, (2.3584971059361797e-6, 1371426.5714273214)),
    # 1e-12 above the minimum at theta = 0: a pair 2.3e-6 apart
    "near_minimum": (
        FMO,
        0.0,
        13.158734514537828,
        (1.6409547864776985, 1.6409585797714513),
    ),
    # j12 ~ 5e-7 lambda1: a pair 9e-7 apart where D nearly cancels
    "weak_coupling": (
        from_gap(
            143.6325037627572, 0.0023294772971787564, 4801.480673880798, 0.5, 0.0
        ),
        -2.44382949835983,
        9.79136045026081,
        (1.5227393878298283, 1.5227407746832106),
    ),
}

# interior minima besides the FMO phases, frozen from 40-digit
# evaluations: (dimer, theta, (eta_min, inv_alpha_min))
GLOBAL_MINIMA = {
    # weak reorganization pushes the optimum far beyond |eta| ~ 1
    "weak_lambda1": (
        DimerParams(60.0, -60.0, -96.0, 0.01, 0.71, 0.0),
        0.0,
        (106.16607458100101, 0.0015319660455314035),
    ),
    # j12 << lambda1 with cos(theta) < 0: a narrow dip where D(x) ~ 0
    "narrow_dip": (
        DimerParams(50.0, -50.0, 0.2, 900.0, 0.5, 0.0),
        2.8,
        (1.854487323167951, 1.1630871439204454),
    ),
}

# --------------------------------------------------------------- containers

def test_sweep_result_requires_increasing_grid():
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepResult(theta=0.0, points=((2.0, 5.0), (1.0, 6.0)), minimum=(1.5, 4.0))


def test_sweep_result_requires_consistent_minimum():
    with pytest.raises(ValueError, match="inconsistent"):
        SweepResult(theta=0.0, points=((1.0, 5.0),), minimum=(1.0, 6.0))


# --------------------------------------------------------------- sweeps

def test_sweep_grid_validation():
    with pytest.raises(ValueError, match="must not be empty"):
        sweep_inverse_alpha(FMO, 0.0, [])
    with pytest.raises(ValueError, match="> 0"):
        sweep_inverse_alpha(FMO, 0.0, [0.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep_inverse_alpha(FMO, 0.0, [1.0, 1.0, 2.0])


def test_sweep_without_coupling_is_rejected():
    p = DimerParams(60.0, -60.0, 0.0, 35.0, 0.71, 0.0)
    with pytest.raises(ValueError, match="vanishes on the whole grid"):
        sweep_inverse_alpha(p, 0.0, [0.5, 1.0, 2.0])


def test_sweep_reports_overflowing_inverse_alpha_as_inf():
    # alpha underflows to 0 at |eta| j12 ~ 1e-198; 1/alpha is then inf
    res = sweep_inverse_alpha(FMO, 0.0, [1e-200, 1.0])
    assert res.points[0] == (1e-200, math.inf)
    assert math.isfinite(res.points[1][1])


def test_sweep_points_match_direct_evaluation():
    from dataclasses import replace

    grid = [0.5, 1.0, 1.6409566831234082, 3.0, 5.0]
    res = sweep_inverse_alpha(FMO, 0.0, grid)
    assert [x for x, _ in res.points] == grid
    for eta, inv_alpha in res.points:
        direct = 1.0 / attenuation_factor(replace(FMO, eta_abs=eta, theta=0.0))
        assert inv_alpha == direct
    assert res.minimum == find_alpha_minimum(FMO, 0.0)


def test_sweep_is_even_in_theta():
    grid = list(np.geomspace(0.2, 5.0, 25))
    plus = sweep_inverse_alpha(FMO, 0.75 * math.pi, grid)
    minus = sweep_inverse_alpha(FMO, -0.75 * math.pi, grid)
    assert plus.points == minus.points
    assert plus.minimum == minus.minimum


def test_sweep_is_unimodal_around_minimum():
    res = sweep_inverse_alpha(FMO, 0.0, list(np.geomspace(0.2, 5.0, 60)))
    values = [v for _, v in res.points]
    k = values.index(min(values))
    assert 0 < k < len(values) - 1
    assert all(a > b for a, b in zip(values[:k], values[1 : k + 1]))
    assert all(b > a for a, b in zip(values[k:], values[k + 1 :]))


# --------------------------------------------------------------- minima

@pytest.mark.parametrize(
    "p, theta, ref",
    [(FMO, theta, MINIMA[theta]) for theta in sorted(MINIMA)]
    + list(GLOBAL_MINIMA.values()),
    ids=[str(theta) for theta in sorted(MINIMA)] + list(GLOBAL_MINIMA),
)
def test_find_alpha_minimum_frozen_values(p, theta, ref):
    from dataclasses import replace

    eta_min, inv_min = find_alpha_minimum(p, theta)
    ref_eta, ref_inv = ref
    assert eta_min == pytest.approx(ref_eta, abs=2e-6)
    assert inv_min == pytest.approx(ref_inv, rel=1e-9)
    for x in (0.99 * eta_min, 1.01 * eta_min):
        assert 1.0 / attenuation_factor(replace(p, eta_abs=x, theta=theta)) > inv_min


def test_find_alpha_minimum_is_local_minimum():
    eta_min, inv_min = find_alpha_minimum(FMO, 0.0)
    from dataclasses import replace

    for d in (-0.01, 0.01):
        neighbour = 1.0 / attenuation_factor(
            replace(FMO, eta_abs=eta_min + d, theta=0.0)
        )
        assert neighbour > inv_min


def test_find_alpha_minimum_needs_coupling():
    p = DimerParams(60.0, -60.0, 0.0, 35.0, 0.71, 0.0)
    with pytest.raises(ValueError, match="j12 must be nonzero"):
        find_alpha_minimum(p, 0.0)
    # at lambda1 = 0, 1/alpha = (gap^2 + 4 j12^2) / (|eta| j12)^2 only falls
    p = DimerParams(60.0, -60.0, -96.0, 0.0, 0.71, 0.0)
    with pytest.raises(NoSolutionError, match="no interior minimum"):
        find_alpha_minimum(p, 0.0)


def test_stronger_reorganization_raises_floor():
    # larger lambda1 dresses the gap harder, so the optimum sits at
    # smaller |eta| and the attainable 1/alpha floor is higher
    weak = find_alpha_minimum(
        DimerParams(60.0, -60.0, -96.0, 5.0, 0.71, 0.0), 0.0
    )
    strong = find_alpha_minimum(FMO, 0.0)
    assert strong[0] < weak[0]
    assert strong[1] > weak[1] > 1.0


# --------------------------------------------------------------- estimates

def test_estimate_eta_frozen_value_symmetric_phase():
    est = estimate_eta(FMO, 0.0, 22.0)
    ref_eta, ref_lam2, ref_root2 = ESTIMATES_AT_22[0.0]
    assert est.eta_abs == pytest.approx(ref_eta, abs=1e-10)
    assert est.lambda2 == pytest.approx(ref_lam2, rel=1e-10)
    assert len(est.all_roots) == 2
    assert est.all_roots[0] == est.eta_abs
    assert est.all_roots[1] == pytest.approx(ref_root2, abs=1e-9)
    assert est.target_ratio == 22.0 and est.theta == 0.0


@pytest.mark.parametrize("theta", sorted(ESTIMATES_AT_22))
def test_estimate_eta_back_substitutes(theta):
    from dataclasses import replace

    est = estimate_eta(FMO, theta, 22.0)
    ref_eta, ref_lam2, _ = ESTIMATES_AT_22[theta]
    assert est.eta_abs == pytest.approx(ref_eta, abs=1e-9)
    assert est.lambda2 == pytest.approx(ref_lam2, rel=1e-9)
    back = 1.0 / attenuation_factor(
        replace(FMO, eta_abs=est.eta_abs, theta=theta)
    )
    assert back == pytest.approx(22.0, rel=1e-8)


@pytest.mark.parametrize(
    "p, theta, ratio, roots", list(ALL_ROOTS.values()), ids=list(ALL_ROOTS)
)
def test_estimate_eta_finds_every_root(p, theta, ratio, roots):
    from dataclasses import replace

    est = estimate_eta(p, theta, ratio)
    assert est.all_roots == pytest.approx(roots, rel=1e-9)
    assert est.eta_abs == est.all_roots[0]
    for x in est.all_roots:
        back = 1.0 / attenuation_factor(replace(p, eta_abs=x, theta=theta))
        assert back == pytest.approx(ratio, rel=1e-8)


def test_estimate_eta_returns_smallest_root():
    est = estimate_eta(FMO, 0.5 * math.pi, 22.0)
    assert est.eta_abs == min(est.all_roots)
    assert list(est.all_roots) == sorted(est.all_roots)


def test_estimate_eta_decreases_with_ratio():
    # on the small-|eta| branch a longer lifetime needs less asymmetry
    lo = estimate_eta(FMO, 0.0, 30.0)
    hi = estimate_eta(FMO, 0.0, 22.0)
    assert lo.eta_abs < hi.eta_abs


def test_estimate_eta_unattainable_ratio():
    # the attainable floor at theta = 0 is about 13.16
    with pytest.raises(NoSolutionError, match="13.15"):
        estimate_eta(FMO, 0.0, 10.0)
    # 1e-12 below it
    with pytest.raises(NoSolutionError, match="13.15"):
        estimate_eta(FMO, 0.0, 13.15873451451151)
    # j12 ~ 1e-6 lambda1: a complex root pair within 1e-6 of the real axis
    p = from_gap(
        0.005221769572350904, -0.011769289172988358, 8573.481013712311, 0.5, 0.0
    )
    with pytest.raises(NoSolutionError, match="1.8756"):
        estimate_eta(p, -2.3893797339403404, 0.48032721955858054)


def test_estimate_eta_without_coupling():
    p = DimerParams(60.0, -60.0, 0.0, 35.0, 0.71, 0.0)
    with pytest.raises(NoSolutionError, match="zero coupling"):
        estimate_eta(p, 0.0, 22.0)


def test_estimate_eta_rejects_bad_ratio():
    with pytest.raises(ValueError, match="target_ratio"):
        estimate_eta(FMO, 0.0, 0.0)
    with pytest.raises(ValueError, match="target_ratio"):
        estimate_eta(FMO, 0.0, -5.0)


def test_estimate_result_is_frozen():
    est = estimate_eta(FMO, 0.0, 22.0)
    assert isinstance(est, EtaEstimate)
    with pytest.raises(Exception):
        est.eta_abs = 1.0


# --------------------------------------------------------------- limit formula

def test_estimate_eta_limit_values():
    v = estimate_eta_limit(200.0, 5.0, 14.0)
    assert v == pytest.approx(LIMIT_ETA_200_5_14, rel=1e-12)
    assert v == pytest.approx(10.7, abs=0.05)
    assert estimate_eta_limit(200.0, 5.0, 1600.0) == 1.0
    assert estimate_eta_limit(5.0, 5.0, 1.0) == 1.0
    assert estimate_eta_limit(200.0, -5.0, 1600.0) == 1.0


def test_estimate_eta_limit_domain():
    with pytest.raises(ValueError, match="target_ratio"):
        estimate_eta_limit(200.0, 5.0, 0.0)
    with pytest.raises(ValueError, match="j12"):
        estimate_eta_limit(200.0, 0.0, 14.0)


@pytest.mark.parametrize(
    "lambda1, ratio",
    [(0.5, 1600.0), (5.0, 256000.0)],
)
def test_limit_agrees_with_full_solve_in_weak_coupling(lambda1, ratio):
    # with lambda1 and j12 both small against the bare gap the closed
    # inversion tracks the quartic solve to better than 2 percent
    p = from_gap(
        gap=200.0, j12=5.0, lambda1=lambda1, eta_abs=1.0, theta=0.0
    )
    full = estimate_eta(p, 0.0, ratio).eta_abs
    limit = estimate_eta_limit(200.0, 5.0, ratio)
    assert abs(full - limit) / limit < 0.02


# --------------------------------------------------------------- CSV writers

def test_sweep_csv_golden():
    fh = io.StringIO()
    res = SweepResult(
        theta=0.5,
        points=((1.0, 10.0), (2.0, 12.3456789123)),
        minimum=(1.0, 10.0),
    )
    write_sweep_csv(fh, [res])
    assert fh.getvalue() == (
        "theta_rad,eta_abs,inverse_alpha\n"
        "0.5,1,10\n"
        "0.5,2,12.3456789\n"
    )
    assert SWEEP_CSV_HEADER == ("theta_rad", "eta_abs", "inverse_alpha")


def test_theta_table_csv_golden():
    fh = io.StringIO()
    write_theta_table_csv(fh, [0.0, 1.5], [("eta_min", [1.0, 2.0])])
    assert fh.getvalue() == "quantity,theta=0,theta=1.5\neta_min,1,2\n"


def test_theta_table_csv_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        write_theta_table_csv(io.StringIO(), [0.0, 1.5], [("eta_min", [1.0])])
