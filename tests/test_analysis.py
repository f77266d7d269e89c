"""Inverse analyses over the asymmetry parameter: sweeps, minima, estimates."""

import io
import math
import re
import sys

import mpmath
import numpy as np
import oracle
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
from dimerdecay.rates import BathSpec, attenuation_factor, rate_set

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


def test_sweep_result_points_are_a_read_only_copy():
    given = np.array([[1.0, 5.0], [2.0, 4.0]])
    res = SweepResult(theta=0.0, points=given, minimum=(2.0, 4.0))
    assert res.points.shape == (2, 2) and res.points is not given
    with pytest.raises(ValueError, match="read-only"):
        res.points[0, 1] = 0.0
    with pytest.raises(ValueError, match="shape"):
        SweepResult(theta=0.0, points=[1.0, 5.0], minimum=(1.0, 5.0))


# --------------------------------------------------------------- sweeps

def test_sweep_grid_validation():
    with pytest.raises(ValueError, match="must not be empty"):
        sweep_inverse_alpha(FMO, 0.0, [])
    with pytest.raises(ValueError, match="> 0"):
        sweep_inverse_alpha(FMO, 0.0, [0.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep_inverse_alpha(FMO, 0.0, [1.0, 1.0, 2.0])


ZERO_COUPLING = "attenuation vanishes without coupling (j12 = 0): 1/alpha is infinite for every |eta|"


def test_sweep_without_coupling_is_rejected():
    # one refusal for every inverse analysis, ahead of the phase check
    p = DimerParams(60.0, -60.0, 0.0, 35.0, 0.71, 0.0)
    for analysis in (
        lambda: sweep_inverse_alpha(p, 0.0, [0.5, 1.0, 2.0]),
        lambda: find_alpha_minimum(p, 4.0),
        lambda: estimate_eta(p, 4.0, 22.0),
    ):
        with pytest.raises(NoSolutionError) as info:
            analysis()
        assert str(info.value) == ZERO_COUPLING


def test_sweep_reports_overflowing_inverse_alpha_as_inf():
    # alpha underflows to 0 at |eta| j12 ~ 1e-198; 1/alpha is then inf
    res = sweep_inverse_alpha(FMO, 0.0, [1e-200, 1.0])
    assert tuple(res.points[0]) == (1e-200, math.inf)
    assert math.isfinite(res.points[1, 1])


def test_sweep_far_out_matches_a_50_digit_oracle():
    # D^2 overflows from |eta| ~ 1e76 on, but 1/alpha stays representable
    # to ~1e154; inf only where 1/alpha itself exceeds the float range
    grid = [1.0, 5e99, 1e100, 1e150, 1e300]
    res = sweep_inverse_alpha(FMO, 0.0, grid)
    d = (2.0 * FMO.lambda1, 4.0 * FMO.lambda1, FMO.gap)
    with mpmath.workdps(50):
        for x, got in zip(grid, res.points[:, 1]):
            want = oracle.inverse_alpha(d, FMO.j12 ** 2, x)
            if want > mpmath.mpf(sys.float_info.max):
                assert got == math.inf
            else:
                assert abs(got - want) <= 1e-14 * want, (x, got)
    assert tuple(res.points[1:3, 1]) == pytest.approx((1.32921007e199, 5.31684028e199), rel=1e-8)


def test_sweep_points_match_direct_evaluation():
    from dataclasses import replace

    grid = [0.5, 1.0, 1.6409566831234082, 3.0, 5.0]
    res = sweep_inverse_alpha(FMO, 0.0, grid)
    assert [x for x, _ in res.points] == grid
    bath = BathSpec(temperature=300.0, gamma_d=0.02)
    for eta, inv_alpha in res.points:
        assert inv_alpha == rate_set(replace(FMO, eta_abs=eta, theta=0.0), bath).inverse_alpha
    assert res.minimum == find_alpha_minimum(FMO, 0.0)


def test_sweep_is_even_in_theta():
    grid = list(np.geomspace(0.2, 5.0, 25))
    plus = sweep_inverse_alpha(FMO, 0.75 * math.pi, grid)
    minus = sweep_inverse_alpha(FMO, -0.75 * math.pi, grid)
    assert np.array_equal(plus.points, minus.points)
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
    with pytest.raises(NoSolutionError, match=re.escape(ZERO_COUPLING)):
        find_alpha_minimum(p, 0.0)
    # at lambda1 = 0, 1/alpha = (gap^2 + 4 j12^2) / (|eta| j12)^2 only falls
    p = DimerParams(60.0, -60.0, -96.0, 0.0, 0.71, 0.0)
    with pytest.raises(NoSolutionError, match="no interior minimum"):
        find_alpha_minimum(p, 0.0)


def test_a_phase_outside_minus_pi_to_pi_is_refused():
    for solve in (lambda: find_alpha_minimum(FMO, 4.0), lambda: estimate_eta(FMO, -4.0, 22.0),
                  lambda: sweep_inverse_alpha(FMO, 4.0, [0.5, 1.0])):
        with pytest.raises(ValueError, match="theta must lie in"):
            solve()


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


def test_estimate_eta_refuses_underflowing_coupling():
    # D vanishes near |eta| = 0.6036; the root is there, but gap/|j12| overflows
    p = DimerParams(-1.0, -60.0, 1e-308, 35.0, 0.71, math.pi)
    with pytest.raises(ValueError, match="the quartic in \\|eta\\| leaves the float range"):
        estimate_eta(p, math.pi, 22.0)


@pytest.mark.parametrize("j12", [1e-160, 2.04887251289436e-234, 5e-324])
def test_minimum_and_sweep_refuse_underflowing_coupling(j12):
    # the quartic's coefficients, (lambda1/|j12|)^2 and up, overflow
    p = DimerParams(60.0, -60.0, j12, 35.0, 0.71, 0.0)
    with pytest.raises(ValueError, match="the quartic in \\|eta\\| leaves the float range"):
        find_alpha_minimum(p, 0.0)
    with pytest.raises(ValueError, match="the quartic in \\|eta\\| leaves the float range"):
        sweep_inverse_alpha(p, 0.0, [0.5, 1.0])


def test_a_minimum_far_out_matches_a_50_digit_oracle():
    # (lambda1/|j12|)^2 underflows, so an expanded quartic in |eta| loses its leading term
    p = DimerParams(60.0, -60.0, 1e200, 35.0, 0.71, 0.0)
    got, want = find_alpha_minimum(p, 0.0)[0], oracle.minimum(p, 0.0)
    assert abs(got - want) <= 1e-12 * want


def test_a_minimum_where_the_quartic_overflows_at_its_outer_bound():
    # f = (2 l x^2 - g) D~ - 4 reads +inf at the outer bound, the sign that bound guarantees.
    # The one stationary point lies in (1, 2), about 4e-308 from -2 cos(theta), where D cancels
    # across some 300 orders of magnitude: bisect it at 320 digits
    gap, j12, lam, theta = 3.5397493633080285e-204, -9.844138212927632e+100, 1.9325692867049005e+254, -2.8309059746152343
    eta, inv = find_alpha_minimum(from_gap(gap, j12, lam, 0.71, 0.0), theta)
    with mpmath.workdps(320):
        g, l, j, c = (mpmath.mpf(v) for v in (gap, lam, j12, math.cos(theta)))
        lo, hi = mpmath.mpf(1), mpmath.mpf(2)
        for _ in range(1100):
            x = (lo + hi) / 2
            if (2 * l * x * x - g) * (g + 2 * l * x * (2 * c + x)) > 4 * j * j:
                hi = x
            else:
                lo = x
        want = (g + 2 * l * x * (2 * c + x)) ** 2 / (x * x * j * j) + 4 / (x * x)
        assert abs(eta - x) <= 1e-15 * x and abs(inv - want) <= 1e-15 * want


@pytest.mark.parametrize(
    "gap, j12, lam, theta",
    [
        # the least stationary point found, 1.986, reads 2.27e84 against a true 1.014 there
        (4.349080738580299e-14, 2.396053374843137e-60, 0.03343563601663846, -3.0235499826923324),
        # the least one found, 1.96e-123 with 1.04e246, is right there, but the true minimum is
        # 1.323 at 1.739, where the float nearest the dip reads far above it
        (2.3162293627593012e-182, 2.1406062207550678e-216, 3.3906533875012867e-60, -2.624648241964127),
    ],
)
def test_a_dip_narrower_than_one_ulp_is_refused(gap, j12, lam, theta):
    p = from_gap(gap, j12, lam, 0.71, 0.0)
    with pytest.raises(ValueError, match="the quartic in \\|eta\\| leaves the float range"):
        find_alpha_minimum(p, theta)
    with pytest.raises(ValueError, match="the quartic in \\|eta\\| leaves the float range"):
        estimate_eta(p, theta, 1e4)


@pytest.mark.parametrize("j12", [1e23, 1e24, 1e50, 1e150])
def test_estimate_eta_finds_roots_far_apart(j12):
    # the roots, 0.426 and 6.7e-2 j12, are too far apart for a companion matrix of
    # the expanded quartic, which loses the smaller one
    p = DimerParams(60.0, -60.0, j12, 35.0, 0.71, 0.0)
    d, j2 = (70.0, 140.0, 120.0), j12 * j12
    got = estimate_eta(p, 0.0, 22.0).all_roots
    want = oracle.positive_roots(d, d, (-22.0 * j2, 0.0, 4.0 * j2))
    assert len(got) == len(want) == 2
    assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want))
    assert got[0] == pytest.approx(0.42640143, rel=1e-8)


@pytest.mark.parametrize("j12", [1e-100, 1e100, 1e150, 1e155])
@pytest.mark.parametrize("theta", [0.0, 0.5 * math.pi, math.pi])
def test_minimum_at_extreme_coupling_matches_a_50_digit_oracle(j12, theta):
    # j12^2 overflowed or the quartic did before the scaling by |j12|
    p = DimerParams(60.0, -60.0, j12, 35.0, 0.71, theta)
    got = find_alpha_minimum(p, theta)[0]
    want = oracle.minimum(p, theta)
    assert abs(got - want) <= 1e-12 * want


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


# --------------------------------------------------------------- mpmath oracle

def _oracle_draws(n=200, seed=20140, wide_seed=3):
    """Seeded dimers, half of them near-cancelling: there D has two positive
    roots and |j12| is 1e-6 to 1e-4 of lambda1.  Then n wide-range draws:
    gap and lambda1 log-uniform in 1e-3..1e3 (lambda1 = 0 in every 7th),
    |j12| in 1e-12..1e12 and the ratio in 1..1e4."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        lam = rng.uniform(5.0, 200.0)
        if k % 2:
            theta = rng.uniform(0.6, 1.0) * math.pi
            gap = rng.uniform(0.05, 1.0) * 2.0 * lam * math.cos(theta) ** 2
            j12 = rng.choice((-1.0, 1.0)) * lam * 10.0 ** rng.uniform(-6.0, -4.0)
        else:
            theta = rng.uniform(-math.pi, math.pi)
            gap = rng.uniform(10.0, 400.0)
            j12 = rng.uniform(-150.0, 150.0)
        yield k, from_gap(gap, j12, lam, 0.71, theta), theta, 10.0 ** rng.uniform(0.0, 3.0)
    rng = np.random.default_rng(wide_seed)
    for k in range(n, 2 * n):
        gap, lam = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
        j12 = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-12.0, 12.0)
        theta, ratio = rng.uniform(-math.pi, math.pi), 10.0 ** rng.uniform(0.0, 4.0)
        yield k, from_gap(gap, j12, 0.0 if k % 7 == 0 else lam, 0.71, theta), theta, ratio


def test_solvers_match_a_50_digit_oracle():
    # each draw checks one solver: estimate_eta on even k // 2, find_alpha_minimum on odd
    for k, p, theta, ratio in _oracle_draws():
        d = (2.0 * p.lambda1, 4.0 * p.lambda1 * math.cos(theta), p.gap)
        j2 = p.j12 * p.j12
        if k // 2 % 2 == 0:
            # D^2 + 4 j12^2 - r x^2 j12^2
            want = oracle.positive_roots(d, d, (-ratio * j2, 0.0, 4.0 * j2))
            try:
                got = estimate_eta(p, theta, ratio).all_roots
            except NoSolutionError:
                got = ()
            except ValueError as exc:
                # where 1/alpha is so steep that no float near a root gives the
                # ratio to 1e-8, the root is refused, and named
                named = re.fullmatch(r"root (\S+) fails back-substitution: .*", str(exc))
                assert named, (p, theta, ratio, exc)
                got = float(named[1])
                assert any(abs(got - w) <= 1e-12 * w for w in want), (p, theta, ratio)
                continue
            assert len(got) == len(want), (p, theta, ratio)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * w, (p, theta, ratio)
        else:
            # (x D' - D) D - 4 j12^2; the stationary point of smallest 1/alpha
            stationary = oracle.positive_roots((d[0], 0.0, -d[2]), d, (0.0, 0.0, -4.0 * j2))
            if not stationary:  # lambda1 = 0
                with pytest.raises(NoSolutionError, match="no interior minimum"):
                    find_alpha_minimum(p, theta)
                continue
            want = oracle.least(d, j2, stationary)
            got = find_alpha_minimum(p, theta)[0]
            assert abs(got - want) <= 1e-12 * want, (p, theta)


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


def _stacked_sweep_csv(results):
    """The sweep CSV as a stacked (theta, eta, 1/alpha) table with every cell formatted: the reference bytes."""
    from dimerdecay.units import _fmt_table
    table = np.concatenate([np.empty((0, 3)), *(np.insert(res.points, 0, res.theta, axis=1) for res in results)])
    return ",".join(SWEEP_CSV_HEADER) + "\n" + _fmt_table(table)


def _sweep_results(rng, grids, thetas, specials=False):
    results = []
    for grid, theta in zip(grids, thetas):
        values = rng.lognormal(2.0, 3.0, len(grid)) * rng.choice([1.0, 1e-300, 1e300], len(grid))
        if specials:
            values[rng.random(len(grid)) < 0.3] = np.inf
            values[rng.random(len(grid)) < 0.2] = np.nan
            values[rng.random(len(grid)) < 0.1] = -0.0
        results.append(SweepResult(theta=theta, points=np.column_stack((grid, values)), minimum=(1.0, -np.inf)))
    return results


def _grid(rng, n):
    return np.cumsum(rng.lognormal(-2.0, 2.0, n)) * rng.choice([1e-5, 1.0, 1e7])


def test_sweep_csv_is_the_stacked_table_byte_for_byte():
    rng = np.random.default_rng(23)
    shared = _grid(rng, 50)
    cases = [
        ([shared] * 7, rng.uniform(0.0, math.pi, 7), False),
        ([_grid(rng, 50) for _ in range(7)], rng.uniform(0.0, math.pi, 7), False),
        ([_grid(rng, n) for n in (1, 2, 40, 40, 3, 1, 17)], rng.uniform(-math.pi, math.pi, 7), True),
        ([np.array([0.7])] * 5, rng.uniform(0.0, math.pi, 5), False),
        ([np.array([0.7]), np.array([1.3])] * 2, [0.0, -0.0, math.pi, -math.pi], True),
        ([shared] * 4, [0.0, -0.0, math.pi, -math.pi], True),
        ([shared, _grid(rng, 50)] * 3, [1e-300, -1e-17, 2.5, 2.5, 1e9, math.pi], True),
        ([np.empty(0), shared, np.empty(0), np.empty(0)], [0.5, 1.0, 1.5, 2.0], False),
        ([], [], False),
    ]
    for seed in range(20):
        n = int(rng.integers(1, 9))
        grids = [_grid(rng, int(rng.integers(1, 30))) for _ in range(3)]
        cases.append(([grids[i] for i in rng.integers(0, 3, n)], rng.uniform(-4.0, 4.0, n), bool(seed % 2)))
    for grids, thetas, specials in cases:
        results = _sweep_results(rng, grids, thetas, specials)
        fh = io.StringIO()
        write_sweep_csv(fh, results)
        assert fh.getvalue() == _stacked_sweep_csv(results)
    fh = io.StringIO()
    write_sweep_csv(fh, [])
    assert fh.getvalue() == "theta_rad,eta_abs,inverse_alpha\n"


def test_sweep_csv_formats_each_grid_once(monkeypatch):
    from dimerdecay import analysis
    fmt_table, shapes = analysis._fmt_table, []

    def recorded(table):
        shapes.append(table.shape)
        return fmt_table(table)

    monkeypatch.setattr(analysis, "_fmt_table", recorded)
    rng = np.random.default_rng(7)
    grid = _grid(rng, 400)
    write_sweep_csv(io.StringIO(), _sweep_results(rng, [grid] * 7, rng.uniform(0.0, math.pi, 7)))
    assert shapes == [(400, 1)]
    shapes.clear()
    other = _grid(rng, 30)
    write_sweep_csv(io.StringIO(), _sweep_results(rng, [grid, grid, other, other, grid, other], [0.0] * 6))
    assert shapes == [(400, 1), (30, 1), (400, 1), (30, 1)]
