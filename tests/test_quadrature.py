"""Quadrature closed forms, limit representations, and functional equations."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from baselkit import quadrature
from baselkit.exact import _RUN_MEMO, CapacityError
from baselkit.quadrature import (
    AccuracyError,
    IntegralKind,
    ProductKind,
    QuadResult,
    functional_eq_dilog,
    functional_eq_inverse,
    integrate,
    product_form,
    riemann_sum,
    sample_monotonicity,
    scaled_dilog,
    scaled_dilog_ode_residual,
    series_integral_pair,
    two_integral_residual,
)
from baselkit.series import bisection_report, eta2_partial_float, zeta2_partial_float

from oracles import (
    CENTRE_NODE,
    dilog_integrand,
    eager_bisection_json,
    grid_terms,
    inverse_integrand,
    kind_integrand,
    level_form,
    nodes_up_to_the_underflow_of_q,
    pair_integrand,
    tanh_sinh_level_by_level,
)

PI2_6 = math.pi**2 / 6
PI2_12 = math.pi**2 / 12

# The binary64 floors, in units of 2^-52, of the two relative contracts below
# (`functional_eq_inverse` and `series_integral_pair`), as their docstrings give them.
INVERSE_FLOOR_ULPS = 8
PAIR_FLOOR_ULPS = 16

# a and b/a of the pair tests: a log-uniform over [1e-12, 1e6], and b/a either
# 0 or log-uniform over [1e-3, 1e12].
_PAIR_AS = st.floats(min_value=-12.0, max_value=6.0).map(lambda e: 10.0**e)
_PAIR_RATIOS = st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=12.0).map(
    lambda e: 10.0**e))


def _pair_reference(r: float, a: float, b: float) -> float:
    """sum_{n>=1} r^n / (a n + b) = (r/a) Phi(r, 1, (a+b)/a), by mpmath at 40
    digits plus those of b/a, which mpmath's Phi(r, 1, v) loses for large v;
    b/a is taken in mpmath, where it cannot overflow.  For |r| <= 1/2 the
    series is summed instead, to 2^-150 of its first term: mpmath's Phi is
    off there for tiny |r| (0.50137 + 0.0039j for 1/2 at r = -1e-300).  The
    sum reaches binary64 through a 40-digit string, which float() rounds
    once: mpmath 1.3.0's float(mpf) rounds to 53 bits and then again to the
    subnormal grid, which below 2^-1022 can miss the nearest binary64."""
    with mpmath.workdps(40 + int(mpmath.log10(1 + mpmath.mpf(b) / a))):
        if abs(r) <= 0.5:
            total = mpmath.fsum(mpmath.mpf(r) ** n / (mpmath.mpf(a) * n + b)
                                for n in range(1, 151))
        else:
            total = mpmath.mpf(r) / a * mpmath.lerchphi(r, 1, (mpmath.mpf(a) + b) / a)
        return float(mpmath.nstr(total, 40))


class TestIntegrate:
    @pytest.mark.parametrize(
        "kind,target",
        [
            (IntegralKind.LOG_OVER_1MT, -PI2_6),
            (IntegralKind.LOG_OVER_1PT, -PI2_12),
            (IntegralKind.LOG1P_OVER_T, PI2_12),
            (IntegralKind.LOG1M_OVER_T, -PI2_6),
        ],
    )
    def test_closed_forms(self, kind, target):
        result = integrate(kind, 1e-12)
        assert kind.closed_form == target
        assert abs(result.value - target) < 1e-10
        assert abs(result.value - target) <= max(1e-12, 10 * result.err_estimate)
        assert result.err_estimate > 0
        assert result.evaluations > 0
        # inside a verification run (QUAD_TOL is 1e-12) a repeated (kind, tol) reads the
        # first call's result, and another tol has its own
        memo = _RUN_MEMO.set({})
        try:
            shared = [integrate(kind, 1e-12), integrate(kind, 1e-6), integrate(kind, 1e-12)]
        finally:
            _RUN_MEMO.reset(memo)
        assert shared[0] is shared[2] and repr(shared[0]) == repr(result)
        assert repr(shared[1]) == repr(integrate(kind, 1e-6)) != repr(result)

    @pytest.mark.parametrize("tol", [1e-12, 1e-13, 1e-14, 1e-15])
    @pytest.mark.parametrize("kind", list(IntegralKind), ids=lambda k: k.value)
    def test_err_estimate_covers_the_error_at_tight_tols(self, kind, tol):
        # the floor |value| 2^-52 leaves no room for rounding in the level sums
        result = integrate(kind, tol)
        assert abs(result.value - kind.closed_form) <= result.err_estimate, result

    def test_independent_oracle(self):
        # mpmath's own tanh-sinh at 30 digits as a second route
        with mpmath.workdps(30):
            oracle, err = mpmath.quad(lambda t: mpmath.log(t) / (1 + t), [0, 1], error=True)
        assert err <= 1e-20
        ours = integrate(IntegralKind.LOG_OVER_1PT, 1e-12).value
        assert abs(ours - oracle) < 1e-9

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            integrate(IntegralKind.LOG_OVER_1MT, 1e-16)
        with pytest.raises(ValueError):
            integrate(IntegralKind.LOG_OVER_1MT, 1e-2)

    def test_parts_identity(self):
        # integration by parts swaps the two pi^2/12 integrands up to sign
        a = integrate(IntegralKind.LOG1P_OVER_T, 1e-12).value
        b = integrate(IntegralKind.LOG_OVER_1PT, 1e-12).value
        assert abs(a + b) < 1e-10

    def test_json_shape(self):
        blob = integrate(IntegralKind.LOG_OVER_1MT, 1e-10).to_json()
        assert set(blob) == {"value", "err_estimate", "evaluations"}


class TestTwoIntegralIdentity:
    def test_tight(self):
        assert two_integral_residual(1e-12) < 1e-11

    def test_loose(self):
        assert two_integral_residual(1e-6) < 1e-5

    def test_cross_value(self):
        lhs = integrate(IntegralKind.LOG_OVER_1MT, 1e-12).value
        assert abs(lhs - 2 * -0.8224670334241132) < 1e-10


class TestRiemannSum:
    def test_single_term(self):
        assert riemann_sum(IntegralKind.LOG_OVER_1MT, 2) == pytest.approx(
            math.log(0.5), abs=1e-15
        )

    def test_converges(self):
        assert abs(riemann_sum(IntegralKind.LOG_OVER_1MT, 100000) + PI2_6) < 1e-2

    def test_refinement_shrinks_error(self):
        for kind in (IntegralKind.LOG_OVER_1MT, IntegralKind.LOG1M_OVER_T,
                     IntegralKind.LOG_OVER_1PT):
            errs = [abs(riemann_sum(kind, n) - kind.closed_form) for n in (500, 8000)]
            assert errs[1] < errs[0]

    def test_coarse_refinement_trend(self):
        for kind in (IntegralKind.LOG_OVER_1MT, IntegralKind.LOG1M_OVER_T,
                     IntegralKind.LOG_OVER_1PT):
            errs = [abs(riemann_sum(kind, n) - kind.closed_form) for n in (2, 4, 8)]
            assert all(b <= a for a, b in zip(errs, errs[1:])), kind

    def test_rejected_kind(self):
        with pytest.raises(ValueError):
            riemann_sum(IntegralKind.LOG1P_OVER_T, 10)

    def test_monotone_samples(self):
        assert sample_monotonicity(IntegralKind.LOG_OVER_1MT, 10000) == 1
        assert sample_monotonicity(IntegralKind.LOG1M_OVER_T, 10000) == -1


class TestProductForm:
    def test_single_factor(self):
        assert product_form(ProductKind.MINUS, 2) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_limits(self):
        assert abs(product_form(ProductKind.MINUS, 100000) + PI2_6) < 1e-2
        assert abs(product_form(ProductKind.PLUS, 100000) - PI2_12) < 1e-2

    def test_refinement_shrinks_error(self):
        for kind in ProductKind:
            errs = [abs(product_form(kind, n) - kind.closed_form) for n in (500, 8000)]
            assert errs[1] < errs[0]


class TestScaledDilog:
    def test_endpoints(self):
        assert scaled_dilog(0.0) == 0.0
        assert abs(scaled_dilog(0.5, "series") - PI2_6) < 1e-11
        assert abs(scaled_dilog(0.5, "integral") - PI2_6) < 1e-11
        assert abs(scaled_dilog(-0.5, "series") + PI2_12) < 1e-11
        assert abs(scaled_dilog(-0.5, "integral") + PI2_12) < 1e-11

    def test_modes_agree_on_grid(self):
        xs = [-0.5 + 0.05 * i for i in range(21)]
        for x in xs:
            s = scaled_dilog(x, "series", 1e-10)
            q = scaled_dilog(x, "integral", 1e-10)
            assert abs(s - q) < 1e-9, f"x={x}"

    def test_against_polylog_oracle(self):
        mpmath.mp.dps = 30
        for x in (-0.5, -0.31, -0.1, 0.2, 0.37, 0.5):
            ref = float(mpmath.polylog(2, 2 * x))
            assert abs(scaled_dilog(x, "series") - ref) < 1e-11
            assert abs(scaled_dilog(x, "integral") - ref) < 1e-11

    @pytest.mark.parametrize("x, bound", [
        (5e-10, 1e-12),  # 1.9e-8 off while the arm (1 - y) + y s rounded y away
        (1e-200, 1e-5),  # 30% off then; 3.4e-6 was the level-1 error of an absolute stop
        (1e-200, 1e-12),
        # within 4 * 2^-52: from |2x| = 2^-53 up (+-5e-10, 1e-15, +-2^-54) the kernel
        # integrates log1p(-y u)/(y u), about -1, and scales by y = 2x afterwards; below
        # it (1e-200, 5e-324, +-2^-55) Li2(2x) rounds to 2x, returned without the kernel,
        # where y u could underflow to 0
        *[(x, 4 * 2.0**-52) for x in (5e-10, -5e-10, 1e-15, 2.0**-54, -(2.0**-54),
                                      1e-200, 5e-324, 2.0**-55, -(2.0**-55))],
    ])
    def test_a_tiny_x_keeps_the_integral_route_relative(self, x, bound):
        with mpmath.workdps(40):
            ref = float(mpmath.polylog(2, 2 * mpmath.mpf(x)))
        assert abs(scaled_dilog(x, "integral", 1e-12) - ref) <= bound * abs(ref)

    def test_the_integral_route_keeps_the_sign_of_zero(self):
        assert math.copysign(1.0, scaled_dilog(0.0, "integral")) == -1.0
        assert math.copysign(1.0, scaled_dilog(-0.0, "integral")) == -1.0

    @pytest.mark.parametrize("y", [0.4, -0.4, 1e-9])
    def test_a_scaled_dilog_integral_carries_its_scale_into_the_best_result(self, y, monkeypatch):
        # at y < 1/2 the kernel integrates log1p(-y u)/(y u) and scales by y, so best is in
        # the units of int_0^y ln(1 - t)/t dt = -Li2(y): the level-1 sum of the oracle, times y
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 1)
        value, err, converged = tanh_sinh_level_by_level(
            level_form(dilog_integrand(y)), 1e-15, 1, y)
        with pytest.raises(AccuracyError) as caught:
            scaled_dilog(y / 2, "integral", 1e-15)
        best = caught.value.best
        assert not converged
        assert (best.value, best.err_estimate) == (value, err)
        assert abs(best.value + float(mpmath.polylog(2, y))) <= 1e-3 * abs(best.value)

    def test_domain(self):
        with pytest.raises(ValueError):
            scaled_dilog(0.51)
        with pytest.raises(ValueError):
            scaled_dilog(0.4, "nonsense")

    def test_derivative_matches_series_slope(self):
        # centered finite difference of the series evaluation against S'(x) = -ln(1 - 2x)/x
        h = 1e-6
        for x in (-0.3, -0.05, 0.1, 0.3):
            slope = (scaled_dilog(x + h, "series") - scaled_dilog(x - h, "series")) / (2 * h)
            assert abs(slope + math.log1p(-2.0 * x) / x) < 1e-7

    def test_ode_residual(self):
        assert scaled_dilog_ode_residual(0.25, 60) < 1e-12
        assert scaled_dilog_ode_residual(0.0, 10) < 1e-15
        # truncation bound is geometric in (2|x|)^n_terms
        assert scaled_dilog_ode_residual(0.4, 20) < 10 * 0.8**19
        with pytest.raises(ValueError):
            scaled_dilog_ode_residual(0.5, 30)


class TestFunctionalEquations:
    def test_dilog_identity_trivial(self):
        assert functional_eq_dilog(0.0) == 0.0

    def test_dilog_identity_endpoint(self):
        assert functional_eq_dilog(1.0) < 1e-9

    def test_dilog_identity_grid(self):
        for i in range(1, 10):
            assert functional_eq_dilog(i / 10) < 1e-9

    @given(x=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @example(x=5e-324)  # y u once underflowed to 0 in the scaled integrand's denominator
    @example(x=2.0**-53)
    @settings(max_examples=25, deadline=None)
    def test_dilog_identity_property(self, x):
        assert functional_eq_dilog(x) < 1e-9

    def test_inverse_identity(self):
        assert functional_eq_inverse(1.0) == 0.0
        assert functional_eq_inverse(math.e) < 1e-9
        for x in (0.1, 0.5, 2.0, 10.0):
            assert functional_eq_inverse(x) < 1e-9

    def test_inverse_symmetry_is_exact(self):
        assert functional_eq_inverse(0.1) == functional_eq_inverse(10.0)

    def test_inverse_domain(self):
        # x and 1/x must both be positive and finite; 1/5e-324 overflows
        for x in (0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324):
            start = time.perf_counter()
            with pytest.raises(ValueError):
                functional_eq_inverse(x)
            assert time.perf_counter() - start < 0.1
        for x in (1e4, 1e-4, 1e5, 1e-5, 1e20, 1e300):
            lx = math.log(x)
            assert functional_eq_inverse(x) <= 1e-12 * lx * lx / 2, x

    def test_inverse_log_uniform_grid(self):
        rng = random.Random(3)
        for _ in range(500):
            x = 10.0 ** rng.uniform(-4.0, 4.0)
            assert functional_eq_inverse(x, 1e-12) <= 1e-12, x

    @given(
        e=st.floats(min_value=-307.0, max_value=math.log10(1.7e308)),
        tol=st.sampled_from((1e-12, 1e-6, 1e-3)),
    )
    @example(e=-307.0, tol=1e-12)
    @example(e=math.log10(1.7e308), tol=1e-3)
    @example(e=1e-12, tol=1e-12)  # x = 1 + 2.3e-12: ln x is tiny, and so is the bound
    @settings(max_examples=60, deadline=None)
    def test_inverse_residual_is_relative_to_half_log_squared(self, e, tol):
        # twice the documented bound: the kernel stops when two levels agree,
        # and over 10^5 log-uniform x at tol 1e-6, 22 residuals exceeded tol,
        # the worst by 1.5 times.  Rarer level pairs that agree while both
        # miss give more (449 tol at x = 2.3829078157115738e59 and 278 tol at
        # x = 3.287840675381471e231, both at tol 1e-12), see the docstring.
        x = 10.0**e
        lx = math.log(x)
        assert functional_eq_inverse(x, tol) <= max(tol, INVERSE_FLOOR_ULPS * 2.0**-52) * lx * lx, x

    @pytest.mark.parametrize("x, tol", [
        # 42.2 times the contract: levels 1 and 2 of h(x) agree to 1.25e-8, both 7.6e-7 off
        pytest.param(3.5984773908353653e-66, 1.8293137418183592e-08,
                     marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3")),
        # 277.9 times the contract, the same way
        pytest.param(3.287840675381471e231, 1e-12,
                     marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3")),
        # 112.5 times: the worst of the 10^5 (x, tol) draws in the docstring
        pytest.param(4.0242598639250284e-22, 1.2943264646999796e-08,
                     marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3")),
        # 449.4 times: the one miss of 4 * 10^5 log-uniform x at tol 1e-12
        pytest.param(2.3829078157115738e59, 1e-12,
                     marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3")),
    ])
    def test_inverse_known_misses_meet_the_contract(self, x, tol):
        # two levels that miss the same part of a peak agree, and the kernel stops
        lx = math.log(x)
        assert functional_eq_inverse(x, tol) <= max(tol, INVERSE_FLOOR_ULPS * 2.0**-52) * lx * lx / 2


class TestSeriesIntegralPair:
    def test_log_two(self):
        s, i = series_integral_pair(0.5, 1.0, 0.0)
        assert abs(s - math.log(2)) < 1e-11
        assert abs(i - math.log(2)) < 1e-11

    def test_alternating_endpoint(self):
        s, i = series_integral_pair(-1.0, 1.0, 0.0, 1e-8)
        assert abs(s + math.log(2)) < 1e-7
        assert abs(i + math.log(2)) < 1e-10
        assert abs(s - i) < 1e-7

    def test_generic_parameters(self):
        s, i = series_integral_pair(0.9, 2.0, 3.0, 1e-10)
        assert abs(s - i) < 1e-8

    def test_agreement_contract(self):
        for r, a, b in [(0.5, 1.0, 0.0), (-0.9, 1.0, 0.0), (0.9, 2.0, 3.0)]:
            s, i = series_integral_pair(r, a, b, 1e-10)
            assert abs(s - i) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            series_integral_pair(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            series_integral_pair(0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            series_integral_pair(0.5, 1.0, -1.0)
        start = time.perf_counter()
        with pytest.raises(ValueError):
            series_integral_pair(0.5, math.nan, 0.0)
        with pytest.raises(ValueError):
            series_integral_pair(0.5, 1.0, math.nan)
        for a, b in [(math.inf, 0.0), (math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf),
                     (-math.inf, 0.0), (1.0, -math.inf)]:
            with pytest.raises(ValueError):
                series_integral_pair(0.5, a, b)
        assert time.perf_counter() - start < 0.1  # rejected, not summed to the budget

    @pytest.mark.parametrize("r, a", [(1 - 1e-10, 5e-324), (0.5, 1e-320), (-0.5, 1e-310),
                                      (-1.0, 1e-320)])
    def test_subnormal_a_raises_value_error(self, r, a):
        with pytest.raises(ValueError, match="a must be at least PAIR_A_MIN"):
            series_integral_pair(r, a, 0.0)

    @pytest.mark.parametrize(
        "r, a, b, tol",
        [
            (1e-6, 1e-10, 1e-9, 1e-10),  # the integral half read 907.56 for 909.09
            (-0.06, 1e-10, 1e-4, 1e-10),  # a miss of 3.6e4 tol
            (0.5, 1.0, 100.0, 1e-3),  # the old peak u^100 at a coarse tol
            # sum 8.68, levels 8.9e-15 apart: the stop asked for tol below the
            # contract's floor and hit the level cap
            (0.5 ** (1 / 4096), 1.0, 0.0, 1e-15),
            # a + b near PAIR_A_MIN and r near 1: f overflowed, and the
            # integral half raised AccuracyError at every tol
            (1 - 2.0**-53, 2.0863686426010246e-301, 0.0, 1e-15),
            (1 - 1e-9, 2.0**-1000, 0.0, 1e-3),
        ],
    )
    def test_found_inputs_meet_the_lerch_reference(self, r, a, b, tol):
        ref = _pair_reference(r, a, b)
        for value in series_integral_pair(r, a, b, tol):
            assert abs(value - ref) <= 2.0 * tol * max(1.0, abs(ref)), (value, ref)

    @pytest.mark.parametrize("a", [1e-10, 1e-20, 1e-100])
    def test_ratio_far_past_one_returns_values(self, a):
        # b/a = 1e10, 1e20, 1e100: the old integral half read 0.0034, 0.070 and
        # 7.0e78 where the sum is about 1
        ref = _pair_reference(0.5, a, 1.0)
        for value in series_integral_pair(0.5, a, 1.0):
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (value, ref)

    @given(
        r=st.one_of(st.just(-1.0), st.floats(min_value=-1.0, max_value=1.0, exclude_max=True)),
        a=_PAIR_AS,
        ratio=_PAIR_RATIOS,
        tol=st.sampled_from((1e-15, 1e-12, 1e-10)),
    )
    @example(r=0.5, a=1.0, ratio=1e6, tol=1e-10)
    @example(r=0.99, a=1.0, ratio=1e3, tol=1e-12)
    @example(r=0.5, a=1e-12, ratio=1e12, tol=1e-15)
    @example(r=1 - 1e-9, a=1.0, ratio=1e10, tol=1e-12)  # 2.4e10 terms: CapacityError before the tail
    @settings(max_examples=60, deadline=None)
    def test_halves_agree_to_tol_or_raise(self, r, a, ratio, tol):
        # no CapacityError at any r: the series half hands _power_sum at most
        # _SERIES_TERMS = 60 terms, and only the integral half may raise
        b = ratio * a
        counted = _CountedPowerSum()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "_power_sum", counted)
            try:
                s, i = series_integral_pair(r, a, b, tol)
            except AccuracyError:
                s = i = None
        assert len(counted.counts) <= 1, counted.counts
        assert all(n <= quadrature._SERIES_TERMS for n in counted.counts), counted.counts
        if s is not None:
            bound = 2.0 * max(tol, PAIR_FLOOR_ULPS * 2.0**-52) * max(1.0, abs(s))
            assert abs(s - i) <= bound, (s, i)

    @pytest.mark.parametrize("r", [0.9, -0.9])
    def test_a_scaled_integral_carries_its_scale_into_the_best_result(self, r, monkeypatch):
        # a = 1 and a = 2^-1000 integrate the same g; only the scale r / a differs, by 2^1000
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 1)
        best = []
        for a in (1.0, 2.0**-1000):
            with pytest.raises(AccuracyError) as caught:
                series_integral_pair(r, a, 0.0, 1e-15)
            best.append(caught.value.best)
        assert best[1].value == best[0].value * 2.0**1000
        assert best[1].err_estimate == best[0].err_estimate * 2.0**1000
        assert (best[0].value > 0.0) == (r > 0.0) and best[0].err_estimate > 0.0

    def test_smallest_decade_of_a_keeps_its_values(self):
        # both within 1 ulp of 1e300 ln 2 = 6.931471805599453e299
        s, i = series_integral_pair(0.5, 1e-300, 0.0)
        assert (s, i) == (6.931471805599452e299, 6.931471805599454e299)

    # A sum of 1e-294, far below the absolute floor of the contract: b = 1e300 swamps a n.
    _TINY_SUM = (1 - 1e-6, 2.0**-1000, 1e300, 1e-12)

    def test_a_tiny_sum_keeps_its_series_half_relative(self):
        # the series half once stopped at an absolute tol and read 9.99999e-301
        r, a, b, tol = self._TINY_SUM
        ref = r / ((1 - r) * b)
        assert abs(series_integral_pair(r, a, b, tol)[0] - ref) <= 2 * 2.0**-52 * ref

    def test_a_tiny_sum_keeps_its_integral_half_relative(self):
        # the integral half once stopped at an absolute tol and read 3.4e-6 relative off;
        # the kernel now integrates 1/(1 - r w^p), at least 1/2, and lies 0.78 * 2^-52 off
        r, a, b, tol = self._TINY_SUM
        ref = r / ((1 - r) * b)
        integral = series_integral_pair(r, a, b, tol)[1]
        assert abs(integral - ref) <= PAIR_FLOOR_ULPS * 2.0**-52 * ref, (integral, ref)

    def test_an_overflowing_ratio_keeps_the_euler_route_relative(self):
        # b/a = 1e310 overflows to inf: the transform's first term 1/v once read 0,
        # so the series half returned -0.0 for a sum of -3.33e-301
        r, a, b = -0.5, 1e-10, 1e300
        ref = r / ((1 - r) * b)
        series = series_integral_pair(r, a, b)[0]
        assert abs(series - ref) <= 2 * 2.0**-52 * abs(ref), (series, ref)

    @pytest.mark.parametrize("r", [0.5, 0.9, 0.999])
    def test_a_huge_a_keeps_both_halves_relative(self, r):
        # a n overflowed to inf from n = 18 at a = 1e307, and the series half read those
        # terms as 0: 5.8e-7, 2.6e-2 and 0.51 relative off -ln(1 - r)/a
        a = 1e307
        with mpmath.workdps(40):
            ref = float(-mpmath.log1p(-mpmath.mpf(r)) / a)
        series, integral = series_integral_pair(r, a, 0.0)
        assert abs(series - ref) <= 2 * 2.0**-52 * ref, (series, ref)
        assert abs(integral - ref) <= PAIR_FLOOR_ULPS * 2.0**-52 * ref, (integral, ref)

    def test_an_overflowing_a_plus_b_keeps_both_halves(self):
        # a + b overflows to inf: p and r/(a+b) read 0, and both halves once returned
        # -0.0 for a sum of -1.89e-309
        r, a, b = -0.5, 1e308, 1e308
        ref = _pair_reference(r, a, b)
        for value in series_integral_pair(r, a, b):
            assert abs(value - ref) <= 2.0**-1074, (value, ref)

    @given(
        r=st.one_of(st.just(-1.0), st.floats(min_value=-1.0, max_value=1.0, exclude_max=True),
                    st.floats(min_value=-12.0, max_value=-1.0).map(lambda e: 1.0 - 10.0**e)),
        a_b=st.tuples(st.floats(min_value=-12.0, max_value=12.0).map(lambda e: 10.0**e),
                      _PAIR_RATIOS).map(lambda t: (t[0], t[0] * t[1])),
        tol=st.sampled_from((1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3)),
    )
    @example(r=_TINY_SUM[0], a_b=_TINY_SUM[1:3], tol=_TINY_SUM[3])
    @example(r=0.5, a_b=(1e12, 1e24), tol=1e-3)  # a sum of 1e-24, once within 1e-3 absolute
    @settings(max_examples=60, deadline=None)
    def test_the_integral_half_is_relative_to_a_normal_sum(self, r, a_b, tol):
        # the kernel integrates g = 1 / (1 - r w^p), whose integral is at least 1/2, and
        # scales by r / (a + b) afterwards, so its stop is relative to the sum
        a, b = a_b
        ref = _pair_reference(r, a, b)
        assume(abs(ref) >= 2.0**-1022)
        integral = series_integral_pair(r, a, b, tol)[1]
        assert abs(integral - ref) <= max(tol, PAIR_FLOOR_ULPS * 2.0**-52) * abs(ref), (
            integral, ref)

    @pytest.mark.parametrize("scale", [1.0, 1e-10])
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: two levels that miss together")
    def test_a_known_miss_of_the_integral_half(self, scale):
        # 1 of 3,000 draws like the sweep above: two levels 4.6 times the bound off agree at
        # tol 1e-3; at scale 1e-10 the sum is 238, and the same miss breaks the contract itself
        r, a, b, tol = 0.9999996682897614, 433113368.5470257 * scale, 24179845135.403473 * scale, 1e-3
        ref = _pair_reference(r, a, b)
        assert abs(series_integral_pair(r, a, b, tol)[1] - ref) <= tol * abs(ref)

    @given(
        r=st.one_of(st.just(-1.0), st.floats(min_value=-1.0, max_value=1.0, exclude_max=True)),
        a=st.floats(min_value=5e-324, max_value=1e-300),
        b=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
        tol=st.sampled_from((1e-15, 1e-12, 1e-3)),
    )
    @example(r=1 - 1e-10, a=5e-324, b=0.0, tol=1e-12)
    @example(r=0.99, a=2.3e-308, b=0.0, tol=1e-12)
    @example(r=0.5, a=1e-300, b=0.0, tol=1e-12)
    @settings(max_examples=60, deadline=None)
    def test_tiny_a_returns_finite_values_or_raises(self, r, a, b, tol):
        try:
            values = series_integral_pair(r, a, b, tol)
        except ValueError as exc:
            assert str(exc).startswith("a must be at least PAIR_A_MIN"), exc
            return
        assert all(map(math.isfinite, values)), values

    @given(
        r=st.floats(min_value=-0.95, max_value=0.95, allow_nan=False),
        a=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_pair_property(self, r, a, b):
        s, i = series_integral_pair(r, a, b, 1e-10)
        assert abs(s - i) < 1e-8

    @given(
        r=st.one_of(st.just(-1.0),
                    st.floats(min_value=-15.0, max_value=-1.0).map(lambda e: -(1.0 - 10.0**e))),
        a_b=st.tuples(_PAIR_AS, _PAIR_RATIOS).map(lambda t: (t[0], t[0] * t[1])),
        tol=st.sampled_from((1e-15, 1e-12, 1e-10)),
    )
    # b/a overflows to inf: Boole summation raised OverflowError here
    @example(r=-1.0, a_b=(2.0**-1000, 1e300), tol=1e-12)
    @example(r=-1.0, a_b=(1e-300, 1.7e308), tol=1e-12)
    @settings(max_examples=60, deadline=None)
    def test_r_near_minus_one_meets_the_reference_without_raising(self, r, a_b, tol):
        # no term budget applies: every r < 0 takes Euler's transform
        a, b = a_b
        ref = _pair_reference(r, a, b)
        for value in series_integral_pair(r, a, b, tol):
            assert _within_pair_contract(value, ref, tol), (value, ref)


def _within_pair_contract(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= max(tol, PAIR_FLOOR_ULPS * 2.0**-52) * max(1.0, abs(ref))


def _euler_route(r: float) -> bool:
    """Whether the documented rule takes the series from Euler's transform."""
    return r < 0.0


def _tail_route(r: float) -> bool:
    """Whether the documented rule adds the Euler-Maclaurin tail to the series."""
    return r >= 0.5


class _CountedPowerSum:
    """`_power_sum`, recording the term count of each call that reaches it."""

    def __init__(self):
        self.counts, self.real = [], quadrature._power_sum

    def __call__(self, q, denominator, n_terms):
        self.counts.append(n_terms)
        return self.real(q, denominator, n_terms)


class TestPairExpansions:
    """The series half's routes, chosen by r alone: Euler's transform for
    r < 0 (r = -1 included), the first 60 terms for r in [0, 1/2), and for
    r in [1/2, 1) the first 39 terms summed plus the Euler-Maclaurin tail,
    with the B_2k of `exact`, from n = 40."""

    @pytest.mark.parametrize("r, a, b, tol", [
        (-1.0, 1e-6, 0.0, 1e-12),  # the midpoint rule wanted 1e9 terms here
        (-1.0, 1e-3, 0.0, 1e-12),
        (1 - 1e-9, 1.0, 0.0, 1e-12),  # the geometric rule wanted 2.4e10
        (-1 + 1e-9, 1.0, 0.0, 1e-12),  # and 2.4e10 here, where CapacityError was raised
        pytest.param(1 - 1e-9, 1.0, 1e10, 1e-12, id="README"),  # 2.4e10 and CapacityError, v |mu| ~ 10
        (0.9999, 1.0, 1e5, 1e-10),  # a sum of 196,358 terms, 9.7e-11 off and 30 ms
        (1 - 1e-6, 2.0**-1000, 1e8, 1e-12),  # b/a overflows; 2.3e7 terms and CapacityError
    ])
    def test_long_series_meet_the_lerch_reference_at_once(self, r, a, b, tol):
        ref = _pair_reference(r, a, b)
        series_integral_pair(r, a, b, tol)  # builds the nodes and B_k, G_k used below
        start = time.perf_counter()
        values = series_integral_pair(r, a, b, tol)
        assert time.perf_counter() - start < 0.01
        for value in values:
            assert _within_pair_contract(value, ref, tol), (value, ref)

    def test_the_readme_example_has_both_halves_within_32_ulps(self):
        # 2.4e10 terms by the geometric rule: 39 summed terms plus the Euler-Maclaurin
        # tail, at the default tol; the halves lie 1.37 * 2^-52 relative apart
        series, integral = series_integral_pair(1 - 1e-9, 1.0, 1e10)
        assert math.isfinite(series) and math.isfinite(integral)
        assert abs(series - integral) <= 32 * 2.0**-52 * max(abs(series), abs(integral))

    @pytest.mark.parametrize("check_id, counts, tail_xs", [
        ("series_vs_integral_4", [60], []),  # r = 1/4: the first 60 terms
        ("series_vs_integral_5", [], []),  # r = -1: Euler's transform
        # r = 0.999: 39 terms, then a tail whose x = -mu (40 + b/a) is below 1, so
        # e^x E1(x) is the series in x, the one reader of _EULER_GAMMA
        ("series_vs_integral_6", [39], [pytest.approx(0.04002, abs=1e-5)]),
    ])
    def test_the_suite_rows_take_the_routes_they_were_added_for(self, check_id, counts, tail_xs,
                                                                monkeypatch):
        from baselkit.verify import run_suite

        counted, xs, tail = _CountedPowerSum(), [], quadrature._pair_tail

        def recorded_tail(mu, a, b):
            xs.append(-mu * (quadrature._TAIL_START + b / a))
            return tail(mu, a, b)

        monkeypatch.setattr(quadrature, "_power_sum", counted)
        monkeypatch.setattr(quadrature, "_pair_tail", recorded_tail)
        [row] = run_suite([check_id])
        assert row.status == "pass", row
        assert counted.counts == counts
        assert xs == tail_xs

    def test_the_benchmark_case_sums_39_terms(self, monkeypatch):
        counted = _CountedPowerSum()
        monkeypatch.setattr(quadrature, "_power_sum", counted)
        series, _ = series_integral_pair(0.9999, 1.0, 0.0, 1e-10)
        assert counted.counts == [39]
        assert abs(series + math.log1p(-0.9999)) <= 4 * 2.0**-52 * abs(series)

    @given(
        r=st.one_of(st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
                    st.floats(min_value=-16.0, max_value=-0.31).map(
                        lambda e: 1.0 - max(10.0**e, 2.0**-53))),
        a=st.one_of(st.just(quadrature.PAIR_A_MIN), _PAIR_AS),
        reach=st.floats(min_value=-16.0, max_value=6.0).map(lambda e: 10.0**e),
    )
    @example(r=1 - 2.0**-53, a=quadrature.PAIR_A_MIN, reach=0.0)
    @example(r=1 - 2.0**-53, a=1.0, reach=1e6)
    @example(r=0.5, a=quadrature.PAIR_A_MIN, reach=0.0)
    @example(r=0.5, a=1e6, reach=1e6)
    @example(r=1 - 1e-9, a=1.0, reach=1.0 - 39e-9)  # x = v |mu| + 39 |mu| = 1
    @example(r=1 - 1e-9, a=1.0, reach=1.0 - 40e-9)  # just below it, on the E1 series
    @settings(max_examples=80, deadline=None)
    def test_tail_route_meets_the_reference_at_every_reach(self, r, a, reach):
        # b is chosen so that v |mu| = reach, where v >= 1 allows it; every r >= 1/2
        # takes the tail, after one sum of 39 terms
        b = a * max(0.0, reach / -math.log(r) - 1.0)
        counted = _CountedPowerSum()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "_power_sum", counted)
            series = quadrature._pair_series(r, a, b)
        assert counted.counts == [39]
        assert _within_pair_contract(series, _pair_reference(r, a, b), 1e-15)

    @given(
        r=st.one_of(st.just(-1.0), st.floats(min_value=-1.0, max_value=-5e-324)),
        a=_PAIR_AS,
        ratio=_PAIR_RATIOS,
    )
    @example(r=-1.0, a=1e-12, ratio=0.0)
    @example(r=-1.0, a=1.0, ratio=19.0)
    @example(r=-1.0, a=2.0**-1000, ratio=2.0**1000)  # v = 2^1000: the terms past 1/v underflow
    @settings(max_examples=60, deadline=None)
    def test_euler_route_meets_the_reference(self, r, a, ratio):
        # every r < 0 takes the transform, which hands _power_sum nothing
        b = ratio * a
        counted = _CountedPowerSum()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "_power_sum", counted)
            series = quadrature._pair_series(r, a, b)
        assert counted.counts == []
        assert _within_pair_contract(series, _pair_reference(r, a, b), 1e-15)

    @given(r=st.floats(min_value=0.0, max_value=0.5, exclude_max=True), a=_PAIR_AS,
           ratio=_PAIR_RATIOS)
    @example(r=0.5 - 2.0**-54, a=quadrature.PAIR_A_MIN, ratio=0.0)
    @example(r=0.0, a=1.0, ratio=0.0)
    @example(r=2.225073858507203e-309, a=10.0**-0.25, ratio=0.0)  # a subnormal sum
    @settings(max_examples=60, deadline=None)
    def test_short_route_meets_the_reference_relatively(self, r, a, ratio):
        # r in [0, 1/2): 60 terms of ratio at most r, held to 2 * 2^-52 of the sum
        b = ratio * a
        counted = _CountedPowerSum()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "_power_sum", counted)
            series = quadrature._pair_series(r, a, b)
        assert counted.counts == [60]
        ref = _pair_reference(r, a, b)
        assert abs(series - ref) <= 2 * 2.0**-52 * abs(ref), (series, ref)

    @given(r=st.one_of(st.just(-1.0), st.just(0.5),
                       st.floats(min_value=-1.0, max_value=1.0, exclude_max=True)),
           a=_PAIR_AS, ratio=_PAIR_RATIOS)
    @settings(max_examples=60, deadline=None)
    def test_series_half_is_the_same_at_every_tol(self, r, a, ratio):
        # the integral half, which alone reads tol and may reach the level cap, is stubbed
        b = ratio * a
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "_tanh_sinh_unit",
                          lambda terms_of, tol, scale=1.0: QuadResult(0.0, 0.0, 0))
            series = [series_integral_pair(r, a, b, tol)[0] for tol in (1e-15, 1e-3)]
        assert repr(series[0]) == repr(series[1]), series


def test_err_estimate_never_zero():
    for kind in IntegralKind:
        assert integrate(kind, 1e-8).err_estimate > 0.0


def test_level_cap_raises_with_best_result(monkeypatch):
    import baselkit.quadrature as quad

    monkeypatch.setattr(quad, "_MAX_LEVEL", 1)
    with pytest.raises(AccuracyError) as exc:
        integrate(IntegralKind.LOG_OVER_1MT, 1e-12)
    best = exc.value.best
    assert math.isfinite(best.value)
    assert best.err_estimate > 0
    # the carried best value is still a usable coarse approximation
    assert abs(best.value + PI2_6) < 0.1


# terms_of of the four kinds as `integrate` passes them, and of three scalar f
_SAMPLE_FORMS = [quadrature._level_terms(kind) for kind in IntegralKind] + [level_form(f) for f in (
    lambda t, omt: math.cos(omt) / math.sqrt(t),
    lambda t, omt: math.exp(t) / (omt + 1e-3),
    lambda t, omt: 1.0 / (1.0 + 25.0 * (t - 0.3) ** 2),
)]


@pytest.mark.parametrize("cap", [0, 1, 3, 12])
def test_nested_levels_give_the_bits_of_fresh_levels(cap, monkeypatch):
    # cap 12 runs past the default _MAX_LEVEL: the node cache is not tied to it
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", cap)
    for terms_of in _SAMPLE_FORMS:
        for tol in (1e-3, 1e-12, 1e-15, 0.0):
            value, err, converged = tanh_sinh_level_by_level(terms_of, tol, cap)
            try:
                result = quadrature._tanh_sinh_unit(terms_of, tol)
            except AccuracyError as exc:
                assert not converged
                result = exc.best
            else:
                assert converged
            assert (repr(result.value), repr(result.err_estimate)) == (repr(value), repr(err))


def test_the_weight_floor_drops_no_bit_of_any_library_integrand(monkeypatch):
    # every f the library integrates, drawn at its call's extremes, against
    # the oracle's sum over every node up to the underflow of q
    kernel, calls = quadrature._tanh_sinh_unit, []

    def recorder(terms_of, tol, scale=1.0):
        calls.append((terms_of, tol, scale, kernel(terms_of, tol, scale)))
        return calls[-1][3]

    monkeypatch.setattr(quadrature, "_tanh_sinh_unit", recorder)
    for kind in IntegralKind:
        integrate(kind)
    series_integral_pair(1.0 - 2.0**-53, 1.0, 0.0)
    for x in (0.5, -0.5):
        scaled_dilog(x, "integral")
    for x in (1.0, -1.0):
        functional_eq_dilog(x)
    for x in (1e308, 1e-307):
        functional_eq_inverse(x)
    assert len(calls) == 4 + 1 + 2 + 6 + 4
    for terms_of, tol, scale, result in calls:
        value, err, converged = tanh_sinh_level_by_level(terms_of, tol, quadrature._MAX_LEVEL,
                                                         scale)
        assert converged
        assert (repr(result.value), repr(result.err_estimate)) == (repr(value), repr(err))


def _forms_passed(call):
    """terms_of of each kernel call that call() makes, in order."""
    kernel, forms = quadrature._tanh_sinh_unit, []

    def recorder(terms_of, tol, scale=1.0):
        forms.append(terms_of)
        return kernel(terms_of, tol, scale)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_tanh_sinh_unit", recorder)
        call()
    return forms


def _inverse_case(big_l):
    x = math.exp(big_l)
    lx = math.log(max(x, 1.0 / x))
    return (lambda: functional_eq_inverse(x),
            [inverse_integrand(-lx, 2.0), inverse_integrand(lx, 2.0 * max(lx, 1.0) ** 2)])


def _pair_case(r, a, b):
    return lambda: series_integral_pair(r, a, b), [pair_integrand(r, a, b)]


_LEVEL_FORM_CASES = {
    **{kind.value: (lambda kind=kind: integrate(kind), [kind_integrand(kind)])
       for kind in IntegralKind},
    **{f"dilog y={y!r}": (lambda y=y: quadrature._unit_log_kernel(y, 1e-12), [dilog_integrand(y)])
       # at y = 0.6 the two arms give different bits at u = 1/2, where the centre's two
       # halves take one each; below y = 1/2 every u takes log1p(-y u)/(y u)
       for y in (1.0, 0.6, 0.5, 0.1, 2.0**-30, -(2.0**-30), -0.5, -1.0)},
    **{f"inverse L={big_l!r}": _inverse_case(big_l) for big_l in (1e-12, 1.0, 700.0)},
    **{f"pair r={r!r}": _pair_case(r, 1.0, 0.5)
       for r in (1.0 - 2.0**-53, 0.9, 0.3, 0.0, -0.9, -1.0)},
    # a + b = 1.5 * 2^-1000, where r / (a + b) is near 2^1000: it stays outside the integrand
    "pair a = PAIR_A_MIN": _pair_case(0.5, quadrature.PAIR_A_MIN, quadrature.PAIR_A_MIN / 2),
}


@pytest.mark.parametrize("case", list(_LEVEL_FORM_CASES))
def test_each_level_form_gives_the_bits_of_its_scalar_form(case):
    # w * (f(c, s) + f(s, c)) at the centre and at every node of levels 0..10, with the
    # scalar f choosing its arm at each call where the level form fixes it per half
    call, scalars = _LEVEL_FORM_CASES[case]
    forms = _forms_passed(call)
    assert len(forms) == len(scalars)
    for terms_of, f in zip(forms, scalars):
        for level in range(-1, quadrature._MAX_LEVEL + 1):
            nodes = CENTRE_NODE if level < 0 else quadrature._level_nodes(level)
            assert level < 0 or all(s <= 0.4993 and c > 0.5 for _, s, c in nodes)
            expected = [w * (f(c, s) + f(s, c)) for w, s, c in nodes]
            assert list(map(repr, terms_of(nodes))) == list(map(repr, expected)), level


def test_one_suite_run_makes_its_pinned_evaluations_and_integrals(monkeypatch):
    # 19 integrate calls read 3 distinct (kind, tol), each integrated once in the run:
    # ln t/(1-t) and ln(1-t)/t share one level function and one integral
    from baselkit.verify import run_suite

    kernel, counts = quadrature._tanh_sinh_unit, []

    def recorder(terms_of, tol, scale=1.0):
        try:
            result = kernel(terms_of, tol, scale)
        except AccuracyError as exc:
            counts.append(exc.best.evaluations)
            raise
        counts.append(result.evaluations)
        return result

    monkeypatch.setattr(quadrature, "_tanh_sinh_unit", recorder)
    run_suite()
    assert (sum(counts), len(counts)) == (6050, 64)


class _Recording:
    """An integrand that records every (t, 1 - t) pair it is called with."""

    def __init__(self, f):
        self.f, self.pairs = f, []

    def __call__(self, t, omt):
        self.pairs.append((t, omt))
        return self.f(t, omt)


def _calls_for_levels(top: int) -> int:
    return 1 + 2 * sum(len(quadrature._level_nodes(level)) for level in range(top + 1))


@pytest.mark.parametrize("kind", list(IntegralKind), ids=lambda k: k.value)
def test_evaluations_count_the_calls_to_f(kind, monkeypatch):
    cap_max = quadrature._MAX_LEVEL
    for tol in (1e-3, 1e-8, 1e-12, 1e-15):
        for cap in range(cap_max + 1):  # up to the lowest cap that converges
            monkeypatch.setattr(quadrature, "_MAX_LEVEL", cap)
            f = _Recording(kind_integrand(kind))
            try:
                result, converged = quadrature._tanh_sinh_unit(level_form(f), tol), True
            except AccuracyError as exc:
                result, converged = exc.best, False
            # every level up to the cap was used, and evaluations counts distinct points:
            # f(1/2, 1/2) is called by both halves of the centre node, every other point once
            assert result.evaluations == len(set(f.pairs)) == len(f.pairs) - 1
            assert result.evaluations == _calls_for_levels(cap)
            if converged:
                break
        assert converged
    assert [len(quadrature._level_nodes(level)) for level in range(11)] == [
        4, 4, 9, 17, 34, 69, 138, 275, 550, 1101, 2201]


def test_the_weight_floor_ends_every_level():
    # uncached, as level 17 has 281,753 nodes
    kept = 0
    for level in range(18):
        nodes = quadrature._level_nodes.__wrapped__(level)
        full = list(nodes_up_to_the_underflow_of_q(level, 1 if level == 0 else 2))
        assert nodes == tuple(full[:len(nodes)]), level
        assert min(weight for weight, _, _ in nodes) >= quadrature._WEIGHT_MIN
        assert full[len(nodes)][0] < quadrature._WEIGHT_MIN
        # nested levels: a level adds as many nodes as it keeps, or one more
        assert level == 0 or len(nodes) in (kept, kept + 1), level
        kept += len(nodes)


def test_importing_the_cli_builds_no_nodes():
    code = "import baselkit.cli, baselkit.quadrature as q; print(q._level_nodes.cache_info().currsize)"
    src = str(Path(quadrature.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert done.stdout == "0\n"


def test_threads_on_a_cold_node_cache_give_the_serial_bits():
    jobs = [(kind, tol) for kind in IntegralKind for tol in (1e-6, 1e-12, 1e-15)] * 4
    serial = [repr(integrate(kind, tol)) for kind, tol in jobs]
    quadrature._level_nodes.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(integrate, kind, tol) for kind, tol in jobs]
            threaded = [repr(future.result(timeout=60)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def _first_terms(q, denominator):
    """The documented sum's terms q^n / d(n), n = 1..60, written out as a plain list."""
    terms, power = [], 1.0
    for n in range(1, 61):
        power *= q
        terms.append(power / denominator(n))
    return terms


def _reduced_argument(q: float) -> list[float]:
    """The z that `scaled_dilog`'s series sums for q = 2x, by its docstring:
    none at q = +-1, Landen's q/(q-1) for q < 0, Euler's 1-q for q > 1/2."""
    if abs(q) == 1.0:
        return []
    return [q / (q - 1.0) if q < 0.0 else 1.0 - q if q > 0.5 else q]


def test_series_kernels_match_the_documented_rules_bit_for_bit(monkeypatch):
    rng = random.Random(2013)
    tols = (1e-12, 1e-10, 1e-8, 1e-6, 1e-3)
    sums = []
    power_sum = quadrature._power_sum

    def recorded(z, denominator, n_terms):
        sums.append((z, n_terms, power_sum(z, denominator, n_terms)))
        return sums[-1][2]

    monkeypatch.setattr(quadrature, "_power_sum", recorded)
    for x in [0.5, -0.5, 0.4999, -0.4999] + [rng.uniform(-0.5, 0.5) for _ in range(150)]:
        tol = rng.choice(tols)
        sums.clear()
        value = scaled_dilog(x, "series", tol)
        assert [z for z, _, _ in sums] == _reduced_argument(2.0 * x), (x, tol)
        for z, _, got in sums:
            assert got == math.fsum(_first_terms(z, lambda n: n * n)), (x, tol)
        with mpmath.workdps(40):
            ref = float(mpmath.polylog(2, 2 * mpmath.mpf(x)))
        assert abs(value - ref) <= 2 * 2.0**-52 * abs(ref), (x, tol, value, ref)
    expanded = 0
    for r in [-1.0, 0.9999, -0.9999] + [rng.uniform(-0.99, 0.99) for _ in range(150)]:
        a, b = rng.uniform(0.5, 4.0), rng.choice([0.0, rng.uniform(0.0, 5.0)])
        tol = rng.choice(tols[2:] if abs(r) > 0.99 else tols)
        sums.clear()
        series = series_integral_pair(r, a, b, tol)[0]
        if _euler_route(r) or _tail_route(r):
            # an expansion, after 39 summed terms on the tail route: held to the
            # contract's floor, which is tighter than tol here
            assert [n for _, n, _ in sums] == ([39] if r > 0.0 else []), (r, a, b, tol)
            assert _within_pair_contract(series, _pair_reference(r, a, b), 0.0), (r, a, b, tol)
            expanded += 1
        else:
            assert series == math.fsum(_first_terms(r, lambda n: a * n + b)), (r, a, b, tol)
    assert 0 < expanded < 153


def test_series_terms_stream_into_fsum():
    # 10^5 terms; a list of them would peak near 3.2 MB, 16 times the bound
    tracemalloc.start()
    try:
        zeta2_partial_float(10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def test_sample_monotonicity_streams_the_grid():
    # 10^5 samples; the two lists it once built would hold about 7 MB
    tracemalloc.start()
    try:
        direction = sample_monotonicity(IntegralKind.LOG_OVER_1MT, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert direction == 1
    assert peak < 200_000


def _listed_monotonicity(values: list[float]) -> int:
    """The list-building form of sample_monotonicity, as a reference."""
    diffs = [b - a for a, b in zip(values, values[1:])]
    if all(d >= 0.0 for d in diffs):
        return 1
    if all(d <= 0.0 for d in diffs):
        return -1
    return 0


@pytest.mark.parametrize("n", [3, 4, 7, 1000])
def test_sample_monotonicity_matches_the_listed_form(n, monkeypatch):
    # the library's terms are checked on their own grids below; a flat, a bumpy and
    # a NaN-valued grid, fed in as the terms, reach the other branches, both as read
    # and as ln t/(1-t) reads them: the terms of ln(1-t)/t backwards, its flags swapped
    for f in (lambda t: 0.0, lambda t: math.sin(9.0 * t), lambda t: math.nan):
        values = [f(k / n) for k in range(1, n)]
        monkeypatch.setattr(quadrature, "_grid_terms", lambda kind, n, values=values: iter(values))
        assert sample_monotonicity(IntegralKind.LOG_OVER_1PT, n) == _listed_monotonicity(values)
        reversed_direction = _listed_monotonicity(values[::-1])
        assert sample_monotonicity(IntegralKind.LOG_OVER_1MT, n) == reversed_direction


# Grid sizes either side of the split h = n // 2 (odd and even n) and the report's three n;
# the bisection levels 0..12 ride along, one per n.
_PINNED_NS = [2, 3, 4, 5, 7, 10, 11, 999, 1000, 1001, 9999, 10**4, 10**5]


@pytest.mark.parametrize("n, level", zip(_PINNED_NS, range(13)))
def test_grid_and_bisection_sums_match_their_per_term_forms(n, level):
    # the split grids and the bisection sums with their invariants bound once give
    # the bits of one term, one choice of logarithm, one attribute read per term;
    # no grid term is 0 or NaN, so == compares bits
    for kind in IntegralKind:
        values = grid_terms(kind, n)
        if kind is not IntegralKind.LOG_OVER_1MT:  # read off LOG1M_OVER_T, checked below
            assert list(quadrature._grid_terms(kind, n)) == values
        if kind in quadrature.RIEMANN_KINDS:
            assert repr(riemann_sum(kind, n)) == repr(math.fsum(values))
        if n >= 3:  # the terms f(k/n)/n rise and fall with the integrand's own values
            f = kind_integrand(kind)
            direction = _listed_monotonicity([f(k / n, (n - k) / n) for k in range(1, n)])
            assert sample_monotonicity(kind, n) == _listed_monotonicity(values) == direction
    for kind, grid in ((ProductKind.MINUS, IntegralKind.LOG1M_OVER_T),
                       (ProductKind.PLUS, IntegralKind.LOG1P_OVER_T)):
        assert repr(product_form(kind, n)) == repr(math.fsum(grid_terms(grid, n)))
    for x in (1e-8, 1.0, math.pi / 2, math.pi - 1e-8):
        report = bisection_report(x, level, n).to_json()
        expected = eager_bisection_json(x, level, n)
        for name in ("bisection_value", "e_n_measured", "partial_fraction_value"):
            assert repr(report[name]) == repr(expected[name]), (x, name)


def test_the_minus_grids_are_one_stream_read_both_ways():
    # ln t/(1-t), term by term, is the library's ln(1-t)/t stream backwards, bit for bit, so
    # riemann_sum and sample_monotonicity read it off that grid; at k = n/2 log1p(-1/2) and
    # log(1/2) are the same binary64
    for n in _PINNED_NS:
        forward = list(quadrature._grid_terms(IntegralKind.LOG1M_OVER_T, n))
        assert grid_terms(IntegralKind.LOG_OVER_1MT, n) == forward[::-1], n


def test_the_minus_limits_are_one_sum():
    # ln t/(1 - t) has the terms of ln(1 - t)/t in the other order, and the log of the
    # product is the Riemann sum of ln(1 - t)/t, so one math.fsum gives all three the same bits
    for n in _PINNED_NS:
        minus = product_form(ProductKind.MINUS, n)
        assert repr(riemann_sum(IntegralKind.LOG_OVER_1MT, n)) == repr(minus), n
        assert repr(riemann_sum(IntegralKind.LOG1M_OVER_T, n)) == repr(minus), n


_EXACT_INTEGRANDS = {
    IntegralKind.LOG_OVER_1MT: lambda t: mpmath.log(t) / (1 - t),
    IntegralKind.LOG_OVER_1PT: lambda t: mpmath.log(t) / (1 + t),
}


@pytest.mark.parametrize("kind, n", [(IntegralKind.LOG_OVER_1MT, 159),
                                     (IntegralKind.LOG_OVER_1PT, 669),
                                     (IntegralKind.LOG_OVER_1PT, 1448)])
def test_a_riemann_sum_lies_within_an_ulp_of_the_exact_finite_sum(kind, n):
    # one math.fsum of the terms ln(.)/m and no division after it; the sum of f(k/n)
    # divided by n once lay 1.069, 1.003 and 1.044 ulp off here
    f = _EXACT_INTEGRANDS[kind]
    with mpmath.workdps(40):
        ref = mpmath.fsum(f(mpmath.mpf(k) / n) for k in range(1, n)) / n
        value = riemann_sum(kind, n)
        assert abs(value - ref) <= math.ulp(float(ref)), (value, ref)


# Every call whose term count is its argument n, checked against the budget.
_COUNTED_CALLS = [
    lambda n: riemann_sum(IntegralKind.LOG_OVER_1MT, n),
    lambda n: product_form(ProductKind.PLUS, n),
    lambda n: sample_monotonicity(IntegralKind.LOG_OVER_1PT, n),
    lambda n: bisection_report(1.0, 0, n).partial_fraction_value,
]
_COUNTED_IDS = ["riemann", "product", "monotonicity", "pf_terms"]


class TestSeriesTermBudget:
    """A grid or a count the caller sets that is larger than SERIES_TERM_BUDGET
    raises CapacityError before summing, instead of running for hours.  No
    convergent series meets the budget.  The float partial sums of zeta(2)
    and eta(2) sum up to the budget and take their Euler-Maclaurin and Boole
    tails past it.  The pair's series sums at most _SERIES_TERMS = 60 terms:
    r < 0 takes Euler's transform, r in [0, 1/2) sums 60 terms, and r in
    [1/2, 1) sums 39 terms and adds the Euler-Maclaurin tail.  The dilog's
    q = +-1 are closed forms, and every other q is reflected to a |z| <= 1/2
    that sums 60 terms."""

    @pytest.mark.parametrize("x, tol", [(0.4999999, 1e-12), (0.5, 1e-15)],
                             ids=["dilog_40M_terms", "dilog_22M_terms"])
    def test_dilog_edge_returns_at_once(self, x, tol):
        # the counts are what the geometric and telescoping rules once needed
        start = time.perf_counter()
        value = scaled_dilog(x, tol=tol)
        assert time.perf_counter() - start < 1.0
        with mpmath.workdps(40):
            ref = float(mpmath.polylog(2, 2 * mpmath.mpf(x)))
        assert abs(value - ref) <= (tol + 2e-15) * max(1.0, abs(ref)), (value, ref)

    @pytest.mark.parametrize("call", _COUNTED_CALLS, ids=_COUNTED_IDS)
    def test_counted_calls_refuse_past_the_budget_at_once(self, call):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            call(10**12)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("call", _COUNTED_CALLS, ids=_COUNTED_IDS)
    def test_counted_calls_take_exactly_the_budget(self, call, monkeypatch):
        monkeypatch.setattr(quadrature, "SERIES_TERM_BUDGET", 100)
        call(100)
        with pytest.raises(CapacityError):
            call(101)

    @pytest.mark.parametrize("call, limit", [(zeta2_partial_float, PI2_6), (eta2_partial_float, PI2_12)],
                             ids=["zeta2_float", "eta2_float"])
    def test_float_partial_sums_past_the_budget_return_at_once(self, call, limit):
        # 10^12 terms, and an n past binary64's range, from the closed tails
        start = time.perf_counter()
        assert abs(limit - call(10**12)) < 1e-12 + math.ulp(limit)
        assert call(10**5000) == limit
        assert time.perf_counter() - start < 1.0

    def test_edge_case_inside_the_budget_still_returns(self):
        # the numeric benchmark calls exactly this
        assert scaled_dilog(0.4999) == pytest.approx(float(mpmath.polylog(2, 0.9998)), abs=1e-11)

    def test_a_count_the_library_fixes_does_not_read_the_budget(self, monkeypatch):
        # the budget gates counts a caller sets; the dilog series at q = 2x = 1/2, which
        # needs no reflection, sums the fixed _SERIES_TERMS = 60 under any budget
        want = scaled_dilog(0.25, tol=1e-15)
        monkeypatch.setattr(quadrature, "SERIES_TERM_BUDGET", 59)
        assert scaled_dilog(0.25, tol=1e-15) == want
        with pytest.raises(CapacityError):
            riemann_sum(IntegralKind.LOG_OVER_1MT, 60)


# Distance from a domain edge, log-uniform over [1e-12, 1e-1].
_NEAR = st.floats(min_value=-12.0, max_value=-1.0).map(lambda e: 10.0**e)
_TOLS = st.sampled_from((1e-15, 1e-3))


def _meets_tol_or_raises(call, ref: float, tol: float, errors: tuple) -> None:
    """Each value is within (tol + 2e-15) * max(1, |ref|) of the mpmath value,
    or the call raises one of `errors`."""
    try:
        values = call()
    except errors:
        return
    for value in values:
        assert abs(value - ref) <= (tol + 2e-15) * max(1.0, abs(ref)), (value, ref)


@given(
    x=st.one_of(st.floats(min_value=-0.5, max_value=0.5), st.just(0.5), st.just(-0.5),
                _NEAR.map(lambda d: 0.5 - d), _NEAR.map(lambda d: d - 0.5)),
    tol=_TOLS,
)
@example(x=0.4999999, tol=1e-15)  # 4 * 10^7 terms by the geometric rule alone
@example(x=0.5, tol=1e-15)
@example(x=0.5 - 2.0**-54, tol=1e-15)
@example(x=-0.5 + 2.0**-54, tol=1e-15)
@settings(max_examples=200, deadline=None)
def test_dilog_series_never_raises_and_sums_60_terms(x, tol):
    counts = []
    power_sum = quadrature._power_sum

    def counted(z, denominator, n_terms):
        counts.append(n_terms)
        return power_sum(z, denominator, n_terms)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_power_sum", counted)
        assert math.isfinite(scaled_dilog(x, "series", tol))
    assert counts == ([] if abs(2.0 * x) == 1.0 else [60]), counts


class TestDomainEdges:
    @given(
        x=st.one_of(st.just(0.5), _NEAR.map(lambda d: 0.5 - d)),
        sign=st.sampled_from((-1.0, 1.0)),
        mode=st.sampled_from(("series", "integral")),
        tol=_TOLS,
    )
    @example(x=0.5, sign=-1.0, mode="series", tol=1e-3)
    @example(x=0.5, sign=1.0, mode="series", tol=1e-3)
    @settings(max_examples=60, deadline=None)
    def test_scaled_dilog_near_half(self, x, sign, mode, tol):
        # the series route has no term budget and must meet the bound; only
        # the integral route may hit the level cap
        with mpmath.workdps(40):
            ref = float(mpmath.polylog(2, 2 * mpmath.mpf(sign * x)))
        errors = (AccuracyError,) if mode == "integral" else ()
        _meets_tol_or_raises(lambda: [scaled_dilog(sign * x, mode, tol)], ref, tol, errors)

    @given(
        r=st.one_of(st.just(-1.0), _NEAR.map(lambda d: -1.0 + d), _NEAR.map(lambda d: 1.0 - d)),
        a=_PAIR_AS,
        ratio=_PAIR_RATIOS,
        tol=_TOLS,
    )
    @example(r=-1.0, a=1.0, ratio=0.0, tol=1e-3)
    @example(r=-1.0, a=1e-6, ratio=0.0, tol=1e-3)
    @example(r=-1.0, a=1e-6, ratio=1e3, tol=1e-15)
    @example(r=-1.0, a=1e-12, ratio=0.0, tol=1e-15)
    @example(r=1 - 1e-9, a=1.0, ratio=1e10, tol=1e-3)  # CapacityError before the tail route
    @settings(max_examples=25, deadline=None)
    def test_series_integral_pair_near_one(self, r, a, ratio, tol):
        # both the series and the integral value are held to the contract; the
        # series never meets the term budget, so only the integral may raise
        b = ratio * a
        ref = _pair_reference(r, a, b)
        _meets_tol_or_raises(lambda: series_integral_pair(r, a, b, tol), ref, tol, (AccuracyError,))
