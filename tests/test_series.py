"""Partial sums, bisection refinement, and asymptotic-series diagnostics."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baselkit import quadrature
from baselkit.exact import _RUN_MEMO, CapacityError
from baselkit.series import (
    BisectionReport,
    asymptotic_report,
    bisection_report,
    eta2_partial,
    eta2_partial_float,
    regularized_target,
    zeta2_partial,
    zeta2_partial_float,
)

from baselkit.verify import run_suite

from oracles import ETA2_HP, ZETA2_HP, eager_bisection_json

PI2_6 = math.pi**2 / 6
PI2_12 = math.pi**2 / 12


class TestZeta2Partial:
    def test_small_exact(self):
        assert zeta2_partial(1) == 1
        assert zeta2_partial(3) == Fraction(49, 36)

    def test_exact_tail_bound_certified(self):
        # strict inequality chain checked entirely in rational arithmetic,
        # against a 60-digit pi; the margin dwarfs the 1e-60 pi error
        for n in (10, 100, 1000):
            gap = ZETA2_HP - zeta2_partial(n)
            assert 0 < gap < Fraction(1, n)

    def test_float_tail_bound(self):
        # 10^8 is past the budget, from the closed tail, with no ulp of slack
        for n in (10, 100, 1000, 10000, 10**8):
            gap = PI2_6 - zeta2_partial_float(n)
            assert 0.0 < gap < 1.0 / n, n
        # past the budget the float is within 0.64 ulp of the sum, and ZETA2
        # 0.14 ulp below zeta(2), so the gap is within an ulp of (0, 1/n):
        # 1/n + 0.40 ulp at n = 10^12.  From about 10^16 on the float is
        # ZETA2, a gap of 0.
        for n in (10**7 + 1, 10**12, 10**16, 10**30):
            gap = PI2_6 - zeta2_partial_float(n)
            assert 0.0 <= gap < 1 / n + math.ulp(PI2_6), n
        assert zeta2_partial_float(10**17) == PI2_6

    def test_float_matches_exact(self):
        assert zeta2_partial_float(500) == pytest.approx(float(zeta2_partial(500)), abs=1e-15)

    def test_million_terms_float(self):
        gap = PI2_6 - zeta2_partial_float(10**6)
        assert 0.0 < gap < 1e-6

    def test_capacity(self):
        with pytest.raises(CapacityError):
            zeta2_partial(10_001)
        with pytest.raises(ValueError):
            zeta2_partial(0)


class TestEta2Partial:
    def test_small_exact(self):
        assert eta2_partial(1) == 1
        assert eta2_partial(2) == Fraction(3, 4)

    def test_exact_alternating_bound(self):
        for n in (10, 100, 1000):
            err = ETA2_HP - eta2_partial(n)
            assert abs(err) < Fraction(1, (n + 1) ** 2)

    def test_error_alternates_and_shrinks(self):
        errors = [ETA2_HP - eta2_partial(n) for n in range(1, 51)]
        for i, err in enumerate(errors):
            # sign flips each step: overshoot after odd partial sums
            assert (err < 0) == (i % 2 == 0)
            assert abs(err) < Fraction(1, (i + 2) ** 2)  # below the next term
        for prev, nxt in zip(errors, errors[1:]):
            assert abs(nxt) < abs(prev)

    def test_float_bound(self):
        # 10^8 is past the budget, from the closed tail, with no ulp of slack
        for n in (10, 100, 1000, 10**8):
            assert abs(PI2_12 - eta2_partial_float(n)) < 1.0 / (n + 1) ** 2, n
        # past the budget, within an ulp of the bound, as for zeta(2)
        for n in (10**7 + 1, 10**12, 10**30):
            assert abs(PI2_12 - eta2_partial_float(n)) < 1 / (n + 1) ** 2 + math.ulp(PI2_12), n


@pytest.mark.parametrize("float_sum, exact_sum, ulps", [
    (zeta2_partial_float, zeta2_partial, 1.33),
    (eta2_partial_float, eta2_partial, 2.15),
], ids=["zeta2", "eta2"])
def test_float_partial_sums_meet_their_documented_bound(float_sum, exact_sum, ulps):
    # each 1/k^2 is rounded before fsum, so the value is within
    # 2^-53 sum 1/k^2 + 1/2 ulp of the exact sum, not always exactly rounded
    # (zeta2 at n = 22 and eta2 at n = 24 are not)
    for n in range(1, 301):
        exact = exact_sum(n)
        ulp = Fraction(math.ulp(float(exact)))
        error = abs(Fraction(float_sum(n)) - exact)
        assert error <= Fraction(2.0**-53) * zeta2_partial(n) + ulp / 2, n
        assert error <= Fraction(ulps) * ulp, n


@pytest.mark.parametrize("float_sum, exact_sum, ulps", [
    (zeta2_partial_float, zeta2_partial, 1.33),
    (eta2_partial_float, eta2_partial, 2.15),
], ids=["zeta2", "eta2"])
def test_float_partial_sums_past_the_budget_meet_the_exact_sums(float_sum, exact_sum, ulps,
                                                                monkeypatch):
    # with the budget at 10^3 the closed tails start where the exact sums
    # still reach; n = 10^3 keeps the fsum's bits, and past it a sum of
    # more than 10^3 terms would raise CapacityError
    summed = float_sum(1000)
    monkeypatch.setattr(quadrature, "SERIES_TERM_BUDGET", 1000)
    assert float_sum(1000) == summed
    for n in [1001, 1002, 1003, 2048, 4999, 10_000] + random.Random(3).sample(range(1004, 10_000), 6):
        exact = exact_sum(n)
        ulp = Fraction(math.ulp(float(exact)))
        assert abs(Fraction(float_sum(n)) - exact) <= Fraction(ulps) * ulp, n


def _mp_partial_sums(n: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """sum_{k<=n} 1/k^2 and sum_{k<=n} (-1)^(k-1)/k^2 at 60 digits, as zeta(2)
    and eta(2) less their tails: zeta(2, n+1), and (-1)^n times
    sum_{k>=0} (-1)^k/(m+k)^2 = (zeta(2, m/2) - zeta(2, (m+1)/2))/4, m = n+1."""
    with mpmath.workdps(60):
        m = mpmath.mpf(n) + 1
        alternating = (mpmath.zeta(2, m / 2) - mpmath.zeta(2, (m + 1) / 2)) / 4
        return (mpmath.zeta(2) - mpmath.zeta(2, m),
                mpmath.pi**2 / 12 - (alternating if n % 2 == 0 else -alternating))


@given(n=st.floats(min_value=7.0, max_value=30.0).map(lambda e: int(10.0**e) + 1))
@example(n=10**7 + 1)  # the first n past SERIES_TERM_BUDGET
@example(n=2**53)
@example(n=10**5000)  # past binary64's range: 1/n rounds to 0
@settings(max_examples=200, deadline=None)
def test_float_partial_sums_past_the_budget_meet_their_documented_bound(n):
    zeta_ref, eta_ref = _mp_partial_sums(n)
    for value, ref, ulps in ((zeta2_partial_float(n), zeta_ref, 1.33),
                             (eta2_partial_float(n), eta_ref, 2.15)):
        assert abs(value - ref) <= ulps * math.ulp(float(ref)), (n, value)


class TestBisectionReport:
    def test_level_zero_at_right_angle(self):
        rep = bisection_report(math.pi / 2, 0)
        assert rep.bisection_value == pytest.approx(1.0, abs=1e-14)
        assert rep.e_n_bound == 1.0

    def test_level_one_hand_value(self):
        # (1/4) [1/sin^2(pi/4) + 1/sin^2(3pi/4)] = (1/4)(2 + 2)
        rep = bisection_report(math.pi / 2, 1)
        assert rep.bisection_value == pytest.approx(1.0, abs=1e-14)

    def test_matches_exact_at_depth(self):
        rep = bisection_report(1.0, 10)
        assert rep.exact_value == pytest.approx(1.412282927437392, abs=1e-12)
        assert abs(rep.bisection_value / rep.exact_value - 1.0) < 1e-10

    def test_identity_grid(self):
        for x in (0.3, 0.7, 1.0, 1.3, math.pi / 2, 2.0, 2.5):
            for level in range(13):
                rep = bisection_report(x, level)
                rel = abs(rep.bisection_value / rep.exact_value - 1.0)
                assert rel < 1e-9, f"x={x} level={level} rel={rel}"

    def test_remainder_within_bound(self):
        for x in (0.05, 0.2, 0.5, 0.9, 1.3, math.pi / 2):
            for level in range(13):
                rep = bisection_report(x, level)
                assert 0.0 < rep.e_n_measured < rep.e_n_bound + 1e-12, (
                    f"x={x} level={level} remainder={rep.e_n_measured}"
                )

    def test_partial_fraction_route(self):
        rep = bisection_report(1.0, 0)
        assert abs(rep.partial_fraction_value - rep.exact_value) < 1e-8
        assert rep.truncation_k == 10_000

    def test_domain(self):
        with pytest.raises(ValueError):
            bisection_report(0.0, 3)
        with pytest.raises(ValueError):
            bisection_report(math.pi, 3)
        with pytest.raises(CapacityError):  # the level cap, as m_max's and the term budget
            bisection_report(1.0, 21)

    def test_to_json_matches_eager_formula(self):
        # the x grids of bisection_identity_grid and bisection_remainder_bound
        for x in (0.05, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0, 1.3, math.pi / 2, 2.0, 2.5):
            for level in range(13):
                assert bisection_report(x, level).to_json() == eager_bisection_json(x, level)
        assert bisection_report(1.0, 3, 7).to_json() == eager_bisection_json(1.0, 3, 7)

    def test_a_run_reads_each_centered_term_once_in_any_level_order(self):
        # the remainder row's grid; inside a run the levels share one array per x, whose
        # first 2^n terms are level n's, so a level's bits do not depend on what was read
        grid, levels = (0.05, 0.2, 0.5, 0.9, 1.3, math.pi / 2), list(range(13))
        fresh = {(x, n): repr(bisection_report(x, n).e_n_measured) for x in grid for n in levels}
        shuffled = levels[:]
        random.Random(39).shuffle(shuffled)
        for order in (levels, levels[::-1], shuffled):
            memo = _RUN_MEMO.set({})
            try:
                read = {(x, n): repr(bisection_report(x, n).e_n_measured)
                        for x in grid for n in order}
                held = _RUN_MEMO.get()
            finally:
                _RUN_MEMO.reset(memo)
            assert read == fresh, order
            assert {key: len(terms) for key, terms in held.items()} == {
                ("_centered_terms", x): 4_096 for x in grid}

    def test_grid_rows_never_sum_the_partial_fraction_expansion(self, monkeypatch):
        # each row reads only the sums it checks, and bisection_report sums nothing
        reads = []
        for name in ("bisection_value", "e_n_measured", "partial_fraction_value"):
            monkeypatch.setattr(BisectionReport, name, property(
                lambda rep, name=name, summed=getattr(BisectionReport, name).fget:
                reads.append(name) or summed(rep)))

        def read_by(check_id: str) -> list[str]:
            reads.clear()
            assert run_suite(check_id)[0].status == "pass"
            return sorted(set(reads))

        assert read_by("bisection_identity_grid") == ["bisection_value"]
        assert read_by("bisection_remainder_bound") == ["e_n_measured"]
        assert read_by("bisection_partial_fraction") == ["partial_fraction_value"]
        assert reads == ["partial_fraction_value"]
        bisection_report(1.0, 12)
        assert reads == ["partial_fraction_value"]
        assert BisectionReport.__match_args__ == ("x", "level", "truncation_k")
        assert list(vars(bisection_report(1.0, 3))) == ["x", "level", "truncation_k"]

    @given(
        x=st.floats(min_value=0.1, max_value=math.pi - 0.1, allow_nan=False),
        level=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_identity_property(self, x, level):
        rep = bisection_report(x, level)
        assert abs(rep.bisection_value / rep.exact_value - 1.0) < 1e-9


class TestAsymptoticReports:
    def test_bernoulli_terms_frozen(self):
        rep = asymptotic_report("bernoulli", 6)
        assert [str(t) for t in rep.terms] == [
            "1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730",
        ]

    def test_bernoulli_partial_sum_consistency(self):
        rep = asymptotic_report("bernoulli", 12)
        for i in range(1, len(rep.terms)):
            assert rep.partial_sums[i] - rep.partial_sums[i - 1] == rep.terms[i]

    def test_bernoulli_optimal_truncation(self):
        rep = asymptotic_report("bernoulli", 12)
        assert rep.smallest_term_index == 2  # term 1/42
        assert abs(rep.optimal_estimate - rep.regularized_target) <= float(
            abs(rep.terms[rep.smallest_term_index])
        )
        assert abs(rep.bracket_average - 0.144934) < 5e-3

    def test_genocchi_single_term(self):
        rep = asymptotic_report("genocchi", 1)
        assert rep.terms == (Fraction(1, 2),)
        assert abs(0.5 - rep.regularized_target) < 0.5  # within next-term magnitude

    def test_genocchi_optimal_truncation(self):
        rep = asymptotic_report("genocchi", 12)
        # zeros are skipped; ties resolve to the last smallest nonzero term
        assert rep.terms[rep.smallest_term_index] != 0
        assert abs(rep.optimal_estimate - rep.regularized_target) <= float(
            abs(rep.terms[rep.smallest_term_index])
        )

    def test_min_truncation_error_bound(self):
        for which in ("bernoulli", "genocchi"):
            rep = asymptotic_report(which, 12)
            best = min(abs(float(s) - rep.regularized_target) for s in rep.partial_sums)
            smallest = float(abs(rep.terms[rep.smallest_term_index]))
            assert best <= smallest

    def test_divergence(self):
        for which in ("bernoulli", "genocchi"):
            rep = asymptotic_report(which, 40)
            assert abs(float(rep.partial_sums[-1])) > 1e6

    def test_caps(self):
        with pytest.raises(CapacityError):
            asymptotic_report("bernoulli", 41)
        with pytest.raises(ValueError):
            asymptotic_report("bernoulli", 0)
        with pytest.raises(ValueError):
            asymptotic_report("euler", 5)


class TestRegularizedTargets:
    def test_closed_forms(self):
        assert abs(regularized_target("bernoulli") - (PI2_6 - 1.5)) < 1e-9
        assert abs(regularized_target("genocchi") - PI2_12) < 1e-9

    def test_consistency_between_targets(self):
        lhs = regularized_target("bernoulli") + 1.5
        rhs = 2.0 * regularized_target("genocchi")
        assert abs(lhs - rhs) < 1e-9

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            regularized_target("zeta3")


def test_report_serialization_round_trip():
    import json

    rep = asymptotic_report("genocchi", 6)
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["terms"][0] == "1/2"
    assert blob["classically_convergent"] is False
    rep2 = bisection_report(1.0, 3)
    blob2 = json.loads(json.dumps(rep2.to_json()))
    assert blob2["level"] == 3
