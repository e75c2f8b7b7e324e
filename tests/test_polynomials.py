"""Polynomial construction and exact identity certificates."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import baselkit.exact as exact
import baselkit.polynomials as polynomials
from baselkit.exact import _RUN_MEMO, bernoulli, fraction_str, genocchi
from baselkit.polynomials import (
    HALVING_VARIANTS,
    Certificate,
    RationalPolynomial,
    bernoulli_polynomial,
    check_addition_recurrence,
    check_calculus,
    check_construction_orderings,
    check_halving,
    check_reflection,
    check_special_values,
    genocchi_polynomial,
    power_sum_checks,
)

from oracles import FractionPolynomial, power_sum_sides

F = Fraction


class TestRationalPolynomial:
    def test_normalization(self):
        assert RationalPolynomial([1, 2, 0, 0]).coefficients == (F(1), F(2))
        assert RationalPolynomial([0]) == RationalPolynomial()
        assert RationalPolynomial().degree == -1

    def test_ring_ops(self):
        p = RationalPolynomial([1, 1])  # 1 + x
        q = RationalPolynomial([-1, 1])  # -1 + x
        assert (p + q).coefficients == (F(0), F(2))
        assert p - p == RationalPolynomial()
        assert (p * 3).coefficients == (F(3), F(3))

    def test_evaluate_horner(self):
        p = RationalPolynomial([F(1, 6), -1, 1])  # x^2 - x + 1/6
        assert p.evaluate(F(1, 2)) == F(-1, 12)
        assert p.evaluate(0) == F(1, 6)

    def test_calculus_ops(self):
        p = RationalPolynomial([0, 0, 3])  # 3x^2
        assert p.derivative().coefficients == (F(0), F(6))
        assert p.integral_unit() == 1

    def test_compose_affine(self):
        p = RationalPolynomial([0, 0, 1])  # x^2
        # (2x + 1)^2 = 4x^2 + 4x + 1
        assert p.compose_affine(2, 1).coefficients == (F(1), F(4), F(4))

    def test_serialization(self):
        assert RationalPolynomial([F(1, 6), -1, 1]).to_string_list() == ["1/6", "-1", "1"]
        assert RationalPolynomial().to_string_list() == ["0"]

    def test_repr(self):
        assert repr(RationalPolynomial()) == "RationalPolynomial(0)"
        assert repr(RationalPolynomial([F(1, 6), -1, 1])) == (
            "RationalPolynomial(1/6 + -1*x^1 + 1*x^2)"
        )
        assert repr(RationalPolynomial([0, 0, F(-3, 2)])) == "RationalPolynomial(-3/2*x^2)"

    def test_never_equal_to_a_scalar(self):
        assert RationalPolynomial([1]) != 1
        assert RationalPolynomial([1]).__eq__(1) is NotImplemented


def _assert_canonical(p: RationalPolynomial) -> None:
    num, den = p._num, p._den
    assert den > 0
    assert math.gcd(den, *num) == 1
    assert not num or num[-1] != 0
    assert num or den == 1


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coefficient_lists = st.lists(rationals, max_size=7)
scalars = st.integers(-9, 9) | st.fractions(max_value=0, min_value=-20, max_denominator=12)
points = st.integers(-6, 6) | rationals
NAMED_AFFINE_MAPS = [(-1, 1), (F(1, 2), 0), (F(1, 2), F(1, 2)), (1, 1)]


class TestAgainstFractionReference:
    """Every operation of the integer-backed class against the list-of-Fraction oracle."""

    @given(p=coefficient_lists, q=coefficient_lists, s=scalars, x=points,
           a=rationals, b=rationals)
    @example(p=[], q=[F(1, 2), F(-1, 3)], s=F(-3, 7), x=F(1, 2), a=F(1, 2), b=0)
    @example(p=[0, 0], q=[], s=0, x=0, a=0, b=F(5, 3))
    @settings(max_examples=150, deadline=None)
    def test_operations_match(self, p, q, s, x, a, b):
        P, Q = RationalPolynomial(p), RationalPolynomial(q)
        rp, rq = FractionPolynomial(p), FractionPolynomial(q)
        pairs = [
            (P, rp), (P + Q, rp + rq), (P - Q, rp - rq), (P * s, rp * s),
            (P.compose_affine(a, b), rp.compose_affine(a, b)), (P.derivative(), rp.derivative()),
        ]
        for got, want in pairs:
            _assert_canonical(got)
            assert got.coefficients == want.coefficients
        assert P.evaluate(x) == rp.evaluate(x)
        assert P.evaluate(F(x)) == rp.evaluate(x)
        assert P.integral_unit() == rp.integral_unit()

    @pytest.mark.parametrize("a,b", NAMED_AFFINE_MAPS)
    @given(p=coefficient_lists)
    @example(p=[])
    @settings(max_examples=40, deadline=None)
    def test_named_affine_maps(self, a, b, p):
        got = RationalPolynomial(p).compose_affine(a, b)
        _assert_canonical(got)
        assert got.coefficients == FractionPolynomial(p).compose_affine(a, b).coefficients
        # inside a verification run the second call reads the first's composition
        poly, memo = RationalPolynomial(p), _RUN_MEMO.set({})
        try:
            shared = [poly.compose_affine(a, b), poly.compose_affine(F(a), F(b))]
        finally:
            _RUN_MEMO.reset(memo)
        assert shared[0] is shared[1] and shared[0].coefficients == got.coefficients


    @given(p=st.integers(0, 200).flatmap(lambda d: st.lists(rationals, min_size=d + 1,
                                                           max_size=d + 1)),
           a=rationals, b=rationals)
    @example(p=[F(1, k) for k in range(1, 202)], a=F(0), b=F(-7, 3))
    @example(p=[F(1, k) for k in range(1, 202)], a=F(-7, 3), b=F(0))
    @example(p=[F(-1, k) for k in range(1, 202)], a=F(-19, 11), b=F(-5, 12))
    @settings(max_examples=5, deadline=None)  # the oracle takes 0.5 s at degree 200
    def test_compose_affine_to_degree_200(self, p, a, b):
        got = RationalPolynomial(p).compose_affine(a, b)
        _assert_canonical(got)
        assert got.coefficients == FractionPolynomial(p).compose_affine(a, b).coefficients


class TestCanonicalForm:
    def test_differently_scaled_inputs_are_equal(self):
        direct = RationalPolynomial([F(1, 2), F(1, 3)])
        variants = [
            RationalPolynomial([F(3, 6), F(2, 6)]),
            RationalPolynomial([3, 2]) * F(1, 6),
            RationalPolynomial([6, 4]) * F(1, 12),
            RationalPolynomial([F(1, 4), F(1, 6)]) + RationalPolynomial([F(1, 4), F(1, 6)]),
            RationalPolynomial([F(1, 2), F(1, 3), F(5, 7)]) - RationalPolynomial.monomial(F(5, 7), 2),
        ]
        for p in variants:
            assert p == direct
            assert hash(p) == hash(direct)
            assert (p._num, p._den) == ((3, 2), 6)

    def test_zero_polynomial(self):
        zero = RationalPolynomial([0, 0])
        assert zero == RationalPolynomial()
        assert zero.degree == -1
        assert (zero._num, zero._den) == ((), 1)
        assert (RationalPolynomial([F(1, 3)]) * 0) == zero

    def test_coefficients_are_fractions(self):
        coeffs = RationalPolynomial([1, F(2, 4), -3]).coefficients
        assert isinstance(coeffs, tuple)
        assert all(type(c) is Fraction for c in coeffs)
        assert coeffs == (F(1), F(1, 2), F(-3))


class TestConstruction:
    def test_bernoulli_small(self):
        assert bernoulli_polynomial(0).coefficients == (F(1),)
        assert bernoulli_polynomial(1).coefficients == (F(-1, 2), F(1))
        assert bernoulli_polynomial(2).coefficients == (F(1, 6), F(-1), F(1))

    def test_genocchi_small(self):
        assert genocchi_polynomial(0) == RationalPolynomial()
        assert genocchi_polynomial(1).coefficients == (F(1, 2),)
        assert genocchi_polynomial(2).coefficients == (F(-1, 2), F(1))

    def test_degrees_and_constant_terms(self):
        for n in range(41):
            b = bernoulli_polynomial(n)
            assert b.degree == n
            assert b.coefficient(n) == 1
            assert b.coefficient(0) == bernoulli(n)
            g = genocchi_polynomial(n)
            assert g.coefficient(0) == genocchi(n)
            if n >= 1:
                assert g.degree <= n - 1

    def test_construction_orderings_agree(self):
        for n in range(41):
            assert check_construction_orderings(n).passed


class TestReflection:
    def test_hand_cases(self):
        assert check_reflection(0).passed
        assert check_reflection(2).passed
        assert check_reflection(7).passed

    def test_range(self):
        for n in range(41):
            cert = check_reflection(n)
            assert cert.passed, cert.detail


class TestHalving:
    def test_hand_cases(self):
        # n=1, ii: 1/2 = (x - 1/2) - 2(x/2 - 1/2)
        assert check_halving(1, "ii").passed
        # n=0, iv: 1 = (1/2)(1 + 1)
        assert check_halving(0, "iv").passed
        assert check_halving(10, "iii").passed

    @pytest.mark.parametrize("variant", HALVING_VARIANTS)
    def test_range(self, variant, monkeypatch):
        compositions = []
        compose = RationalPolynomial.compose_affine
        monkeypatch.setattr(RationalPolynomial, "compose_affine",
                            lambda p, a, b: compositions.append((a, b)) or compose(p, a, b))
        for n in range(41):
            compositions.clear()
            cert = check_halving(n, variant)
            assert cert.passed, cert.detail
            # ii reads only B_n(x/2), iii only B_n((x+1)/2), iv both
            assert sorted(compositions) == {"ii": [(F(1, 2), 0)], "iii": [(F(1, 2), F(1, 2))],
                                            "iv": [(F(1, 2), 0), (F(1, 2), F(1, 2))]}[variant]

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            check_halving(3, "v")


class TestAdditionRecurrence:
    def test_hand_case(self):
        assert check_addition_recurrence(2).passed
        assert check_addition_recurrence(3).passed

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            check_addition_recurrence(1)

    def test_range(self):
        for k in range(2, 41):
            cert = check_addition_recurrence(k)
            assert cert.passed, cert.detail


def _power_sum_reference(g, k, n_max):
    """The certificates of `power_sum_checks`, each n summed afresh by the oracle."""
    out = []
    for n in range(1, n_max + 1):
        lhs, rhs = power_sum_sides(g, k, n)
        detail = "" if lhs == rhs else f"lhs={fraction_str(lhs)} rhs={fraction_str(rhs)}"
        out.append(Certificate(f"power_sum_k{k}_n{n}", lhs == rhs, detail))
    return out


class TestPowerSum:
    def test_hand_cases(self):
        checks = power_sum_checks(2, 3)
        assert [c.name for c in checks] == ["power_sum_k2_n1", "power_sum_k2_n2", "power_sum_k2_n3"]
        assert checks[0].passed  # both sides 2
        assert checks[2].passed  # both sides 12
        assert all(c.passed for c in power_sum_checks(5, 50))

    def test_grid(self):
        for k in range(2, 9):
            assert power_sum_checks(k, 100) == _power_sum_reference(genocchi_polynomial(k), k, 100)

    def test_corrupted_polynomial_fails_as_the_reference_does(self, monkeypatch):
        # + (x-1)(x-2)/3 leaves n = 1 intact (it vanishes at 1 and 2) and breaks every later n
        k, real = 5, genocchi_polynomial
        bad = real(k) + RationalPolynomial([F(2, 3), F(-1), F(1, 3)])
        monkeypatch.setattr(polynomials, "genocchi_polynomial",
                            lambda n: bad if n == k else real(n))
        got = power_sum_checks(k, 100)
        assert got == _power_sum_reference(bad, k, 100)
        assert got[0].passed and not any(c.passed for c in got[1:])
        # 5 (1 + 2^4) on the right; c(3) = 2/3 more on the left
        assert got[1] == Certificate("power_sum_k5_n2", False, "lhs=257/3 rhs=85")

    @given(k=st.integers(2, 10), n=st.integers(1, 150))
    @settings(max_examples=40, deadline=None)
    def test_property(self, k, n):
        assert all(c.passed for c in power_sum_checks(k, n))


class TestSpecialValues:
    def test_n1_hand(self):
        bundle = check_special_values(1)
        # B_2(1/2) = -1/12 = (2^-1 - 1)(1/6)
        assert bernoulli_polynomial(2).evaluate(F(1, 2)) == F(-1, 12)
        assert all(cert.passed for cert in bundle.values())

    def test_range(self):
        for n in range(1, 41):
            bundle = check_special_values(n)
            for key, cert in bundle.items():
                assert cert.passed, f"{key}: {cert.detail}"

    def test_bundle_keys_deterministic(self):
        assert list(check_special_values(3)) == [
            "b_half_vs_quarter",
            "g_half_zero",
            "b_half_formula",
            "b_quarter_formula",
            "g_b_relation",
        ]


class TestCalculus:
    def test_hand_cases(self):
        # G_2'(x) = 1 = 2 * G_1(x); integral of G_1 = 1/2 = -2 G_2 / 2
        assert all(c.passed for c in check_calculus(2).values())
        assert all(c.passed for c in check_calculus(1).values())
        assert all(c.passed for c in check_calculus(12).values())

    def test_range(self):
        for n in range(1, 41):
            for key, cert in check_calculus(n).items():
                assert cert.passed, f"{key}: {cert.detail}"


class TestValueAtOne:
    def test_negation(self):
        for n in range(2, 41):
            assert genocchi_polynomial(n).evaluate(1) == -genocchi(n)


def test_failure_reports_first_mismatch():
    from baselkit.polynomials import _poly_certificate

    lhs = RationalPolynomial([1, 2, 3])
    rhs = RationalPolynomial([1, 5, 3])
    cert = _poly_certificate("demo", lhs, rhs)
    assert not cert.passed
    assert cert.detail.startswith("coefficient 1:")
    assert "lhs=2" in cert.detail


def test_failing_value_certificate_names_both_sides(monkeypatch):
    # the quoted B_1 = +1/2 (erratum E1) breaks G_1 = (1 - 2^1) B_1, read through
    # exact.genocchi_from_bernoulli
    real = exact.bernoulli
    monkeypatch.setattr(exact, "bernoulli", lambda n: F(1, 2) if n == 1 else real(n))
    cert = check_special_values(1)["g_b_relation"]
    assert cert == Certificate("g_b_relation_n1", False, "lhs=1/2 rhs=-1/2")
