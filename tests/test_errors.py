"""Documented input errors: each one's type and message, from one table."""

from __future__ import annotations

import math
import operator
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from baselkit.exact import (
    _RUN_MEMO,
    CAPACITY,
    CapacityError,
    PiPower,
    bernoulli,
    bernoulli_from_genocchi,
    genocchi,
    genocchi_from_bernoulli,
    signed_factorial_integral,
    term_log_integral,
    zeta_even_exact,
)
from baselkit.polynomials import (
    bernoulli_polynomial,
    check_addition_recurrence,
    check_calculus,
    check_construction_orderings,
    check_reflection,
    check_special_values,
    RationalPolynomial,
    genocchi_polynomial,
    power_sum_checks,
)
from baselkit.quadrature import (
    IntegralKind,
    ProductKind,
    functional_eq_dilog,
    integrate,
    product_form,
    riemann_sum,
    sample_monotonicity,
    scaled_dilog_ode_residual,
)
from baselkit.series import (
    BisectionReport,
    asymptotic_report,
    bisection_report,
    zeta2_partial,
    zeta2_partial_float,
)

NEGATIVE_INDEX = "need n >= 0, got -1"
X = RationalPolynomial([0, 1])

# (call, arguments, error type, message).  Every index and count goes through
# one gate, so a message is "need an integer {name}", "need {name} >= {floor}"
# or "need {name} <= {cap}".  genocchi_from_bernoulli, check_reflection and
# check_construction_orderings check no index themselves: the message comes
# from the bernoulli and genocchi_polynomial calls they make first.
INPUT_ERRORS = [
    (zeta_even_exact, (0,), ValueError, "need n >= 1, got 0"),
    (term_log_integral, (-1,), ValueError, NEGATIVE_INDEX),
    (signed_factorial_integral, (-1,), ValueError, "need k >= 0, got -1"),
    (genocchi_from_bernoulli, (-1,), ValueError, NEGATIVE_INDEX),
    # 2^n of so large a negative n raises OverflowError: the index check must come first
    (genocchi_from_bernoulli, (-(10**400),), ValueError,
     f"need n >= 0, got {-(10**400)}"),
    (bernoulli_polynomial, (-1,), ValueError, NEGATIVE_INDEX),
    (genocchi_polynomial, (-1,), ValueError, NEGATIVE_INDEX),
    (check_construction_orderings, (-1,), ValueError, NEGATIVE_INDEX),
    (power_sum_checks, (1, 1), ValueError, "need k >= 2, got 1"),
    (power_sum_checks, (2, 0), ValueError, "need n_max >= 1, got 0"),
    (check_special_values, (0,), ValueError, "need n >= 1, got 0"),
    (check_calculus, (0,), ValueError, "need n >= 1, got 0"),
    (check_addition_recurrence, (1,), ValueError, "need k >= 2, got 1"),
    (bernoulli_from_genocchi, (0,), ValueError, "need n >= 1, got 0"),
    (riemann_sum, (IntegralKind.LOG_OVER_1MT, 1), ValueError, "need n >= 2, got 1"),
    (sample_monotonicity, (IntegralKind.LOG_OVER_1MT, 2), ValueError, "need n >= 3, got 2"),
    (product_form, (ProductKind.MINUS, 1), ValueError, "need n >= 2, got 1"),
    # a kind that is no enum member, its string value included, is refused
    (integrate, ("log_over_1pt",), ValueError, "kind must be an IntegralKind, got 'log_over_1pt'"),
    (integrate, ("log1p_over_t",), ValueError, "kind must be an IntegralKind, got 'log1p_over_t'"),
    (integrate, (ProductKind.PLUS,), ValueError,
     "kind must be an IntegralKind, got <ProductKind.PLUS: 'plus'>"),
    # an unhashable kind too: inside a verification run it is refused before a memo key is hashed
    (integrate, ([],), ValueError, "kind must be an IntegralKind, got []"),
    (integrate, (IntegralKind.LOG_OVER_1MT, 1e-16), ValueError,
     "tol must lie in [1e-15, 0.001], got 1e-16"),
    (integrate, (IntegralKind.LOG_OVER_1MT, math.nan), ValueError,
     "tol must lie in [1e-15, 0.001], got nan"),
    (product_form, ("minus", 10**5), ValueError, "kind must be a ProductKind, got 'minus'"),
    (sample_monotonicity, ("log_over_1mt", 100), ValueError,
     "kind must be an IntegralKind, got 'log_over_1mt'"),
    (sample_monotonicity, ([], 100), ValueError, "kind must be an IntegralKind, got []"),
    (functional_eq_dilog, (1.5,), ValueError, "x must lie in [-1, 1], got 1.5"),
    (scaled_dilog_ode_residual, (0.1, 1), ValueError, "need n_terms >= 2, got 1"),
    (bisection_report, (1.0, 0, 0), ValueError, "need pf_terms >= 1, got 0"),
    # a report built directly checks its fields as bisection_report's arguments are checked
    (BisectionReport, (0.0, 0, 10), ValueError,
     "x must lie in (0, pi) away from the poles, got 0.0"),
    (BisectionReport, (1.0, 40, 5), CapacityError, "need level <= 20, got 40"),
    (scaled_dilog_ode_residual, (0.1, 10**8), CapacityError,
     "need n_terms <= SERIES_TERM_BUDGET = 10000000, got 100000000"),
    (signed_factorial_integral, (CAPACITY + 1,), CapacityError,
     f"need k <= CAPACITY = {CAPACITY}, got {CAPACITY + 1}"),
    (power_sum_checks, (2, CAPACITY + 1), CapacityError,
     f"need n_max <= CAPACITY = {CAPACITY}, got {CAPACITY + 1}"),
    # the cap is the highest index read, so the refusal comes before the work:
    # check_calculus(n) reads G_{n+1}, the others index 2n
    (check_calculus, (CAPACITY,), CapacityError,
     f"need n <= CAPACITY - 1 = {CAPACITY - 1}, got {CAPACITY}"),
    (check_special_values, (3000,), CapacityError,
     f"need n <= CAPACITY // 2 = {CAPACITY // 2}, got 3000"),
    (zeta_even_exact, (CAPACITY // 2 + 1,), CapacityError,
     f"need n <= CAPACITY // 2 = {CAPACITY // 2}, got {CAPACITY // 2 + 1}"),
    (asymptotic_report, ("bernoulli", 41), CapacityError, "need m_max <= 40, got 41"),
    (asymptotic_report, ("genocchi", 5, math.nan), ValueError,
     "tol must lie in [1e-15, 0.001], got nan"),
    (zeta2_partial, (10_001,), CapacityError, "need n <= EXACT_PARTIAL_CAP = 10000, got 10001"),
    # a count that is no integer is refused before any work, NaN included
    (riemann_sum, (IntegralKind.LOG1M_OVER_T, 2.5), ValueError, "need an integer n, got 2.5"),
    (product_form, (ProductKind.PLUS, math.nan), ValueError, "need an integer n, got nan"),
    (sample_monotonicity, (IntegralKind.LOG1M_OVER_T, 3.5), ValueError,
     "need an integer n, got 3.5"),
    (zeta2_partial_float, (2.5,), ValueError, "need an integer n, got 2.5"),
    (bisection_report, (1.0, 3, math.nan), ValueError, "need an integer pf_terms, got nan"),
    # an index that is no integer, bool included, is refused the same way
    (bernoulli, (3.0,), ValueError, "need an integer n, got 3.0"),
    (bernoulli, (math.nan,), ValueError, "need an integer n, got nan"),
    (bernoulli, (True,), ValueError, "need an integer n, got True"),
    (genocchi, (2.5,), ValueError, "need an integer n, got 2.5"),
    (zeta_even_exact, (2.0,), ValueError, "need an integer n, got 2.0"),
    (zeta_even_exact, (True,), ValueError, "need an integer n, got True"),
    (bernoulli_polynomial, (3.0,), ValueError, "need an integer n, got 3.0"),
    (check_reflection, (2.0,), ValueError, "need an integer n, got 2.0"),
    (power_sum_checks, (2.0, 3), ValueError, "need an integer k, got 2.0"),
    (power_sum_checks, (2, 3.0), ValueError, "need an integer n_max, got 3.0"),
    (term_log_integral, (2.5,), ValueError, "need an integer n, got 2.5"),
    (signed_factorial_integral, (2.5,), ValueError, "need an integer k, got 2.5"),
    (bisection_report, (1.0, 2.5), ValueError, "need an integer level, got 2.5"),
    (bisection_report, (1.0, 3, True), ValueError, "need an integer pf_terms, got True"),
    (asymptotic_report, ("bernoulli", True), ValueError, "need an integer m_max, got True"),
    (zeta2_partial, (20000.0,), ValueError, "need an integer n, got 20000.0"),
    (PiPower, (Fraction(1), 2.0), ValueError, "need an integer exponent, got 2.0"),
    # str() refuses an int past 4300 digits (the CPython default), so an index
    # that long is named by its digit count, and the gate's own error comes out
    (bernoulli, (10**5000,), CapacityError,
     "need n <= CAPACITY = 5000, got an integer of 5001 digits"),
    (bernoulli, (-(10**5000),), ValueError, "need n >= 0, got a negative integer of 5001 digits"),
    (genocchi_from_bernoulli, (10**4300,), CapacityError,
     "need n <= CAPACITY = 5000, got an integer of 4301 digits"),
    (term_log_integral, (-(10**3999),), ValueError, f"need n >= 0, got {-(10**3999)}"),  # 4000 digits
    (RationalPolynomial.monomial, (5, -1), ValueError, "need degree >= 0, got -1"),
    (RationalPolynomial.monomial, (1, 2.5), ValueError, "need an integer degree, got 2.5"),
    (RationalPolynomial.monomial, (1, True), ValueError, "need an integer degree, got True"),
    (RationalPolynomial.monomial, (1, CAPACITY + 1), CapacityError,
     f"need degree <= CAPACITY = {CAPACITY}, got {CAPACITY + 1}"),
    # an operand that is no polynomial (nor an int or Fraction factor) gets
    # Python's TypeError from NotImplemented, not an AttributeError
    (operator.add, (X, 1), TypeError,
     "unsupported operand type(s) for +: 'RationalPolynomial' and 'int'"),
    (operator.sub, (X, 1), TypeError,
     "unsupported operand type(s) for -: 'RationalPolynomial' and 'int'"),
    (operator.mul, (X, 0.5), TypeError,
     "unsupported operand type(s) for *: 'RationalPolynomial' and 'float'"),
    (operator.mul, (0.5, X), TypeError,
     "unsupported operand type(s) for *: 'float' and 'RationalPolynomial'"),
]


def _case_id(call, args: tuple) -> str:
    """The call's name and its argument tuple, cut to 48 characters; an int
    is spelled out by Decimal, which has no digit limit."""
    shown = [str(Decimal(a)) if type(a) is int else repr(a) for a in args]
    return f"{call.__name__}({', '.join(shown)}{',' if len(args) == 1 else ''})"[:48]


@pytest.mark.parametrize(
    "call, args, error, message", INPUT_ERRORS,
    ids=[_case_id(call, args) for call, args, _, _ in INPUT_ERRORS],
)
def test_documented_input_error(call, args, error, message):
    with pytest.raises(Exception) as caught:
        call(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_every_documented_input_error_holds_inside_a_verification_run():
    # inputs are checked before a key of the run's memo is built, so nothing changes there
    memo = _RUN_MEMO.set({})
    try:
        for call, args, error, message in INPUT_ERRORS:
            with pytest.raises(Exception) as caught:
                call(*args)
            assert (type(caught.value), str(caught.value)) == (error, message)
    finally:
        _RUN_MEMO.reset(memo)


@pytest.mark.parametrize("call, n", [(check_calculus, CAPACITY), (check_special_values, 3000)])
def test_an_index_past_the_cap_is_refused_before_any_work(call, n):
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        call(n)
    assert time.perf_counter() - start < 1.0
