"""Documented input errors: each one's type and message, from one table."""

from __future__ import annotations

import math

import pytest

from baselkit.exact import (
    CAPACITY,
    CapacityError,
    genocchi_from_bernoulli,
    signed_factorial_integral,
    term_log_integral,
    zeta_even_exact,
)
from baselkit.polynomials import (
    bernoulli_polynomial,
    check_calculus,
    check_construction_orderings,
    check_special_values,
    genocchi_polynomial,
    power_sum_checks,
)
from baselkit.quadrature import (
    IntegralKind,
    ProductKind,
    functional_eq_dilog,
    product_form,
    riemann_sum,
    sample_monotonicity,
    scaled_dilog_ode_residual,
)
from baselkit.series import BisectionReport, bisection_report, zeta2_partial_float

NEGATIVE_INDEX = "index must be non-negative, got -1"

# (call, arguments, error type, message).  genocchi_from_bernoulli and
# check_construction_orderings check no index themselves: the message comes
# from the bernoulli and genocchi_polynomial calls they make first.
INPUT_ERRORS = [
    (zeta_even_exact, (0,), ValueError, "index must be positive, got 0"),
    (term_log_integral, (-1,), ValueError, NEGATIVE_INDEX),
    (signed_factorial_integral, (-1,), ValueError, NEGATIVE_INDEX),
    (genocchi_from_bernoulli, (-1,), ValueError, NEGATIVE_INDEX),
    # 2^n of so large a negative n raises OverflowError: the index check must come first
    (genocchi_from_bernoulli, (-(10**400),), ValueError,
     f"index must be non-negative, got {-(10**400)}"),
    (bernoulli_polynomial, (-1,), ValueError, NEGATIVE_INDEX),
    (genocchi_polynomial, (-1,), ValueError, NEGATIVE_INDEX),
    (check_construction_orderings, (-1,), ValueError, NEGATIVE_INDEX),
    (power_sum_checks, (1, 1), ValueError, "requires k >= 2, got 1"),
    (power_sum_checks, (2, 0), ValueError, "requires n >= 1, got 0"),
    (check_special_values, (0,), ValueError, "index must be positive, got 0"),
    (check_calculus, (0,), ValueError, "index must be positive, got 0"),
    (riemann_sum, (IntegralKind.LOG_OVER_1MT, 1), ValueError, "need n >= 2, got 1"),
    (sample_monotonicity, (IntegralKind.LOG_OVER_1MT, 2), ValueError, "need n >= 3, got 2"),
    (product_form, (ProductKind.MINUS, 1), ValueError, "need n >= 2, got 1"),
    (functional_eq_dilog, (1.5,), ValueError, "x must lie in [-1, 1], got 1.5"),
    (scaled_dilog_ode_residual, (0.1, 1), ValueError, "need n_terms >= 2, got 1"),
    (bisection_report, (1.0, 0, 0), ValueError, "need pf_terms >= 1, got 0"),
    # a report built directly checks its fields as bisection_report's arguments are checked
    (BisectionReport, (0.0, 0, 10), ValueError,
     "x must lie in (0, pi) away from the poles, got 0.0"),
    (BisectionReport, (1.0, 40, 5), ValueError, "level must lie in 0..20, got 40"),
    (scaled_dilog_ode_residual, (0.1, 10**8), CapacityError,
     "the series needs more than SERIES_TERM_BUDGET = 10000000 terms"),
    (signed_factorial_integral, (CAPACITY + 1,), CapacityError,
     f"index {CAPACITY + 1} exceeds the capacity cap {CAPACITY}"),
    (power_sum_checks, (2, CAPACITY + 1), CapacityError,
     f"n = {CAPACITY + 1} exceeds the capacity cap {CAPACITY}"),
    # a count that is no integer is refused before any work, NaN included
    (riemann_sum, (IntegralKind.LOG1M_OVER_T, 2.5), ValueError, "need an integer n, got 2.5"),
    (product_form, (ProductKind.PLUS, math.nan), ValueError, "need an integer n, got nan"),
    (sample_monotonicity, (IntegralKind.LOG1M_OVER_T, 3.5), ValueError,
     "need an integer n, got 3.5"),
    (zeta2_partial_float, (2.5,), ValueError, "need an integer n, got 2.5"),
    (bisection_report, (1.0, 3, math.nan), ValueError, "need an integer pf_terms, got nan"),
]


@pytest.mark.parametrize(
    "call, args, error, message", INPUT_ERRORS,
    ids=[f"{call.__name__}{args}"[:48] for call, args, _, _ in INPUT_ERRORS],
)
def test_documented_input_error(call, args, error, message):
    with pytest.raises(Exception) as caught:
        call(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message
