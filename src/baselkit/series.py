"""Partial-sum engines and divergent-series diagnostics.

Three families live here:

* exact partial sums of sum 1/n^2 and its alternating sibling, with the
  classical telescoping / alternating tail bounds as testable guarantees;
* the bisection refinement of 1/sin^2(x) into shifted-parabola terms,
  together with its centered partial-fraction remainder (which stays inside
  (0, 2^-n));
* the two alternating series over rectified Bernoulli / Genocchi numbers.
  Those series diverge factorially, so they are treated as asymptotic
  expansions: the report records partial sums, the optimal truncation point
  (smallest nonzero term), and a regularized target obtained by quadrature
  of the defining integral, never a literal sum.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import accumulate, chain

from . import quadrature
from .exact import _check_index, _once, _record, bernoulli, fraction_str, genocchi
from .quadrature import DEFAULT_TOL, ETA2, ZETA2, IntegralKind, integrate
from .quadrature import _check_count, _check_tol, _power_sum

__all__ = [
    "EXACT_PARTIAL_CAP",
    "PF_TERMS",
    "WHICH",
    "BisectionReport",
    "SeriesReport",
    "bisection_report",
    "eta2_partial",
    "eta2_partial_float",
    "regularized_target",
    "asymptotic_report",
    "zeta2_partial",
    "zeta2_partial_float",
]

#: Exact-mode cap; quadratic-size denominators make larger N pointless.
EXACT_PARTIAL_CAP = 10_000

#: The two divergent series of ``asymptotic_report``.
WHICH = ("bernoulli", "genocchi")

#: Partial-fraction terms of ``bisection_report`` when none are given.
PF_TERMS = 10_000


def _balanced_sum(terms: list[Fraction]) -> Fraction:
    # pairwise merge keeps the gcd work balanced instead of quadratic
    while len(terms) > 1:
        terms = [
            terms[i] + terms[i + 1] if i + 1 < len(terms) else terms[i]
            for i in range(0, len(terms), 2)
        ]
    return terms[0]


def zeta2_partial(n: int) -> Fraction:
    """Exact sum_{k<=n} 1/k^2, n <= EXACT_PARTIAL_CAP; 0 < zeta(2) - S_n < 1/n."""
    _check_index(n, 1, EXACT_PARTIAL_CAP, cap_name="EXACT_PARTIAL_CAP")
    return _balanced_sum([Fraction(1, k * k) for k in range(1, n + 1)])


def zeta2_partial_float(n: int) -> float:
    """Float view of the same partial sum, n >= 1, within 1.33 ulp: an fsum of rounded 1/k^2 up to
    SERIES_TERM_BUDGET (0.544 ulp worst), then ZETA2 less its Euler-Maclaurin tail (0.637 worst)."""
    _check_index(n, 1, math.inf)
    if n <= quadrature.SERIES_TERM_BUDGET:
        return _power_sum(1.0, lambda k: k * k, n)
    x = 1 / n  # int/int: rounded once, and to 0.0 past binary64's range
    return math.fsum([ZETA2, -x, x * x / 2] + [-float(bernoulli(k)) * x ** (k + 1) for k in (2, 4)])


def eta2_partial(n: int) -> Fraction:
    """Exact alternating sum_{k<=n} (-1)^(k-1)/k^2, n <= EXACT_PARTIAL_CAP;
    |pi^2/12 - S_n| < 1/(n+1)^2."""
    _check_index(n, 1, EXACT_PARTIAL_CAP, cap_name="EXACT_PARTIAL_CAP")
    return _balanced_sum([Fraction(1 if k % 2 else -1, k * k) for k in range(1, n + 1)])


def eta2_partial_float(n: int) -> float:
    """Float view of the alternating sum, n >= 1, within 2.15 ulp: the same fsum up to the budget
    (0.544 ulp worst), then ETA2 plus its Boole tail in Genocchi numbers (0.635 ulp worst)."""
    _check_index(n, 1, math.inf)
    if n <= quadrature.SERIES_TERM_BUDGET:
        return -_power_sum(-1.0, lambda k: k * k, n)
    x, sign = 1 / (n + 1), 1 if n % 2 else -1  # x as above; sign = (-1)^(n-1)
    return math.fsum([ETA2] + [sign * float(genocchi(j)) * (-x) ** (j + 1) for j in range(1, 5)])


def _centered_terms(x: float, size: int) -> array:
    """The terms 1/(x + k pi)^2 of an array whose first m, for m = 1, 2, 4, ..., are those
    of the centered k in range(-(m // 2), (m + 1) // 2), grown to at least `size` terms and
    kept for x through a verification run (`exact._once`): each size adds only the k it
    lacks.  math.fsum is correctly rounded, so a prefix sums to the bits of its k alone.
    An array('d') holds a term in 8 bytes, where a list of floats takes 32."""
    terms, pi = _once(("_centered_terms", x), lambda: array("d")), math.pi
    while len(terms) < size:
        held, m = len(terms), max(2 * len(terms), 1)
        new = chain(range(-(m // 2), -(held // 2)), range((held + 1) // 2, (m + 1) // 2))
        terms.fromlist([1.0 / (x + k * pi) ** 2 for k in new])
    return terms


@_record
class BisectionReport:
    """The 1/sin^2 bisection refinement at one (x, level).  Only the inputs are
    stored, and checked on construction: every number is computed when read,
    as each caller reads a few.  Inside a verification run, ``e_n_measured``
    reads the terms 1/(x + k pi)^2 from one array per x (`_centered_terms`), so
    the levels at one x compute each term once."""

    x: float
    level: int
    truncation_k: int

    _JSON_KEYS = ("x", "level", "bisection_value", "exact_value", "e_n_bound",
                  "e_n_measured", "partial_fraction_value", "truncation_k")

    def __post_init__(self) -> None:
        if not (1e-9 < self.x < math.pi - 1e-9):
            raise ValueError(f"x must lie in (0, pi) away from the poles, got {self.x}")
        _check_index(self.level, 0, 20, "level")
        _check_count(self.truncation_k, 1, "pf_terms")

    @property
    def bisection_value(self) -> float:
        """4^-n sum_{k<2^n} 1/sin^2((k pi + x)/2^n), identically 1/sin^2(x)."""
        x, sin, pi, scale = self.x, math.sin, math.pi, 2**self.level
        terms = (1.0 / sin((k * pi + x) / scale) ** 2 for k in range(scale))
        return math.fsum(terms) / (scale * scale)

    @property
    def exact_value(self) -> float:
        return 1.0 / math.sin(self.x) ** 2

    @property
    def e_n_bound(self) -> float:
        return 0.5**self.level

    @property
    def e_n_measured(self) -> float:
        size = 2**self.level  # k in [-size/2, size/2), level 0 keeps the one k = 0 term
        return self.exact_value - math.fsum(_centered_terms(self.x, size)[:size])

    @property
    def partial_fraction_value(self) -> float:
        """Two-sided partial-fraction expansion of 1/sin^2(x) truncated at
        ``truncation_k``, plus its tail estimate 2/(pi^2 K)."""
        x, k_max, pi = self.x, self.truncation_k, math.pi
        two_sided = math.fsum(
            1.0 / (x + k * pi) ** 2 + 1.0 / (x - k * pi) ** 2 for k in range(1, k_max + 1)
        )
        return 1.0 / (x * x) + two_sided + 2.0 / (pi * pi * k_max)

    def to_json(self) -> dict:
        return {key: getattr(self, key) for key in self._JSON_KEYS}


def bisection_report(x: float, level: int, pf_terms: int = PF_TERMS) -> BisectionReport:
    """The 1/sin^2(x) bisection report at (x, level), 0 <= level <= 20; the
    report checks its inputs.

    ``bisection_value`` refines 1/sin^2(x) by repeated argument halving.
    ``e_n_measured`` is the remainder of the centered 2^n-term
    partial-fraction sum, bounded by (0, 2^-n) on (0, pi/2].
    ``partial_fraction_value`` truncates the full two-sided expansion at
    ``pf_terms`` (1..SERIES_TERM_BUDGET) and compensates the tail with its
    integral estimate 2/(pi^2 K).  No sum runs in this call: every number is
    computed when read, and a verification run shares the centered terms of
    reports at one x (see `BisectionReport`).
    """
    return BisectionReport(x, level, pf_terms)


@_record
class SeriesReport:
    """Diagnostics for one of the alternating Bernoulli/Genocchi series.

    ``smallest_term_index`` indexes ``terms`` (0-based) at the smallest
    nonzero magnitude, taking the last such position so structural zero
    terms never masquerade as the optimal truncation point.
    ``optimal_estimate`` is the partial sum truncated just before it and
    ``bracket_average`` averages the two partial sums that bracket it.
    """

    which: str
    terms: tuple[Fraction, ...]
    partial_sums: tuple[Fraction, ...]
    smallest_term_index: int
    optimal_estimate: float
    bracket_average: float
    regularized_target: float

    def to_json(self) -> dict:
        return {
            "which": self.which,
            "terms": [fraction_str(t) for t in self.terms],
            "terms_float": [float(t) for t in self.terms],
            "partial_sums": [fraction_str(s) for s in self.partial_sums],
            "partial_sums_float": [float(s) for s in self.partial_sums],
            "smallest_term_index": self.smallest_term_index,
            "optimal_estimate": self.optimal_estimate,
            "bracket_average": self.bracket_average,
            "regularized_target": self.regularized_target,
            "classically_convergent": False,  # both literal series diverge
        }


def regularized_target(which: str, tol: float = DEFAULT_TOL) -> float:
    """Value assigned to the divergent series by its defining integral.

    ``bernoulli``: -I[ln t/(1-t)] - 3/2 (= pi^2/6 - 3/2).
    ``genocchi`` : -I[ln t/(1+t)]       (= pi^2/12).
    """
    if which not in WHICH:
        raise ValueError(f"which must be one of {WHICH}, got {which!r}")
    if which == "bernoulli":
        return -integrate(IntegralKind.LOG_OVER_1MT, tol).value - 1.5
    return -integrate(IntegralKind.LOG_OVER_1PT, tol).value


def asymptotic_report(which: str, m_max: int, tol: float = DEFAULT_TOL) -> SeriesReport:
    """Partial-sum diagnostics for the two factorially divergent series.

    ``bernoulli``: terms B_{2m}, m = 1..m_max (the alternating signs of the
    rectified sequence cancel against the sign straightening).
    ``genocchi``: terms (-1)^(n-1) G_n, n = 1..m_max, zeros included.
    ``m_max`` runs 1..40; a larger one raises CapacityError.  A verification run
    builds one report per (which, m_max, tol) (`exact._once`).
    """
    if which not in WHICH:
        raise ValueError(f"which must be one of {WHICH}, got {which!r}")
    _check_index(m_max, 1, 40, "m_max")
    _check_tol(tol)

    def build() -> SeriesReport:
        if which == "bernoulli":
            terms = [bernoulli(2 * m) for m in range(1, m_max + 1)]
        else:
            terms = [genocchi(n) if n % 2 else -genocchi(n) for n in range(1, m_max + 1)]

        partial_sums = list(accumulate(terms))

        nonzero = [(abs(t), i) for i, t in enumerate(terms) if t]
        smallest = min(nonzero, key=lambda pair: (pair[0], -pair[1]))[1]
        before = float(partial_sums[smallest - 1]) if smallest >= 1 else 0.0
        at = float(partial_sums[smallest])

        return SeriesReport(
            which=which,
            terms=tuple(terms),
            partial_sums=tuple(partial_sums),
            smallest_term_index=smallest,
            optimal_estimate=before,
            bracket_average=0.5 * (before + at),
            regularized_target=regularized_target(which, tol),
        )

    return _once(("asymptotic_report", which, m_max, tol), build)
