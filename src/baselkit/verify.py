"""One-shot verification suite over every identity the package implements.

Every check is a zero-argument row in the one ``_REGISTRY`` table, under a
stable id.  Tolerances and grid sizes that two or more rows share are the
module constants below (``QUAD_TOL``, ``MAX_POLY_N``, ``BISECTION_LEVELS``,
...), read when a row runs; a value only one row uses is written in that
row.  The constants that decide which ids exist (``MAX_ZETA_N``,
``ZETA2_TAIL_NS``, ``ETA2_TAIL_NS``, ``PAIR_CASES``) are fixed at import.
Results are returned sorted by id, and the serialized report deliberately
excludes wall-clock fields so repeated runs are byte-identical.

Three rows carry status ``erratum_documented`` rather than pass/fail: they
record internal inconsistencies in commonly quoted constants for this
identity family (E1: the sign of G_1; E2: two incompatible candidate
constants for the rescaled divergent sums; E3: the fact that the two
alternating Bernoulli/Genocchi series identities hold only in the
regularized / optimal-truncation sense because the literal series diverge).
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import product

from .exact import (
    _RUN_MEMO,
    _record,
    bernoulli,
    bernoulli_from_genocchi,
    fraction_str,
    genocchi,
    zeta_even_exact,
)
from .polynomials import (
    HALVING_VARIANTS,
    Certificate,
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
from .quadrature import (
    ETA2,
    ZETA2,
    IntegralKind,
    ProductKind,
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
from .series import (
    WHICH,
    asymptotic_report,
    bisection_report,
    eta2_partial_float,
    regularized_target,
    zeta2_partial_float,
)

__all__ = [
    "REPORT_FIELDS",
    "CheckResult",
    "UnknownCheckError",
    "available_checks",
    "report_lines",
    "run_suite",
    "summary_table",
]

EXACT = "exact"

# Shared by several rows and read when a row runs.
QUAD_TOL = 1e-12  # requested tolerance of every quadrature-backed call
FUNCTIONAL_TOL = 1e-9  # both functional-equation grids
TARGET_TOL = 1e-9  # regularized targets against their closed forms
MAX_POLY_N = 40  # highest index of the poly_* certificates
BISECTION_LEVELS = 12  # both bisection grids run levels 0..BISECTION_LEVELS
RATE_NS = (1_000, 2_000)  # the three limit rows check their error's rate at these n
MONOTONE_N = 10_000
ASYMPTOTIC_M_DIV = 40  # length of every report an asymptotic_* row or E3 reads
DIVERGENCE_THRESHOLD = 1e6

# These shape the registry (one check id each).
MAX_ZETA_N = 10
ZETA2_TAIL_NS = (10, 100, 1_000, 10_000)
ETA2_TAIL_NS = (10, 100, 1_000)
PAIR_CASES = ((0.5, 1.0, 0.0), (-0.9, 1.0, 0.0), (0.9, 2.0, 3.0),
              (0.25, 1.0, 0.0), (-1.0, 1.0, 0.0), (0.999, 1.0, 0.0))

#: The serialized fields of a CheckResult, in report order.
REPORT_FIELDS = ("check_id", "status", "lhs", "rhs", "abs_err", "tol")


@_record
class CheckResult:
    """Outcome of a single suite check.

    ``runtime_ms`` is informational only and is excluded from the
    serialized report so reports stay byte-identical across runs.
    """

    check_id: str
    status: str  # pass | fail | erratum_documented
    lhs: str
    rhs: str
    abs_err: float | str
    tol: float | str
    runtime_ms: int

    def to_json_dict(self) -> dict:
        return {field: getattr(self, field) for field in REPORT_FIELDS}


class UnknownCheckError(ValueError):
    """Raised when a selection names a check id that does not exist."""


_Payload = dict  # status/lhs/rhs/abs_err/tol


def _payload(status, lhs, rhs, abs_err, tol) -> _Payload:
    return {"status": status, "lhs": lhs, "rhs": rhs, "abs_err": abs_err, "tol": tol}


def _bounded(measured: float, tol: float, lhs: str, rhs: str) -> _Payload:
    status = "pass" if measured <= tol else "fail"
    return _payload(status, lhs, rhs, measured, tol)


def _worst(errors: Iterable[float]) -> float:
    """The largest error, or inf if any is NaN (max would keep an earlier value)."""
    return max(math.inf if math.isnan(e) else e for e in errors)


def _exact(ok: bool, lhs: str, rhs: str) -> _Payload:
    if ok:
        return _payload("pass", lhs, rhs, EXACT, EXACT)
    return _payload("fail", lhs, rhs, math.inf, EXACT)


# --- row bodies -------------------------------------------------------------------


def _integral(kind: IntegralKind) -> _Payload:
    res = integrate(kind, QUAD_TOL)
    err = abs(res.value - kind.closed_form)
    return _bounded(err, 1e-10, repr(res.value), repr(kind.closed_form))


def _parts_identity() -> _Payload:
    a = integrate(IntegralKind.LOG1P_OVER_T, QUAD_TOL).value
    b = integrate(IntegralKind.LOG_OVER_1PT, QUAD_TOL).value
    return _bounded(abs(a + b), 1e-10, "I[ln(1+t)/t]", "-I[ln t/(1+t)]")


def _functional(equation, grid: tuple[float, ...], lhs: str, rhs: str) -> _Payload:
    worst = _worst(equation(x, QUAD_TOL) for x in grid)
    return _bounded(worst, FUNCTIONAL_TOL, lhs, f"{rhs} on grid {list(grid)!r}")


def _pair(r: float, a: float, b: float) -> _Payload:
    s, i = series_integral_pair(r, a, b, 1e-10)
    return _bounded(abs(s - i), 1e-8, repr(s), f"{i!r} (r={r}, a={a}, b={b})")


def _dilog_modes() -> _Payload:
    xs = [-0.5 + i / 20 for i in range(21)]
    worst = _worst(
        abs(scaled_dilog(x, "series", 1e-10) - scaled_dilog(x, "integral", 1e-10)) for x in xs
    )
    return _bounded(worst, 1e-9, "series mode", "integral mode on 21-point grid")


def _monotone(kind: IntegralKind, expected: int) -> _Payload:
    direction = sample_monotonicity(kind, MONOTONE_N)
    return _exact(
        direction == expected,
        f"sampled direction {direction:+d}",
        f"expected {expected:+d} on k/n grid, n={MONOTONE_N}",
    )


def _bisection_walk(grid: tuple[float, ...]) -> Iterator[tuple[float, int, object]]:
    """(x, level, report) for each x in the grid and levels 0..BISECTION_LEVELS."""
    return ((x, n, bisection_report(x, n)) for x, n in product(grid, range(BISECTION_LEVELS + 1)))


def _bisection_identity() -> _Payload:
    grid = (0.3, 0.7, 1.0, 1.3, math.pi / 2, 2.0, 2.5)
    worst = _worst(
        abs(rep.bisection_value / rep.exact_value - 1.0) for _, _, rep in _bisection_walk(grid)
    )
    return _bounded(
        worst,
        1e-9,
        "bisection refinement of 1/sin^2",
        f"direct 1/sin^2 on grid x={list(grid)!r}, levels 0..{BISECTION_LEVELS}",
    )


def _bisection_remainder() -> _Payload:
    grid, slack = (0.05, 0.2, 0.5, 0.9, 1.3, math.pi / 2), 1e-12
    for x, level, rep in _bisection_walk(grid):
        if not (0.0 < rep.e_n_measured < rep.e_n_bound + slack):
            return _payload(
                "fail",
                f"remainder {rep.e_n_measured!r} at x={x!r}, level={level}",
                f"required interval (0, {rep.e_n_bound!r} + slack)",
                math.inf,
                slack,
            )
    return _payload(
        "pass",
        "centered partial-fraction remainder",
        f"within (0, 2^-n + slack) on x={list(grid)!r}",
        EXACT,
        slack,
    )


def _bisection_partial_fraction() -> _Payload:
    rep = bisection_report(1.0, 0)
    value, exact = rep.partial_fraction_value, rep.exact_value
    return _bounded(abs(value - exact), 1e-8, repr(value), f"{exact!r} (K={rep.truncation_k})")


def _zeta(n: int) -> _Payload:
    got = zeta_even_exact(n)
    # second route: Bernoulli numbers recovered through the Genocchi recursion
    b_alt = bernoulli_from_genocchi(2 * n)
    sign = 1 if n % 2 == 1 else -1
    expected = Fraction(sign * 2 ** (2 * n - 1), math.factorial(2 * n)) * b_alt
    ok = got.coefficient == expected and got.exponent == 2 * n
    if n == 1:
        ok = ok and got.coefficient == Fraction(1, 6)
    return _exact(ok, str(got), f"{fraction_str(expected)}*pi^{2 * n} (cross-recursion)")


def _zeta2_tail(n: int) -> _Payload:
    gap = ZETA2 - zeta2_partial_float(n)
    measured = gap if gap > 0.0 else math.inf  # a gap <= 0 (or NaN) leaves (0, 1/n)
    return _bounded(measured, 1.0 / n, f"zeta(2) - S_{n} = {gap!r}", f"(0, 1/{n})")


def _eta2_tail(n: int) -> _Payload:
    err = abs(ETA2 - eta2_partial_float(n))
    return _bounded(err, 1.0 / (n + 1) ** 2, f"|pi^2/12 - A_{n}| = {err!r}", f"< 1/{n + 1}^2")


def _certified(certificates: Iterable[Certificate], lhs: str, rhs: str) -> _Payload:
    """Exact row: the first failing certificate as (name, detail), else a pass."""
    for cert in certificates:
        if not cert.passed:
            return _exact(False, cert.name, cert.detail)
    return _exact(True, lhs, rhs)


def _upto(start: int = 0) -> range:
    return range(start, MAX_POLY_N + 1)


def _constant_terms() -> Iterator[Certificate]:
    for n in _upto():
        ok = bernoulli_polynomial(n).coefficient(0) == bernoulli(n)
        yield Certificate(f"B_{n}(0)", ok, f"B_{n}")
        ok = genocchi_polynomial(n).coefficient(0) == genocchi(n)
        yield Certificate(f"G_{n}(0)", ok, f"G_{n}")


_LN2 = math.log(2.0)

# grid -> (its first-order term as text, n -> (first(n), lo(n), hi(n))), derived in `_rate`
_RATES = {
    ProductKind.MINUS: ("(ln(2*pi*n) + 1)/(2n)", lambda n: (
        (math.log(2.0 * math.pi * n) + 1.0) / (2 * n),
        1.0 / (n * (12 * n + 1)) + 1.0 / (36 * n * n),
        (5.0 + math.log(n)) / (12 * n * n),
    )),
    ProductKind.PLUS: ("-(1 + ln 2)/(2n)", lambda n: (
        -(1.0 + _LN2) / (2 * n), (2.0 * _LN2 - 1.25) / (12 * n * n), 1.0 / (18 * n * n),
    )),
}


def _rate(measure: Callable[[object, int], float], kind, grid: ProductKind) -> _Payload:
    """Limit row: at each n in RATE_NS, r(n) = err(n) - first(n) lies in its window
    [lo(n), hi(n)] up to a slack of 1e-14, where err(n) = measure(kind, n) -
    kind.closed_form is the signed error of the grid's sum S(n) = (1/n) sum_{k<n} f(k/n).
    ``abs_err`` is the largest distance of an r(n) outside its window, 0.0 inside.

    Derivation.  For the trapezoid sum T_n(f) of f on [0, 1], the Peano kernel gives
    T_n(f) - I(f) = sum over the cells [a, b] of (1/2) int_a^b (x - a)(b - x) f''(x) dx,
    so m/(12n^2) <= T_n - I <= M/(12n^2) when m <= f'' <= M (on the last cell too, for
    f continuous on [0, 1] with (1 - t) f'(t) -> 0 at 1), and S(n) = T_n - (f(0) + f(1))/(2n).
    - PLUS, f = ln(1 + t)/t = int_0^1 ds/(1 + ts): first(n) = -(1 + ln 2)/(2n), and
      f'' = int_0^1 2s^2/(1 + ts)^3 ds falls from 2/3 at t = 0 to 2 ln 2 - 5/4 at t = 1,
      so r(n) lies in [2 ln 2 - 5/4, 2/3]/(12n^2).
    - MINUS, f = ln(1 - t)/t, which the Riemann row's ln t/(1 - t) sums too: split f into
      g = ln(1 - t) and h = (1 - t) ln(1 - t)/t, with h(0) = -1 and h(1) = 0.
      g's terms sum to (ln n! - n ln n)/n exactly, and I(g) = -1; Robbins' Stirling
      bounds, ln n! = n ln n - n + ln(2 pi n)/2 + e with 1/(12n + 1) < e < 1/(12n), put
      g's error at ln(2 pi n)/(2n) + e/n.  h's Riemann sum is T_n(h) + 1/(2n), and
      h = -1 + sum_{j>=1} t^j/(j(j + 1)), so h'' = sum_{j>=2} (j - 1)/(j + 1) t^(j-2) =
      1/(1 - t) + 2 (ln(1 - t) + t + t^2/2)/t^3 lies in [1/3, 1/(1 - t)): h is convex and
      T_n(h) - I(h) >= 1/(36n^2).  On the cell y = 1 - t in [j/n, (j + 1)/n], the bound
      h'' < 1/y gives at most 1/(4n^2) for j = 0 and 1/(12 j n^2) past it, which sum to
      (3 + H_(n-1))/(12n^2) <= (4 + ln n)/(12n^2).  So first(n) = (ln(2 pi n) + 1)/(2n),
      and r(n) lies in (1/(n(12n + 1)) + 1/(36n^2), (5 + ln n)/(12n^2)).
    The slack covers binary64: each term of a grid is within a few ulp and all share one
    sign, so S(n) is within about 4 * 2^-53 |S(n)| < 1e-15, as are the binary64 closed
    form and first(n).  mpmath at 30 digits gives r(n) n^2 = 0.7828 (n = 10^3) and 0.8405
    (2 * 10^3) for MINUS, and 0.025571 = (1 - ln 2)/12 for PLUS; an off-by-one grid
    (measure(kind, n - 1) for n) moves r(10^3) by 4.4e-6 (MINUS) and -8.5e-7 (PLUS).
    """
    slack, text, window = 1e-14, *_RATES[grid]
    rs, windows = [], []
    for n in RATE_NS:
        first, lo, hi = window(n)
        rs.append(measure(kind, n) - kind.closed_form - first)
        windows.append([lo, hi])
    outside = _worst(d for r, (lo, hi) in zip(rs, windows) for d in (lo - r, r - hi))
    return _bounded(
        max(outside, 0.0), slack,
        f"r = err - first = {rs!r} at n = {list(RATE_NS)!r}",
        f"first = {text}; each r within [lo, hi] = {windows!r}",
    )


_ASYMPTOTIC_CLOSED = {"bernoulli": ZETA2 - 1.5, "genocchi": ETA2}


def _asym_target(which: str) -> _Payload:
    target, closed = regularized_target(which, QUAD_TOL), _ASYMPTOTIC_CLOSED[which]
    return _bounded(abs(target - closed), TARGET_TOL, repr(target), repr(closed))


def _asym_truncation(which: str) -> _Payload:
    rep = asymptotic_report(which, ASYMPTOTIC_M_DIV, QUAD_TOL)
    smallest = float(abs(rep.terms[rep.smallest_term_index]))
    err = abs(rep.optimal_estimate - rep.regularized_target)
    best = min(abs(float(s) - rep.regularized_target) for s in rep.partial_sums)
    if best > smallest:
        return _payload(
            "fail", f"best truncation error {best!r}",
            f"exceeds smallest term {smallest!r}", best, smallest,
        )
    bracket_tol, closed = 5e-3, _ASYMPTOTIC_CLOSED[which]
    if which == "bernoulli" and abs(rep.bracket_average - closed) > bracket_tol:
        return _payload(
            "fail", f"bracket average {rep.bracket_average!r}",
            f"not within {bracket_tol} of {closed!r}", math.inf, bracket_tol,
        )
    return _bounded(
        err,
        smallest,
        f"optimal estimate {rep.optimal_estimate!r}",
        f"target {rep.regularized_target!r}, smallest term {smallest!r}",
    )


def _asym_divergence(which: str) -> _Payload:
    rep = asymptotic_report(which, ASYMPTOTIC_M_DIV, QUAD_TOL)
    magnitude = abs(float(rep.partial_sums[-1]))
    return _exact(
        magnitude > DIVERGENCE_THRESHOLD,
        f"|S_{ASYMPTOTIC_M_DIV}| = {magnitude!r}",
        f"exceeds {DIVERGENCE_THRESHOLD!r}; literal series diverges",
    )


def _asym_consistency() -> _Payload:
    lhs = regularized_target("bernoulli", QUAD_TOL) + 1.5
    rhs = 2.0 * regularized_target("genocchi", QUAD_TOL)
    return _bounded(abs(lhs - rhs), TARGET_TOL, repr(lhs), repr(rhs))


def _erratum_e1() -> _Payload:
    constraint_holds = 2 * genocchi(1) + genocchi(0) == 1 and genocchi(1) == Fraction(1, 2)
    if not constraint_holds:
        return _exact(False, "2*G_1 + G_0", "1")
    return _payload(
        "erratum_documented",
        "defining constraint 2*G_1 + G_0 = 1 forces G_1 = 1/2 (adopted, with B_1 = -1/2)",
        "quoted values B_1 = 1, G_1 = -1/2 contradict the recursion (2*(-1/2) + 0 = -1 != 1)",
        EXACT,
        EXACT,
    )


def _erratum_e2() -> _Payload:
    rt_g = regularized_target("genocchi", QUAD_TOL)
    quoted_b = rt_g + 1.0  # pi^2/12 + 1
    quoted_g = -rt_g - 0.5  # -pi^2/12 - 1/2
    consistent = rt_g - 0.5  # pi^2/12 - 1/2
    return _payload(
        "erratum_documented",
        f"quoted rescaled-sum constants: {quoted_b!r} and {quoted_g!r} (built on G_1 = -1/2)",
        f"G_1 = 1/2 bookkeeping gives {consistent!r} for the even-index regularized sum; "
        "neither candidate is asserted",
        EXACT,
        EXACT,
    )


def _erratum_e3() -> _Payload:
    m = ASYMPTOTIC_M_DIV
    mags = [abs(float(asymptotic_report(w, m, QUAD_TOL).partial_sums[-1])) for w in WHICH]
    if min(mags) <= DIVERGENCE_THRESHOLD:
        return _exact(False, f"partial-sum magnitudes {mags!r}", "expected divergence")
    return _payload(
        "erratum_documented",
        f"literal partial sums blow up: |S_{m}| = {mags[0]!r} (Bernoulli), {mags[1]!r} (Genocchi)",
        "the two alternating-series identities hold only as regularized / "
        "optimally truncated asymptotic statements",
        EXACT,
        EXACT,
    )


# --- the table ----------------------------------------------------------------------
# Every row is a zero-argument callable.  Rows name library functions in their
# bodies, never binding one at import, so each call resolves it in this
# module's globals, where wrappers installed by a tracer or a test are seen.
# Loop variables are bound as defaults so each row keeps its own.

_REGISTRY: dict[str, Callable[[], _Payload]] = {
    **{f"integral_{k.value}": lambda k=k: _integral(k) for k in IntegralKind},
    "integral_pair_identity": lambda: _bounded(
        two_integral_residual(QUAD_TOL), 1e-11, "I[ln t/(1-t)]", "2*I[ln t/(1+t)]"
    ),
    "integral_parts_identity": _parts_identity,
    "functional_dilog_grid": lambda: _functional(
        functional_eq_dilog, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        "h(x)+h(-x)", "h(x^2)/2",
    ),
    "functional_inverse_grid": lambda: _functional(
        functional_eq_inverse, (0.1, 0.5, 2.0, 10.0), "h(x)+h(1/x)", "(ln x)^2/2"
    ),
    **{f"series_vs_integral_{i}": lambda c=c: _pair(*c) for i, c in enumerate(PAIR_CASES, 1)},
    "dilog_modes_grid": _dilog_modes,
    "dilog_ode_residual": lambda: _bounded(
        scaled_dilog_ode_residual(0.25, 60), 1e-12,
        "y + x y' (truncated series)", "2/(1-2x) at x=0.25",
    ),
    "monotone_log_over_1mt": lambda: _monotone(IntegralKind.LOG_OVER_1MT, 1),
    "monotone_log1m_over_t": lambda: _monotone(IntegralKind.LOG1M_OVER_T, -1),
    "bisection_identity_grid": _bisection_identity,
    "bisection_remainder_bound": _bisection_remainder,
    "bisection_partial_fraction": _bisection_partial_fraction,
    **{f"zeta_even_exact_{n}": lambda n=n: _zeta(n) for n in range(1, MAX_ZETA_N + 1)},
    **{f"tail_zeta2_N{n}": lambda n=n: _zeta2_tail(n) for n in ZETA2_TAIL_NS},
    **{f"tail_eta2_N{n}": lambda n=n: _eta2_tail(n) for n in ETA2_TAIL_NS},
    "poly_reflection": lambda: _certified(
        (check_reflection(n) for n in _upto()),
        "G_n(1-x)", f"(-1)^(n+1) G_n(x), n <= {MAX_POLY_N}",
    ),
    **{
        f"poly_halving_{v}": lambda v=v: _certified(
            (check_halving(n, v) for n in _upto()),
            f"halving variant {v}", f"exact for n <= {MAX_POLY_N}",
        )
        for v in HALVING_VARIANTS
    },
    "poly_addition_recurrence": lambda: _certified(
        (check_addition_recurrence(k) for k in _upto(2)),
        "G_k(x+1)+G_k(x)", f"k x^(k-1), 2 <= k <= {MAX_POLY_N}",
    ),
    "poly_calculus": lambda: _certified(
        (c for n in _upto(1) for c in check_calculus(n).values()),
        "G_n' and unit integral", f"exact for n <= {MAX_POLY_N}",
    ),
    "poly_special_values": lambda: _certified(
        (c for n in _upto(1) for c in check_special_values(n).values()),
        "special-argument identities", f"exact for n <= {MAX_POLY_N}",
    ),
    "poly_value_at_one": lambda: _certified(
        (
            Certificate(f"G_{n}(1)", genocchi_polynomial(n).evaluate(1) == -genocchi(n), f"-G_{n}")
            for n in _upto(2)
        ),
        "G_n(1)", f"-G_n for 2 <= n <= {MAX_POLY_N}",
    ),
    "poly_constant_terms": lambda: _certified(
        _constant_terms(), "constant terms", f"match the sequences for n <= {MAX_POLY_N}"
    ),
    "poly_construction_orderings": lambda: _certified(
        (check_construction_orderings(n) for n in _upto()),
        "both defining-sum orderings", f"agree for n <= {MAX_POLY_N}",
    ),
    "poly_power_sum_grid": lambda: _certified(
        (c for k in range(2, 9) for c in power_sum_checks(k, 100)),
        "telescoped power-sum identity", "exact for k <= 8, n <= 100",
    ),
    "riemann_trend_log_over_1mt": lambda: _rate(
        riemann_sum, IntegralKind.LOG_OVER_1MT, ProductKind.MINUS
    ),
    **{f"product_trend_{k.value}": lambda k=k: _rate(product_form, k, k) for k in ProductKind},
    **{f"asymptotic_{w}_target": lambda w=w: _asym_target(w) for w in WHICH},
    **{f"asymptotic_{w}_truncation": lambda w=w: _asym_truncation(w) for w in WHICH},
    **{f"asymptotic_{w}_divergence": lambda w=w: _asym_divergence(w) for w in WHICH},
    "asymptotic_targets_consistency": _asym_consistency,
    "erratum_E1": _erratum_e1,
    "erratum_E2": _erratum_e2,
    "erratum_E3": _erratum_e3,
}


# --- runner ---------------------------------------------------------------------


def available_checks() -> list[str]:
    """All registered check ids, sorted."""
    return sorted(_REGISTRY)


def run_suite(selection: str | Iterable[str] = "all") -> list[CheckResult]:
    """Run the selected checks, each once, and return results ordered by check id.

    Unknown ids raise :class:`UnknownCheckError` before any check runs.  A
    check that raises becomes a ``fail`` row with the exception type as
    ``lhs``, its message as ``rhs``, ``abs_err`` inf and ``tol`` "exact".
    Work that rows share (see `baselkit.exact._once`) is charged to the first
    row that reads it, in id order.
    """
    if isinstance(selection, str) and selection != "all":
        selection = [selection]
    if selection == "all":
        ids = available_checks()
    else:
        ids = sorted(set(selection))
        unknown = [i for i in ids if i not in _REGISTRY]
        if unknown:
            raise UnknownCheckError(
                f"unknown check ids {unknown}; valid ids: {', '.join(available_checks())}"
            )
    memo = _RUN_MEMO.set({})
    try:
        return [_run(check_id) for check_id in ids]
    finally:
        _RUN_MEMO.reset(memo)


def _run(check_id: str) -> CheckResult:
    start = time.perf_counter_ns()
    try:
        payload = _REGISTRY[check_id]()
    except Exception as exc:  # one crashing check is one fail row, not a lost report
        payload = _payload("fail", type(exc).__name__, str(exc), math.inf, EXACT)
    elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000
    return CheckResult(check_id=check_id, runtime_ms=int(elapsed_ms), **payload)


def report_lines(results: Sequence[CheckResult]) -> list[str]:
    """One compact JSON object per check, deterministic bytes."""
    return [json.dumps(r.to_json_dict(), separators=(",", ":")) for r in results]


def summary_table(results: Sequence[CheckResult]) -> str:
    """Human-readable fixed-width table plus a status tally."""
    width = max(len(r.check_id) for r in results) if results else 8
    lines = [f"{'check':<{width}}  {'status':<19}  abs_err"]
    lines.append("-" * (width + 30))
    for r in results:
        err = r.abs_err if isinstance(r.abs_err, str) else f"{r.abs_err:.3e}"
        lines.append(f"{r.check_id:<{width}}  {r.status:<19}  {err}")
    tally = {"pass": 0, "fail": 0, "erratum_documented": 0}
    for r in results:
        tally[r.status] = tally.get(r.status, 0) + 1
    lines.append("-" * (width + 30))
    lines.append(
        f"{len(results)} checks: {tally['pass']} pass, {tally['fail']} fail, "
        f"{tally['erratum_documented']} errata documented"
    )
    return "\n".join(lines)
