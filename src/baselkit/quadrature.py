"""Numerical evaluation of the log-singular unit-interval integrals and the
limit representations (Riemann sums, log-products, dilogarithm series) that
share their closed forms.  A log-product is the Riemann sum of ln(1 -+ t)/t:
both are one math.fsum of the terms f(k/n)/n = ln(.)/m, m an integer.

The workhorse is a double-exponential (tanh-sinh) transform: nodes cluster
toward the endpoints fast enough that integrable logarithmic singularities
at t = 0 or t = 1 cost nothing, and the trapezoid sum converges roughly one
binary digit per node at each level.  Each node is held as its distance
s = q/2 from the near endpoint and as c = 1 - s, and an integrand f(t, 1 - t)
reaches the kernel as a level function terms_of(nodes) = [w * (f(c, s) +
f(s, c)) for w, s, c in nodes], one list comprehension per level, whose
integral is O(1): a caller with a small or large result integrates an O(1)
integrand and passes its factor as the kernel's scale.  As s < 1/2 < c at
every node (s <= 0.4993 up to level 10), each half takes a fixed arm: ln t is
log1p(-s) at t = c and log(s) at t = s, so values like ln(1 - t) stay fully
accurate where t rounds to 1.0 in binary64; the endpoints themselves are
never evaluated.  The centre is the node (pi/8, 1/2, 1/2) of the same level
function, at which log1p(-1/2) and log(1/2) are the same binary64.  Each level
is one math.fsum, correctly rounded, so the order of its terms does not
matter.  A level ends at its first node weight below _WEIGHT_MIN = 2^-160
(t ~ 4.3): a dropped term, at most 2^-159 max|f|, is below 2^-106 |I| when
|f| <= 2^53 |I|, so it could move the rounded sum only if the exact one lay
that close to a rounding midpoint; against the uncut sum, no library
integrand moves a bit.

All results are binary64.  pi means the nearest binary64 to pi, so no claim
is made below about 1e-15.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable, Iterator
from itertools import accumulate, chain, count, pairwise

from .exact import _check_index, _once, _record, bernoulli

__all__ = [
    "DEFAULT_TOL",
    "DILOG_MODES",
    "ETA2",
    "RIEMANN_KINDS",
    "ZETA2",
    "AccuracyError",
    "IntegralKind",
    "ProductKind",
    "QuadResult",
    "functional_eq_dilog",
    "functional_eq_inverse",
    "integrate",
    "product_form",
    "riemann_sum",
    "sample_monotonicity",
    "scaled_dilog",
    "scaled_dilog_ode_residual",
    "series_integral_pair",
    "two_integral_residual",
]

#: Tolerance of every tol-taking call that is not given one.
DEFAULT_TOL = 1e-12

#: Most terms a grid, `scaled_dilog_ode_residual` or a `BisectionReport`'s partial
#: fractions may sum or sample (2-6 s of CPython 3.11 on a 2-vCPU Xeon); more raises
#: CapacityError before any is summed.  No convergent series meets it: the float zeta(2)
#: and eta(2) sums take closed tails past it, and the dilog and pair sum <= 60 terms.
SERIES_TERM_BUDGET = 10_000_000

_PI = math.pi
_TOL_MIN, _TOL_MAX = 1e-15, 1e-3
_MAX_LEVEL = 10
_WEIGHT_MIN = 2.0**-160  # see the module docstring; the pair at r = 1 - 2^-53 has the largest |f|/|I|

#: zeta(2) = pi^2/6 and eta(2) = pi^2/12 = zeta(2)/2, as the nearest binary64.
ZETA2 = _PI * _PI / 6.0
ETA2 = ZETA2 / 2

def _closed_form(kind: IntegralKind | ProductKind) -> float:
    """Known exact value of the integral or log-limit as the nearest binary64."""
    return _CLOSED_FORMS[kind]


class IntegralKind(enum.Enum):
    """The four log-singular unit-interval integrands."""

    LOG_OVER_1MT = "log_over_1mt"    # ln(t) / (1 - t)
    LOG_OVER_1PT = "log_over_1pt"    # ln(t) / (1 + t)
    LOG1P_OVER_T = "log1p_over_t"    # ln(1 + t) / t
    LOG1M_OVER_T = "log1m_over_t"    # ln(1 - t) / t

    closed_form = property(_closed_form)


class ProductKind(enum.Enum):
    """Which product limit to accumulate: factors (1 -+ k/n)^(1/k)."""

    MINUS = "minus"
    PLUS = "plus"

    closed_form = property(_closed_form)


_CLOSED_FORMS = {
    IntegralKind.LOG_OVER_1MT: -ZETA2,
    IntegralKind.LOG_OVER_1PT: -ETA2,
    IntegralKind.LOG1P_OVER_T: ETA2,
    IntegralKind.LOG1M_OVER_T: -ZETA2,
    ProductKind.MINUS: -ZETA2,
    ProductKind.PLUS: ETA2,
}


@_record
class QuadResult:
    """Quadrature value with its error estimate and evaluation count."""

    value: float
    err_estimate: float
    evaluations: int

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__match_args__}


class AccuracyError(Exception):
    """Raised when the level cap is reached before the tolerance; carries the
    best result computed so far in ``best``."""

    def __init__(self, message: str, best: QuadResult) -> None:
        super().__init__(message)
        self.best = best


_Nodes = tuple[tuple[float, float, float], ...]


def _level_terms(kind: IntegralKind) -> Callable[[_Nodes], list[float]]:
    """The level function of kind's integrand, ln t taken as log1p(-s) at c and log(s) at s;
    anything but an IntegralKind, its value included, raises ValueError."""
    if not isinstance(kind, IntegralKind):
        raise ValueError(f"kind must be an IntegralKind, got {kind!r}")
    log, log1p = math.log, math.log1p
    if kind is IntegralKind.LOG_OVER_1PT:
        return lambda nodes: [w * (log1p(-s) / (1.0 + c) + log(s) / (1.0 + s)) for w, s, c in nodes]
    if kind is IntegralKind.LOG1P_OVER_T:
        return lambda nodes: [w * (log1p(c) / c + log1p(s) / s) for w, s, c in nodes]
    # ln(1 - t)/t is ln(t)/(1 - t) read as t <-> 1 - t: its two halves swap, and + commutes
    return lambda nodes: [w * (log1p(-s) / s + log(s) / c) for w, s, c in nodes]


def _check_tol(tol: float) -> None:
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise ValueError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}], got {tol}")


def _check_count(n: int, floor: int, name: str = "n") -> None:
    """The index gate with the term budget as its cap, read at call time."""
    _check_index(n, floor, SERIES_TERM_BUDGET, name, "SERIES_TERM_BUDGET")


@functools.cache
def _level_nodes(level: int) -> _Nodes:
    """(weight, q/2, 1 - q/2) of the nodes t = k 2^-level that `level` adds:
    every k >= 1 at level 0, odd k after it (even k are the level before's
    nodes, exactly, since k 2^-level is); q/2 = 1/(e^(2u) + 1) is the distance
    to the near endpoint.  Ends before the first weight below _WEIGHT_MIN (see
    the module docstring), where u < 58; weights fall as t grows, so a level's
    new and kept nodes end together."""
    h = 0.5**level
    nodes = []
    for k in count(1, 1 if level == 0 else 2):
        t = k * h
        u = 0.5 * _PI * math.sinh(t)
        sech_u = 1.0 / math.cosh(u)
        weight = (_PI / 4.0) * math.cosh(t) * sech_u * sech_u
        if weight < _WEIGHT_MIN:
            return tuple(nodes)
        half_q = 1.0 / (math.exp(2.0 * u) + 1.0)
        nodes.append((weight, half_q, 1.0 - half_q))


def _tanh_sinh_unit(terms_of: Callable[[_Nodes], list[float]], tol: float,
                    scale: float = 1.0) -> QuadResult:
    """scale times the integral I of f over (0, 1), f(t, 1-t) with both arguments in
    (0, 1), given as terms_of(nodes) = [w * (f(c, s) + f(s, c)) for w, s, c in nodes],
    where s <= 1/2 <= c (see the module docstring).  I must be O(1): a level ends
    when it differs from the one before by at most tol |I|.

    The centre term (pi/4) f(1/2, 1/2) is terms_of(((pi/8, 1/2, 1/2),)), exact
    where both halves agree there.  Levels are nested: level L keeps the
    weighted terms of level L-1 and passes terms_of only its new odd nodes, so
    ``evaluations`` counts the distinct points at which f is evaluated, two per
    node pair plus the centre, each once; f(1/2, 1/2) is the one point called
    twice.  Each level's terms go to one math.fsum, whose correctly rounded sum
    does not depend on their order, so each level's value is that of a
    trapezoid sum built afresh.  Nodes of weight below _WEIGHT_MIN are left out,
    as the module docstring says.

    ``value``, ``err_estimate`` and an AccuracyError's ``best`` are multiplied by
    scale (the error by |scale|) only after the stop, so it stays relative.
    """
    terms = terms_of(((_PI / 8.0, 0.5, 0.5),))
    evaluations = 1
    previous, value, err = None, 0.0, math.inf
    for level in range(_MAX_LEVEL + 1):
        nodes = _level_nodes(level)
        terms += terms_of(nodes)
        evaluations += 2 * len(nodes)
        value = 0.5**level * math.fsum(terms)
        if previous is not None:
            err = abs(value - previous)
            if err <= tol * abs(value):
                err = max(err, abs(value) * 2.0**-52)
                return QuadResult(scale * value, abs(scale) * err, evaluations)
        previous = value
    best = QuadResult(scale * value, abs(scale) * err, evaluations)
    raise AccuracyError(f"no convergence to tol={tol} within level cap {_MAX_LEVEL}", best)


def integrate(kind: IntegralKind, tol: float = DEFAULT_TOL) -> QuadResult:
    """Evaluate one of the four log-singular integrals on [0, 1].

    Parameters
    ----------
    kind : IntegralKind
        Which integrand to evaluate; anything else, its value included, raises ValueError.
    tol : float
        Requested tolerance, within [1e-15, 1e-3], relative to the value: each
        integral is pi^2/12 or pi^2/6.  The returned ``err_estimate`` is the last
        difference between levels, floored at |value| * 2^-52: an estimate, and no
        bound below about 1e-15 (for the four kinds at each tol 1e-3..1e-15, the
        error against mpmath's pi^2/6 or pi^2/12 was at most 0.53 of it).
        ``evaluations`` is the number of distinct points at which the integrand is
        evaluated, two per node pair plus the centre: the levels are nested, so no
        node is evaluated twice.  A verification run integrates once per (kind, tol),
        LOG1M_OVER_T keyed as LOG_OVER_1MT, whose level function it shares (`exact._once`).

    Raises
    ------
    AccuracyError
        If the level cap is hit first; the exception carries the best result.
    """
    _check_tol(tol)
    terms_of = _level_terms(kind)
    key = IntegralKind.LOG_OVER_1MT if kind is IntegralKind.LOG1M_OVER_T else kind
    return _once(("integrate", key, tol), lambda: _tanh_sinh_unit(terms_of, tol))


def two_integral_residual(tol: float = DEFAULT_TOL) -> float:
    """|I[ln t/(1-t)] - 2 I[ln t/(1+t)]|; the identity makes this ~0."""
    lhs = integrate(IntegralKind.LOG_OVER_1MT, tol).value
    rhs = integrate(IntegralKind.LOG_OVER_1PT, tol).value
    return abs(lhs - 2.0 * rhs)


RIEMANN_KINDS = (
    IntegralKind.LOG_OVER_1MT,
    IntegralKind.LOG1M_OVER_T,
    IntegralKind.LOG_OVER_1PT,
)


def _grid_terms(kind: IntegralKind, n: int) -> Iterator[float]:
    """The Riemann terms f(k/n)/n for k = 1..n-1 in order, as ln(.)/m with an integer m,
    one generator frame per term, on one of three grids: ln(1 - k/n)/k (LOG1M_OVER_T),
    ln(k/n)/(n + k) (LOG_OVER_1PT) and ln(1 + k/n)/k (LOG1P_OVER_T).  Every caller reads
    LOG_OVER_1MT, whose terms ln(k/n)/(n - k) are the first grid's from k = n - 1 down,
    off the LOG1M_OVER_T grid.

    ln t is log(k/n) for k <= h = n // 2 and log1p(-(n-k)/n) past it, ln(1 - k/n) the
    same at t = (n-k)/n (tests/oracles.py keeps the choice t <= 1/2 per term as the
    reference; at 1/2 both arms agree): for n < 2^53, k/n rounds to at most 1/2 exactly
    when 2k <= n, since for 2k > n, k/n - 1/2 >= 1/(2n) is more than half an ulp above 1/2.
    """
    log, log1p, h = math.log, math.log1p, n // 2
    if kind is IntegralKind.LOG1M_OVER_T:  # past k = h, j = n - k
        return chain((log1p(-k / n) / k for k in range(1, h + 1)),
                     (log(j / n) / (n - j) for j in range(n - h - 1, 0, -1)))
    if kind is IntegralKind.LOG_OVER_1PT:
        return chain((log(k / n) / (n + k) for k in range(1, h + 1)),
                     (log1p(-(n - k) / n) / (n + k) for k in range(h + 1, n)))
    return (log1p(k / n) / k for k in range(1, n))  # LOG1P_OVER_T


def _grid_sum(grid: IntegralKind, n: int) -> float:
    """math.fsum of `_grid_terms(grid, n)`, once per (grid, n) in a run (`exact._once`)."""
    return _once(("_grid_sum", grid, n), lambda: math.fsum(_grid_terms(grid, n)))


def riemann_sum(kind: IntegralKind, n: int) -> float:
    """Left-out-endpoints Riemann sum (1/n) sum_{k=1..n-1} f(k/n), n <= SERIES_TERM_BUDGET.

    Monotonicity of the integrand makes this converge to the improper
    integral even though f is unbounded at an endpoint.  One math.fsum of
    `_grid_terms`, correctly rounded, so a sum depends only on the multiset of its
    terms: LOG_OVER_1MT has those of LOG1M_OVER_T and sums that grid, as does
    product_form(MINUS, n), and the three agree bit for bit.
    """
    if kind not in RIEMANN_KINDS:
        raise ValueError(f"Riemann-sum form is only defined for {[k.value for k in RIEMANN_KINDS]}")
    _check_count(n, 2)
    return _grid_sum(IntegralKind.LOG1M_OVER_T if kind is IntegralKind.LOG_OVER_1MT else kind, n)


def sample_monotonicity(kind: IntegralKind, n: int) -> int:
    """Direction of f on the sample grid k/n: +1 non-decreasing, -1
    non-increasing, 0 neither, read from f(k/n)/n; for 3 <= n <= SERIES_TERM_BUDGET.

    LOG_OVER_1MT has the terms of LOG1M_OVER_T backwards, bit for bit, and b - a is
    exactly -(a - b), so it scans that grid and swaps the two flags; a verification run
    scans once per (grid, n) (`exact._once`), one grid for both kinds at each n."""
    _check_count(n, 3)
    if not isinstance(kind, IntegralKind):
        raise ValueError(f"kind must be an IntegralKind, got {kind!r}")
    grid = IntegralKind.LOG1M_OVER_T if kind is IntegralKind.LOG_OVER_1MT else kind

    def scan() -> tuple[bool, bool]:  # (no step down, no step up)
        rising = falling = True
        for a, b in pairwise(_grid_terms(grid, n)):
            rising &= b - a >= 0.0
            falling &= b - a <= 0.0
        return rising, falling

    rising, falling = _once(("sample_monotonicity", grid, n), scan)
    if grid is not kind:
        rising, falling = falling, rising
    return 1 if rising else -1 if falling else 0


def product_form(kind: ProductKind, n: int) -> float:
    """Log of the partial product prod_{k=1..n-1} (1 -+ k/n)^(1/k), n <= SERIES_TERM_BUDGET.

    Accumulated as sum (1/k) ln(1 -+ k/n), the Riemann sum of ln(1 -+ t)/t, to dodge
    underflow.  A kind that is no ProductKind (its string value included) raises ValueError.
    """
    if not isinstance(kind, ProductKind):
        raise ValueError(f"kind must be a ProductKind, got {kind!r}")
    _check_count(n, 2)
    grid = IntegralKind.LOG1M_OVER_T if kind is ProductKind.MINUS else IntegralKind.LOG1P_OVER_T
    return _grid_sum(grid, n)


# ---------------------------------------------------------------------------
# dilogarithm-type kernels
# ---------------------------------------------------------------------------


def _unit_log_kernel(y: float, tol: float) -> float:
    """integral over [0, y] of ln(1 - t)/t dt = -Li2(y), for y in [-1, 1].

    Rescaled to [0, 1] via t = y*u.  For y >= 1/2, where 1 - y is exact, the
    kernel integrates ln(1 - y u)/u, whose integral -Li2(y) lies in [-1.65, -0.58]:
    u > 1/2 (the nodes c) takes ln((1 - y) + y*(1 - u)), which resolves the
    y = 1 singularity exactly, and every other u takes log1p(-y*u).  For
    y < 1/2 it integrates log1p(-y u)/(y u), whose integral -Li2(y)/y lies in
    [-1.17, -0.82], with scale y.  Below |y| = 2^-53, -Li2(y) = -y - y^2/4 - ...
    rounds to -y, which is returned without the kernel: there y u could
    underflow to 0.
    """
    if abs(y) < 2.0**-53:
        return 0.0 - y  # -y, but +0.0 at y = -0.0 as at y = 0.0
    minus_y, log, log1p = -y, math.log, math.log1p
    if y >= 0.5:
        one_minus_y = 1.0 - y
        return _tanh_sinh_unit(lambda nodes: [
            w * (log(one_minus_y + y * s) / c + log1p(minus_y * s) / s) for w, s, c in nodes],
            tol).value
    return _tanh_sinh_unit(lambda nodes: [
        w * (log1p(minus_y * c) / (y * c) + log1p(minus_y * s) / (y * s)) for w, s, c in nodes],
        tol, y).value


def functional_eq_dilog(x: float, tol: float = DEFAULT_TOL) -> float:
    """Residual |h(x) + h(-x) - h(x^2)/2| with h(x) = int_0^x ln(1-t)/t dt."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x}")
    _check_tol(tol)
    lhs = _unit_log_kernel(x, tol) + _unit_log_kernel(-x, tol)
    return abs(lhs - 0.5 * _unit_log_kernel(x * x, tol))


def functional_eq_inverse(x: float, tol: float = DEFAULT_TOL) -> float:
    """Residual |h(x) + h(1/x) - (ln x)^2 / 2| with h(x) = int_1^x ln t/(1+t) dt.

    With L = ln max(x, 1/x) and t = e^(+-L s), h(x) and h(1/x) are
    L^2 int_0^1 s/(1 + e^(-L s)) ds and L^2 int_0^1 s/(1 + e^(L s)) ds, in
    either order: x is canonicalized to max(x, 1/x) first, so x and 1/x give
    the same residual.  Each integrand is weighted so that its integral lies
    in [1/2, 2], and scaled by L^2 / weight afterwards, which makes the
    kernel's stop relative to (ln x)^2 / 2; the second integral falls like
    1/L^2, from a peak of width 1/L at s = 0, so its weight is 2 max(L, 1)^2.

    Takes every x with x and 1/x positive and finite; anything else (NaN
    included) raises ValueError.  A miss is a residual above
    max(tol, 8 * 2^-52) * (ln x)^2 / 2.  Over 10^5 log-uniform x in [1e-307, 1.7e308]
    (seed 7) the worst residual was 6.6 * 2^-52, 1.5 tol and 0.35 tol times (ln x)^2 / 2
    at tol 1e-12, 1e-6 (22 misses) and 1e-3.  The kernel stops when two levels agree,
    which two levels that both miss part of a peak can do: of 10^5 log-uniform draws of
    x in [1e-307, 1e308] and tol in [1e-12, 1e-3], 29 missed, the worst by 112.5 times
    at (4.0242598639250284e-22, 1.2943264646999796e-08); at tol 1e-12, 1 of 4 * 10^5 x
    missed, 2.3829078157115738e59 by 449 times, and 3.287840675381471e231 misses by 278
    times.  Near tol 1e-15 the level cap can come first, which raises AccuracyError.
    """
    if not (0.0 < x < math.inf and 1.0 / x < math.inf):
        raise ValueError(f"x and 1/x must be positive and finite, got {x}")
    _check_tol(tol)
    lx, exp = math.log(max(x, 1.0 / x)), math.exp

    def h(sign: float, weight: float) -> float:  # f(s) = weight * s / (1 + e^(rate s))
        rate = sign * lx
        return _tanh_sinh_unit(lambda nodes: [
            w * (weight * c / (1.0 + exp(rate * c)) + weight * s / (1.0 + exp(rate * s)))
            for w, s, c in nodes], tol, lx * lx / weight).value

    return abs(h(-1.0, 2.0) + h(1.0, 2.0 * max(lx, 1.0) ** 2) - 0.5 * lx * lx)


#: Terms summed of a positive or alternating series whose term ratio is at most 1/2
#: in size.  What is left out is at most 2^-59 of the sum: for positive terms, twice
#: the 61st, which is at most 2^-60 of the first; for alternating ones, the 61st,
#: against a sum of at least half the first.  Euler's transform, the dilog's reduced
#: series and the pair at 0 <= r < 1/2 are such series, so none of them reads tol.
_SERIES_TERMS = 60


def _power_sum(q: float, denominator: Callable[[int], float], n_terms: int) -> float:
    """math.fsum of q^n / d(n) for n = 1..N, streamed, with q^n built by
    repeated multiplication; N is 60, 39 or a count checked by the caller."""
    power = 1.0
    return math.fsum((power := power * q) / denominator(n) for n in range(1, n_terms + 1))


#: The two routes of `scaled_dilog`, its default first.
DILOG_MODES = ("series", "integral")


def scaled_dilog(x: float, mode: str = "series", tol: float = DEFAULT_TOL) -> float:
    """sum_{n>=1} (2x)^n / n^2 = Li2(2x) for |x| <= 1/2, by series or by quadrature.

    The integral route evaluates -int_0^x ln(1-2t)/t dt, with a stop relative to
    it (`_unit_log_kernel`).  The series route returns zeta(2) at q = 2x = 1 and
    -eta(2) at q = -1, and moves any other q to a z with |z| <= 1/2 (Lewin,
    Polylogarithms and Associated Functions):

    * q < 0, Landen: Li2(q) = -Li2(q/(q-1)) - ln(1-q)^2 / 2;
    * q > 1/2, Euler: Li2(q) = zeta(2) - ln(q) ln(1-q) - Li2(1-q), 1-q exact.

    z lies in [0, 1/2], so Li2(z) sums its first _SERIES_TERMS = 60 terms, and
    the rest is below 2^-59 of it.  tol is validated in both modes but read only
    by the integral route: the series value is the same at every tol.  Over
    7,500 draws of x against mpmath (uniform, within 1e-16..1e-1 of +-1/2, near
    1/4, tiny), its worst relative error was 1.72 * 2^-52.
    """
    if not -0.5 <= x <= 0.5:
        raise ValueError(f"x must lie in [-1/2, 1/2], got {x}")
    _check_tol(tol)
    if mode not in DILOG_MODES:
        raise ValueError(f"mode must be one of {DILOG_MODES}, got {mode!r}")
    if mode == "integral":
        return -_unit_log_kernel(2.0 * x, tol)
    q = 2.0 * x
    if abs(q) == 1.0:
        return ZETA2 if q > 0.0 else -ETA2
    z = q / (q - 1.0) if q < 0.0 else 1.0 - q if q > 0.5 else q
    li2_z = _power_sum(z, lambda n: n * n, _SERIES_TERMS)
    if q < 0.0:
        return -li2_z - 0.5 * math.log1p(-q) ** 2
    if q > 0.5:
        return ZETA2 - math.log(q) * math.log(z) - li2_z
    return li2_z


def scaled_dilog_ode_residual(x: float, n_terms: int = 60) -> float:
    """Residual |y + x y' - 2/(1-2x)| for the truncated series y = S'(x).

    Both y and y' come from term-wise differentiation of the first
    ``n_terms`` series terms, so the residual is the truncation error of a
    geometric tail and decays like (2|x|)^n_terms.  ``n_terms`` must lie in
    2..SERIES_TERM_BUDGET; a larger one raises CapacityError before any term.
    """
    if not -0.5 < x < 0.5:
        raise ValueError(f"x must lie in (-1/2, 1/2), got {x}")
    _check_count(n_terms, 2, "n_terms")
    s1 = 2.0  # sum 2^n x^(n-1) / n        = S', from its n = 1 term
    s2 = 0.0  # sum 2^n (n-1) x^(n-2) / n  = S''
    power = 4.0  # 2^n x^(n-2) tracked incrementally, n >= 2
    for n in range(2, n_terms + 1):
        s1 += power * x / n
        s2 += power * (n - 1) / n
        power *= 2.0 * x
    return abs(s1 + x * s2 - 2.0 / (1.0 - 2.0 * x))


#: Euler's constant gamma, the nearest binary64.
_EULER_GAMMA = 0.5772156649015329

_TAIL_START = 40


@functools.cache
def _tail_coefficients() -> tuple[float, ...]:
    """B_2k/(2k) for k = 1..10, the Euler-Maclaurin coefficients of `_pair_tail`."""
    return tuple(float(bernoulli(2 * k)) / (2 * k) for k in range(1, 11))


def _pair_tail(mu: float, a: float, b: float) -> float:
    """sum_{n>=N} f(n), f(x) = e^(mu x) / (a x + b), N = _TAIL_START, for mu in
    [-ln 2, 0), by Euler-Maclaurin: int_N^inf f + f(N)/2 - sum_{k<=10} B_2k/(2k)! f^(2k-1)(N).

    With y = N + b/a and x = -mu y, int_N^inf f = f(N) y e^x E1(x), and by
    Leibniz B_2k/(2k)! f^(2k-1)(N) = f(N) B_2k/(2k) sum_{i+j=2k-1} mu^i/i! (-1/y)^j,
    so f(N) = e^(mu N) / (a N + b) stands outside and a b/a past binary64
    leaves y e^x E1(x) -> 1/|mu|.  Below x = 1, e^x E1(x) is e^x (-gamma - ln x
    - sum_{k<=24} (-x)^k / (k k!)); from x = 1 up, 1/(x+1 - 1/(x+3 - 4/(x+5 - ...)))
    evaluated backward from depth 120 (A&S 5.1.11 and the even part of 5.1.22),
    within 0.002 * 2^-52 at x = 1.  With |mu| <= ln 2 and y >= 40, the first
    term left out (k = 11) is below 2^-66 f(N).
    """
    y = _TAIL_START + b / a
    x = -mu * y
    if x < 1.0:
        powers = accumulate(range(2, 25), lambda p, k: -p * x / k, initial=-x)  # (-x)^k / k!
        terms = [-_EULER_GAMMA, -math.log(x)] + [-p / k for k, p in enumerate(powers, 1)]
        y_e1 = y * math.exp(x) * math.fsum(terms)
    else:
        t = functools.reduce(lambda t, k: k * k / (x + 2 * k + 1 - t), range(120, 0, -1), 0.0)
        y_e1 = 1.0 / ((1.0 - t) / y - mu)  # y / (x + 1 - t)
    mu_powers = list(accumulate(range(1, 20), lambda p, i: p * mu / i, initial=1.0))
    inv_powers = list(accumulate(range(19), lambda p, _: -p / y, initial=1.0))
    terms = [y_e1, 0.5]
    for k, c in enumerate(_tail_coefficients(), 1):
        terms += [-c * mu_powers[i] * inv_powers[2 * k - 1 - i] for i in range(2 * k)]
    return math.exp(mu * _TAIL_START) / (a * _TAIL_START + b) * math.fsum(terms)


def _pair_series(r: float, a: float, b: float) -> float:
    """The series half of `series_integral_pair`, for valid arguments."""
    if r < 0.0:
        v = 1.0 + b / a
        w = -r / (1.0 - r)  # Euler's transform, as `series_integral_pair` gives it
        terms = accumulate(range(1, _SERIES_TERMS), lambda term, k: term * w * k / (v + k),
                           initial=1.0)
        return r / (1.0 - r) / (a + b) * math.fsum(terms)

    def denominator(n: int) -> float:
        return a * n + b

    if r < 0.5:
        return _power_sum(r, denominator, _SERIES_TERMS)
    return _power_sum(r, denominator, _TAIL_START - 1) + _pair_tail(math.log1p(r - 1.0), a, b)


#: Smallest `a` that `series_integral_pair` takes, about 9.3e-302.  Its sum
#: can reach ln(2^53) / a ~ 37 / a, so a smaller a (every subnormal one
#: included) could carry it past binary64's range.
PAIR_A_MIN = 2.0**-1000


def series_integral_pair(
    r: float, a: float, b: float, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Two independent evaluations of sum_{n>=1} r^n / (a n + b).

    Returns ``(series_value, integral_value)``, where the integral form
    (1/a) int_0^1 r u^(b/a) / (1 - r u) du is taken with u = w^p,
    p = a/(a+b), as r/(a+b) times int_0^1 g, g(w) = 1/(1 - r w^p), which
    has no peak.  For r in [-1, 1), PAIR_A_MIN = 2^-1000 <= a < inf and
    0 <= b < inf, each half is within max(tol, 16 * 2^-52) * max(1, |sum|) of
    the sum; anything else (NaN included) raises ValueError.  Only the
    integral half reads tol, so only it is bound by that contract: the series
    half is the same at every tol, and within about 2 * 2^-52 relative of the
    sum.  Below 2^-1022 that cannot hold for any binary64 value: values there
    lie 2^-1074 apart, which is more than 2 * 2^-52 of the sum.  From
    a + b = 2^1000 up, both halves take the sum over a 2^-64 and b 2^-64 and
    multiply it by 2^-64, so neither a + b nor a n + b overflows.

    The series half, with v = 1 + b/a, is the sum (r/a) Phi(r, 1, v).  Its
    route depends on r alone:

    * r < 0, r = -1 included: Euler's transform (Knopp, Infinite Series,
      1928), r/((a+b)(1-r)) sum_{k>=0} w^k k!/((v+1)...(v+k)), w = -r/(1-r) <= 1/2,
      whose positive terms fall by w or more, to _SERIES_TERMS = 60 terms; a
      b/a past binary64 leaves the first term, 1.
    * 0 <= r < 1/2: the first 60 terms, whose ratio r(an+b)/(a(n+1)+b) is at most r.
    * r in [1/2, 1): the first 39 terms summed, then the Euler-Maclaurin tail
      from n = 40 of f(x) = r^x/(ax+b), with B_2k for k <= 10 from `exact`
      (`_pair_tail`).

    So the series half never raises.  Against mpmath over sweeps of a, b/a
    and r, Euler's transform was within 1.94 * 2^-52 relative (1,600 draws
    near r = -1, 40% at it, and 1,000 at r in [-1/2, 0)), the 60 terms at
    r in [0, 1/2) within 1.00 * 2^-52 (2,000 draws, a = 10^U(-12, 6), b/a 0
    or 10^U(-3, 12)) and the tail route within 2 * 2^-52 (3,000 draws:
    r = 1 - 10^U(-15, log10 1/2) or within 10^-3 above 1/2, a = 10^U(-6, 6),
    b/a 0 or 10^U(-3, 15)).  The integral half integrates g on the kernel and
    then multiplies by r/(a+b): 1/2 <= g <= 1/(1 - r) <= 2^53, so the stop
    max(tol, 8 * 2^-52) * |int g| is relative to the sum.  For sums
    of at least 2^-1022 it met max(tol, 16 * 2^-52) * |sum| against mpmath
    over 3,000 draws (r = -1, U(-1, 1) or 1 - 10^U(-12, -1), a = 10^U(-12, 12),
    b/a 0 or 10^U(-3, 12), tol 1e-15 to 1e-3).  Near tol 1e-15 the level cap
    can raise AccuracyError, whose ``best`` is scaled too.
    """
    if not -1.0 <= r < 1.0:
        raise ValueError(f"r must lie in [-1, 1), got {r}")
    if not PAIR_A_MIN <= a < math.inf:  # written so that NaN is rejected too
        raise ValueError(f"a must be at least PAIR_A_MIN = 2**-1000 and finite, got {a}")
    if not 0.0 <= b < math.inf:
        raise ValueError(f"b must be non-negative and finite, got {b}")
    _check_tol(tol)

    shrink = 1.0
    if a + b >= 2.0**1000:  # a n + b could overflow: sum over (a, b) 2^-64, times 2^-64
        a, b, shrink = a * 2.0**-64, b * 2.0**-64, 2.0**-64
    series = shrink * _pair_series(r, a, b)
    # g(w) = 1 / ((1 - r) - r expm1(p ln w)), ln w = log1p(-s) at the node c and log(s) at s
    p, one_minus_r = a / (a + b), 1.0 - r
    log, log1p, expm1 = math.log, math.log1p, math.expm1

    def terms_of(nodes: _Nodes) -> list[float]:
        return [w * (1.0 / (one_minus_r - r * expm1(p * log1p(-s)))
                     + 1.0 / (one_minus_r - r * expm1(p * log(s)))) for w, s, c in nodes]

    return series, _tanh_sinh_unit(terms_of, max(tol, 8 * 2.0**-52), r / (a + b) * shrink).value
