"""Independent oracles used to freeze expected values.

These deliberately use *different* algorithms from the library under test:
Bernoulli and Genocchi numbers come from the Akiyama-Tanigawa triangle and
from the binomial recursions of their generating functions (the library
uses integer tangent numbers and Gandhi polynomials), pi is a frozen
60-decimal literal so that tail-bound inequalities can be certified in
exact rational arithmetic, polynomials have a plain list-of-Fraction
reference for the integer-backed library class, the power-sum identity is
summed afresh at each n (the library keeps running sums over n), and
tanh-sinh has a level-by-level sum that evaluates every node afresh, out to
where q underflows, and gives each level one math.fsum (the library's levels
are nested and its nodes end at a weight floor, and must give the same
bits); one generator, `nodes_up_to_the_underflow_of_q`, gives those nodes
and the ones each nested level adds, against which the weight floor is
checked.  The integrands of the four integrals, the dilog kernel, the inverse
equation and the pair are kept as scalar functions that choose their
logarithm's arm at each call (the library writes each as a level function
whose halves have fixed arms, and must give the same bits).  The limit grids
and the 1/sin^2 bisection sums are kept in their per-term forms: one term
ln(.)/m per grid point with its logarithm's arm chosen term by term, and
every bisection sum run inside one call (the library splits the grid once
and computes the sums when read, and must give the same bits).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

# 60 decimal digits of pi; |PI_HP - pi| < 1e-60.
PI_HP = Fraction(
    3_141592653589793238462643383279502884197169399375105820974944,
    10**60,
)

ZETA2_HP = PI_HP * PI_HP / 6  # accurate to ~1e-60
ETA2_HP = PI_HP * PI_HP / 12


def akiyama_tanigawa_bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n via the Akiyama-Tanigawa triangle.

    The triangle natively produces B_1 = +1/2; the returned list is adjusted
    to the z/(e^z - 1) convention (B_1 = -1/2), which only touches index 1.
    """
    row = [Fraction(0)] * (n + 1)
    out: list[Fraction] = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def genocchi_via_relation(n: int) -> list[Fraction]:
    """G_0..G_n from the Akiyama-Tanigawa Bernoullis through G_n = -(2^n - 1) B_n."""
    bs = akiyama_tanigawa_bernoulli(n)
    return [-(2**k - 1) * bs[k] for k in range(n + 1)]


def _grow_bernoulli(m: int, prior: list[Fraction]) -> Fraction:
    # Coefficient comparison in z = (e^z - 1) * sum B_n z^n/n! gives
    # sum_{k<n} C(n,k) B_k = [n == 1]; solved for B_{n-1} with n = m+1.
    if m == 0:
        return Fraction(1)
    if m % 2 == 1 and m > 1:
        return Fraction(0)
    acc = Fraction(0)
    binom = 1  # C(m+1, 0)
    for k in range(m):
        if prior[k]:
            acc += binom * prior[k]
        binom = binom * (m + 1 - k) // (k + 1)
    return -acc / (m + 1)


def _grow_genocchi(m: int, prior: list[Fraction]) -> Fraction:
    # From z = (e^z + 1) * sum G_n z^n/n!:  G_0 = 0, 2*G_1 + G_0 = 1, and
    # 2*G_n + sum_{k<n} C(n,k) G_k = 0 for n > 1.
    if m == 0:
        return Fraction(0)
    if m == 1:
        return Fraction(1, 2)
    if m % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    binom = 1  # C(m, 0)
    for k in range(m):
        if prior[k]:
            acc += binom * prior[k]
        binom = binom * (m - k) // (k + 1)
    return -acc / 2


def binomial_recursion(grow, n: int) -> list[Fraction]:
    """Values 0..n of `_grow_bernoulli` or `_grow_genocchi`, in Fraction arithmetic."""
    prior: list[Fraction] = []
    for m in range(n + 1):
        prior.append(grow(m, prior))
    return prior


def zeta_even_coefficient(n: int) -> Fraction:
    """Rational coefficient of pi^(2n) in zeta(2n), from the oracle Bernoullis."""
    b2n = akiyama_tanigawa_bernoulli(2 * n)[2 * n]
    sign = 1 if n % 2 == 1 else -1
    return Fraction(sign * 2 ** (2 * n - 1), _factorial(2 * n)) * b2n


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class FractionPolynomial:
    """Reference polynomial: one Fraction per coefficient, schoolbook loops.

    ``coefficients`` matches ``RationalPolynomial.coefficients`` (constant
    term first, no trailing zeros), so results compare directly.
    """

    def __init__(self, coefficients=()):
        self.coefficients = _trim([Fraction(c) for c in coefficients])

    def __add__(self, other):
        a, b = list(self.coefficients), list(other.coefficients)
        n = max(len(a), len(b))
        a += [Fraction(0)] * (n - len(a))
        b += [Fraction(0)] * (n - len(b))
        return FractionPolynomial([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return FractionPolynomial([-c for c in self.coefficients])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return FractionPolynomial([c * scalar for c in self.coefficients])

    def evaluate(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * Fraction(x) + c
        return acc

    def derivative(self):
        return FractionPolynomial([k * c for k, c in enumerate(self.coefficients)][1:])

    def integral_unit(self) -> Fraction:
        return sum((c / (k + 1) for k, c in enumerate(self.coefficients)), Fraction(0))

    def compose_affine(self, a, b):
        """p(a x + b) by expanding each power (a x + b)^k binomially."""
        a, b = Fraction(a), Fraction(b)
        out = [Fraction(0)] * max(len(self.coefficients), 1)
        for k, c in enumerate(self.coefficients):
            for j in range(k + 1):
                out[j] += c * math.comb(k, j) * a**j * b ** (k - j)
        return FractionPolynomial(out)


def power_sum_sides(g, k: int, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of G_k(1) + 2 sum_{i=2..n} G_k(i) + G_k(n+1) = k sum_{i=1..n} i^(k-1)
    at this one n, for any polynomial ``g`` with an exact ``evaluate``."""
    inner = sum((g.evaluate(i) for i in range(2, n + 1)), Fraction(0))
    lhs = g.evaluate(1) + 2 * inner + g.evaluate(n + 1)
    return lhs, Fraction(k * sum(i ** (k - 1) for i in range(1, n + 1)))


def log_of(t: float, omt: float) -> float:
    """ln(t) from whichever representation of the node is exact."""
    return math.log(t) if t <= 0.5 else math.log1p(-omt)


def kind_integrand(kind):
    """The scalar f(t, 1 - t) of one of the four IntegralKinds, ln t by `log_of`."""
    name = kind.value
    if name == "log_over_1mt":
        return lambda t, omt: log_of(t, omt) / omt
    if name == "log_over_1pt":
        return lambda t, omt: log_of(t, omt) / (1.0 + t)
    if name == "log1p_over_t":
        return lambda t, omt: math.log1p(t) / t
    return lambda t, omt: log_of(omt, t) / t  # ln(1 - t): the node read as t <-> 1 - t


def level_form(f):
    """terms_of of a scalar integrand f(t, 1 - t), the kernel's protocol written
    out: f at both halves of each node (weight, s, 1 - s)."""
    return lambda nodes: [w * (f(c, s) + f(s, c)) for w, s, c in nodes]


#: The node whose terms_of term is the centre term (pi/4) f(1/2, 1/2).
CENTRE_NODE = ((math.pi / 8.0, 0.5, 0.5),)


def nodes_up_to_the_underflow_of_q(level: int, step: int):
    """(weight, q/2, 1 - q/2) of the tanh-sinh nodes t = k 2^-level, k = 1,
    1 + step, 1 + 2 step, ..., by the rule that ends only where q underflows
    to 0, near t = 6.16: step 1 gives a fresh level, step 2 the nodes a
    nested level adds to the one below it."""
    h = 0.5**level
    for k in count(1, step):
        u = 0.5 * math.pi * math.sinh(k * h)
        q = 2.0 * math.exp(-2.0 * u) if 2.0 * u > 700.0 else 2.0 / (math.exp(2.0 * u) + 1.0)
        if q == 0.0:
            return
        sech_u = 1.0 / math.cosh(u)
        yield (math.pi / 4.0) * math.cosh(k * h) * sech_u * sech_u, 0.5 * q, 1.0 - 0.5 * q


def tanh_sinh_level_by_level(terms_of, tol: float, max_level: int,
                             scale: float = 1.0) -> tuple[float, float, bool]:
    """scale times tanh-sinh over (0, 1), with every level a trapezoid sum built
    afresh: terms_of at CENTRE_NODE and at every node t = k 2^-level, and the
    level's terms summed by math.fsum.  Returns (value, err_estimate,
    converged) under the library's stopping rule, a difference between levels
    of at most tol |value|; when not converged, those of the last level."""
    previous = None
    value, err = 0.0, math.inf
    for level in range(max_level + 1):
        nodes = tuple(nodes_up_to_the_underflow_of_q(level, 1))
        value = 0.5**level * math.fsum(terms_of(CENTRE_NODE) + terms_of(nodes))
        if previous is not None:
            err = abs(value - previous)
            if err <= tol * abs(value):
                return scale * value, abs(scale) * max(err, abs(value) * 2.0**-52), True
        previous = value
    return scale * value, abs(scale) * err, False


def dilog_integrand(y: float):
    """The integrand of int_0^y ln(1 - t)/t dt on u in (0, 1), t = y u, before
    the kernel's scale.  For y < 1/2 it is log1p(-y u)/(y u), with scale y.  For
    y >= 1/2 it is ln(1 - y u)/u, with its arm chosen at each call: log1p(-y u)/u
    below u = 1/2, ln((1 - y) + y (1 - u))/u past it, and at u = 1/2, where the
    level form's two halves take one arm each, the mean of the two."""
    if y < 0.5:
        return lambda u, omu: math.log1p(-y * u) / (y * u)

    def by_log1p(u, omu):
        return math.log1p(-y * u) / u

    def by_log(u, omu):
        return math.log(1.0 - y + y * omu) / u

    return lambda u, omu: (by_log1p(u, omu) if u < 0.5 else by_log(u, omu) if u > 0.5
                           else 0.5 * (by_log1p(u, omu) + by_log(u, omu)))


def inverse_integrand(rate: float, weight: float):
    """weight * s / (1 + e^(rate s)), the integrand of functional_eq_inverse."""
    return lambda s, oms: weight * s / (1.0 + math.exp(rate * s))


def pair_integrand(r: float, a: float, b: float):
    """1 / (1 - r w^p) with p = a/(a + b), the integrand of the pair's integral half
    before its scale r/(a + b), as (1 - r) - r expm1(p ln w), ln w taken from
    whichever of w and 1 - w is at most 1/2."""
    p = a / (a + b)

    def f(w, omw):
        ln_w = math.log(w) if w <= 0.5 else math.log1p(-omw)
        return 1.0 / ((1.0 - r) - r * math.expm1(p * ln_w))
    return f


def grid_terms(kind, n: int) -> list[float]:
    """The Riemann terms f(k/n)/n of one IntegralKind for k = 1..n-1, in order, each
    as ln(.)/m with an integer m: ln(k/n)/(n -+ k) for ln t/(1 -+ t) and ln(1 -+ k/n)/k
    for ln(1 -+ t)/t, with ln t and ln(1 - t) taken by `log_of`, chosen term by term."""
    name = kind.value

    def term(k: int) -> float:
        t, omt = k / n, (n - k) / n
        if name == "log_over_1mt":
            return log_of(t, omt) / (n - k)
        if name == "log_over_1pt":
            return log_of(t, omt) / (n + k)
        if name == "log1p_over_t":
            return math.log1p(t) / k
        return log_of(omt, t) / k  # ln(1 - t): the node read as t <-> 1 - t
    return [term(k) for k in range(1, n)]


def eager_bisection_json(x: float, level: int, pf_terms: int = 10_000) -> dict:
    """The 1/sin^2 bisection report's fields with every route summed in the call."""
    scale = 2**level
    bisection = math.fsum(
        1.0 / math.sin((k * math.pi + x) / scale) ** 2 for k in range(scale)
    ) / (scale * scale)
    exact = 1.0 / math.sin(x) ** 2
    half = scale // 2
    centered_indices = range(-half, half) if level >= 1 else range(0, 1)
    centered = math.fsum(1.0 / (x + k * math.pi) ** 2 for k in centered_indices)
    tail = 2.0 / (math.pi * math.pi * pf_terms)
    partial_fraction = (
        1.0 / (x * x)
        + math.fsum(
            1.0 / (x + k * math.pi) ** 2 + 1.0 / (x - k * math.pi) ** 2
            for k in range(1, pf_terms + 1)
        )
        + tail
    )
    return {
        "x": x, "level": level, "bisection_value": bisection, "exact_value": exact,
        "e_n_bound": 0.5**level, "e_n_measured": exact - centered,
        "partial_fraction_value": partial_fraction, "truncation_k": pf_terms,
    }
