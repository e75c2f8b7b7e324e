"""Exact rational polynomials and coefficient-level identity certificates.

Bernoulli polynomials B_n(x) and the halved Genocchi polynomials G_n(x) are
built from their defining sums

    B_n(x) = sum_k C(n,k) B_{n-k} x^k,    G_n(x) = sum_k C(n,k) G_{n-k} x^k,

and every identity check below compares polynomials coefficient by
coefficient in exact arithmetic, so a passing certificate is a proof for
that degree, not a sampled approximation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import accumulate

from . import exact
from .exact import CAPACITY, _check_index, _once, _record, bernoulli, fraction_str, genocchi
from .exact import genocchi_from_bernoulli

__all__ = [
    "HALVING_VARIANTS",
    "Certificate",
    "RationalPolynomial",
    "bernoulli_polynomial",
    "check_addition_recurrence",
    "check_calculus",
    "check_construction_orderings",
    "check_halving",
    "check_reflection",
    "check_special_values",
    "genocchi_polynomial",
    "power_sum_checks",
]

_Scalar = int | Fraction


class RationalPolynomial:
    """Dense polynomial over Q, stored as integer numerators over one denominator.

    Coefficient k is ``_num[k] / _den``.  The form is canonical: ``_den > 0``,
    ``gcd(_den, *_num) == 1``, no trailing zero numerators, and the zero
    polynomial is ``((), 1)``.  So equal polynomials have equal ``(_num, _den)``,
    arithmetic runs on plain integers, and a ``Fraction`` is built only when a
    coefficient or value is read.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coefficients: Iterable[_Scalar] = ()) -> None:
        coeffs = [Fraction(c) for c in coefficients]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set([c.numerator * (den // c.denominator) for c in coeffs], den)

    def _set(self, num: list[int], den: int) -> None:
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num)
        self._num = tuple(n // g for n in num)
        self._den = den // g

    @classmethod
    def _from_ints(cls, num: list[int], den: int) -> "RationalPolynomial":
        """Canonicalise ``sum num[k] x^k / den``; ``den`` must be positive."""
        out = cls.__new__(cls)
        out._set(num, den)
        return out

    @classmethod
    def monomial(cls, coefficient: _Scalar, degree: int) -> "RationalPolynomial":
        _check_index(degree, 0, CAPACITY, "degree", "CAPACITY")
        return cls([0] * degree + [coefficient])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._num)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._num) - 1

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self._num[k], self._den) if 0 <= k < len(self._num) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def _combine(self, other: "RationalPolynomial", sign: int) -> "RationalPolynomial":
        # self + sign * other over the lcm of the two denominators
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        a, b = self._num, other._num
        out = [sa * c for c in a] + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += sb * c
        return RationalPolynomial._from_ints(out, den)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self._combine(other, -1)

    def __mul__(self, other: _Scalar) -> "RationalPolynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        s = Fraction(other)
        return RationalPolynomial._from_ints(
            [n * s.numerator for n in self._num], self._den * s.denominator
        )

    def _horner(self, p: int, q: int) -> int:
        """q^deg * den * self(p/q), an integer; q > 0."""
        acc, qpow = 0, 1
        for n in reversed(self._num):
            acc = acc * p + n * qpow
            qpow *= q
        return acc

    def evaluate(self, x: _Scalar) -> Fraction:
        x = Fraction(x)
        q = x.denominator
        return Fraction(self._horner(x.numerator, q), self._den * q ** max(self.degree, 0))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial._from_ints(
            [k * n for k, n in enumerate(self._num)][1:], self._den
        )

    def integral_unit(self) -> Fraction:
        """Exact definite integral over [0, 1]: sum c_k / (k+1) over den * lcm(1..deg+1)."""
        scale = math.lcm(*range(1, len(self._num) + 1))
        return Fraction(sum(n * (scale // (k + 1)) for k, n in enumerate(self._num)),
                        self._den * scale)

    def compose_affine(self, a: _Scalar, b: _Scalar) -> "RationalPolynomial":
        """Exact composition p(a*x + b), expanded at the coefficient level.

        Scale, shift, scale: p(a*x + b) = q(a*x/b + 1) with q(y) = p(b*y), and q(y + 1)
        is one Taylor shift by 1 in integer additions alone; b = 0 is the scaling
        alone.  Computed once per (self, a, b) in a run (`exact._once`).
        """
        if not self._num:
            return self
        a, b = Fraction(a), Fraction(b)

        def compose() -> RationalPolynomial:
            if not b:
                num, scale = _scaled(self._num, a)
                return RationalPolynomial._from_ints(num, self._den * scale)
            rest, scale_b = _scaled(self._num, b)  # q(y) = p(b*y), over den * scale_b
            rest.reverse()  # highest coefficient first
            shifted = []
            while rest:  # each running sum fixes the lowest coefficient of q(y + 1) left
                rest = list(accumulate(rest))
                shifted.append(rest.pop())
            num, scale_r = _scaled(shifted, a / b)
            return RationalPolynomial._from_ints(num, self._den * scale_b * scale_r)

        return _once(("compose_affine", self, a, b), compose)

    def to_string_list(self) -> list[str]:
        """Serialize as "p/q" strings, constant term first; zero is ["0"]."""
        if not self._num:
            return ["0"]
        return [fraction_str(c) for c in self.coefficients]

    def __repr__(self) -> str:
        if not self._num:
            return "RationalPolynomial(0)"
        parts = [f"{fraction_str(c)}*x^{k}" if k else fraction_str(c)
                 for k, c in enumerate(self.coefficients) if c]
        return "RationalPolynomial(" + " + ".join(parts) + ")"


def _scaled(num: tuple[int, ...] | list[int], r: Fraction) -> tuple[list[int], int]:
    """Integer numerators n_k u^k v^(deg-k) of p(r*x) * v^deg, and v^deg, for the
    numerators n_k of p and r = u/v; the caller divides by den * v^deg."""
    u, v, deg = r.numerator, r.denominator, len(num) - 1
    return [n * u**k * v ** (deg - k) for k, n in enumerate(num)], v**deg


def _binomial_sum(n: int, table: exact._SequenceCache) -> RationalPolynomial:
    """sum_k C(n,k) number(n-k) x^k, where `table` is the number's memo table in `exact`;
    scaled to integers with no Fraction products; built once per (table, n) in a
    verification run (`exact._once`)."""
    _check_index(n, 0, CAPACITY, cap_name="CAPACITY")

    def build() -> RationalPolynomial:
        values = table.prefix(n)[::-1]  # number(n - k) at k
        den = math.lcm(*(v.denominator for v in values))
        return RationalPolynomial._from_ints(
            [math.comb(n, k) * v.numerator * (den // v.denominator) for k, v in enumerate(values)],
            den,
        )

    return _once(("_binomial_sum", table, n), build)


def bernoulli_polynomial(n: int) -> RationalPolynomial:
    """B_n(x); degree exactly n, leading coefficient 1, constant term B_n."""
    return _binomial_sum(n, exact._BERNOULLI)


def genocchi_polynomial(n: int) -> RationalPolynomial:
    """G_n(x); G_n(0) = G_n, and degree <= n-1 for n >= 1 since G_0 = 0."""
    return _binomial_sum(n, exact._GENOCCHI)


def _genocchi_polynomial_reversed(n: int) -> RationalPolynomial:
    # same defining sum with the binomial roles swapped: C(n,k) G_k at x^(n-k)
    return RationalPolynomial([math.comb(n, k) * genocchi(k) for k in range(n, -1, -1)])


@_record
class Certificate:
    """Outcome of one exact identity check.

    ``detail`` is empty on a pass; on a failure it gives both sides, led by
    ``coefficient k:`` for the lowest differing coefficient of a polynomial.
    """

    name: str
    passed: bool
    detail: str = ""


def _poly_certificate(name: str, lhs: RationalPolynomial, rhs: RationalPolynomial) -> Certificate:
    if lhs == rhs:
        return Certificate(name, True)
    # unequal canonical forms differ in some coefficient up to the larger degree
    top = max(lhs.degree, rhs.degree)
    k = next(k for k in range(top + 1) if lhs.coefficient(k) != rhs.coefficient(k))
    detail = (
        f"coefficient {k}: lhs={fraction_str(lhs.coefficient(k))} "
        f"rhs={fraction_str(rhs.coefficient(k))}"
    )
    return Certificate(name, False, detail)


def _value_certificate(name: str, lhs: Fraction, rhs: Fraction) -> Certificate:
    if lhs == rhs:
        return Certificate(name, True)
    return Certificate(name, False, f"lhs={fraction_str(lhs)} rhs={fraction_str(rhs)}")


def check_reflection(n: int) -> Certificate:
    """G_n(1 - x) = (-1)^(n+1) G_n(x), exactly."""
    g = genocchi_polynomial(n)
    lhs = g.compose_affine(-1, 1)
    rhs = g * (1 if (n + 1) % 2 == 0 else -1)
    return _poly_certificate(f"reflection_n{n}", lhs, rhs)


#: The variants of `check_halving`, in report order.
HALVING_VARIANTS = ("ii", "iii", "iv")


def check_halving(n: int, variant: str) -> Certificate:
    """Argument-halving identities linking G_n(x) and B_n(x).

    ii : G_n(x) = B_n(x) - 2^n B_n(x/2)
    iii: G_n(x) = 2^n B_n((x+1)/2) - B_n(x)
    iv : B_n(x) = 2^(n-1) [B_n((x+1)/2) + B_n(x/2)]
    """
    if variant not in HALVING_VARIANTS:
        raise ValueError(f"variant must be one of {HALVING_VARIANTS}, got {variant!r}")
    b = bernoulli_polynomial(n)
    half = Fraction(1, 2)
    name = f"halving_{variant}_n{n}"
    if variant == "ii":  # each variant composes only the B_n it reads
        rhs = b - b.compose_affine(half, 0) * Fraction(2**n)
        return _poly_certificate(name, genocchi_polynomial(n), rhs)
    if variant == "iii":
        rhs = b.compose_affine(half, half) * Fraction(2**n) - b
        return _poly_certificate(name, genocchi_polynomial(n), rhs)
    rhs = (b.compose_affine(half, half) + b.compose_affine(half, 0)) * Fraction(2) ** (n - 1)
    return _poly_certificate(name, b, rhs)


def check_addition_recurrence(k: int) -> Certificate:
    """G_k(x+1) + G_k(x) = k x^(k-1), exactly, for 2 <= k <= CAPACITY."""
    _check_index(k, 2, CAPACITY, "k", "CAPACITY")
    g = genocchi_polynomial(k)
    lhs = g.compose_affine(1, 1) + g
    rhs = RationalPolynomial.monomial(k, k - 1)
    return _poly_certificate(f"addition_recurrence_k{k}", lhs, rhs)


def power_sum_checks(k: int, n_max: int) -> list[Certificate]:
    """G_k(1) + 2 sum_{i=2..n} G_k(i) + G_k(n+1) = k sum_{i=1..n} i^(k-1), one
    certificate per n = 1..n_max in order, for 2 <= k <= CAPACITY and
    1 <= n_max <= CAPACITY.  Both sides are running integer sums over one
    evaluation of G_k at each of 1..n_max+1."""
    _check_index(k, 2, CAPACITY, "k", "CAPACITY")
    _check_index(n_max, 1, CAPACITY, "n_max", "CAPACITY")
    g = genocchi_polynomial(k)
    den_k = g._den * k
    # inner = den * [G_k(1) + 2 sum_{i=2..n} G_k(i)] and powers = sum_{i=1..n} i^(k-1)
    inner, powers = g._horner(1, 1), 0
    out = []
    for n in range(1, n_max + 1):
        end = g._horner(n + 1, 1)
        powers += n ** (k - 1)
        name = f"power_sum_k{k}_n{n}"
        if inner + end == den_k * powers:
            out.append(Certificate(name, True))
        else:
            lhs, rhs = Fraction(inner + end, g._den), Fraction(k * powers)
            out.append(_value_certificate(name, lhs, rhs))
        inner += 2 * end
    return out


def check_special_values(n: int) -> dict[str, Certificate]:
    """Special-argument evaluations tied to the halving identities, for
    1 <= n <= CAPACITY // 2, since they read index 2n."""
    _check_index(n, 1, CAPACITY // 2, cap_name="CAPACITY // 2")
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    b_n = bernoulli_polynomial(n)
    b_2n = bernoulli_polynomial(2 * n)
    g_2n = genocchi_polynomial(2 * n)
    b_2n_quarter = b_2n.evaluate(quarter)
    checks = {
        "b_half_vs_quarter": (b_2n.evaluate(half), Fraction(4) ** n * b_2n_quarter),
        "g_half_zero": (g_2n.evaluate(half), Fraction(0)),
        "b_half_formula": (b_n.evaluate(half), (Fraction(2) ** (1 - n) - 1) * bernoulli(n)),
        "b_quarter_formula": (
            b_2n_quarter,
            Fraction(2) ** (-2 * n) * (Fraction(2) ** (1 - 2 * n) - 1) * bernoulli(2 * n),
        ),
        "g_b_relation": (genocchi(n), genocchi_from_bernoulli(n)),
    }
    return {
        key: _value_certificate(f"{key}_n{n}", lhs, rhs) for key, (lhs, rhs) in checks.items()
    }


def check_calculus(n: int) -> dict[str, Certificate]:
    """Derivative and unit-interval integral relations of G_n(x), for
    1 <= n <= CAPACITY - 1, since they read G_{n+1}.

    G_n'(x) = n G_{n-1}(x) and the integral of G_n over [0, 1] equals
    -2 G_{n+1} / (n+1).
    """
    _check_index(n, 1, CAPACITY - 1, cap_name="CAPACITY - 1")
    g = genocchi_polynomial(n)
    derivative = _poly_certificate(
        f"derivative_n{n}", g.derivative(), genocchi_polynomial(n - 1) * n
    )
    integral = _value_certificate(
        f"unit_integral_n{n}", g.integral_unit(), Fraction(-2, n + 1) * genocchi(n + 1)
    )
    return {"derivative": derivative, "unit_integral": integral}


def check_construction_orderings(n: int) -> Certificate:
    """Self-test: both orderings of the defining sum build the same G_n(x)."""
    return _poly_certificate(
        f"construction_orderings_n{n}", genocchi_polynomial(n), _genocchi_polynomial_reversed(n)
    )
