"""Exact rational backbone: Bernoulli and Genocchi numbers and friends.

Everything in this module is exact, so equality means equality.  The two
sequences are defined through their generating functions

    z / (e^z - 1) = sum B_n z^n / n!        (Bernoulli)
    z / (e^z + 1) = sum G_n z^n / n!        (Genocchi, halved normalization)

which force B_1 = -1/2 and G_1 = +1/2.  The value G_1 = -1/2 that is
sometimes quoted contradicts the defining constraint 2*G_1 + G_0 = 1; the
verification suite records this as erratum E1 instead of adopting it.

The even values come from two unrelated integer algorithms, with one
`fractions.Fraction` built per index at the end: B_n from the tangent
numbers (Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
numbers", arXiv:1108.0286) and G_n from the Gandhi polynomials.  The cross
relation G_n = -(2^n - 1) B_n is therefore a real identity check.
"""

from __future__ import annotations

import decimal
import math
import re
import threading
from collections.abc import Callable, Hashable
from contextvars import ContextVar
from fractions import Fraction

__all__ = [
    "CAPACITY",
    "CapacityError",
    "PiPower",
    "bernoulli",
    "bernoulli_from_genocchi",
    "fraction_str",
    "genocchi",
    "genocchi_from_bernoulli",
    "parse_fraction",
    "rectified_even_bernoulli",
    "signed_factorial_integral",
    "term_log_integral",
    "zeta_even_exact",
]

#: Largest sequence index the memo tables will grow to.  A function that reads
#: them refuses, before any work, an index whose reads would pass it: past
#: CAPACITY // 2 where it reads index 2n (`rectified_even_bernoulli`, `zeta_even_exact`,
#: `check_special_values`), past CAPACITY - 1 in `check_calculus`, which reads
#: G_{n+1}, and past CAPACITY elsewhere.  Both engines take O(n^2) big-integer
#: steps; on CPython 3.11 and a 2-vCPU Xeon, cold B_5000 takes 15 s (peak RSS
#: 29 MB) and cold G_5000 10 s (33 MB), both in one process 25 s (39 MB); a
#: cold power_sum_checks(CAPACITY, CAPACITY), which certifies all 5000 n,
#: takes 119 s (39 MB).
CAPACITY = 5000


class CapacityError(Exception):
    """An index or count exceeded its cap."""


def _check_index(n: int, floor: int, cap: float, name: str = "n", cap_name: str = "") -> None:
    """The one gate on indices and counts, before any work: ValueError for a
    non-int (bool, NaN, 2.5 and 3.0 included) or below `floor`, CapacityError
    past `cap`, named `cap_name` in the message when it is a module constant."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"need an integer {name}, got {n!r}")
    if n < floor:
        raise ValueError(f"need {name} >= {floor}, got {_int_text(n)}")
    if n > cap:
        limit = f"{cap_name} = {cap}" if cap_name else cap
        raise CapacityError(f"need {name} <= {limit}, got {_int_text(n)}")


def _int_text(n: int) -> str:
    """n in decimal up to 4000 digits, and its sign and digit count past that:
    str() refuses an int of more than sys.get_int_max_str_digits() digits
    (4300 by default since Python 3.11), where Decimal has no limit."""
    exact = decimal.Decimal(n)
    digits = exact.adjusted() + 1
    if digits <= 4000:
        return str(exact)
    return f"{'a negative' if n < 0 else 'an'} integer of {digits} digits"


def fraction_str(value: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    # str() refuses ints longer than sys.get_int_max_str_digits() (4300 by
    # default since Python 3.11); Decimal converts exactly with no limit.
    num, den = (str(decimal.Decimal(v)) for v in (value.numerator, value.denominator))
    return num if den == "1" else f"{num}/{den}"


_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(text: str) -> Fraction:
    """Inverse of :func:`fraction_str`, for any number of digits; ValueError if malformed or p/0."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        match = _RATIO.fullmatch(text.strip())
        num, den = (int(decimal.Decimal(part)) for part in match.groups("1")) if match else (0, 0)
        if den == 0:
            raise ValueError(f"not a fraction with a nonzero denominator: {text[:50]!r}") from exc
        return Fraction(num, den)


class _SequenceCache:
    """Write-once memo table for a rational sequence given by its prefixes.

    ``prefix(n)`` returns the values at indices 0..n.  A miss recomputes the
    prefix up to ``min(CAPACITY, max(n, 2 * len))``, so an ascending scan
    costs a bounded multiple of one cold call.  The new list is published
    under a lock and a published list is never mutated, so concurrent
    readers are safe and results are bit-identical regardless of call order.
    """

    def __init__(self, prefix: Callable[[int], list[Fraction]]) -> None:
        self._values: list[Fraction] = []
        self._prefix = prefix
        self._lock = threading.Lock()

    def get(self, n: int) -> Fraction:
        _check_index(n, 0, CAPACITY, cap_name="CAPACITY")
        values = self._values
        if n < len(values):
            return values[n]
        with self._lock:
            if len(self._values) <= n:
                self._values = self._prefix(min(CAPACITY, max(n, 2 * len(self._values))))
            return self._values[n]

    def prefix(self, n: int) -> list[Fraction]:
        """The values at indices 0..n: one gated `get`, then a slice of the published list."""
        self.get(n)
        return self._values[: n + 1]


_ZERO = Fraction(0)


def _bernoulli_prefix(n: int) -> list[Fraction]:
    # Tangent numbers T_1..T_half in place (Brent & Harvey, arXiv:1108.0286),
    # then B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    half = n // 2
    t = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, half + 1):
        sign = 1 if k % 2 else -1
        out += [Fraction(sign * 2 * k * t[k], 4**k * (4**k - 1)), _ZERO]
    return out[: n + 1]


def _genocchi_prefix(n: int) -> list[Fraction]:
    # Gandhi polynomials A_1 = 1, A_(j+1)(x) = (x+1)^2 A_j(x+1) - x^2 A_j(x)
    # give G_(2m+2) = (-1)^(m+1) A_m(1) / 2.  `diagonal` holds A_j(m-j+1),
    # j = 1..m; one pass moves it to m and ends with A_m(1).
    out = [_ZERO, Fraction(1, 2), Fraction(-1, 2), _ZERO]
    diagonal: list[int] = []
    for m in range(1, n // 2):
        new = 1  # A_1(m)
        for i, x in enumerate(range(m - 1, 0, -1)):
            diagonal[i], new = new, (x + 1) ** 2 * new - x * x * diagonal[i]
        diagonal.append(new)
        out += [Fraction(new if m % 2 else -new, 2), _ZERO]
    return out[: n + 1]


_RUN_MEMO: ContextVar[dict] = ContextVar("_RUN_MEMO")  # set by run_suite; see _once


def _once(key: Hashable, compute: Callable[[], object]) -> object:
    """compute(), once per key inside one `baselkit.verify.run_suite` call (per thread
    and context) and afresh outside one; a compute that raises is not stored.  The
    keys are the name and inputs of `_binomial_sum` (table, n), `_grid_sum` (grid, n),
    `sample_monotonicity` (grid, n), `integrate` (kind, tol), `compose_affine`
    (polynomial, a, b), `asymptotic_report` (which, m_max, tol) and
    `series._centered_terms` (x).  The last holds an array that only grows and is read
    as a prefix, so each bisection level adds only the terms that the levels read
    before it lack.  Every caller checks its inputs before it builds a key.  Nothing is
    kept after the call: B_1000(x) alone holds 0.26 MB, and the size grows faster than n^2."""
    memo = _RUN_MEMO.get(None)
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


_BERNOULLI = _SequenceCache(_bernoulli_prefix)
_GENOCCHI = _SequenceCache(_genocchi_prefix)


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_0 = 1, B_1 = -1/2, odd B_n = 0 for n > 1)."""
    return _BERNOULLI.get(n)


def genocchi(n: int) -> Fraction:
    """Exact Genocchi number G_n of z/(e^z + 1) (G_0 = 0, G_1 = 1/2)."""
    return _GENOCCHI.get(n)


def genocchi_from_bernoulli(n: int) -> Fraction:
    """G_n computed through the cross relation G_n = -(2^n - 1) B_n."""
    return bernoulli(n) * (1 - 2**n)  # B_n first: it checks n before 2^n is built


def bernoulli_from_genocchi(n: int) -> Fraction:
    """B_n computed through the inverse relation B_n = G_n / (1 - 2^n), n >= 1."""
    _check_index(n, 1, CAPACITY, cap_name="CAPACITY")  # 2^0 - 1 = 0 has no inverse
    return genocchi(n) / (1 - 2**n)


def rectified_even_bernoulli(n: int) -> Fraction:
    """Sign-straightened even Bernoulli number (-1)^(n-1) B_{2n}, positive for n >= 1."""
    _check_index(n, 1, CAPACITY // 2, cap_name="CAPACITY // 2")
    b = bernoulli(2 * n)
    return b if n % 2 == 1 else -b


def _record(cls: type) -> type:
    """Make ``cls`` an immutable record, as ``@dataclass(frozen=True)`` would.

    The fields are the class's own annotations, in order; a class-level value
    is that field's default.  ``__init__`` stores the fields and then runs
    ``__post_init__`` if there is one.  ``==`` (same class only), ``hash``,
    ``repr`` and ``__match_args__`` go by the fields; assigning or deleting an
    attribute raises AttributeError.  A record is not a tuple: it neither
    iterates nor orders.  Every record of the library is built here, because
    ``dataclasses`` imports ``inspect`` (and with it ``dis``, ``ast`` and
    ``tokenize``), which was about a third of the time of ``import baselkit.cli``.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    # generated once per class, so construction runs no loop; object.__setattr__
    # rather than writes to self.__dict__, which would make CPython give up its
    # compact attribute storage (slower reads, more memory per record)
    source = [
        "def __init__(self, "
        + ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names) + "):",
        *(f"    _set(self, {n!r}, {n})" for n in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        f"def _values(self): return ({''.join(f'self.{n}, ' for n in names)})",
    ]
    namespace = {"_defaults": defaults, "_set": object.__setattr__}
    exec("\n".join(source), namespace)
    values = namespace["_values"]

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{type(self).__qualname__}({pairs})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (namespace["__init__"], __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"  # as in TypeError messages
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@_record
class PiPower:
    """Exact multiple of an even power of pi: ``coefficient * pi**exponent``."""

    coefficient: Fraction
    exponent: int

    def __post_init__(self) -> None:
        _check_index(self.exponent, 0, math.inf, "exponent")
        if self.exponent % 2:
            raise ValueError(f"exponent must be even, got {self.exponent}")

    def to_float(self) -> float:
        """The exact product with binary64 pi, rounded once (finite at every exponent)."""
        return float(self.coefficient * Fraction(math.pi) ** self.exponent)

    def to_json(self) -> dict:
        return {"coefficient": fraction_str(self.coefficient), "pi_exponent": self.exponent}

    def __str__(self) -> str:
        return f"{fraction_str(self.coefficient)}*pi^{self.exponent}"


def zeta_even_exact(n: int) -> PiPower:
    """Exact zeta(2n) as a rational multiple of pi^(2n).

    zeta(2n) = 2^(2n-1) / (2n)! * ((-1)^(n-1) B_{2n}) * pi^(2n); the rational
    coefficient is strictly positive.  zeta_even_exact(1) is exactly (1/6) pi^2.
    """
    # the rectified number first: it checks n before 2^(2n-1) and (2n)! are built
    coeff = rectified_even_bernoulli(n) * Fraction(2 ** (2 * n - 1), math.factorial(2 * n))
    return PiPower(coeff, 2 * n)


def term_log_integral(n: int) -> Fraction:
    """Exact value -1/(n+1)^2 of the moment integral of t^n * ln(t) over [0, 1]."""
    _check_index(n, 0, math.inf)
    return Fraction(-1, (n + 1) ** 2)


def signed_factorial_integral(k: int) -> Fraction:
    """Exact value (-1)^k * k! of the integral of s^k * e^s over (-inf, 0], k <= CAPACITY.

    One integration by parts gives I_k = (-k) I_{k-1} with I_0 = 1.
    """
    _check_index(k, 0, CAPACITY, "k", "CAPACITY")
    value = math.factorial(k)
    return Fraction(-value if k % 2 else value)
