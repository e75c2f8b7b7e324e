"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``ACCEPTANCE n: PASS`` line when its criterion
holds (pytest only shows the print on failure unless run with -s).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from baselkit import quadrature
from baselkit.cli import main as cli_main
from baselkit.exact import CapacityError, fraction_str, zeta_even_exact
from baselkit.polynomials import (
    bernoulli_polynomial,
    check_addition_recurrence,
    check_calculus,
    check_halving,
    check_reflection,
    check_special_values,
    genocchi_polynomial,
    power_sum_checks,
)
from baselkit.quadrature import (
    AccuracyError,
    IntegralKind,
    ProductKind,
    QuadResult,
    functional_eq_dilog,
    functional_eq_inverse,
    integrate,
    product_form,
    riemann_sum,
    scaled_dilog,
    series_integral_pair,
    two_integral_residual,
)
from baselkit.series import (
    asymptotic_report,
    bisection_report,
    eta2_partial,
    eta2_partial_float,
    regularized_target,
    zeta2_partial,
    zeta2_partial_float,
)
from baselkit.verify import RATE_NS, _RATES, run_suite
from baselkit.exact import bernoulli as bernoulli_number
from baselkit.exact import genocchi as genocchi_number

from oracles import zeta_even_coefficient

PI2_6 = math.pi**2 / 6
PI2_12 = math.pi**2 / 12


def _passed(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_exact_zeta_values():
    start = time.perf_counter()
    z1 = zeta_even_exact(1)
    assert z1.coefficient == Fraction(1, 6) and z1.exponent == 2
    for n in range(1, 11):
        power = zeta_even_exact(n)
        assert power.coefficient == zeta_even_coefficient(n), f"n={n}"
        assert power.exponent == 2 * n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _passed("1 exact zeta values")


def test_criterion_2_integral_closed_forms():
    targets = {
        IntegralKind.LOG_OVER_1MT: -PI2_6,
        IntegralKind.LOG_OVER_1PT: -PI2_12,
        IntegralKind.LOG1P_OVER_T: PI2_12,
        IntegralKind.LOG1M_OVER_T: -PI2_6,
    }
    for kind, target in targets.items():
        start = time.perf_counter()
        value = integrate(kind, 1e-12).value
        elapsed = time.perf_counter() - start
        assert abs(value - target) < 1e-10, kind
        assert elapsed < 0.1, f"{kind} took {elapsed * 1000:.1f}ms"
    _passed("2 integral closed forms")


def test_criterion_3_two_integral_identity():
    assert two_integral_residual(1e-12) < 1e-11
    _passed("3 two-integral identity")


def test_criterion_4_tail_bounds():
    for n in (10, 100, 1000, 10000):
        gap = PI2_6 - zeta2_partial_float(n)
        assert 0.0 < gap < 1.0 / n, f"zeta2 N={n}: gap={gap}"
    for n in (10, 100, 1000):
        err = abs(PI2_12 - eta2_partial_float(n))
        assert err < 1.0 / (n + 1) ** 2, f"eta2 N={n}: err={err}"
    _passed("4 tail bounds")


def test_criterion_5_bisection_identity_and_remainder():
    for x in (0.3, 1.0, math.pi / 2, 2.5):
        for level in range(13):
            rep = bisection_report(x, level)
            rel = abs(rep.bisection_value / rep.exact_value - 1.0)
            assert rel < 1e-9, f"x={x} level={level}: rel={rel}"
    for x in (0.05, 0.2, 0.5, 0.9, 1.3, math.pi / 2):
        for level in range(13):
            rep = bisection_report(x, level)
            assert 0.0 < rep.e_n_measured < 0.5**level + 1e-12, (
                f"x={x} level={level}: remainder={rep.e_n_measured}"
            )
    _passed("5 bisection identity and remainder")


def test_criterion_6_polynomial_certificates():
    start = time.perf_counter()
    for n in range(41):
        assert check_reflection(n).passed
        for variant in ("ii", "iii", "iv"):
            assert check_halving(n, variant).passed
        if n >= 2:
            assert check_addition_recurrence(n).passed
        if n >= 1:
            assert all(c.passed for c in check_calculus(n).values())
            assert all(c.passed for c in check_special_values(n).values())
        if n >= 2:
            assert genocchi_polynomial(n).evaluate(1) == -genocchi_number(n)
        # named value identities re-checked directly
        assert bernoulli_polynomial(n).evaluate(Fraction(1, 2)) == (
            Fraction(2) ** (1 - n) - 1
        ) * bernoulli_number(n)
    for n in range(1, 41):
        b2n = bernoulli_polynomial(2 * n)
        assert b2n.evaluate(Fraction(1, 2)) == Fraction(4) ** n * b2n.evaluate(Fraction(1, 4))
        assert genocchi_polynomial(2 * n).evaluate(Fraction(1, 2)) == 0
    for k in range(2, 9):
        assert all(c.passed for c in power_sum_checks(k, 100))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed("6 polynomial certificates")


def test_criterion_7_divergent_series_properties():
    # (a) regularized targets match the closed forms
    assert abs(regularized_target("bernoulli") - (PI2_6 - 1.5)) < 1e-9
    assert abs(regularized_target("genocchi") - PI2_12) < 1e-9
    # (b) optimal truncation lands within the smallest nonzero term
    for which in ("bernoulli", "genocchi"):
        rep = asymptotic_report(which, 12)
        smallest = abs(float(rep.terms[rep.smallest_term_index]))
        assert abs(rep.optimal_estimate - rep.regularized_target) <= smallest, which
    bern = asymptotic_report("bernoulli", 12)
    assert abs(bern.bracket_average - 0.144934) < 5e-3
    # (c) the literal series diverge
    for which in ("bernoulli", "genocchi"):
        rep = asymptotic_report(which, 40)
        assert abs(float(rep.partial_sums[-1])) > 1e6, which
    # errata present in the report
    statuses = {r.check_id: r.status for r in run_suite(["erratum_E1", "erratum_E2", "erratum_E3"])}
    assert statuses == {
        "erratum_E1": "erratum_documented",
        "erratum_E2": "erratum_documented",
        "erratum_E3": "erratum_documented",
    }
    _passed("7 divergent series properties")


def test_criterion_8_limit_trends():
    # at each n in RATE_NS, r(n) = sum - limit - first(n) lies in its derived window up to
    # the rows' slack, and the grid of n - 1 standing in for n puts some r(n) outside it
    rows = ["riemann_trend_log_over_1mt", "product_trend_minus", "product_trend_plus"]
    (slack,) = {r.tol for r in run_suite(rows)}
    limits = [(riemann_sum, IntegralKind.LOG_OVER_1MT, ProductKind.MINUS)]
    limits += [(product_form, k, k) for k in ProductKind]
    for measure, kind, grid in limits:
        for shift in (0, 1):
            outside = []
            for n in RATE_NS:
                first, lo, hi = _RATES[grid][1](n)
                r = measure(kind, n - shift) - kind.closed_form - first
                outside.append(not lo - slack <= r <= hi + slack)
            assert any(outside) == bool(shift), (kind, shift, outside)
    _passed("8 limit trends")


def test_criterion_9_functional_equations():
    for i in range(1, 10):
        assert functional_eq_dilog(i / 10) < 1e-9, f"x={i / 10}"
    for x in (0.1, 0.5, 2.0, 10.0):
        assert functional_eq_inverse(x) < 1e-9, f"x={x}"
    for r, a, b in ((0.5, 1.0, 0.0), (-0.9, 1.0, 0.0), (0.9, 2.0, 3.0)):
        s, i = series_integral_pair(r, a, b, 1e-10)
        assert abs(s - i) < 1e-8, (r, a, b)
    s, i = series_integral_pair(0.5, 1.0, 0.0, 1e-10)
    assert abs(s - math.log(2)) < 1e-8 and abs(i - math.log(2)) < 1e-8
    _passed("9 functional equations")


# sha256 of the full `verify --suite all --format json` report.  Performance
# work must leave these bytes unchanged; only a deliberate correctness fix to a
# row may move this value, and it says so.  It last moved when the three limit rows
# (riemann_trend_log_over_1mt, product_trend_minus, product_trend_plus) came to check
# their error's 1/n rate at n = 10^3 and 2*10^3 against derived windows, in place of
# err(10^5) < err(10^3) and err(10^5) < 1e-2: those three lines moved, and every other
# line held byte for byte.
REPORT_SHA256 = "692a1fa554384fc6ff20d00077f1c2ef649db6fbf42f0cefe6d08519448734d0"


def test_criterion_10_determinism_and_runtime(tmp_path, capsys):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    start = time.perf_counter()
    assert cli_main(["verify", "--suite", "all", "--format", "json", "--out", str(first)]) == 0
    assert cli_main(["verify", "--suite", "all", "--format", "json", "--out", str(second)]) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert hashlib.sha256(first.read_bytes()).hexdigest() == REPORT_SHA256
    assert elapsed / 2 < 60.0, f"suite took {elapsed / 2:.1f}s"
    for line in first.read_text().strip().splitlines():
        assert json.loads(line)["status"] in ("pass", "erratum_documented")
    _passed("10 determinism and runtime")


def _series_outputs(seed: int) -> list[str]:
    """One line per seeded series call: the dilog near x = +-1/2, the pair
    near r = +-1 (b/a up to 1e30), and the float and exact partial sums."""
    rng = random.Random(seed)
    tols = (1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3)

    def outcome(call) -> str:
        try:
            value = call()
        except CapacityError:
            return "CapacityError"
        return ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)

    def dilog(x: float, tol: float) -> str:
        return f"dilog {x!r} {tol!r} " + outcome(lambda: scaled_dilog(x, "series", tol))

    lines = []
    for _ in range(40):
        x = rng.choice((-1.0, 1.0)) * (0.5 - 10.0 ** rng.uniform(-4.0, -1.0))
        lines.append(dilog(x, rng.choice(tols)))
    lines += [dilog(x, tol) for x in (0.5, -0.5) for tol in tols]
    for _ in range(30):
        r = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-4.0, -1.0))
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        b = rng.choice((0.0, 10.0 ** rng.uniform(-3.0, 30.0)))
        tol = rng.choice(tols)
        lines.append(f"pair {r!r} {a!r} {b!r} {tol!r} "
                     + outcome(lambda: series_integral_pair(r, a, b, tol)))
    for _ in range(10):
        a, b, tol = 10.0 ** rng.uniform(-2.0, 3.0), rng.uniform(0.0, 5.0), rng.choice(tols[2:])
        lines.append(f"pair -1.0 {a!r} {b!r} {tol!r} "
                     + outcome(lambda: series_integral_pair(-1.0, a, b, tol)))
    for n in [1, 2, 3] + [int(10.0 ** rng.uniform(0.0, 5.0)) for _ in range(10)]:
        lines.append(f"partial {n} {zeta2_partial_float(n)!r} {eta2_partial_float(n)!r}")
    for n in [1, 2] + [rng.randint(3, 300) for _ in range(6)]:
        lines.append(f"exact {n} {fraction_str(zeta2_partial(n))} {fraction_str(eta2_partial(n))}")
    return lines


# sha256 of `_series_outputs(2013)`, joined by newlines.  Like REPORT_SHA256,
# it moves only with a deliberate change to what a series call returns (last:
# the pair's integral half integrates 1/(1 - r w^p) and scales by r/(a+b)
# afterwards, and Euler's transform starts from 1 and divides by a + b; 32 "pair"
# lines moved.  Of their 28 moved integral halves, 23 came closer to mpmath and 5
# went farther, the worst now 0.05 of max(tol, 16 * 2^-52) relative (it was 3.4e6
# at b = 1e30); of the 14 moved series halves, 6 came closer, 6 went farther and 2
# kept their distance, the worst now 1.24 * 2^-52 (0.97 before)).
SERIES_SHA256 = "a10567cb45ee6372df42af1aa13428876ff743a06cd3ff2827d8d979a7b7acb0"


def test_series_outputs_are_pinned():
    lines = _series_outputs(2013)
    assert len(lines) == 113
    assert lines[40] == "dilog 0.5 1e-15 1.6449340668482264"  # q = +1 is zeta(2) at every tol
    assert not any("CapacityError" in line for line in lines if line.startswith("dilog"))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SERIES_SHA256


def _quad_outputs(seed: int) -> list[str]:
    """One line per seeded tanh-sinh result: value and err_estimate of every
    integral kind, the two functional equations, the dilog's integral route,
    the pair's integral half and the best result carried by AccuracyError at
    level caps 1-3.  ``evaluations`` is left out: it counts calls to f."""
    rng = random.Random(seed)
    tols = [10.0**-e for e in range(3, 16)]

    def outcome(call) -> str:
        try:
            value = call()
        except AccuracyError as exc:
            return f"AccuracyError {exc.best.value!r} {exc.best.err_estimate!r}"
        except CapacityError:
            return "CapacityError"
        if isinstance(value, QuadResult):
            return f"{value.value!r} {value.err_estimate!r}"
        return repr(value)

    def line(label, call, *args) -> str:
        return f"{label} {' '.join(map(repr, args))} {outcome(lambda: call(*args))}"

    lines = [line("integrate", integrate, kind, tol) for kind in IntegralKind for tol in tols]
    lines += [line("residual", two_integral_residual, tol) for tol in tols]
    for _ in range(100):
        tol = rng.choice(tols)
        lines.append(line("dilog_eq", functional_eq_dilog, rng.uniform(-1.0, 1.0), tol))
        lines.append(line("inverse_eq", functional_eq_inverse, 10.0 ** rng.uniform(-4.0, 4.0), tol))
        lines.append(line("dilog", scaled_dilog, rng.uniform(-0.5, 0.5), "integral", tol))
    lines += [line("dilog_eq", functional_eq_dilog, x, 1e-12) for x in (-1.0, 0.0, 1.0)]
    lines += [line("dilog", scaled_dilog, x, "integral", tol) for x in (-0.5, 0.5) for tol in tols]
    for _ in range(60):
        r = rng.choice((-1.0, 1.0 - 10.0 ** rng.uniform(-3.0, -1.0)))
        a, b = 10.0 ** rng.uniform(-1.0, 2.0), rng.choice((0.0, rng.uniform(0.0, 5.0)))
        tol = rng.choice(tols[:6]) if r == -1.0 else rng.choice(tols)
        lines.append(line("pair", lambda *args: series_integral_pair(*args)[1], r, a, b, tol))
    capped = [(integrate, kind, 1e-15) for kind in IntegralKind] + [
        (functional_eq_dilog, 0.7, 1e-15),
        (scaled_dilog, 0.4, "integral", 1e-15),
        (lambda *args: series_integral_pair(*args)[1], 0.9, 1.0, 0.5, 1e-15),
    ]
    with pytest.MonkeyPatch.context() as patch:
        for cap in (1, 2, 3):
            patch.setattr(quadrature, "_MAX_LEVEL", cap)
            lines += [line(f"cap{cap}", call, *args) for call, *args in capped]
    return lines


# sha256 of `_quad_outputs(2026)`, joined by newlines; like SERIES_SHA256, it
# moves only with a deliberate change to what a quadrature call returns (last:
# the dilog kernel integrates log1p(-y u)/(y u) for y < 1/2 and scales by y
# afterwards, the kernel stops at tol |value| and builds its centre from the
# level function, which moved 82 of the 475 lines: 26 "dilog" lines, 17 closer
# to mpmath's Li2 and 9 farther, the worst now 0.16 tol relative (1.6e-16 at tol
# 1e-15); 54 "dilog_eq" residuals, 32 smaller and 22 larger, the largest moving
# from 8.1503637e-11 to 8.1503526e-11 at tol 1e-3; and 2 "inverse_eq" residuals
# at (ln x)^2 / 2 < 1, 3.8e-6 to 5.6e-15 and 5.4e-6 to 6.9e-15.  No "integrate",
# "residual", "pair" or "cap" line moved).
QUAD_SHA256 = "2db56acb8299d317a52e692b3314a860271b38da3a305c92440e7052e6ca9f31"


def test_quadrature_outputs_are_pinned():
    lines = _quad_outputs(2026)
    assert len(lines) == 475
    assert sum(line.startswith("cap") and "AccuracyError" in line for line in lines) == 21
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == QUAD_SHA256
