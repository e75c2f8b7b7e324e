"""Runner behavior of the verification suite."""

from __future__ import annotations

import inspect
import json
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest

import baselkit.polynomials as polynomials
import baselkit.quadrature as quadrature
import baselkit.series as series
import baselkit.verify as verify
from baselkit import exact
from baselkit.cli import main
from baselkit.polynomials import Certificate, RationalPolynomial, genocchi_polynomial
from baselkit.quadrature import IntegralKind, ProductKind, integrate, product_form, riemann_sum
from baselkit.series import asymptotic_report
from baselkit.verify import (
    CheckResult,
    UnknownCheckError,
    available_checks,
    report_lines,
    run_suite,
    summary_table,
)


@pytest.fixture(scope="module")
def full_results():
    return run_suite("all")


class TestRunner:
    def test_everything_passes_or_is_documented(self, full_results):
        for r in full_results:
            assert r.status in ("pass", "erratum_documented"), f"{r.check_id}: {r.lhs} / {r.rhs}"

    def test_ordering_by_check_id(self, full_results):
        ids = [r.check_id for r in full_results]
        assert ids == sorted(ids)
        assert ids == available_checks()

    def test_minimum_coverage(self, full_results):
        ids = set(r.check_id for r in full_results)
        required = {
            "integral_log_over_1mt",
            "integral_log_over_1pt",
            "integral_log1p_over_t",
            "integral_log1m_over_t",
            "integral_pair_identity",
            "functional_dilog_grid",
            "functional_inverse_grid",
            "series_vs_integral_1",
            "series_vs_integral_4",
            "series_vs_integral_5",
            "series_vs_integral_6",
            "riemann_trend_log_over_1mt",
            "bisection_identity_grid",
            "bisection_remainder_bound",
            "poly_reflection",
            "poly_power_sum_grid",
            "asymptotic_bernoulli_truncation",
            "asymptotic_genocchi_truncation",
            "erratum_E1",
            "erratum_E2",
            "erratum_E3",
        }
        required.update(f"zeta_even_exact_{n}" for n in range(1, 11))
        assert required <= ids

    def test_single_selection(self):
        results = run_suite(["zeta_even_exact_1"])
        assert len(results) == 1
        assert results[0].status == "pass"
        assert results[0].lhs == "1/6*pi^2"

    def test_string_selection(self):
        results = run_suite("erratum_E1")
        assert len(results) == 1
        assert results[0].status == "erratum_documented"

    def test_repeated_id_runs_once(self):
        results = run_suite(["zeta_even_exact_2", "zeta_even_exact_1", "zeta_even_exact_2"])
        assert [r.check_id for r in results] == ["zeta_even_exact_1", "zeta_even_exact_2"]

    def test_unknown_id_is_usage_error(self):
        with pytest.raises(UnknownCheckError) as exc:
            run_suite(["no_such_check"])
        assert "no_such_check" in str(exc.value)
        assert "zeta_even_exact_1" in str(exc.value)

    def test_errata_never_count_as_failure(self, full_results):
        errata = [r for r in full_results if r.check_id.startswith("erratum_")]
        assert len(errata) == 3
        assert all(r.status == "erratum_documented" for r in errata)

    def test_pass_respects_tolerance_invariant(self, full_results):
        for r in full_results:
            if r.status == "pass" and not isinstance(r.abs_err, str):
                assert isinstance(r.tol, float)
                assert r.abs_err <= r.tol, r.check_id


class TestReport:
    def test_lines_are_json_and_exclude_runtime(self, full_results):
        lines = report_lines(full_results)
        assert len(lines) == len(full_results)
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"check_id", "status", "lhs", "rhs", "abs_err", "tol"}

    def test_byte_identical_reports(self):
        first = "\n".join(report_lines(run_suite("all")))
        second = "\n".join(report_lines(run_suite("all")))
        assert first.encode() == second.encode()

    def test_summary_table_shape(self, full_results):
        table = summary_table(full_results)
        assert "pass" in table
        assert "errata documented" in table
        assert str(len(full_results)) in table

    def test_runtime_recorded_in_memory(self, full_results):
        assert all(r.runtime_ms >= 0 for r in full_results)


class TestConfig:
    def test_custom_grid_sizes(self, monkeypatch):
        monkeypatch.setattr(verify, "MAX_POLY_N", 10)
        results = run_suite(["poly_power_sum_grid", "poly_reflection"])
        assert all(r.status == "pass" for r in results)
        # the constants are read when a row runs, not when it is registered
        rhs = [r.rhs for r in results]
        assert rhs == ["exact for k <= 8, n <= 100", "(-1)^(n+1) G_n(x), n <= 10"]

    def test_result_dataclass_shape(self):
        r = run_suite(["integral_log_over_1mt"])[0]
        assert isinstance(r, CheckResult)
        assert isinstance(r.abs_err, float)
        assert r.to_json_dict()["check_id"] == "integral_log_over_1mt"

    def test_registry_shape_is_fixed_not_config(self):
        assert list(inspect.signature(run_suite).parameters) == ["selection"]
        ids = set(available_checks())
        assert len(ids) == 62
        assert {f"zeta_even_exact_{n}" for n in range(1, verify.MAX_ZETA_N + 1)} <= ids
        assert {f"tail_zeta2_N{n}" for n in verify.ZETA2_TAIL_NS} <= ids
        assert {f"tail_eta2_N{n}" for n in verify.ETA2_TAIL_NS} <= ids
        pairs = {i for i in ids if i.startswith("series_vs_integral_")}
        assert len(pairs) == len(verify.PAIR_CASES)


# Rows whose text never passes through binary64: pinned verbatim.
PINNED_ROWS = [
    ("erratum_E1", "erratum_documented",
     "defining constraint 2*G_1 + G_0 = 1 forces G_1 = 1/2 (adopted, with B_1 = -1/2)",
     "quoted values B_1 = 1, G_1 = -1/2 contradict the recursion (2*(-1/2) + 0 = -1 != 1)"),
    ("monotone_log1m_over_t", "pass", "sampled direction -1", "expected -1 on k/n grid, n=10000"),
    ("monotone_log_over_1mt", "pass", "sampled direction +1", "expected +1 on k/n grid, n=10000"),
    ("poly_addition_recurrence", "pass", "G_k(x+1)+G_k(x)", "k x^(k-1), 2 <= k <= 40"),
    ("poly_calculus", "pass", "G_n' and unit integral", "exact for n <= 40"),
    ("poly_constant_terms", "pass", "constant terms", "match the sequences for n <= 40"),
    ("poly_construction_orderings", "pass", "both defining-sum orderings", "agree for n <= 40"),
    ("poly_halving_ii", "pass", "halving variant ii", "exact for n <= 40"),
    ("poly_halving_iii", "pass", "halving variant iii", "exact for n <= 40"),
    ("poly_halving_iv", "pass", "halving variant iv", "exact for n <= 40"),
    ("poly_power_sum_grid", "pass", "telescoped power-sum identity", "exact for k <= 8, n <= 100"),
    ("poly_reflection", "pass", "G_n(1-x)", "(-1)^(n+1) G_n(x), n <= 40"),
    ("poly_special_values", "pass", "special-argument identities", "exact for n <= 40"),
    ("poly_value_at_one", "pass", "G_n(1)", "-G_n for 2 <= n <= 40"),
    ("zeta_even_exact_1", "pass", "1/6*pi^2", "1/6*pi^2 (cross-recursion)"),
    ("zeta_even_exact_2", "pass", "1/90*pi^4", "1/90*pi^4 (cross-recursion)"),
    ("zeta_even_exact_3", "pass", "1/945*pi^6", "1/945*pi^6 (cross-recursion)"),
    ("zeta_even_exact_4", "pass", "1/9450*pi^8", "1/9450*pi^8 (cross-recursion)"),
    ("zeta_even_exact_5", "pass", "1/93555*pi^10", "1/93555*pi^10 (cross-recursion)"),
    ("zeta_even_exact_6", "pass", "691/638512875*pi^12", "691/638512875*pi^12 (cross-recursion)"),
    ("zeta_even_exact_7", "pass", "2/18243225*pi^14", "2/18243225*pi^14 (cross-recursion)"),
    ("zeta_even_exact_8", "pass", "3617/325641566250*pi^16",
     "3617/325641566250*pi^16 (cross-recursion)"),
    ("zeta_even_exact_9", "pass", "43867/38979295480125*pi^18",
     "43867/38979295480125*pi^18 (cross-recursion)"),
    ("zeta_even_exact_10", "pass", "174611/1531329465290625*pi^20",
     "174611/1531329465290625*pi^20 (cross-recursion)"),
]


def test_pinned_pass_row_text(full_results):
    rows = {r.check_id: r for r in full_results}
    for check_id, status, lhs, rhs in PINNED_ROWS:
        r = rows[check_id]
        assert (r.check_id, r.status, r.lhs, r.rhs) == (check_id, status, lhs, rhs)
        assert (r.abs_err, r.tol) == ("exact", "exact")
    exact_rows = {i for i in rows if i.startswith(("poly_", "zeta_even_exact_", "monotone_"))}
    assert {row[0] for row in PINNED_ROWS} == exact_rows | {"erratum_E1"}


class TestIsolation:
    def test_raising_check_is_one_fail_row(self, full_results, capsys, monkeypatch):
        def boom(n):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(verify, "check_reflection", boom)
        code = main(["verify", "--suite", "all", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"verify: {len(available_checks())} checks, 1 failed\n"
        rows = [json.loads(line) for line in captured.out.splitlines()]
        expected = [json.loads(line) for line in report_lines(full_results)]
        broken = [i for i, (got, want) in enumerate(zip(rows, expected)) if got != want]
        assert len(rows) == len(expected) == len(available_checks())
        assert [rows[i]["check_id"] for i in broken] == ["poly_reflection"]
        assert rows[broken[0]] == {
            "check_id": "poly_reflection", "status": "fail", "lhs": "RuntimeError",
            "rhs": "injected fault", "abs_err": math.inf, "tol": "exact",
        }

    def test_unknown_id_raises_before_any_check(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "check_reflection", lambda n: calls.append(n))
        with pytest.raises(UnknownCheckError):
            run_suite(["poly_reflection", "no_such_check"])
        assert calls == []


# Small grids: every row still runs, in a fraction of a second.
SMALL = {"MAX_POLY_N": 6, "BISECTION_LEVELS": 1}


def _shrink(patch):
    for name, value in SMALL.items():
        patch.setattr(verify, name, value)


def _bad(row):
    return Certificate(f"injected_{row}", False, f"fault injected into {row}")


def _off_at_one(poly):
    return SimpleNamespace(evaluate=lambda x: poly.evaluate(x) + 1, coefficient=poly.coefficient)


# row -> (function on baselkit.verify, fake built from the real function, expected lhs/rhs);
# a shared function is faked only for the row's own variant.
FAULTS = {
    "poly_reflection": ("check_reflection", lambda real: lambda n: _bad("poly_reflection"), None),
    **{
        f"poly_halving_{v}": (
            "check_halving",
            lambda real, v=v: lambda n, variant: (
                _bad(f"poly_halving_{v}") if variant == v else real(n, variant)
            ),
            None,
        )
        for v in ("ii", "iii", "iv")
    },
    "poly_addition_recurrence": (
        "check_addition_recurrence", lambda real: lambda k: _bad("poly_addition_recurrence"), None,
    ),
    "poly_calculus": (
        "check_calculus",
        lambda real: lambda n: {**real(n), "unit_integral": _bad("poly_calculus")},
        None,
    ),
    "poly_special_values": (
        "check_special_values",
        lambda real: lambda n: {**real(n), "g_b_relation": _bad("poly_special_values")},
        None,
    ),
    "poly_value_at_one": (
        "genocchi_polynomial", lambda real: lambda n: _off_at_one(real(n)), ("G_2(1)", "-G_2"),
    ),
    "poly_constant_terms": (
        "bernoulli_polynomial", lambda real: lambda n: real(n) * 2, ("B_0(0)", "B_0"),
    ),
    "poly_construction_orderings": (
        "check_construction_orderings",
        lambda real: lambda n: _bad("poly_construction_orderings"),
        None,
    ),
    "poly_power_sum_grid": (
        "power_sum_checks", lambda real: lambda k, n_max: [_bad("poly_power_sum_grid")], None,
    ),
    "riemann_trend_log_over_1mt": ("riemann_sum", lambda real: lambda kind, n: 0.0, None),
    **{
        f"product_trend_{k.value}": (
            "product_form",
            lambda real, k=k: lambda kind, n: 0.0 if kind is k else real(kind, n),
            None,
        )
        for k in ProductKind
    },
}


@pytest.fixture(scope="module")
def small_results():
    with pytest.MonkeyPatch.context() as patch:
        _shrink(patch)
        return {r.check_id: r.to_json_dict() for r in run_suite("all")}


def test_fault_table_covers_every_table_row():
    table_rows = {i for i in available_checks() if i.startswith("poly_")}
    table_rows |= {"riemann_trend_log_over_1mt", "product_trend_minus", "product_trend_plus"}
    assert set(FAULTS) == table_rows


@pytest.mark.parametrize("row", sorted(FAULTS))
def test_fault_in_one_row_fails_only_that_row(row, small_results, capsys, monkeypatch):
    name, fake, text = FAULTS[row]
    monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    # through the CLI at the default grids, the fault stops the row at once
    assert main(["verify", "--suite", row, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "verify: 1 checks, 1 failed\n"
    assert json.loads(captured.out)["status"] == "fail"
    _shrink(monkeypatch)
    results = {r.check_id: r.to_json_dict() for r in run_suite("all")}
    assert small_results[row]["status"] == "pass"
    assert results[row]["status"] == "fail"
    assert {i for i in results if results[i] != small_results[i]} == {row}
    if row.startswith("poly_"):
        bad = _bad(row)
        assert (results[row]["lhs"], results[row]["rhs"]) == (text or (bad.name, bad.detail))
    else:
        assert results[row]["abs_err"] > results[row]["tol"]


class _Overriding:
    """Reads as ``real`` except for the attributes given."""

    def __init__(self, real, **changed):
        self.__dict__.update(changed)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


def _at_truncation(w, **changed):
    """Fake asymptotic_report that changes only fields the truncation row of ``w`` reads: the
    divergence row and E3 read the same report, but only its partial sums."""
    return lambda real: lambda which, m_max, tol: (
        _Overriding(real(which, m_max, tol), **changed)
        if (which, m_max) == (w, verify.ASYMPTOTIC_M_DIV) else real(which, m_max, tol)
    )


def _zeta2_sum_at(n, value):
    """Fake zeta2_partial_float that returns ``value`` for S_n alone."""
    return lambda real: lambda m: value if m == n else real(m)


# The fail payloads that no FAULTS row reaches: case -> (row, {name on baselkit.verify:
# fake built from the real value}, start of the row's lhs once it fails).
FAIL_PATHS = {
    "remainder_outside_bound": (
        "bisection_remainder_bound",
        {"bisection_report": lambda real: lambda *args: _Overriding(real(*args), e_n_measured=0.0)},
        "remainder 0.0 at x=0.05, level=0",
    ),
    # the tail interval (0, 1/N) is open: a gap of 0.0 fails, as does a tiny negative one
    **{
        f"zeta2_gap_zero_N{n}": (
            f"tail_zeta2_N{n}",
            {"zeta2_partial_float": _zeta2_sum_at(n, verify.ZETA2)},
            f"zeta(2) - S_{n} = 0.0",
        )
        for n in verify.ZETA2_TAIL_NS
    },
    "zeta2_gap_negative_N10": (
        "tail_zeta2_N10",
        {"zeta2_partial_float": _zeta2_sum_at(10, verify.ZETA2 + 1e-12)},
        "zeta(2) - S_10 = -1.000",
    ),
    **{
        f"truncation_{w}_best_exceeds_smallest": (
            f"asymptotic_{w}_truncation",
            {"asymptotic_report": _at_truncation(w, regularized_target=1e9)},
            "best truncation error",
        )
        for w in ("bernoulli", "genocchi")
    },
    "truncation_bernoulli_bracket_off": (
        "asymptotic_bernoulli_truncation",
        {"asymptotic_report": _at_truncation("bernoulli", bracket_average=0.0)},
        "bracket average 0.0",
    ),
    # E1 adopts the quoted G_1 = -1/2: the row is the only one that builds Fraction(1, 2)
    "erratum_E1_constraint": (
        "erratum_E1",
        {"Fraction": lambda real: lambda *a: real(-1, 2) if a == (1, 2) else real(*a)},
        "2*G_1 + G_0",
    ),
    # E3 alone iterates WHICH: a third series whose partial sums stay bounded
    "erratum_E3_no_divergence": (
        "erratum_E3",
        {
            "WHICH": lambda real: (*real, "bounded"),
            "asymptotic_report": lambda real: lambda which, *rest: (
                SimpleNamespace(partial_sums=(Fraction(1),)) if which == "bounded"
                else real(which, *rest)
            ),
        },
        "partial-sum magnitudes",
    ),
}


@pytest.mark.parametrize("case", sorted(FAIL_PATHS))
def test_each_fail_payload_fails_only_its_row(case, small_results, monkeypatch):
    row, fakes, lhs = FAIL_PATHS[case]
    for name, fake in fakes.items():
        monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    _shrink(monkeypatch)
    results = {r.check_id: r.to_json_dict() for r in run_suite("all")}
    assert small_results[row]["status"] in ("pass", "erratum_documented")
    assert results[row]["status"] == "fail"
    assert results[row]["lhs"].startswith(lhs), results[row]
    assert {i for i in results if results[i] != small_results[i]} == {row}


def _nan_at(bad_x):
    """Fake whose value is NaN at the one argument ``bad_x``, and real elsewhere."""
    return lambda real: lambda x, *rest: math.nan if x == bad_x else real(x, *rest)


# The max-based rows, each with a NaN at a grid point after the first: row -> (name on
# baselkit.verify, fake built from the real value).
NAN_AFTER_FIRST = {
    "functional_dilog_grid": ("functional_eq_dilog", _nan_at(0.5)),
    "functional_inverse_grid": ("functional_eq_inverse", _nan_at(2.0)),
    "dilog_modes_grid": ("scaled_dilog", _nan_at(0.25)),
    "bisection_identity_grid": ("bisection_report", lambda real: lambda x, *rest: (
        _Overriding(real(x, *rest), bisection_value=math.nan) if x == 2.0 else real(x, *rest)
    )),
    "riemann_trend_log_over_1mt": ("riemann_sum", lambda real: lambda kind, n: (
        math.nan if n == verify.RATE_NS[1] else real(kind, n)
    )),
}


@pytest.mark.parametrize("row", sorted(NAN_AFTER_FIRST))
def test_a_nan_after_the_first_grid_point_fails_only_its_row(row, small_results, monkeypatch):
    name, fake = NAN_AFTER_FIRST[row]
    monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    _shrink(monkeypatch)
    results = {r.check_id: r.to_json_dict() for r in run_suite("all")}
    assert small_results[row]["status"] == "pass"
    assert (results[row]["status"], results[row]["abs_err"]) == ("fail", math.inf)
    assert {i for i in results if results[i] != small_results[i]} == {row}


def test_every_row_calls_the_library_through_module_globals(monkeypatch):
    # a row that bound a library function at import would miss the swap and pass
    def swapped(*args, **kwargs):
        raise RuntimeError("library call")

    library = [
        name for name, value in vars(verify).items()
        if inspect.isfunction(value) and value.__module__ != "baselkit.verify"
        and value.__module__.startswith("baselkit.")
    ]
    assert "integrate" in library and "check_reflection" in library
    for name in library:
        monkeypatch.setattr(verify, name, swapped)
    results = run_suite("all")
    assert len(results) == len(available_checks())
    assert [r.check_id for r in results if (r.lhs, r.rhs) != ("RuntimeError", "library call")] == []


def test_one_run_computes_each_shared_result_once(monkeypatch):
    # 707 evaluations for the power-sum grid (G_k at 1..101, k = 2..8), 239 for the rest;
    # B_n(x) and G_n(x) for n = 0..40 and the even n = 42..80, 61 of each; the three limit
    # rows' grids at n = 10^3 and 2*10^3 and the one grid both monotone rows scan stream
    # five distinct (grid, n), 15,995 terms, four of them summed, since ln t/(1-t) sums and
    # scans the grid of the log-product's ln(1-t)/t; the four integrals at QUAD_TOL, three
    # distinct, since ln t/(1-t) and ln(1-t)/t share one level function; reflection (G_0(x)
    # is zero and composes to itself), the addition recurrence and halving ii and iii
    # compose 40 + 39 + 41 + 41 times, and halving iv reads the compositions of ii and iii;
    # one centered term array per x of the remainder grid; one asymptotic report per series
    horner, computed, streams = [], [], []
    real_horner, real_terms = RationalPolynomial._horner, quadrature._grid_terms

    def counted_horner(self, p, q):
        horner.append(p)
        return real_horner(self, p, q)

    def counted_once(key, compute):
        return exact._once(key, lambda: computed.append(key) or compute())

    monkeypatch.setattr(RationalPolynomial, "_horner", counted_horner)
    monkeypatch.setattr(quadrature, "_grid_terms",
                        lambda kind, n: streams.append((kind, n)) or real_terms(kind, n))
    monkeypatch.setattr(polynomials, "_once", counted_once)
    monkeypatch.setattr(quadrature, "_once", counted_once)
    monkeypatch.setattr(series, "_once", counted_once)
    assert [r.check_id for r in run_suite("all") if r.status == "fail"] == []
    assert len(horner) <= 1_000
    assert len(streams) == len(set(streams)) == 5
    assert sum(n - 1 for _, n in streams) == 2 * (999 + 1_999) + 9_999 == 15_995
    assert len(computed) == len(set(computed))
    assert Counter(key[0] for key in computed) == {
        "_binomial_sum": 122, "_grid_sum": 4, "integrate": 3, "compose_affine": 161,
        "_centered_terms": 6, "sample_monotonicity": 1, "asymptotic_report": 2}
    # nothing is kept once the run ends, and outside a run every call computes afresh
    assert exact._RUN_MEMO.get(None) is None
    first, second = genocchi_polynomial(5), genocchi_polynomial(5)
    assert first == second and first is not second
    assert first.compose_affine(1, 1) is not first.compose_affine(1, 1)
    kind = IntegralKind.LOG_OVER_1PT
    assert integrate(kind, 1e-6) is not integrate(kind, 1e-6)
    assert asymptotic_report("genocchi", 3) is not asymptotic_report("genocchi", 3)
    streams.clear()
    riemann_sum(IntegralKind.LOG_OVER_1MT, 10)
    product_form(ProductKind.MINUS, 10)
    assert streams == [(IntegralKind.LOG1M_OVER_T, 10)] * 2


def _exact_rate(grid, n):
    """r(n) at 30 digits: the grid's sum, sum_{k<n} ln(1 -+ k/n)/k, less its limit and
    its first-order term."""
    with mpmath.workdps(30):
        log_n, zeta2 = mpmath.log(n), mpmath.zeta(2)
        if grid is ProductKind.MINUS:
            sign, limit, first = -1, -zeta2, (mpmath.log(2 * mpmath.pi * n) + 1) / (2 * n)
        else:
            sign, limit, first = 1, zeta2 / 2, -(1 + mpmath.log(2)) / (2 * n)
        total = mpmath.fsum((mpmath.log(n + sign * k) - log_n) / k for k in range(1, n))
        return total - limit - first


@pytest.mark.parametrize("n", [250, 1_000, 2_000, 10_000, 100_000])
@pytest.mark.parametrize("grid", list(ProductKind), ids=lambda k: k.value)
def test_each_rate_window_holds_and_is_tight(grid, n, full_results):
    # the riemann row sums the MINUS grid too, bit for bit (tests/test_quadrature.py)
    slack = {r.check_id: r.tol for r in full_results}[f"product_trend_{grid.value}"]
    first, lo, hi = verify._RATES[grid][1](n)
    exact = _exact_rate(grid, n)
    measured = product_form(grid, n) - grid.closed_form - first
    assert lo < exact < hi <= 4 * exact, (float(exact), lo, hi)
    assert abs(measured - exact) <= slack, (measured, float(exact))
    assert lo - slack <= measured <= hi + slack


@pytest.mark.parametrize("shift", [-1, 1])
def test_an_off_by_one_grid_fails_every_rate_row(shift, monkeypatch):
    # the grid of n + shift standing in for n
    for name in ("riemann_sum", "product_form"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda kind, n, real=real: real(kind, n + shift))
    results = run_suite(["riemann_trend_log_over_1mt", "product_trend_minus", "product_trend_plus"])
    assert [r.status for r in results] == ["fail"] * 3
    assert all(r.abs_err > 100 * r.tol for r in results)


def test_a_rows_line_does_not_depend_on_what_else_ran(full_results):
    # a result shared through the run's memo must be the one the row computes alone
    full = dict(zip(available_checks(), report_lines(full_results)))
    assert {i: report_lines(run_suite([i]))[0] for i in full} == full


def test_a_build_that_raises_costs_only_its_row(monkeypatch):
    raised = []

    def first_prefix_raises(n):
        if not raised:
            raised.append(n)
            raise RuntimeError("injected fault")
        return exact._genocchi_prefix(n)

    # a cold G table, so its first read, inside the G_1(x) build of `_binomial_sum`, raises
    monkeypatch.setattr(exact, "_GENOCCHI", exact._SequenceCache(first_prefix_raises))
    calculus, reflection = run_suite(["poly_calculus", "poly_reflection"])
    assert (calculus.status, calculus.lhs) == ("fail", "RuntimeError")
    assert reflection.status == "pass"  # it builds G_1(x) again: the failed build was not kept

    kernel = quadrature._tanh_sinh_unit

    def first_integral_runs_out_of_levels(terms_of, tol, scale=1.0):
        if len(raised) == 1:
            raised.append(tol)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(quadrature, "_MAX_LEVEL", 1)
                return kernel(terms_of, tol, scale)  # raises AccuracyError
        return kernel(terms_of, tol, scale)

    monkeypatch.setattr(quadrature, "_tanh_sinh_unit", first_integral_runs_out_of_levels)
    single, pair = run_suite(["integral_log_over_1mt", "integral_pair_identity"])
    assert (single.status, single.lhs) == ("fail", "AccuracyError")
    assert pair.status == "pass"  # it integrates ln t/(1-t) again: the failed integral was not kept


def test_the_divergence_rows_name_the_series_length(monkeypatch):
    monkeypatch.setattr(verify, "ASYMPTOTIC_M_DIV", 30)
    divergence, e3 = run_suite(["asymptotic_bernoulli_divergence", "erratum_E3"])
    assert (divergence.status, e3.status) == ("pass", "erratum_documented")
    assert divergence.lhs.startswith("|S_30| = ")
    assert e3.lhs.startswith(f"literal partial sums blow up: {divergence.lhs} (Bernoulli), ")


def test_every_asymptotic_row_reads_one_report_length(monkeypatch):
    # the truncation and divergence rows of both series and E3: six reports, one length
    real, lengths = verify.asymptotic_report, []
    monkeypatch.setattr(verify, "asymptotic_report",
                        lambda which, m_max, tol: lengths.append(m_max) or real(which, m_max, tol))
    _shrink(monkeypatch)
    run_suite("all")
    assert lengths == [verify.ASYMPTOTIC_M_DIV] * 6
