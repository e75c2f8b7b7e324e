"""One-shot verification suite over every identity the package implements.

Each check is registered under a stable id and reads every tolerance from a
single :class:`SuiteConfig` table; the constants that decide which ids exist
(``MAX_ZETA_N``, ``ZETA2_TAIL_NS``, ``ETA2_TAIL_NS``, ``PAIR_CASES``) are
fixed at import.  Results are returned sorted by id, and
the serialized report deliberately excludes wall-clock fields so repeated
runs with the same config are byte-identical.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .exact import (
    bernoulli,
    bernoulli_from_genocchi,
    fraction_str,
    genocchi,
    zeta_even_exact,
)
from .polynomials import (
    Certificate,
    bernoulli_polynomial,
    check_addition_recurrence,
    check_calculus,
    check_construction_orderings,
    check_halving,
    check_reflection,
    check_special_values,
    genocchi_polynomial,
    power_sum_check,
)
from .quadrature import (
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
    asymptotic_report,
    bisection_report,
    eta2_partial_float,
    regularized_target,
    zeta2_partial_float,
)

__all__ = [
    "CheckResult",
    "SuiteConfig",
    "UnknownCheckError",
    "available_checks",
    "report_lines",
    "run_suite",
    "summary_table",
]

_PI2_6 = math.pi**2 / 6
_PI2_12 = math.pi**2 / 12

EXACT = "exact"


@dataclass(frozen=True)
class SuiteConfig:
    """Tolerance and grid table; every check reads from here."""

    quad_tol: float = 1e-12
    integral_tol: float = 1e-10
    pair_identity_tol: float = 1e-11
    parts_identity_tol: float = 1e-10
    functional_tol: float = 1e-9
    series_pair_tol: float = 1e-8
    series_pair_eval_tol: float = 1e-10
    dilog_agreement_tol: float = 1e-9
    dilog_mode_tol: float = 1e-10
    ode_tol: float = 1e-12
    ode_terms: int = 60
    bisection_rel_tol: float = 1e-9
    remainder_slack: float = 1e-12
    bisection_levels: int = 12
    partial_fraction_tol: float = 1e-8
    coarse_tol: float = 1e-2
    riemann_small_n: int = 1_000
    riemann_large_n: int = 100_000
    monotone_n: int = 10_000
    target_tol: float = 1e-9
    bracket_tol: float = 5e-3
    divergence_threshold: float = 1e6
    asymptotic_m_opt: int = 12
    asymptotic_m_div: int = 40
    max_poly_n: int = 40
    power_sum_max_k: int = 8
    power_sum_max_n: int = 100
    dilog_grid_points: int = 21
    functional_grid: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 10))
    inverse_grid: tuple[float, ...] = (0.1, 0.5, 2.0, 10.0)
    bisection_grid: tuple[float, ...] = (0.3, 0.7, 1.0, 1.3, math.pi / 2, 2.0, 2.5)
    remainder_grid: tuple[float, ...] = (0.05, 0.2, 0.5, 0.9, 1.3, math.pi / 2)


# These shape the registry (one check id each), so they are fixed, not config.
MAX_ZETA_N = 10
ZETA2_TAIL_NS = (10, 100, 1_000, 10_000)
ETA2_TAIL_NS = (10, 100, 1_000)
PAIR_CASES = ((0.5, 1.0, 0.0), (-0.9, 1.0, 0.0), (0.9, 2.0, 3.0))


@dataclass(frozen=True)
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
        return {
            "check_id": self.check_id,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "tol": self.tol,
        }


class UnknownCheckError(ValueError):
    """Raised when a selection names a check id that does not exist."""


_Payload = dict  # status/lhs/rhs/abs_err/tol
_REGISTRY: dict[str, Callable[[SuiteConfig], _Payload]] = {}


def _register(check_id: str):
    def wrap(fn):
        _REGISTRY[check_id] = fn
        return fn

    return wrap


def _payload(status, lhs, rhs, abs_err, tol) -> _Payload:
    return {"status": status, "lhs": lhs, "rhs": rhs, "abs_err": abs_err, "tol": tol}


def _bounded(measured: float, tol: float, lhs: str, rhs: str) -> _Payload:
    status = "pass" if measured <= tol else "fail"
    return _payload(status, lhs, rhs, measured, tol)


def _exact(ok: bool, lhs: str, rhs: str) -> _Payload:
    if ok:
        return _payload("pass", lhs, rhs, EXACT, EXACT)
    return _payload("fail", lhs, rhs, math.inf, EXACT)


# --- integrals --------------------------------------------------------------


def _integral_check(kind: IntegralKind):
    def run(cfg: SuiteConfig) -> _Payload:
        res = integrate(kind, cfg.quad_tol)
        err = abs(res.value - kind.closed_form)
        return _bounded(err, cfg.integral_tol, repr(res.value), repr(kind.closed_form))

    return run


for _kind in IntegralKind:
    _register(f"integral_{_kind.value}")(_integral_check(_kind))


@_register("integral_pair_identity")
def _pair_identity(cfg: SuiteConfig) -> _Payload:
    residual = two_integral_residual(cfg.quad_tol)
    return _bounded(
        residual, cfg.pair_identity_tol, "I[ln t/(1-t)]", "2*I[ln t/(1+t)]"
    )


@_register("integral_parts_identity")
def _parts_identity(cfg: SuiteConfig) -> _Payload:
    a = integrate(IntegralKind.LOG1P_OVER_T, cfg.quad_tol).value
    b = integrate(IntegralKind.LOG_OVER_1PT, cfg.quad_tol).value
    return _bounded(abs(a + b), cfg.parts_identity_tol, "I[ln(1+t)/t]", "-I[ln t/(1+t)]")


# --- functional equations and pairs -----------------------------------------


@_register("functional_dilog_grid")
def _functional_dilog(cfg: SuiteConfig) -> _Payload:
    worst = max(functional_eq_dilog(x, cfg.quad_tol) for x in cfg.functional_grid)
    return _bounded(
        worst,
        cfg.functional_tol,
        "h(x)+h(-x)",
        "h(x^2)/2 on grid " + repr(list(cfg.functional_grid)),
    )


@_register("functional_inverse_grid")
def _functional_inverse(cfg: SuiteConfig) -> _Payload:
    worst = max(functional_eq_inverse(x, cfg.quad_tol) for x in cfg.inverse_grid)
    return _bounded(
        worst,
        cfg.functional_tol,
        "h(x)+h(1/x)",
        "(ln x)^2/2 on grid " + repr(list(cfg.inverse_grid)),
    )


def _pair_check(r: float, a: float, b: float):
    def run(cfg: SuiteConfig) -> _Payload:
        s, i = series_integral_pair(r, a, b, cfg.series_pair_eval_tol)
        return _bounded(
            abs(s - i), cfg.series_pair_tol, repr(s), f"{i!r} (r={r}, a={a}, b={b})"
        )

    return run


for _i, _case in enumerate(PAIR_CASES):
    _register(f"series_vs_integral_{_i + 1}")(_pair_check(*_case))


@_register("dilog_modes_grid")
def _dilog_modes(cfg: SuiteConfig) -> _Payload:
    pts = cfg.dilog_grid_points
    xs = [-0.5 + i / (pts - 1) for i in range(pts)]
    worst = max(
        abs(
            scaled_dilog(x, "series", cfg.dilog_mode_tol)
            - scaled_dilog(x, "integral", cfg.dilog_mode_tol)
        )
        for x in xs
    )
    return _bounded(
        worst, cfg.dilog_agreement_tol, "series mode", f"integral mode on {pts}-point grid"
    )


@_register("dilog_ode_residual")
def _dilog_ode(cfg: SuiteConfig) -> _Payload:
    residual = scaled_dilog_ode_residual(0.25, cfg.ode_terms)
    return _bounded(
        residual, cfg.ode_tol, "y + x y' (truncated series)", "2/(1-2x) at x=0.25"
    )


# --- limit representations ---------------------------------------------------


def _monotone_check(kind: IntegralKind, expected: int):
    def run(cfg: SuiteConfig) -> _Payload:
        direction = sample_monotonicity(kind, cfg.monotone_n)
        return _exact(
            direction == expected,
            f"sampled direction {direction:+d}",
            f"expected {expected:+d} on k/n grid, n={cfg.monotone_n}",
        )

    return run


_register("monotone_log_over_1mt")(_monotone_check(IntegralKind.LOG_OVER_1MT, 1))
_register("monotone_log1m_over_t")(_monotone_check(IntegralKind.LOG1M_OVER_T, -1))


# --- bisection ----------------------------------------------------------------


@_register("bisection_identity_grid")
def _bisection_identity(cfg: SuiteConfig) -> _Payload:
    worst = 0.0
    for x in cfg.bisection_grid:
        for level in range(cfg.bisection_levels + 1):
            rep = bisection_report(x, level)
            worst = max(worst, abs(rep.bisection_value / rep.exact_value - 1.0))
    return _bounded(
        worst,
        cfg.bisection_rel_tol,
        "bisection refinement of 1/sin^2",
        f"direct 1/sin^2 on grid x={list(cfg.bisection_grid)!r}, levels 0..{cfg.bisection_levels}",
    )


@_register("bisection_remainder_bound")
def _bisection_remainder(cfg: SuiteConfig) -> _Payload:
    for x in cfg.remainder_grid:
        for level in range(cfg.bisection_levels + 1):
            rep = bisection_report(x, level)
            if not (0.0 < rep.e_n_measured < rep.e_n_bound + cfg.remainder_slack):
                return _payload(
                    "fail",
                    f"remainder {rep.e_n_measured!r} at x={x!r}, level={level}",
                    f"required interval (0, {rep.e_n_bound!r} + slack)",
                    math.inf,
                    cfg.remainder_slack,
                )
    return _payload(
        "pass",
        "centered partial-fraction remainder",
        f"within (0, 2^-n + slack) on x={list(cfg.remainder_grid)!r}",
        EXACT,
        cfg.remainder_slack,
    )


@_register("bisection_partial_fraction")
def _bisection_pf(cfg: SuiteConfig) -> _Payload:
    rep = bisection_report(1.0, 0)
    value = rep.partial_fraction_value
    return _bounded(
        abs(value - rep.exact_value),
        cfg.partial_fraction_tol,
        repr(value),
        f"{rep.exact_value!r} (K={rep.truncation_k})",
    )


# --- exact zeta values and tail bounds ----------------------------------------


def _zeta_check(n: int):
    def run(cfg: SuiteConfig) -> _Payload:
        got = zeta_even_exact(n)
        # second route: Bernoulli numbers recovered through the Genocchi recursion
        b_alt = bernoulli_from_genocchi(2 * n)
        sign = 1 if n % 2 == 1 else -1
        expected = Fraction(sign * 2 ** (2 * n - 1), math.factorial(2 * n)) * b_alt
        ok = got.coefficient == expected and got.exponent == 2 * n
        if n == 1:
            ok = ok and got.coefficient == Fraction(1, 6)
        return _exact(ok, str(got), f"{fraction_str(expected)}*pi^{2 * n} (cross-recursion)")

    return run


for _n in range(1, MAX_ZETA_N + 1):
    _register(f"zeta_even_exact_{_n}")(_zeta_check(_n))


def _zeta2_tail_check(n: int):
    def run(cfg: SuiteConfig) -> _Payload:
        gap = _PI2_6 - zeta2_partial_float(n)
        if not gap > 0.0:
            return _payload("fail", repr(gap), "must be positive", math.inf, 1.0 / n)
        return _bounded(gap, 1.0 / n, f"zeta(2) - S_{n} = {gap!r}", f"(0, 1/{n})")

    return run


def _eta2_tail_check(n: int):
    def run(cfg: SuiteConfig) -> _Payload:
        err = abs(_PI2_12 - eta2_partial_float(n))
        return _bounded(err, 1.0 / (n + 1) ** 2, f"|pi^2/12 - A_{n}| = {err!r}", f"< 1/{n + 1}^2")

    return run


for _n in ZETA2_TAIL_NS:
    _register(f"tail_zeta2_N{_n}")(_zeta2_tail_check(_n))
for _n in ETA2_TAIL_NS:
    _register(f"tail_eta2_N{_n}")(_eta2_tail_check(_n))


# --- table-driven rows: certificate families and limit trends ---------------------


def _certified(certificates: Callable[[SuiteConfig], Iterable[Certificate]], lhs: str, rhs: str):
    """Exact row: the first failing certificate as (name, detail), else a pass
    with ``rhs`` formatted against the config (``{cfg.max_poly_n}``)."""

    def run(cfg: SuiteConfig) -> _Payload:
        for cert in certificates(cfg):
            if not cert.passed:
                return _exact(False, cert.name, cert.detail)
        return _exact(True, lhs, rhs.format(cfg=cfg))

    return run


def _trend(measure: Callable[[int], float], closed_form: float):
    """Limit row: the error must shrink from riemann_small_n to riemann_large_n
    and end within coarse_tol."""

    def run(cfg: SuiteConfig) -> _Payload:
        coarse = abs(measure(cfg.riemann_small_n) - closed_form)
        fine = abs(measure(cfg.riemann_large_n) - closed_form)
        if fine >= coarse:
            return _payload(
                "fail", f"err(n={cfg.riemann_small_n})={coarse!r}",
                f"err(n={cfg.riemann_large_n})={fine!r} did not decrease", math.inf,
                cfg.coarse_tol,
            )
        return _bounded(fine, cfg.coarse_tol, f"err {coarse!r} -> {fine!r}", repr(closed_form))

    return run


def _upto(cfg: SuiteConfig, start: int = 0) -> range:
    return range(start, cfg.max_poly_n + 1)


def _constant_terms(cfg: SuiteConfig) -> Iterator[Certificate]:
    for n in _upto(cfg):
        ok = bernoulli_polynomial(n).coefficient(0) == bernoulli(n)
        yield Certificate(f"B_{n}(0)", ok, f"B_{n}")
        ok = genocchi_polynomial(n).coefficient(0) == genocchi(n)
        yield Certificate(f"G_{n}(0)", ok, f"G_{n}")


# Row bodies name library functions inside lambdas, so each call resolves them
# in this module's globals when the row runs (wrappers installed there are
# seen), and bind loop variables as defaults, so each row keeps its own.
_REGISTRY.update({
    "poly_reflection": _certified(
        lambda cfg: (check_reflection(n) for n in _upto(cfg)),
        "G_n(1-x)", "(-1)^(n+1) G_n(x), n <= {cfg.max_poly_n}",
    ),
    **{
        f"poly_halving_{v}": _certified(
            lambda cfg, v=v: (check_halving(n, v) for n in _upto(cfg)),
            f"halving variant {v}", "exact for n <= {cfg.max_poly_n}",
        )
        for v in ("ii", "iii", "iv")
    },
    "poly_addition_recurrence": _certified(
        lambda cfg: (check_addition_recurrence(k) for k in _upto(cfg, 2)),
        "G_k(x+1)+G_k(x)", "k x^(k-1), 2 <= k <= {cfg.max_poly_n}",
    ),
    "poly_calculus": _certified(
        lambda cfg: (c for n in _upto(cfg, 1) for c in check_calculus(n).values()),
        "G_n' and unit integral", "exact for n <= {cfg.max_poly_n}",
    ),
    "poly_special_values": _certified(
        lambda cfg: (c for n in _upto(cfg, 1) for c in check_special_values(n).values()),
        "special-argument identities", "exact for n <= {cfg.max_poly_n}",
    ),
    "poly_value_at_one": _certified(
        lambda cfg: (
            Certificate(f"G_{n}(1)", genocchi_polynomial(n).evaluate(1) == -genocchi(n), f"-G_{n}")
            for n in _upto(cfg, 2)
        ),
        "G_n(1)", "-G_n for 2 <= n <= {cfg.max_poly_n}",
    ),
    "poly_constant_terms": _certified(
        _constant_terms, "constant terms", "match the sequences for n <= {cfg.max_poly_n}"
    ),
    "poly_construction_orderings": _certified(
        lambda cfg: (check_construction_orderings(n) for n in _upto(cfg)),
        "both defining-sum orderings", "agree for n <= {cfg.max_poly_n}",
    ),
    "poly_power_sum_grid": _certified(
        lambda cfg: (
            power_sum_check(k, n)
            for k in range(2, cfg.power_sum_max_k + 1)
            for n in range(1, cfg.power_sum_max_n + 1)
        ),
        "telescoped power-sum identity",
        "exact for k <= {cfg.power_sum_max_k}, n <= {cfg.power_sum_max_n}",
    ),
    "riemann_trend_log_over_1mt": _trend(
        lambda n: riemann_sum(IntegralKind.LOG_OVER_1MT, n), IntegralKind.LOG_OVER_1MT.closed_form
    ),
    **{
        f"product_trend_{k.value}": _trend(lambda n, k=k: product_form(k, n), k.closed_form)
        for k in ProductKind
    },
})


# --- asymptotic series ----------------------------------------------------------


def _asym_target(which: str, closed: float):
    def run(cfg: SuiteConfig) -> _Payload:
        target = regularized_target(which, cfg.quad_tol)
        return _bounded(abs(target - closed), cfg.target_tol, repr(target), repr(closed))

    return run


_register("asymptotic_bernoulli_target")(_asym_target("bernoulli", _PI2_6 - 1.5))
_register("asymptotic_genocchi_target")(_asym_target("genocchi", _PI2_12))


def _asym_truncation(which: str):
    def run(cfg: SuiteConfig) -> _Payload:
        rep = asymptotic_report(which, cfg.asymptotic_m_opt, cfg.quad_tol)
        smallest = float(abs(rep.terms[rep.smallest_term_index]))
        err = abs(rep.optimal_estimate - rep.regularized_target)
        best = min(abs(float(s) - rep.regularized_target) for s in rep.partial_sums)
        payload = _bounded(
            err,
            smallest,
            f"optimal estimate {rep.optimal_estimate!r}",
            f"target {rep.regularized_target!r}, smallest term {smallest!r}",
        )
        if best > smallest:
            return _payload(
                "fail", f"best truncation error {best!r}",
                f"exceeds smallest term {smallest!r}", best, smallest,
            )
        if which == "bernoulli" and abs(rep.bracket_average - (_PI2_6 - 1.5)) > cfg.bracket_tol:
            return _payload(
                "fail", f"bracket average {rep.bracket_average!r}",
                f"not within {cfg.bracket_tol} of {_PI2_6 - 1.5!r}", math.inf, cfg.bracket_tol,
            )
        return payload

    return run


_register("asymptotic_bernoulli_truncation")(_asym_truncation("bernoulli"))
_register("asymptotic_genocchi_truncation")(_asym_truncation("genocchi"))


def _asym_divergence(which: str):
    def run(cfg: SuiteConfig) -> _Payload:
        rep = asymptotic_report(which, cfg.asymptotic_m_div, cfg.quad_tol)
        magnitude = abs(float(rep.partial_sums[-1]))
        ok = magnitude > cfg.divergence_threshold and not rep.classically_convergent
        return _exact(
            ok,
            f"|S_{cfg.asymptotic_m_div}| = {magnitude!r}",
            f"exceeds {cfg.divergence_threshold!r}; literal series diverges",
        )

    return run


_register("asymptotic_bernoulli_divergence")(_asym_divergence("bernoulli"))
_register("asymptotic_genocchi_divergence")(_asym_divergence("genocchi"))


@_register("asymptotic_targets_consistency")
def _asym_consistency(cfg: SuiteConfig) -> _Payload:
    lhs = regularized_target("bernoulli", cfg.quad_tol) + 1.5
    rhs = 2.0 * regularized_target("genocchi", cfg.quad_tol)
    return _bounded(abs(lhs - rhs), cfg.target_tol, repr(lhs), repr(rhs))


# --- errata ---------------------------------------------------------------------


@_register("erratum_E1")
def _erratum_e1(cfg: SuiteConfig) -> _Payload:
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


@_register("erratum_E2")
def _erratum_e2(cfg: SuiteConfig) -> _Payload:
    rt_g = regularized_target("genocchi", cfg.quad_tol)
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


@_register("erratum_E3")
def _erratum_e3(cfg: SuiteConfig) -> _Payload:
    mags = [
        abs(float(asymptotic_report(w, cfg.asymptotic_m_div, cfg.quad_tol).partial_sums[-1]))
        for w in ("bernoulli", "genocchi")
    ]
    if min(mags) <= cfg.divergence_threshold:
        return _exact(False, f"partial-sum magnitudes {mags!r}", "expected divergence")
    return _payload(
        "erratum_documented",
        f"literal partial sums blow up: |S_40| = {mags[0]!r} (Bernoulli), {mags[1]!r} (Genocchi)",
        "the two alternating-series identities hold only as regularized / "
        "optimally truncated asymptotic statements",
        EXACT,
        EXACT,
    )


# --- runner ---------------------------------------------------------------------


def available_checks() -> list[str]:
    """All registered check ids, sorted."""
    return sorted(_REGISTRY)


def run_suite(
    selection: str | Iterable[str] = "all", config: SuiteConfig | None = None
) -> list[CheckResult]:
    """Run the selected checks and return results ordered by check id.

    Unknown ids raise :class:`UnknownCheckError` before any check runs.  A
    check that raises becomes a ``fail`` row with the exception type as
    ``lhs``, its message as ``rhs``, ``abs_err`` inf and ``tol`` "exact".
    """
    cfg = config or SuiteConfig()
    if isinstance(selection, str) and selection != "all":
        selection = [selection]
    if selection == "all":
        ids = available_checks()
    else:
        ids = sorted(selection)
        unknown = [i for i in ids if i not in _REGISTRY]
        if unknown:
            raise UnknownCheckError(
                f"unknown check ids {unknown}; valid ids: {', '.join(available_checks())}"
            )
    results = []
    for check_id in ids:
        start = time.perf_counter_ns()
        try:
            payload = _REGISTRY[check_id](cfg)
        except Exception as exc:  # one crashing check is one fail row, not a lost report
            payload = _payload("fail", type(exc).__name__, str(exc), math.inf, EXACT)
        elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000
        results.append(CheckResult(check_id=check_id, runtime_ms=int(elapsed_ms), **payload))
    return results


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
