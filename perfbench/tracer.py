"""Span recorder for the traced run.

The library is not edited: `Tracer.install` replaces the public functions of
each baselkit module (and one private kernel, the tanh-sinh sum) with
wrappers wherever they are bound in a baselkit namespace, so a call from
`baselkit.verify` into `check_halving` or from `baselkit.series` into
`integrate` opens a span.  A span is (probe, start, end, parent, note); spans
stay in memory and are summarised or written out when the op ends.

Self time is a span's duration minus the durations of its direct children;
the `<layer>.self_s` figures and `verify.report_s` partition the traced time
between layers.  Named sub-metrics such as `series.bisection_s` are
inclusive durations.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time

LAYERS = ("exact", "polynomials", "quadrature", "series", "verify", "cli")

PROBES: dict[str, tuple[str, ...]] = {
    "exact": (
        "bernoulli",
        "genocchi",
        "genocchi_from_bernoulli",
        "bernoulli_from_genocchi",
        "rectified_even_bernoulli",
        "rectified_even_genocchi",
        "zeta_even_exact",
        "term_log_integral",
        "signed_factorial_integral",
    ),
    "polynomials": (
        "bernoulli_polynomial",
        "genocchi_polynomial",
        "check_reflection",
        "check_halving",
        "check_addition_recurrence",
        "power_sum_check",
        "check_special_values",
        "check_calculus",
        "check_construction_orderings",
    ),
    "quadrature": (
        "_tanh_sinh_unit",
        "integrate",
        "two_integral_residual",
        "riemann_sum",
        "sample_monotonicity",
        "product_form",
        "functional_eq_dilog",
        "functional_eq_inverse",
        "scaled_dilog",
        "scaled_dilog_derivative",
        "scaled_dilog_ode_residual",
        "series_integral_pair",
    ),
    "series": (
        "zeta2_partial",
        "zeta2_partial_float",
        "eta2_partial",
        "eta2_partial_float",
        "bisection_report",
        "regularized_target",
        "asymptotic_report",
    ),
    "verify": ("run_suite", "report_lines", "summary_table", "available_checks"),
    "cli": ("main",),
}

# Spans whose self time is summation work (the rest of their time is the
# tanh-sinh child, if any).
SUM_KERNELS = (
    "quadrature.riemann_sum",
    "quadrature.product_form",
    "quadrature.sample_monotonicity",
    "quadrature.scaled_dilog",
    "quadrature.series_integral_pair",
)
PARTIAL_SUMS = (
    "series.zeta2_partial",
    "series.zeta2_partial_float",
    "series.eta2_partial",
    "series.eta2_partial_float",
)


def _first_below(bound, tol: float) -> int:
    """Smallest n >= 1 with bound(n) <= tol, for a bound decreasing in n."""
    hi = 1
    while bound(hi) > tol:
        hi *= 2
    lo = hi // 2 + 1 if hi > 1 else 1
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def dilog_terms(x: float, mode: str = "series", tol: float = 1e-12) -> int:
    """Series terms `scaled_dilog` sums, computed from its documented stopping rule."""
    q = 2.0 * x
    if mode != "series" or q == 0.0:
        return 0
    if q == 1.0:
        return math.ceil(1.0 / math.sqrt(2.0 * tol))
    if q == -1.0:
        return math.ceil((2.0 / tol) ** (1.0 / 3.0))
    aq = abs(q)
    return _first_below(lambda n: aq ** (n + 1) / ((n + 1) ** 2 * (1.0 - aq)), tol)


def pair_terms(r: float, a: float, b: float, tol: float = 1e-12) -> int:
    """Series terms `series_integral_pair` sums, from its documented stopping rule."""
    if r == 0.0:
        return 0
    if r == -1.0:
        return math.ceil(1.0 / math.sqrt(a * tol))
    ar = abs(r)
    return _first_below(lambda n: ar ** (n + 1) / ((a * (n + 1) + b) * (1.0 - ar)), tol)


def bisection_terms(x: float, level: int, pf_terms: int = 10_000) -> int:
    """Terms `bisection_report` sums: bisection, centered and two-sided sums."""
    scale = 2**level
    return scale + (scale if level >= 1 else 1) + 2 * pf_terms


def _bound(fn):
    """Note-maker that sees the call's arguments by name, defaults applied."""
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _note_maker(name: str, fn):
    """What a span of this probe records besides its times, or None."""
    if name in ("exact.bernoulli", "exact.genocchi"):
        return lambda a, k, r: a[0] if a else k["n"]
    if name in ("polynomials.bernoulli_polynomial", "polynomials.genocchi_polynomial"):
        return lambda a, k, r: r.degree
    if name.startswith("polynomials.check_") or name == "polynomials.power_sum_check":
        return lambda a, k, r: len(r) if isinstance(r, dict) else 1
    if name == "quadrature._tanh_sinh_unit":
        return lambda a, k, r: r.evaluations
    if name == "quadrature.integrate":
        bind = _bound(fn)

        def note(a, k, r):
            kind = bind(a, k)["kind"]
            return [kind.closed_form, r.value, r.err_estimate]

        return note
    if name in ("quadrature.riemann_sum", "quadrature.product_form", "quadrature.sample_monotonicity"):
        bind = _bound(fn)
        return lambda a, k, r: bind(a, k)["n"] - 1
    if name == "quadrature.scaled_dilog":
        bind = _bound(fn)
        return lambda a, k, r: dilog_terms(**bind(a, k))
    if name == "quadrature.series_integral_pair":
        bind = _bound(fn)
        return lambda a, k, r: pair_terms(**bind(a, k))
    if name == "series.bisection_report":
        bind = _bound(fn)
        return lambda a, k, r: bisection_terms(**bind(a, k))
    if name in PARTIAL_SUMS:
        bind = _bound(fn)
        return lambda a, k, r: bind(a, k)["n"]
    if name == "verify.run_suite":
        return lambda a, k, r: [len(r), sum(1 for c in r if c.status == "fail")]
    return None


class Tracer:
    """Holds the spans of one process; `install` swaps the probes in."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        pid = len(self.names)
        self.names.append(name)
        note = _note_maker(name, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (pid, start, clock(), parent, "raised " + type(exc).__name__)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[idx] = (pid, start, end, parent, note(args, kwargs, result) if note else None)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every probe wherever a baselkit module binds it."""
        self.names.clear()
        self.missing.clear()
        modules = [importlib.import_module("baselkit")] + [
            importlib.import_module(f"baselkit.{layer}") for layer in LAYERS
        ]
        for layer, names in PROBES.items():
            home = importlib.import_module(f"baselkit.{layer}")
            for short in names:
                fn = home.__dict__.get(short)
                if fn is None:
                    self.missing.append(f"{layer}.{short}")
                    continue
                wrapper = self._wrap(f"{layer}.{short}", fn)
                for module in modules:
                    if module.__dict__.get(short) is fn:
                        self._restore.append((module, short, fn))
                        setattr(module, short, wrapper)

    def uninstall(self) -> None:
        for module, short, fn in reversed(self._restore):
            setattr(module, short, fn)
        self._restore.clear()

    def take(self) -> dict:
        """Hand over the spans recorded so far and start a fresh list."""
        out = {"names": list(self.names), "spans": list(self.spans), "missing": list(self.missing)}
        self.spans.clear()
        return out


PER_OP_METRICS = (
    "exact.self_s",
    "exact.max_index",
    "polynomials.self_s",
    "polynomials.calls",
    "polynomials.certificates",
    "polynomials.max_degree",
    "quadrature.self_s",
    "quadrature.tanh_sinh_s",
    "quadrature.evaluations",
    "quadrature.integrals",
    "quadrature.err_ratio_max",
    "quadrature.accuracy_errors",
    "quadrature.sum_s",
    "quadrature.sum_points",
    "series.self_s",
    "series.bisection_s",
    "series.bisection_calls",
    "series.bisection_terms",
    "series.partial_sum_s",
    "series.asymptotic_s",
    "verify.suite_s",
    "verify.self_s",
    "verify.report_s",
    "verify.checks",
    "verify.failed_checks",
    "cli.self_s",
    "cli.command_s",
    "trace.spans",
    "trace.missing_probes",
)


def summarize(record: dict) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (as returned by `take`)."""
    names, spans = record["names"], record["spans"]
    out = dict.fromkeys(PER_OP_METRICS, 0)
    children_ns = [0] * len(spans)
    for pid, start, end, parent, _ in spans:
        if parent >= 0:
            children_ns[parent] += end - start
    for idx, (pid, start, end, parent, note) in enumerate(spans):
        name = names[pid]
        layer = name.split(".", 1)[0]
        duration = (end - start) * 1e-9
        self_s = duration - children_ns[idx] * 1e-9
        # verify.self_s is the runner's own time; report formatting is verify.report_s
        if layer != "verify" or name == "verify.run_suite":
            out[f"{layer}.self_s"] += self_s
        raised = isinstance(note, str)
        outer = parent < 0 or not names[spans[parent][0]].startswith(layer + ".")
        if layer == "exact" and not raised and name in ("exact.bernoulli", "exact.genocchi"):
            out["exact.max_index"] = max(out["exact.max_index"], note)
        elif layer == "polynomials":
            out["polynomials.calls"] += 1
            if raised:
                continue
            if name.endswith("_polynomial"):
                out["polynomials.max_degree"] = max(out["polynomials.max_degree"], note)
            else:
                out["polynomials.certificates"] += note
        elif name == "quadrature._tanh_sinh_unit":
            out["quadrature.tanh_sinh_s"] += duration
            out["quadrature.integrals"] += 1
            if raised:
                out["quadrature.accuracy_errors"] += note == "raised AccuracyError"
            else:
                out["quadrature.evaluations"] += note
        elif name == "quadrature.integrate" and not raised:
            closed, value, estimate = note
            ratio = abs(value - closed) / estimate if estimate else math.inf
            out["quadrature.err_ratio_max"] = max(out["quadrature.err_ratio_max"], ratio)
        elif name in SUM_KERNELS:
            out["quadrature.sum_s"] += self_s
            out["quadrature.sum_points"] += 0 if raised else note
        elif name == "series.bisection_report":
            out["series.bisection_s"] += duration
            out["series.bisection_calls"] += 1
            out["series.bisection_terms"] += 0 if raised else note
        elif name in PARTIAL_SUMS:
            out["series.partial_sum_s"] += duration
        elif name in ("series.asymptotic_report", "series.regularized_target") and outer:
            out["series.asymptotic_s"] += duration
        elif name == "verify.run_suite":
            out["verify.suite_s"] += duration
            if not raised:
                out["verify.checks"] += note[0]
                out["verify.failed_checks"] += note[1]
        elif name in ("verify.report_lines", "verify.summary_table"):
            out["verify.report_s"] += duration
        elif name == "cli.main":
            out["cli.command_s"] += duration
    out["trace.spans"] = len(spans)
    out["trace.missing_probes"] = len(record["missing"])
    return out
