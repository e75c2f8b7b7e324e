"""Command-line frontend.

Every subcommand is a thin adapter over one library call: it parses flags,
invokes the function, and serializes the result.  No numeric logic lives
here.  Output goes to stdout (or atomically to ``--out``); diagnostics go to
stderr.

Exit codes: 0 success; 1 at least one verification check failed; 2 the
command could not produce a result: a usage error (unknown flag, value out
of domain, unknown check id), an exact index past the capacity, a series
past its term budget, or an ``AccuracyError`` when quadrature misses its
tolerance at the level cap.  The message for 2 goes to stderr and nothing
is written to stdout.

Default tolerance is 1e-12; the ``BASELKIT_TOL`` environment variable
overrides the default and the ``--tol`` flag overrides both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

from .exact import (
    CapacityError,
    bernoulli,
    fraction_str,
    genocchi,
    zeta_even_exact,
)
from .polynomials import bernoulli_polynomial, genocchi_polynomial
from .quadrature import (
    AccuracyError,
    IntegralKind,
    ProductKind,
    integrate,
    product_form,
    riemann_sum,
    scaled_dilog,
)
from .series import (
    EXACT_PARTIAL_CAP,
    asymptotic_report,
    bisection_report,
    eta2_partial,
    eta2_partial_float,
    zeta2_partial,
    zeta2_partial_float,
)
from .verify import (
    UnknownCheckError,
    available_checks,
    report_lines,
    run_suite,
    summary_table,
)

_DEFAULT_TOL = 1e-12
_ENV_TOL = "BASELKIT_TOL"


def _default_tol() -> float:
    raw = os.environ.get(_ENV_TOL)
    if raw is None:
        return _DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_TOL} must be a float, got {raw!r}") from exc


def _fmt_float(x: float) -> str:
    return f"{x:.15g}"


def _pretty_value(value) -> str:
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, list):
        return "[" + ", ".join(_pretty_value(v) for v in value) + "]"
    return str(value)


def _csv_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(_csv_value(v) for v in value)
    return str(value)


def _csv_rows(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _render_record(record: dict, fmt: str) -> str:
    """Serialize one result record in the requested format."""
    if fmt == "json":
        return json.dumps(record, separators=(",", ":"))
    if fmt == "csv":
        return _csv_rows([record.keys(), [_csv_value(v) for v in record.values()]])
    return "\n".join(f"{key}: {_pretty_value(value)}" for key, value in record.items())


def _emit(text: str, out_path: str | None) -> None:
    payload = text + "\n"
    if out_path is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".baselkit-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _add_common(parser: argparse.ArgumentParser, tol: bool = False) -> None:
    parser.add_argument(
        "--format", choices=("pretty", "json", "csv"), default="pretty", help="output format"
    )
    parser.add_argument("--out", default=None, help="write output to this file (atomic)")
    if tol:
        parser.add_argument(
            "--tol", type=float, default=None, help=f"tolerance (default {_DEFAULT_TOL})"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baselkit",
        description="Exact Bernoulli/Genocchi arithmetic, even zeta values, "
        "log-singular integrals, and the identity verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="exact Bernoulli number B_n")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("genocchi", help="exact Genocchi number G_n")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("zeta", help="exact zeta(2n) as a rational times pi^(2n)")
    p.add_argument("--even", type=int, required=True, metavar="N", help="index n of zeta(2n)")
    _add_common(p)

    p = sub.add_parser("poly", help="Bernoulli or Genocchi polynomial coefficients")
    p.add_argument("--kind", choices=("bernoulli", "genocchi"), required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("integrate", help="log-singular integral on [0, 1]")
    p.add_argument("--kind", choices=[k.value for k in IntegralKind], required=True)
    _add_common(p, tol=True)

    p = sub.add_parser("riemann", help="left-out-endpoints Riemann sum at resolution n")
    p.add_argument(
        "--kind",
        choices=["log_over_1mt", "log1m_over_t", "log_over_1pt"],
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("product", help="log of the partial product (1 -+ k/n)^(1/k)")
    p.add_argument("--kind", choices=[k.value for k in ProductKind], required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("dilog", help="sum (2x)^n/n^2 by series or quadrature")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mode", choices=("series", "integral"), default="series")
    _add_common(p, tol=True)

    p = sub.add_parser("series", help="partial sums and asymptotic-series reports")
    p.add_argument(
        "--which", choices=("zeta2", "eta2", "bernoulli", "genocchi"), required=True
    )
    p.add_argument("--n", type=int, default=None, help="partial-sum length (zeta2/eta2)")
    p.add_argument(
        "--m-max", type=int, default=None, help="term count (bernoulli/genocchi reports)"
    )
    _add_common(p, tol=True)

    p = sub.add_parser("mei", help="bisection refinement report for 1/sin^2(x)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--pf-terms", type=int, default=10_000)
    _add_common(p)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument(
        "--suite", default="all", help="'all' or comma-separated check ids"
    )
    p.add_argument("--list", action="store_true", help="list available check ids and exit")
    _add_common(p)

    return parser


def _zeta_record(args, tol: float) -> dict:
    power = zeta_even_exact(args.even)
    return {
        "n": args.even,
        "coefficient": fraction_str(power.coefficient),
        "pi_exponent": power.exponent,
        "value": power.to_float(),
    }


def _poly_record(args, tol: float) -> dict:
    build = bernoulli_polynomial if args.kind == "bernoulli" else genocchi_polynomial
    return {"kind": args.kind, "n": args.n, "coefficients": build(args.n).to_string_list()}


def _series_record(args, tol: float) -> dict:
    if args.which in ("zeta2", "eta2"):
        if args.n is None:
            raise ValueError(f"--which {args.which} requires --n")
        record: dict = {"which": args.which, "n": args.n}
        exact_fn = zeta2_partial if args.which == "zeta2" else eta2_partial
        float_fn = zeta2_partial_float if args.which == "zeta2" else eta2_partial_float
        if args.n <= EXACT_PARTIAL_CAP:
            record["value"] = fraction_str(exact_fn(args.n))
        record["value_float"] = float_fn(args.n)
        return record
    if args.m_max is None:
        raise ValueError(f"--which {args.which} requires --m-max")
    return asymptotic_report(args.which, args.m_max, tol).to_json()


def _cmd_verify(args, tol: float) -> tuple[str, int]:
    if args.list:
        return "\n".join(available_checks()), 0
    selection = "all" if args.suite == "all" else [s for s in args.suite.split(",") if s]
    results = run_suite(selection)
    if args.format == "json":
        text = "\n".join(report_lines(results))
    elif args.format == "csv":
        header = ["check_id", "status", "lhs", "rhs", "abs_err", "tol"]
        text = _csv_rows([header, *(r.to_json_dict().values() for r in results)])
    else:
        text = summary_table(results)
    tally = sum(1 for r in results if r.status == "fail")
    print(
        f"verify: {len(results)} checks, {tally} failed",
        file=sys.stderr,
    )
    return text, (1 if tally else 0)


def _record(build):
    """A subcommand whose output is one record, rendered in --format; exit 0."""
    return lambda args, tol: (_render_record(build(args, tol), args.format), 0)


# Each entry takes (args, tol) and returns (text, exit code).  Library calls
# sit inside the entries, so they resolve this module's globals at call time.
_COMMANDS = {
    "bernoulli": _record(lambda a, tol: {"n": a.n, "value": fraction_str(bernoulli(a.n))}),
    "genocchi": _record(lambda a, tol: {"n": a.n, "value": fraction_str(genocchi(a.n))}),
    "zeta": _record(_zeta_record),
    "poly": _record(_poly_record),
    "integrate": _record(
        lambda a, tol: {"kind": a.kind, **integrate(IntegralKind(a.kind), tol).to_json()}
    ),
    "riemann": _record(
        lambda a, tol: {"kind": a.kind, "n": a.n, "value": riemann_sum(IntegralKind(a.kind), a.n)}
    ),
    "product": _record(
        lambda a, tol: {"kind": a.kind, "n": a.n, "value": product_form(ProductKind(a.kind), a.n)}
    ),
    "dilog": _record(
        lambda a, tol: {"x": a.x, "mode": a.mode, "value": scaled_dilog(a.x, a.mode, tol)}
    ),
    "series": _record(_series_record),
    "mei": _record(lambda a, tol: bisection_report(a.x, a.level, a.pf_terms).to_json()),
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = args.tol if getattr(args, "tol", None) is not None else _default_tol()
        text, code = _COMMANDS[args.command](args, tol)
    except (ValueError, CapacityError, UnknownCheckError, AccuracyError) as exc:
        print(f"baselkit {args.command}: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
