"""Command-line frontend.

Every subcommand is one row of the ``_COMMANDS`` table: its help text, its
arguments, whether it takes ``--tol``, and a thin adapter over one library
call.  The parser is built from the table and ``main`` dispatches through
it; choices and defaults that the library decides are imported, not copied.
Output goes to stdout (or atomically to ``--out``); diagnostics to stderr.

Exit codes: 0 success; 1 at least one verification check failed; 2 no
result, with the message on stderr and nothing on stdout: a usage error
(unknown flag, value out of domain, unknown check id, empty ``--suite``
selection, the other ``series`` mode's flag, ``--tol`` on a partial sum),
an exact index past the capacity, a grid or ``--pf-terms`` past
``SERIES_TERM_BUDGET`` terms (refused before any is summed), an
``AccuracyError`` at the quadrature level cap, or an unwritable ``--out``.

The default tolerance is ``DEFAULT_TOL``; where a tolerance is read, the
``BASELKIT_TOL`` environment variable overrides it and ``--tol`` beats both.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
from collections import namedtuple

from .exact import CapacityError, bernoulli, fraction_str, genocchi, zeta_even_exact
from .polynomials import bernoulli_polynomial, genocchi_polynomial
from .quadrature import (
    DEFAULT_TOL, DILOG_MODES, RIEMANN_KINDS, AccuracyError, IntegralKind, ProductKind,
    integrate, product_form, riemann_sum, scaled_dilog,
)
from .series import (
    EXACT_PARTIAL_CAP, PF_TERMS, WHICH, asymptotic_report, bisection_report, eta2_partial,
    eta2_partial_float, zeta2_partial, zeta2_partial_float,
)
from .verify import (
    REPORT_FIELDS, available_checks, report_lines, run_suite, summary_table,
)

_ENV_TOL = "BASELKIT_TOL"


def _tol(args) -> float:
    """--tol if given, else BASELKIT_TOL, else DEFAULT_TOL; read only by the
    calls that take a tolerance."""
    if args.tol is not None:
        return args.tol
    raw = os.environ.get(_ENV_TOL, DEFAULT_TOL)
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_TOL} must be a float, got {raw!r}") from exc


def _pretty_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    if isinstance(value, list):
        return "[" + ", ".join(_pretty_value(v) for v in value) + "]"
    return str(value)


def _csv_value(value) -> str:
    if isinstance(value, list):
        return ";".join(_csv_value(v) for v in value)
    return str(value)


def _csv_rows(rows) -> str:
    import csv  # only csv output needs it; a module-level import would cost every process

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


def _write_atomic(path: str, payload: str) -> None:
    """Write through a temp file in the target directory, then rename it; the file
    gets the mode open() would give a new one, 0o666 less the umask."""
    import tempfile  # only --out needs it, as csv above

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".baselkit-")  # mode 0o600
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        umask = os.umask(0)  # the one way to read it, so set it straight back
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _zeta_record(args) -> dict:
    power = zeta_even_exact(args.even)
    return {"n": args.even, **power.to_json(), "value": power.to_float()}


def _poly_record(args) -> dict:
    build = bernoulli_polynomial if args.kind == "bernoulli" else genocchi_polynomial
    return {"kind": args.kind, "n": args.n, "coefficients": build(args.n).to_string_list()}


def _series_record(args) -> dict:
    report = args.which in WHICH  # takes --m-max and --tol; the partial sums take --n
    needed, refused = ("--m-max", ["--n"]) if report else ("--n", ["--m-max", "--tol"])
    given = {"--n": args.n, "--m-max": args.m_max, "--tol": args.tol}
    if given[needed] is None:
        raise ValueError(f"--which {args.which} requires {needed}")
    for flag in refused:
        if given[flag] is not None:
            raise ValueError(f"--which {args.which} does not take {flag}")
    if report:
        return asymptotic_report(args.which, args.m_max, _tol(args)).to_json()
    zeta2 = args.which == "zeta2"
    record: dict = {"which": args.which, "n": args.n}
    if args.n <= EXACT_PARTIAL_CAP:
        record["value"] = fraction_str((zeta2_partial if zeta2 else eta2_partial)(args.n))
    record["value_float"] = (zeta2_partial_float if zeta2 else eta2_partial_float)(args.n)
    return record


def _cmd_verify(args) -> tuple[str, int]:
    if args.list:
        return "\n".join(available_checks()), 0
    selection = "all" if args.suite == "all" else [s for s in args.suite.split(",") if s]
    if not selection:
        raise ValueError(f"--suite {args.suite!r} selects no checks")
    results = run_suite(selection)
    if args.format == "json":
        text = "\n".join(report_lines(results))
    elif args.format == "csv":
        text = _csv_rows([REPORT_FIELDS, *(r.to_json_dict().values() for r in results)])
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
    return lambda args: (_render_record(build(args), args.format), 0)


def _arg(flag: str, **options) -> tuple[str, dict]:
    return flag, options


def _kind(kinds) -> tuple[str, dict]:
    return _arg("--kind", choices=[k.value for k in kinds], required=True)


_N = _arg("--n", type=int, required=True)
_X = _arg("--x", type=float, required=True)


# help: str; arguments: (flag, add_argument options) pairs, before --format/--out;
# run: args -> (text, exit code); tol: takes --tol, read through _tol (default False)
_Command = namedtuple("_Command", "help arguments run tol", defaults=(False,))


# One row per subcommand, in --help order.  The library calls sit inside the
# handlers, so they resolve this module's globals at call time.
_COMMANDS = {
    "bernoulli": _Command(
        "exact Bernoulli number B_n", [_N],
        _record(lambda a: {"n": a.n, "value": fraction_str(bernoulli(a.n))})),
    "genocchi": _Command(
        "exact Genocchi number G_n", [_N],
        _record(lambda a: {"n": a.n, "value": fraction_str(genocchi(a.n))})),
    "zeta": _Command(
        "exact zeta(2n) as a rational times pi^(2n)",
        [_arg("--even", type=int, required=True, metavar="N", help="index n of zeta(2n)")],
        _record(_zeta_record)),
    "poly": _Command(
        "Bernoulli or Genocchi polynomial coefficients",
        [_arg("--kind", choices=("bernoulli", "genocchi"), required=True), _N],
        _record(_poly_record)),
    "integrate": _Command(
        "log-singular integral on [0, 1]", [_kind(IntegralKind)],
        _record(lambda a: {"kind": a.kind, **integrate(IntegralKind(a.kind), _tol(a)).to_json()}),
        tol=True),
    "riemann": _Command(
        "left-out-endpoints Riemann sum at resolution n", [_kind(RIEMANN_KINDS), _N],
        _record(lambda a: {
            "kind": a.kind, "n": a.n, "value": riemann_sum(IntegralKind(a.kind), a.n)})),
    "product": _Command(
        "log of the partial product (1 -+ k/n)^(1/k)", [_kind(ProductKind), _N],
        _record(lambda a: {
            "kind": a.kind, "n": a.n, "value": product_form(ProductKind(a.kind), a.n)})),
    "dilog": _Command(
        "sum (2x)^n/n^2 by series or quadrature",
        [_X, _arg("--mode", choices=DILOG_MODES, default=DILOG_MODES[0])],
        _record(lambda a: {"x": a.x, "mode": a.mode, "value": scaled_dilog(a.x, a.mode, _tol(a))}),
        tol=True),
    "series": _Command(
        "partial sums and asymptotic-series reports",
        [_arg("--which", choices=("zeta2", "eta2", *WHICH), required=True),
         _arg("--n", type=int, help="partial-sum length (zeta2/eta2)"),
         _arg("--m-max", type=int, help="term count (bernoulli/genocchi reports)")],
        _record(_series_record), tol=True),
    "mei": _Command(
        "bisection refinement report for 1/sin^2(x)",
        [_X, _arg("--level", type=int, required=True),
         _arg("--pf-terms", type=int, default=PF_TERMS)],
        _record(lambda a: bisection_report(a.x, a.level, a.pf_terms).to_json())),
    "verify": _Command(
        "run the identity verification suite",
        [_arg("--suite", default="all", help="'all' or comma-separated check ids"),
         _arg("--list", action="store_true", help="list available check ids and exit")],
        _cmd_verify),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baselkit",
        description="Exact Bernoulli/Genocchi arithmetic, even zeta values, "
        "log-singular integrals, and the identity verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in command.arguments:
            p.add_argument(flag, **options)
        p.add_argument(
            "--format", choices=("pretty", "json", "csv"), default="pretty", help="output format"
        )
        p.add_argument("--out", help="write output to this file (atomic)")
        if command.tol:
            p.add_argument("--tol", type=float, help=f"tolerance (default {DEFAULT_TOL})")
    return parser


def _fail(args, message) -> int:
    print(f"baselkit {args.command}: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  With no argv, main reads sys.argv as
    the process entry and first calls `gc.freeze()`, which takes every object the
    collector tracks so far out of its view for the rest of the process; a caller that
    passes argv keeps its collector as it was."""
    if argv is None:
        # Every import is done, and nearly all of the ~13k objects the collector tracks live
        # until exit, yet CPython's full collections at shutdown would scan them all; frozen,
        # those collections scan only what the command allocates.
        gc.freeze()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    try:
        text, code = command.run(args)
    except (ValueError, CapacityError, AccuracyError) as exc:  # UnknownCheckError is a ValueError
        return _fail(args, exc)
    if args.out is None:
        sys.stdout.write(text + "\n")
        return code
    try:
        _write_atomic(args.out, text + "\n")
    except OSError as exc:
        return _fail(args, f"cannot write {args.out}: {exc.strerror or exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
