"""Command-line frontend.

Every subcommand is one row of the ``_COMMANDS`` table: its help text, the one
library layer it reads, its arguments, whether it takes ``--tol``, and a thin
adapter over one call into that layer.  The parser is built from the table and
``main`` dispatches through it.  A process builds only the subparser it runs
and imports only that command's layer: choices and defaults that the library
decides are read from the layer when the subparser is built, not copied, and
the handlers look library functions up in the layer module at call time.
Output goes to stdout (or atomically to ``--out``); diagnostics to stderr.

Exit codes: 0 success; 1 at least one verification check failed; 2 no
result, with the message on stderr and nothing on stdout: a usage error
(unknown flag, value out of domain, unknown check id, empty ``--suite``
selection, the other ``series`` mode's flag, ``--tol`` on a partial sum),
an exact index past the capacity, a grid or ``--pf-terms`` past
``SERIES_TERM_BUDGET`` terms (refused before any is summed), an
``AccuracyError`` at the quadrature level cap, or an output that cannot be
written: stdout or an ``--out`` file.

The default tolerance is ``DEFAULT_TOL``; where a tolerance is read, the
``BASELKIT_TOL`` environment variable overrides it and ``--tol`` beats both.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
from collections import namedtuple

from .exact import CapacityError, fraction_str

_ENV_TOL = "BASELKIT_TOL"


def _tol(args) -> float:
    """--tol if given, else BASELKIT_TOL, else DEFAULT_TOL; read only by the
    calls that take a tolerance."""
    if args.tol is not None:
        return args.tol
    from .quadrature import DEFAULT_TOL  # loaded: every --tol command reads quadrature or series

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
    """Write a new file beside the target, then rename it over the target; created
    with mode 0o666, it gets the umask applied by the kernel, as open() would."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".baselkit-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:  # the rename is the last step, so a failure leaves tmp behind
        with contextlib.suppress(OSError):  # report the write's failure, not the cleanup's
            os.unlink(tmp)
        raise


def _zeta_record(exact, args) -> dict:
    power = exact.zeta_even_exact(args.even)
    return {"n": args.even, **power.to_json(), "value": power.to_float()}


def _poly_record(polynomials, args) -> dict:
    build = (polynomials.bernoulli_polynomial if args.kind == "bernoulli"
             else polynomials.genocchi_polynomial)
    return {"kind": args.kind, "n": args.n, "coefficients": build(args.n).to_string_list()}


def _series_record(series, args) -> dict:
    report = args.which in series.WHICH  # takes --m-max and --tol; the partial sums take --n
    needed, refused = ("--m-max", ["--n"]) if report else ("--n", ["--m-max", "--tol"])
    given = {"--n": args.n, "--m-max": args.m_max, "--tol": args.tol}
    if given[needed] is None:
        raise ValueError(f"--which {args.which} requires {needed}")
    for flag in refused:
        if given[flag] is not None:
            raise ValueError(f"--which {args.which} does not take {flag}")
    if report:
        return series.asymptotic_report(args.which, args.m_max, _tol(args)).to_json()
    zeta2 = args.which == "zeta2"
    record: dict = {"which": args.which, "n": args.n}
    if args.n <= series.EXACT_PARTIAL_CAP:
        partial = series.zeta2_partial if zeta2 else series.eta2_partial
        record["value"] = fraction_str(partial(args.n))
    record["value_float"] = (series.zeta2_partial_float if zeta2
                             else series.eta2_partial_float)(args.n)
    return record


def _cmd_verify(verify, args) -> tuple[str, int]:
    if args.list:
        return "\n".join(verify.available_checks()), 0
    selection = "all" if args.suite == "all" else [s for s in args.suite.split(",") if s]
    if not selection:
        raise ValueError(f"--suite {args.suite!r} selects no checks")
    results = verify.run_suite(selection)
    if args.format == "json":
        text = "\n".join(verify.report_lines(results))
    elif args.format == "csv":
        text = _csv_rows([verify.REPORT_FIELDS, *(r.to_json_dict().values() for r in results)])
    else:
        text = verify.summary_table(results)
    tally = sum(1 for r in results if r.status == "fail")
    print(f"verify: {len(results)} checks, {tally} failed", file=sys.stderr)
    return text, (1 if tally else 0)


def _record(build):
    """A subcommand whose output is one record, rendered in --format; exit 0."""
    return lambda layer, args: (_render_record(build(layer, args), args.format), 0)


def _arg(flag: str, **options) -> tuple[str, dict]:
    return flag, options


def _kind(kinds) -> tuple[str, dict]:
    return _arg("--kind", choices=[k.value for k in kinds], required=True)


_N = _arg("--n", type=int, required=True)
_X = _arg("--x", type=float, required=True)


# help: str; layer: the one baselkit module the command reads; arguments: layer -> (flag,
# add_argument options) pairs, before --format/--out; run: (layer, args) -> (text, exit code);
# tol: takes --tol, read through _tol (default False)
_Command = namedtuple("_Command", "help layer arguments run tol", defaults=(False,))


# One row per subcommand, in --help order.  Each function names its layer parameter after
# the module, and reads the library through it when the subparser is built or the command runs.
_COMMANDS = {
    "bernoulli": _Command(
        "exact Bernoulli number B_n", "exact", lambda exact: [_N],
        _record(lambda exact, a: {"n": a.n, "value": fraction_str(exact.bernoulli(a.n))})),
    "genocchi": _Command(
        "exact Genocchi number G_n", "exact", lambda exact: [_N],
        _record(lambda exact, a: {"n": a.n, "value": fraction_str(exact.genocchi(a.n))})),
    "zeta": _Command(
        "exact zeta(2n) as a rational times pi^(2n)", "exact",
        lambda exact: [_arg("--even", type=int, required=True, metavar="N",
                            help="index n of zeta(2n)")],
        _record(_zeta_record)),
    "poly": _Command(
        "Bernoulli or Genocchi polynomial coefficients", "polynomials",
        lambda polynomials: [_arg("--kind", choices=("bernoulli", "genocchi"), required=True), _N],
        _record(_poly_record)),
    "integrate": _Command(
        "log-singular integral on [0, 1]", "quadrature",
        lambda quadrature: [_kind(quadrature.IntegralKind)],
        _record(lambda quadrature, a: {"kind": a.kind, **quadrature.integrate(
            quadrature.IntegralKind(a.kind), _tol(a)).to_json()}),
        tol=True),
    "riemann": _Command(
        "left-out-endpoints Riemann sum at resolution n", "quadrature",
        lambda quadrature: [_kind(quadrature.RIEMANN_KINDS), _N],
        _record(lambda quadrature, a: {"kind": a.kind, "n": a.n, "value": quadrature.riemann_sum(
            quadrature.IntegralKind(a.kind), a.n)})),
    "product": _Command(
        "log of the partial product (1 -+ k/n)^(1/k)", "quadrature",
        lambda quadrature: [_kind(quadrature.ProductKind), _N],
        _record(lambda quadrature, a: {"kind": a.kind, "n": a.n, "value": quadrature.product_form(
            quadrature.ProductKind(a.kind), a.n)})),
    "dilog": _Command(
        "sum (2x)^n/n^2 by series or quadrature", "quadrature",
        lambda quadrature: [
            _X, _arg("--mode", choices=quadrature.DILOG_MODES, default=quadrature.DILOG_MODES[0])],
        _record(lambda quadrature, a: {
            "x": a.x, "mode": a.mode, "value": quadrature.scaled_dilog(a.x, a.mode, _tol(a))}),
        tol=True),
    "series": _Command(
        "partial sums and asymptotic-series reports", "series",
        lambda series: [_arg("--which", choices=("zeta2", "eta2", *series.WHICH), required=True),
                        _arg("--n", type=int, help="partial-sum length (zeta2/eta2)"),
                        _arg("--m-max", type=int, help="term count (bernoulli/genocchi reports)")],
        _record(_series_record), tol=True),
    "mei": _Command(
        "bisection refinement report for 1/sin^2(x)", "series",
        lambda series: [_X, _arg("--level", type=int, required=True),
                        _arg("--pf-terms", type=int, default=series.PF_TERMS)],
        _record(lambda series, a: series.bisection_report(a.x, a.level, a.pf_terms).to_json())),
    "verify": _Command(
        "run the identity verification suite", "verify",
        lambda verify: [
            _arg("--suite", default="all", help="'all' or comma-separated check ids"),
            _arg("--list", action="store_true", help="list available check ids and exit")],
        _cmd_verify),
}


def _layer(command: _Command):
    """The command's library module, imported on first use by `__import__`, whose imports
    `-X importtime` reports (it leaves out those of `importlib.import_module`)."""
    name = f"{__package__}.{command.layer}"
    __import__(name)
    return sys.modules[name]


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one named, which prints the same top-level
    usage; each subparser imports its command's layer."""
    parser = argparse.ArgumentParser(
        prog="baselkit",
        description="Exact Bernoulli/Genocchi arithmetic, even zeta values, "
        "log-singular integrals, and the identity verification suite.",
    )
    # argparse builds this metavar from the choices; the full parser leaves it unset, as its
    # errors for a missing or unknown command name the action by its dest
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if only is None else [only]:
        command = _COMMANDS[name]
        p = sub.add_parser(name, help=command.help)
        for flag, options in command.arguments(_layer(command)):
            p.add_argument(flag, **options)
        p.add_argument(
            "--format", choices=("pretty", "json", "csv"), default="pretty", help="output format"
        )
        p.add_argument("--out", help="write output to this file (atomic)")
        if command.tol:
            from .quadrature import DEFAULT_TOL

            p.add_argument("--tol", type=float, help=f"tolerance (default {DEFAULT_TOL})")
    return parser


def _exit_2_errors() -> tuple:
    """The errors that exit 2; UnknownCheckError is a ValueError, and an AccuracyError can
    come only from quadrature, so it is caught only once that layer is loaded."""
    quadrature = sys.modules.get(f"{__package__}.quadrature")
    return (ValueError, CapacityError, *([quadrature.AccuracyError] if quadrature else []))


def _fail(args, message) -> int:
    print(f"baselkit {args.command}: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  Only the subparser that argv's first word
    names is built, and only that command's library layer is imported; with no command word,
    `-h`/`--help` or an unknown word, the full parser is built.  With no argv, main reads
    sys.argv as the process entry: after that import it calls `gc.freeze()`, which takes every
    object the collector tracks so far out of its view for the rest of the process, and if
    stdout cannot be written it points descriptor 1 at devnull, since the interpreter's flush
    at exit would fail again and exit 120.  A caller that passes argv keeps both as they were."""
    words = sys.argv[1:] if argv is None else argv
    parser = _build_parser(words[0] if words and words[0] in _COMMANDS else None)
    if argv is None:
        # Every import is done, the command's layer with the parser, and nearly all of the ~13k
        # objects the collector tracks live until exit, yet CPython's full collections at
        # shutdown would scan them all; frozen, those collections scan only what the command
        # allocates.
        gc.freeze()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    try:
        text, code = command.run(_layer(command), args)
    except _exit_2_errors() as exc:
        return _fail(args, exc)
    try:
        if args.out is None:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
        else:
            _write_atomic(args.out, text + "\n")
    except OSError as exc:
        if args.out is None and argv is None:  # drop the text still held in stdout's buffer
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = "stdout" if args.out is None else args.out
        return _fail(args, f"cannot write {target}: {exc.strerror or exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
