"""The four workloads.  Each has a `setup` (one untimed warm-up op, timed as
set-up), an `op` (the timed unit) and a `check` (the gate, outside the timed
region).  All load comes from one closed loop with one client; at most one
child process is alive at a time.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gates
import numeric
import tracer as tracing

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
OP_TIMEOUT_S = 120


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    env: dict
    tally: gates.Tally = field(default_factory=gates.Tally)
    nonzero_exits: int = 0
    trace_files: int = 0

    def spawn(self, argv: list[str]) -> tuple[int | None, bytes, bytes]:
        """Run one child process to completion; a timeout is a failed op."""
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                capture_output=True, timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            return None, exc.stdout or b"", exc.stderr or b""
        return proc.returncode, proc.stdout, proc.stderr

    def trace_path(self) -> str:
        self.trace_files += 1
        return str(self.work / f"trace-{os.getpid()}-{self.trace_files}.json")

    def add(self, checks: list[tuple[bool, str]]) -> None:
        for ok, label in checks:
            self.tally.add(ok, label)


def load_trace(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
    finally:
        if os.path.exists(path):
            os.unlink(path)


class Workload:
    children = True  # CPU and RSS of an op belong to a child process

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)

    def setup(self) -> None:
        self.check(self.op(traced=False))

    def prepare(self) -> None:
        """Untimed parent-side preparation after the set-ups."""

    def _cli(self, argv: list[str], traced: bool):
        if traced:
            trace = self.ctx.trace_path()
            return self.ctx.spawn([CHILD, "cli", "--trace", trace, "--", *argv]), trace
        return self.ctx.spawn(["-m", "baselkit.cli", *argv]), None


class Suite(Workload):
    """The shipped product: the full self-certifying report in a fresh process."""

    ARGV = ["verify", "--suite", "all", "--format", "json"]

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.reference: bytes | None = None

    def op(self, traced: bool):
        return self._cli(self.ARGV, traced)

    def check(self, raw):
        (code, out, err), trace = raw
        self.ctx.nonzero_exits += code != 0
        self.ctx.add(gates.suite_report(code, out, err, self.reference))
        if self.reference is None:
            self.reference = out
        return load_trace(trace)


class ExactCold(Workload):
    """Cold growth of B_n and G_n for an even n near 1000, then a warm read-back."""

    def op(self, traced: bool):
        n = 1000 + 2 * self.rng.randint(-4, 4)
        argv = [CHILD, "exact", "--n", str(n)]
        trace = self.ctx.trace_path() if traced else None
        if trace:
            argv += ["--trace", trace]
        return self.ctx.spawn(argv), trace

    def check(self, raw):
        (code, out, _), trace = raw
        try:
            record = json.loads(out.decode().splitlines()[-1])
        except (UnicodeDecodeError, ValueError, IndexError):
            record = {}
        self.ctx.add([(code == 0, "exact_cold child exit code")] + gates.exact_values(record))
        return load_trace(trace)


class Numeric(Workload):
    """binary64 integrals, functional equations, series and limits in one long-lived process."""

    children = False

    def setup(self) -> None:
        # a fresh process that imports, builds the list and checks one pass
        code, out, _ = self.ctx.spawn([CHILD, "numeric", "--seed", str(self.ctx.seed)])
        try:
            counts = json.loads(out.decode().splitlines()[-1])
        except (UnicodeDecodeError, ValueError, IndexError):
            counts = {"attempted": 1, "failed": 1, "known": 0, "failures": ["numeric set-up"]}
        tally = self.ctx.tally
        tally.attempted += counts["attempted"]
        tally.failed += counts["failed"] + (code != 0)
        tally.known += counts["known"]
        tally.failures.extend(counts["failures"])

    def prepare(self) -> None:
        self.cases = numeric.build_cases(self.ctx.seed)
        self.tracer = tracing.Tracer()
        self.check(self.op(traced=False))

    def op(self, traced: bool):
        if not traced:
            return numeric.run_pass(self.cases), None
        self.tracer.install()
        try:
            results = numeric.run_pass(self.cases)
        finally:
            self.tracer.uninstall()
        return results, self.tracer.take()

    def check(self, raw):
        results, record = raw
        numeric.check_pass(self.cases, results, self.ctx.tally)
        return record


@dataclass(frozen=True)
class Command:
    argv: list[str]
    expected: Callable[[], str]  # the library's in-process answer
    as_json: bool = True


CHEAP_CHECKS = (
    "dilog_ode_residual", "erratum_E1", "integral_log1p_over_t", "integral_log_over_1mt",
    "tail_eta2_N10", "tail_zeta2_N100", "zeta_even_exact_3", "zeta_even_exact_7",
)


def _commands(rng: random.Random) -> list[Command]:
    """One seeded command of each of the twelve kinds."""
    from baselkit.exact import bernoulli, fraction_str as fs, genocchi, zeta_even_exact
    from baselkit.polynomials import bernoulli_polynomial, genocchi_polynomial
    from baselkit.quadrature import (
        IntegralKind, ProductKind, integrate, product_form, riemann_sum, scaled_dilog,
    )
    from baselkit.series import (
        asymptotic_report, bisection_report, eta2_partial, eta2_partial_float,
        zeta2_partial, zeta2_partial_float,
    )
    from baselkit.verify import available_checks, report_lines, run_suite

    dump = json.dumps
    tol = 1e-12  # the CLI default; BASELKIT_TOL is not passed to children
    n_b, n_g, even = rng.randint(0, 200), rng.randint(0, 200), rng.randint(1, 60)
    poly_kind, poly_n = rng.choice(("bernoulli", "genocchi")), rng.randint(0, 30)
    q_kind = rng.choice([k.value for k in IntegralKind])
    q_tol = 10.0 ** -rng.uniform(6.0, 14.0)
    r_kind = rng.choice(("log_over_1mt", "log1m_over_t", "log_over_1pt"))
    p_kind, p_n = rng.choice([k.value for k in ProductKind]), rng.randint(1_000, 5_000)
    d_x, d_mode = rng.uniform(-0.45, 0.45), rng.choice(("series", "integral"))
    s_which = rng.choice(("zeta2", "eta2", "bernoulli", "genocchi"))
    s_n, s_m = rng.randint(10, 2_000), rng.randint(1, 20)
    m_x, m_level = rng.uniform(0.1, 1.5), rng.randint(0, 12)
    check_id = rng.choice(CHEAP_CHECKS)

    def zeta() -> str:
        p = zeta_even_exact(even)
        return dump({"n": even, "coefficient": fs(p.coefficient),
                     "pi_exponent": p.exponent, "value": p.to_float()})

    def poly() -> str:
        build = bernoulli_polynomial if poly_kind == "bernoulli" else genocchi_polynomial
        return dump({"kind": poly_kind, "n": poly_n, "coefficients": build(poly_n).to_string_list()})

    def series() -> str:
        if s_which == "zeta2":
            return dump({"which": s_which, "n": s_n, "value": fs(zeta2_partial(s_n)),
                         "value_float": zeta2_partial_float(s_n)})
        if s_which == "eta2":
            return dump({"which": s_which, "n": s_n, "value": fs(eta2_partial(s_n)),
                         "value_float": eta2_partial_float(s_n)})
        return dump(asymptotic_report(s_which, s_m, tol).to_json())

    series_argv = ["--n", str(s_n)] if s_which in ("zeta2", "eta2") else ["--m-max", str(s_m)]
    fmt = ["--format", "json"]
    return [
        Command(["bernoulli", "--n", str(n_b), *fmt],
                lambda: dump({"n": n_b, "value": fs(bernoulli(n_b))})),
        Command(["genocchi", "--n", str(n_g), *fmt],
                lambda: dump({"n": n_g, "value": fs(genocchi(n_g))})),
        Command(["zeta", "--even", str(even), *fmt], zeta),
        Command(["poly", "--kind", poly_kind, "--n", str(poly_n), *fmt], poly),
        Command(["integrate", "--kind", q_kind, "--tol", repr(q_tol), *fmt],
                lambda: dump({"kind": q_kind, **integrate(IntegralKind(q_kind), q_tol).to_json()})),
        Command(["riemann", "--kind", r_kind, "--n", "1000", *fmt],
                lambda: dump({"kind": r_kind, "n": 1000,
                              "value": riemann_sum(IntegralKind(r_kind), 1000)})),
        Command(["product", "--kind", p_kind, "--n", str(p_n), *fmt],
                lambda: dump({"kind": p_kind, "n": p_n,
                              "value": product_form(ProductKind(p_kind), p_n)})),
        Command(["dilog", "--x", repr(d_x), "--mode", d_mode, *fmt],
                lambda: dump({"x": d_x, "mode": d_mode, "value": scaled_dilog(d_x, d_mode, tol)})),
        Command(["series", "--which", s_which, *series_argv, *fmt], series),
        Command(["mei", "--x", repr(m_x), "--level", str(m_level), *fmt],
                lambda: dump(bisection_report(m_x, m_level).to_json())),
        Command(["verify", "--list"], lambda: "\n".join(available_checks()) + "\n", False),
        Command(["verify", "--suite", check_id, *fmt],
                lambda: report_lines(run_suite([check_id]))[0]),
    ]


class Cli(Workload):
    """One small seeded subcommand per fresh `python -m baselkit.cli` process."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.queue: list[Command] = []

    def op(self, traced: bool):
        if not self.queue:
            # every kind once per round, in a seeded order
            self.queue = _commands(self.rng)
            self.rng.shuffle(self.queue)
        command = self.queue.pop()
        return command, self._cli(command.argv, traced)

    def check(self, raw):
        command, ((code, out, _), trace) = raw
        self.ctx.nonzero_exits += code != 0
        self.ctx.add(gates.cli_output(code, out.decode(errors="replace"), command.expected(),
                                      command.as_json))
        return load_trace(trace)


WORKLOADS = {"suite": Suite, "exact_cold": ExactCold, "numeric": Numeric, "cli": Cli}
