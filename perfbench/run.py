"""baselkit benchmark.

    python3 perfbench/run.py --workload {suite,exact_cold,numeric,cli} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  With `--trace 0` the last line of stdout carries the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run.
The line before it records the seed, interpreter, machine and commit.
End-to-end times are scaled to a reference core speed (see `speed.py`).
Bytecode goes to `perfbench/.work/pycache`, warmed by the set-up, so the
source tree stays clean and fresh-process ops do not time compilation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracer as tracing
from child import FAMILIES
from workloads import CHILD, WORKLOADS, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PYCACHE = WORK / "pycache"

SETUPS = 3  # set-ups per run; setup_s is their median
PROBE_RUNS = 5  # interpreter and import probes per traced run

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

SINGLE_CHECKS = (
    "bisection_identity_grid", "bisection_partial_fraction", "bisection_remainder_bound",
    "poly_addition_recurrence", "poly_calculus", "poly_constant_terms",
    "poly_construction_orderings", "poly_halving_ii", "poly_halving_iii", "poly_halving_iv",
    "poly_power_sum_grid", "poly_reflection", "poly_special_values", "poly_value_at_one",
)
_MAX_METRICS = ("exact.max_index", "exact.value_digits", "polynomials.max_degree",
                "quadrature.err_ratio_max")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "quadrature.err_ratio_max":
        return "ratio"
    return "count"


PER_LAYER_NAMES = (
    ["exact.bernoulli_cold_s", "exact.genocchi_cold_s", "exact.warm_read_s", "exact.value_digits"]
    + list(tracing.PER_OP_METRICS)
    + ["quadrature.evals_per_integral"]
    + [f"verify.check.{c}_s" for c in SINGLE_CHECKS]
    + [f"verify.family.{f}_s" for f in FAMILIES]
    + ["cli.interpreter_s", "cli.import_s", "cli.nonzero_exits",
       "trace.untraced_op_p50_s", "trace.traced_op_p50_s", "trace.overhead_s"]
)
PER_LAYER = {name: _unit(name) for name in PER_LAYER_NAMES}


def cpu_seconds(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(workload, seconds: float, traced: bool):
    """Closed loop, one client: run ops until `seconds` have passed.

    Returns the measured wall and CPU seconds of each op, each op's factor
    to the reference core speed (from the reference loop timed right before
    and right after it), and the trace records paired with their op's factor."""
    walls, cpu, records, factors = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        before = speed.probe()
        c0 = cpu_seconds(workload.children)
        t0 = time.perf_counter()
        raw = workload.op(traced)
        walls.append(time.perf_counter() - t0)
        cpu.append(cpu_seconds(workload.children) - c0)
        factors.append(speed.scale(before, speed.probe()))
        record = workload.check(raw)
        if record is not None:
            records.append((record, factors[-1]))
    return walls, cpu, records, factors


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def layer_metrics(records: list[tuple[dict, float]]) -> dict[str, float]:
    """Mean per traced op of each per-op figure, times at reference speed;
    maxima for the *_max counts."""
    summaries = []
    for record, factor in records:
        summary = tracing.summarize(record)
        summary.update(record.get("extra", {}))
        summaries.append({k: v * factor if k.endswith("_s") else v for k, v in summary.items()})
    out: dict[str, float] = {}
    for name in set().union(*summaries) if summaries else ():
        values = [s.get(name, 0) for s in summaries]
        out[name] = max(values) if name in _MAX_METRICS else statistics.fmean(values)
    if out.get("quadrature.integrals"):
        out["quadrature.evals_per_integral"] = out["quadrature.evaluations"] / out["quadrature.integrals"]
    return out


def process_probes(ctx: Context) -> dict[str, float]:
    """Bare interpreter start and `import baselkit.cli`, medians of fresh processes."""
    bare = [_timed(ctx, ["-c", "pass"]) for _ in range(PROBE_RUNS)]
    imported = [_timed(ctx, ["-c", "import baselkit.cli"]) for _ in range(PROBE_RUNS)]
    interpreter = statistics.median(bare)
    return {"cli.interpreter_s": interpreter, "cli.import_s": statistics.median(imported) - interpreter}


def _timed(ctx: Context, argv: list[str]) -> float:
    before = speed.probe()
    start = time.perf_counter()
    code, _, _ = ctx.spawn(argv)
    wall = time.perf_counter() - start
    ctx.tally.add(code == 0, f"probe {argv!r} exit code")
    return wall * speed.scale(before, speed.probe())


def suite_checks(ctx: Context) -> dict[str, float]:
    before = speed.probe()
    code, out, _ = ctx.spawn([CHILD, "suite-checks"])
    factor = speed.scale(before, speed.probe())
    try:
        timings = json.loads(out.decode().splitlines()[-1])
    except (UnicodeDecodeError, ValueError, IndexError):
        timings = {}
    ctx.tally.add(code == 0 and bool(timings), "suite-checks child")
    return {name: seconds * factor for name, seconds in timings.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own repository, or "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "BASELKIT_TOL", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        pinned_cpu: int | None = None) -> tuple[dict, dict]:
    WORK.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=ROOT, work=WORK, seed=seed, env=child_env())
    workload = WORKLOADS[workload_name](ctx)
    setups = []
    for _ in range(1 if trace else SETUPS):
        before = speed.probe()
        start = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - start
        setups.append(wall * speed.scale(before, speed.probe()))
    workload.prepare()

    if not trace:
        walls, cpu, _, factors = measure(workload, seconds, traced=False)
        scaled = [w * f for w, f in zip(walls, factors)]
        children = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(scaled),
            "op_p90_s": p90(scaled),
            "cpu_per_op_s": statistics.median(c * f for c, f in zip(cpu, factors)),
            "peak_rss_mb": resource.getrusage(children).ru_maxrss / 1024.0,
            "pass_ratio": ctx.tally.pass_ratio,
        }
        units = END_TO_END
    else:
        plain, _, _, factors = measure(workload, seconds / 2, traced=False)
        traced, _, records, traced_factors = measure(workload, seconds / 2, traced=True)
        values = dict.fromkeys(PER_LAYER, 0)
        values.update(layer_metrics(records))
        values.update(process_probes(ctx))
        if workload_name == "suite":
            values.update(suite_checks(ctx))
        values["cli.nonzero_exits"] = ctx.nonzero_exits
        values["trace.untraced_op_p50_s"] = statistics.median(w * f for w, f in zip(plain, factors))
        values["trace.traced_op_p50_s"] = statistics.median(
            w * f for w, f in zip(traced, traced_factors))
        values["trace.overhead_s"] = values["trace.traced_op_p50_s"] - values["trace.untraced_op_p50_s"]
        walls, factors = plain + traced, factors + traced_factors
        units = PER_LAYER

    info = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": len(walls),
        "setups_s": setups,
        "pinned_cpu": pinned_cpu,
        "speed_factor_p50": statistics.median(factors),
        "measured_op_p50_s": statistics.median(walls),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(ROOT),
        "known_defects": ctx.tally.known,
        "failures": ctx.tally.failures,
    }
    result = {
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "baselkit" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}/baselkit", file=sys.stderr)
        return 2
    pinned_cpu = speed.pin_to_one_cpu()
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    import baselkit

    if Path(baselkit.__file__).resolve().parent != SRC / "baselkit":
        print(f"perfbench: imported baselkit from {baselkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace), pinned_cpu)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
