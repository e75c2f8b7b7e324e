"""Fresh-process programs started by the benchmark.

    child.py exact --n N [--trace FILE]      grow B_n and G_n from a cold memo
    child.py cli [--trace FILE] -- ARGS...   run `baselkit.cli.main(ARGS)`
    child.py numeric --seed N                import, build and check one pass
    child.py suite-checks                    time single checks and families

Each prints one JSON line (the cli mode prints what the CLI prints).  With
`--trace FILE` the spans of the process are written to FILE at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import tracer as tracing

# Suite checks timed one by one, and the families the rest fall into.
SINGLE_CHECK_PREFIXES = ("poly_", "bisection_")
FAMILIES = {
    "integral": ("integral_",),
    "functional": ("functional_",),
    "pair": ("series_vs_integral_",),
    "dilog": ("dilog_",),
    "limits": ("riemann_", "product_", "monotone_"),
    "zeta": ("zeta_",),
    "tail": ("tail_",),
    "asymptotic": ("asymptotic_",),
    "errata": ("erratum_",),
}


def exact_growth(n: int) -> dict:
    """Cold growth of B_n and G_n, then a warm read-back of every index."""
    import baselkit

    clock = time.perf_counter
    t0 = clock()
    b = baselkit.bernoulli(n)
    t1 = clock()
    g = baselkit.genocchi(n)
    t2 = clock()
    for k in range(n + 1):
        baselkit.bernoulli(k)
        baselkit.genocchi(k)
    positive = sum(baselkit.zeta_even_exact(k).coefficient > 0 for k in range(1, n // 2 + 1))
    t3 = clock()
    return {
        "n": n,
        "bernoulli": baselkit.fraction_str(b),
        "genocchi": baselkit.fraction_str(g),
        "zeta_positive": positive,
        "zeta_count": n // 2,
        "bernoulli_cold_s": t1 - t0,
        "genocchi_cold_s": t2 - t1,
        "warm_read_s": t3 - t2,
    }


def suite_checks() -> dict:
    """Wall time of `run_suite` on each single check and on each family."""
    from baselkit.verify import available_checks, run_suite

    ids = available_checks()
    out = {}
    for check_id in ids:
        if check_id.startswith(SINGLE_CHECK_PREFIXES):
            start = time.perf_counter()
            run_suite([check_id])
            out[f"verify.check.{check_id}_s"] = time.perf_counter() - start
    for family, prefixes in FAMILIES.items():
        members = [i for i in ids if i.startswith(prefixes)]
        start = time.perf_counter()
        run_suite(members)
        out[f"verify.family.{family}_s"] = time.perf_counter() - start
    return out


def value_digits(n: int) -> int:
    """Decimal digits of numerator and denominator of B_n (the exact work size)."""
    from baselkit.exact import bernoulli

    b = bernoulli(n)
    return len(str(abs(b.numerator))) + len(str(b.denominator))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("exact", "cli", "numeric", "suite-checks"))
    parser.add_argument("--n", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", default=None)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    rest = argv[split + 1:]

    if args.mode == "numeric":
        import numeric
        from gates import Tally

        cases = numeric.build_cases(args.seed)
        tally = Tally()
        numeric.check_pass(cases, numeric.run_pass(cases), tally)
        print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                          "known": tally.known, "failures": tally.failures}))
        return 0
    if args.mode == "suite-checks":
        print(json.dumps(suite_checks()))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    code = 0
    extra = {}
    try:
        if args.mode == "exact":
            record = exact_growth(args.n)
            extra = {f"exact.{k}": v for k, v in record.items() if k.endswith("_s")}
            print(json.dumps(record))
        else:
            import baselkit.cli

            code = baselkit.cli.main(rest)
    finally:
        if tracer is not None:
            tracer.uninstall()
            record = tracer.take()
            index = tracing.summarize(record)["exact.max_index"]
            extra["exact.value_digits"] = value_digits(index) if index else 0
            record["extra"] = extra
            with open(args.trace, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
