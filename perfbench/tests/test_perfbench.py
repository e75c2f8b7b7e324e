"""Tests of the benchmark itself: one op of each workload, and gates that
catch tampered outputs.  Run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import gates  # noqa: E402
import numeric  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_per_workload_passes_its_gate(name):
    run.WORK.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=run.ROOT, work=run.WORK, seed=7, env=run.child_env())
    workload = WORKLOADS[name](ctx)
    workload.setup()
    workload.prepare()
    record = workload.check(workload.op(traced=True))
    assert ctx.tally.attempted > 0
    assert ctx.tally.failed == 0, ctx.tally.failures
    summary = tracer.summarize(record)
    assert summary["trace.spans"] > 0
    assert summary["trace.missing_probes"] == 0


def _report(rows):
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows).encode()


def _suite_rows():
    rows = [{"check_id": f"check_{i:02d}", "status": "pass", "lhs": "a", "rhs": "b",
             "abs_err": 0.0, "tol": 1e-12} for i in range(56)]
    rows += [{"check_id": e, "status": "erratum_documented", "lhs": "a", "rhs": "b",
              "abs_err": "exact", "tol": "exact"} for e in gates.SUITE_ERRATA]
    return rows


def test_suite_gate_accepts_the_untouched_report():
    report = _report(_suite_rows())
    checks = gates.suite_report(0, report, b"verify: 59 checks, 0 failed\n", report)
    assert all(ok for ok, _ in checks)


def test_suite_gate_catches_one_flipped_byte():
    report = _report(_suite_rows())
    tampered = bytearray(report)
    tampered[report.index(b"1e-12")] = ord("2")
    checks = gates.suite_report(0, bytes(tampered), b"verify: 59 checks, 0 failed\n", report)
    assert [label for ok, label in checks if not ok] == [
        "suite report bytes differ from the warm-up op"
    ]


def test_suite_gate_catches_a_failed_row_and_a_lost_check():
    rows = _suite_rows()
    rows[3]["status"] = "fail"
    report = _report(rows)
    assert not all(ok for ok, _ in gates.suite_report(0, report, b"verify: 59 checks, 1 failed", None))
    short = _report(_suite_rows()[1:])
    assert not all(ok for ok, _ in gates.suite_report(0, short, b"verify: 58 checks, 0 failed", None))


def _exact_record(n: int) -> dict:
    from baselkit.exact import bernoulli, fraction_str, genocchi

    return {"n": n, "bernoulli": fraction_str(bernoulli(n)), "genocchi": fraction_str(genocchi(n)),
            "zeta_positive": n // 2, "zeta_count": n // 2}


def test_exact_gate_accepts_true_values_and_catches_a_wrong_fraction():
    record = _exact_record(40)
    assert all(ok for ok, _ in gates.exact_values(record))
    b = Fraction(record["bernoulli"])
    record["bernoulli"] = f"{b.numerator + 1}/{b.denominator}"
    failed = [label for ok, label in gates.exact_values(record) if not ok]
    assert "G_40 != -(2^40-1) B_40" in failed


def test_staudt_clausen_denominators():
    assert [gates.staudt_clausen_denominator(n) for n in (2, 4, 6, 12)] == [6, 30, 42, 2730]


def test_cli_gate_catches_a_wrong_pq_string():
    expected = '{"n":12,"value":"-691/2730"}'
    assert all(ok for ok, _ in gates.cli_output(0, expected + "\n", expected, True))
    assert not any(ok for ok, _ in gates.cli_output(0, '{"n":12,"value":"-691/2731"}', expected, True))
    assert not any(ok for ok, _ in gates.cli_output(1, expected, expected, True))


def test_numeric_gate_counts_single_outputs_and_keeps_the_known_defect_apart():
    cases = numeric.build_cases(3)
    results = numeric.run_pass(cases)
    clean = gates.Tally()
    numeric.check_pass(cases, results, clean)
    assert clean.failed == 0, clean.failures
    assert clean.known == len(numeric.KNOWN_DEFECTS)
    assert clean.attempted == len(cases)

    labels = [c.label for c in cases]
    bad = labels.index(next(label for label in labels if label.startswith("integrate(")))
    r = results[bad]
    results[bad] = type(r)(r.value + 1e-3, r.err_estimate, r.evaluations)
    tampered = gates.Tally()
    numeric.check_pass(cases, results, tampered)
    assert tampered.failed == 1
    assert tampered.failures == [labels[bad]]
    assert tampered.pass_ratio < clean.pass_ratio


def test_same_seed_same_numeric_inputs():
    assert [c.label for c in numeric.build_cases(5)] == [c.label for c in numeric.build_cases(5)]
    assert [c.label for c in numeric.build_cases(5)] != [c.label for c in numeric.build_cases(6)]


def test_self_time_subtracts_direct_children():
    record = {
        "names": ["verify.run_suite", "polynomials.check_reflection", "exact.bernoulli"],
        "spans": [
            (0, 0, 10_000_000_000, -1, [59, 0]),
            (1, 1_000_000_000, 5_000_000_000, 0, 1),
            (2, 2_000_000_000, 3_000_000_000, 1, 80),
        ],
        "missing": [],
    }
    summary = tracer.summarize(record)
    assert summary["verify.self_s"] == pytest.approx(6.0)
    assert summary["polynomials.self_s"] == pytest.approx(3.0)
    assert summary["exact.self_s"] == pytest.approx(1.0)
    assert summary["exact.max_index"] == 80
    assert summary["verify.checks"] == 59


def test_computed_term_counts_follow_the_stopping_rules():
    assert tracer.dilog_terms(0.5, "series", 1e-10) == 70_711
    assert tracer.dilog_terms(0.3, "integral") == 0
    q, tol = 0.6, 1e-12
    n = tracer.dilog_terms(0.3, "series", tol)
    assert q ** (n + 1) / ((n + 1) ** 2 * (1 - q)) <= tol < q ** n / (n**2 * (1 - q))
    assert tracer.bisection_terms(1.0, 0) == 1 + 1 + 20_000


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_run_refuses_a_tree_without_the_library(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    assert run.main(["--workload", "cli", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_reinstalling_the_tracer_starts_clean():
    import baselkit.quadrature as q

    original = q.integrate
    t = tracer.Tracer()
    for _ in range(2):
        t.install()
        q.integrate(q.IntegralKind.LOG_OVER_1MT)
        t.uninstall()
        record = t.take()
    assert q.integrate is original
    assert len(record["names"]) == sum(len(v) for v in tracer.PROBES.values())
    summary = tracer.summarize(record)
    assert summary["quadrature.integrals"] == 1
    assert summary["trace.missing_probes"] == 0


def test_speed_scale_maps_the_reference_loop_time_to_one():
    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    assert speed.scale(speed.REFERENCE_S, 3 * speed.REFERENCE_S) == 0.5
    assert speed.probe() > 0.0
