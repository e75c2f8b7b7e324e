"""CLI adapter behavior: golden equality with the library, formats, exit codes."""

from __future__ import annotations

import gc
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import baselkit.cli as cli
from baselkit import exact
from baselkit.cli import main
from baselkit.exact import bernoulli, fraction_str, genocchi, parse_fraction, zeta_even_exact
from baselkit.quadrature import ETA2, ZETA2, AccuracyError, IntegralKind, QuadResult, integrate
from baselkit.series import bisection_report
from baselkit.verify import available_checks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_bernoulli_json_golden(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--n", "12", "--format", "json")
        assert code == 0
        assert out == '{"n":12,"value":"-691/2730"}\n'
        assert json.loads(out)["value"] == fraction_str(bernoulli(12))

    def test_genocchi_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "genocchi", "--n", "4")
        assert code == 0
        assert "value: 1/2" in out

    def test_zeta_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--even", "2", "--format", "json")
        record = json.loads(out)
        assert code == 0
        assert record["coefficient"] == "1/90"
        assert record["pi_exponent"] == 4
        assert record["value"] == zeta_even_exact(2).to_float()

    def test_poly_csv(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--kind", "bernoulli", "--n", "2",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "kind,n,coefficients"
        assert row == "bernoulli,2,1/6;-1;1"


class TestNumericCommands:
    def test_integrate_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--kind", "log_over_1mt",
                               "--format", "json", "--tol", "1e-10")
        record = json.loads(out)
        direct = integrate(IntegralKind.LOG_OVER_1MT, 1e-10)
        assert code == 0
        assert record["value"] == direct.value
        assert record["evaluations"] == direct.evaluations

    @pytest.mark.parametrize("tol", [["--tol", "1e-12"], []], ids=["tol_1e-12", "default_tol"])
    def test_the_four_integrals_print_their_pinned_results(self, capsys, monkeypatch, tol):
        # (value, err_estimate, evaluations) bit for bit, the same on every Python: each
        # tanh-sinh level is one math.fsum.  The default tol is 1e-12, and the evaluations
        # add up to README's 412, two per node pair plus the centre
        monkeypatch.delenv("BASELKIT_TOL", raising=False)
        results = {}
        for kind in IntegralKind:
            code, out, err = run_cli(capsys, "integrate", "--kind", kind.value, *tol,
                                     "--format", "json")
            assert (code, err) == (0, ""), kind
            record = json.loads(out)
            results[kind] = (record["value"], record["err_estimate"], record["evaluations"])
        assert results == {
            IntegralKind.LOG_OVER_1MT: (-1.6449340668482266, 2.6645352591003757e-15, 69),
            IntegralKind.LOG_OVER_1PT: (-0.8224670334241133, 1.8262436750051976e-16, 137),
            IntegralKind.LOG1P_OVER_T: (0.8224670334241133, 1.8262436750051976e-16, 137),
            IntegralKind.LOG1M_OVER_T: (-1.6449340668482266, 2.6645352591003757e-15, 69),
        }
        assert sum(evaluations for *_, evaluations in results.values()) == 412

    def test_riemann_and_product(self, capsys):
        code, out, _ = run_cli(capsys, "riemann", "--kind", "log_over_1mt", "--n", "2",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.log(0.5), abs=1e-15)
        code, out, _ = run_cli(capsys, "product", "--kind", "minus", "--n", "2",
                               "--format", "json")
        assert json.loads(out)["value"] == pytest.approx(math.log(0.5), abs=1e-15)

    def test_dilog_pretty_precision(self, capsys):
        code, out, _ = run_cli(capsys, "dilog", "--x", "0.5")
        assert code == 0
        # 15 significant digits in pretty mode
        assert "1.64493406684823" in out

    def test_mei_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "mei", "--x", "1.0", "--level", "4",
                               "--format", "json")
        record = json.loads(out)
        direct = bisection_report(1.0, 4)
        assert code == 0
        assert record["bisection_value"] == direct.bisection_value

    def test_series_partial_and_report(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--which", "zeta2", "--n", "3",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == "49/36"
        code, out, _ = run_cli(capsys, "series", "--which", "bernoulli", "--m-max", "6",
                               "--format", "json")
        assert json.loads(out)["terms"][0] == "1/6"

    @pytest.mark.parametrize("argv", [
        ("integrate", "--kind", "log1p_over_t"),
        ("dilog", "--x", "-0.0", "--mode", "integral"),
    ])
    def test_csv_floats_match_json(self, capsys, argv):
        # a float field prints as the same shortest round-trip text as in JSON
        _, as_json, _ = run_cli(capsys, *argv, "--format", "json")
        code, as_csv, _ = run_cli(capsys, *argv, "--format", "csv")
        record = json.loads(as_json)
        header, row = as_csv.splitlines()
        assert code == 0
        assert header.split(",") == list(record)
        floats = [(text, v) for text, v in zip(row.split(","), record.values())
                  if isinstance(v, float)]
        assert floats
        for text, value in floats:
            assert text == json.dumps(value)
            back = float(text)
            assert (back, math.copysign(1.0, back)) == (value, math.copysign(1.0, value))

    def test_env_tolerance_beaten_by_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("BASELKIT_TOL", "1e-4")
        _, coarse, _ = run_cli(capsys, "integrate", "--kind", "log_over_1mt",
                               "--format", "json")
        _, fine, _ = run_cli(capsys, "integrate", "--kind", "log_over_1mt",
                             "--format", "json", "--tol", "1e-12")
        assert json.loads(coarse)["evaluations"] < json.loads(fine)["evaluations"]


class TestVerifyCommand:
    def test_selection_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "zeta_even_exact_1",
                               "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["check_id"] == "zeta_even_exact_1"
        assert record["status"] == "pass"
        assert record["lhs"] == "1/6*pi^2"

    def test_repeated_id_prints_one_row(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite",
                                 "zeta_even_exact_1,zeta_even_exact_1", "--format", "json")
        assert code == 0
        assert len(out.splitlines()) == 1
        assert json.loads(out)["check_id"] == "zeta_even_exact_1"
        assert err == "verify: 1 checks, 0 failed\n"

    def test_list(self, capsys):
        frozen = gc.get_freeze_count()  # an in-process call leaves the collector alone
        code, out, _ = run_cli(capsys, "verify", "--list")
        assert code == 0
        assert "erratum_E1" in out.split()
        assert gc.get_freeze_count() == frozen

    def test_the_process_entry_freezes_the_import_time_heap(self):
        code = ("import gc, sys; from baselkit.cli import main; "
                "sys.argv = ['baselkit', 'verify', '--list']; exit_code = main(); "
                "print(exit_code, gc.get_freeze_count() > 0, file=sys.stderr)")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert done.stderr == "0 True\n"
        assert done.stdout == "\n".join(available_checks()) + "\n"

    def test_out_file_atomic(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out, _ = run_cli(capsys, "verify", "--suite",
                               "erratum_E1,erratum_E2,erratum_E3",
                               "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""  # written to the file instead
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["status"] == "erratum_documented" for line in lines)
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".baselkit-")]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_out_gets_the_mode_of_a_plain_write(self, capsys, tmp_path, umask):
        target, plain = tmp_path / "x.json", tmp_path / "plain.json"
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, "bernoulli", "--n", "4", "--out", str(target))
            plain.write_text("")
        finally:
            os.umask(old)
        assert code == 0
        assert target.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_pretty_table_and_tally(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "zeta_even_exact_1,erratum_E1")
        assert code == 0
        assert out.splitlines() == [
            "check              status               abs_err",
            "-" * 47,
            "erratum_E1         erratum_documented   exact",
            "zeta_even_exact_1  pass                 exact",
            "-" * 47,
            "2 checks: 1 pass, 0 fail, 1 errata documented",
        ]
        assert err == "verify: 2 checks, 0 failed\n"

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "erratum_E1",
                               "--format", "csv")
        assert out.splitlines()[0] == "check_id,status,lhs,rhs,abs_err,tol"


class TestExitCodes:
    def test_usage_error_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        assert "unknown check ids" in err

    def test_usage_error_bad_value(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli", "--n", "-1")
        assert code == 2
        assert "need n >= 0, got -1" in err

    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "bernoulli", "--frobnicate")
        assert code == 2

    def test_usage_error_missing_mode_argument(self, capsys):
        code, _, err = run_cli(capsys, "series", "--which", "zeta2")
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize(
        "argv, message",
        [(("--which", "zeta2", "--n", "5", "--m-max", "3"), "--which zeta2 does not take --m-max"),
         (("--which", "bernoulli", "--m-max", "1", "--n", "7"),
          "--which bernoulli does not take --n"),
         (("--which", "zeta2", "--n", "5", "--tol", "1e-8"), "--which zeta2 does not take --tol"),
         (("--which", "eta2", "--tol", "1e-8", "--n", "5"), "--which eta2 does not take --tol")],
        ids=["partial_sum_with_m_max", "report_with_n", "zeta2_with_tol", "eta2_with_tol"],
    )
    def test_series_rejects_the_other_modes_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "series", *argv)
        assert code == 2
        assert out == ""
        assert err == f"baselkit series: {message}\n"

    def test_series_tolerance_reaches_only_the_reports(self, capsys, monkeypatch):
        argv = ("series", "--which", "genocchi", "--m-max", "6", "--format", "json")
        code, flagged, _ = run_cli(capsys, *argv, "--tol", "1e-8")
        assert code == 0
        monkeypatch.setenv("BASELKIT_TOL", "1e-8")
        assert run_cli(capsys, *argv) == (0, flagged, "")
        for env in ("1e-8", "abc"):  # a silent default where no tolerance is read
            monkeypatch.setenv("BASELKIT_TOL", env)
            assert run_cli(capsys, "series", "--which", "eta2", "--n", "2", "--format", "json") == (
                0, '{"which":"eta2","n":2,"value":"3/4","value_float":0.75}\n', "")

    def test_accuracy_error_exits_2_with_message(self, capsys, monkeypatch):
        def no_convergence(kind, tol):
            raise AccuracyError("no convergence (injected)", QuadResult(0.0, 1.0, 3))

        monkeypatch.setattr(cli, "integrate", no_convergence)
        code, out, err = run_cli(capsys, "integrate", "--kind", "log_over_1mt")
        assert code == 2
        assert out == ""
        assert err == "baselkit integrate: no convergence (injected)\n"

    def test_dilog_at_the_edge_exits_0_at_the_finest_tol(self, capsys):
        # q = +1 is zeta(2); its old rule needed 22M terms here and exited 2
        code, out, err = run_cli(capsys, "dilog", "--x", "0.5", "--tol", "1e-15", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == 1.6449340668482264

    @pytest.mark.parametrize(
        "argv",
        [("riemann", "--kind", "log_over_1mt", "--n", str(10**12)),
         ("mei", "--x", "1", "--level", "0", "--pf-terms", str(10**12))],
        ids=["riemann", "mei_pf_terms"],
    )
    def test_term_counts_past_the_budget_exit_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "SERIES_TERM_BUDGET" in err

    @pytest.mark.parametrize("which", ["zeta2", "eta2"])
    def test_partial_sums_past_the_budget_exit_0_at_once(self, capsys, which):
        # 10^12 terms from the closed tail; no exact value past EXACT_PARTIAL_CAP.
        # The float gap is within an ulp of the tail bound, 1/n for zeta(2)
        # and 1/(n+1)^2 for eta(2)
        n = 10**12
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "series", "--which", which, "--n", str(n), "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert list(record) == ["which", "n", "value_float"]
        limit, bound = (ZETA2, 1 / n) if which == "zeta2" else (ETA2, 1 / (n + 1) ** 2)
        gap = limit - record["value_float"]
        assert 0.0 <= gap < bound + math.ulp(limit)

    def test_out_into_a_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "bernoulli", "--n", "3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"baselkit bernoulli: cannot write {target}: No such file or directory\n"

    def test_out_onto_a_directory_exits_2_and_leaves_no_temp_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "bernoulli", "--n", "3", "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"baselkit bernoulli: cannot write {tmp_path}: ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("suite", ["", ",", ",,"])
    def test_empty_suite_selection_exits_2(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite)
        assert code == 2
        assert out == ""
        assert err == f"baselkit verify: --suite {suite!r} selects no checks\n"

    def test_bad_env_tolerance_is_ignored_without_tol(self, capsys, monkeypatch):
        monkeypatch.setenv("BASELKIT_TOL", "abc")
        code, out, _ = run_cli(capsys, "bernoulli", "--n", "4", "--format", "json")
        assert code == 0
        assert out == '{"n":4,"value":"-1/30"}\n'

    def test_bad_env_tolerance_exits_2_where_tol_exists(self, capsys, monkeypatch):
        monkeypatch.setenv("BASELKIT_TOL", "abc")
        code, out, err = run_cli(capsys, "integrate", "--kind", "log_over_1mt")
        assert code == 2
        assert out == ""
        assert err == "baselkit integrate: BASELKIT_TOL must be a float, got 'abc'\n"


@pytest.fixture
def cold_exact_caches(monkeypatch):
    """Fresh B_n/G_n memo tables, as in a new baselkit process."""
    monkeypatch.setattr(exact, "_BERNOULLI", exact._SequenceCache(exact._bernoulli_prefix))
    monkeypatch.setattr(exact, "_GENOCCHI", exact._SequenceCache(exact._genocchi_prefix))


class TestValuesPastTheIntDigitLimit:
    """Exact values inside CAPACITY print even when an integer has more than 4300 digits."""

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (("genocchi", "--n", "1842"), "value", lambda: genocchi(1842)),
            (("bernoulli", "--n", "2064"), "value", lambda: bernoulli(2064)),
            (("zeta", "--even", "1100"), "coefficient", lambda: zeta_even_exact(1100).coefficient),
        ],
        ids=["genocchi_1842", "bernoulli_2064", "zeta_1100"],
    )
    def test_exact_value_prints(self, capsys, cold_exact_caches, argv, key, value):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert parse_fraction(json.loads(out)[key]) == value()

    def test_exact_partial_sum_prints(self, capsys):
        code, out, err = run_cli(capsys, "series", "--which", "zeta2", "--n", "6000",
                                 "--format", "json")
        assert code == 0, err
        record = json.loads(out)
        assert abs(float(parse_fraction(record["value"])) - record["value_float"]) < 1e-12


SUBCOMMANDS = ("bernoulli", "genocchi", "zeta", "poly", "integrate", "riemann", "product",
               "dilog", "series", "mei", "verify")


def _golden_help() -> dict[str, str]:
    """`$ baselkit ... --help` header lines, each followed by that screen at COLUMNS=80."""
    text = Path(__file__).with_name("cli_help.golden").read_text()
    return dict(block.split("\n", 1) for block in text.split("$ baselkit ")[1:])


class TestHelpScreens:
    """The parser's flags, choices, metavars, help texts and order, pinned."""

    @pytest.mark.skipif(sys.version_info >= (3, 13),
                        reason="the golden screens are argparse's layout on Python 3.10-3.12; "
                        "3.13 wraps long usage lines differently")
    @pytest.mark.parametrize("argv", [[], *([name] for name in SUBCOMMANDS)],
                             ids=["top", *SUBCOMMANDS])
    def test_help_matches_golden(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli(capsys, *argv, "--help")
        assert code == 0
        assert out == _golden_help()[" ".join([*argv, "--help"])]

    def test_parsed_defaults(self):
        parse = cli._build_parser().parse_args
        common = {"format": "pretty", "out": None}
        assert vars(parse(["mei", "--x", "1", "--level", "2"])) == {
            "command": "mei", "x": 1.0, "level": 2, "pf_terms": 10_000, **common}
        assert vars(parse(["dilog", "--x", "0.5"])) == {
            "command": "dilog", "x": 0.5, "mode": "series", "tol": None, **common}
        assert vars(parse(["series", "--which", "eta2"])) == {
            "command": "series", "which": "eta2", "n": None, "m_max": None, "tol": None, **common}
        assert vars(parse(["verify"])) == {
            "command": "verify", "suite": "all", "list": False, **common}


def _readme_cli_lines() -> list[tuple[list[str], str]]:
    """(argv after `baselkit`, trailing comment) for each line of README's `## CLI` block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "baselkit"
        lines.append((argv, comment.strip()))
    return lines


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("BASELKIT_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    examples = _readme_cli_lines()
    assert len(examples) == 13
    outputs = 0
    for argv, comment in examples:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        if comment.endswith("...}"):  # a JSON output, up to the "..."
            assert out.startswith(comment.removesuffix("...}")), argv
        elif comment.startswith("{"):
            assert out == comment + "\n", argv
        outputs += comment.startswith("{")
    assert outputs == 2
    assert (tmp_path / "report.jsonl").read_text().count("\n") == len(available_checks())
