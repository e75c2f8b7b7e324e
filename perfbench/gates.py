"""Correctness gates: every output a workload times is judged here.

The gates take plain data (bytes, strings, parsed JSON), so the benchmark's
tests can feed them tampered outputs without touching the library.
"""

from __future__ import annotations

import json
from fractions import Fraction

# The shipped report: at least this many rows (a later check may add rows),
# no failed row, and exactly the three documented errata E1-E3.
SUITE_MIN_CHECKS = 59
SUITE_ERRATA = ("erratum_E1", "erratum_E2", "erratum_E3")


class Tally:
    """Outputs checked, outputs failed, and outputs of known-defect cases
    that missed their bound (counted apart so they never hide a new failure)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.failures: list[str] = []

    def add(self, ok: bool, label: str, known_defect: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        if known_defect:
            self.known += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)

    @property
    def pass_ratio(self) -> float:
        return (self.attempted - self.failed - self.known) / self.attempted


def suite_report(code: int, stdout: bytes, stderr: bytes, reference: bytes | None) -> list[tuple[bool, str]]:
    """Checks of one `verify --suite all --format json` process."""
    checks = [(code == 0, f"suite exit code {code}")]
    try:
        rows = [json.loads(line) for line in stdout.decode().splitlines()]
        statuses = [row["status"] for row in rows]
        errata = sorted(row["check_id"] for row in rows if row["status"] == "erratum_documented")
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        return checks + [(False, "suite report is not one JSON object per line")]
    passed = statuses.count("pass")
    checks.append((
        len(rows) >= SUITE_MIN_CHECKS
        and passed + len(errata) == len(rows)
        and tuple(errata) == SUITE_ERRATA,
        f"suite rows {passed}/{statuses.count('fail')}/{len(errata)} pass/fail/erratum",
    ))
    tally_line = f"verify: {len(rows)} checks, 0 failed"
    checks.append((tally_line in stderr.decode(errors="replace").splitlines(), "suite stderr tally"))
    if reference is not None:
        checks.append((stdout == reference, "suite report bytes differ from the warm-up op"))
    return checks


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def staudt_clausen_denominator(n: int) -> int:
    """Denominator of B_n for even n >= 2: the product of primes p with (p-1) | n."""
    out = 1
    for d in range(1, n + 1):
        if n % d == 0 and _is_prime(d + 1):
            out *= d + 1
    return out


def exact_values(record: dict) -> list[tuple[bool, str]]:
    """Checks of one `exact_cold` child record (n, B_n, G_n, zeta signs)."""
    try:
        n = int(record["n"])
        b = Fraction(record["bernoulli"])
        g = Fraction(record["genocchi"])
        positive, total = int(record["zeta_positive"]), int(record["zeta_count"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return [(False, "exact_cold record is malformed")]
    return [
        (g == -(2**n - 1) * b, f"G_{n} != -(2^{n}-1) B_{n}"),
        (b.denominator == staudt_clausen_denominator(n), f"denominator of B_{n}"),
        (b != 0 and (b > 0) == ((n // 2) % 2 == 1), f"sign of B_{n}"),
        (total == n // 2 and positive == total, f"zeta(2k) coefficients positive for k <= {n // 2}"),
    ]


def cli_output(code: int, stdout: str, expected: str, as_json: bool) -> list[tuple[bool, str]]:
    """Checks of one CLI process against the library's in-process result."""
    if as_json:
        try:
            same = json.loads(stdout) == json.loads(expected)
        except ValueError:
            same = False
    else:
        same = stdout == expected
    return [(code == 0 and same, "cli output differs from the in-process result")]
