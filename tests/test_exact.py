"""Exact sequence values, cross relations, and serialization."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baselkit import exact
from baselkit.exact import (
    CapacityError,
    PiPower,
    bernoulli,
    bernoulli_from_genocchi,
    fraction_str,
    genocchi,
    genocchi_from_bernoulli,
    parse_fraction,
    rectified_even_bernoulli,
    signed_factorial_integral,
    term_log_integral,
    zeta_even_exact,
)

from oracles import (
    _grow_bernoulli,
    _grow_genocchi,
    akiyama_tanigawa_bernoulli,
    binomial_recursion,
    genocchi_via_relation,
    zeta_even_coefficient,
)


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        # frozen from the Akiyama-Tanigawa oracle
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_against_triangle_oracle(self):
        oracle = akiyama_tanigawa_bernoulli(60)
        for n in range(61):
            assert bernoulli(n) == oracle[n], f"B_{n} mismatch"

    def test_odd_vanish(self):
        for n in range(1, 60):
            assert bernoulli(2 * n + 1) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            bernoulli(exact.CAPACITY + 1)


class TestGenocchi:
    def test_first_values(self):
        assert genocchi(0) == 0
        # defining constraint 2*G_1 + G_0 = 1 forces +1/2 (erratum E1 territory)
        assert genocchi(1) == Fraction(1, 2)
        assert genocchi(2) == Fraction(-1, 2)
        assert genocchi(4) == Fraction(1, 2)
        assert genocchi(5) == 0

    def test_against_relation_oracle(self):
        oracle = genocchi_via_relation(60)
        for n in range(61):
            assert genocchi(n) == oracle[n], f"G_{n} mismatch"

    def test_odd_vanish(self):
        for n in range(1, 60):
            assert genocchi(2 * n + 1) == 0


class TestIntegerEngines:
    """Tangent numbers (B_n) and Gandhi polynomials (G_n) against Fraction oracles."""

    def test_match_the_binomial_recursions_to_300(self):
        want_b = binomial_recursion(_grow_bernoulli, 300)
        want_g = binomial_recursion(_grow_genocchi, 300)
        for n in range(301):
            assert bernoulli(n) == want_b[n], f"B_{n} mismatch"
            assert genocchi(n) == want_g[n], f"G_{n} mismatch"

    def test_match_akiyama_tanigawa_to_300(self):
        want_b = akiyama_tanigawa_bernoulli(300)
        for n in range(301):
            assert bernoulli(n) == want_b[n], f"B_{n} mismatch"
            assert genocchi(n) == -(2**n - 1) * want_b[n], f"G_{n} mismatch"

    def test_every_prefix_length(self):
        # odd and even ends, including the hand-seeded entries 0..3
        want_b = binomial_recursion(_grow_bernoulli, 40)
        want_g = binomial_recursion(_grow_genocchi, 40)
        for n in range(41):
            assert exact._bernoulli_prefix(n) == want_b[: n + 1]
            assert exact._genocchi_prefix(n) == want_g[: n + 1]

    def test_values_at_1000_are_pinned(self):
        # sha256 of the values the Fraction recursions produced
        digest = {
            "B": "ab523c98c5cacf8a97ddbbb6d4ac4476739a343c134f0cc53136343257a0d69f",
            "G": "0a6f4d9fe57e5fd0ab004312caf3c0dbf5519b6234e62b5a02301a0c6c84eea0",
        }
        for name, value in (("B", bernoulli(1000)), ("G", genocchi(1000))):
            assert hashlib.sha256(fraction_str(value).encode()).hexdigest() == digest[name]


def _counting(prefix, calls):
    def wrapped(n):
        calls.append(n)
        return prefix(n)

    return wrapped


@pytest.fixture
def cold_caches(monkeypatch):
    """Fresh memo tables for B_n and G_n whose prefix calls are recorded."""
    calls = {"B": [], "G": []}
    monkeypatch.setattr(
        exact, "_BERNOULLI", exact._SequenceCache(_counting(exact._bernoulli_prefix, calls["B"]))
    )
    monkeypatch.setattr(
        exact, "_GENOCCHI", exact._SequenceCache(_counting(exact._genocchi_prefix, calls["G"]))
    )
    return calls


class TestMemoGrowth:
    def test_ascending_scan_costs_few_prefix_calls(self, cold_caches):
        want = exact._bernoulli_prefix(600)
        for n in range(601):
            assert bernoulli(n) == want[n]
        assert len(cold_caches["B"]) <= math.ceil(math.log2(600)) + 2

    def test_miss_grows_to_twice_the_table_capped_at_capacity(self, cold_caches, monkeypatch):
        monkeypatch.setattr(exact, "CAPACITY", 30)
        bernoulli(10)
        bernoulli(11)
        bernoulli(23)
        bernoulli(30)
        assert cold_caches["B"] == [10, 22, 30]

    def test_published_list_is_never_mutated(self, cold_caches):
        bernoulli(20)
        published = exact._BERNOULLI._values
        frozen = list(published)
        bernoulli(200)
        assert published == frozen and len(published) == 21
        assert exact._BERNOULLI._values is not published

    def test_capacity_error_before_any_work(self, cold_caches):
        with pytest.raises(CapacityError):
            bernoulli(exact.CAPACITY + 1)
        with pytest.raises(CapacityError):
            genocchi(exact.CAPACITY + 1)
        for index in (3.0, 2.5, math.nan, True):  # refused by the same gate, before the table
            with pytest.raises(ValueError):
                bernoulli(index)
            with pytest.raises(ValueError):
                genocchi(index)
        assert cold_caches == {"B": [], "G": []}

    def test_threads_on_a_cold_cache_match_a_serial_run(self, cold_caches):
        indices = list(range(401)) * 2
        random.Random(1842).shuffle(indices)
        serial_b = exact._bernoulli_prefix(400)
        serial_g = exact._genocchi_prefix(400)

        def task(n):
            return n, bernoulli(n), genocchi(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(task, indices, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(indices)
        for n, b, g in results:
            assert b == serial_b[n] and g == serial_g[n], n

    def test_simultaneous_misses_grow_the_table_once(self, monkeypatch):
        calls = []

        def slow_prefix(n):
            time.sleep(0.05)  # keep the window open while the other threads miss
            return exact._bernoulli_prefix(n)

        monkeypatch.setattr(exact, "_BERNOULLI", exact._SequenceCache(_counting(slow_prefix, calls)))
        barrier = threading.Barrier(8)

        def task(_):
            barrier.wait(timeout=30)
            return bernoulli(100)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(task, range(8), timeout=60))
        assert calls == [100]
        assert results == [results[0]] * 8


class TestCrossRelations:
    def test_relation_holds_everywhere(self):
        # G_n = -(2^n - 1) B_n exactly for every index up to 200
        for n in range(201):
            assert genocchi(n) == -(2**n - 1) * bernoulli(n)

    def test_genocchi_from_bernoulli(self):
        assert genocchi_from_bernoulli(1) == Fraction(1, 2)
        assert genocchi_from_bernoulli(2) == Fraction(-1, 2)
        for n in range(201):
            assert genocchi_from_bernoulli(n) == genocchi(n)

    def test_bernoulli_from_genocchi(self):
        assert bernoulli_from_genocchi(4) == Fraction(-1, 30)
        for n in range(1, 201):
            assert bernoulli_from_genocchi(n) == bernoulli(n)

    def test_bernoulli_from_genocchi_rejects_zero(self):
        with pytest.raises(ValueError):
            bernoulli_from_genocchi(0)

    @given(n=st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_relation_property(self, n):
        assert genocchi(n) == -(2**n - 1) * bernoulli(n)


class TestRectifiedSequences:
    def test_values(self):
        assert rectified_even_bernoulli(1) == Fraction(1, 6)
        assert rectified_even_bernoulli(2) == Fraction(1, 30)

    def test_positivity(self):
        for n in range(1, 61):
            assert rectified_even_bernoulli(n) > 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rectified_even_bernoulli(0)


class TestZetaEvenExact:
    def test_basel_value(self):
        z2 = zeta_even_exact(1)
        assert z2.coefficient == Fraction(1, 6)
        assert z2.exponent == 2

    def test_small_values(self):
        assert zeta_even_exact(2).coefficient == Fraction(1, 90)
        assert zeta_even_exact(3).coefficient == Fraction(1, 945)

    def test_against_oracle(self):
        for n in range(1, 31):
            got = zeta_even_exact(n)
            assert got.coefficient == zeta_even_coefficient(n)
            assert got.exponent == 2 * n
            assert got.coefficient > 0

    def test_float_view(self):
        # pi^2/6 correctly rounded; rounding pi^2 and 1/6 separately gives ...262
        assert zeta_even_exact(1).to_float() == 1.6449340668482264

    def test_float_view_past_the_binary64_range_of_pi_powers(self):
        # 1/pi^620 is subnormal and pi^622 overflows; zeta(2n) itself tends to 1
        for n in (309, 310, 311, 400):
            assert zeta_even_exact(n).to_float() == pytest.approx(1.0, abs=1e-12)

    def test_pi_power_validation(self):
        with pytest.raises(ValueError):
            PiPower(Fraction(1), 3)
        with pytest.raises(ValueError):
            PiPower(Fraction(1), -2)


class TestAuxiliaryIntegrals:
    def test_term_log_integral(self):
        assert term_log_integral(0) == -1
        assert term_log_integral(1) == Fraction(-1, 4)
        assert term_log_integral(9) == Fraction(-1, 100)

    def test_term_log_integral_vs_quadrature(self):
        # mpmath's tanh-sinh at 30 digits, which takes the log singularity at t = 0
        for n in range(21):
            with mpmath.workdps(30):
                numeric, err = mpmath.quad(lambda t: t**n * mpmath.log(t), [0, 1], error=True)
            assert err <= 1e-20
            assert abs(float(term_log_integral(n)) - numeric) < 1e-12

    def test_signed_factorial(self):
        assert signed_factorial_integral(0) == 1
        assert signed_factorial_integral(1) == -1
        assert signed_factorial_integral(4) == 24

    def test_signed_factorial_vs_quadrature(self):
        for k in range(7):
            with mpmath.workdps(30):
                numeric, err = mpmath.quad(lambda s: s**k * mpmath.exp(s), [-mpmath.inf, 0],
                                           error=True)
            assert err <= 1e-20
            assert abs(float(signed_factorial_integral(k)) - numeric) < 1e-9


class TestSerialization:
    def test_fraction_round_trip(self):
        for q in [Fraction(-691, 2730), Fraction(5), Fraction(0), Fraction(1, 2)]:
            assert parse_fraction(fraction_str(q)) == q

    def test_integer_form(self):
        assert fraction_str(Fraction(24)) == "24"
        assert fraction_str(Fraction(-1, 2)) == "-1/2"

    def test_round_trip_past_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        g = genocchi(1842)  # the first G_n whose numerator has more than 4300 digits
        assert abs(g.numerator) > 10**4300
        assert parse_fraction(fraction_str(g)) == g
        big = Fraction(-(10**5000), 7)
        assert fraction_str(big) == "-1" + "0" * 5000 + "/7"
        assert parse_fraction(fraction_str(big)) == big
        assert parse_fraction("3/" + "1" * 5000) == Fraction(3, (10**5000 - 1) // 9)
        assert sys.get_int_max_str_digits() == limit

    def test_malformed_text_still_rejected(self):
        for text in ("1/x", "", "1" * 5000 + "x", "1" * 5000 + "/2/3", "1/0", "1/" + "0" * 5000):
            with pytest.raises(ValueError):
                parse_fraction(text)

    def test_pi_power_json(self):
        blob = json.dumps(zeta_even_exact(2).to_json())
        assert json.loads(blob) == {"coefficient": "1/90", "pi_exponent": 4}


def test_concurrent_readers_get_identical_values():
    # hammer a cold-ish region of the cache from many threads
    def task(_):
        return [bernoulli(140), genocchi(140)]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(task, range(32)))
    assert all(r == results[0] for r in results)
    assert results[0][1] == -(2**140 - 1) * results[0][0]
