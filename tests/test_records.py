"""The six frozen records behave as the ``@dataclass(frozen=True)`` classes
they replace: each is compared with a ``dataclasses.make_dataclass`` twin
built from the same annotations and defaults."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from baselkit.exact import CapacityError, PiPower
from baselkit.polynomials import Certificate
from baselkit.quadrature import QuadResult
from baselkit.series import BisectionReport, SeriesReport
from baselkit.verify import CheckResult

# (record, positional arguments, arguments of an unequal record)
RECORDS = [
    (PiPower, (Fraction(1, 6), 2), (Fraction(1, 90), 4)),
    (Certificate, ("reflection_n3", False, "coefficient 1: lhs=1 rhs=2", 1),
     ("reflection_n3", True)),
    (QuadResult, (-1.6449340668482266, 2.886579864025407e-15, 69),
     (-1.6449340668482266, 2.886579864025407e-15, 70)),
    (BisectionReport, (1.0, 3, 100), (1.0, 4, 100)),
    (SeriesReport, ("bernoulli", (Fraction(1, 6), Fraction(-1, 30)),
                    (Fraction(1, 6), Fraction(2, 15)), 1, 0.16, 0.15, 0.1),
     ("genocchi", (Fraction(1, 2),), (Fraction(1, 2),), 0, 0.5, 0.5, 0.5)),
    (CheckResult, ("integral_log_over_1mt", "pass", "-1.64", "-pi^2/6", 0.0, 1e-12, 3),
     ("integral_log_over_1mt", "pass", "-1.64", "-pi^2/6", 0.0, 1e-12, 4)),
]


def _twin(record: type) -> type:
    """The frozen dataclass with the record's declared fields and defaults."""
    declared = vars(record)
    fields = [(name, kind, dataclasses.field(default=declared[name])) if name in declared
              else (name, kind) for name, kind in record.__annotations__.items()]
    return dataclasses.make_dataclass(record.__name__, fields, frozen=True)


def _error(build) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        build()
    return info.type, str(info.value)


@pytest.mark.parametrize(("record", "args", "other_args"), RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_records_behave_as_frozen_dataclasses(record, args, other_args):
    twin = _twin(record)
    names = tuple(record.__annotations__)
    value, mirror = record(*args), twin(*args)
    other = record(*other_args)

    assert record.__match_args__ == twin.__match_args__ == names
    assert repr(value) == repr(mirror)
    assert repr(other) == repr(twin(*other_args))
    assert vars(value) == vars(mirror)
    assert hash(value) == hash(mirror) == hash(record(*args))
    assert value == record(*args) and not value != record(*args)
    assert value != other and not value == other
    # another class never compares equal, a subclass and the tuple of the fields included
    assert value != mirror and value != args and value != list(args)
    assert value != type("Sub", (record,), {})(*args)
    with pytest.raises(TypeError):
        iter(value)
    assert record(**dict(zip(names, args))) == value

    # TypeError on arity or an unknown keyword, with the dataclass's message
    for bad in ((), args + (None,)):
        assert _error(lambda: record(*bad)) == _error(lambda: twin(*bad))
    assert _error(lambda: record(*args, bogus=1)) == _error(lambda: twin(*args, bogus=1))
    assert _error(lambda: record(*args[:1], **{names[0]: args[0]})) == \
        _error(lambda: twin(*args[:1], **{names[0]: args[0]}))

    # AttributeError on assignment and deletion, fields or not, with the same message
    for name in (names[0], "bogus"):
        for change in (lambda obj: setattr(obj, name, 0), lambda obj: delattr(obj, name)):
            kind, message = _error(lambda: change(value))
            assert issubclass(kind, AttributeError) and message == _error(lambda: change(mirror))[1]
    assert vars(value) == vars(mirror)

    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is record and copied == value and repr(copied) == repr(value)
        assert hash(copied) == hash(value)


@pytest.mark.parametrize(("record", "args"), [row[:2] for row in RECORDS],
                         ids=[row[0].__name__ for row in RECORDS])
def test_records_take_no_more_memory_than_the_dataclass(record, args):
    # a record that wrote its fields through self.__dict__ would lose CPython's
    # compact attribute storage, about 64 more bytes each
    def allocated(build) -> int:
        tracemalloc.start()
        try:
            records = [build(*args) for _ in range(1000)]
            return tracemalloc.get_traced_memory()[0] // len(records)
        finally:
            tracemalloc.stop()

    assert allocated(record) <= allocated(_twin(record))


def test_defaults_are_those_of_the_dataclass():
    certificate = Certificate("x", True)
    assert certificate.detail == "" and certificate.first_mismatch is None
    assert repr(certificate) == repr(_twin(Certificate)("x", True))
    assert Certificate.detail == "" and Certificate.first_mismatch is None


@pytest.mark.parametrize(("build", "error", "message"), [
    (lambda: PiPower(Fraction(1), 3), ValueError, "exponent must be even, got 3"),
    (lambda: BisectionReport(4.0, 3, 10), ValueError,
     "x must lie in (0, pi) away from the poles, got 4.0"),
    (lambda: BisectionReport(0.0, 3, 10), ValueError,
     "x must lie in (0, pi) away from the poles, got 0.0"),
    (lambda: BisectionReport(1.0, 21, 10), CapacityError, "need level <= 20, got 21"),
    (lambda: BisectionReport(1.0, 3, 0), ValueError, "need pf_terms >= 1, got 0"),
], ids=["pi_power_odd", "bisection_x_above_pi", "bisection_x_zero", "bisection_level_21",
        "bisection_pf_terms_0"])
def test_validation_errors_are_unchanged(build, error, message):
    assert _error(build) == (error, message)
