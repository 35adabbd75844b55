"""Tests for the verification-record schema and its JSON/CSV serialization."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dunklpoly.report import (
    FIELD_NAMES,
    VerificationRecord,
    emit,
    exact_record,
    float_record,
    format_params,
    parse,
    rational_str,
    stopwatch,
)


def test_empty_list_json():
    assert emit([], "json") == b"[]"


def test_exact_pass_schema_instance():
    record = exact_record("eigen", "chihara", "alpha=1,beta=1,gamma=1/2", "0..16")
    rows = json.loads(emit([record], "json"))
    assert rows == [
        {
            "suite": "eigen",
            "target": "chihara",
            "params": "alpha=1,beta=1,gamma=1/2",
            "degrees": "0..16",
            "outcome": "exact_pass",
            "residual": "0",
            "tolerance": "exact",
            "millis": 0.0,
        }
    ]


def _mixed_records():
    return [
        exact_record("eigen", "chihara", "alpha=1,beta=1,gamma=1/2", "0..16", 1.25),
        float_record("gram", "gegenbauer", "alpha=1,beta=1", "0..12", 3e-15, 1e-10, 8.5),
        float_record("gram", "ext_hermite", "mu=3/2,gamma=1/2", "0..12", 2e-9, 1e-10, 9.0),
    ]


def test_csv_row_count_and_header():
    blob = emit(_mixed_records(), "csv").decode()
    lines = blob.splitlines()
    assert len(lines) == 4
    assert lines[0] == ",".join(FIELD_NAMES)


def test_mixed_outcomes():
    records = _mixed_records()
    assert [r.outcome for r in records] == ["exact_pass", "float_pass", "fail"]


@pytest.mark.parametrize("format", ["json", "csv"])
def test_round_trip_fixed(format):
    records = _mixed_records()
    assert parse(emit(records, format), format) == records


def test_rational_strings_lossless():
    assert rational_str(F(3, 4)) == "3/4"
    assert rational_str(F(-3, 4)) == "-3/4"
    assert rational_str(5) == "5"
    assert rational_str(F(10, 5)) == "2"
    assert format_params((("alpha", F(1)), ("gamma", F(-2, 7)))) == "alpha=1,gamma=-2/7"


@given(st.fractions(max_denominator=10**9))
def test_rational_round_trip(value):
    assert F(rational_str(value)) == value


def test_exact_pass_requires_zero_residual():
    with pytest.raises(ValueError):
        VerificationRecord("s", "t", "p", "0..4", "exact_pass", "0.1", "exact", 0.0)
    with pytest.raises(ValueError):
        VerificationRecord("s", "t", "p", "0..4", "exact_pass", "0", "1e-10", 0.0)


def test_exact_fail_requires_nonzero_residual():
    with pytest.raises(ValueError, match="nonzero residual"):
        VerificationRecord("s", "t", "p", "0..4", "fail", "0", "exact", 0.0)
    row = ('[{"suite": "s", "target": "t", "params": "p", "degrees": "0..4", '
           '"outcome": "fail", "residual": "0", "tolerance": "exact", "millis": 0.0}]')
    with pytest.raises(ValueError, match="nonzero residual"):
        parse(row)
    # a float fail may read "0" against any tolerance text
    VerificationRecord("s", "t", "p", "0..4", "fail", "0", "x", 0.0)


def test_float_pass_requires_residual_within_tolerance():
    with pytest.raises(ValueError):
        VerificationRecord("s", "t", "p", "0..4", "float_pass", "2e-10", "1e-10", 0.0)


def test_unknown_outcome_rejected():
    with pytest.raises(ValueError):
        VerificationRecord("s", "t", "p", "0..4", "passed", "0", "exact", 0.0)


def test_negative_wall_time_rejected():
    with pytest.raises(ValueError):
        exact_record("s", "t", "p", "0..4", millis=-1.0)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit([], "yaml")
    with pytest.raises(ValueError):
        parse(b"[]", "yaml")


def test_float_record_outcome_split():
    ok = float_record("s", "t", "p", "0..4", 1e-12, 1e-10)
    bad = float_record("s", "t", "p", "0..4", 1e-8, 1e-10)
    assert ok.outcome == "float_pass"
    assert bad.outcome == "fail"
    assert float(bad.residual) == 1e-8


def test_failed_exact_record_carries_residual():
    record = exact_record("s", "t", "p", "0..4", residual="1/2")
    assert record.outcome == "fail"
    assert record.residual == "1/2"
    assert record.tolerance == "exact"


def test_exact_record_passes_exactly_on_zero_residual():
    # millis keeps its place, so a positional wall time still means millis
    assert exact_record("s", "t", "p", "0..4", 2.5, "0") == VerificationRecord(
        "s", "t", "p", "0..4", "exact_pass", "0", "exact", 2.5)
    for residual in ("nonzero", "not a polynomial", "undetected", "", "0.0"):
        record = exact_record("s", "t", "p", "0..4", 2.5, residual)
        assert (record.outcome, record.residual, record.millis) == ("fail", residual, 2.5)


def test_stopwatch_measures_nonnegative_millis():
    with stopwatch() as box:
        sum(range(1000))
    assert box[0] >= 0.0


_suites = st.sampled_from(["eigen", "gram", "norms", "pearson", "transform", "limits"])
_rationals = st.fractions(min_value=F(-5), max_value=F(5), max_denominator=12)


@st.composite
def _records(draw):
    suite = draw(_suites)
    target = draw(st.sampled_from(["chihara", "gegenbauer", "ext_hermite"]))
    params = format_params(
        [("alpha", draw(_rationals)), ("gamma", draw(_rationals))]
    )
    degrees = f"0..{draw(st.integers(min_value=1, max_value=30))}"
    millis = draw(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return exact_record(suite, target, params, degrees, millis)
    residual = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    tolerance = draw(st.floats(min_value=1e-12, max_value=1.0, allow_nan=False))
    return float_record(suite, target, params, degrees, residual, tolerance, millis)


@given(st.lists(_records(), max_size=8), st.sampled_from(["json", "csv"]))
def test_round_trip_property(records, format):
    assert parse(emit(records, format), format) == records


# -- the JSON writer ----------------------------------------------------------
# ``emit`` lays the JSON array out itself; its bytes must be those of
# ``json.dumps(rows, indent=2)`` on every record, whatever its text holds.

_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é ☃ 𝄞", " ", ""])
_millis = st.floats(min_value=0.0) | st.integers(0, 10**20) | st.sampled_from(
    [0.0, float("inf"), float("nan"), 5e-324, 1e16, 0])


@st.composite
def _any_records(draw):
    text = [draw(_texts) for _ in range(6)]
    assume(text[4:] != ["0", "exact"])   # the one self-contradictory fail
    return VerificationRecord(*text[:4], "fail", *text[4:], draw(_millis))


def _dumped(records):
    rows = [{name: getattr(r, name) for name in FIELD_NAMES} for r in records]
    return json.dumps(rows, indent=2).encode()


@given(st.lists(_any_records(), max_size=6))
def test_json_writer_matches_json_dumps(records):
    assert emit(records, "json") == _dumped(records)


@given(st.lists(_records(), max_size=8))
def test_json_writer_matches_json_dumps_on_checks(records):
    assert emit(records, "json") == _dumped(records)


def test_json_writer_edge_values():
    records = [VerificationRecord('a"b\\c\x01é', "t", "p", "d", "fail", "r", "x", m)
               for m in (0.0, float("inf"), float("nan"), 7, 1e-7)]
    blob = emit(records, "json")
    assert blob == _dumped(records)
    assert b'"millis": Infinity' in blob and b'"millis": NaN' in blob
    assert b'"millis": 7\n' in blob
    assert b'"suite": "a\\"b\\\\c\\u0001\\u00e9"' in blob
    assert emit([], "json") == _dumped([]) == b"[]"
