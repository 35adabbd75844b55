"""Tests for the pinned verification suites.

Expected record counts are frozen from the pinned parameter tables:

* construction: 3 sets x 5 families                          -> 15
* eigen: 3x3 chihara_D + 3 cbi_K + 3x3 gegenbauer_W
         + 3 gegenbauer_Q + 3x3 y_Z + 3x3x2 gh operators     -> 51
* algebra: (3 chihara + 3 ext_hermite) sets x 2 eps          -> 12
* jacobi: 3 sets                                             -> 3
* orthogonality: 8 Gram families + 2 reduction oracles       -> 10
* norms: 8 families x (float ratio + exact identity)         -> 16
* pearson: 5 tuples x (exact equation + reflection samples)  -> 10
* transform: 3 sets x 4 checks                               -> 12
* limits: 3 contractions + constant-stability                -> 4
* negative-controls: perturbed operator + perturbed ratio    -> 2
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from dunklpoly.families import FAMILIES, chihara_family
from dunklpoly.report import FIELD_NAMES, emit, parse, stopwatch, worst_outcome
from dunklpoly.suites import (
    ALL_SUITES,
    SUITE_NAMES,
    algebra_records,
    pearson_records,
    run_suites,
    suite_jacobi,
)

EXPECTED_COUNTS = {
    "construction": 15,
    "eigen": 51,
    "algebra": 12,
    "jacobi": 3,
    "orthogonality": 10,
    "norms": 16,
    "pearson": 10,
    "transform": 12,
    "limits": 4,
    "negative-controls": 2,
}

ALL_EXACT = {"construction", "eigen", "algebra", "jacobi", "transform", "negative-controls"}
ALL_FLOAT = {"orthogonality", "limits"}


@pytest.fixture(scope="module")
def all_records():
    return {name: fn() for name, fn in ALL_SUITES.items()}


# -- every pinned suite is green -------------------------------------------------


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_is_green(all_records, name):
    records = all_records[name]
    assert records, f"suite {name} produced no records"
    failures = [r for r in records if r.outcome == "fail"]
    assert not failures, f"suite {name} failed: {failures[0]}"


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_record_counts(all_records, name):
    assert len(all_records[name]) == EXPECTED_COUNTS[name]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_records_carry_their_suite_name(all_records, name):
    assert all(r.suite == name for r in all_records[name])


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_millis_nonnegative(all_records, name):
    assert all(r.millis >= 0.0 for r in all_records[name])


def test_outcome_kinds(all_records):
    for name in ALL_EXACT:
        assert {r.outcome for r in all_records[name]} == {"exact_pass"}
    for name in ALL_FLOAT:
        assert {r.outcome for r in all_records[name]} == {"float_pass"}
    # Mixed suites pair one exact check with one float check per instance.
    assert worst_outcome(all_records["norms"]) == "float_pass"
    assert worst_outcome(all_records["pearson"]) == "float_pass"
    assert sum(r.outcome == "exact_pass" for r in all_records["norms"]) == 8
    assert sum(r.outcome == "exact_pass" for r in all_records["pearson"]) == 5


# -- spot checks on record content -----------------------------------------------


def test_construction_degree_caps(all_records):
    by_target = {}
    for record in all_records["construction"]:
        by_target.setdefault(record.target, set()).add(record.degrees)
    assert by_target["chihara"] == {"0..16"}
    assert by_target["cbi"] == {"0..12"}
    assert by_target["gen_hermite"] == {"0..16"}


def test_eigen_sweeps_cover_reflection_weights(all_records):
    chihara = [r for r in all_records["eigen"] if r.target == "chihara_D"]
    assert len(chihara) == 9
    suffixes = {r.params.rsplit(",eps=", 1)[1] for r in chihara}
    assert suffixes == {"0", "2/3", "5"}
    gaussians = [r for r in all_records["eigen"] if r.target == "gh_OmegaTilde"]
    assert {r.degrees for r in gaussians} == {"0..12"}


def test_limit_orders_near_one(all_records):
    by_target = {r.target: r for r in all_records["limits"]}
    for case in ("cbi_h_to_0", "bigq_q_to_minus1", "chihara_beta_to_inf"):
        assert float(by_target[case].residual) < 0.01, case
        assert by_target[case].tolerance == repr(0.2)
    assert float(by_target["beta-constant-stability"].residual) < 0.05


def test_negative_controls_detect(all_records):
    targets = {r.target for r in all_records["negative-controls"]}
    assert targets == {"perturbed-eigen-operator", "perturbed-transform-ratio"}
    assert all(r.outcome == "exact_pass" for r in all_records["negative-controls"])


@pytest.mark.parametrize("bad, residual", [
    (1, "even half fails at n=1"),
    (2, "odd half fails at n=1"),
    (3, "even half fails at n=2"),
    (4, "odd half fails at n=2"),
])
def test_jacobi_suite_detects_corrupted_sub(monkeypatch, bad, residual):
    # sub(bad) + 1 first corrupts P_(bad+1); the Jacobi side reads the
    # reduced weight of the same entry, which the patch leaves alone
    chihara = FAMILIES["chihara"]
    monkeypatch.setitem(FAMILIES, "chihara", chihara._replace(
        sub=lambda p, n: chihara.sub(p, n) + (1 if n == bad else 0)))
    records = suite_jacobi()
    assert [(r.outcome, r.residual) for r in records] == [("fail", residual)] * 3


def test_records_match_golden_digest(all_records):
    # perfbench/golden.json pins the digest of ``suite --all`` records with
    # the wall time removed; any change to a pinned record shows here.
    rows = [{name: getattr(r, name) for name in FIELD_NAMES if name != "millis"}
            for batch in all_records.values() for r in batch]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    expected = json.loads(golden.read_text())["pinned-suite"][0]
    assert len(rows) == sum(EXPECTED_COUNTS.values())
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_records_serialize_round_trip(all_records):
    records = [r for batch in all_records.values() for r in batch]
    assert parse(emit(records, "json"), "json") == records
    assert parse(emit(records, "csv"), "csv") == records


# -- runner behaviour --------------------------------------------------------------


def test_run_suites_subset_preserves_requested_order():
    records = run_suites(names=["jacobi", "construction"])
    suites_seen = [r.suite for r in records]
    assert suites_seen == ["jacobi"] * 3 + ["construction"] * 15


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(names=["construction", "nonsense"])


def test_registry_order_is_criteria_order():
    assert SUITE_NAMES == (
        "construction",
        "eigen",
        "algebra",
        "jacobi",
        "orthogonality",
        "norms",
        "pearson",
        "transform",
        "limits",
        "negative-controls",
    )


def test_algebra_records_time_each_relation():
    # each relation is timed on its own, not given a share of the whole call
    params = {"mu": F(3, 2), "gamma": F(1, 2), "eps": F(2, 3)}
    with stopwatch() as ms:
        records = algebra_records("ext_hermite", 6, params)
    assert len(records) == 6
    assert all(r.millis > 0 for r in records)
    assert len({r.millis for r in records}) > 1
    assert sum(r.millis for r in records) <= ms[0]


def test_pearson_records_time_each_condition():
    # the weight equation and the reflection samples are timed on their own,
    # not given half each of the whole call
    with stopwatch() as ms:
        records = pearson_records(chihara_family(1, 2, F(1, 3)), samples=200)
    assert [r.target for r in records] == ["weight-equation", "reflection-samples"]
    assert all(r.millis > 0 for r in records)
    assert records[0].millis != records[1].millis
    assert sum(r.millis for r in records) <= ms[0]
