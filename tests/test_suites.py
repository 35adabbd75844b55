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

import ast
import collections
import hashlib
import importlib
import inspect
import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from dunklpoly import cli, dunklop, quad, suites
from dunklpoly.dunklop import ALGEBRAS, EIGEN_OPERATORS
from dunklpoly.exactnum import RatFunc
from dunklpoly.families import FAMILIES, chihara_family, gegenbauer_family
from dunklpoly.report import (
    FIELD_NAMES,
    emit,
    format_params,
    parse,
    stopwatch,
)
from dunklpoly.suites import (
    ALL_SUITES,
    SUITE_NAMES,
    RunMemo,
    algebra_records,
    gram_records,
    pearson_records,
    run_suites,
    suite_construction,
    suite_jacobi,
    transform_records,
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
    return {name: fn(RunMemo()) for name, fn in ALL_SUITES.items()}


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
    assert {r.outcome for r in all_records["norms"]} == {"exact_pass", "float_pass"}
    assert {r.outcome for r in all_records["pearson"]} == {"exact_pass", "float_pass"}
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
        sub=lambda m, odd, p: chihara.sub(m, odd, p) + (1 if 2 * m + odd == bad else 0)))
    records = suite_jacobi(RunMemo())
    assert [(r.outcome, r.residual) for r in records] == [("fail", residual)] * 3


def _plus_one(check):
    return lambda *args: check(*args) + 1


def _each_plus_one(check):
    return lambda *args: [value + 1 for value in check(*args)]


def _moved_recurrence(tag, k, which):
    """A copy of the CLASSICAL table whose ``tag`` recurrence has its diag
    (``which`` 0) or sub (1) at index k moved by 1/1000."""
    def corrupt(table):
        recurrence = table[tag].recurrence

        def moved(*args):
            pair = list(recurrence(*args))
            pair[which] += F(args[-1] == k, 1000)
            return tuple(pair)

        return {**table, tag: table[tag]._replace(recurrence=moved)}
    return corrupt


@pytest.mark.parametrize("name, corrupt, suite, target, residual", [
    ("explicit_poly", _plus_one, "construction", "", "nonzero"),
    # the exact norms check reads suites.CLASSICAL, the Gauss rules of the
    # float norms records the table itself, which the copy leaves alone
    ("CLASSICAL", _moved_recurrence("jacobi", 3, 1), "norms",
     ("chihara-ratio-identity", "gegenbauer-ratio-identity"), "fails at n=6"),
    ("CLASSICAL", _moved_recurrence("generalized_laguerre", 2, 0), "norms",
     "hermite-ratio-identity", "fails at n=5"),
    ("geronimus", _each_plus_one, "transform", "roundtrip", "nonzero"),
    ("kernel_to_chihara", _each_plus_one, "transform", "chihara-map", "nonzero"),
    # christoffel no longer rejects the perturbed ratio
    ("christoffel", lambda check: lambda *args: [], "negative-controls",
     "perturbed-transform-ratio", "undetected"),
    # the eigen-equations run on the unperturbed operator and all pass
    ("eigen_records", lambda check: lambda token, params, cap, memo, operator:
     check(token, params, cap, memo), "negative-controls", "perturbed-eigen-operator",
     "undetected"),
], ids=["explicit_poly", "jacobi_recurrence", "laguerre_recurrence", "geronimus",
        "kernel_to_chihara", "christoffel", "eigen_records"])
def test_exact_checks_name_their_failing_residual(monkeypatch, name, corrupt, suite,
                                                  target, residual):
    # a corrupted step of one exact check fails that check's records with
    # its residual, and leaves the other records of the suite passing
    monkeypatch.setattr(suites, name, corrupt(getattr(suites, name)))
    records = ALL_SUITES[suite](RunMemo())
    hit = [(r.outcome, r.residual) for r in records if r.target.endswith(target)]
    assert hit and set(hit) == {("fail", residual)}
    assert all(r.outcome != "fail" for r in records if not r.target.endswith(target))
    if name == "CLASSICAL":
        assert len(hit) == 4


def test_corrupted_transform_family_fails_its_records_and_aborts_nothing(tmp_path):
    # big_m1_jacobi's sub(5) moved by 1/1000: the Christoffel division of
    # every transform set leaves a remainder at n = 5, the first degree with
    # P_(n+1)(1) != A_n P_n(1).  The round trip names it, the Chihara map
    # does not pass on the missing kernels, and the run makes every record.
    entry = FAMILIES["big_m1_jacobi"]

    def sub(m, odd, p):
        return entry.sub(m, odd, p) + F(isinstance(m, int) and 2 * m + odd == 5, 1000)

    FAMILIES["big_m1_jacobi"] = entry._replace(sub=sub)
    try:
        records = run_suites()
        path = tmp_path / "records.json"
        status = cli.run(["suite", "--only", "transform", "--json", str(path)])
    finally:
        FAMILIES["big_m1_jacobi"] = entry
    assert len(records) == sum(EXPECTED_COUNTS.values())
    transform = [(r.target, r.outcome, r.residual) for r in records if r.suite == "transform"]
    assert transform == [
        ("roundtrip", "fail", "not divisible at n=5"),
        ("evaluation-at-one", "fail", "nonzero"),
        ("chihara-map", "fail", "no kernels"),
        ("coefficient-identity", "exact_pass", "0"),   # reads A_n and C_n, not sub
    ] * len(suites.TRANSFORM_SETS)
    assert status == 1
    assert [(r.target, r.outcome, r.residual) for r in parse(path.read_text())] == transform


def test_eigen_and_algebra_records_name_the_first_failure_of_the_command(
        monkeypatch, capsys):
    # bump the odd branch of chihara_D's eigenvalue, and the constants of two
    # chihara relations: the pinned record of the first instance names the
    # first failing degree or relation among the command's records for it
    eigen = EIGEN_OPERATORS["chihara_D"]
    monkeypatch.setitem(EIGEN_OPERATORS, "chihara_D", eigen._replace(
        eigenvalue=lambda m, odd, p: eigen.eigenvalue(m, odd, p) + odd))
    algebra = ALGEBRAS["chihara"]

    def relations(*params):
        table = algebra.relations(*params)
        for i in (-2, -1):
            name, lhs, rhs = table[i]
            table[i] = (name, lhs, {**rhs, "": rhs.get("", 0) + 1})
        return table

    monkeypatch.setitem(ALGEBRAS, "chihara", algebra._replace(relations=relations))
    values = (*suites.CHIHARA_SETS[0], suites.EIGEN_EPS[0])
    algebra_values = (*suites.CHIHARA_SETS[0], suites.ALGEBRA_EPS[0])
    named = []
    for command, name, params, suite, why in [
        ("eigencheck --operator", "chihara_D", dict(zip(eigen.params, values)),
         suites.suite_eigen, lambda r: f"{r.residual} at n={r.degrees}"),
        ("algebra --which", "chihara", dict(zip(algebra.params, algebra_values)),
         suites.suite_algebra, lambda r: f"fails {r.target.split(':', 1)[1]}"),
    ]:
        argv = command.split() + [name] + [f"--{k}={v}" for k, v in params.items()]
        assert cli.run(argv + ["--json"]) == 1
        first = next(r for r in parse(capsys.readouterr().out) if r.outcome == "fail")
        [record] = [r for r in suite(RunMemo())
                    if (r.target, r.params) == (name, format_params(params.items()))]
        assert (record.outcome, record.residual) == ("fail", why(first))
        named.append(record.residual)
    assert named == ["nonzero at n=1", "fails bracket-position-commutator"]


def test_records_match_golden_digest(all_records):
    # perfbench/golden.json pins the digest of ``suite --all`` records with
    # the wall time removed; any change to a pinned record shows here, from
    # each suite alone and from one ``run_suites()`` call, whose suites
    # share one run memo.
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    expected = json.loads(golden.read_text())["pinned-suite"][0]
    for records in ([r for batch in all_records.values() for r in batch], run_suites()):
        rows = [{name: getattr(r, name) for name in FIELD_NAMES if name != "millis"}
                for r in records]
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
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


@pytest.fixture
def builds(monkeypatch):
    """The keys of every monic list and Gauss rule built, one dict per run:
    append a fresh dict before each run."""
    calls = []

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            calls[-1][name].append(key(*args))
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(suites, "generate_monic", lambda family, N: (family, N))
    counted(quad, "gauss_rule", lambda weight, n: (tuple(weight), n))
    return calls


def test_one_run_builds_each_shared_object_once(builds):
    # within a run every monic list and Gauss rule is built once per key,
    # and the next run builds them all again: nothing outlives a run
    for _ in range(2):
        builds.append({"generate_monic": [], "gauss_rule": []})
        run_suites()
    assert builds[0] == builds[1]
    for keys in builds[0].values():
        assert keys and len(keys) == len(set(keys))


@pytest.mark.parametrize("argv", [
    ["gram", "--family", "chihara", "--alpha", "1", "--beta", "1", "--gamma", "1/2"],
    ["norms", "--family", "gegenbauer", "--alpha", "1", "--beta", "1"],
    ["eigencheck", "--operator", "chihara_D", "--alpha", "1", "--beta", "1",
     "--gamma", "1/2", "--eps", "2/3"],
    ["transform", "--a", "1", "--b", "1", "--c", "3/5"],
], ids=lambda argv: argv[0])
def test_single_check_commands_share_nothing_between_runs(builds, capsys, argv):
    # each command builds over a memo of its own, so a second identical
    # command builds the same objects again: nothing outlives a command
    for _ in range(2):
        builds.append({"generate_monic": [], "gauss_rule": []})
        assert cli.run(argv) == 0
    capsys.readouterr()
    assert builds[0] == builds[1]
    assert any(builds[0].values())


def test_run_memo_shares_one_classical_weight_per_reduced_weight():
    # chihara(1, 1, 1/2) and gegenbauer(1, 1) reduce to one Jacobi weight
    memo, other = RunMemo(), RunMemo()
    chihara, gegenbauer = chihara_family(1, 1, F(1, 2)), gegenbauer_family(1, 1)
    shared = memo.weight(chihara).classical_weight
    assert memo.weight(gegenbauer).classical_weight is shared
    assert other.weight(gegenbauer).classical_weight is not shared
    assert memo.weight(chihara) == quad.weight_for(chihara)


def test_one_run_builds_each_family_weight_once(monkeypatch):
    # the gram, norms and reduction-oracle records of a family share one
    # WeightSpec, and so each conversion of its recurrence to float
    built = collections.Counter()
    converted = collections.Counter()
    weight_for, recurrence_coeffs = suites.weight_for, quad.recurrence_coeffs

    def counted_weight_for(family):
        built[family] += 1
        return weight_for(family)

    def counted_coeffs(family, n):
        converted[family, n] += 1
        return recurrence_coeffs(family, n)

    monkeypatch.setattr(suites, "weight_for", counted_weight_for)
    monkeypatch.setattr(quad, "recurrence_coeffs", counted_coeffs)
    for _ in suites.run_batches():
        pass
    assert len(built) == 9 and set(built.values()) == {1}
    assert converted and set(converted.values()) == {1}


def test_one_run_builds_each_operator_and_table_entry_once(monkeypatch):
    # the eigen, algebra and negative-controls suites share the run's
    # operators: 51 distinct (token, params), the algebras' K among them,
    # 4 involutions (gamma 1/2, 1/3, -2/5, -1/4) and one quotient table per
    # operator; the counts take in both module references, so a build
    # inside dunklop counts too
    built = {"build_operator": [], "parity_involution": [], "monomial_numerator": []}
    keys = {"build_operator": lambda token, **params: (token, *params.values()),
            "parity_involution": lambda gamma: gamma,
            "monomial_numerator": lambda j, terms: j}
    for name, key in keys.items():
        original = getattr(dunklop, name)

        def counted(*args, name=name, key=key, original=original, **kwargs):
            built[name].append(key(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(dunklop, name, counted)
        monkeypatch.setattr(suites, name, counted, raising=False)
    ratfuncs = []
    post_init = RatFunc.__post_init__
    monkeypatch.setattr(RatFunc, "__post_init__",
                        lambda self: ratfuncs.append(1) or post_init(self))
    for _ in suites.run_batches():
        pass
    operators = built["build_operator"]
    assert len(operators) == len(set(operators)) == 51
    assert set(operators) == {(token, *values) for token, values in suites.EIGEN_CASES}
    assert sorted(built["parity_involution"]) == [F(-2, 5), F(-1, 4), F(1, 3), F(1, 2)]
    assert len(built["monomial_numerator"]) == 880
    assert len(ratfuncs) <= 600


def test_run_memo_shares_operators_by_exact_value():
    memo, other = RunMemo(), RunMemo()
    params = {"mu": F(3, 2), "gamma": F(1, 2), "eps": F(2, 3)}
    shared = memo.operator("y_Z", params)
    # the key is the token and the values in EIGEN_OPERATORS order
    assert memo.operator("y_Z", dict(reversed(params.items()))) is shared
    assert memo.operator("y_Z", {**params, "eps": F(5)}) is not shared
    assert other.operator("y_Z", params) is not shared
    assert memo.involution(F(1, 2)) is memo.involution(F(2, 4))
    assert memo.involution(F(1, 2)) == dunklop.parity_involution(F(1, 2))


def test_eigen_records_read_the_eigenvalue_table(monkeypatch):
    # the params are exact already, so no record converts them again through
    # expected_eigenvalue
    def refuse(*args, **kwargs):
        raise AssertionError("expected_eigenvalue called")

    monkeypatch.setattr(dunklop, "expected_eigenvalue", refuse)
    monkeypatch.setattr(suites, "expected_eigenvalue", refuse, raising=False)
    records = suites.suite_eigen(RunMemo())
    assert len(records) == EXPECTED_COUNTS["eigen"]
    assert {r.outcome for r in records} == {"exact_pass"}


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(names=["construction", "nonsense"])


def test_run_suites_rejects_repeated_and_empty_names():
    with pytest.raises(ValueError, match=r"given more than once: jacobi; choose from"):
        run_suites(names=["jacobi", "construction", "jacobi"])
    with pytest.raises(ValueError, match=r"unknown suite name\(s\) ''; choose from"):
        run_suites(names=[""])


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
        records = algebra_records("ext_hermite", 6, params, RunMemo())
    assert len(records) == 6
    assert all(r.millis > 0 for r in records)
    assert len({r.millis for r in records}) > 1
    assert sum(r.millis for r in records) <= ms[0]


def test_pearson_records_time_each_condition():
    # the weight equation and the reflection samples are timed on their own,
    # not given half each of the whole call
    with stopwatch() as ms:
        records = pearson_records(chihara_family(1, 2, F(1, 3)), 200,
                                  suites.REFLECTION_TOLERANCE)
    assert [r.target for r in records] == ["weight-equation", "reflection-samples"]
    assert all(r.millis > 0 for r in records)
    assert records[0].millis != records[1].millis
    assert sum(r.millis for r in records) <= ms[0]


def test_transform_records_time_each_check():
    # the round trip, evaluation, Chihara map and coefficient identity are
    # each timed on their own
    with stopwatch() as ms:
        records = transform_records(F(1), F(1), F(3, 5), RunMemo(), 6)
    assert [r.target for r in records] == [
        "roundtrip", "evaluation-at-one", "chihara-map", "coefficient-identity"]
    assert all(r.millis > 0 for r in records)
    assert sum(r.millis for r in records) <= ms[0]


@pytest.mark.parametrize("names, check", [
    (("explicit_poly",), suite_construction),
    (("gram_offdiag_worst",), lambda memo: gram_records(
        chihara_family(1, 1, F(1, 2)), memo, 4, suites.GRAM_TOLERANCE, "gram")),
    (("verify_algebra",), lambda memo: algebra_records(
        "ext_hermite", 2, {"mu": F(3, 2), "gamma": F(1, 2), "eps": F(2, 3)}, memo)),
    (("pearson_weight_equation", "verify_pearson"), lambda memo: pearson_records(
        chihara_family(1, 2, F(1, 3)), 4, suites.REFLECTION_TOLERANCE)),
], ids=["construction", "gram", "algebra", "pearson"])
def test_record_time_covers_its_check(monkeypatch, names, check):
    # a sleep in each check's work shows in its record's wall time; the
    # construction suite shrinks to three records of one degree each
    monkeypatch.setattr(suites, "CONSTRUCTION_CAPS", (("gen_hermite", 0),))
    for name in names:
        work = getattr(suites, name)

        def slow(*args, work=work):
            time.sleep(0.02)
            return work(*args)

        monkeypatch.setattr(suites, name, slow)
    records = check(RunMemo())
    assert records and all(r.millis >= 20 for r in records)


def test_pearson_records_count_the_samples():
    # the reflection record names the number of points sampled: samples on
    # each of the two support components of the chihara weight
    for abc in suites.PEARSON_SETS:
        family = chihara_family(*abc)
        points = len(list(quad.weight_for(family).midpoints(7)))
        record = pearson_records(family, 7, suites.REFLECTION_TOLERANCE)[1]
        assert record.degrees == f"{points} points" == "14 points"


@pytest.mark.parametrize("name", ["dunklop", "quad", "limits", "transforms", "families",
                                  "exactnum"])
def test_no_module_below_suites_times_a_check(name):
    # every record's wall time is measured here, by the timed builders, so
    # the layers below hold no stopwatch and no clock; dunklop and quad
    # take nothing from report at all
    module = importlib.import_module(f"dunklpoly.{name}")
    assert not hasattr(module, "stopwatch")
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "time" not in imported
    if name in ("dunklop", "quad"):
        assert "report" not in imported and "dunklpoly.report" not in imported
