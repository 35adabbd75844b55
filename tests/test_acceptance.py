"""Acceptance gate: the ten pinned verification criteria.

Each test runs one criterion end to end through the pinned suites at the
stated degree caps and tolerances, prints a single ``criterion N ... PASS``
(or ``FAIL``) line, and then asserts.  Run with ``pytest
tests/test_acceptance.py -s`` to see the ten verdict lines; the final test
additionally times the command-line entry point that runs everything.

Criteria (degree caps / tolerances as encoded in the suites):

 1. construction equivalence   exact, n <= 16 (CBI 12), >= 3 sets x 5 families
 2. eigen-equations            exact, n <= 16 (shift op 12, Gaussian 12)
 3. algebra relations          exact on monomials to degree 12, >= 2 eps
 4. quadratic-argument halves  exact, paired index <= 8, 3 sets
 5. orthogonality              Gram offdiag <= 1e-10; reduction oracle 1e-8
 6. norm ratios                quadrature 1e-10, exact identity n <= 30
 7. weight equation            exact at 5 tuples; reflection 1e-12, >= 20/component
 8. kernel transforms          exact round trip, map at c in {3/5, 5/13}
 9. contraction limits         worst |order - 1| over degrees 0..6 <= 0.2 (1.0
                               if the errors do not decay monotonically);
                               stable constant
10. negative controls          seeded corruptions are detected
"""

import time
from collections import Counter

import pytest

from dunklpoly.cli import run as cli_run
from dunklpoly.suites import ALL_SUITES, RunMemo


@pytest.fixture(scope="module")
def records_for():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = ALL_SUITES[name](RunMemo())
        return cache[name]

    return get


def _verdict(number, title, records, extra_ok=True):
    ok = extra_ok and bool(records) and all(r.outcome != "fail" for r in records)
    print(f"criterion {number:2d} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, [r for r in records if r.outcome == "fail"]


def test_criterion_01_construction(records_for):
    records = records_for("construction")
    per_family = Counter(r.target for r in records)
    structure = (
        per_family == {"chihara": 3, "cbi": 3, "gegenbauer": 3,
                       "ext_hermite": 3, "gen_hermite": 3}
        and all(r.degrees == "0..12" for r in records if r.target == "cbi")
        and all(r.degrees == "0..16" for r in records if r.target != "cbi")
        and all(r.outcome == "exact_pass" for r in records)
    )
    _verdict(1, "construction equivalence", records, structure)


def test_criterion_02_eigen(records_for):
    records = records_for("eigen")
    counts = Counter(r.target for r in records)
    caps = {t: {r.degrees for r in records if r.target == t} for t in counts}
    structure = (
        counts == {"chihara_D": 9, "cbi_K": 3, "gegenbauer_W": 9,
                   "gegenbauer_Q": 3, "y_Z": 9, "gh_Omega": 9,
                   "gh_OmegaTilde": 9}
        and caps["chihara_D"] == {"0..16"}
        and caps["cbi_K"] == {"0..12"}
        and caps["gh_OmegaTilde"] == {"0..12"}
        and all(caps[t] == {"0..16"}
                for t in ("gegenbauer_W", "gegenbauer_Q", "y_Z", "gh_Omega"))
        and all(r.outcome == "exact_pass" for r in records)
    )
    _verdict(2, "eigen-equations exact", records, structure)


def test_criterion_03_algebra(records_for):
    records = records_for("algebra")
    eps_seen = {r.params.rsplit("eps=", 1)[1] for r in records}
    structure = (
        len(records) == 12
        and all(r.degrees == "0..12" for r in records)
        and eps_seen == {"2/3", "5"}
        and all(r.outcome == "exact_pass" for r in records)
    )
    _verdict(3, "algebra relations exact", records, structure)


def test_criterion_04_jacobi(records_for):
    records = records_for("jacobi")
    structure = (
        len(records) == 3
        and all(r.degrees == "0..17" for r in records)
        and all(r.outcome == "exact_pass" for r in records)
    )
    _verdict(4, "quadratic-argument connection", records, structure)


def test_criterion_05_orthogonality(records_for):
    records = records_for("orthogonality")
    gram = [r for r in records if r.target != "reduction-oracle"]
    oracle = [r for r in records if r.target == "reduction-oracle"]
    structure = (
        {r.target for r in gram}
        == {"chihara", "gegenbauer", "ext_hermite", "gen_hermite"}
        and len(gram) == 8
        and all(r.degrees == "0..12" for r in gram)
        and all(r.tolerance == repr(1e-10) for r in gram)
        and len(oracle) == 2
        and all(r.tolerance == repr(1e-8) for r in oracle)
        and all(r.outcome == "float_pass" for r in records)
    )
    _verdict(5, "orthogonality", records, structure)


def test_criterion_06_norms(records_for):
    records = records_for("norms")
    quad = [r for r in records if r.outcome == "float_pass"]
    exact = [r for r in records if r.outcome == "exact_pass"]
    structure = (
        len(quad) == 8
        and all(r.degrees == "1..12" and r.tolerance == repr(1e-10) for r in quad)
        and len(exact) == 8
        and all(r.degrees == "1..30" for r in exact)
    )
    _verdict(6, "norm ratios", records, structure)


def test_criterion_07_pearson(records_for):
    records = records_for("pearson")
    equation = [r for r in records if r.target == "weight-equation"]
    reflection = [r for r in records if r.target == "reflection-samples"]
    structure = (
        len({r.params for r in equation}) == 5
        and all(r.outcome == "exact_pass" for r in equation)
        and len(reflection) == 5
        and all(r.tolerance == repr(1e-12) for r in reflection)
        and all(int(r.degrees.split()[0]) >= 40 for r in reflection)
    )
    _verdict(7, "weight equation and reflection", records, structure)


def test_criterion_08_transform(records_for):
    records = records_for("transform")
    kinds = Counter(r.target for r in records)
    c_values = {r.params.rsplit("c=", 1)[1] for r in records}
    structure = (
        kinds == {"roundtrip": 3, "evaluation-at-one": 3,
                  "chihara-map": 3, "coefficient-identity": 3}
        and {"3/5", "5/13"} <= c_values
        and all(r.outcome == "exact_pass" for r in records)
    )
    _verdict(8, "kernel transforms", records, structure)


def test_criterion_09_limits(records_for):
    records = records_for("limits")
    cases = {r.target: r for r in records}
    structure = (
        set(cases) == {"cbi_h_to_0", "bigq_q_to_minus1",
                       "chihara_beta_to_inf", "beta-constant-stability"}
        and all(cases[c].tolerance == repr(0.2) and cases[c].degrees == "0..6"
                for c in ("cbi_h_to_0", "bigq_q_to_minus1",
                          "chihara_beta_to_inf"))
        and all(r.outcome == "float_pass" for r in records)
    )
    _verdict(9, "contraction limits", records, structure)


def test_criterion_10_negative_controls(records_for):
    records = records_for("negative-controls")
    structure = (
        {r.target for r in records}
        == {"perturbed-eigen-operator", "perturbed-transform-ratio"}
        and all(r.outcome == "exact_pass" for r in records)
    )
    _verdict(10, "negative controls", records, structure)


def test_suite_all_entry_point_under_two_minutes(capsys):
    start = time.perf_counter()
    code = cli_run(["suite", "--all"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    with capsys.disabled():
        print(f"suite --all: exit {code} in {elapsed:.1f}s "
              f"(budget 120s): {'PASS' if code == 0 and elapsed < 120 else 'FAIL'}")
    assert code == 0
    assert elapsed < 120.0
