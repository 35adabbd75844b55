"""Tests for the command-line driver.

Frozen expectations used below (independently checkable by hand):

* chihara(1, 1, 1/2) has diag(2) = 1/2 and sub(2) = 1/10, and its monic
  degree-2 member is x^2 - 3/4.
* the chihara weight is supported on two symmetric intervals, so a
  weight-sample run with M points per component prints 2M data rows.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklpoly import cli
from dunklpoly.cli import build_parser, main, run
from dunklpoly.dunklop import ALGEBRAS, EIGEN_OPERATORS
from dunklpoly.families import FAMILIES
from dunklpoly.limits import LIMIT_IDS
from dunklpoly.report import emit, parse
from dunklpoly.suites import ALL_SUITES, RunMemo


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- informational subcommands ----------------------------------------------------


def test_coeffs_example(capsys):
    code, out, _ = _run(capsys, [
        "coeffs", "--family", "chihara",
        "--alpha", "1", "--beta", "1", "--gamma", "1/2", "--n", "2",
    ])
    assert code == 0
    assert out == "diag 1/2\nsub 1/10\n"


def test_poly_example(capsys):
    code, out, _ = _run(capsys, [
        "poly", "--family", "chihara",
        "--alpha", "1", "--beta", "1", "--gamma", "1/2", "--n", "2",
    ])
    assert code == 0
    assert out == "x^2 - 3/4\n"


def test_weight_sample_covers_both_components(capsys):
    code, out, _ = _run(capsys, [
        "weight-sample", "--family", "chihara",
        "--alpha", "1", "--beta", "1", "--gamma", "1/2", "--points", "4",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,weight"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 8
    assert sum(x < 0 for x, _ in rows) == 4
    assert sum(x > 0 for x, _ in rows) == 4
    assert all(w > 0 for _, w in rows)


def test_weight_sample_single_component_family(capsys):
    code, out, _ = _run(capsys, [
        "weight-sample", "--family", "gegenbauer",
        "--alpha", "1", "--beta", "1", "--points", "5",
    ])
    assert code == 0
    assert len(out.strip().splitlines()) == 6


# -- verification subcommands ------------------------------------------------------


def test_eigencheck_sweep_prints_per_degree(capsys):
    code, out, _ = _run(capsys, [
        "eigencheck", "--operator", "chihara_D",
        "--alpha", "1", "--beta", "1", "--gamma", "1/2",
        "--eps", "2/3", "--cap", "4",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.endswith("exact_pass") for line in lines)
    assert lines[3].startswith("n= 3 lambda=17/3")


def test_eigencheck_json_stream(capsys):
    code, out, _ = _run(capsys, [
        "eigencheck", "--operator", "gh_OmegaTilde",
        "--mu", "3/2", "--eps", "1/4", "--cap", "3", "--json",
    ])
    assert code == 0
    rows = json.loads(out)
    assert [row["degrees"] for row in rows] == ["0", "1", "2", "3"]
    assert {row["outcome"] for row in rows} == {"exact_pass"}
    # The stream replaces the human-readable sweep lines.
    assert out.lstrip().startswith("[")


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_eigencheck_stream_computes_no_unprinted_eigenvalue(capsys, monkeypatch, fmt):
    # under --json - and --csv - the n=.. lambda=.. lines are not printed,
    # so their eigenvalues are not computed a second time
    argv = ["eigencheck", "--operator", "gh_OmegaTilde", "--mu", "3/2", "--eps", "1/4",
            "--cap", "3", fmt, "-"]
    _, want, _ = _run(capsys, argv)

    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalue computed for a line that is not printed")

    monkeypatch.setattr(cli, "expected_eigenvalue", refuse)
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")

    def untimed(stream):
        if fmt == "--json":
            return [dict(row, millis=None) for row in json.loads(stream)]
        return [line.rsplit(",", 1)[0] for line in stream.splitlines() if line]

    assert untimed(out) == untimed(want)
    assert len(untimed(out)) == (4 if fmt == "--json" else 5)


# one value per parameter name of any ALGEBRAS entry
_ALGEBRA_VALUES = {"alpha": "1", "beta": "1", "gamma": "1/2", "eps": "2/3", "mu": "3/2"}


def test_algebra_lists_relations(capsys):
    for which, spec in ALGEBRAS.items():
        flags = [f"--{name}={_ALGEBRA_VALUES[name]}" for name in spec.params]
        code, out, _ = _run(capsys, ["algebra", "--which", which, *flags, "--cap", "4"])
        assert code == 0, which
        lines = out.strip().splitlines()
        assert len(lines) == 6, which
        assert all(line.endswith("exact_pass") for line in lines), which
    # --which offers exactly the table's entries
    parser = argparse.ArgumentParser()
    cli._algebra_args(parser)
    [choice] = [action for action in parser._actions if action.dest == "which"]
    assert tuple(choice.choices) == tuple(ALGEBRAS)


def test_gram_and_norms_and_pearson(capsys):
    for argv in (
        ["gram", "--family", "gen_hermite", "--mu", "3/2", "--cap", "6"],
        ["norms", "--family", "gegenbauer", "--alpha", "1", "--beta", "1",
         "--cap", "6", "--exact-cap", "10"],
        ["pearson", "--family", "chihara", "--alpha", "1", "--beta", "2",
         "--gamma", "1/3"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 0, (argv, err)
        assert "fail" not in out


@pytest.mark.parametrize("params, operator", [
    (["--family", "gegenbauer", "--alpha=-1/2", "--beta=-1/2"], "gegenbauer_W"),
    (["--family", "chihara", "--alpha=-1/4", "--beta=-3/4", "--gamma=1/2"],
     "chihara_D"),
])
def test_alpha_plus_beta_minus_one_checks_pass(capsys, params, operator):
    # alpha + beta + 1 = 0 cancels in sub(1) and in the first norm ratio
    for argv in (
        ["poly", *params, "--n", "4"],
        ["gram", *params],
        ["norms", *params],
        ["eigencheck", "--operator", operator, *params[2:], "--eps", "1"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 0, (argv, err)
        assert "fail" not in out


def test_chebyshev_weight_poly_example(capsys):
    code, out, _ = _run(capsys, ["poly", "--family", "gegenbauer", "--alpha=-1/2",
                                 "--beta=-1/2", "--n", "4"])
    assert code == 0
    assert out.strip() == "x^4 - x^2 + 1/8"  # 2^-3 T_4


def test_transform_exact_route(capsys):
    code, out, _ = _run(capsys, [
        "transform", "--a", "1", "--b", "1", "--c", "3/5", "--cap", "6",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("exact_pass") for line in lines)


@pytest.mark.parametrize("c_flag", [["--c", "1/3"], ["--c=-1/3"]], ids=["c=1/3", "c=-1/3"])
def test_transform_exact_at_irrational_scale(capsys, c_flag):
    """1 - c^2 is not a rational square; all four records are still exact."""
    code, out, _ = _run(capsys, ["transform", "--a", "1", "--b", "1", *c_flag, "--csv"])
    assert code == 0
    records = parse(out, "csv")
    assert [r.target for r in records] == [
        "roundtrip", "evaluation-at-one", "chihara-map", "coefficient-identity"]
    assert all(r.outcome == "exact_pass" for r in records)


def test_transform_has_no_tolerance(capsys):
    code, _, err = _run(capsys, [
        "transform", "--a", "1", "--b", "1", "--c", "1/3", "--tolerance", "1e-9",
    ])
    assert code == 2
    assert "unrecognized arguments: --tolerance 1e-9" in err


def test_limits_prints_steps_and_orders(capsys):
    code, out, _ = _run(capsys, [
        "limits", "--case", "bigq_q_to_minus1",
        "--steps", "1e-3,1e-4,1e-5",
    ])
    assert code == 0
    assert out.count("step ") == 3
    assert "overall order: 1.000" in out
    assert "monotone: yes" in out


@pytest.mark.parametrize("argv, verdict, code", [
    # the degree-9 order is 0.708: one computable order is out of the
    # tolerance while the decay is still monotone
    (["--case", "bigq_q_to_minus1", "--steps", "0.05,0.025,0.0125", "--cap", "10"],
     "monotone: yes; residual 2.918e-01 tolerance 2.0e-01 fail", 1),
    *((["--case", case], "float_pass", 0) for case in LIMIT_IDS),
])
def test_limits_verdict_line_agrees_with_exit_status(capsys, argv, verdict, code):
    status, out, err = _run(capsys, ["limits"] + argv)
    last = out.splitlines()[-1]
    assert last.startswith("monotone: ") and last.endswith(verdict)
    assert status == code
    assert ("first failing record" in err) == (code == 1)


def test_suite_subset_table_and_file_output(capsys, tmp_path):
    out_path = tmp_path / "records.json"
    code, out, _ = _run(capsys, [
        "suite", "--only", "jacobi,negative-controls",
        "--json", str(out_path),
    ])
    assert code == 0
    assert "jacobi" in out and "negative-controls" in out and "total" in out
    # one row per suite and a total, each ending in its measured wall time
    header, *table = out.splitlines()
    assert header.split() == ["suite", "records", "exact", "float", "fail", "ms"]
    assert [row.split()[0] for row in table] == ["jacobi", "negative-controls", "total"]
    millis = [int(row.split()[-1]) for row in table]
    assert all(ms >= 0 for ms in millis) and abs(millis[2] - millis[0] - millis[1]) <= 1
    rows = json.loads(out_path.read_text())
    assert [row["suite"] for row in rows] == ["jacobi"] * 3 + ["negative-controls"] * 2


def test_suite_stream_is_deterministic_excluding_millis(capsys):
    argv = ["suite", "--only", "jacobi,transform", "--json"]
    code_a, out_a, _ = _run(capsys, argv)
    code_b, out_b, _ = _run(capsys, argv)
    assert code_a == code_b == 0
    rows_a, rows_b = json.loads(out_a), json.loads(out_b)
    for row in rows_a + rows_b:
        row["millis"] = 0.0
    assert json.dumps(rows_a) == json.dumps(rows_b)


def _without(rows, ignored):
    return [{k: v for k, v in row.items() if k not in ignored} for row in rows]


def test_cli_records_equal_pinned_suite_records(capsys):
    # Each command runs the same check as the suite does for its instance;
    # only the suite field differs, and for limits also the params label
    # (first-step source parameters on the command line, the case defaults
    # in the suite).
    cases = [
        (["gram", "--family", "chihara", "--alpha", "1", "--beta", "1",
          "--gamma", "1/2"], "orthogonality", 0, 1),
        (["norms", "--family", "chihara", "--alpha", "1", "--beta", "1",
          "--gamma", "1/2"], "norms", 0, 2),
        (["transform", "--a", "1", "--b", "1", "--c", "3/5"], "transform", 0, 4),
        (["limits", "--case", "bigq_q_to_minus1"], "limits", 1, 2),
    ]
    for argv, suite, first, stop in cases:
        code, out, _ = _run(capsys, argv + ["--json"])
        assert code == 0, argv
        ignored = {"millis", "suite"} | ({"params"} if suite == "limits" else set())
        expected = json.loads(emit(ALL_SUITES[suite](RunMemo())[first:stop]))
        assert _without(json.loads(out), ignored) == _without(expected, ignored), argv
    # eigencheck and algebra emit one record per degree or relation; the
    # suite folds them into one record over the instance's degree range
    for argv, suite in [
        (["eigencheck", "--operator", "chihara_D", "--alpha", "1", "--beta", "1",
          "--gamma", "1/2", "--eps", "0"], "eigen"),
        (["algebra", "--which", "chihara", "--alpha", "1", "--beta", "1",
          "--gamma", "1/2", "--eps", "2/3"], "algebra"),
    ]:
        code, out, _ = _run(capsys, argv + ["--json"])
        assert code == 0, argv
        rows = json.loads(out)
        assert {row["outcome"] for row in rows} == {"exact_pass"}, argv
        last = rows[-1]["degrees"].rsplit(".", 1)[-1]   # "16", or "12" of "0..12"
        folded = {"suite": suite, "target": argv[2],
                  "params": ",".join(f"{k[2:]}={v}" for k, v in zip(argv[3::2], argv[4::2])),
                  "degrees": f"0..{last}", "outcome": "exact_pass", "residual": "0",
                  "tolerance": "exact"}
        expected = json.loads(emit(ALL_SUITES[suite](RunMemo())[:1]))
        assert [folded] == _without(expected, {"millis"}), argv


# -- exit statuses ------------------------------------------------------------------


def test_failing_check_exits_1_with_first_record(capsys):
    code, out, err = _run(capsys, [
        "gram", "--family", "chihara", "--alpha", "1", "--beta", "1",
        "--gamma", "1/2", "--cap", "4", "--tolerance", "1e-30",
    ])
    assert code == 1
    assert "fail" in out
    assert "first failing record" in err
    assert "suite=gram" in err


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
@pytest.mark.parametrize("where", ["missing directory", "existing directory"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, fmt, where):
    path = tmp_path / "missing" / "out" if where == "missing directory" else tmp_path
    code, out, err = _run(capsys, ["gram", "--family", "gen_hermite", "--mu", "3/2",
                                   fmt, str(path)])
    assert code == 2
    # the path is opened before the check runs, so no check output is printed
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"dunklpoly: error: cannot write {path}: ")


def test_unwritable_output_path_runs_no_suite(capsys, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_batches", lambda names: ran.append(names) or [])
    path = tmp_path / "missing" / "x"
    code, out, err = _run(capsys, ["suite", "--all", "--json", str(path)])
    assert code == 2
    assert ran == [] and out == ""
    assert err.startswith(f"dunklpoly: error: cannot write {path}: ")


def test_usage_errors_exit_2(capsys):
    cases = [
        [],                                                  # no subcommand
        ["coeffs", "--family", "chihara", "--alpha", "1",
         "--beta", "1", "--n", "2"],                         # missing --gamma
        ["coeffs", "--family", "chihara", "--alpha", "1.5",
         "--beta", "1", "--gamma", "1/2", "--n", "2"],       # float rational
        ["coeffs", "--family", "gegenbauer", "--alpha", "1",
         "--beta", "1", "--gamma", "1/2", "--n", "2"],       # stray flag
        ["suite"],                                           # neither --all/--only
        ["suite", "--all", "--only", "jacobi"],              # both
        ["suite", "--only", "nonsense"],                     # unknown suite
        ["suite", "--only", "jacobi", "--json", "-",
         "--csv", "-"],                                      # exclusive formats
        ["limits", "--case", "cbi_h_to_0",
         "--steps", "1e-3,1e-4"],                            # too-short grid
        ["limits", "--case", "cbi_h_to_0",
         "--steps", "nan,nan,nan"],                          # non-finite steps
        ["limits", "--case", "cbi_h_to_0",
         "--steps", "1e-3,1e-4,1e-5,nan"],                   # non-finite step
        ["limits", "--case", "cbi_h_to_0",
         "--steps", "inf,inf,inf"],                          # non-finite steps
        ["coeffs", "--family", "chihara", "--alpha", "0",
         "--beta", "-2", "--gamma", "3/4", "--n", "2"],      # degenerate family
        ["coeffs", "--family", "gen_hermite", "--mu", "1/2",
         "--n", "-1"],                                       # negative degree
        ["coeffs", "--family", "chihara", "--alpha", "1",
         "--beta", "1", "--gamma", "1/2", "--n", "-3"],      # negative degree
        ["poly", "--family", "chihara", "--alpha", "1",
         "--beta", "1", "--gamma", "1/2", "--n", "-1"],      # negative degree
        ["weight-sample", "--family", "gen_hermite", "--mu=-3/2",
         "--points", "3"],                                   # non-integrable weight
    ]
    for argv in cases:
        code = run(argv)
        capsys.readouterr()
        assert code == 2, argv


@pytest.mark.parametrize("family_args", [
    ["--family", "gegenbauer", "--alpha=-5", "--beta=2"],
    ["--family", "chihara", "--alpha=1", "--beta=-4", "--gamma=1/3"],
    ["--family", "gegenbauer", "--alpha=-3/2", "--beta=-3/2"],
    # the ratio's Pochhammer factor vanishes already at degree 1
    ["--family", "chihara", "--alpha=-1", "--beta=-1", "--gamma=1/2"],
])
def test_norms_reject_nonintegrable_weights(family_args, capsys):
    # parameters at which the closed-form ratio raises never reach it
    assert run(["norms"] + family_args + ["--cap", "8"]) == 2
    assert capsys.readouterr().err.strip() == "dunklpoly: error: weight parameters must exceed -1"


@pytest.mark.parametrize("argv", [
    ["gram", "--family", "gen_hermite", "--mu", "3/2"],
    ["norms", "--family", "gen_hermite", "--mu", "3/2"],
    ["pearson", "--family", "chihara", "--alpha", "1", "--beta", "2", "--gamma", "1/3"],
    ["limits", "--case", "cbi_h_to_0"],
], ids=lambda argv: argv[0])
def test_tolerance_must_be_finite_and_nonnegative(capsys, argv):
    # an infinite tolerance would pass any finite residual, and a nan or
    # negative one would fail every record
    for value in ("inf", "-inf", "nan", "-1e-9", "x"):
        code, out, err = _run(capsys, argv + [f"--tolerance={value}"])
        assert code == 2, value
        assert "argument --tolerance: " in err and out == "", value
    assert run(argv + ["--tolerance", "0"]) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize("only, message", [
    ("eigen,eigen", "suite name(s) given more than once: eigen; choose from "),
    ("", "unknown suite name(s) ''; choose from "),
    ("jacobi,,jacobi", "unknown suite name(s) ''; choose from "),
    ("jacobi,nonsense", "unknown suite name(s) 'nonsense'; choose from "),
])
def test_suite_names_are_checked_once_before_the_table(capsys, only, message):
    code, out, err = _run(capsys, ["suite", "--only", only])
    assert code == 2
    assert out == ""                      # no table header, no row
    assert err == f"dunklpoly: error: {message}{', '.join(ALL_SUITES)}\n"


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_internal_errors_exit_3(capsys):
    cases = [
        ["norms", "--family", "ext_hermite", "--mu=1/19", "--gamma=4/7",
         "--cap", "20"],                                     # NoConvergence
        ["limits", "--case", "bigq_q_to_minus1",
         "--steps", "1e-100,1e-101,1e-102"],                 # DegenerateStep
        ["limits", "--case", "chihara_beta_to_inf",
         "--steps", "1e-300,1e-301,1e-302"],                 # rescale power overflows
        ["limits", "--case", "bigq_q_to_minus1",
         "--steps", "1e200,1e199,1e198"],                    # source parameters overflow
        ["limits", "--case", "cbi_h_to_0",
         "--steps", "1e200,1e199,1e198", "--cap", "1"],      # rescale square underflows
        ["gram", "--family", "ext_hermite", "--mu=1000", "--gamma=5",
         "--cap", "5"],                                      # zeroth moment overflows
        ["weight-sample", "--family", "gen_hermite", "--mu=1000",
         "--points", "3"],                                   # weight value overflows
        ["pearson", "--family", "chihara", "--alpha=-1/3", "--beta=1000",
         "--gamma=3", "--samples", "3"],                     # weight underflows to 0
        ["norms", "--family", "ext_hermite", "--mu=100", "--gamma=100",
         "--cap", "2", "--exact-cap", "3"],                  # norm underflows to 0
        ["gram", "--family", "ext_hermite", "--mu=1", "--gamma=1000",
         "--cap", "4"],                                      # Gram diagonal underflows
        ["gram", "--family", "gen_hermite", "--mu", "100"],  # Gram normaliser overflows
        ["gram", "--family", "ext_hermite", "--mu", "100",
         "--gamma", "1/2"],                                  # Gram normaliser overflows
        ["gram", "--family", "gen_hermite", "--mu", "170"],  # Gram normaliser overflows
        ["norms", "--family", "gen_hermite", "--mu", "171"],  # quadrature norms overflow
        ["limits", "--case", "cbi_h_to_0",
         "--steps", "1e-60,1e-61,1e-62"],                    # coefficient error overflows
    ]
    errors = []
    for argv in cases:
        code, _, err = _run(capsys, argv)
        assert code == 3, argv
        assert err.startswith("dunklpoly: internal error: "), argv
        assert "Traceback" not in err, argv
        assert err.count("\n") == 1, argv
        errors.append(err)
    # a float-range failure names the family and where it left the range
    assert "gen_hermite(mu=1000) weight at x=" in errors[6]
    assert "ext_hermite(mu=100,gamma=100) norm ratio at degree 1" in errors[8]
    assert "ext_hermite(mu=1,gamma=1000) Gram matrix 0..4" in errors[9]
    # a non-finite entry, normaliser or norm is an overflow, not a pass
    assert "gen_hermite(mu=100) Gram matrix 0..12: Gram entry (0, 1) is " in errors[10]
    assert "ext_hermite(mu=100,gamma=1/2) Gram matrix 0..12: Gram entry (0, 1)" in errors[11]
    assert "gen_hermite(mu=170) Gram matrix 0..12: Gram entry (0, 1) is " in errors[12]
    assert "normaliser inf" in errors[10] and "normaliser inf" in errors[12]
    assert "gen_hermite(mu=171) norm ratio at degree 1: quadrature norms of P_1 " in errors[13]
    assert "DegenerateStep: a coefficient error is not finite at step 1e-60" in errors[14]


def test_weight_sample_prints_nothing_when_a_sample_fails(capsys):
    code, out, err = _run(capsys, ["weight-sample", "--family", "gen_hermite",
                                   "--mu=1000", "--points", "3"])
    assert code == 3
    assert out == ""
    assert "OverflowError" in err


class _ClosedPipe(io.RawIOBase):
    """Raw stdout whose reader is gone: each write raises BrokenPipeError
    until ``reader_gone`` is cleared."""

    reader_gone = True

    def writable(self):
        return True

    def write(self, data):
        if self.reader_gone:
            raise BrokenPipeError(32, "Broken pipe")
        return len(data)


@pytest.mark.parametrize("argv", [
    # the table's header line, printed through ``_say``
    ["suite", "--only", "jacobi"],
    # the records, written by ``_deliver``; the one failing record is not
    # reported once stdout is gone
    ["suite", "--only", "jacobi", "--json", "-"],
    ["gram", "--family", "gen_hermite", "--mu", "3/2", "--cap", "4", "--tolerance", "0",
     "--csv", "-"],
    ["weight-sample", "--family", "gen_hermite", "--mu", "3/2", "--points", "2"],
    ["gram", "--help"],
])
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    raw = _ClosedPipe()
    out = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", line_buffering=True)
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    raw.reader_gone = False   # lets ``out`` close without a second error
    out.close()
    assert code == cli.STDOUT_CLOSED == 141
    assert err.getvalue() == ""


class _ClosedUnbufferedStdout(io.TextIOBase):
    """Unbuffered stdout whose reader is gone, as under PYTHONUNBUFFERED=1:
    each write raises BrokenPipeError at once and nothing waits for a flush."""

    def writable(self):
        return True

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_help_into_a_closed_unbuffered_stdout_exits_141():
    # the help's one write meets the closed pipe itself; argparse drops
    # that error, and the run would exit 0 with the help lost
    err = io.StringIO()
    with redirect_stdout(_ClosedUnbufferedStdout()), redirect_stderr(err):
        code = run(["gram", "--help"])
    assert code == cli.STDOUT_CLOSED
    assert err.getvalue() == ""


def test_a_process_without_stdout_runs_as_before(monkeypatch):
    # started with descriptor 1 closed, the interpreter sets sys.stdout to
    # None and print writes nothing; run must not flush it
    monkeypatch.setattr(sys, "stdout", None)
    assert run(["coeffs", "--family", "chihara", "--alpha", "1", "--beta", "1",
                "--gamma", "1/2", "--n", "2"]) == 0


_ENTRY_POINT = [sys.executable, "-c", "from dunklpoly.cli import main; main()"]


def _entry_point_env():
    """The environment for the console entry point: this package first on
    the path, stdout buffered as the interpreter does by default."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _closed_early(argv, lines, unbuffered):
    """Run the console entry point, read ``lines`` lines of its stdout, close
    that pipe and wait: (exit status, stderr).  With ``unbuffered`` each
    write reaches the pipe at once, as under PYTHONUNBUFFERED=1; without it
    stdout is block-buffered, as it is by default on a pipe."""
    env = _entry_point_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([*_ENTRY_POINT, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("argv, lines, unbuffered", [
    # 40,001 lines, far more than a pipe holds: the writer meets the closed
    # pipe whatever the timing
    (["weight-sample", "--family", "gen_hermite", "--mu", "3/2", "--points", "20000"], 1, True),
    # closed before the interpreter has even imported the package, so the
    # one write of the records meets the closed pipe
    (["suite", "--only", "jacobi,pearson", "--json", "-"], 0, True),
    # block-buffered: the output meets the closed pipe in ``run``'s flush,
    # not in the interpreter's final one
    (["coeffs", "--family", "chihara", "--alpha", "1", "--beta", "1", "--gamma", "1/2",
      "--n", "2"], 0, False),
    (["gram", "--help"], 0, False),
    # unbuffered: the help's own write meets the closed pipe
    (["gram", "--help"], 0, True),
])
def test_closed_stdout_pipe_ends_the_process_quietly(argv, lines, unbuffered):
    code, err = _closed_early(argv, lines, unbuffered)
    assert code == 141
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == ""


_GEN_HERMITE_JSON = ["gram", "--family", "gen_hermite", "--mu", "3/2", "--json", "-"]


@pytest.mark.parametrize("argv, status, stderr", [
    (_GEN_HERMITE_JSON, 0, ""),
    (_GEN_HERMITE_JSON + ["--tolerance", "0"], 1,
     "dunklpoly: first failing record: suite=gram target=gen_hermite params=mu=3/2 "
     "degrees=0..12 residual="),
], ids=["passing", "failing"])
def test_records_with_stdout_closed_at_start(argv, status, stderr):
    # started with descriptor 1 closed, the interpreter sets sys.stdout to
    # None: the records are written nowhere, as print writes nothing, and
    # the exit status and stderr follow the records
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', *_ENTRY_POINT, *argv],
                          stderr=subprocess.PIPE, env=_entry_point_env(), timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode == status, err
    assert err.startswith(stderr) and err.count("\n") == (status != 0)


@pytest.mark.parametrize("argv", [
    ["gram", "--family", "chihara", "--alpha=2/3", "--beta=1000",
     "--gamma=-5/2", "--cap", "30"],
    ["norms", "--family", "chihara", "--alpha=2/3", "--beta=1000",
     "--gamma=-5/2", "--cap", "6"],
])
def test_beta_function_past_the_gamma_range_passes(argv, capsys):
    # Gamma(1001) overflows; B(5/3, 1001) = Gamma(5/3) Gamma(1001) / Gamma(1002 + 2/3)
    # is about 8e-6 and comes through lgamma
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert "float_pass" in out


@pytest.mark.parametrize("family_args", [
    ["--family", "gen_hermite", "--mu=-1/1000", "--points", "7"],
    ["--family", "gegenbauer", "--alpha=-3/4", "--beta=1", "--points", "5"],
])
def test_weight_sample_reports_the_singularity_at_zero_as_inf(family_args, capsys):
    # an odd midpoint grid hits x = 0, where |x|^e with e < 0 is infinite
    code, out, err = _run(capsys, ["weight-sample"] + family_args)
    assert code == 0, err
    rows = out.splitlines()
    assert rows[0] == "x,weight"
    assert len(rows) == 1 + int(family_args[-1])
    assert [row for row in rows if row.endswith(",inf")] == ["0.0,inf"]


# Stdout digests (sha256) recorded before the pointwise weights moved into
# ``FAMILIES``: the pinned suite evaluates only chihara's weight, so these
# guard the other three, at gamma > 0, < 0 and = 0 and at a singular x = 0
# sample (printed ``inf``).  JSON records are digested without ``millis``.
_PINNED_STDOUT = {
    "weight-sample --family chihara --alpha 1 --beta 2 --gamma 1/3 --points 4":
        "3ebbcc43c1760c315926feacfcc515965ef7e62607a9eb9152f19d1e158e43fe",
    "weight-sample --family chihara --alpha 1/2 --beta 3/4 --gamma=-1/3 --points 4":
        "dfcff0abdb94625591b6878b54634be8c9b4d4a60f83e74097cedc94522f25b2",
    "weight-sample --family chihara --alpha 1 --beta 1 --gamma 0 --points 3":
        "1782723186e6d446420348d89605c6d057a8f4fc5c983af276e3d2e05490ecbf",
    "weight-sample --family gegenbauer --alpha 1/2 --beta 2 --points 5":
        "b2a4a0f29f9199285a0495841ac7ccace406c9703f0a2db79f673b4c05b30e84",
    "weight-sample --family gegenbauer --alpha=-3/4 --beta 1 --points 5":
        "8bf4ee951c09c409f2e73fe5d53780814d17c364e73c33612d9036bf70f39da4",
    "weight-sample --family ext_hermite --mu 3/2 --gamma 1/2 --points 4":
        "af3d5fba0f5f5acd606053d4edc92d45dc0384c8c411a67b2d3f51186800eea9",
    "weight-sample --family ext_hermite --mu 5/7 --gamma=-7/3 --points 4":
        "bef5ae1255772448f3a95b429a3a882ab6103950548f135ad65d3987f0534cbb",
    "weight-sample --family ext_hermite --mu 3/2 --gamma 0 --points 3":
        "d1c4e906d3a1475beced8b5945b1fb47a2cdc7904983ef8b249c569e983a15d6",
    "weight-sample --family gen_hermite --mu 3/2 --points 4":
        "235ab2712d0a4e439a0521fad0f654c64109bf459c232c35568724d89accb2bd",
    "weight-sample --family gen_hermite --mu=-1/4 --points 7":
        "614715049f0a1095005f1720897ea18b4d69b363a3c0ef4d59d4d6026c72b691",
    "gram --family gegenbauer --alpha 1/2 --beta 2 --cap 20 --json":
        "92dafee70fda341533a4aad4ec6d003cee476dabebe946cb21756acf526e9523",
    "gram --family ext_hermite --mu 3/2 --gamma 1/2 --cap 20 --json":
        "0d2b4800f377645909cee0c446f618e828deafed11240330df404ca02a5229ab",
    "gram --family ext_hermite --mu 5/7 --gamma=-7/3 --cap 20 --json":
        "313fb346d4c1fa0b9efe3de79cb1960fd74abc4f4012ed922a57a5f06d8343e4",
    "gram --family gen_hermite --mu 3/2 --cap 20 --json":
        "163797c12446df0c331c6b96897898acd97f00a2e5bde61c11bcd462f4bb3584",
    "norms --family gegenbauer --alpha 1/2 --beta 2 --cap 20 --json":
        "ca304527eb40333bab52b4ce8e52800b5cad86151bd2ea60c9ce0544172f6700",
    "norms --family ext_hermite --mu 3/2 --gamma 1/2 --cap 20 --json":
        "5125ba7c60856bbdef4c9188cd4338ad77b952587c4378549c016fd67190f990",
    "norms --family ext_hermite --mu 5/7 --gamma=-7/3 --cap 20 --json":
        "67e0fcd90cc4526680ad08fad8fbc775dcec938aa878d68cb2dd77a1d263dffb",
    "norms --family gen_hermite --mu 3/2 --cap 20 --json":
        "653f12c9353b883025c249cec14fb4bfe172040e218d5ce6077dcab8edc052cb",
}


def _stdout_digest(capsys, argv):
    code, out, err = _run(capsys, argv.split())
    assert code == 0, err
    if "--json" in argv:
        rows = json.loads(out)
        for row in rows:
            del row["millis"]
        out = json.dumps(rows)
    return hashlib.sha256(out.encode()).hexdigest()


def test_weight_and_quadrature_stdout_match_pinned_digests(capsys):
    digests = {argv: _stdout_digest(capsys, argv) for argv in _PINNED_STDOUT}
    assert digests == _PINNED_STDOUT


# -- one subparser per request ---------------------------------------------------

# one valid argv and one bad value (a choices or type error, or exclusive
# formats for suite) per subcommand; argv[0] is the subcommand
_VALID = {
    "coeffs": ["--family", "chihara", "--alpha", "1", "--beta", "1",
               "--gamma", "1/2", "--n", "2"],
    "poly": ["--family", "gen_hermite", "--mu", "1/2", "--n", "3"],
    "eigencheck": ["--operator", "chihara_D", "--alpha", "1", "--beta", "1",
                   "--gamma", "1/2", "--eps", "2/3", "--cap", "4"],
    "algebra": ["--which", "ext_hermite", "--mu=1/3", "--gamma=2", "--eps=-1",
                "--cap", "3", "--json"],
    "gram": ["--family", "gegenbauer", "--alpha", "1", "--beta", "1",
             "--cap", "4", "--tolerance", "1e-9"],
    "norms": ["--family", "gen_hermite", "--mu", "1/2", "--exact-cap", "3",
              "--csv", "out.csv"],
    "pearson": ["--family", "chihara", "--alpha", "1", "--beta", "1",
                "--gamma", "1/2", "--samples", "3"],
    "transform": ["--a", "1", "--b", "1", "--c", "3/5", "--cap", "6"],
    "limits": ["--case", "cbi_h_to_0", "--steps", "1e-2,1e-3,1e-4", "--cap", "2"],
    "weight-sample": ["--family", "gegenbauer", "--alpha", "1", "--beta", "1",
                      "--points", "3"],
    "suite": ["--only", "jacobi,transform", "--json", "-"],
}
_BAD_VALUE = {
    "coeffs": ["--family", "nope", "--n", "2"],
    "poly": ["--family", "chihara", "--n", "-1"],
    "eigencheck": ["--operator", "nope"],
    "algebra": ["--which", "gegenbauer"],
    "gram": ["--family", "big_m1_jacobi"],
    "norms": ["--family", "gegenbauer", "--cap", "0"],
    "pearson": ["--family", "gegenbauer"],
    "transform": ["--a", "1.5"],
    "limits": ["--case", "nope"],
    "weight-sample": ["--family", "chihara", "--points", "x"],
    "suite": ["--all", "--json", "-", "--csv", "-"],
}


def _parse(capsys, parser, argv):
    try:
        outcome = parser.parse_args(argv)
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


def test_parity_corpus_covers_every_subcommand():
    assert set(_VALID) == set(_BAD_VALUE) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_one_subcommand_parser_matches_the_full_parser(command, capsys):
    valid = [command] + _VALID[command]
    corpus = [
        [command, "-h"],
        [command],                          # a missing required flag, if any
        [command] + _BAD_VALUE[command],
        valid + ["--bogus"],                # top-level "unrecognized arguments"
        valid,
    ]
    for argv in corpus:
        restricted = _parse(capsys, build_parser(command), argv)
        full = _parse(capsys, build_parser(), argv)
        assert restricted == full, argv
    # the valid argv gives a Namespace, the others usage output and exit 0 or 2
    assert isinstance(restricted[0], argparse.Namespace)
    assert restricted[0].handler is cli._COMMANDS[command][2]


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0), (["--help"], 0), ([], 2), (["nope"], 2), (["Gram"], 2),
    (["--", "gram"], 2),
])
def test_no_known_command_gets_the_full_parser(argv, code, capsys):
    full = _parse(capsys, build_parser(), argv)
    assert full[0] == code
    assert _run(capsys, argv) == (code, full[1], full[2])
    listing = "{" + ",".join(cli._COMMANDS) + "}"
    if code == 0:
        assert set(cli._COMMANDS) <= set(full[1].split())   # one help line each
    else:
        usage = " ".join(full[2].split())      # as wrapped to any width
        assert usage.startswith(f"usage: {cli.PROG} [-h] {listing} ... ")


def _count_subparsers(monkeypatch):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return calls


def test_a_request_registers_only_its_own_subparser(monkeypatch, capsys):
    calls = _count_subparsers(monkeypatch)
    assert run(["coeffs"] + _VALID["coeffs"]) == 0
    assert calls == ["coeffs"]
    calls.clear()
    assert run(["-h"]) == 0
    assert calls == list(cli._COMMANDS)
    capsys.readouterr()


def test_entry_point_reads_sys_argv(monkeypatch, capsys):
    calls = _count_subparsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["dunklpoly", "coeffs"] + _VALID["coeffs"])
    assert run() == 0
    assert calls == ["coeffs"]
    assert capsys.readouterr().out == "diag 1/2\nsub 1/10\n"
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "diag 1/2\nsub 1/10\n"
    monkeypatch.setattr(sys, "argv", ["dunklpoly", "gram", "--help"])
    assert run(None) == 0
    assert capsys.readouterr().out.startswith("usage: dunklpoly gram [-h]")
    monkeypatch.setattr(sys, "argv", ["dunklpoly"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: command\n")


# -- argv fuzz ---------------------------------------------------------------------
# Random argv for every subcommand: a request that names a family, operator,
# algebra, case or suites and gives each of its parameters a value, then up
# to two further flags of the subcommand.  Values are good, extreme or
# malformed.  Whatever the argv, ``run`` returns 0, 1, 2 or 3, no exception
# escapes it and stderr holds no traceback; exit 3 writes one stderr line,
# "dunklpoly: internal error: ...".  Every integer flag (caps, degrees, sample counts)
# is first set to 1-3 so that one example stays cheap; a later flag may
# replace it with a bad value.  ``suite --all`` and the costly suites are
# left to the suite tests.

# Each pool is (good values, extreme or malformed ones); half the draws
# come from the good ones.
_FUZZ_VALUES = {
    "rational": (("1", "2", "1/2", "3/7", "5/2", "-1/3", "-3/7"),
                 ("0", "-1", "1000", "-1000", "1/1000", "x", "1/0", "")),
    "int": (("1", "2", "3"), ("0", "-1", "x")),
    "float": (("1e-9", "1e-6"), ("0", "-1", "nan", "inf", "x")),
    "steps": (("1e-2,1e-3,1e-4", "1e-3,1e-4,1e-5"), ("1e-1", "0", "1e-2,0", "-1e-2,1e-3", "x")),
    "only": (("jacobi", "transform,limits", "negative-controls,pearson"), ("nope", "")),
    "format": ((None, "-"), ()),
    "flag": ((None,), ()),
}
_INT_DESTS = {"n", "cap", "exact_cap", "samples", "points"}
# the flag that names what a request checks, and the parameter names it needs
_SUBJECTS = {
    "family": lambda name: FAMILIES[name].params,
    "operator": lambda name: EIGEN_OPERATORS[name].params,
    "which": lambda name: ALGEBRAS[name].params,
    "case": lambda name: (),
    "only": lambda name: (),
}

# Known limits the fuzz reaches: float checks whose numbers leave the double
# range at parameters of size 1000 exit 3, naming the error.  exp(-gamma^2)
# underflows to 0.0 at |gamma| = 1000, and the ext_hermite quadrature
# divides by it; the Pearson conditions divide by a weight that underflows
# at alpha = 1000; the Gram matrix at mu = 1000 overflows.
_KNOWN_LIMITS = [
    (["gram", "--family", "ext_hermite", "--mu", "1", "--gamma", "1000"], "ZeroDivisionError"),
    (["norms", "--family", "ext_hermite", "--mu", "1", "--gamma=-1000"], "ZeroDivisionError"),
    (["pearson", "--family", "chihara", "--alpha", "1000", "--beta", "1/2", "--gamma", "-1",
      "--samples", "2"], "ZeroDivisionError"),
    (["gram", "--family", "gen_hermite", "--mu", "1000", "--cap", "3"], "OverflowError"),
]


def _fuzz_kind(action):
    if action.dest in _INT_DESTS:
        return "int"
    if action.choices is not None:
        return tuple(action.choices), ("nope",)
    if action.type is cli._rational:
        return "rational"
    if action.type is cli._tolerance:
        return "float"
    if action.type is cli._steps:
        return "steps"
    if action.dest in ("json", "csv"):
        return "format"
    if action.dest == "only":
        return "only"
    return "flag" if action.nargs == 0 else None


def _fuzz_flags(command):
    [sub] = [a for a in build_parser(command)._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "all")}


def test_fuzz_vocabulary_covers_every_flag():
    for command in cli._COMMANDS:
        flags = _fuzz_flags(command)
        assert all(_fuzz_kind(a) is not None for a in flags.values()), command
        # every subcommand but transform names its subject by one flag
        assert len(set(flags) & set(_SUBJECTS)) == (command != "transform"), command


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = _fuzz_flags(command)
    argv = [command]

    def add(action):
        kind = _fuzz_kind(action)
        good, bad = kind if isinstance(kind, tuple) else _FUZZ_VALUES[kind]
        value = draw(st.sampled_from(good) | st.sampled_from(good + bad))
        flag = action.option_strings[0]
        if value is None:
            argv.append(flag)
        elif value.startswith("-") and draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv.extend([flag, value])

    for dest in sorted(_INT_DESTS & set(flags)):
        argv += [flags[dest].option_strings[0], draw(st.sampled_from(("1", "2", "3")))]
    params = FAMILIES["big_m1_jacobi"].params if command == "transform" else ()
    for dest in sorted(set(_SUBJECTS) & set(flags)):
        add(flags[dest])
        try:
            params = _SUBJECTS[dest](argv[-1])
        except KeyError:   # an unknown name
            pass
    for name in params:
        add(flags[name])
    for dest in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2)):
        add(flags[dest])
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ("--bogus", "stray", "no-such-dir/out", "-h"))))
    return argv


def _quiet_run(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(deadline=None, max_examples=300)
@given(_argvs())
def test_any_argv_exits_with_a_documented_status(argv):
    # a word read as an output path ("stray") is written into a directory
    # of the example's own, never into the one the tests run from
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            code, err = _quiet_run(argv)
        finally:
            os.chdir(home)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code == 3:
        [line] = err.splitlines()
        assert line.startswith("dunklpoly: internal error: "), argv


@pytest.mark.parametrize("argv, error", _KNOWN_LIMITS)
def test_known_fuzz_limits_exit_3(argv, error):
    code, err = _quiet_run(argv)
    assert code == 3
    assert err.startswith(f"dunklpoly: internal error: {error}: ")
