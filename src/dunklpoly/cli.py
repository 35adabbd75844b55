"""Command-line driver for the verification toolkit.

Subcommands
-----------
coeffs         print the exact recurrence coefficients of one family member
poly           print one monic family polynomial
eigencheck     sweep an eigenvalue operator over its polynomial family
algebra        check the operator structure relations on all monomials
gram           quadrature Gram matrix off-diagonal check
norms          norm-ratio checks (quadrature vs recurrence, exact identity)
pearson        weight-equation and reflection-symmetry checks
transform      kernel-transform round trip and parameter-map checks
limits         run one contraction limit over a step grid
weight-sample  print CSV samples of a weight function over its support
suite          run the pinned verification suites

Conventions
-----------
* Every numeric parameter is an exact rational written ``p/q`` or as an
  integer.  The only float inputs are limit step grids (finite and
  positive) and tolerances (finite and nonnegative).
* ``--json [PATH]`` / ``--csv [PATH]`` (mutually exclusive) write the
  verification records; with ``-`` or no path the stream replaces the
  human-readable output on stdout, otherwise it is written to PATH and
  the usual output is still printed.  PATH is created or truncated before
  any check runs, so a PATH that cannot be written exits 2 with no check
  output; the records are written after the checks.
* Exit status: 0 when every check passed, 1 when any verification record
  failed (the first failing record is printed to stderr), 2 for usage
  errors (an output PATH that cannot be written among them), 3 for an
  internal error: an exact division or polynomial check
  that failed outside a sweep (``NotDivisible``, ``NotPolynomial``), an
  eigen-solver that did not converge (``NoConvergence``), a degenerate
  limit step or limit error (``DegenerateStep``) or a float computation
  that left the double range (``ArithmeticError``: an overflow, a
  non-finite Gram entry or norm, or a division by a value that underflowed
  to zero; the check layer names the family and the degree, entry or
  sample point).  ``weight-sample`` evaluates every sample before it
  prints the CSV.  Standard output closed by its reader before the output
  is written (``| head -1``), the help included, exits 141, the
  128 + SIGPIPE a shell reports for a tool that signal ended, with nothing
  on stderr; the rest of the output is dropped.  Identical argv produce
  identical records and, aside from the wall-time field, byte-identical JSON.
* Handlers only parse arguments and print; every check runs in
  :mod:`dunklpoly.suites`, the same code the pinned suites use, and
  every record comes from there (``eigencheck`` prints its lines from the
  records of ``suites.eigen_records``).
* The parser of a request holds only the invoked subcommand: ``run``
  builds the subparser that ``argv[0]`` names and no other.  Top-level
  help, a missing command and an unknown one get the parser of every
  subcommand, and both parsers print the same usage, help and errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .dunklop import ALGEBRAS, EIGEN_OPERATORS, expected_eigenvalue
from .exactnum import NotDivisible, NotPolynomial
from .families import (
    FAMILIES,
    DegenerateParameters,
    FamilySpec,
    generate_monic,
    recurrence_coeffs,
)
from .limits import LIMIT_DEGREE_CAP, LIMIT_IDS, DegenerateStep
from .quad import NoConvergence
from .report import VerificationRecord, emit, rational_str
from .suites import (
    ALGEBRA_CAP,
    GRAM_CAP,
    GRAM_TOLERANCE,
    NORM_CAP,
    NORM_EXACT_CAP,
    NORM_TOLERANCE,
    ORDER_TOLERANCE,
    PEARSON_SAMPLES,
    REFLECTION_TOLERANCE,
    TRANSFORM_CAP,
    RunMemo,
    algebra_records,
    eigen_records,
    gram_records,
    limit_check,
    norm_records,
    pearson_records,
    run_batches,
    suite_names,
    transform_records,
    weight_samples,
)

__all__ = ["run", "main", "build_parser"]

PROG = "dunklpoly"
STDOUT_CLOSED = 141   # 128 + SIGPIPE

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class UsageError(ValueError):
    """Bad command-line input combinations (exit status 2)."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a help or usage message written to a
    closed pipe raises ``BrokenPipeError``, so ``run`` exits 141 whether
    stdout is buffered or not.  argparse drops every ``OSError`` there; this
    parser drops only the ``AttributeError`` of a missing stream
    (``sys.stdout`` is None), as ``print`` writes nothing then.  Its
    subparsers are of this class too."""

    def _print_message(self, message, file=None):
        if message:
            try:
                (file or sys.stderr).write(message)
            except AttributeError:
                pass


def _rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational 'p/q' or integer, got {text!r}"
        )
    return Fraction(text)


def _steps(text: str) -> Tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad step list {text!r}") from exc
    return values


def _tolerance(text: str) -> float:
    """An argparse type accepting finite numbers no smaller than 0."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 <= value < float("inf"):   # false for nan too
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _int_at_least(low: int, kind: str) -> Callable[[str], int]:
    """An argparse type accepting integers no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"value must be a {kind} integer")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "nonnegative")


def _union(tables: Iterable[Sequence[str]]) -> Tuple[str, ...]:
    """The names of several parameter lists, each once, first seen first."""
    return tuple(dict.fromkeys(name for names in tables for name in names))


# Every family parameter flag; with --eps, the flags a command rejects when
# they do not apply to the chosen family or operator.
_ALL_FAMILY_FLAGS = _union(family.params for family in FAMILIES.values())

# The families with a pointwise weight, for gram, norms and weight-sample.
_WEIGHTED = tuple(name for name, family in FAMILIES.items() if family.weight)


def _collect_params(args: argparse.Namespace, names: Sequence[str],
                    context: str) -> Dict[str, Fraction]:
    """Gather exactly the named rational flags; reject missing or stray ones."""
    values: Dict[str, Fraction] = {}
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise UsageError(f"{context} requires --{name}")
        values[name] = value
    for name in _ALL_FAMILY_FLAGS + ("eps",):
        if name in names:
            continue
        if getattr(args, name, None) is not None:
            raise UsageError(f"--{name} does not apply to {context}")
    return values


def _build_family(args: argparse.Namespace) -> FamilySpec:
    family = FAMILIES[args.family]
    params = _collect_params(args, family.params, f"--family {args.family}")
    return family.build(*(params[name] for name in family.params))


def _say(args: argparse.Namespace, text: str = "") -> None:
    if not getattr(args, "_quiet", False):
        print(text)


def _add_rational_flags(parser: argparse.ArgumentParser,
                        names: Sequence[str]) -> None:
    for name in names:
        parser.add_argument(f"--{name}", type=_rational, default=None,
                            metavar="p/q")


def _add_family_flags(parser: argparse.ArgumentParser,
                      families: Optional[Iterable[str]] = None) -> None:
    chosen = sorted(families or FAMILIES)
    parser.add_argument("--family", required=True, choices=chosen,
                        help="polynomial family")
    _add_rational_flags(parser, sorted({name for fam in chosen
                                        for name in FAMILIES[fam].params}))


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH", help="write records as JSON "
                       "(to stdout when PATH is omitted or '-')")
    group.add_argument("--csv", nargs="?", const="-", default=None,
                       metavar="PATH", help="write records as CSV "
                       "(to stdout when PATH is omitted or '-')")


def _format_destination(args: argparse.Namespace) -> Tuple[Optional[str], Optional[str]]:
    if getattr(args, "json", None) is not None:
        return "json", args.json
    if getattr(args, "csv", None) is not None:
        return "csv", args.csv
    return None, None


def _deliver(records: Sequence[VerificationRecord], args: argparse.Namespace) -> None:
    fmt, dest = _format_destination(args)
    if fmt is None or (args._out is None and sys.stdout is None):
        return   # no stdout to write to, as for ``print``
    out = args._out or sys.stdout.buffer
    try:
        out.write(emit(records, fmt) + b"\n")
        out.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args._out is None:
            raise   # stdout's reader went away: ``run`` exits STDOUT_CLOSED
        raise UsageError(f"cannot write {dest}: {exc.strerror}") from exc


def _finish(records: Sequence[VerificationRecord], args: argparse.Namespace) -> int:
    _deliver(records, args)
    failures = [r for r in records if r.outcome == "fail"]
    if failures:
        first = failures[0]
        print(
            f"{PROG}: first failing record: suite={first.suite} "
            f"target={first.target} params={first.params} "
            f"degrees={first.degrees} residual={first.residual} "
            f"tolerance={first.tolerance}",
            file=sys.stderr,
        )
        return 1
    return 0


# --------------------------------------------------------------------------
# Subcommand handlers.  Each returns the exit status.


def _cmd_coeffs(args: argparse.Namespace) -> int:
    family = _build_family(args)
    diag, sub = recurrence_coeffs(family, args.n)
    print(f"diag {rational_str(diag)}")
    print(f"sub {rational_str(sub)}")
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    family = _build_family(args)
    print(str(generate_monic(family, args.n)[args.n]))
    return 0


def _cmd_eigencheck(args: argparse.Namespace) -> int:
    token = args.operator
    spec = EIGEN_OPERATORS[token]
    params = _collect_params(args, spec.params, f"--operator {token}")
    cap = args.cap if args.cap is not None else spec.cap
    records = eigen_records(token, params, cap, RunMemo())
    if not args._quiet:
        for record in records:
            n = int(record.degrees)
            eigenvalue = expected_eigenvalue(token, n, **params)
            print(f"n={n:2d} lambda={rational_str(eigenvalue)} {record.outcome}")
    return _finish(records, args)


def _cmd_algebra(args: argparse.Namespace) -> int:
    params = _collect_params(args, ALGEBRAS[args.which].params,
                             f"--which {args.which}")
    records = algebra_records(args.which, args.cap, params, RunMemo())
    for record in records:
        relation = record.target.split(":", 1)[1]
        _say(args, f"{relation:12s} {record.outcome}")
    return _finish(records, args)


def _cmd_gram(args: argparse.Namespace) -> int:
    [record] = gram_records(_build_family(args), RunMemo(), args.cap,
                            args.tolerance, suite="gram")
    _say(args, f"offdiag worst {float(record.residual):.3e} "
               f"tolerance {args.tolerance:.1e} {record.outcome}")
    return _finish([record], args)


def _cmd_norms(args: argparse.Namespace) -> int:
    quad_rec, exact_rec = norm_records(_build_family(args), RunMemo(), args.cap,
                                       args.exact_cap, args.tolerance)
    _say(args, f"quadrature ratio worst {float(quad_rec.residual):.3e} "
               f"{quad_rec.outcome}")
    _say(args, f"exact ratio identity {exact_rec.outcome}")
    return _finish([quad_rec, exact_rec], args)


def _cmd_pearson(args: argparse.Namespace) -> int:
    ode_rec, refl_rec = pearson_records(_build_family(args), args.samples,
                                        args.tolerance)
    _say(args, f"weight equation {ode_rec.outcome}")
    _say(args, f"reflection worst {float(refl_rec.residual):.3e} "
               f"over {refl_rec.degrees} {refl_rec.outcome}")
    return _finish([ode_rec, refl_rec], args)


def _cmd_transform(args: argparse.Namespace) -> int:
    params = _collect_params(args, FAMILIES["big_m1_jacobi"].params, "transform")
    records = transform_records(**params, memo=RunMemo(), cap=args.cap)
    for record in records:
        _say(args, f"{record.target:22s} {record.outcome}")
    return _finish(records, args)


def _cmd_limits(args: argparse.Namespace) -> int:
    report, record = limit_check(args.case, args.cap, args.steps, args.tolerance)
    for result in report.results:
        _say(args, f"step {result.step:.3e}  max poly error "
                   f"{result.max_poly_error:.6e}  max coeff error "
                   f"{result.max_coeff_error:.6e}")
    def order(o: Optional[float]) -> str:
        return "noise floor" if o is None else f"{o:.3f}"

    _say(args, "empirical orders: " + ", ".join(
        f"deg {n}: {order(o)}" for n, o in enumerate(report.poly_orders)))
    _say(args, f"coefficient order: {order(report.coeff_order)}")
    _say(args, f"overall order: {order(report.overall_order)}")
    _say(args, f"monotone: {'yes' if report.monotone_ok else 'no'}; "
               f"residual {report.residual:.3e} "
               f"tolerance {args.tolerance:.1e} {record.outcome}")
    return _finish([record], args)


def _cmd_weight_sample(args: argparse.Namespace) -> int:
    # every sample is evaluated before the first line is printed
    rows = weight_samples(_build_family(args), args.points)
    print("x,weight")
    for x, weight in rows:
        print(f"{x!r},{weight!r}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.all == (args.only is not None):
        raise UsageError("choose exactly one of --all or --only")
    names = suite_names(None if args.all else args.only.split(","))
    width = max(len(n) for n in names)
    _say(args, f"{'suite':{width}s}  records  exact  float  fail      ms")
    records = []
    total_ms = 0.0
    for name, batch, millis in run_batches(names):
        records += batch
        total_ms += millis
        _say(args, _suite_row(name, width, batch, millis))
    _say(args, _suite_row("total", width, records, total_ms))
    return _finish(records, args)


def _suite_row(name: str, width: int, batch: Sequence[VerificationRecord],
               millis: float) -> str:
    exact, flt, fail = (sum(r.outcome == o for r in batch)
                        for o in ("exact_pass", "float_pass", "fail"))
    return (f"{name:{width}s}  {len(batch):7d}  {exact:5d}  {flt:5d}  "
            f"{fail:4d}  {millis:6.0f}")


# --------------------------------------------------------------------------
# Parser assembly.  Each subcommand is one entry of ``_COMMANDS``: its help
# line, the function that adds its arguments, and its handler.


def _family_degree_args(p: argparse.ArgumentParser) -> None:
    _add_family_flags(p)
    p.add_argument("--n", type=_nonnegative_int, required=True, metavar="N")


def _eigencheck_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--operator", required=True, choices=sorted(EIGEN_OPERATORS))
    _add_rational_flags(p, _union(op.params for op in EIGEN_OPERATORS.values()))
    p.add_argument("--cap", type=_positive_int, default=None, metavar="N")
    _add_format_flags(p)


def _algebra_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--which", required=True, choices=tuple(ALGEBRAS))
    _add_rational_flags(p, _union(spec.params for spec in ALGEBRAS.values()))
    p.add_argument("--cap", type=_positive_int, default=ALGEBRA_CAP, metavar="N")
    _add_format_flags(p)


def _gram_args(p: argparse.ArgumentParser) -> None:
    _add_family_flags(p, families=_WEIGHTED)
    p.add_argument("--cap", type=_positive_int, default=GRAM_CAP, metavar="N")
    p.add_argument("--tolerance", type=_tolerance, default=GRAM_TOLERANCE)
    _add_format_flags(p)


def _norms_args(p: argparse.ArgumentParser) -> None:
    _add_family_flags(p, families=_WEIGHTED)
    p.add_argument("--cap", type=_positive_int, default=NORM_CAP, metavar="N")
    p.add_argument("--exact-cap", type=_positive_int, default=NORM_EXACT_CAP,
                   metavar="N")
    p.add_argument("--tolerance", type=_tolerance, default=NORM_TOLERANCE)
    _add_format_flags(p)


def _pearson_args(p: argparse.ArgumentParser) -> None:
    _add_family_flags(p, families=("chihara",))
    p.add_argument("--samples", type=_positive_int, default=PEARSON_SAMPLES,
                   help="sample points per support component")
    p.add_argument("--tolerance", type=_tolerance, default=REFLECTION_TOLERANCE)
    _add_format_flags(p)


def _transform_args(p: argparse.ArgumentParser) -> None:
    _add_rational_flags(p, FAMILIES["big_m1_jacobi"].params)
    p.add_argument("--cap", type=_positive_int, default=TRANSFORM_CAP, metavar="N")
    _add_format_flags(p)


def _limits_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", required=True, choices=LIMIT_IDS)
    p.add_argument("--steps", type=_steps, default=None,
                   metavar="s1,s2,...", help="geometric step grid (floats)")
    p.add_argument("--cap", type=_positive_int, default=LIMIT_DEGREE_CAP,
                   metavar="N")
    p.add_argument("--tolerance", type=_tolerance, default=ORDER_TOLERANCE,
                   help="allowed |empirical order - 1|")
    _add_format_flags(p)


def _weight_sample_args(p: argparse.ArgumentParser) -> None:
    _add_family_flags(p, families=_WEIGHTED)
    p.add_argument("--points", type=_positive_int, required=True, metavar="M",
                   help="sample points per support component")


def _suite_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--only", default=None, metavar="NAME[,NAME...]",
                   help="run a comma-separated subset of suites")
    _add_format_flags(p)


_COMMANDS: Dict[str, Tuple[str, Callable[[argparse.ArgumentParser], None],
                           Callable[[argparse.Namespace], int]]] = {
    "coeffs": ("print exact recurrence coefficients", _family_degree_args,
               _cmd_coeffs),
    "poly": ("print one monic polynomial", _family_degree_args, _cmd_poly),
    "eigencheck": ("sweep an eigenvalue operator", _eigencheck_args,
                   _cmd_eigencheck),
    "algebra": ("check operator structure relations", _algebra_args,
                _cmd_algebra),
    "gram": ("Gram matrix off-diagonal check", _gram_args, _cmd_gram),
    "norms": ("norm-ratio checks", _norms_args, _cmd_norms),
    "pearson": ("weight equation and reflection checks", _pearson_args,
                _cmd_pearson),
    "transform": ("kernel transform checks", _transform_args, _cmd_transform),
    "limits": ("run one contraction limit", _limits_args, _cmd_limits),
    "weight-sample": ("CSV samples of a weight function", _weight_sample_args,
                      _cmd_weight_sample),
    "suite": ("run the pinned verification suites", _suite_args, _cmd_suite),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser: only ``command``'s subparser when it names one.

    Any other ``command`` (None, ``-h``, an unknown name) gets every
    subcommand, for the top-level help and argparse's own errors.  The
    one-subcommand parser names every command in its usage line, which
    argparse prints with an "unrecognized arguments" error; the full parser
    keeps the default, so a missing command is still reported as
    ``command``.
    """
    parser = _Parser(
        prog=PROG,
        description="Exact and float verification checks for -1 orthogonal "
                    "polynomial families.",
    )
    names, metavar = tuple(_COMMANDS), None
    if command in _COMMANDS:
        names, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and execute; returns the exit status (0, 1, 2, 3 or 141).
    What the request wrote to stdout is flushed before it returns."""
    try:
        status = _run(argv)
        if sys.stdout is not None:   # None when the process began with no stdout
            sys.stdout.flush()
    except BrokenPipeError:
        _stdout_to_devnull()
        return STDOUT_CLOSED
    return status


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at ``os.devnull``, so that the
    interpreter's final flush of what stdout still buffers is silent.  An
    in-process stream with no descriptor is left to its owner."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):   # io.UnsupportedOperation is a ValueError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _run(argv: Optional[Sequence[str]]) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fmt, dest = _format_destination(args)
    args._quiet = fmt is not None and dest == "-"
    args._out = None
    try:
        if fmt is not None and dest != "-":
            try:
                args._out = open(dest, "wb")
            except OSError as exc:
                raise UsageError(f"cannot write {dest}: {exc.strerror}") from exc
        return args.handler(args)
    except (NotPolynomial, NotDivisible, NoConvergence, DegenerateStep,
            ArithmeticError) as exc:
        print(f"{PROG}: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (UsageError, DegenerateParameters, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args._out is not None:
            args._out.close()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
