#!/usr/bin/env python3
"""Benchmark for dunklpoly: one workload, one run, one result line.

    python3 perfbench/run.py --workload {pinned-suite,fresh-exact,float-quad}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and called only through ``dunklpoly.cli.run(argv)``: one
client, closed loop, each request starting when the previous one returns.
``--seconds`` fixes how many passes the measured phase runs (see
``workloads.NOMINAL_PASS_S``); the work of a run depends on the seed and
``--seconds`` only.

Every time metric is in reference seconds: measured seconds corrected for
the speed of the shared machine at that moment (see ``speed.py``).  The
measured seconds are printed beside each one.

With ``--trace 0`` the end-to-end metrics are measured, with no wrapper
installed.  With ``--trace 1`` the same phase runs once traced (layer
functions wrapped from outside, see ``layers.py``) and once untraced, and
the per-layer metrics of the traced phase are reported.

Every request's records are checked: exit status 0, no ``fail`` record, the
expected record count and suite, and at the default seed a digest of the
record stream (``millis`` stripped) equal to ``golden.json``.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--write-golden`` regenerates the digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import speed
import workloads
from layers import Tracer
from workloads import Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 7
TAIL_BEYOND = 10


def load_program():
    """Import ``dunklpoly.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "dunklpoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dunklpoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dunklpoly.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "dunklpoly":
        raise SystemExit(f"perfbench: imported dunklpoly from {cli.__file__}, not {SRC}")
    return cli


def setup_seconds(workload: str, seed: int, passes: int) -> Tuple[float, float]:
    """Import plus input generation in fresh interpreters: the median of the
    measured seconds, and the median in reference seconds."""
    argv = [sys.executable, str(HERE / "probe.py"), str(SRC), workload,
            str(seed), str(passes)]
    measured, reference = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        seconds, factor = map(float, done.stdout.split())
        measured.append(seconds)
        reference.append(seconds * factor)
    return statistics.median(measured), statistics.median(reference)


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Outcome(NamedTuple):
    """What one request returned."""

    status: Optional[int]      # exit status; None when an exception escaped
    blob: bytes                # the JSON records written
    error: str
    latency: float             # measured seconds inside cli.run
    cpu: float                 # measured CPU seconds inside cli.run
    span: Tuple[float, float]  # perf_counter at start and end


class Phase(NamedTuple):
    """One pass over the batch.  Measured times sum the time inside
    ``cli.run``.  ``factors[i]`` turns request i's measured wall and CPU
    seconds into reference seconds; ``speed`` does so for the whole phase."""

    outcomes: List[Outcome]
    factors: List[Tuple[float, float]]
    speed: Tuple[float, float]

    @property
    def wall(self) -> float:
        return sum(o.latency for o in self.outcomes)

    @property
    def ref_latencies(self) -> List[float]:
        return [o.latency * f for o, (f, _) in zip(self.outcomes, self.factors)]

    @property
    def ref_cpu(self) -> float:
        return sum(o.cpu * f for o, (_, f) in zip(self.outcomes, self.factors))


def run_phase(cli, batch: Sequence[Request], sample: bool = True) -> Phase:
    """Send every request in order.  With ``sample``, the speed kernel runs
    throughout and its time is taken out of each request's time."""
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"records-{os.getpid()}.json"
    outcomes = []
    sampler = speed.Sampler()
    with sampler if sample else contextlib.nullcontext():
        for request in batch:
            argv = [*request.argv, "--json", str(out_path)]
            sink = io.StringIO()
            status, error = None, ""
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                paused, paused_cpu = sampler.paused, sampler.paused_cpu
                cpu0, start = cpu_seconds(), time.perf_counter()
                try:
                    status = cli.run(argv)
                except Exception as exc:  # a traceback is a failed request
                    error = f"{type(exc).__name__}: {exc}"
                end, cpu1 = time.perf_counter(), cpu_seconds()
                paused, paused_cpu = sampler.paused - paused, sampler.paused_cpu - paused_cpu
            blob = b""
            if out_path.exists():
                blob = out_path.read_bytes()
                out_path.unlink()
            outcomes.append(Outcome(status, blob, error or sink.getvalue()[-500:],
                                    end - start - paused, cpu1 - cpu0 - paused_cpu, (start, end)))
    if not sample:
        return Phase(outcomes, [(1.0, 1.0)] * len(outcomes), (1.0, 1.0))
    return Phase(outcomes, [sampler.factors(*o.span) for o in outcomes], sampler.factors())


def run_traced(cli, batch: Sequence[Request]) -> Tuple[Phase, Tracer]:
    """``run_phase`` with every layer function wrapped by a fresh tracer.

    No speed kernel runs: its time would land in the busy time of whatever
    layer it interrupted.
    """
    tracer = Tracer()
    tracer.install()
    try:
        return run_phase(cli, batch, sample=False), tracer
    finally:
        tracer.uninstall()


def digest(request: Request, outcome: Outcome) -> Tuple[Optional[str], str]:
    """(digest of the records without ``millis``, problem) for one request."""
    if outcome.status != 0:
        return None, f"exit {outcome.status}: {outcome.error.strip()}"
    try:
        rows = json.loads(outcome.blob)
    except ValueError:
        return None, "no JSON records written"
    if len(rows) != request.records:
        return None, f"{len(rows)} records, expected {request.records}"
    for row in rows:
        if row.get("outcome") == "fail":
            return None, f"fail record {row}"
        if request.suite and row.get("suite") != request.suite:
            return None, f"record of suite {row.get('suite')!r}"
        row.pop("millis", None)
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), ""


def check(workload: str, seed: int, batch: Sequence[Request],
          outcomes: Sequence[Outcome], golden: Optional[List[str]]) -> Tuple[List[Optional[str]], List[str]]:
    """Digests and the list of problems; a problem is one failed request."""
    digests, problems = [], []
    expected: List[Optional[str]] = [None] * len(batch)
    # pinned-suite has fixed inputs, so its digest holds at every seed.
    if golden is not None and (workload == "pinned-suite" or seed == workloads.DEFAULT_SEED):
        expected = (golden + expected)[: len(batch)]
    for i, (request, outcome) in enumerate(zip(batch, outcomes)):
        value, problem = digest(request, outcome)
        if not problem and expected[i] is not None and value != expected[i]:
            problem = "record digest differs from golden.json"
        if problem:
            problems.append(f"request {i} ({' '.join(request.argv)}): {problem}")
        digests.append(value)
    return digests, problems


def tail(latencies: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def layer_metrics(tracer: Tracer, traced: Phase, untraced: Phase) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced phase.  Times are in reference
    seconds, at the speed measured in the untraced phase that follows."""
    m: Dict[str, Tuple[float, str]] = {}

    def add(name: str, *fields: str) -> None:
        stat = tracer.stat(name)
        values = {"calls": (stat.calls, "count"),
                  "busy_s": (stat.busy * untraced.speed[0], "s"),
                  "self_s": (stat.self_time * untraced.speed[0], "s")}
        for field in fields:
            m[f"{name}.{field}"] = values[field]

    add("exactnum.ratfunc", "calls", "busy_s")
    add("exactnum.poly_gcd", "calls", "busy_s")
    gcd = tracer.stat("exactnum.poly_gcd")
    m["exactnum.poly_gcd.useful_frac"] = (gcd.useful / gcd.calls if gcd.calls else 0.0, "fraction")
    add("exactnum.poly_divmod", "calls", "busy_s")
    add("exactnum.laurent_mul", "calls")
    add("dunklop.apply", "calls", "busy_s", "self_s")
    add("dunklop.apply_gaussian", "calls", "busy_s")
    add("dunklop.build_operator", "calls", "busy_s")
    add("dunklop.verify_algebra", "busy_s")
    add("families.generate_monic", "calls", "busy_s")
    add("families.explicit_poly", "calls", "busy_s")
    for name in ("christoffel", "geronimus", "kernel_to_chihara"):
        add(f"transforms.{name}", "busy_s")
    add("quad.gauss_rule", "calls", "busy_s")
    rule = tracer.stat("quad.gauss_rule")
    m["quad.gauss_rule.nodes"] = (rule.items, "count")
    m["quad.gauss_rule.distinct_frac"] = (len(rule.keys) / rule.calls if rule.calls else 0.0, "fraction")
    add("quad.symtridiag_eigen", "busy_s")
    add("quad.gram_matrix", "busy_s", "self_s")
    add("quad.norm_ratio_check", "busy_s", "self_s")
    add("quad.verify_pearson", "busy_s")
    add("limits.run_limit", "calls", "busy_s")
    for suite in SUITE_NAMES:
        add(f"suites.{suite}", "busy_s")
    add("report.emit", "busy_s")
    m["report.records"] = (tracer.stat("report.emit").items, "count")
    add("cli.run", "calls", "self_s")
    m["trace.overhead_frac"] = (traced.wall / untraced.wall - 1.0, "fraction")
    return m


# Fixed here, not read from the program: they name metrics in BENCHMARK.json.
SUITE_NAMES = ("construction", "eigen", "algebra", "jacobi", "orthogonality",
               "norms", "pearson", "transform", "limits", "negative-controls")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=workloads.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store the record digests of this run in golden.json")
    args = parser.parse_args(argv)
    os.environ.pop("DUNKLPOLY_THREADS", None)

    cli = load_program()
    passes = workloads.passes_for(args.workload, args.seconds)
    batch = workloads.requests(args.workload, args.seed, passes)
    setup, setup_ref = setup_seconds(args.workload, args.seed, passes)
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = None if args.write_golden else golden_all.get(args.workload)

    # The traced phase runs first, so its per-layer counts see a cold process.
    phases = []
    if args.trace:
        traced, tracer = run_traced(cli, batch)
        phases.append(traced)
    phases.append(run_phase(cli, batch))

    problems, attempted = [], 0
    digest_runs = []
    for phase in phases:
        digests, found = check(args.workload, args.seed, batch, phase.outcomes, golden)
        problems += found
        attempted += len(batch)
        digest_runs.append(digests)
    if len(digest_runs) == 2 and digest_runs[0] != digest_runs[1]:
        problems.append("traced and untraced records differ")

    phase = phases[-1]
    latencies = [o.latency for o in phase.outcomes]
    ref_latencies = phase.ref_latencies
    tail_value, tail_pct, samples = tail(latencies)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={passes} requests={len(batch)}")
    print("env: " + json.dumps({"python": platform.python_version(), "nproc": os.cpu_count(),
                                "seed": args.seed, "commit": git_commit()}))
    if phase.speed != (1.0, 1.0):
        print(f"  machine speed factor {phase.speed[0]:.4f} wall, {phase.speed[1]:.4f} CPU "
              f"(kernel reference {speed.KERNEL_REF_S * 1e3:g} ms)")
    if args.trace:
        metrics = layer_metrics(tracer, phases[0], phase)
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:>16.6g} {unit}")
    else:
        measured = {
            "wall_s": phase.wall,
            "cpu_s": sum(o.cpu for o in phase.outcomes),
            "setup_s": setup,
            "request_p50_s": statistics.median(latencies),
            "request_tail_s": tail_value,
        }
        reference = {
            "wall_s": sum(ref_latencies),
            "cpu_s": phase.ref_cpu,
            "setup_s": setup_ref,
            "request_p50_s": statistics.median(ref_latencies),
            "request_tail_s": tail(ref_latencies)[0],
        }
        metrics = {name: (value, "s") for name, value in reference.items()}
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        for name, (value, unit) in metrics.items():
            raw = f"  (measured {measured[name]:.6g} s)" if name in measured else ""
            print(f"  {name:16s} {value:>12.6g} {unit}{raw}")
        print(f"  request_tail_s is p{tail_pct:.1f} of {samples} requests")
    failed = min(len(problems), attempted)
    print(f"  fail_frac {failed / attempted:.4g} ({failed} of {attempted} requests failed)")
    for problem in problems:
        print(f"  FAILED {problem}", file=sys.stderr)

    if args.write_golden:
        if problems:
            print("perfbench: not writing golden.json from a run with failures", file=sys.stderr)
            return 1
        golden_all[args.workload] = digest_runs[-1]
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
