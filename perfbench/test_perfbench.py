"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q

The layer-coverage tests run one traced pass of each workload (about a
minute in all): every layer a workload is meant to exercise must show a
non-zero count, and the two bypass predictions must hold exactly.
"""

import json
import signal
import sys
import time
from fractions import Fraction

import pytest

import run
import workloads
from layers import TARGETS

cli = run.load_program()

EXACT_LAYERS = (
    "exactnum.ratfunc.calls", "exactnum.poly_gcd.calls",
    "exactnum.poly_divmod.calls", "exactnum.laurent_mul.calls",
    "dunklop.apply.calls", "dunklop.apply_gaussian.calls",
    "dunklop.build_operator.calls", "dunklop.verify_algebra.busy_s",
    "families.generate_monic.calls", "transforms.christoffel.busy_s",
    "transforms.geronimus.busy_s", "transforms.kernel_to_chihara.busy_s",
)
FLOAT_LAYERS = (
    "quad.gauss_rule.calls", "quad.gauss_rule.nodes",
    "quad.symtridiag_eigen.busy_s", "quad.gram_matrix.busy_s",
    "quad.norm_ratio_check.busy_s", "quad.verify_pearson.busy_s",
    "limits.run_limit.calls", "families.generate_monic.calls",
)
FRONT_LAYERS = ("report.emit.busy_s", "report.records", "cli.run.calls",
                "cli.run.self_s")

EXPECTED = {
    "pinned-suite": EXACT_LAYERS + FLOAT_LAYERS + FRONT_LAYERS + (
        "families.explicit_poly.calls",
        *(f"suites.{name}.busy_s" for name in run.SUITE_NAMES)),
    "fresh-exact": EXACT_LAYERS + FRONT_LAYERS,
    "float-quad": FLOAT_LAYERS + FRONT_LAYERS,
}
BYPASSED = {
    "fresh-exact": ("quad.gauss_rule.calls",),
    "float-quad": ("dunklop.apply.calls",),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reaches_every_layer(workload):
    batch = workloads.requests(workload, workloads.DEFAULT_SEED, 1)
    phase, tracer = run.run_traced(cli, batch)
    _, problems = run.check(workload, workloads.DEFAULT_SEED, batch, phase.outcomes,
                            json.loads(run.GOLDEN.read_text())[workload])
    assert problems == []
    metrics = run.layer_metrics(tracer, phase, phase)
    silent = [name for name in EXPECTED[workload] if not metrics[name][0]]
    assert silent == []
    for name in BYPASSED.get(workload, ()):
        assert metrics[name][0] == 0, name


def test_uninstall_restores_every_reference():
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if name.startswith("dunklpoly")}
    mul = sys.modules["dunklpoly.exactnum"].LaurentPoly.__mul__
    tracer = run.Tracer()
    tracer.install()
    assert sys.modules["dunklpoly.suites"].generate_monic is not \
        sys.modules["dunklpoly.families"].generate_monic.__wrapped__
    tracer.uninstall()
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[key] is value for key, value in before.items()), name
    assert sys.modules["dunklpoly.exactnum"].LaurentPoly.__mul__ is mul
    assert sys.modules["dunklpoly.exactnum"].LaurentPoly.__rmul__ is mul


def test_every_target_exists():
    tracer = run.Tracer()
    tracer.install()
    tracer.uninstall()
    assert {name for _, _, name, _ in TARGETS} <= set(tracer.stats)


@pytest.mark.parametrize("workload", ["fresh-exact", "float-quad"])
def test_streams_are_seeded_parseable_and_unshared(workload):
    parser = cli.build_parser()
    batch = workloads.requests(workload, 7, 3)
    assert batch == workloads.requests(workload, 7, 3)
    assert batch != workloads.requests(workload, 8, 3)
    seen = set()
    for request in batch:
        parser.parse_args(request.argv)       # exits on a malformed argv
        for arg in request.argv:
            if arg.startswith("--") and "=" in arg:
                value = Fraction(arg.split("=", 1)[1])
                assert value not in seen, arg
                seen.add(value)


def test_negative_rationals_are_attached_to_their_flag():
    batch = workloads.requests("fresh-exact", 3, 2)
    negatives = [a for r in batch for a in r.argv if "=-" in a]
    assert negatives
    assert not any(a.startswith("-") and a[1].isdigit() for r in batch for a in r.argv)


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(i) for i in range(40)]
    value, percentile, samples = run.tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert (percentile, samples) == (75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _outcome(status, rows):
    return run.Outcome(status, json.dumps(rows).encode(), "", 0.0, 0.0, (0.0, 0.0))


def test_digest_ignores_millis_only():
    request = workloads.Request(("x",), 1, "eigencheck")
    row = {"suite": "eigencheck", "outcome": "exact_pass", "millis": 1.0}
    a = _outcome(0, [row])
    assert run.digest(request, a) == run.digest(request, _outcome(0, [{**row, "millis": 2.5}]))
    assert run.digest(request, a)[1] == ""
    assert run.digest(request, _outcome(0, [{**row, "outcome": "fail"}]))[0] is None
    assert run.digest(request, _outcome(2, []))[0] is None


def test_sampler_runs_during_work_and_its_time_is_known():
    import speed

    sampler = speed.Sampler()
    with sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.6:
            sum(range(1000))
    assert len(sampler.samples) >= 3
    assert 0 < sampler.paused_cpu and 0 < sampler.paused < 0.6
    assert all(f > 0 for f in sampler.factors() + sampler.factors(start, start + 0.1))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
