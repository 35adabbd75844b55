"""Seeded request streams for the three benchmark workloads.

A request is the argv of one ``dunklpoly`` command-line call, plus what a
correct answer looks like (how many records, which targets).  The program
sees only the argv.  Every rational parameter is written ``--name=p/q``:
argparse reads a separate ``-3/5`` as a flag and would exit 2.

The measured phase of a seeded workload is a number of *passes*.  Every pass
has the same composition (the same subcommands, operators and caps in the
same order) and freshly drawn parameters, so no two requests of a run share
a parameter value and a cache keyed on inputs never hits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Set, Tuple

WORKLOADS = ("pinned-suite", "fresh-exact", "float-quad")

DEFAULT_SEED = 0
DEFAULT_SECONDS = 30

# Wall time of one pass of a seeded workload at the seed commit on a 2-core
# x86-64 box.  Used only to turn --seconds into a fixed number of passes, so
# the work of a run depends on --seconds and never on how fast the program
# runs.
NOMINAL_PASS_S = {"fresh-exact": 8.5, "float-quad": 6.0}


@dataclass(frozen=True)
class Request:
    """One CLI call and the record shape a correct answer has."""

    argv: Tuple[str, ...]
    records: int          # expected number of verification records
    suite: str            # expected ``suite`` field of every record


def passes_for(workload: str, seconds: int) -> int:
    """Number of passes measured for a given --seconds (at least one).

    ``pinned-suite`` always runs one pass: a second ``suite --all`` in the
    same process could be served by a process-wide cache filled by the
    first, which no user of the command line ever sees.
    """
    if workload == "pinned-suite":
        return 1
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


class _Draw:
    """Rationals from a seed, none repeated within one stream."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.used: Set[Fraction] = set()

    def rational(self, lo: Fraction, hi: Fraction, nonzero: bool = False) -> Fraction:
        while True:
            q = self.rng.randint(2, 24)
            p = self.rng.randint(int(lo * q) + 1, int(hi * q))
            value = Fraction(p, q)
            if lo < value <= hi and value not in self.used and (value or not nonzero):
                self.used.add(value)
                return value

    def pythagorean(self) -> Fraction:
        """c in (-1, 1) with 1 - c^2 a rational square (exact kernel map)."""
        while True:
            m = self.rng.randint(2, 40)
            n = self.rng.randint(1, m - 1)
            if gcd(m, n) != 1 or (m - n) % 2 == 0:
                continue
            legs = (m * m - n * n, 2 * m * n)
            value = Fraction(self.rng.choice(legs), m * m + n * n)
            value *= self.rng.choice((1, -1))
            if value not in self.used:
                self.used.add(value)
                return value


def _flags(params: Dict[str, Fraction]) -> Tuple[str, ...]:
    return tuple(f"--{name}={value}" for name, value in params.items())


F = Fraction
POS = (F(0), F(3))            # alpha, beta, mu, a: weights stay integrable
HALF_UP = (F(1, 2), F(7, 2))  # hermite mu under quadrature: t^(mu-1/2) bounded
SIGNED = (F(-1), F(1))        # gamma, r1, r2: either sign, never zero
EPS = (F(-3), F(3))
RHO = (F(1, 2), F(7, 2))      # cbi rho1, rho2: keeps rho1 + rho2 - r1 - r2 > 0

# Degree caps, 1.5 to 2 times the pinned suite caps (16, cbi 12, Gaussian
# 12, algebra 12, transform 12).  The cheaper operators get the higher caps,
# so the seven sweeps take about the same time and the median request of a
# run falls inside their cluster rather than on its edge.
EIGEN_CAPS = {"chihara_D": 24, "cbi_K": 18, "gegenbauer_W": 32,
              "gegenbauer_Q": 32, "y_Z": 24, "gh_Omega": 32,
              "gh_OmegaTilde": 24}
ALGEBRA_CAP = 18
TRANSFORM_CAP = 24


def _eigen_params(token: str, d: _Draw) -> Dict[str, Fraction]:
    pos = lambda: d.rational(*POS)            # noqa: E731
    signed = lambda: d.rational(*SIGNED, nonzero=True)  # noqa: E731
    eps = lambda: d.rational(*EPS)            # noqa: E731
    if token == "chihara_D":
        return {"alpha": pos(), "beta": pos(), "gamma": signed(), "eps": eps()}
    if token == "cbi_K":
        return {"rho1": d.rational(*RHO), "rho2": d.rational(*RHO),
                "r1": d.rational(F(-1, 2), F(1, 2), nonzero=True),
                "r2": d.rational(F(-1, 2), F(1, 2), nonzero=True),
                "alpha": eps()}
    if token == "gegenbauer_W":
        return {"alpha": pos(), "beta": pos(), "eps": eps()}
    if token == "gegenbauer_Q":
        return {"mu": pos(), "a": pos()}
    if token == "y_Z":
        return {"mu": pos(), "gamma": signed(), "eps": eps()}
    return {"mu": pos(), "eps": eps()}


def fresh_exact_pass(d: _Draw) -> List[Request]:
    """Every eigen-operator token, both algebra tables twice, one transform.

    Algebra requests are a third of the pass, so the tail percentile of a
    run falls inside their latency cluster rather than on its edge.
    """
    out = []
    for token, cap in EIGEN_CAPS.items():
        argv = ("eigencheck", "--operator", token,
                *_flags(_eigen_params(token, d)), "--cap", str(cap))
        out.append(Request(argv, cap + 1, "eigencheck"))
    for _ in range(2):
        chihara = {"alpha": d.rational(*POS), "beta": d.rational(*POS),
                   "gamma": d.rational(*SIGNED, nonzero=True),
                   "eps": d.rational(*EPS, nonzero=True)}
        hermite = {"mu": d.rational(*POS), "gamma": d.rational(*SIGNED, nonzero=True),
                   "eps": d.rational(*EPS, nonzero=True)}
        out.append(Request(("algebra", "--which", "chihara", *_flags(chihara),
                            "--cap", str(ALGEBRA_CAP)), 6, "algebra"))
        out.append(Request(("algebra", "--which", "ext_hermite", *_flags(hermite),
                            "--cap", str(ALGEBRA_CAP)), 6, "algebra"))
    transform = {"a": d.rational(*POS), "b": d.rational(*POS), "c": d.pythagorean()}
    out.append(Request(("transform", *_flags(transform), "--cap", str(TRANSFORM_CAP)),
                       4, "transform"))
    return out


QUAD_FAMILIES = ("chihara", "gegenbauer", "ext_hermite", "gen_hermite")
# Caps per reduced weight (Jacobi for chihara and gegenbauer, Laguerre for
# the Hermite families), chosen so each kind of request costs about the same
# on either weight: the median falls inside the gram and Pearson cluster and
# the tail inside the norms cluster.
GRAM_CAP = {"jacobi": 30, "laguerre": 40}
NORM_CAP = {"jacobi": 36, "laguerre": 50}
NORM_EXACT_CAP = 60
PEARSON_SAMPLES = 4000
LIMIT_CAP = 12
SMALLEST_STEP = 1e-6          # below this the last two errors sit in rounding noise


def _quad_family(name: str, d: _Draw) -> Tuple[str, ...]:
    """Parameters with nonnegative weight exponents, as the Gauss rules and
    their moment validation assume."""
    if name == "chihara":
        params = {"alpha": d.rational(*POS), "beta": d.rational(*POS),
                  "gamma": d.rational(*SIGNED, nonzero=True)}
    elif name == "gegenbauer":
        params = {"alpha": d.rational(*POS), "beta": d.rational(*POS)}
    elif name == "ext_hermite":
        params = {"mu": d.rational(*HALF_UP), "gamma": d.rational(*SIGNED, nonzero=True)}
    else:
        params = {"mu": d.rational(*HALF_UP)}
    return ("--family", name, *_flags(params))


def _step_grid(d: _Draw) -> str:
    """A geometric grid finer than the default 1e-3,1e-4,1e-5, down to 1e-6."""
    first = d.rng.choice((2e-3, 1e-3, 5e-4))
    ratio = d.rng.choice((0.5, 0.25, 0.2))
    steps = [first]
    while steps[-1] * ratio >= SMALLEST_STEP:
        steps.append(steps[-1] * ratio)
    return ",".join(repr(h) for h in steps)


def float_quad_pass(d: _Draw) -> List[Request]:
    """Gram and norm checks on every quadrature family, Pearson, all limits."""
    out = []
    for name in QUAD_FAMILIES:
        weight = "jacobi" if name in ("chihara", "gegenbauer") else "laguerre"
        out.append(Request(("gram", *_quad_family(name, d),
                            "--cap", str(GRAM_CAP[weight])), 1, "gram"))
        out.append(Request(("norms", *_quad_family(name, d), "--cap", str(NORM_CAP[weight]),
                            "--exact-cap", str(NORM_EXACT_CAP)), 2, "norms"))
    for _ in range(2):
        out.append(Request(("pearson", *_quad_family("chihara", d),
                            "--samples", str(PEARSON_SAMPLES)), 2, "pearson"))
    for case in ("cbi_h_to_0", "bigq_q_to_minus1", "chihara_beta_to_inf"):
        out.append(Request(("limits", "--case", case, "--steps", _step_grid(d),
                            "--cap", str(LIMIT_CAP)), 1, "limits"))
    return out


PINNED = Request(("suite", "--all"), 135, "")


def requests(workload: str, seed: int, passes: int) -> List[Request]:
    """The requests of a workload's measured phase, ``passes`` passes long."""
    if workload == "pinned-suite":
        return [PINNED] * passes
    make = {"fresh-exact": fresh_exact_pass, "float-quad": float_quad_pass}[workload]
    draw = _Draw(seed)
    return [request for _ in range(passes) for request in make(draw)]
