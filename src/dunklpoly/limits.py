"""Floating-point verification of three limit processes between families.

Three degenerations are checked, each by running the source family's monic
recurrence at a decreasing sequence of step parameters, rescaling to the
target normalization, and measuring coefficient errors against the exact
target polynomials:

* ``cbi_h_to_0`` -- complementary Bannai-Ito at ``rho1 = a1/h + b1``,
  ``rho2 = a2/h + b2``, ``r1 = a1/h``, ``r2 = a2/h`` contracts, under
  ``x -> s x / h`` with ``s = sqrt(a1^2 - a2^2)`` and monic renormalization,
  to the Chihara family with ``alpha = b2 - 1/2``, ``beta = b1 + 1/2``,
  ``gamma = a2 / s``.

* ``bigq_q_to_minus1`` -- big q-Jacobi at ``q = -e^eps``,
  ``qalpha = e^{2 eps beta}``, ``qbeta = -e^{eps(2 alpha + 1)}``,
  ``qgamma = -g`` contracts, as ``eps -> 0`` and under
  ``x -> x sqrt(1 - g^2)``, to the Chihara family with parameters
  ``(alpha, beta, g / sqrt(1 - g^2))``.

* ``chihara_beta_to_inf`` -- Chihara at ``(mu - 1/2, beta, gamma/sqrt(beta))``
  contracts, as ``beta -> infinity`` and under ``x -> x / sqrt(beta)`` with
  coefficient scaling ``beta^{n/2}``, to the one-parameter extension of the
  generalized Hermite family with parameters ``(mu, gamma)``.  Here both the
  polynomial limit and the recurrence-coefficient limits
  ``beta * sigma_{2m} -> m`` and ``beta * sigma_{2m+1} -> m + mu + 1/2``
  are measured.

All three are verified in floating point: the substitutions involve ``e^eps``
and ``1/h`` scalings that have no exact rational form, while the exact target
polynomials are converted to float for the comparison.  Each report carries
the per-degree error ``e(h)`` at every step plus the empirical convergence
order ``p = log(e(h)/e(rh)) / log(1/r)``, which for all three processes sits
at 1 to within a few parts in 1e4 on the default grids, and their residual,
which ``suites.limit_check`` compares with its tolerance.  A deliberately
wrong parameter map (``qgamma = +g``, a negative control in the tests) fails
that way: the odd-degree errors plateau at order ~0, so the decay is not
monotone and the residual is 1.0.

The weight functions themselves are not limits of the source weights, so no
weight-level check is attempted here.

The exact targets are built at their stated Chihara parameters, which
contain ``s`` itself (``gamma = a2/s``, ``g/s``), so ``cbi_h_to_0`` and
``bigq_q_to_minus1`` need ``s`` rational and raise ``IrrationalScale``
otherwise; the default grids use Pythagorean choices (``a1=5, a2=3``;
``g=3/5``).  Building the targets in the rescaled variable, as
``transforms.kernel_to_chihara`` does, would need only ``s^2``.

``LIMIT_CASES`` holds one entry per limit id: its default source
parameters as exact rationals, and its parameter map.  The map checks the
parameters and returns the exact target ``FamilySpec`` and the step map,
which takes a step to a ``SourceStep``: the source ``FamilySpec`` at float
parameters (its coefficients come from the table in ``families``) and the
rescale factor ``sigma``.  ``limit_case`` merges given parameters over an
entry's defaults and builds the ``LimitCase``, on ``DEFAULT_STEPS`` unless
given a grid; ``LimitCase`` validates every grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

from .exactnum import Scalar, _as_fraction
from .families import (
    DegenerateParameters,
    FamilySpec,
    chihara_family,
    ext_hermite_family,
    float_monic,
    generate_monic,
)


class IrrationalScale(ValueError):
    """The rescale factor s is irrational; the exact target needs it rational."""


def _rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """The exact square root of a nonnegative rational, or None."""
    if value < 0:
        return None
    num_root = math.isqrt(value.numerator)
    den_root = math.isqrt(value.denominator)
    if num_root * num_root == value.numerator and den_root * den_root == value.denominator:
        return Fraction(num_root, den_root)
    return None


#: Default step grid: 1e-3, 1e-4, 1e-5 (as ``1e-3 * 0.1**k``).
DEFAULT_STEPS: Tuple[float, ...] = tuple(1e-3 * 0.1**k for k in range(3))

#: Default degree cap of every case, and the highest degree whose errors
#: ``run_limit`` requires to decay.
LIMIT_DEGREE_CAP = 6

#: Errors at or below this magnitude are treated as float rounding noise and
#: exempted from monotonicity and order checks (e.g. the beta->inf diagonal,
#: which the rescaling reproduces exactly up to 1-2 ulp).
NOISE_FLOOR = 1e-13

_GEOMETRIC_RTOL = 1e-9


class DegenerateStep(RuntimeError):
    """A source recurrence denominator vanished (or overflowed) at a step."""


@dataclass(frozen=True)
class SourceStep:
    """The source family at one step value: its ``FamilySpec`` at float
    parameters, whose ``params`` the record echoes, and the rescale factor
    ``sigma`` such that ``sigma^{-n} P_n(sigma x)`` is compared to the target.
    """

    family: FamilySpec
    rescale: float


#: What a parameter map returns: the exact target and the step map.
LimitMap = Tuple[FamilySpec, Callable[[float], SourceStep]]


def _source(name: str, params: Dict[str, float], rescale: float) -> SourceStep:
    return SourceStep(FamilySpec(name, tuple(sorted(params.items()))), rescale)


@dataclass(frozen=True)
class LimitCase:
    """One limit process: source model per step, exact target, step grid."""

    source: Callable[[float], SourceStep]
    target: FamilySpec
    degree_cap: int
    steps: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.degree_cap < 1:
            raise ValueError("degree cap must be at least 1")
        steps = tuple(float(h) for h in self.steps)
        object.__setattr__(self, "steps", steps)
        if len(steps) < 3:
            raise ValueError("a limit case needs at least 3 steps")
        if not all(math.isfinite(h) and h > 0 for h in steps):
            raise ValueError("step values must be finite and positive")
        ratios = [b / a for a, b in zip(steps, steps[1:])]
        if any(r >= 1 for r in ratios):
            raise ValueError("step sequence must be strictly decreasing")
        first = ratios[0]
        if any(abs(r - first) > _GEOMETRIC_RTOL * first for r in ratios):
            raise ValueError("step sequence must be geometric (constant ratio)")


# -- the limit table: each parameter map takes exact rationals -----------------


def _cbi_map(a1: Fraction, a2: Fraction, b1: Fraction, b2: Fraction) -> LimitMap:
    """Complementary Bannai-Ito ``h -> 0`` contraction to Chihara.

    Requires ``a1^2 - a2^2 > 0`` and rational ``s = sqrt(a1^2 - a2^2)`` so
    the target ``chihara(b2 - 1/2, b1 + 1/2, a2/s)`` has exact parameters.
    """
    s_squared = a1 * a1 - a2 * a2
    if s_squared <= 0:
        raise ValueError("cbi_h_to_0 requires a1^2 - a2^2 > 0")
    s = _rational_sqrt(s_squared)
    if s is None:
        raise IrrationalScale(
            f"sqrt({s_squared}) is irrational; pick a1, a2 with a rational gap"
        )
    target = chihara_family(b2 - Fraction(1, 2), b1 + Fraction(1, 2), a2 / s)
    a1f, a2f, b1f, b2f, sf = float(a1), float(a2), float(b1), float(b2), float(s)

    def source(h: float) -> SourceStep:
        p = {"rho1": a1f / h + b1f, "rho2": a2f / h + b2f, "r1": a1f / h, "r2": a2f / h}
        return _source("cbi", p, sf / h)

    return target, source


def _bigq_map(alpha: Fraction, beta: Fraction, g: Fraction) -> LimitMap:
    """Big q-Jacobi ``q -> -1`` contraction to Chihara.

    Requires ``|g| < 1`` and rational ``sqrt(1 - g^2)`` so the target
    ``chihara(alpha, beta, g/sqrt(1-g^2))`` has exact parameters.
    """
    if abs(g) >= 1:
        raise ValueError("bigq_q_to_minus1 requires |g| < 1")
    s = _rational_sqrt(1 - g * g)
    if s is None:
        raise IrrationalScale(
            f"sqrt(1 - {g}^2) is irrational; pick g from a Pythagorean pair"
        )
    target = chihara_family(alpha, beta, g / s)
    alphaf, betaf, gf, sf = float(alpha), float(beta), float(g), float(s)

    def source(eps: float) -> SourceStep:
        p = {
            "qalpha": math.exp(2 * eps * betaf),
            "qbeta": -math.exp(eps * (2 * alphaf + 1)),
            "qgamma": -gf,
            "q": -math.exp(eps),
        }
        return _source("big_q_jacobi", p, sf)

    return target, source


def _beta_map(mu: Fraction, gamma: Fraction) -> LimitMap:
    """Chihara ``beta -> infinity`` contraction to the extended Hermite family.

    The step parameter is ``h = 1/beta``; the source runs at
    ``chihara(mu - 1/2, 1/h, gamma * sqrt(h))`` and is compared under
    ``x -> x sqrt(h)`` with coefficient scaling ``h^{-n/2}`` against the
    target ``ext_hermite(mu, gamma)``.
    """
    target = ext_hermite_family(mu, gamma)
    alphaf, gammaf = float(mu) - 0.5, float(gamma)

    def source(h: float) -> SourceStep:
        root_h = math.sqrt(h)
        p = {"alpha": alphaf, "beta": 1.0 / h, "gamma": gammaf * root_h}
        return _source("chihara", p, root_h)

    return target, source


#: The limit table: id -> (default source parameters, parameter map).
LIMIT_CASES: Dict[str, Tuple[Dict[str, Fraction], Callable[..., LimitMap]]] = {
    "cbi_h_to_0": (
        {"a1": Fraction(5), "a2": Fraction(3), "b1": Fraction(3, 2), "b2": Fraction(1, 2)},
        _cbi_map,
    ),
    "bigq_q_to_minus1": (
        {"alpha": Fraction(1), "beta": Fraction(1), "g": Fraction(3, 5)},
        _bigq_map,
    ),
    "chihara_beta_to_inf": ({"mu": Fraction(3, 2), "gamma": Fraction(1, 2)}, _beta_map),
}
LIMIT_IDS = tuple(LIMIT_CASES)


def limit_case(
    limit_id: str,
    degree_cap: int = LIMIT_DEGREE_CAP,
    steps: Optional[Sequence[float]] = None,
    **params: Scalar,
) -> LimitCase:
    """The ``LIMIT_CASES`` entry ``limit_id`` at its default source
    parameters, with ``params`` over them, on ``DEFAULT_STEPS`` unless given
    a grid.  A parameter the entry does not name is a ``TypeError``.
    """
    defaults, parameter_map = LIMIT_CASES[limit_id]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise TypeError(f"{limit_id} has no parameter {unknown[0]!r}")
    merged = {name: _as_fraction(params.get(name, value)) for name, value in defaults.items()}
    target, source = parameter_map(**merged)
    return LimitCase(source, target, degree_cap, DEFAULT_STEPS if steps is None else steps)


# -- running a case -----------------------------------------------------------


@dataclass(frozen=True)
class StepResult:
    """Errors measured at one step value.

    ``poly_errors[n]`` is the max absolute coefficient error of the rescaled
    source polynomial of degree ``n`` against the target polynomial;
    ``diag_errors[n]``/``sub_errors[n]`` compare the rescaled recurrence
    coefficients ``diag_src(n)/sigma`` and ``sub_src(n)/sigma^2`` against the
    target's ``diag(n)`` and ``sub(n)``.
    """

    step: float
    source_params: Tuple[Tuple[str, float], ...]
    poly_errors: Tuple[float, ...]
    diag_errors: Tuple[float, ...]
    sub_errors: Tuple[float, ...]

    @property
    def max_poly_error(self) -> float:
        return max(self.poly_errors)

    @property
    def max_coeff_error(self) -> float:
        return max(max(self.diag_errors), max(self.sub_errors))


@dataclass(frozen=True)
class LimitReport:
    """Per-step errors, empirical orders, and the residual they give.

    Orders are Richardson quotients ``log(e(h)/e(rh))/log(1/r)`` from the
    final step pair; entries are ``None`` where either error sits at or below
    ``NOISE_FLOOR`` (already at rounding noise, order meaningless).
    ``monotone_ok``: the errors of degrees up to
    ``min(cap, LIMIT_DEGREE_CAP)`` and of the
    coefficients decay after the first step.  ``residual``: the worst
    ``|order - 1|`` over every computable order, or 1.0 when the decay is
    not monotone or no order is computable.
    """

    results: Tuple[StepResult, ...]
    poly_orders: Tuple[Optional[float], ...]
    coeff_order: Optional[float]
    overall_order: Optional[float]
    monotone_ok: bool
    residual: float


def _probe(fn: Callable[[int], float], n: int, step: float, what: str) -> float:
    try:
        value = float(fn(n))
    except DegenerateParameters:
        raise DegenerateStep(
            f"source {what}({n}) denominator vanishes at step {step:g}"
        ) from None
    if not math.isfinite(value):
        raise DegenerateStep(f"source {what}({n}) is not finite at step {step:g}")
    return value


def _order(coarse: float, fine: float, ratio: float) -> Optional[float]:
    if coarse <= NOISE_FLOOR or fine <= NOISE_FLOOR:
        return None
    return math.log(coarse / fine) / math.log(1.0 / ratio)


def _monotone_after_first(series: Sequence[float]) -> bool:
    for k in range(1, len(series) - 1):
        if series[k + 1] > NOISE_FLOOR and series[k + 1] >= series[k]:
            return False
    return True


def run_limit(case: LimitCase) -> LimitReport:
    """Run one limit case over its step grid and measure convergence.

    For each step: build the source family's monic polynomials by the float
    three-term recurrence, rescale them to the target normalization
    (coefficient ``j`` of degree ``n`` picks up ``sigma^{j-n}``), and record
    per-degree coefficient errors plus the rescaled recurrence-coefficient
    errors.  Raises ``DegenerateStep`` if a source denominator vanishes, a
    source parameter or rescale power overflows, the rescale factor squared
    underflows to zero, or an error is not finite.
    """
    cap = case.degree_cap
    target_polys = generate_monic(case.target, cap)
    tcoeffs = [[float(P.coeff(j)) for j in range(n + 1)] for n, P in enumerate(target_polys)]
    tdiag = [float(case.target.diag(n)) for n in range(cap + 1)]
    tsub = [float(case.target.sub(n)) for n in range(cap + 1)]

    results = []
    for h in case.steps:
        try:
            model = case.source(h)
        except OverflowError:
            raise DegenerateStep(f"source parameters overflow at step {h:g}") from None
        sigma = model.rescale
        if not math.isfinite(sigma) or sigma <= 0:
            raise DegenerateStep(f"rescale factor degenerate at step {h:g}")
        source = model.family
        diag = [_probe(source.diag, n, h, "diag") for n in range(cap + 1)]
        sub = [_probe(source.sub, n, h, "sub") for n in range(cap + 1)]
        polys = float_monic(diag, sub, cap)
        try:
            poly_errors = tuple(
                max(
                    abs(polys[n][j] * sigma ** (j - n) - tcoeffs[n][j])
                    for j in range(n + 1)
                )
                for n in range(cap + 1)
            )
        except OverflowError:
            raise DegenerateStep(
                f"rescale factor power overflows at step {h:g}"
            ) from None
        if sigma * sigma == 0:
            raise DegenerateStep(f"rescale factor squared underflows at step {h:g}")
        diag_errors = tuple(abs(diag[n] / sigma - tdiag[n]) for n in range(cap + 1))
        sub_errors = tuple(
            abs(sub[n] / (sigma * sigma) - tsub[n]) for n in range(cap + 1)
        )
        if not all(map(math.isfinite, poly_errors + diag_errors + sub_errors)):
            raise DegenerateStep(f"a coefficient error is not finite at step {h:g}")
        results.append(
            StepResult(h, source.params, poly_errors, diag_errors, sub_errors)
        )

    ratio = case.steps[-1] / case.steps[-2]
    coarse, fine = results[-2], results[-1]
    poly_orders = tuple(
        _order(coarse.poly_errors[n], fine.poly_errors[n], ratio)
        for n in range(cap + 1)
    )
    coeff_order = _order(coarse.max_coeff_error, fine.max_coeff_error, ratio)
    overall_order = _order(coarse.max_poly_error, fine.max_poly_error, ratio)

    tracked = range(1, min(cap, LIMIT_DEGREE_CAP) + 1)
    monotone_ok = all(
        _monotone_after_first([r.poly_errors[n] for r in results]) for n in tracked
    ) and _monotone_after_first([r.max_coeff_error for r in results])

    orders = [o for o in (*poly_orders, coeff_order, overall_order) if o is not None]
    residual = max(abs(o - 1.0) for o in orders) if monotone_ok and orders else 1.0

    return LimitReport(
        results=tuple(results),
        poly_orders=poly_orders,
        coeff_order=coeff_order,
        overall_order=overall_order,
        monotone_ok=monotone_ok,
        residual=residual,
    )
