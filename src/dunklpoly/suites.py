"""The check layer: one function per check, and the pinned suites over it.

Each check is one function over one instance that returns its records:
``eigen_sweep`` (per degree), ``algebra_records``, ``gram_records``,
``norm_records``, ``pearson_records``, ``transform_records`` and
``limit_check``.  The ``suite_*`` functions run the checks over fixed,
named parameter sets (module constants, so the command-line runner, the
tests, and the acceptance gate all exercise literally the same instances),
and the command-line handlers run the same functions over the parameters a
user gives.  One instance therefore yields the same records either way.
What each eigen-operator token and each algebra means (parameter names,
builder, eigenvalue, family, default cap) is data in
``dunklop.EIGEN_OPERATORS`` and ``dunklop.ALGEBRAS``; the checks here and
the command line read it from there.

Design notes
------------
* Exact checks (construction equivalence, eigen-equations, algebra
  relations, the Jacobi connection, transform round-trips) produce
  ``exact_pass``/``fail`` records: the residual is an exact object and the
  test is ``is_zero`` / ``==``, never a float comparison.
* Float checks (Gram matrices, norm ratios, weight reflection samples,
  limit convergence orders) produce ``float_pass``/``fail`` records whose
  residual and tolerance are recorded verbatim.
* Every record carries the wall time of the work behind it, measured with
  ``report.stopwatch``.
* A float check that leaves the double range names the family and the
  degree or sample point in its ``ArithmeticError`` (``_in_double_range``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .dunklop import (
    ALGEBRAS,
    EIGEN_OPERATORS,
    DunklOperator,
    GaussianPoly,
    build_operator,
    eigencheck,
    expected_eigenvalue,
    term,
    verify_algebra,
)
from .exactnum import LaurentPoly, NotDivisible, NotPolynomial, RatFunc
from .families import (
    CLASSICAL,
    FAMILIES,
    FamilySpec,
    big_m1_jacobi_family,
    chihara_family,
    explicit_poly,
    ext_hermite_family,
    gegenbauer_family,
    gen_hermite_family,
    generate_monic,
    monic_list,
)
from .limits import (
    BETA_LIMIT_DEFAULTS,
    LIMIT_CASES,
    NOISE_FLOOR,
    LimitReport,
    run_limit,
)
from .quad import (
    gram_matrix,
    gram_offdiag_worst,
    inner_product,
    norm_ratio_check,
    norm_ratio_exact,
    raw_inner_product,
    verify_pearson,
    weight_for,
)
from .report import (
    VerificationRecord,
    exact_record,
    float_record,
    format_params,
    stopwatch,
)
from .transforms import (
    christoffel,
    geronimus,
    kernel_map,
    kernel_recurrence_coeffs,
    kernel_to_chihara,
    split_ratios,
)

__all__ = [
    "ALL_SUITES",
    "SUITE_NAMES",
    "run_suites",
    "eigen_sweep",
    "algebra_records",
    "gram_records",
    "norm_records",
    "pearson_records",
    "transform_records",
    "limit_check",
    "weight_samples",
    "suite_construction",
    "suite_eigen",
    "suite_algebra",
    "suite_jacobi",
    "suite_orthogonality",
    "suite_norms",
    "suite_pearson",
    "suite_transform",
    "suite_limits",
    "suite_negative_controls",
]

F = Fraction

# --------------------------------------------------------------------------
# Pinned parameter sets.  These mirror the fixed instances used throughout
# the unit tests so every layer verifies the same objects.

CHIHARA_SETS: Tuple[Tuple[Fraction, Fraction, Fraction], ...] = (
    (F(1), F(1), F(1, 2)),
    (F(1, 2), F(3, 4), F(1, 3)),
    (F(2), F(3), F(-2, 5)),
)

CBI_SETS: Tuple[Tuple[Fraction, Fraction, Fraction, Fraction], ...] = (
    (F(1), F(2), F(1, 3), F(1, 5)),
    (F(3, 2), F(1, 2), F(1, 4), F(-1, 3)),
    (F(2), F(1), F(-1, 2), F(1, 7)),
)

GEGENBAUER_SETS: Tuple[Tuple[Fraction, Fraction], ...] = (
    (F(1), F(1)),
    (F(1, 2), F(2)),
    (F(3, 4), F(5, 4)),
)

EXT_HERMITE_SETS: Tuple[Tuple[Fraction, Fraction], ...] = (
    (F(3, 2), F(1, 2)),
    (F(1, 2), F(1, 3)),
    (F(5, 2), F(-1, 4)),
)

GEN_HERMITE_MUS: Tuple[Fraction, ...] = (F(1, 2), F(3, 2), F(5, 2))

# (mu, a) choices for the squared Dunkl operator; the matching polynomial
# family is gegenbauer_family(mu - 1/2, a).
GEGENBAUER_Q_SETS: Tuple[Tuple[Fraction, Fraction], ...] = (
    (F(3, 2), F(3, 4)),
    (F(1, 2), F(1)),
    (F(5, 4), F(1, 2)),
)

EIGEN_EPS: Tuple[Fraction, ...] = (F(0), F(2, 3), F(5))
ALGEBRA_EPS: Tuple[Fraction, ...] = (F(2, 3), F(5))

JACOBI_SETS: Tuple[Tuple[Fraction, Fraction, Fraction], ...] = (
    (F(1), F(1), F(1, 2)),
    (F(1, 2), F(3, 4), F(-1, 3)),
    (F(2), F(3), F(2, 7)),
)

PEARSON_SETS: Tuple[Tuple[Fraction, Fraction, Fraction], ...] = (
    (F(1), F(2), F(1, 3)),
    (F(1), F(1), F(1, 2)),
    (F(1, 2), F(3, 4), F(1, 3)),
    (F(2), F(3), F(-2, 5)),
    (F(3), F(1), F(2, 7)),
)

TRANSFORM_SETS: Tuple[Tuple[Fraction, Fraction, Fraction], ...] = (
    (F(1), F(1), F(3, 5)),
    (F(1, 2), F(3, 4), F(5, 13)),
    (F(2), F(1), F(5, 13)),
)

GRAM_TOLERANCE = 1e-10
REDUCTION_TOLERANCE = 1e-8
NORM_TOLERANCE = 1e-10
REFLECTION_TOLERANCE = 1e-12
ORDER_TOLERANCE = 0.2
CONSTANT_SPREAD_TOLERANCE = 0.5

# Degree caps, per criterion.
CONSTRUCTION_CAPS: Tuple[Tuple[str, int], ...] = (
    ("chihara", 16),
    ("cbi", 12),
    ("gegenbauer", 16),
    ("ext_hermite", 16),
    ("gen_hermite", 16),
)
ALGEBRA_CAP = 12
JACOBI_CAP = 8
GRAM_CAP = 12
NORM_CAP = 12
NORM_EXACT_CAP = 30
PEARSON_SAMPLES = 20
TRANSFORM_CAP = 12
LIMIT_DEGREE_CAP = 6


# The pinned eigen instances, in record order: (token, parameter values in
# the order of EIGEN_OPERATORS[token].params).
EIGEN_CASES: Tuple[Tuple[str, Tuple[Fraction, ...]], ...] = (
    *(("chihara_D", (*abc, eps)) for abc in CHIHARA_SETS for eps in EIGEN_EPS),
    *(("cbi_K", (*rhos, F(2, 3))) for rhos in CBI_SETS),
    *(("gegenbauer_W", (*ab, eps)) for ab in GEGENBAUER_SETS for eps in EIGEN_EPS),
    *(("gegenbauer_Q", mu_a) for mu_a in GEGENBAUER_Q_SETS),
    *(("y_Z", (*mu_gamma, eps)) for mu_gamma in EXT_HERMITE_SETS for eps in EIGEN_EPS),
    *((token, (mu, eps)) for mu in GEN_HERMITE_MUS for eps in EIGEN_EPS
      for token in ("gh_Omega", "gh_OmegaTilde")),
)


@contextmanager
def _in_double_range(family: FamilySpec, where: str) -> Iterator[None]:
    """Raise an ``ArithmeticError`` again, same type, naming the family and
    ``where`` (the degree or sample point) it left the double range."""
    try:
        yield
    except ArithmeticError as exc:
        raise type(exc)(f"{family.name}({family.label()}) {where}: {exc}") from exc


def _quadrature_families() -> Tuple[FamilySpec, ...]:
    """The fixed families used for Gram-matrix and norm-ratio checks."""

    return (
        chihara_family(F(1), F(1), F(1, 2)),
        chihara_family(F(1, 2), F(3, 4), F(-1, 3)),
        gegenbauer_family(F(1), F(1)),
        gegenbauer_family(F(1, 2), F(2)),
        ext_hermite_family(F(3, 2), F(1, 2)),
        ext_hermite_family(F(1, 2), F(1, 3)),
        gen_hermite_family(F(1, 2)),
        gen_hermite_family(F(3, 2)),
    )


_CONSTRUCTION_SETS: Dict[str, Tuple[Tuple[Fraction, ...], ...]] = {
    "chihara": CHIHARA_SETS,
    "cbi": CBI_SETS,
    "gegenbauer": GEGENBAUER_SETS,
    "ext_hermite": EXT_HERMITE_SETS,
    "gen_hermite": tuple((mu,) for mu in GEN_HERMITE_MUS),
}


# --------------------------------------------------------------------------
# Criterion: explicit hypergeometric formulas match the recurrence exactly.


def suite_construction() -> List[VerificationRecord]:
    records: List[VerificationRecord] = []
    for name, cap in CONSTRUCTION_CAPS:
        for params in _CONSTRUCTION_SETS[name]:
            family = FAMILIES[name].build(*params)
            with stopwatch() as ms:
                polys = generate_monic(family, cap)
                ok = all(explicit_poly(family, n) == polys[n] for n in range(cap + 1))
            records.append(
                exact_record(
                    "construction",
                    family.name,
                    family.label(),
                    f"0..{cap}",
                    millis=ms[0],
                    passed=ok,
                    residual="nonzero",
                )
            )
    return records


# --------------------------------------------------------------------------
# Criterion: every operator/eigenvalue pairing holds with literal zero
# residual on the matching polynomial family.


def eigen_sweep(
    token: str,
    params: Mapping[str, Fraction],
    cap: int,
    operator: Optional[DunklOperator] = None,
) -> Iterator[Tuple[int, Fraction, bool, str, float]]:
    """Check the eigen-equation of ``token`` on P_0..P_cap, degree by degree.

    Yields ``(n, eigenvalue, ok, residual, millis)`` per degree, where
    ``residual`` is ``"0"``, ``"nonzero"`` or ``"not a polynomial"``.
    ``operator`` replaces the operator built from ``token`` and ``params``;
    the negative controls pass a corrupted one.
    """
    spec = EIGEN_OPERATORS[token]
    if operator is None:
        operator = build_operator(token, **params)
    for n, poly in enumerate(generate_monic(spec.family(params), cap)):
        with stopwatch() as ms:
            eigenvalue = expected_eigenvalue(token, n, **params)
            vector = GaussianPoly(poly) if spec.gaussian else poly
            try:
                ok = eigencheck(operator, vector, eigenvalue).is_zero
                residual = "0" if ok else "nonzero"
            except NotPolynomial:
                ok, residual = False, "not a polynomial"
        yield n, eigenvalue, ok, residual, ms[0]


def _eigen_record(token: str, params: Mapping[str, Fraction]) -> VerificationRecord:
    """The sweep to the token's default cap, stopped at the first failure."""
    cap = EIGEN_OPERATORS[token].cap
    passed, residual = True, "0"
    with stopwatch() as ms:
        for n, _, ok, why, _ in eigen_sweep(token, params, cap):
            if not ok:
                passed, residual = False, f"{why} at n={n}"
                break
    return exact_record(
        "eigen",
        token,
        format_params(params.items()),
        f"0..{cap}",
        millis=ms[0],
        passed=passed,
        residual=residual,
    )


def suite_eigen() -> List[VerificationRecord]:
    return [
        _eigen_record(token, dict(zip(EIGEN_OPERATORS[token].params, values)))
        for token, values in EIGEN_CASES
    ]


# --------------------------------------------------------------------------
# Criterion: the structure-relation identities hold on all monomials up to
# the degree cap, for several parameter sets and reflection weights.


def algebra_records(
    which: str, cap: int, params: Mapping[str, Fraction]
) -> List[VerificationRecord]:
    """One record per structure relation of the ``which`` operator algebra.

    Each record carries the measured wall time of its own relation.
    """
    reports = verify_algebra(which, cap, **params)
    label = format_params(params.items())
    return [
        exact_record(
            "algebra",
            f"{which}:{report.relation}",
            label,
            f"0..{report.degree_cap}",
            millis=report.millis,
            passed=report.passed,
            residual=f"first failure at degree {report.first_failure}",
        )
        for report in reports
    ]


def suite_algebra() -> List[VerificationRecord]:
    cases = [("chihara", (*abc, eps)) for abc in CHIHARA_SETS for eps in ALGEBRA_EPS]
    cases += [("ext_hermite", (*mu_gamma, eps))
              for mu_gamma in EXT_HERMITE_SETS for eps in ALGEBRA_EPS]
    records: List[VerificationRecord] = []
    for which, values in cases:
        params = dict(zip(ALGEBRAS[which].params, values))
        with stopwatch() as ms:
            reports = verify_algebra(which, ALGEBRA_CAP, **params)
        bad = next((r.relation for r in reports if not r.passed), None)
        records.append(
            exact_record(
                "algebra",
                which,
                format_params(params.items()),
                f"0..{ALGEBRA_CAP}",
                millis=ms[0],
                passed=bad is None,
                residual=f"fails {bad}",
            )
        )
    return records


# --------------------------------------------------------------------------
# Criterion: even/odd halves of the Chihara family are monic Jacobi
# polynomials in t = x^2 - gamma^2.


def suite_jacobi() -> List[VerificationRecord]:
    records: List[VerificationRecord] = []
    x = LaurentPoly.x()
    for alpha, beta, gamma in JACOBI_SETS:
        family = chihara_family(alpha, beta, gamma)
        tag, a, b = FAMILIES["chihara"].reduced(family.p)
        recurrence = CLASSICAL[tag].recurrence
        with stopwatch() as ms:
            polys = generate_monic(family, 2 * JACOBI_CAP + 1)
            t = x * x - LaurentPoly.const(gamma * gamma)
            even = monic_list(partial(recurrence, a, b), JACOBI_CAP)
            odd = monic_list(partial(recurrence, a + 1, b), JACOBI_CAP)
            residual = "0"
            for n in range(JACOBI_CAP + 1):
                if polys[2 * n] != even[n].compose(t):
                    residual = f"even half fails at n={n}"
                    break
                if polys[2 * n + 1] != (x - gamma) * odd[n].compose(t):
                    residual = f"odd half fails at n={n}"
                    break
        records.append(
            exact_record(
                "jacobi",
                "chihara",
                family.label(),
                f"0..{2 * JACOBI_CAP + 1}",
                millis=ms[0],
                passed=residual == "0",
                residual=residual,
            )
        )
    return records


# --------------------------------------------------------------------------
# Criterion: quadrature Gram matrices are diagonal to tolerance, and the
# closed-form moment reduction agrees with direct adaptive integration.


def gram_records(
    family: FamilySpec,
    cap: int = GRAM_CAP,
    tolerance: float = GRAM_TOLERANCE,
    suite: str = "orthogonality",
) -> List[VerificationRecord]:
    """Worst off-diagonal entry of the quadrature Gram matrix of P_0..P_cap."""
    with stopwatch() as ms, _in_double_range(family, f"Gram matrix 0..{cap}"):
        worst = gram_offdiag_worst(gram_matrix(family, cap))
    return [
        float_record(
            suite,
            family.name,
            family.label(),
            f"0..{cap}",
            residual=worst,
            tolerance=tolerance,
            millis=ms[0],
        )
    ]


def suite_orthogonality() -> List[VerificationRecord]:
    records: List[VerificationRecord] = []
    for family in _quadrature_families():
        records += gram_records(family)
    # Cross-check the quadrature reduction against a direct adaptive
    # integral on generic (non-orthogonal) integrands.
    probe = LaurentPoly({0: F(1), 2: F(1), 3: F(1)})
    mate = LaurentPoly({1: F(1), 2: F(1)})
    for alpha, beta, gamma in ((F(1), F(1), F(1, 2)), (F(1, 2), F(3, 4), F(1, 3))):
        family = chihara_family(alpha, beta, gamma)
        with stopwatch() as ms:
            spec = weight_for(family)
            reduced = inner_product(spec, probe, mate)
            raw = raw_inner_product(spec, probe, mate)
            rel = abs(reduced - raw) / max(abs(raw), 1e-300)
        records.append(
            float_record(
                "orthogonality",
                "reduction-oracle",
                family.label(),
                "integrand deg 3",
                residual=rel,
                tolerance=REDUCTION_TOLERANCE,
                millis=ms[0],
            )
        )
    return records


# --------------------------------------------------------------------------
# Criterion: norm ratios from quadrature match the closed forms, and the
# closed-form ratio equals the recurrence coefficient exactly.


def norm_records(
    family: FamilySpec,
    cap: int = NORM_CAP,
    exact_cap: int = NORM_EXACT_CAP,
    tolerance: float = NORM_TOLERANCE,
) -> List[VerificationRecord]:
    """Quadrature norm ratios against the closed form for n = 1..cap, then
    the closed form against the recurrence coefficient for n = 1..exact_cap."""
    with stopwatch() as ms:
        worst = 0.0
        spec = weight_for(family)
        for n in range(1, cap + 1):
            with _in_double_range(family, f"norm ratio at degree {n}"):
                exact, quad = norm_ratio_check(spec, n)
                worst = max(worst, abs(quad / float(exact) - 1.0))
    records = [
        float_record(
            "norms",
            family.name,
            family.label(),
            f"1..{cap}",
            residual=worst,
            tolerance=tolerance,
            millis=ms[0],
        )
    ]
    with stopwatch() as ms:
        ok = all(
            norm_ratio_exact(family, n) == family.sub(n)
            for n in range(1, exact_cap + 1)
        )
    records.append(
        exact_record(
            "norms",
            family.name + "-ratio-identity",
            family.label(),
            f"1..{exact_cap}",
            millis=ms[0],
            passed=ok,
            residual="nonzero",
        )
    )
    return records


def suite_norms() -> List[VerificationRecord]:
    return [r for family in _quadrature_families() for r in norm_records(family)]


# --------------------------------------------------------------------------
# Criterion: the weight satisfies its first-order distributional equation
# exactly, and reflected samples agree to float tolerance.


def pearson_records(
    family: FamilySpec,
    samples: int = PEARSON_SAMPLES,
    tolerance: float = REFLECTION_TOLERANCE,
) -> List[VerificationRecord]:
    """The exact weight equation and the reflection samples of one weight.

    Both come from one ``verify_pearson`` call; each record carries the
    measured wall time of its own condition (``PearsonReport.ode_millis``,
    ``PearsonReport.reflection_millis``).
    """
    with _in_double_range(family, "Pearson conditions"):
        report = verify_pearson(family, samples_per_side=samples, tolerance=tolerance)
    return [
        exact_record(
            "pearson",
            "weight-equation",
            family.label(),
            "weight",
            millis=report.ode_millis,
            passed=report.ode_exact,
            residual="nonzero",
        ),
        float_record(
            "pearson",
            "reflection-samples",
            family.label(),
            f"{report.reflection_samples} points",
            residual=report.reflection_worst,
            tolerance=tolerance,
            millis=report.reflection_millis,
        ),
    ]


def weight_samples(family: FamilySpec, points: int) -> List[Tuple[float, float]]:
    """(x, w(x)) at ``points`` midpoints of each support component.

    A midpoint at x = 0 where the weight has a factor |x|^e with e < 0 (an
    integrable singularity) is reported as ``inf``.
    """
    spec = weight_for(family)
    rows = []
    for x in spec.midpoints(points):
        with _in_double_range(family, f"weight at x={x!r}"):
            try:
                value = spec.weight_value(x)
            except ZeroDivisionError:
                if x != 0.0:
                    raise
                value = math.inf
            rows.append((x, value))
    return rows


def suite_pearson() -> List[VerificationRecord]:
    return [r for abc in PEARSON_SETS for r in pearson_records(chihara_family(*abc))]


# --------------------------------------------------------------------------
# Criterion: Christoffel/Geronimus round trip, evaluation identity at the
# transform point, and the exact kernel-to-Chihara parameter map.


def transform_records(
    a: Fraction,
    b: Fraction,
    c: Fraction,
    cap: int = TRANSFORM_CAP,
) -> List[VerificationRecord]:
    """Kernel-transform checks on big -1 Jacobi (a, b, c) up to degree cap.

    All four are exact for every rational c with |c| < 1: the round trip,
    the evaluation identity, the Chihara map (the kernels against the
    rescaled Chihara list, built from a recurrence that needs only
    1 - c^2), and the coefficient identity (1 - c^2) sigma_n = A_n C_n.
    """
    family = big_m1_jacobi_family(a, b, c)
    label = family.label()
    with stopwatch() as ms:
        polys = generate_monic(family, cap + 1)
        a_ratios, c_ratios = split_ratios(family, cap + 1)
        kernels = christoffel(polys, a_ratios)
        back = geronimus(kernels, c_ratios)
        ok = all(back[n] == polys[n] for n in range(len(back)))
    records = [exact_record("transform", "roundtrip", label, f"0..{len(back) - 1}",
                            millis=ms[0], passed=ok, residual="nonzero")]
    with stopwatch() as ms:
        ok = all(
            polys[n + 1].evaluate(F(1)) == a_ratios[n] * polys[n].evaluate(F(1))
            for n in range(cap + 1)
        )
    records.append(exact_record("transform", "evaluation-at-one", label, f"0..{cap}",
                                millis=ms[0], passed=ok, residual="nonzero"))
    kmap = kernel_map(a, b, c)
    with stopwatch() as ms:
        ok = all(r.is_zero for r in kernel_to_chihara(kmap, kernels))
    records.append(exact_record("transform", "chihara-map", label,
                                f"0..{len(kernels) - 1}", millis=ms[0], passed=ok,
                                residual="nonzero"))
    with stopwatch() as ms:
        sigma = chihara_family(kmap.alpha, kmap.beta, 0)
        ok = all(
            sigma.sub(n) * (1 - c * c) == kernel_recurrence_coeffs(a, b, c, n)[1]
            for n in range(1, cap + 1)
        )
    records.append(exact_record("transform", "coefficient-identity", label, f"1..{cap}",
                                millis=ms[0], passed=ok, residual="nonzero"))
    return records


def suite_transform() -> List[VerificationRecord]:
    return [r for abc in TRANSFORM_SETS for r in transform_records(*abc)]


# --------------------------------------------------------------------------
# Criterion: the three contraction limits converge monotonically with
# empirical order near one, and the scaled-coefficient constant is stable.


def limit_check(
    limit_id: str,
    degree_cap: int = LIMIT_DEGREE_CAP,
    steps: Optional[Sequence[float]] = None,
    tolerance: float = ORDER_TOLERANCE,
    label: Optional[str] = None,
) -> Tuple[LimitReport, VerificationRecord]:
    """Run one contraction limit at its default source parameters.

    The record's residual is the worst ``|order - 1|`` over the computable
    empirical orders, or 1.0 when the errors do not decay monotonically or
    no order is computable.  ``label`` defaults to the source parameters at
    the first step.
    """
    builder, _ = LIMIT_CASES[limit_id]
    with stopwatch() as ms:
        report = run_limit(builder(degree_cap=degree_cap, steps=steps))
    orders = [o for o in (*report.poly_orders, report.coeff_order, report.overall_order)
              if o is not None]
    if report.monotone_ok and orders:
        residual = max(abs(o - 1.0) for o in orders)
    else:
        residual = 1.0
    if label is None:
        label = format_params(report.results[0].source_params)
    record = float_record("limits", limit_id, label, f"0..{degree_cap}",
                          residual=residual, tolerance=tolerance, millis=ms[0])
    return report, record


def suite_limits() -> List[VerificationRecord]:
    records: List[VerificationRecord] = []
    reports: Dict[str, LimitReport] = {}
    for limit_id, (_, defaults) in LIMIT_CASES.items():
        reports[limit_id], record = limit_check(
            limit_id, label=format_params(defaults.items()))
        records.append(record)
    # Stability of the scaled sub-coefficient constant for the large-beta
    # contraction: max_n beta * |sigma_n(beta) - theta_n / beta| should stay
    # bounded by the same constant on every step of the grid.
    with stopwatch() as ms:
        constants = []
        for result in reports["chihara_beta_to_inf"].results:
            relevant = [e for e in result.sub_errors if e > NOISE_FLOOR]
            if relevant:
                constants.append(max(relevant) / result.step)
        finite = all(math.isfinite(c) for c in constants) and len(constants) >= 2
        spread = (max(constants) / min(constants) - 1.0) if finite else float("inf")
    records.append(
        float_record(
            "limits",
            "beta-constant-stability",
            format_params(BETA_LIMIT_DEFAULTS.items()),
            f"{len(constants)} steps",
            residual=spread if finite else 1.0,
            tolerance=CONSTANT_SPREAD_TOLERANCE,
            millis=ms[0],
        )
    )
    return records


# --------------------------------------------------------------------------
# Criterion: deliberately broken inputs are detected.  A record passes when
# the corruption is caught, so the suite is green exactly when the checks
# have teeth.


def suite_negative_controls() -> List[VerificationRecord]:
    records: List[VerificationRecord] = []

    # Perturb the reflection-free first-derivative term of the eigenvalue
    # operator by one unit and confirm the eigen-equation check fails.
    alpha, beta, gamma = CHIHARA_SETS[0]
    params = {"alpha": alpha, "beta": beta, "gamma": gamma, "eps": F(2, 3)}
    with stopwatch() as ms:
        bad = build_operator("chihara_D", **params) + DunklOperator(
            (term(RatFunc.of(LaurentPoly.const(F(-1)), 2 * LaurentPoly.x()), k=1),)
        )
        detected = not all(
            ok for _, _, ok, _, _ in eigen_sweep("chihara_D", params, 4, operator=bad)
        )
    records.append(
        exact_record(
            "negative-controls",
            "perturbed-eigen-operator",
            format_params(params.items()),
            "0..4",
            millis=ms[0],
            passed=detected,
            residual="undetected",
        )
    )

    # Perturb one Christoffel ratio by one unit and confirm the kernel
    # construction rejects the now-inconsistent division.
    a, b, c = TRANSFORM_SETS[0]
    fam = big_m1_jacobi_family(a, b, c)
    with stopwatch() as ms:
        polys = generate_monic(fam, 6)
        a_ratios, _ = split_ratios(fam, 6)
        corrupted = list(a_ratios)
        corrupted[2] = corrupted[2] + 1
        detected = False
        try:
            christoffel(polys, corrupted)
        except NotDivisible:
            detected = True
    records.append(
        exact_record(
            "negative-controls",
            "perturbed-transform-ratio",
            fam.label(),
            "0..5",
            millis=ms[0],
            passed=detected,
            residual="undetected",
        )
    )
    return records


# --------------------------------------------------------------------------
# Runner.


ALL_SUITES: Dict[str, Callable[[], List[VerificationRecord]]] = {
    "construction": suite_construction,
    "eigen": suite_eigen,
    "algebra": suite_algebra,
    "jacobi": suite_jacobi,
    "orthogonality": suite_orthogonality,
    "norms": suite_norms,
    "pearson": suite_pearson,
    "transform": suite_transform,
    "limits": suite_limits,
    "negative-controls": suite_negative_controls,
}

SUITE_NAMES: Tuple[str, ...] = tuple(ALL_SUITES)


def run_suites(names: Optional[Iterable[str]] = None) -> List[VerificationRecord]:
    """Run the named suites (all by default), in order, and return their records."""

    chosen = list(SUITE_NAMES) if names is None else list(names)
    unknown = [name for name in chosen if name not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown suite name(s): {', '.join(unknown)}")
    return [record for name in chosen for record in ALL_SUITES[name]()]
