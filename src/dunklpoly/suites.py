"""The check layer: one function per check, and the pinned suites over it.

Each public check is one function over one instance that returns its records:
``eigen_records`` (per degree), ``algebra_records`` (per relation),
``gram_records``, ``norm_records``, ``pearson_records``,
``transform_records`` and ``limit_check``.  The ``suite_*`` functions run
the checks over fixed, named parameter sets and pass the module constants
(caps, tolerances, sample counts) at call time, so the command-line
runner, the tests, and the acceptance gate all exercise literally the same
instances; the command-line handlers run the same functions over the
parameters a user gives.  The ``eigen`` and ``algebra`` suites fold the
records of one instance into one, timed as a whole, whose residual names
the first failing degree or relation.  Every pass or fail is decided here,
where a record is built and timed; the command line builds no record,
the functions of ``dunklop`` and ``quad`` return measurements only, and
no module below this one runs a stopwatch.
What each eigen-operator token and each algebra means (parameter names,
builder, eigenvalue, family, default cap) is data in
``dunklop.EIGEN_OPERATORS`` and ``dunklop.ALGEBRAS``; the checks here and
the command line read it from there.

Design notes
------------
* Behind each record is one check: a private function that returns the
  record's residual (nested in ``transform_records``, whose four checks
  share the round trip's lists).  An exact check (construction
  equivalence, eigen-equations, algebra relations, the Jacobi connection,
  the weight equation, transform round-trips, exact norm ratios, the
  negative controls) tests with
  ``is_zero`` / ``==``, never a float comparison, and returns ``"0"`` when
  it holds, else what failed: ``"nonzero"``, ``"not a polynomial"``,
  ``"even half fails at n=..."``, ``"undetected"``.  A float check (Gram
  matrices, norm ratios, the reflection samples, the reduction oracle)
  returns the measured float.
* Two builders, ``_timed_exact`` and ``_timed_float``, run one check under
  one ``report.stopwatch`` and build its record, so every record carries
  the wall time of the work behind it.  An exact record passes exactly
  when its residual is ``"0"``; a float record when its residual is at
  most the tolerance, both recorded verbatim.  Only ``limit_check`` and
  the beta-stability record keep a stopwatch of their own, because their
  label and degree count come from the run they time.
* A float check that leaves the double range names the family and the
  degree or sample point in its ``ArithmeticError`` (``_in_double_range``).

One run
-------
What one run shares is decided here alone, by ``RunMemo``; every suite
and every check that builds a shared object takes one.  ``run_batches``
is the one runner (``run_suites`` and the ``suite`` command both go
through it) and gives every suite of a run the same memo; each
single-check command passes a fresh one.  A memo holds the exact objects
that several checks need, keyed by exact value: the monic list P_0..P_N of
each ``FamilySpec`` (the longest one generated so far serves every shorter
request, and each caller gets its own list), one ``quad.WeightSpec`` per
family, which keeps the family's float recurrence, over one
``quad.ClassicalWeight`` per reduced weight, which keeps the Gauss rules
it builds by size, and one operator per ``EIGEN_OPERATORS`` token and
parameters and one involution P per gamma.  An operator keeps its quotient
table, so the ``eigen``, ``algebra`` and ``negative-controls`` suites fill
one table per operator: the Chihara operator of an eigen case is the K of
the algebra at the same parameters, and the negative control adds its bad
term to the shared operator, which makes a new one.  The first check that
needs a shared object builds it, and its record's ``millis`` includes that
work; the later checks reuse it.  Nothing outlives the memo.  An algebra
check also keeps one memo of operator images across its own relations
(``dunklop.algebra_relations``); those images are not shared further.
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
    Applier,
    DunklOperator,
    EigenOperator,
    GaussianPoly,
    algebra_relations,
    build_operator,
    eigencheck,
    parity_involution,
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
    pearson_weight_equation,
)
from .limits import (
    LIMIT_CASES,
    LIMIT_DEGREE_CAP,
    NOISE_FLOOR,
    LimitReport,
    limit_case,
    run_limit,
)
from .quad import (
    ClassicalWeight,
    WeightSpec,
    gram_matrix,
    gram_offdiag_worst,
    inner_product,
    norm_ratio_check,
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
    kernel_to_chihara,
    split_ratios,
)

__all__ = [
    "ALL_SUITES",
    "SUITE_NAMES",
    "RunMemo",
    "run_batches",
    "run_suites",
    "suite_names",
    "eigen_records",
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


class RunMemo:
    """The exact objects that the checks of one run share, keyed by exact
    value: monic lists and one ``WeightSpec`` per ``FamilySpec``, one
    ``ClassicalWeight`` per reduced weight, and one operator per
    eigen-operator token and parameters and one involution per gamma, each
    with its quotient table.
    Two memos share nothing.

    ``generate_monic``, ``build_operator`` and ``parity_involution`` are
    called by their names at call time, so a wrapper put in their place is
    called too.
    """

    def __init__(self) -> None:
        self._monic: Dict[FamilySpec, List[LaurentPoly]] = {}
        self._weights: Dict[ClassicalWeight, ClassicalWeight] = {}
        self._specs: Dict[FamilySpec, WeightSpec] = {}
        self._operators: Dict[Tuple[object, ...], DunklOperator] = {}
        self._involutions: Dict[Fraction, DunklOperator] = {}

    def monic(self, family: FamilySpec, N: int) -> List[LaurentPoly]:
        """A list of its own holding P_0..P_N of ``family``."""
        polys = self._monic.get(family)
        if polys is None or len(polys) <= N:
            polys = self._monic[family] = generate_monic(family, N)
        return polys[: N + 1]

    def weight(self, family: FamilySpec) -> WeightSpec:
        """The run's one ``quad.weight_for(family)``, over the run's one
        ``ClassicalWeight`` for the family's reduced weight."""
        spec = self._specs.get(family)
        if spec is None:
            reduced = weight_for(family).classical_weight
            reduced = self._weights.setdefault(reduced, reduced)
            spec = self._specs[family] = WeightSpec(family, reduced)
        return spec

    def operator(self, token: str, params: Mapping[str, Fraction]) -> DunklOperator:
        """The run's one ``build_operator(token, **params)`` for an
        ``EIGEN_OPERATORS`` token and exact parameters."""
        key = (token, *(params[name] for name in EIGEN_OPERATORS[token].params))
        op = self._operators.get(key)
        if op is None:
            op = self._operators[key] = build_operator(token, **params)
        return op

    def involution(self, gamma: Fraction) -> DunklOperator:
        """The run's one ``parity_involution(gamma)``."""
        op = self._involutions.get(gamma)
        if op is None:
            op = self._involutions[gamma] = parity_involution(gamma)
        return op


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


def _timed_exact(suite: str, target: str, params: str, degrees: str,
                 check: Callable[..., str], *args: object) -> VerificationRecord:
    """The record of ``check(*args)``, an exact residual, timed."""
    with stopwatch() as ms:
        residual = check(*args)
    return exact_record(suite, target, params, degrees, ms[0], residual)


def _timed_float(suite: str, target: str, params: str, degrees: str, tolerance: float,
                 check: Callable[..., float], *args: object) -> VerificationRecord:
    """The record of ``check(*args)``, a float residual against ``tolerance``, timed."""
    with stopwatch() as ms:
        residual = check(*args)
    return float_record(suite, target, params, degrees, residual, tolerance, ms[0])


_CONSTRUCTION_SETS: Dict[str, Tuple[Tuple[Fraction, ...], ...]] = {
    "chihara": CHIHARA_SETS,
    "cbi": CBI_SETS,
    "gegenbauer": GEGENBAUER_SETS,
    "ext_hermite": EXT_HERMITE_SETS,
    "gen_hermite": tuple((mu,) for mu in GEN_HERMITE_MUS),
}


# --------------------------------------------------------------------------
# Criterion: explicit hypergeometric formulas match the recurrence exactly.


def _construction(family: FamilySpec, cap: int, memo: RunMemo) -> str:
    polys = memo.monic(family, cap)
    ok = all(explicit_poly(family, n) == polys[n] for n in range(cap + 1))
    return "0" if ok else "nonzero"


def suite_construction(memo: RunMemo) -> List[VerificationRecord]:
    records: List[VerificationRecord] = []
    for name, cap in CONSTRUCTION_CAPS:
        for params in _CONSTRUCTION_SETS[name]:
            family = FAMILIES[name].build(*params)
            records.append(_timed_exact("construction", family.name, family.label(),
                                        f"0..{cap}", _construction, family, cap, memo))
    return records


# --------------------------------------------------------------------------
# Criterion: every operator/eigenvalue pairing holds with literal zero
# residual on the matching polynomial family.


def eigen_records(
    token: str,
    params: Mapping[str, Fraction],
    cap: int,
    memo: RunMemo,
    operator: Optional[DunklOperator] = None,
) -> List[VerificationRecord]:
    """The eigen-equation of ``token`` on P_0..P_cap: one record per degree.

    A failing record's residual is ``"nonzero"`` or ``"not a polynomial"``.
    ``params`` are exact.  ``operator`` replaces the memo's operator for
    ``token`` and ``params``; the negative controls pass a corrupted one.
    The operator and the polynomials come from ``memo``.
    """
    spec = EIGEN_OPERATORS[token]
    family = spec.family(params)
    label = family.label()
    if operator is None:
        operator = memo.operator(token, params)
    return [_timed_exact("eigencheck", token, label, str(n), _eigen_equation,
                         spec, params, operator, n, poly)
            for n, poly in enumerate(memo.monic(family, cap))]


def _eigen_equation(spec: EigenOperator, params: Mapping[str, Fraction],
                    operator: DunklOperator, n: int, poly: LaurentPoly) -> str:
    eigenvalue = spec.eigenvalue(*divmod(n, 2), params)
    vector = GaussianPoly(poly) if spec.gaussian else poly
    try:
        return "0" if eigencheck(operator, vector, eigenvalue).is_zero else "nonzero"
    except NotPolynomial:
        return "not a polynomial"


def _first_failure(check: Callable[[], List[VerificationRecord]],
                   why: Callable[[VerificationRecord], str]) -> str:
    first = next((r for r in check() if r.outcome == "fail"), None)
    return why(first) if first else "0"


def _summary(suite: str, target: str, params: Mapping[str, Fraction], cap: int,
             check: Callable[[], List[VerificationRecord]],
             why: Callable[[VerificationRecord], str]) -> VerificationRecord:
    """One record for the records of ``check()``, timed as a whole: it
    passes when they all pass, else ``why`` names the first that fails."""
    return _timed_exact(suite, target, format_params(params.items()), f"0..{cap}",
                        _first_failure, check, why)


def suite_eigen(memo: RunMemo) -> List[VerificationRecord]:
    records: List[VerificationRecord] = []
    for token, values in EIGEN_CASES:
        spec = EIGEN_OPERATORS[token]
        params = dict(zip(spec.params, values))
        records.append(_summary("eigen", token, params, spec.cap,
                                partial(eigen_records, token, params, spec.cap, memo),
                                lambda r: f"{r.residual} at n={r.degrees}"))
    return records


# --------------------------------------------------------------------------
# Criterion: the structure-relation identities hold on all monomials up to
# the degree cap, for several parameter sets and reflection weights.


def algebra_records(
    which: str, cap: int, params: Mapping[str, Fraction], memo: RunMemo
) -> List[VerificationRecord]:
    """One record per structure relation of the ``which`` operator algebra,
    in table order; a relation's record includes the operator images that
    it is the first to need (``dunklop.algebra_relations``).  K and P come
    from ``memo``."""
    label = format_params(params.items())
    K = memo.operator(ALGEBRAS[which].operator, params)
    P = memo.involution(params["gamma"])
    return [_timed_exact("algebra", f"{which}:{name}", label, f"0..{cap}",
                         _relation_holds, lhs, rhs, cap)
            for name, lhs, rhs in algebra_relations(which, K, P, **params)]


def _relation_holds(lhs: Applier, rhs: Applier, cap: int) -> str:
    first = verify_algebra(lhs, rhs, cap)
    return "0" if first is None else f"first failure at degree {first}"


def suite_algebra(memo: RunMemo) -> List[VerificationRecord]:
    cases = [("chihara", (*abc, eps)) for abc in CHIHARA_SETS for eps in ALGEBRA_EPS]
    cases += [("ext_hermite", (*mu_gamma, eps))
              for mu_gamma in EXT_HERMITE_SETS for eps in ALGEBRA_EPS]
    records: List[VerificationRecord] = []
    for which, values in cases:
        params = dict(zip(ALGEBRAS[which].params, values))
        records.append(_summary("algebra", which, params, ALGEBRA_CAP,
                                partial(algebra_records, which, ALGEBRA_CAP, params, memo),
                                lambda r: f"fails {r.target.split(':', 1)[1]}"))
    return records


# --------------------------------------------------------------------------
# Criterion: even/odd halves of the Chihara family are monic Jacobi
# polynomials in t = x^2 - gamma^2.


def _jacobi_halves(family: FamilySpec, cap: int, memo: RunMemo, x: LaurentPoly,
                   recurrence: Callable[..., Tuple[Fraction, Fraction]],
                   a: Fraction, b: Fraction) -> str:
    gamma = family.p["gamma"]
    polys = memo.monic(family, 2 * cap + 1)
    t = x * x - LaurentPoly.const(gamma * gamma)
    even = monic_list(partial(recurrence, a, b), cap)
    odd = monic_list(partial(recurrence, a + 1, b), cap)
    for n in range(cap + 1):
        if polys[2 * n] != even[n].compose(t):
            return f"even half fails at n={n}"
        if polys[2 * n + 1] != (x - gamma) * odd[n].compose(t):
            return f"odd half fails at n={n}"
    return "0"


def suite_jacobi(memo: RunMemo) -> List[VerificationRecord]:
    records: List[VerificationRecord] = []
    x = LaurentPoly.x()
    for alpha, beta, gamma in JACOBI_SETS:
        family = chihara_family(alpha, beta, gamma)
        tag, a, b = FAMILIES["chihara"].reduced(family.p)
        records.append(_timed_exact("jacobi", "chihara", family.label(),
                                    f"0..{2 * JACOBI_CAP + 1}", _jacobi_halves, family,
                                    JACOBI_CAP, memo, x, CLASSICAL[tag].recurrence, a, b))
    return records


# --------------------------------------------------------------------------
# Criterion: quadrature Gram matrices are diagonal to tolerance, and the
# closed-form moment reduction agrees with direct adaptive integration.


def gram_records(
    family: FamilySpec,
    memo: RunMemo,
    cap: int,
    tolerance: float,
    suite: str,
) -> List[VerificationRecord]:
    """Worst off-diagonal entry of the quadrature Gram matrix of P_0..P_cap."""
    return [_timed_float(suite, family.name, family.label(), f"0..{cap}", tolerance,
                         _gram_worst, family, memo, cap)]


def _gram_worst(family: FamilySpec, memo: RunMemo, cap: int) -> float:
    with _in_double_range(family, f"Gram matrix 0..{cap}"):
        return gram_offdiag_worst(gram_matrix(memo.weight(family), cap))


def _reduction_error(family: FamilySpec, memo: RunMemo, probe: LaurentPoly,
                     mate: LaurentPoly) -> float:
    spec = memo.weight(family)
    reduced = inner_product(spec, probe, mate)
    raw = raw_inner_product(spec, probe, mate)
    return abs(reduced - raw) / max(abs(raw), 1e-300)


def suite_orthogonality(memo: RunMemo) -> List[VerificationRecord]:
    records: List[VerificationRecord] = []
    for family in _quadrature_families():
        records += gram_records(family, memo, GRAM_CAP, GRAM_TOLERANCE, "orthogonality")
    # Cross-check the quadrature reduction against a direct adaptive
    # integral on generic (non-orthogonal) integrands.
    probe = LaurentPoly({0: F(1), 2: F(1), 3: F(1)})
    mate = LaurentPoly({1: F(1), 2: F(1)})
    for alpha, beta, gamma in ((F(1), F(1), F(1, 2)), (F(1, 2), F(3, 4), F(1, 3))):
        family = chihara_family(alpha, beta, gamma)
        records.append(_timed_float("orthogonality", "reduction-oracle", family.label(),
                                    "integrand deg 3", REDUCTION_TOLERANCE,
                                    _reduction_error, family, memo, probe, mate))
    return records


# --------------------------------------------------------------------------
# Criterion: norm ratios from quadrature match the recurrence coefficients
# sub(n), and sub(n) are exactly the norm ratios of the reduced weight.


def norm_records(
    family: FamilySpec,
    memo: RunMemo,
    cap: int,
    exact_cap: int,
    tolerance: float,
) -> List[VerificationRecord]:
    """Quadrature norm ratios against the recurrence coefficients sub(n) for
    n = 1..cap, then sub(n) against the reduced weight's own recurrence
    for n = 1..exact_cap."""
    label = family.label()
    return [
        _timed_float("norms", family.name, label, f"1..{cap}", tolerance,
                     _norm_ratio_worst, family, memo, cap),
        _timed_exact("norms", family.name + "-ratio-identity", label, f"1..{exact_cap}",
                     _norm_ratio_identity, family, exact_cap),
    ]


def _norm_ratio_worst(family: FamilySpec, memo: RunMemo, cap: int) -> float:
    worst = 0.0
    spec = memo.weight(family)
    for n in range(1, cap + 1):
        with _in_double_range(family, f"norm ratio at degree {n}"):
            worst = max(worst, abs(norm_ratio_check(spec, n) / float(family.sub(n)) - 1.0))
    return worst


def _norm_ratio_identity(family: FamilySpec, exact_cap: int) -> str:
    """The norm ratios h_n/h_(n-1) are sub(n) (Favard; Chihara 1978, ch. I)
    exactly when the reduced weight's recurrence is the even/odd split of
    the family's: diag_J(m) = sub(2m) + sub(2m+1), sub_J(m) = sub(2m-1)
    sub(2m).  From sub(1) = diag_J(0) = mu_1/mu_0 these fix sub(1..N).
    The residual names the first degree n that fails."""
    tag, *params = FAMILIES[family.name].reduced(family.p)
    recurrence = CLASSICAL[tag].recurrence
    odd = None  # sub(2m - 1), carried from the step before
    for m in range(exact_cap // 2 + 1):
        diag_j, sub_j = recurrence(*params, m)
        even = family.sub(2 * m)
        if m >= 1 and odd * even != sub_j:
            return f"fails at n={2 * m}"
        if 2 * m + 1 <= exact_cap:
            odd = family.sub(2 * m + 1)
            if even + odd != diag_j:
                return f"fails at n={2 * m + 1}"
    return "0"


def suite_norms(memo: RunMemo) -> List[VerificationRecord]:
    return [r for family in _quadrature_families()
            for r in norm_records(family, memo, NORM_CAP, NORM_EXACT_CAP, NORM_TOLERANCE)]


# --------------------------------------------------------------------------
# Criterion: the weight satisfies its first-order distributional equation
# exactly, and reflected samples agree to float tolerance.


def pearson_records(
    family: FamilySpec, samples: int, tolerance: float
) -> List[VerificationRecord]:
    """The exact weight equation and the reflection samples of one weight,
    ``samples`` on each of its two support components."""
    label = family.label()
    return [
        _timed_exact("pearson", "weight-equation", label, "weight",
                     _weight_equation, family),
        _timed_float("pearson", "reflection-samples", label, f"{2 * samples} points",
                     tolerance, _reflection_worst, family, samples),
    ]


def _weight_equation(family: FamilySpec) -> str:
    return "0" if pearson_weight_equation(family) else "nonzero"


def _reflection_worst(family: FamilySpec, samples: int) -> float:
    with _in_double_range(family, "Pearson conditions"):
        return verify_pearson(family, samples)


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


def suite_pearson(memo: RunMemo) -> List[VerificationRecord]:
    return [r for abc in PEARSON_SETS
            for r in pearson_records(chihara_family(*abc), PEARSON_SAMPLES,
                                     REFLECTION_TOLERANCE)]


# --------------------------------------------------------------------------
# Criterion: Christoffel/Geronimus round trip, evaluation identity at the
# transform point, and the exact kernel-to-Chihara parameter map.


def transform_records(
    a: Fraction,
    b: Fraction,
    c: Fraction,
    memo: RunMemo,
    cap: int,
) -> List[VerificationRecord]:
    """Kernel-transform checks on big -1 Jacobi (a, b, c) up to degree cap.

    All four are exact for every rational c with |c| < 1: the round trip,
    the evaluation identity, the Chihara map (the kernels against the
    rescaled Chihara list, built from a recurrence that needs only
    1 - c^2), and the coefficient identity (1 - c^2) sigma_n = A_n C_n.
    """
    family = big_m1_jacobi_family(a, b, c)
    label = family.label()
    # P_0..P_cap+1, their ratios and the kernels K_0..K_cap, built by the
    # round trip and read by the other three checks
    polys: List[LaurentPoly] = []
    a_ratios: List[Fraction] = []
    c_ratios: List[Fraction] = []
    kernels: List[LaurentPoly] = []

    def roundtrip() -> str:
        nonlocal polys, a_ratios, c_ratios, kernels
        polys = memo.monic(family, cap + 1)
        a_ratios, c_ratios = split_ratios(family, cap + 1)
        kernels = christoffel(polys, a_ratios)
        back = geronimus(kernels, c_ratios)
        return "0" if all(back[n] == polys[n] for n in range(len(back))) else "nonzero"

    def evaluation_at_one() -> str:
        ok = all(polys[n + 1].evaluate(F(1)) == a_ratios[n] * polys[n].evaluate(F(1))
                 for n in range(cap + 1))
        return "0" if ok else "nonzero"

    def chihara_map() -> str:
        return "0" if all(r.is_zero for r in kernel_to_chihara(kmap, kernels)) else "nonzero"

    def coefficient_identity() -> str:
        sigma = chihara_family(kmap.alpha, kmap.beta, 0)
        ok = all(sigma.sub(n) * (1 - c * c) == a_ratios[n] * c_ratios[n]
                 for n in range(1, cap + 1))
        return "0" if ok else "nonzero"

    records = [_timed_exact("transform", "roundtrip", label, f"0..{cap}", roundtrip),
               _timed_exact("transform", "evaluation-at-one", label, f"0..{cap}",
                            evaluation_at_one)]
    kmap = kernel_map(a, b, c)
    records.append(_timed_exact("transform", "chihara-map", label, f"0..{cap}", chihara_map))
    records.append(_timed_exact("transform", "coefficient-identity", label, f"1..{cap}",
                                coefficient_identity))
    return records


def suite_transform(memo: RunMemo) -> List[VerificationRecord]:
    return [r for abc in TRANSFORM_SETS for r in transform_records(*abc, memo, TRANSFORM_CAP)]


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

    The record passes when ``LimitReport.residual`` (the worst
    ``|order - 1|``, or 1.0 when the decay is not monotone or no order is
    computable) is at most ``tolerance``.  ``label`` defaults to the source
    parameters at the first step.
    """
    with stopwatch() as ms:
        report = run_limit(limit_case(limit_id, degree_cap, steps))
    if label is None:
        label = format_params(report.results[0].source_params)
    record = float_record("limits", limit_id, label, f"0..{degree_cap}",
                          residual=report.residual, tolerance=tolerance, millis=ms[0])
    return report, record


def suite_limits(memo: RunMemo) -> List[VerificationRecord]:
    records: List[VerificationRecord] = []
    reports: Dict[str, LimitReport] = {}
    for limit_id, (defaults, _) in LIMIT_CASES.items():
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
            format_params(LIMIT_CASES["chihara_beta_to_inf"][0].items()),
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


def _perturbed_eigen_operator(params: Mapping[str, Fraction], memo: RunMemo) -> str:
    """Perturb the reflection-free first-derivative term of the eigenvalue
    operator by one unit and confirm the eigen-equation check fails.  The
    sum is a new operator; the memo's stays as it was."""
    bad = memo.operator("chihara_D", params) + DunklOperator(
        (term(RatFunc.of(LaurentPoly.const(F(-1)), 2 * LaurentPoly.x()), k=1),)
    )
    records = eigen_records("chihara_D", params, 4, memo, operator=bad)
    return "0" if any(r.outcome == "fail" for r in records) else "undetected"


def _perturbed_transform_ratio(family: FamilySpec, memo: RunMemo) -> str:
    """Perturb one Christoffel ratio by one unit and confirm the kernel
    construction rejects the now-inconsistent division."""
    polys = memo.monic(family, 6)
    a_ratios, _ = split_ratios(family, 6)
    corrupted = list(a_ratios)
    corrupted[2] = corrupted[2] + 1
    try:
        christoffel(polys, corrupted)
    except NotDivisible:
        return "0"
    return "undetected"


def suite_negative_controls(memo: RunMemo) -> List[VerificationRecord]:
    alpha, beta, gamma = CHIHARA_SETS[0]
    params = {"alpha": alpha, "beta": beta, "gamma": gamma, "eps": F(2, 3)}
    family = big_m1_jacobi_family(*TRANSFORM_SETS[0])
    return [
        _timed_exact("negative-controls", "perturbed-eigen-operator",
                     format_params(params.items()), "0..4",
                     _perturbed_eigen_operator, params, memo),
        _timed_exact("negative-controls", "perturbed-transform-ratio", family.label(),
                     "0..5", _perturbed_transform_ratio, family, memo),
    ]


# --------------------------------------------------------------------------
# Runner.


ALL_SUITES: Dict[str, Callable[[RunMemo], List[VerificationRecord]]] = {
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


def suite_names(names: Optional[Iterable[str]] = None) -> Tuple[str, ...]:
    """The named suites (all by default), each a known name given once."""
    chosen = SUITE_NAMES if names is None else tuple(names)
    unknown = [repr(name) for name in chosen if name not in ALL_SUITES]
    repeated = [name for name in dict.fromkeys(chosen) if chosen.count(name) > 1]
    if unknown or repeated:
        bad = (f"unknown suite name(s) {', '.join(unknown)}" if unknown else
               f"suite name(s) given more than once: {', '.join(repeated)}")
        raise ValueError(f"{bad}; choose from {', '.join(SUITE_NAMES)}")
    return chosen


def run_batches(
    names: Optional[Iterable[str]] = None,
) -> Iterator[Tuple[str, List[VerificationRecord], float]]:
    """Run the named suites (all by default), in order, over one
    ``RunMemo``; yield each suite's name, records and measured wall time."""
    names = suite_names(names)
    memo = RunMemo()
    for name in names:
        with stopwatch() as ms:
            batch = ALL_SUITES[name](memo)
        yield name, batch, ms[0]


def run_suites(names: Optional[Iterable[str]] = None) -> List[VerificationRecord]:
    """Run the named suites (all by default), in order, and return their records."""
    return [record for _, batch, _ in run_batches(names) for record in batch]
