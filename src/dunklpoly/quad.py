"""Floating-point orthogonality verification through Gauss quadrature.

Everything here rests on one reduction.  The Chihara-type weights live on a
two-component symmetric set; writing a polynomial product as
``f(x) g(x) = E(x^2) + x O(x^2)`` and summing the two branches of the
support collapses the integral to a single classical weight on a half line
or unit interval:

* Chihara  ``theta(x)(x+gamma)(x^2-gamma^2)^alpha (1+gamma^2-x^2)^beta`` on
  ``[-sqrt(1+gamma^2), -|gamma|] U [|gamma|, sqrt(1+gamma^2)]`` reduces with
  ``t = x^2 - gamma^2`` to

      integral_0^1 t^alpha (1-t)^beta [E(t+gamma^2) + gamma O(t+gamma^2)] dt,

* the Laguerre-type families (``ext_hermite``, ``gen_hermite``) reduce the
  same way to ``exp(-gamma^2) integral_0^inf t^(mu-1/2) e^(-t) [...] dt``,
* the symmetric specializations (``gegenbauer``, ``gen_hermite``) are the
  ``gamma = 0`` cases, where the odd part drops out.

The reduced integrand is a polynomial in t, so a Gauss rule for the
classical weight integrates it exactly up to rounding.  The reduction is
validated in the test suite against a brute-force adaptive Simpson
integration of the raw two-interval integral.

Gauss rules are built from scratch (Golub & Welsch 1969): the Jacobi matrix
of the classical weight, its exact recurrence rounded once per
``ClassicalWeight``, is diagonalized by an implicit-shift QL iteration with
deflation at off-diagonal entries below 1e-15 of the matrix scale (sweep
cap 10^4).  Nodes are the eigenvalues, weights ``mu0`` times the squared
first eigenvector components; only that first row is rotated, so a rule
costs O(n^2).  Every node is checked by Sturm counts (the inertia of
``T - x I`` within 1e-12 of the scale on either side): one pass over the
rows runs the pivot chains of both brackets of a node, and every rule is
checked against closed-form moments up to degree ``min(2n-1, 8)``.

The formulas are data in ``families``: a family's ``FAMILIES`` entry holds
its reduced weight, pointwise weight and support text, and the ``CLASSICAL``
entry of the reduced kind its recurrence, moments and whether its support
is finite.  A finite support ends at sqrt(1+gamma^2), an infinite one
carries the prefactor exp(-gamma^2), and a gamma splits the support at
|gamma|.

Every quadrature inner product goes through one kernel, which builds the
Gauss rule, forms the per-node factors of the branch sum once and returns
<v_m, v_n> for each index pair asked for, over rows of values at the branch
points u = +-sqrt(t + gamma^2).  ``inner_product`` asks for (0, 1) over the
rows (f(x), g(x)); ``gram_matrix`` for every m <= n over the rows P_0 .. P_N
of the float three-term recurrence (``_basis_table``), and
``norm_ratio_check`` for (1, 1) and (0, 0) over its rows P_(n-1), P_n.  The
family's recurrence and the reduced weight's are one ``FloatRecurrence``
each, converted on demand and once, so the per-degree rules of a norms
request, sharing one spec, share every conversion.  A reduced weight also
keeps each Gauss rule it builds, by size, so the specs built over one
``ClassicalWeight`` share its tables and rules; which checks share one is
decided by the caller (``suites.RunMemo``), not here.  All of this, the QL
sweep (which carries ``d[i+1]`` and ``z[i+1]`` between rotations in locals)
and the one-pass node brackets included, performs the same float operations
in the same order as the straightforward loops, so every value, and every
error raised, is the same bit for bit.

Everything here is float work on exact inputs; the exact checks of the
same weights live in ``families`` and ``suites``.  The platform Gamma
function enters only through the zeroth moments of the Gauss rules, and
the Beta function of a Jacobi weight through ``lgamma`` where a Gamma
value leaves the double range.  A Gram entry or normaliser or a
quadrature norm that is not finite raises ``OverflowError``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .exactnum import _as_fraction
from .families import CLASSICAL, FAMILIES, FamilySpec, _chihara_parameters, recurrence_coeffs

SPLIT_THRESHOLD = 1e-15
NODE_MARGIN = 1e-12
MOMENT_TOLERANCE = 1e-13
MAX_SWEEPS = 10_000


class NoConvergence(RuntimeError):
    """The QL iteration exceeded its sweep cap, a node failed its Sturm count,
    or a Gauss rule failed its moment validation."""


# -- symmetric tridiagonal eigenproblem ------------------------------------------


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric tridiagonal matrix: diagonal and (one shorter) off-diagonal."""

    diag: Tuple[float, ...]
    offdiag: Tuple[float, ...]

    def __post_init__(self):
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError("offdiag must be one entry shorter than diag")
        object.__setattr__(self, "diag", tuple(map(float, self.diag)))
        object.__setattr__(self, "offdiag", tuple(map(float, self.offdiag)))

    @property
    def scale(self) -> float:
        """Infinity norm: the largest absolute row sum."""
        n = len(self.diag)
        worst = 0.0
        for i in range(n):
            row = abs(self.diag[i])
            if i > 0:
                row += abs(self.offdiag[i - 1])
            if i < n - 1:
                row += abs(self.offdiag[i])
            worst = max(worst, row)
        return worst


def symtridiag_eigen(T: SymTridiag) -> Tuple[List[float], List[float]]:
    """Eigenvalues (ascending) and first components of the unit eigenvectors.

    Implicit-shift QL with deflation at off-diagonal entries below
    ``1e-15 * scale``.  Only row 0 of the eigenvector matrix is rotated: a
    Givens rotation acts on each row on its own, so the first components are
    bit for bit those of the full-matrix iteration, at O(n^2) work.  Each
    eigenvalue is verified by Sturm counts (``_check_nodes``); more than
    ``MAX_SWEEPS`` sweeps (read at call time) or a failed count raises
    ``NoConvergence``.
    """
    n = len(T.diag)
    if n == 0:
        return [], []
    scale = T.scale
    if scale == 0.0:
        return [0.0] * n, [1.0] + [0.0] * (n - 1)
    d = list(T.diag)
    e = list(T.offdiag) + [0.0]
    z = [1.0] + [0.0] * (n - 1)
    threshold = SPLIT_THRESHOLD * scale
    below = -threshold
    max_sweeps = MAX_SWEEPS
    hypot, copysign = math.hypot, math.copysign
    last = n - 1
    sweeps = 0
    for l in range(n):
        while True:
            # |e[m]| > threshold as two comparisons; a nan ends the scan
            m = l
            while m < last and (e[m] > threshold or e[m] < below):
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise NoConvergence(f"QL sweep cap {max_sweeps} exceeded")
            d_l = d[l]
            e_l = e[l]
            g = (d[l + 1] - d_l) / (2.0 * e_l)
            r = hypot(g, 1.0)
            # d_next and z_next carry d[i + 1] and z[i + 1] between rotations;
            # each is stored once the sweep moves past it
            d_next = d[m]
            g = d_next - d_l + e_l / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            z_next = z[m]
            for i in range(m - 1, l - 1, -1):
                e_i = e[i]
                f = s * e_i
                b = c * e_i
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] = d_next - p
                    e[m] = 0.0
                    z[i + 1] = z_next
                    break
                s = f / r
                c = g / r
                g = d_next - p
                d_i = d[i]
                r = (d_i - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                d_next = d_i
                g = c * r - b
                f = z_next
                z_i = z[i]
                z[i + 1] = s * z_i + c * f
                z_next = c * z_i - s * f
            else:
                z[l] = z_next
                d[l] = d_next - p
                e[l] = g
                e[m] = 0.0
    order = sorted(range(n), key=d.__getitem__)
    values = [d[i] for i in order]
    _check_nodes(T, values, scale)
    return values, [z[i] for i in order]


def _check_nodes(T: SymTridiag, values: Sequence[float], scale: float) -> None:
    """Each ascending eigenvalue lambda_i must bracket eigenvalue i of T:
    fewer than i + 1 below lambda_i - delta, at least i + 1 below
    lambda_i + delta, with delta = ``NODE_MARGIN * scale``.

    A count below x is the number of negative pivots of the LDL^T
    factorization of T - x I (Sylvester inertia; Golub & Van Loan, §8.4),
    a zero pivot replaced by the negative ``-float_info.min``.  One pass over
    the rows runs both pivot chains of a node.  A count only grows, so its
    comparison with i + 1 reads the same at the last row as at the row
    where it first reaches i + 1.
    """
    delta = NODE_MARGIN * scale
    rows = list(zip(T.diag, [0.0] + [b * b for b in T.offdiag]))
    tiny = -sys.float_info.min
    for i, lam in enumerate(values):
        lo = lam - delta
        hi = lam + delta
        below_lo = below_hi = 0
        pivot_lo = pivot_hi = 1.0
        for a, bb in rows:
            pivot_lo = a - lo - bb / pivot_lo
            if pivot_lo < 0.0:
                below_lo += 1
            elif pivot_lo == 0.0:
                pivot_lo = tiny
                below_lo += 1
            pivot_hi = a - hi - bb / pivot_hi
            if pivot_hi < 0.0:
                below_hi += 1
            elif pivot_hi == 0.0:
                pivot_hi = tiny
                below_hi += 1
        if below_lo > i or below_hi < i + 1:
            raise NoConvergence(
                f"node {i} at {lam!r} fails the Sturm count within "
                f"{NODE_MARGIN:.0e} * {scale:.3e}"
            )


# -- classical weights and their Gauss rules ---------------------------------------


class FloatRecurrence:
    """Monic recurrence coefficients in float, converted on demand.

    ``pair(k)`` gives the exact (diag_k, sub_k).  ``upto(N)`` converts the
    pairs k < N that no earlier call converted and keeps them for the
    instance's lifetime, so every check sharing the instance shares each
    conversion.
    """

    def __init__(self, pair: Callable[[int], Tuple[Fraction, Fraction]]):
        self.pair = pair
        self.diag: List[float] = []
        self.sub: List[float] = []

    def upto(self, N: int) -> Tuple[List[float], List[float]]:
        """(diag, sub) lists holding at least the entries k < N."""
        for k in range(len(self.diag), N):
            diag, sub = self.pair(k)
            self.diag.append(float(diag))
            self.sub.append(float(sub))
        return self.diag, self.sub


class ClassicalWeight(tuple):
    """``("jacobi", a, b)`` or ``("generalized_laguerre", a)`` with exact
    parameters, each above -1 so that the weight is integrable, carrying its
    ``families.CLASSICAL`` entry as ``kind`` and its recurrence in float as
    ``recurrence``.

    It compares and hashes as the plain tuple.  ``jacobi_matrix(n)`` and
    ``moments(n)`` convert only the entries no earlier call converted and
    keep them, so the rules of growing size built from one instance (one
    per degree of a norms request) share every conversion.  ``rule(n)``
    keeps each Gauss rule it builds, by size, so the checks sharing an
    instance build each rule once.  The entries and rules live as long as
    the instance.
    """

    def __new__(cls, weight_class) -> "ClassicalWeight":
        kind = CLASSICAL.get(weight_class[0])
        if kind is None or len(weight_class) != 1 + len(kind.params):
            raise ValueError(f"unknown weight class {weight_class!r}")
        self = super().__new__(cls, (weight_class[0],) + tuple(map(_as_fraction, weight_class[1:])))
        params = self[1:]
        if any(param <= -1 for param in params):
            raise ValueError("weight parameters must exceed -1")

        def pair(k: int) -> Tuple[Fraction, Fraction]:
            diag, sub = kind.recurrence(*params, k)
            if k >= 1 and sub <= 0:
                raise ValueError("recurrence sub-coefficient must be positive")
            return diag, sub

        self.kind = kind
        self.recurrence = FloatRecurrence(pair)
        self._moments: List[float] = []
        self._rules: Dict[int, QuadratureRule] = {}
        return self

    def rule(self, n: int) -> QuadratureRule:
        """The Gauss rule of n nodes, built by ``gauss_rule`` on first use."""
        rule = self._rules.get(n)
        if rule is None:
            rule = self._rules[n] = gauss_rule(self, n)
        return rule

    def jacobi_matrix(self, n: int) -> SymTridiag:
        """The leading n x n block: diagonal ``float(diag_k)``, off-diagonal
        ``sqrt(float(sub_k))``; a sub-coefficient must be positive."""
        diag, sub = self.recurrence.upto(n)
        return SymTridiag(tuple(diag[:n]), tuple(map(math.sqrt, sub[1:n])))

    def moments(self, n: int) -> List[float]:
        """mu_0 .. mu_(n-1) in float: the Gamma value of mu_0, then one
        product by ``float(mu_j / mu_(j-1))`` per degree."""
        if not self._moments:
            self._moments.append(self.kind.zeroth_moment(*self[1:]))
        for j in range(len(self._moments), n):
            self._moments.append(self._moments[-1] * float(self.kind.moment_ratio(*self[1:], j)))
        return self._moments[:n]


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: ascending nodes, positive weights, stated exact degree."""

    nodes: Tuple[float, ...]
    weights: Tuple[float, ...]
    exact_degree: int


def gauss_rule(weight_class: ClassicalWeight, n: int) -> QuadratureRule:
    """Gauss rule with n nodes for a ``ClassicalWeight``: ``("jacobi", a, b)``
    on [0, 1] with weight t^a (1-t)^b, or ``("generalized_laguerre", a)`` on
    [0, inf) with weight t^a e^(-t).

    Nodes are Jacobi-matrix eigenvalues; weights are mu0 times the squared
    first eigenvector components.  The rule is validated against the exact
    moments of its weight up to degree min(2n-1, 8) before being returned.
    The weight lends its converted Jacobi matrix, so rules built from one
    instance share the conversions.
    """
    if n < 1:
        raise ValueError("a Gauss rule needs at least one node")
    values, firsts = symtridiag_eigen(weight_class.jacobi_matrix(n))
    [mu0] = weight_class.moments(1)
    rule = QuadratureRule(
        nodes=tuple(values),
        weights=tuple([mu0 * v * v for v in firsts]),
        exact_degree=2 * n - 1,
    )
    _validate_moments(rule, weight_class)
    return rule


def _validate_moments(rule: QuadratureRule, weight: ClassicalWeight) -> None:
    for j, moment in enumerate(weight.moments(min(rule.exact_degree, 8) + 1)):
        computed = 0.0   # left to right: sum() compensates from Python 3.12 on
        for t, w in zip(rule.nodes, rule.weights):
            computed += w * t**j
        if abs(computed - moment) > MOMENT_TOLERANCE * abs(moment):
            raise NoConvergence(
                f"moment validation failed at degree {j}: "
                f"rule gives {computed!r}, weight has {moment!r}"
            )


# -- weights of the polynomial families --------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    """The weight of a family: the weight fields of its ``FAMILIES`` entry at
    the family's parameters, its reduced weight, and the float tables that
    the checks of the family share.  ``weight_for`` builds it."""

    family: FamilySpec
    classical_weight: ClassicalWeight

    @property
    def support(self) -> str:
        return FAMILIES[self.family.name].support

    @property
    def gamma(self) -> Fraction:
        return self.family.p.get("gamma", Fraction(0))

    def support_intervals(self) -> Tuple[Tuple[float, float], ...]:
        g = abs(float(self.gamma))
        hi = math.sqrt(1 + g * g) if self.classical_weight.kind.finite else math.inf
        return ((-hi, -g), (g, hi)) if "gamma" in self.family.p else ((-hi, hi),)

    def midpoints(self, n: int) -> Iterator[float]:
        """lo + (i + 1/2) (hi - lo) / n for i < n on each support component
        in turn, an unbounded one clipped to a Gaussian-decay window."""
        for lo, hi in self.support_intervals():
            lo, hi = _finite_window(lo, hi)
            for i in range(n):
                yield lo + (i + 0.5) * (hi - lo) / n

    @cached_property
    def weight_value(self) -> Callable[[float], float]:
        """The pointwise weight x -> w(x), its float parameters bound once."""
        return FAMILIES[self.family.name].weight({key: float(v) for key, v in self.family.params})

    def reduced_prefactor(self) -> float:
        return 1.0 if self.classical_weight.kind.finite else math.exp(-float(self.gamma) ** 2)

    @cached_property
    def recurrence(self) -> FloatRecurrence:
        """The family's recurrence in float, shared by every check of the spec."""
        return FloatRecurrence(partial(recurrence_coeffs, self.family))


def _finite_window(lo: float, hi: float) -> Tuple[float, float]:
    """Clip an unbounded support component to a Gaussian-decay window."""
    if math.isinf(lo) and math.isinf(hi):
        return -8.0, 8.0
    if math.isinf(lo):
        return hi - 8.0, hi
    if math.isinf(hi):
        return lo, lo + 8.0
    return lo, hi


def weight_for(family: FamilySpec) -> WeightSpec:
    """The weight specification attached to an orthogonal family, over a
    new ``ClassicalWeight`` of the reduced weight of its ``FAMILIES`` entry.

    Raises ``ValueError`` when the family carries no weight, or when the
    reduced classical weight is not integrable (an exponent at or below -1).
    """
    entry = FAMILIES[family.name]
    if entry.weight is None:
        raise ValueError(f"no continuous weight carried for family {family.name!r}")
    return WeightSpec(family, ClassicalWeight(entry.reduced(family.p)))


# -- inner products through the even/odd reduction -----------------------------------


def _rule_size(degree: int) -> int:
    """Rule size for a polynomial of ``degree``, with an exactness margin."""
    return degree // 2 + 2


def _inner_products(
    spec: WeightSpec,
    size: int,
    rows: Callable[[List[float]], Sequence[Sequence[float]]],
    pairs: Sequence[Tuple[int, int]],
) -> List[float]:
    """<v_m, v_n> for each (m, n) in ``pairs`` by the Gauss rule of ``size``
    nodes: sum_i w_i [(u_i+gamma) v_m(u_i) v_n(u_i) + (u_i-gamma) v_m(-u_i)
    v_n(-u_i)] / (2 u_i), prefactored, with u_i = sqrt(t_i + gamma^2).

    ``rows(points)`` gives one row [v_0(x), v_1(x), ...] per point, for the
    u_i and then the -u_i.  The bracket equals the reduced integrand
    E(t_i+gamma^2) + gamma O(t_i+gamma^2) of v_m v_n identically, but from
    pointwise values it keeps tiny inner products accurate: for m = n both
    terms are nonnegative (u_i >= |gamma|), so no cancellation occurs.
    """
    rule = spec.classical_weight.rule(size)
    g = float(spec.gamma)
    us = [math.sqrt(t + g * g) for t in rule.nodes]
    table = rows(us + [-u for u in us])
    per_node = [
        (w, u + g, u - g, 2.0 * u, pos, neg)
        for w, u, pos, neg in zip(rule.weights, us, table, table[len(us) :])
    ]
    prefactor = spec.reduced_prefactor()
    products = []
    for m, n in pairs:
        total = 0.0
        for w, u_plus, u_minus, two_u, pos, neg in per_node:
            bracket = u_plus * (pos[m] * pos[n]) + u_minus * (neg[m] * neg[n])
            total += w * bracket / two_u
        products.append(prefactor * total)
    return products


def inner_product(spec: WeightSpec, f, g) -> float:
    """<f, g> against the family weight, via the even/odd reduction, for
    exact polynomials f and g (``exactnum.LaurentPoly``) read in float.

    With f g = E(x^2) + x O(x^2), the two support branches collapse to the
    single classical-weight integral of E(t+gamma^2) + gamma O(t+gamma^2);
    the integrand is evaluated at the Gauss nodes in its branch-sum form
    [(u+gamma) f(u) g(u) + (u-gamma) f(-u) g(-u)]/(2u), u = sqrt(t+gamma^2).

    The rule size ceil((deg f + deg g)/2) + 2 leaves an exactness margin.
    """
    if not (f.is_polynomial and g.is_polynomial):
        raise ValueError("inner products are defined for polynomial arguments")
    if f.is_zero or g.is_zero:
        return 0.0
    [value] = _inner_products(
        spec, _rule_size(f.degree + g.degree),
        lambda xs: [(f.evaluate_float(x), g.evaluate_float(x)) for x in xs], [(0, 1)]
    )
    return value


def _basis_table(
    recurrence: FloatRecurrence, degrees: range, points: Sequence[float]
) -> List[List[float]]:
    """One row [P_k(x) for k in ``degrees``] per x in ``points``, by the
    float recurrence; ``degrees`` is a range of step 1.

    The exact recurrence coefficients are converted to float once per
    ``FloatRecurrence``, then shared by every point.  Recurrence evaluation
    avoids the coefficient cancellation of Horner on expanded monic
    coefficients, which matters for the tiny high-degree norms in the Gram
    matrix.  Every step is (x - diag_k) P_k - sub_k P_(k-1) from P_(-1) = 0,
    P_0 = 1 (sub_0 is 0); the steps below ``degrees`` keep no value.
    """
    lowest, N = degrees.start, degrees.stop - 1
    diag, sub = recurrence.upto(N)
    skipped = list(zip(diag[:lowest], sub[:lowest]))
    kept = list(zip(diag[lowest:N], sub[lowest:N]))
    table = []
    for x in points:
        previous, value = 0.0, 1.0
        for d, s in skipped:
            previous, value = value, (x - d) * value - s * previous
        row = [value]
        for d, s in kept:
            previous, value = value, (x - d) * value - s * previous
            row.append(value)
        table.append(row)
    return table


def gram_matrix(spec: WeightSpec, N: int) -> List[List[float]]:
    """[<P_m, P_n>] for m, n = 0..N against the weight of ``spec``'s family."""
    pairs = [(m, n) for m in range(N + 1) for n in range(m, N + 1)]
    products = _inner_products(
        spec, _rule_size(2 * N), partial(_basis_table, spec.recurrence, range(N + 1)), pairs
    )
    gram = [[0.0] * (N + 1) for _ in range(N + 1)]
    for (m, n), value in zip(pairs, products):
        gram[m][n] = gram[n][m] = value
    return gram


def gram_offdiag_worst(gram: Sequence[Sequence[float]]) -> float:
    """max |G_mn| / sqrt(G_mm G_nn) over m != n; an entry or normaliser that
    is not finite, where a ratio would read 0 or nan, raises OverflowError."""
    worst = 0.0
    for m in range(len(gram)):
        for n in range(m + 1, len(gram)):
            norm = math.sqrt(gram[m][m] * gram[n][n])
            if not (math.isfinite(gram[m][n]) and math.isfinite(norm)):
                raise OverflowError(f"Gram entry ({m}, {n}) is {gram[m][n]!r}, "
                                    f"its normaliser {norm!r}")
            worst = max(worst, abs(gram[m][n]) / norm)
    return worst


# -- brute-force oracle ----------------------------------------------------------------


def _adaptive_simpson(
    func: Callable[[float], float], a: float, b: float, tol: float
) -> float:
    """Classic adaptive Simpson integration with the 1/15 error estimate."""

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = (lo + hi) / 2.0
        fq1 = func((lo + mid) / 2.0)
        fq3 = func((mid + hi) / 2.0)
        left = simpson(lo, mid, flo, fq1, fmid)
        right = simpson(mid, hi, fmid, fq3, fhi)
        if depth <= 0:
            return left + right
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, fq1, fmid, left, tol / 2.0, depth - 1) + recurse(
            mid, hi, fmid, fq3, fhi, right, tol / 2.0, depth - 1
        )

    mid = (a + b) / 2.0
    fa, fm, fb = func(a), func(mid), func(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 48)


def raw_inner_product(spec: WeightSpec, f, g, tol: float = 1e-10) -> float:
    """<f, g> by brute-force integration over the raw support, no reduction.

    Validation oracle for ``inner_product``.  Infinite support components
    are truncated where the Gaussian factor is negligible; endpoint weight
    singularities are not handled (use parameter sets with nonnegative
    weight exponents).
    """
    total = 0.0
    for lo, hi in spec.support_intervals():
        lo = max(lo, -(abs(float(spec.gamma)) + 9.0))
        hi = min(hi, abs(float(spec.gamma)) + 9.0)
        if hi <= lo:
            continue
        func = lambda x: f.evaluate_float(x) * g.evaluate_float(x) * spec.weight_value(x)
        total += _adaptive_simpson(func, lo, hi, tol)
    return total


# -- norms ------------------------------------------------------------------------------


def norm_ratio_check(spec: WeightSpec, n: int) -> float:
    """<P_n, P_n> / <P_(n-1), P_(n-1)> by quadrature, to be compared with
    the exact ratio, the recurrence coefficient sub(n).

    The ratio comes from the one inner-product kernel, over the rows
    P_(n-1), P_n of the float recurrence at the branch points: the rule
    and values of ``gram_matrix(spec, n)``.  A norm that is not finite
    raises ``OverflowError``.  The weight's Jacobi matrix and the family's
    recurrence are converted to float once per ``spec``
    (``classical_weight``, ``recurrence``): a norms request passes one spec
    to every degree, and each degree grows both by the entries it needs.
    """
    if n < 1:
        raise ValueError("norm ratios start at n = 1")
    # rows of P_(n-1), P_n only: a degree stores O(n) floats, not O(n^2)
    norms = _inner_products(
        spec, _rule_size(2 * n), partial(_basis_table, spec.recurrence, range(n - 1, n + 1)),
        [(1, 1), (0, 0)],
    )
    if not all(map(math.isfinite, norms)):
        raise OverflowError(f"quadrature norms of P_{n} and P_{n - 1} are "
                            f"{norms[0]!r}, {norms[1]!r}")
    return norms[0] / norms[1]


# -- Pearson verification -----------------------------------------------------------


def verify_pearson(family: FamilySpec, samples_per_side: int) -> float:
    """Condition (ii), in float, at the ``samples_per_side`` midpoints of
    each of the two support components (``WeightSpec.midpoints``):
    (x+gamma) w(-x) + (-x+gamma) w(x) = 0, measured as the worst
    |(x+gamma) w(-x) + (-x+gamma) w(x)| / |w(x)|.  Condition (i) is
    exact, ``families.pearson_weight_equation``."""
    g = float(_chihara_parameters(family)[2])
    spec = weight_for(family)
    weight_value = spec.weight_value
    worst = 0.0
    for xx in spec.midpoints(samples_per_side):
        wx = weight_value(xx)
        wmx = weight_value(-xx)
        relative = abs((xx + g) * wmx + (-xx + g) * wx) / abs(wx)
        if relative > worst:   # as max(worst, relative): a nan is skipped
            worst = relative
    return worst
