"""Quadrature tests: eigensolver, Gauss rules, reduction, norms, Pearson."""

import collections
import inspect
import math
import random
import re
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklpoly.exactnum import LaurentPoly
from dunklpoly.families import (
    CLASSICAL,
    FAMILIES,
    Classical,
    FamilySpec,
    chihara_family,
    ext_hermite_family,
    gegenbauer_family,
    gen_hermite_family,
    generate_monic,
    pearson_weight_equation,
    pochhammer,
)
from dunklpoly import quad, suites
from dunklpoly.quad import (
    ClassicalWeight,
    NoConvergence,
    QuadratureRule,
    SymTridiag,
    _basis_table,
    gauss_rule,
    gram_matrix,
    gram_offdiag_worst,
    inner_product,
    norm_ratio_check,
    raw_inner_product,
    symtridiag_eigen,
    verify_pearson,
    weight_for,
)
from dunklpoly.suites import NORM_TOLERANCE, RunMemo, _norm_ratio_identity, norm_records

# the Gram and norm families of the pinned suites
FAMILY_SETS = list(suites._quadrature_families())


# -- tridiagonal eigensolver -----------------------------------------------------


def test_eigen_one_by_one():
    values, firsts = symtridiag_eigen(SymTridiag((5.0,), ()))
    assert values == [5.0]
    assert firsts == [1.0]


def test_eigen_two_by_two_closed_form():
    b = 1 / math.sqrt(3)
    values, firsts = symtridiag_eigen(SymTridiag((0.0, 0.0), (b,)))
    assert values[0] == pytest.approx(-b, abs=1e-14)
    assert values[1] == pytest.approx(b, abs=1e-14)
    # Eigenvectors are (1, -+1)/sqrt(2); first components have magnitude 1/sqrt(2).
    assert [abs(v) for v in firsts] == pytest.approx([2**-0.5, 2**-0.5], abs=1e-14)


def test_eigen_three_by_three_closed_form():
    a = 0.7
    values, _ = symtridiag_eigen(SymTridiag((0.0, 0.0, 0.0), (a, a)))
    assert values == pytest.approx([-a * math.sqrt(2), 0.0, a * math.sqrt(2)], abs=1e-12)


def test_eigen_zero_matrix():
    values, firsts = symtridiag_eigen(SymTridiag((0.0, 0.0), (0.0,)))
    assert values == [0.0, 0.0]
    assert firsts[0] == 1.0


def test_eigen_random_trace_and_frobenius():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 12)
        diag = tuple(rng.uniform(-2, 2) for _ in range(n))
        off = tuple(rng.uniform(-2, 2) for _ in range(n - 1))
        values, _ = symtridiag_eigen(SymTridiag(diag, off))
        assert values == sorted(values)
        assert sum(values) == pytest.approx(sum(diag), abs=1e-11)
        frobenius = sum(d * d for d in diag) + 2 * sum(e * e for e in off)
        assert sum(v * v for v in values) == pytest.approx(frobenius, rel=1e-11)


def test_eigen_sweep_cap_raises(monkeypatch):
    # the cap is read at call time
    monkeypatch.setattr(quad, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence, match="^QL sweep cap 0 exceeded$"):
        symtridiag_eigen(SymTridiag((0.0, 0.0), (1.0,)))


def test_symtridiag_shape_validation():
    with pytest.raises(ValueError):
        SymTridiag((1.0, 2.0), (0.5, 0.5))


def _full_matrix_ql(T):
    """Reference: the QL iteration that rotated the whole n x n eigenvector
    matrix and read the first components off its columns."""
    n = len(T.diag)
    if n == 0:
        return [], []
    scale = T.scale
    if scale == 0.0:
        return [0.0] * n, [1.0] + [0.0] * (n - 1)
    d = list(T.diag)
    e = list(T.offdiag) + [0.0]
    z = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
    threshold = 1e-15 * scale
    for l in range(n):
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > threshold:
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                for row in z:
                    f = row[i + 1]
                    row[i + 1] = s * row[i] + c * f
                    row[i] = c * row[i] - s * f
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    order = sorted(range(n), key=lambda i: d[i])
    return [d[i] for i in order], [z[0][i] for i in order]


def _classical_jacobi_matrix(weight_class, n):
    """The Jacobi matrix ``gauss_rule`` diagonalizes for a classical weight."""
    recurrence = CLASSICAL[weight_class[0]].recurrence
    coeffs = [recurrence(*weight_class[1:], k) for k in range(n)]
    return SymTridiag(tuple(float(d) for d, _ in coeffs),
                      tuple(math.sqrt(float(s)) for _, s in coeffs[1:]))


def _random_weight_class(rng):
    if rng.random() < 0.5:
        return ("jacobi", F(rng.randint(-3, 16), 4), F(rng.randint(-3, 16), 4))
    return ("generalized_laguerre", F(rng.randint(-3, 24), 4))


def test_first_row_ql_equals_full_matrix_ql():
    # each rotation acts on every row on its own: row 0 alone is bit-identical
    rng = random.Random(2013)
    for _ in range(200):
        T = _classical_jacobi_matrix(_random_weight_class(rng), rng.randint(1, 60))
        assert symtridiag_eigen(T) == _full_matrix_ql(T)
    for _ in range(60):
        n = rng.randint(1, 30)
        T = SymTridiag(tuple(rng.uniform(-2, 2) for _ in range(n)),
                       tuple(rng.uniform(-2, 2) for _ in range(n - 1)))
        assert symtridiag_eigen(T) == _full_matrix_ql(T)


def test_sturm_check_rejects_moved_node():
    rng = random.Random(19)
    for _ in range(20):
        T = _classical_jacobi_matrix(_random_weight_class(rng), rng.randint(2, 30))
        values, _ = symtridiag_eigen(T)
        quad._check_nodes(T, values, T.scale)
        i = rng.randrange(len(values))
        for sign in (1.0, -1.0):
            moved = list(values)
            moved[i] += sign * 1e-9 * T.scale
            with pytest.raises(NoConvergence, match=f"node {i} at "):
                quad._check_nodes(T, moved, T.scale)


def test_moved_node_fails_symtridiag_eigen(monkeypatch):
    check = quad._check_nodes

    def move_node_3(T, values, scale):
        values = list(values)
        values[3] += 1e-9 * scale
        check(T, values, scale)

    monkeypatch.setattr(quad, "_check_nodes", move_node_3)
    T = _classical_jacobi_matrix(("jacobi", F(1, 2), F(3, 4)), 8)
    with pytest.raises(NoConvergence, match="node 3 at "):
        symtridiag_eigen(T)


def _negative_pivots(T, x, stop):
    """Reference: negative pivots of the LDL^T factorization of T - x I,
    a zero pivot replaced by -float_info.min, counted up to ``stop``."""
    count = 0
    pivot = 1.0
    for a, bb in zip(T.diag, [0.0] + [b * b for b in T.offdiag]):
        pivot = a - x - bb / pivot
        if pivot == 0.0:
            pivot = -sys.float_info.min
        if pivot < 0.0:
            count += 1
            if count == stop:
                break
    return count


def _sturm_count(T, x):
    """Reference: the number of eigenvalues of T below x, every pivot counted."""
    return _negative_pivots(T, x, len(T.diag) + 1)


def test_sturm_count_brackets_closed_form_eigenvalues():
    # eigenvalues of the 3 x 3 matrix with zero diagonal: 0, +-a sqrt 2
    T = SymTridiag((0.0, 0.0, 0.0), (0.7, 0.7))
    edge = 0.7 * math.sqrt(2)
    counts = [_sturm_count(T, x) for x in (-2.0, -edge + 1e-9, 1e-9, edge + 1e-9)]
    assert counts == [0, 1, 2, 3]


def _full_count_check_nodes(T, values, scale):
    """Reference: the node check that counted every pivot of both Sturm
    sequences before comparing with i + 1."""
    delta = quad.NODE_MARGIN * scale
    for i, lam in enumerate(values):
        if _sturm_count(T, lam - delta) > i or _sturm_count(T, lam + delta) < i + 1:
            raise NoConvergence(
                f"node {i} at {lam!r} fails the Sturm count within "
                f"{quad.NODE_MARGIN:.0e} * {scale:.3e}"
            )


def _check_outcome(check, T, values):
    try:
        check(T, values, T.scale)
    except NoConvergence as exc:
        return str(exc)
    return None


def test_early_exit_node_check_equals_full_count():
    # moves inside and outside the 1e-12 margin, on both sides, of every node
    rng = random.Random(1969)
    failures = 0
    for _ in range(40):
        if rng.random() < 0.7:
            T = _classical_jacobi_matrix(_random_weight_class(rng), rng.randint(1, 30))
        else:
            n = rng.randint(1, 20)
            T = SymTridiag(tuple(rng.uniform(-2, 2) for _ in range(n)),
                           tuple(rng.uniform(-2, 2) for _ in range(n - 1)))
        values, _ = symtridiag_eigen(T)
        for i in range(len(values)):
            for shift in (0.0, 1e-14, -1e-14, 1e-9, -1e-9, 1e-3, -1e-3):
                moved = list(values)
                moved[i] += shift * T.scale
                expected = _check_outcome(_full_count_check_nodes, T, moved)
                assert _check_outcome(quad._check_nodes, T, moved) == expected
                failures += expected is not None
    assert failures > 0


# -- Gauss rules --------------------------------------------------------------------


def test_uniform_rule_one_node():
    rule = gauss_rule(ClassicalWeight(("jacobi", 0, 0)), 1)
    assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)
    assert rule.exact_degree == 1


def test_uniform_rule_two_nodes():
    rule = gauss_rule(ClassicalWeight(("jacobi", 0, 0)), 2)
    off = 1 / (2 * math.sqrt(3))
    assert rule.nodes == pytest.approx([0.5 - off, 0.5 + off], abs=1e-14)
    assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-14)


def test_laguerre_rule_one_node():
    rule = gauss_rule(ClassicalWeight(("generalized_laguerre", 0)), 1)
    assert rule.nodes[0] == pytest.approx(1.0, abs=1e-14)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-14)


def test_laguerre_rule_one_node_shifted():
    # mu_0 = Gamma(a+1), mu_1 = Gamma(a+2) force the node to a+1.
    rule = gauss_rule(ClassicalWeight(("generalized_laguerre", F(3, 2))), 1)
    assert rule.nodes[0] == pytest.approx(2.5, abs=1e-13)
    assert rule.weights[0] == pytest.approx(math.gamma(2.5), rel=1e-14)


@pytest.mark.parametrize(
    "weight_class",
    [("jacobi", F(3, 2), F(1, 2)), ("jacobi", 1, 2), ("generalized_laguerre", 1)],
)
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_rule_invariants(weight_class, n):
    rule = gauss_rule(ClassicalWeight(weight_class), n)
    assert list(rule.nodes) == sorted(rule.nodes)
    assert all(w > 0 for w in rule.weights)
    lo, hi = (0.0, 1.0) if weight_class[0] == "jacobi" else (0.0, math.inf)
    assert all(lo < t < hi for t in rule.nodes)


@pytest.mark.parametrize("n", range(1, 9))
def test_chebyshev_rule_at_a_plus_b_minus_one(n):
    # t^(-1/2) (1-t)^(-1/2) on [0, 1] is Chebyshev's first-kind weight under
    # t = (1+z)/2: nodes sin^2((2k-1) pi / (4n)), weights pi / n.  For n >= 2
    # the rule reads the k = 1 branch of the t recurrence
    # (`families._jacobi01_recurrence`).
    rule = gauss_rule(ClassicalWeight(("jacobi", F(-1, 2), F(-1, 2))), n)
    nodes = [math.sin((2 * k - 1) * math.pi / (4 * n)) ** 2 for k in range(1, n + 1)]
    assert rule.nodes == pytest.approx(nodes, abs=1e-14)
    assert rule.weights == pytest.approx([math.pi / n] * n, rel=1e-13)
    moment = F(1)  # mu_j / pi = prod_(i <= j) (i - 1/2) / i
    for j in range(2 * n):
        if j:
            moment *= F(2 * j - 1, 2 * j)
        computed = sum(w * t**j for t, w in zip(rule.nodes, rule.weights))
        assert computed == pytest.approx(math.pi * float(moment), rel=1e-13)


def test_rule_rejects_bad_parameters():
    with pytest.raises(ValueError, match="^weight parameters must exceed -1$"):
        gauss_rule(ClassicalWeight(("jacobi", -1, 0)), 3)
    with pytest.raises(ValueError, match="^weight parameters must exceed -1$"):
        gauss_rule(ClassicalWeight(("generalized_laguerre", F(-5, 4))), 3)
    with pytest.raises(ValueError, match="^a Gauss rule needs at least one node$"):
        gauss_rule(ClassicalWeight(("jacobi", 0, 0)), 0)
    with pytest.raises(ValueError, match=r"^unknown weight class \('chebyshev',\)$"):
        gauss_rule(ClassicalWeight(("chebyshev",)), 3)


@settings(deadline=None, max_examples=30)
@given(
    a=st.fractions(min_value=F(-1, 2), max_value=3, max_denominator=4),
    b=st.fractions(min_value=F(-1, 2), max_value=3, max_denominator=4),
    n=st.integers(min_value=1, max_value=8),
)
def test_rule_moment_property(a, b, n):
    # gauss_rule validates its own moments to 1e-13 relative at build time.
    rule = gauss_rule(ClassicalWeight(("jacobi", a, b)), n)
    assert rule.exact_degree == 2 * n - 1


def test_weights_equal_christoffel_numbers():
    # w_i = mu0 / sum_(k < n) p_k(lambda_i)^2 with p_k the orthonormal
    # recurrence scaled to p_0 = 1 (Gautschi 2004, section 3.1.1); tiny
    # weights carry only absolute accuracy, so the bound is 1e-13 mu0
    rng = random.Random(1969)
    for _ in range(60):
        weight_class = _random_weight_class(rng)
        n = rng.randint(1, 40)
        rule = gauss_rule(ClassicalWeight(weight_class), n)
        T = _classical_jacobi_matrix(weight_class, n)
        mu0 = CLASSICAL[weight_class[0]].zeroth_moment(*weight_class[1:])
        for node, w in zip(rule.nodes, rule.weights):
            prev, cur, total = 0.0, 1.0, 1.0
            for k in range(n - 1):
                b_prev = T.offdiag[k - 1] if k else 0.0
                prev, cur = cur, ((node - T.diag[k]) * cur - b_prev * prev) / T.offdiag[k]
                total += cur * cur
            assert abs(w - mu0 / total) <= 1e-13 * mu0, (weight_class, n, node)


# -- inner products -------------------------------------------------------------------


def test_orthogonality_lowest_pair():
    fam = chihara_family(1, 1, F(1, 2))
    polys = generate_monic(fam, 1)
    value = inner_product(weight_for(fam), polys[0], polys[1])
    assert abs(value) <= 1e-12


def test_uniform_weight_total_mass():
    fam = chihara_family(0, 0, F(2, 3))
    one = LaurentPoly.one()
    assert inner_product(weight_for(fam), one, one) == pytest.approx(1.0, rel=1e-14)


def test_hermite_type_total_mass():
    fam = gen_hermite_family(F(1, 2))
    one = LaurentPoly.one()
    # l_0 = Gamma(mu + 1/2) at mu = 1/2 is Gamma(1) = 1.
    assert inner_product(weight_for(fam), one, one) == pytest.approx(1.0, rel=1e-14)


def test_inner_product_rejects_laurent_input():
    fam = chihara_family(1, 1, F(1, 2))
    with pytest.raises(ValueError):
        inner_product(weight_for(fam), LaurentPoly({-1: F(1)}), LaurentPoly.one())


def test_zero_argument_gives_zero():
    fam = chihara_family(1, 1, F(1, 2))
    assert inner_product(weight_for(fam), LaurentPoly.zero(), LaurentPoly.one()) == 0.0


@pytest.mark.parametrize(
    "fam,f,g",
    [
        (chihara_family(1, 1, F(1, 2)), LaurentPoly({3: F(1)}), LaurentPoly({2: F(1), 0: F(1)})),
        (chihara_family(1, 2, F(1, 3)), LaurentPoly.x(), LaurentPoly({2: F(1)})),
    ],
)
def test_reduction_matches_brute_force(fam, f, g):
    """The even/odd reduction agrees with raw two-interval integration."""
    spec = weight_for(fam)
    reduced = inner_product(spec, f, g)
    raw = raw_inner_product(spec, f, g, tol=1e-11)
    assert reduced == pytest.approx(raw, rel=1e-8)


def test_reduction_matches_brute_force_laguerre_type():
    fam = ext_hermite_family(F(3, 2), F(1, 2))
    spec = weight_for(fam)
    f, g = LaurentPoly.x(), LaurentPoly({2: F(1), 1: F(1)})
    assert inner_product(spec, f, g) == pytest.approx(
        raw_inner_product(spec, f, g, tol=1e-11), rel=1e-8
    )


def _even_odd_split(product):
    """E, O with product = E(x^2) + x O(x^2)."""
    even, odd = {}, {}
    for exp, coef in product.items():
        if exp % 2 == 0:
            even[exp // 2] = coef
        else:
            odd[(exp - 1) // 2] = coef
    return LaurentPoly(even), LaurentPoly(odd)


def _reduced_integrand(spec, f, g):
    """Reference: E(t + gamma^2) + gamma O(t + gamma^2), exact over the
    rationals, the polynomial in t whose integral against the reduced
    classical weight is <f, g>; here f(x) g(x) = E(x^2) + x O(x^2)."""
    even, odd = _even_odd_split(f * g)
    gamma = spec.gamma
    shift = gamma * gamma
    return even.substitute_affine(1, shift) + odd.substitute_affine(1, shift) * gamma


def test_branch_sum_equals_exact_reduced_integrand():
    """The pointwise branch-sum form agrees with the exact t-polynomial."""
    fam = chihara_family(1, 2, F(1, 3))
    spec = weight_for(fam)
    f, g = LaurentPoly({3: F(1), 0: F(2)}), LaurentPoly({2: F(1), 1: F(-1)})
    integrand = _reduced_integrand(spec, f, g)
    gamma = float(spec.gamma)
    for k in range(1, 9):
        t = k / 9.0
        u = math.sqrt(t + gamma * gamma)
        bracket = (
            (u + gamma) * f.evaluate_float(u) * g.evaluate_float(u)
            + (u - gamma) * f.evaluate_float(-u) * g.evaluate_float(-u)
        ) / (2.0 * u)
        assert bracket == pytest.approx(integrand.evaluate_float(t), rel=1e-13)


# -- Gram matrices ---------------------------------------------------------------------


@pytest.mark.parametrize("fam", FAMILY_SETS)
def test_gram_matrix_orthogonal_to_tolerance(fam):
    gram = gram_matrix(weight_for(fam), 6)
    assert all(gram[n][n] > 0 for n in range(7))
    assert gram_offdiag_worst(gram) <= 1e-10


@pytest.mark.parametrize("gram, where", [
    ([[1.0, math.inf], [math.inf, 1.0]], "Gram entry (0, 1) is inf, its normaliser 1.0"),
    ([[1.0, 0.0, math.nan], [0.0, 1.0, 0.0], [math.nan, 0.0, 1.0]],
     "Gram entry (0, 2) is nan, its normaliser 1.0"),
    ([[1e200, 1.0], [1.0, 1e200]], "Gram entry (0, 1) is 1.0, its normaliser inf"),
    ([[1.0, 0.0], [0.0, math.nan]], "Gram entry (0, 1) is 0.0, its normaliser nan"),
])
def test_gram_offdiag_worst_rejects_non_finite_values(gram, where):
    # each ratio would read 0 or nan, and max() would pass over the nan
    with pytest.raises(OverflowError, match=re.escape(where)):
        gram_offdiag_worst(gram)


def _per_node_basis_values(family, N, x):
    """Reference: the per-node recurrence that converted every coefficient
    to float again at each point."""
    values = [1.0]
    if N >= 1:
        values.append(x - float(family.diag(0)))
    for n in range(1, N):
        values.append(
            (x - float(family.diag(n))) * values[n]
            - float(family.sub(n)) * values[n - 1]
        )
    return values


_positive = st.fractions(min_value=F(1, 8), max_value=3, max_denominator=12)
_signed = st.fractions(min_value=-1, max_value=1, max_denominator=12)
_quadrature_families = st.one_of(
    st.builds(chihara_family, _positive, _positive, _signed),
    st.builds(gegenbauer_family, _positive, _positive),
    st.builds(ext_hermite_family, _positive, _signed),
    st.builds(gen_hermite_family, _positive),
)


@settings(deadline=None, max_examples=80)
@given(
    family=_quadrature_families,
    N=st.integers(0, 20),
    lowest=st.integers(0, 20),
    points=st.lists(st.floats(-4, 4), max_size=8),
)
def test_basis_table_equals_per_node_recurrence(family, N, lowest, points):
    # same floats in the same operation order: equal bit for bit, also for
    # rows that start above degree 0
    lowest = min(lowest, N)
    recurrence = quad.FloatRecurrence(lambda k: (family.diag(k), family.sub(k)))
    table = [_per_node_basis_values(family, N, x) for x in points]
    assert _basis_table(recurrence, range(N + 1), points) == table
    assert _basis_table(recurrence, range(lowest, N + 1), points) == [
        row[lowest:] for row in table
    ]


def _branch_points(spec, rule):
    """Reference: u_i = sqrt(t_i + gamma^2) per Gauss node."""
    g = float(spec.gamma)
    return [math.sqrt(t + g * g) for t in rule.nodes]


def _per_node_branch_sum(spec, rule, pos, neg):
    """Reference: sum_i w_i [(u_i+gamma) pos_i + (u_i-gamma) neg_i] / (2 u_i),
    prefactored, with the node factors formed afresh for every sum."""
    g = float(spec.gamma)
    total = 0.0
    for w, u, p_val, n_val in zip(rule.weights, _branch_points(spec, rule), pos, neg):
        total += w * ((u + g) * p_val + (u - g) * n_val) / (2.0 * u)
    return spec.reduced_prefactor() * total


def _pairwise_gram_matrix(family, N):
    """Reference: the Gram matrix from per-node basis values, one branch
    sum with freshly built product lists per (m, n)."""
    spec = weight_for(family)
    rule = gauss_rule(spec.classical_weight, quad._rule_size(2 * N))
    us = _branch_points(spec, rule)
    pos = [_per_node_basis_values(family, N, u) for u in us]
    neg = [_per_node_basis_values(family, N, -u) for u in us]
    gram = [[0.0] * (N + 1) for _ in range(N + 1)]
    for m in range(N + 1):
        for n in range(m, N + 1):
            gram[m][n] = gram[n][m] = _per_node_branch_sum(
                spec, rule, [r[m] * r[n] for r in pos], [r[m] * r[n] for r in neg]
            )
    return gram


@settings(deadline=None, max_examples=40)
@given(family=_quadrature_families, N=st.integers(0, 16))
def test_gram_matrix_equals_pairwise_branch_sums(family, N):
    # the per-node factors are formed once, but every entry is the same
    # float operations in the same order
    assert gram_matrix(weight_for(family), N) == _pairwise_gram_matrix(family, N)


def gram_request(family, N):
    """One Gram matrix, on a weight of its own."""
    return gram_matrix(weight_for(family), N)


def norm_request(family, cap):
    """The float record of one norms request; it also reads sub(n) once
    per degree, as the denominator of its residual."""
    return suites._norm_ratio_worst(family, RunMemo(), cap)


def norm_check(family, n):
    """One norm check at degree n, on a weight of its own."""
    return norm_ratio_check(weight_for(family), n)


@pytest.mark.parametrize(
    "check", [pytest.param(gram_request, id="gram_matrix"),
              pytest.param(norm_check, id="norm_ratio_check"), norm_request]
)
@pytest.mark.parametrize("fam", [FAMILY_SETS[0], FAMILY_SETS[4]])
def test_recurrence_coefficients_converted_once_per_call(fam, check, monkeypatch):
    # O(n) coefficient evaluations per call, not O(n) per Gauss node, and a
    # norms request converts once for all its degrees, not once per degree
    calls = {"diag": 0, "sub": 0, "weight": 0}
    for name in ("diag", "sub"):
        original = getattr(FamilySpec, name)

        def counted(self, k, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, k)

        monkeypatch.setattr(FamilySpec, name, counted)
    for tag, entry in CLASSICAL.items():

        def counted_weight(*args, _original=entry.recurrence):
            calls["weight"] += 1
            return _original(*args)

        monkeypatch.setitem(CLASSICAL, tag, entry._replace(recurrence=counted_weight))
    n = 12
    check(fam, n)
    denominators = n if check is norm_request else 0
    assert 0 < calls["diag"] <= n + 1
    assert 0 < calls["sub"] <= n + 1 + denominators
    # every rule here has at most n + 2 nodes
    assert 0 < calls["weight"] <= n + 2


@pytest.mark.parametrize("fam", [FAMILY_SETS[0], FAMILY_SETS[4]])
def test_moments_converted_once_per_norms_request(fam, monkeypatch):
    # the rules of one request share one weight and so one moment table
    calls = collections.Counter()
    for tag, entry in CLASSICAL.items():
        counted = {}
        for name in ("moment_ratio", "zeroth_moment"):

            def count(*args, _key=(name, tag), _original=getattr(entry, name)):
                calls[_key + args] += 1
                return _original(*args)

            counted[name] = count
        monkeypatch.setitem(CLASSICAL, tag, entry._replace(**counted))
    norm_records(fam, RunMemo(), 12, 1, NORM_TOLERANCE)
    assert calls and max(calls.values()) == 1
    assert sum(1 for key in calls if key[0] == "moment_ratio") == 8


def _per_degree_norm_ratio(family, n):
    """Reference: the quadrature norm ratio that converted the weight's
    recurrence and the family's to float again for every degree."""
    spec = weight_for(family)
    weight_class = spec.classical_weight
    values, firsts = symtridiag_eigen(_classical_jacobi_matrix(weight_class, n + 2))
    mu0 = CLASSICAL[weight_class[0]].zeroth_moment(*weight_class[1:])
    rule = QuadratureRule(tuple(values), tuple(mu0 * v * v for v in firsts), 2 * n + 3)
    us = _branch_points(spec, rule)
    pos = [_per_node_basis_values(family, n, u) for u in us]
    neg = [_per_node_basis_values(family, n, -u) for u in us]
    norms = [
        _per_node_branch_sum(spec, rule, [r[k] * r[k] for r in pos],
                             [r[k] * r[k] for r in neg])
        for k in (n, n - 1)
    ]
    return norms[0] / norms[1]


@settings(deadline=None, max_examples=40)
@given(family=_quadrature_families, cap=st.integers(1, 12))
def test_shared_norm_tables_equal_per_degree_route(family, cap):
    # float(Fraction) rounds correctly, so every leading block of the tables
    # one weight shares is the per-degree conversion bit for bit
    spec = weight_for(family)
    worst = 0.0
    for n in range(1, cap + 1):
        ratio = norm_ratio_check(spec, n)
        assert ratio == _per_degree_norm_ratio(family, n)
        worst = max(worst, abs(ratio / float(family.sub(n)) - 1.0))
    [quad_record, _] = norm_records(family, RunMemo(), cap, 1, NORM_TOLERANCE)
    assert quad_record.residual == repr(worst)
    # grown tables still lend each degree its own leading block
    for n in range(cap - 1, 0, -1):
        assert norm_ratio_check(spec, n) == _per_degree_norm_ratio(family, n)


@settings(deadline=None, max_examples=40)
@given(family=_quadrature_families, n=st.integers(1, 16))
def test_norm_ratio_is_the_gram_diagonal_ratio(family, n):
    # one kernel, rule and basis table: the quadrature ratio is the ratio
    # of the Gram diagonal entries bit for bit
    gram = gram_matrix(weight_for(family), n)
    assert norm_ratio_check(weight_for(family), n) == gram[n][n] / gram[n - 1][n - 1]


# -- norms -----------------------------------------------------------------------------


def test_norm_ratio_worked_values():
    fam = chihara_family(1, 1, F(1, 2))
    # n = 1: (alpha+1)/(alpha+beta+2) = 1/2; n = 2: 1/10.
    assert (fam.sub(1), fam.sub(2)) == (F(1, 2), F(1, 10))
    # Laguerre type, mu = 3/2: ratio Gamma(mu+3/2)/Gamma(mu+1/2) = mu + 1/2 = 2.
    hermite = ext_hermite_family(F(3, 2), F(1, 2))
    assert hermite.sub(1) == 2
    for family in (fam, hermite):
        assert _norm_ratio_identity(family, 2) == "0"


def _pochhammer_norm_ratio(family, n):
    """Reference: the Jacobi-type closed-form norm ratio with its Pochhammer
    products multiplied out."""
    alpha, beta = family.p["alpha"], family.p["beta"]
    m = n // 2
    if n == 1 and alpha + beta + 1 == 0:
        return (alpha + 1) / (alpha + beta + 2)
    if n % 2 == 1:
        return (
            (m + alpha + 1) / (m + alpha + beta + 1)
            * (2 * m + alpha + beta + 1) / (2 * m + alpha + beta + 2)
            * (pochhammer(m + alpha + beta + 1, m) / pochhammer(m + alpha + beta + 2, m)) ** 2
        )
    return (
        F(m) * (m + beta) * (2 * m + alpha + beta) / (2 * m + alpha + beta + 1)
        * (pochhammer(m + alpha + beta + 1, m - 1) / pochhammer(m + alpha + beta + 1, m)) ** 2
    )


def test_telescoped_norm_ratio_equals_pochhammer_form():
    # every sub(n) that the exact norms check accepts is the closed form
    # with its Pochhammer products multiplied out, for n <= 60, also off
    # the integrable range; parameters where the closed form has a
    # vanishing factor at some degree are skipped
    rng = random.Random(2013)
    params = [(F(rng.randint(-40, 40), rng.randint(1, 6)), F(rng.randint(-40, 40), rng.randint(1, 6)))
              for _ in range(30)]
    # alpha + beta = -1 (Chebyshev type), and integer sums where a
    # Pochhammer factor vanishes at some degree
    params += [(F(-1, 2), F(-1, 2)), (F(-1, 4), F(-3, 4)), (F(2), F(-3)), (F(5, 3), F(-8, 3))]
    params += [(F(-5), F(2)), (F(1, 2), F(-37, 2)), (F(-20), F(-21)), (F(-1, 3), F(-8, 3))]
    checked = 0
    for alpha, beta in params:
        for fam in (gegenbauer_family(alpha, beta), chihara_family(alpha, beta, F(1, 3))):
            try:
                expected = [_pochhammer_norm_ratio(fam, n) for n in range(1, 61)]
            except ArithmeticError:
                continue
            assert _norm_ratio_identity(fam, 60) == "0", (alpha, beta)
            got = [fam.sub(n) for n in range(1, 61)]
            assert got == expected and {type(g) for g in got} == {F}, (alpha, beta)
            checked += 1
    assert checked == 60


def test_norm_ratio_rejects_n_zero():
    with pytest.raises(ValueError, match="^norm ratios start at n = 1$"):
        norm_ratio_check(weight_for(chihara_family(1, 1, F(1, 2))), 0)


# the pinned quadrature families, the |gamma| = 1000 sets where float gram
# and norms fail, alpha + beta + 1 = 0 on both Jacobi-type families, and
# negative Hermite exponents
_IDENTITY_SETS = FAMILY_SETS + [
    chihara_family(F(-999, 1000), F(99, 100), 1000),
    chihara_family(F(1, 19), F(-1, 1000), -1000),
    chihara_family(F(-1, 3), F(-2, 3), 5),
    gegenbauer_family(F(-1, 2), F(-1, 2)),
    gegenbauer_family(F(-3, 4), F(-1, 4)),
    gen_hermite_family(F(-1, 4)),
    ext_hermite_family(F(7, 4), F(-1, 3)),
]


@pytest.mark.parametrize("fam", _IDENTITY_SETS)
def test_norm_ratio_equals_recurrence_sub(fam):
    """The exact norms check accepts sub(n), n <= 60, and each is the
    closed-form norm ratio of the family, the alpha + beta + 1 = 0 branch
    included."""
    assert _norm_ratio_identity(fam, 60) == "0"
    for n in range(1, 61):
        assert fam.sub(n) == _per_family_norm_ratio(fam, n)
        if fam.name in ("chihara", "gegenbauer"):
            assert fam.sub(n) == _pochhammer_norm_ratio(fam, n)


@pytest.mark.parametrize("moved, residual", [
    (1, "fails at n=1"), (2, "fails at n=2"), (7, "fails at n=7"), (30, "fails at n=30")])
def test_norm_identity_names_the_first_moved_sub(monkeypatch, moved, residual):
    # sub(n) moved by 1/1000 breaks the identity that first reads it; an
    # exact cap below the moved degree never reads it
    chihara = FAMILIES["chihara"]
    monkeypatch.setitem(FAMILIES, "chihara", chihara._replace(
        sub=lambda m, odd, p: chihara.sub(m, odd, p) + F(2 * m + odd == moved, 1000)))
    fam = chihara_family(1, 1, F(1, 2))
    assert _norm_ratio_identity(fam, 30) == residual
    assert _norm_ratio_identity(fam, moved - 1) == "0"


def test_norm_identity_rejects_another_weights_ratios(monkeypatch):
    # the sub(n) of chihara (1, 1, 1/2) against the reduced weight of
    # (1, 2, 1/2): sub(1) = 1/2, but there diag_J(0) = 2/5
    chihara = FAMILIES["chihara"]
    monkeypatch.setitem(FAMILIES, "chihara", chihara._replace(
        reduced=lambda p: chihara.reduced({**p, "beta": p["beta"] + 1})))
    assert _norm_ratio_identity(chihara_family(1, 1, F(1, 2)), 30) == "fails at n=1"


@pytest.mark.parametrize(
    "fam", [chihara_family(1, 1, F(1, 2)), ext_hermite_family(F(3, 2), F(1, 2))]
)
def test_norm_ratio_quadrature_agreement(fam):
    for n in range(1, 13):
        ratio = norm_ratio_check(weight_for(fam), n)
        assert ratio == pytest.approx(float(fam.sub(n)), rel=1e-10)


def test_quad_keeps_float_work_only():
    # the exact work on a weight (the weight equation, the norm-ratio
    # identity) lives in families and suites, and no CLASSICAL entry
    # restates the norm ratios its recurrence fixes
    for name in ("LaurentPoly", "RatFunc", "norm_ratio_exact", "pearson_weight_equation",
                 "reduced_integrand", "_even_odd_split"):
        assert not hasattr(quad, name), name
    assert "norm_ratio" not in Classical._fields


def test_norm_head_matches_quadrature():
    # the norm head <P_0, P_0> in closed form: prefactor times Gamma values
    one = LaurentPoly.one()
    heads = [(chihara_family(1, 1, F(1, 2)), math.gamma(2.0) ** 2 / math.gamma(4.0)),
             (ext_hermite_family(F(3, 2), F(1, 2)), math.exp(-0.25) * math.gamma(2.0))]
    for fam, head in heads:
        assert inner_product(weight_for(fam), one, one) == pytest.approx(head, rel=1e-12)


def test_beta_function_past_the_gamma_range():
    # B(a+1, b+1) = b! / ((a+1) (a+2) ... (a+b+1)) for an integer b, exactly;
    # Gamma(1001) overflows, so the value comes through lgamma
    a, b = F(2, 3), 1000
    exact = F(math.factorial(b))
    for k in range(1, b + 2):
        exact /= a + k
    zeroth_moment = CLASSICAL["jacobi"].zeroth_moment
    assert zeroth_moment(a, b) == pytest.approx(float(exact), rel=1e-11)
    # inside the range the Gamma product is kept bit for bit
    assert zeroth_moment(F(1, 2), 3) == math.gamma(1.5) * math.gamma(4.0) / math.gamma(5.5)


# -- weights ----------------------------------------------------------------------------


@pytest.mark.parametrize("fam", FAMILY_SETS)
def test_weight_positive_inside_support(fam):
    # Even sample count keeps x = 0 (a legitimate weight zero of the
    # symmetric families) out of the sample set.
    spec = weight_for(fam)
    for lo, hi in spec.support_intervals():
        lo = max(lo, -8.0)
        hi = min(hi, 8.0)
        for i in range(8):
            x = lo + (hi - lo) * (i + 0.5) / 8
            assert spec.weight_value(x) > 0


def _dict_per_call_weight_value(fam, x):
    """Reference: the weight formula with its float parameters rebuilt per call."""
    p = {key: float(v) for key, v in fam.params}
    if fam.name == "chihara":
        g = p["gamma"]
        return (
            math.copysign(1.0, x)
            * (x + g)
            * (x * x - g * g) ** p["alpha"]
            * (1 + g * g - x * x) ** p["beta"]
        )
    if fam.name == "gegenbauer":
        return abs(x) ** (2 * p["alpha"] + 1) * (1 - x * x) ** p["beta"]
    if fam.name == "ext_hermite":
        g = p["gamma"]
        return (
            math.copysign(1.0, x)
            * (x + g)
            * (x * x - g * g) ** (p["mu"] - 0.5)
            * math.exp(-x * x)
        )
    return abs(x) ** (2 * p["mu"]) * math.exp(-x * x)


@pytest.mark.parametrize("fam", FAMILY_SETS)
def test_weight_value_equals_dict_per_call_formula(fam):
    spec = weight_for(fam)
    for lo, hi in spec.support_intervals():
        lo = max(lo, -8.0)
        hi = min(hi, 8.0)
        for i in range(17):
            x = lo + (hi - lo) * (i + 0.5) / 17
            assert spec.weight_value(x) == _dict_per_call_weight_value(fam, x)


def test_support_descriptors():
    spec = weight_for(chihara_family(1, 1, F(1, 2)))
    (nlo, nhi), (plo, phi) = spec.support_intervals()
    assert (plo, phi) == (0.5, pytest.approx(math.sqrt(1.25)))
    assert (nlo, nhi) == (pytest.approx(-math.sqrt(1.25)), -0.5)
    assert weight_for(gen_hermite_family(F(1, 2))).support_intervals() == (
        (-math.inf, math.inf),
    )


# Reference: the weight layer as one branch per family name, before the
# families became entries of one table.
_PER_FAMILY_SUPPORT_TEXT = {
    "chihara": "[-sqrt(1+gamma^2), -|gamma|] U [|gamma|, sqrt(1+gamma^2)]",
    "gegenbauer": "[-1, 1]",
    "ext_hermite": "(-inf, -|gamma|] U [|gamma|, inf)",
    "gen_hermite": "(-inf, inf)",
}


def _per_family_weight(fam):
    """Reference: (support intervals, reduced class, prefactor, support
    text) by one branch per family name."""
    p = fam.p
    gamma = p.get("gamma", F(0))
    g = abs(float(gamma))
    if fam.name == "chihara":
        hi = math.sqrt(1 + g * g)
        intervals = ((-hi, -g), (g, hi))
    elif fam.name == "gegenbauer":
        intervals = ((-1.0, 1.0),)
    elif fam.name == "ext_hermite":
        intervals = ((-math.inf, -g), (g, math.inf))
    else:
        intervals = ((-math.inf, math.inf),)
    if fam.name in ("chihara", "gegenbauer"):
        reduced = ("jacobi", p["alpha"], p["beta"])
    else:
        reduced = ("generalized_laguerre", p["mu"] - F(1, 2))
    prefactor = math.exp(-float(gamma) ** 2) if fam.name == "ext_hermite" else 1.0
    return intervals, reduced, prefactor, _PER_FAMILY_SUPPORT_TEXT[fam.name]


def _per_family_norm_ratio(fam, n):
    """Reference: the closed-form norm ratio by one branch per family name:
    Pochhammer quotients telescoped for the Jacobi type, Gamma(m+a+2) /
    Gamma(m+a+1) at odd n and m!/(m-1)! at even n for the Laguerre type."""
    p = fam.p
    m = n // 2
    if fam.name in ("chihara", "gegenbauer"):
        alpha, beta = p["alpha"], p["beta"]
        s = alpha + beta
        if n == 1 and s + 1 == 0:
            return (alpha + 1) / (alpha + beta + 2)
        if n % 2 == 1:
            return (m + alpha + 1) * (m + s + 1) / ((2 * m + s + 1) * (2 * m + s + 2))
        return F(m) * (m + beta) / ((2 * m + s) * (2 * m + s + 1))
    return m + p["mu"] + F(1, 2) if n % 2 == 1 else F(m)


def _assert_weight_matches_per_family_branches(fam):
    spec = weight_for(fam)
    intervals, reduced, prefactor, text = _per_family_weight(fam)
    assert spec.support_intervals() == intervals
    assert spec.classical_weight == reduced
    assert spec.reduced_prefactor() == prefactor
    assert spec.support == text
    assert _norm_ratio_identity(fam, 30) == "0"
    for n in range(1, 31):
        got = fam.sub(n)
        assert got == _per_family_norm_ratio(fam, n) and type(got) is F, n


_WEIGHT_TABLE_SETS = FAMILY_SETS + [
    chihara_family(F(1, 2), F(3, 4), 0),
    chihara_family(2, F(1, 3), F(-5, 2)),
    ext_hermite_family(F(3, 2), 0),
    ext_hermite_family(F(5, 7), F(-7, 3)),
]


@pytest.mark.parametrize("fam", _WEIGHT_TABLE_SETS)
def test_weight_layer_equals_per_family_branches(fam):
    _assert_weight_matches_per_family_branches(fam)


@settings(deadline=None, max_examples=60)
@given(fam=_quadrature_families)
def test_drawn_weight_layer_equals_per_family_branches(fam):
    _assert_weight_matches_per_family_branches(fam)


def test_family_table_matches_builders_and_weights():
    for name, entry in FAMILIES.items():
        assert tuple(inspect.signature(entry.build).parameters) == entry.params, name
    weighted = {name for name, entry in FAMILIES.items() if entry.weight}
    assert weighted == {name for name, entry in FAMILIES.items() if entry.reduced}
    assert weighted == {name for name, entry in FAMILIES.items() if entry.support}
    for fam in FAMILY_SETS:
        assert weight_for(fam).classical_weight == FAMILIES[fam.name].reduced(fam.p)


def test_weight_for_rejects_every_family_without_a_weight():
    rejected = sorted(set(FAMILIES) - set(_PER_FAMILY_SUPPORT_TEXT))
    assert rejected == ["big_m1_jacobi", "big_q_jacobi", "cbi"]
    for name in rejected:
        entry = FAMILIES[name]
        fam = entry.build(*[F(1, 2)] * len(entry.params))
        message = f"^no continuous weight carried for family '{name}'$"
        with pytest.raises(ValueError, match=message):
            weight_for(fam)


# -- Pearson ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [(1, 2, F(1, 3)), (1, 1, F(1, 2)), (F(1, 2), F(3, 4), F(1, 3)), (2, 3, F(-2, 5)), (3, 1, F(2, 7))],
)
def test_pearson_exact_and_reflection(alpha, beta, gamma):
    family = chihara_family(alpha, beta, gamma)
    assert pearson_weight_equation(family)
    assert verify_pearson(family, 12) <= 1e-12


def test_pearson_symmetric_point_trivial():
    family = chihara_family(1, 1, 0)
    assert pearson_weight_equation(family)
    assert verify_pearson(family, 12) == 0.0


def _per_sample_reflection(family, samples_per_side):
    """Reference: condition (ii) through ``WeightSpec.weight_value`` per sample."""
    spec = weight_for(family)
    g = float(spec.gamma)
    worst = 0.0
    for lo, hi in spec.support_intervals():
        for i in range(samples_per_side):
            xx = lo + (hi - lo) * (i + 0.5) / samples_per_side
            wx = spec.weight_value(xx)
            wmx = spec.weight_value(-xx)
            worst = max(worst, abs((xx + g) * wmx + (-xx + g) * wx) / abs(wx))
    return worst


@settings(deadline=None, max_examples=60)
@given(
    alpha=_positive,
    beta=_positive,
    gamma=_signed,
    samples=st.integers(1, 40),
)
def test_pearson_reflection_equals_per_sample_weight_values(alpha, beta, gamma, samples):
    worst = _per_sample_reflection(chihara_family(alpha, beta, gamma), samples)
    assert verify_pearson(chihara_family(alpha, beta, gamma), samples) == worst


def test_pearson_rejects_other_families():
    message = "^the Pearson conditions are carried for the chihara family$"
    with pytest.raises(ValueError, match=message):
        verify_pearson(gen_hermite_family(F(1, 2)), 12)
    with pytest.raises(ValueError, match=message):
        pearson_weight_equation(gen_hermite_family(F(1, 2)))


# -- the tuned loops against their plain forms -----------------------------------------
# Test-local copies of the loops that ``symtridiag_eigen``, ``_check_nodes``,
# ``gauss_rule``, ``verify_pearson`` and the chihara weight ran before the
# interpreter work around their float operations was cut.  The operations,
# their operands and their order are the same, so each result must be the
# same bit for bit and each exception the same, message included.


def _plain_eigen(T):
    """Reference: the QL sweep that read every d[i] from the list, scanned
    for a split with ``abs`` and sorted with a lambda."""
    n = len(T.diag)
    if n == 0:
        return [], []
    scale = T.scale
    if scale == 0.0:
        return [0.0] * n, [1.0] + [0.0] * (n - 1)
    d = list(T.diag)
    e = list(T.offdiag) + [0.0]
    z = [1.0] + [0.0] * (n - 1)
    threshold = quad.SPLIT_THRESHOLD * scale
    max_sweeps = quad.MAX_SWEEPS
    sweeps = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > threshold:
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise NoConvergence(f"QL sweep cap {max_sweeps} exceeded")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            z_next = z[m]
            for i in range(m - 1, l - 1, -1):
                e_i = e[i]
                f = s * e_i
                b = c * e_i
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    z[i + 1] = z_next
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z_next
                z_i = z[i]
                z[i + 1] = s * z_i + c * f
                z_next = c * z_i - s * f
            else:
                z[l] = z_next
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    order = sorted(range(n), key=lambda i: d[i])
    values = [d[i] for i in order]
    _plain_check_nodes(T, values, scale)
    return values, [z[i] for i in order]


def _plain_check_nodes(T, values, scale):
    """Reference: one pivot chain per count, each stopping at i + 1."""
    delta = quad.NODE_MARGIN * scale
    for i, lam in enumerate(values):
        if (
            _negative_pivots(T, lam - delta, i + 1) > i
            or _negative_pivots(T, lam + delta, i + 1) < i + 1
        ):
            raise NoConvergence(
                f"node {i} at {lam!r} fails the Sturm count within "
                f"{quad.NODE_MARGIN:.0e} * {scale:.3e}"
            )


def _plain_gauss_rule(weight, n):
    """Reference: ``gauss_rule`` over the plain sweep, weights from a generator."""
    values, firsts = _plain_eigen(weight.jacobi_matrix(n))
    [mu0] = weight.moments(1)
    rule = QuadratureRule(tuple(values), tuple(mu0 * v * v for v in firsts), 2 * n - 1)
    quad._validate_moments(rule, weight)
    return rule


def _plain_chihara_weight(p):
    """Reference: the chihara weight as one lambda."""
    g, a, b = p["gamma"], p["alpha"], p["beta"]
    return lambda x: (
        math.copysign(1.0, x) * (x + g) * (x * x - g * g) ** a * (1 + g * g - x * x) ** b
    )


def _plain_reflection(family, samples_per_side, weight=_plain_chihara_weight):
    """Reference: condition (ii) of ``verify_pearson`` over the lambda weight,
    the worst ratio kept by ``max``."""
    spec = weight_for(family)
    g = float(spec.gamma)
    weight_value = weight({key: float(v) for key, v in family.params})
    worst = 0.0
    for xx in spec.midpoints(samples_per_side):
        wx = weight_value(xx)
        wmx = weight_value(-xx)
        relative = abs((xx + g) * wmx + (-xx + g) * wx) / abs(wx)
        worst = max(worst, relative)
    return worst


def _bits(value):
    """Floats as ``float.hex`` (so -0.0 and nan count), containers element
    by element, anything else (a complex power) by ``repr``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return repr(value)


def _outcome(call, *args):
    """("ok", bits of the result) or (exception type, message)."""
    try:
        result = call(*args)
    except (ArithmeticError, NoConvergence, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, QuadratureRule):
        result = (result.nodes, result.weights, result.exact_degree)
    return "ok", _bits(result)


_above_minus_one = st.fractions(min_value=-1, max_value=12, max_denominator=16).filter(
    lambda v: v > -1)
_reduced_weights = st.one_of(
    st.tuples(st.just("jacobi"), _above_minus_one, _above_minus_one),
    st.tuples(st.just("generalized_laguerre"), _above_minus_one),
)


@settings(deadline=None, max_examples=60)
@given(weight_class=_reduced_weights, n=st.integers(1, 60))
def test_tuned_gauss_rule_equals_plain_loops(weight_class, n):
    weight = ClassicalWeight(weight_class)
    T = weight.jacobi_matrix(n)
    assert _outcome(symtridiag_eigen, T) == _outcome(_plain_eigen, T)
    # fresh instances: ``rule`` would hand back the rule of the first call
    assert (_outcome(gauss_rule, ClassicalWeight(weight_class), n)
            == _outcome(_plain_gauss_rule, ClassicalWeight(weight_class), n))


# zeros, subnormals and the smallest normal: with every entry this small the
# split threshold underflows to 0.0, and rotations meet r == 0.0
_TINY = (0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1e-310, 2.2250738585072014e-308)
_tiny_or_plain = st.sampled_from(_TINY) | st.floats(-2, 2)


@st.composite
def _tridiagonals(draw):
    entries = _tiny_or_plain if draw(st.booleans()) else st.sampled_from(_TINY)
    n = draw(st.integers(1, 10))
    return SymTridiag(tuple(draw(st.lists(entries, min_size=n, max_size=n))),
                      tuple(draw(st.lists(entries, min_size=n - 1, max_size=n - 1))))


@settings(deadline=None, max_examples=120)
@given(T=_tridiagonals(), cap=st.sampled_from((0, 1, 3, quad.MAX_SWEEPS)))
def test_tuned_sweep_equals_plain_loop_on_tiny_entries(T, cap):
    with mock.patch.object(quad, "MAX_SWEEPS", cap):
        assert _outcome(symtridiag_eigen, T) == _outcome(_plain_eigen, T)


def _zero_rotation_lines():
    """Line numbers of the ``r == 0.0`` branch of ``symtridiag_eigen``."""
    lines, start = inspect.getsourcelines(symtridiag_eigen)
    return {start + k for k, line in enumerate(lines) if "d[i + 1] = d_next - p" in line}


@pytest.mark.parametrize("T", [
    SymTridiag((1e-320, -5e-324, 2.2250738585072014e-308), (2.2250738585072014e-308, 1e-320)),
    SymTridiag((-0.0, 5e-324, -5e-324), (1e-310, -5e-324)),
    SymTridiag((0.0, 0.0, 0.0, 5e-324, 5e-324), (0.0, 0.0, 1e-310, -5e-324)),
    SymTridiag((-5e-324, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308),
               (1e-320, 1e-320, 1e-320, -0.0)),
])
def test_zero_rotation_branch_is_taken_and_equals_plain_loop(T):
    branch, seen = _zero_rotation_lines(), set()
    code = symtridiag_eigen.__code__

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return lines
        return lines

    sys.settrace(trace)
    try:
        tuned = _outcome(symtridiag_eigen, T)
    finally:
        sys.settrace(None)
    assert branch and branch <= seen
    assert tuned == _outcome(_plain_eigen, T)


@st.composite
def _moved_nodes(draw):
    if draw(st.booleans()):
        T = ClassicalWeight(draw(_reduced_weights)).jacobi_matrix(draw(st.integers(1, 30)))
    else:
        n = draw(st.integers(1, 12))
        diag = st.floats(-2, 2) | st.just(-0.0)
        T = SymTridiag(tuple(draw(st.lists(diag, min_size=n, max_size=n))),
                       tuple(draw(st.lists(st.floats(-2, 2), min_size=n - 1, max_size=n - 1))))
    try:
        values, _ = _plain_eigen(T)
    except NoConvergence:   # a drawn matrix whose own nodes fail
        values = sorted(T.diag)
    moves = draw(st.lists(st.tuples(
        st.integers(0, len(values) - 1),
        st.sampled_from((1e-14, -1e-14, 1e-12, -1e-12, 1e-9, -1e-9, 1e-3, -1e-3)),
    ), max_size=3))
    for i, shift in moves:
        values[i] += shift * T.scale
    # a node where one chain runs at x = 0.0, so that a diagonal -0.0 makes
    # a -0.0 pivot, or a node that is not finite
    special = (quad.NODE_MARGIN * T.scale, -quad.NODE_MARGIN * T.scale,
               math.nan, math.inf, -math.inf)
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(special))
    return T, values


@settings(deadline=None, max_examples=100)
@given(_moved_nodes())
def test_one_pass_node_check_equals_two_early_stop_counts(case):
    T, values = case
    assert (_outcome(quad._check_nodes, T, values, T.scale)
            == _outcome(_plain_check_nodes, T, values, T.scale))


@pytest.mark.parametrize("T", [SymTridiag((-0.0,), ()), SymTridiag((-0.0, 1.0), (0.5,)),
                               SymTridiag((-0.0, 0.0, -0.0), (0.0, 0.5))])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_node_check_replaces_a_negative_zero_pivot(T, side):
    # node 0 at -+delta runs one chain at x = 0.0 exactly, where the
    # diagonal -0.0 gives the pivot -0.0 - 0.0 - 0.0 / 1.0 = -0.0
    delta = quad.NODE_MARGIN * T.scale
    values = [side * delta] + sorted(T.diag)[1:]
    assert (_outcome(quad._check_nodes, T, values, T.scale)
            == _outcome(_plain_check_nodes, T, values, T.scale))


_pearson_exponent = _above_minus_one | st.sampled_from((F(1000), F(-999, 1000)))
_pearson_gamma = st.fractions(min_value=-3, max_value=3, max_denominator=12) | st.sampled_from(
    (F(1000), F(-1000), F(1, 1000)))


@settings(deadline=None, max_examples=60)
@given(alpha=_pearson_exponent, beta=_pearson_exponent, gamma=_pearson_gamma,
       samples=st.integers(1, 60))
def test_pearson_reflection_equals_plain_max_loop(alpha, beta, gamma, samples):
    family = chihara_family(alpha, beta, gamma)
    assert _outcome(verify_pearson, family, samples) == _outcome(_plain_reflection, family, samples)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize("where", [0, 1, 5])
def test_pearson_reflection_skips_nan_as_max_does(bad, where, monkeypatch):
    # a weight that is nan, inf or 0.0 at one sample: inf / inf is a nan
    # ratio, which ``max`` and the comparison both skip; 0.0 divides by zero
    def weight(p):
        plain = _plain_chihara_weight(p)
        xs = list(spec.midpoints(4))
        return lambda x: bad if x == xs[where] else plain(x)

    family = chihara_family(1, 2, F(1, 3))
    spec = weight_for(family)
    monkeypatch.setitem(FAMILIES, "chihara", FAMILIES["chihara"]._replace(weight=weight))
    assert _outcome(verify_pearson, family, 4) == _outcome(_plain_reflection, family, 4, weight)


@settings(deadline=None, max_examples=150)
@given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3), gamma=st.floats(-3, 3),
       x=st.floats(-4, 4) | st.sampled_from((0.0, -0.0, 1.0, -1.0)))
def test_chihara_weight_equals_plain_lambda(alpha, beta, gamma, x):
    # x anywhere, in the support or not: a negative base gives a complex
    # power and 0.0 to a negative power raises, in both forms alike
    p = {"alpha": alpha, "beta": beta, "gamma": gamma}
    assert (_outcome(FAMILIES["chihara"].weight(p), x)
            == _outcome(_plain_chihara_weight(p), x))
