"""Quadrature tests: eigensolver, Gauss rules, reduction, norms, Pearson."""

import collections
import inspect
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklpoly.exactnum import LaurentPoly
from dunklpoly.families import (
    CLASSICAL,
    FAMILIES,
    FamilySpec,
    chihara_family,
    ext_hermite_family,
    gegenbauer_family,
    gen_hermite_family,
    generate_monic,
    pochhammer,
)
from dunklpoly import quad
from dunklpoly.quad import (
    NoConvergence,
    QuadratureRule,
    SymTridiag,
    _basis_table,
    gauss_rule,
    gram_matrix,
    gram_offdiag_worst,
    inner_product,
    norm_ratio_check,
    norm_ratio_exact,
    raw_inner_product,
    symtridiag_eigen,
    verify_pearson,
    weight_for,
)
from dunklpoly.suites import norm_records

FAMILY_SETS = [
    chihara_family(1, 1, F(1, 2)),
    chihara_family(F(1, 2), F(3, 4), F(-1, 3)),
    gegenbauer_family(1, 1),
    gegenbauer_family(F(1, 2), 2),
    ext_hermite_family(F(3, 2), F(1, 2)),
    ext_hermite_family(F(1, 2), F(1, 3)),
    gen_hermite_family(F(1, 2)),
    gen_hermite_family(F(3, 2)),
]


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


def test_eigen_sweep_cap_raises():
    with pytest.raises(NoConvergence):
        symtridiag_eigen(SymTridiag((0.0, 0.0), (1.0,)), max_sweeps=0)


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


def test_sturm_count_brackets_closed_form_eigenvalues():
    # eigenvalues of the 3 x 3 matrix with zero diagonal: 0, +-a sqrt 2
    T = SymTridiag((0.0, 0.0, 0.0), (0.7, 0.7))
    edge = 0.7 * math.sqrt(2)
    counts = [quad._sturm_count(T, x) for x in (-2.0, -edge + 1e-9, 1e-9, edge + 1e-9)]
    assert counts == [0, 1, 2, 3]


def _full_count_check_nodes(T, values, scale):
    """Reference: the node check that counted every pivot of both Sturm
    sequences before comparing with i + 1."""
    delta = quad.NODE_MARGIN * scale
    for i, lam in enumerate(values):
        if quad._sturm_count(T, lam - delta) > i or quad._sturm_count(T, lam + delta) < i + 1:
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
    rule = gauss_rule(("jacobi", 0, 0), 1)
    assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)
    assert rule.exact_degree == 1


def test_uniform_rule_two_nodes():
    rule = gauss_rule(("jacobi", 0, 0), 2)
    off = 1 / (2 * math.sqrt(3))
    assert rule.nodes == pytest.approx([0.5 - off, 0.5 + off], abs=1e-14)
    assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-14)


def test_laguerre_rule_one_node():
    rule = gauss_rule(("generalized_laguerre", 0), 1)
    assert rule.nodes[0] == pytest.approx(1.0, abs=1e-14)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-14)


def test_laguerre_rule_one_node_shifted():
    # mu_0 = Gamma(a+1), mu_1 = Gamma(a+2) force the node to a+1.
    rule = gauss_rule(("generalized_laguerre", F(3, 2)), 1)
    assert rule.nodes[0] == pytest.approx(2.5, abs=1e-13)
    assert rule.weights[0] == pytest.approx(math.gamma(2.5), rel=1e-14)


@pytest.mark.parametrize(
    "weight_class",
    [("jacobi", F(3, 2), F(1, 2)), ("jacobi", 1, 2), ("generalized_laguerre", 1)],
)
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_rule_invariants(weight_class, n):
    rule = gauss_rule(weight_class, n)
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
    rule = gauss_rule(("jacobi", F(-1, 2), F(-1, 2)), n)
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
    with pytest.raises(ValueError):
        gauss_rule(("jacobi", -1, 0), 3)
    with pytest.raises(ValueError):
        gauss_rule(("generalized_laguerre", F(-5, 4)), 3)
    with pytest.raises(ValueError):
        gauss_rule(("jacobi", 0, 0), 0)
    with pytest.raises(ValueError):
        gauss_rule(("chebyshev",), 3)


@settings(deadline=None, max_examples=30)
@given(
    a=st.fractions(min_value=F(-1, 2), max_value=3, max_denominator=4),
    b=st.fractions(min_value=F(-1, 2), max_value=3, max_denominator=4),
    n=st.integers(min_value=1, max_value=8),
)
def test_rule_moment_property(a, b, n):
    # gauss_rule validates its own moments to 1e-13 relative at build time.
    rule = gauss_rule(("jacobi", a, b), n)
    assert rule.exact_degree == 2 * n - 1


def test_weights_equal_christoffel_numbers():
    # w_i = mu0 / sum_(k < n) p_k(lambda_i)^2 with p_k the orthonormal
    # recurrence scaled to p_0 = 1 (Gautschi 2004, section 3.1.1); tiny
    # weights carry only absolute accuracy, so the bound is 1e-13 mu0
    rng = random.Random(1969)
    for _ in range(60):
        weight_class = _random_weight_class(rng)
        n = rng.randint(1, 40)
        rule = gauss_rule(weight_class, n)
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


def test_branch_sum_equals_exact_reduced_integrand():
    """The pointwise branch-sum form agrees with the exact t-polynomial."""
    from dunklpoly.quad import reduced_integrand

    fam = chihara_family(1, 2, F(1, 3))
    spec = weight_for(fam)
    f, g = LaurentPoly({3: F(1), 0: F(2)}), LaurentPoly({2: F(1), 1: F(-1)})
    integrand = reduced_integrand(spec, f, g)
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
    gram = gram_matrix(fam, 6)
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
    assert gram_matrix(family, N) == _pairwise_gram_matrix(family, N)


def norm_request(family, cap):
    """One norms request; exact_cap=1 reads sub(1) once more."""
    return norm_records(family, cap, exact_cap=1)


def norm_check(family, n):
    """One norm check at degree n, on a weight of its own."""
    return norm_ratio_check(weight_for(family), n)


@pytest.mark.parametrize(
    "check", [gram_matrix, pytest.param(norm_check, id="norm_ratio_check"), norm_request]
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
    assert 0 < calls["diag"] <= n + 1
    assert 0 < calls["sub"] <= n + 1
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
    norm_records(fam, 12, exact_cap=1)
    assert calls and max(calls.values()) == 1
    assert sum(1 for key in calls if key[0] == "moment_ratio") == 8


def _per_degree_norm_ratio(family, n):
    """Reference: the norm check that converted the weight's recurrence and
    the family's to float again for every degree."""
    spec = weight_for(family)
    weight_class = spec.classical_weight
    values, firsts = symtridiag_eigen(_classical_jacobi_matrix(weight_class, n + 2))
    mu0 = CLASSICAL[weight_class[0]].zeroth_moment(*weight_class[1:])
    rule = QuadratureRule(tuple(values), tuple(mu0 * v * v for v in firsts),
                          weight_class, 2 * n + 3)
    us = _branch_points(spec, rule)
    pos = [_per_node_basis_values(family, n, u) for u in us]
    neg = [_per_node_basis_values(family, n, -u) for u in us]
    norms = [
        _per_node_branch_sum(spec, rule, [r[k] * r[k] for r in pos],
                             [r[k] * r[k] for r in neg])
        for k in (n, n - 1)
    ]
    return norm_ratio_exact(family, n), norms[0] / norms[1]


@settings(deadline=None, max_examples=40)
@given(family=_quadrature_families, cap=st.integers(1, 12))
def test_shared_norm_tables_equal_per_degree_route(family, cap):
    # float(Fraction) rounds correctly, so every leading block of the tables
    # one weight shares is the per-degree conversion bit for bit
    spec = weight_for(family)
    worst = 0.0
    for n in range(1, cap + 1):
        exact, ratio = norm_ratio_check(spec, n)
        assert (exact, ratio) == _per_degree_norm_ratio(family, n)
        worst = max(worst, abs(ratio / float(exact) - 1.0))
    [quad_record, _] = norm_records(family, cap, exact_cap=1)
    assert quad_record.residual == repr(worst)
    # grown tables still lend each degree its own leading block
    for n in range(cap - 1, 0, -1):
        assert norm_ratio_check(spec, n) == _per_degree_norm_ratio(family, n)


@settings(deadline=None, max_examples=40)
@given(family=_quadrature_families, n=st.integers(1, 16))
def test_norm_ratio_is_the_gram_diagonal_ratio(family, n):
    # one kernel, rule and basis table: the quadrature ratio is the ratio
    # of the Gram diagonal entries bit for bit
    gram = gram_matrix(family, n)
    assert norm_ratio_check(weight_for(family), n)[1] == gram[n][n] / gram[n - 1][n - 1]


# -- norms -----------------------------------------------------------------------------


def test_norm_ratio_exact_worked_values():
    fam = chihara_family(1, 1, F(1, 2))
    # n = 1: (alpha+1)/(alpha+beta+2) = 1/2; n = 2: 1/10.
    assert norm_ratio_exact(fam, 1) == F(1, 2)
    assert norm_ratio_exact(fam, 2) == F(1, 10)
    # Laguerre type, mu = 3/2: ratio Gamma(mu+3/2)/Gamma(mu+1/2) = mu + 1/2 = 2.
    assert norm_ratio_exact(ext_hermite_family(F(3, 2), F(1, 2)), 1) == 2


def _pochhammer_norm_ratio(family, n):
    """Reference: the Jacobi-type closed form with its Pochhammer products
    multiplied out, as it stood before they were telescoped."""
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
    rng = random.Random(2013)
    params = [(F(rng.randint(-40, 40), rng.randint(1, 6)), F(rng.randint(-40, 40), rng.randint(1, 6)))
              for _ in range(30)]
    # alpha + beta = -1 (Chebyshev type), and integer sums where a
    # Pochhammer factor vanishes at some degree
    params += [(F(-1, 2), F(-1, 2)), (F(-1, 4), F(-3, 4)), (F(2), F(-3)), (F(5, 3), F(-8, 3))]
    params += [(F(-5), F(2)), (F(1, 2), F(-37, 2)), (F(-20), F(-21)), (F(-1, 3), F(-8, 3))]
    raised = 0
    for alpha, beta in params:
        for fam in (gegenbauer_family(alpha, beta), chihara_family(alpha, beta, F(1, 3))):
            for n in range(1, 61):
                try:
                    expected = _pochhammer_norm_ratio(fam, n)
                except ArithmeticError as exc:
                    raised += 1
                    with pytest.raises(type(exc)):
                        norm_ratio_exact(fam, n)
                else:
                    got = norm_ratio_exact(fam, n)
                    assert got == expected and type(got) is F, (alpha, beta, n)
    assert raised > 0


def test_norm_ratio_rejects_n_zero():
    with pytest.raises(ValueError):
        norm_ratio_exact(chihara_family(1, 1, F(1, 2)), 0)


@pytest.mark.parametrize("fam", FAMILY_SETS)
def test_norm_ratio_equals_recurrence_sub(fam):
    """The closed-form norm ratio is the recurrence sub-coefficient, n <= 30."""
    for n in range(1, 31):
        assert norm_ratio_exact(fam, n) == fam.sub(n)


@pytest.mark.parametrize(
    "fam", [chihara_family(1, 1, F(1, 2)), ext_hermite_family(F(3, 2), F(1, 2))]
)
def test_norm_ratio_quadrature_agreement(fam):
    for n in range(1, 13):
        exact, quad = norm_ratio_check(weight_for(fam), n)
        assert quad == pytest.approx(float(exact), rel=1e-10)


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
    """Reference: the closed-form norm ratio by one branch per family name."""
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
    for n in range(1, 31):
        got = norm_ratio_exact(fam, n)
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
    # weight_for and norm_ratio_exact, which reads the FAMILIES entry
    # without a WeightSpec, give the same error
    rejected = sorted(set(FAMILIES) - set(_PER_FAMILY_SUPPORT_TEXT))
    assert rejected == ["big_m1_jacobi", "big_q_jacobi", "cbi"]
    for name in rejected:
        entry = FAMILIES[name]
        fam = entry.build(*[F(1, 2)] * len(entry.params))
        message = f"^no continuous weight carried for family '{name}'$"
        with pytest.raises(ValueError, match=message):
            weight_for(fam)
        with pytest.raises(ValueError, match=message):
            norm_ratio_exact(fam, 1)


# -- Pearson ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [(1, 2, F(1, 3)), (1, 1, F(1, 2)), (F(1, 2), F(3, 4), F(1, 3)), (2, 3, F(-2, 5)), (3, 1, F(2, 7))],
)
def test_pearson_exact_and_reflection(alpha, beta, gamma):
    report = verify_pearson(chihara_family(alpha, beta, gamma))
    assert report.ode_exact
    assert report.ode_residual == "0"
    assert report.reflection_samples >= 20
    assert report.reflection_ok
    assert report.passed


def test_pearson_symmetric_point_trivial():
    report = verify_pearson(chihara_family(1, 1, 0))
    assert report.passed
    assert report.reflection_worst == 0.0


def _per_sample_reflection(family, samples_per_side, tolerance=1e-12):
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
    return worst, worst <= tolerance


@settings(deadline=None, max_examples=60)
@given(
    alpha=_positive,
    beta=_positive,
    gamma=_signed,
    samples=st.integers(1, 40),
)
def test_pearson_reflection_equals_per_sample_weight_values(alpha, beta, gamma, samples):
    report = verify_pearson(chihara_family(alpha, beta, gamma), samples)
    worst, ok = _per_sample_reflection(chihara_family(alpha, beta, gamma), samples)
    assert report.reflection_worst == worst
    assert report.reflection_ok == ok


def test_pearson_rejects_other_families():
    with pytest.raises(ValueError):
        verify_pearson(gen_hermite_family(F(1, 2)))
