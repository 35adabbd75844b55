"""Exact arithmetic layer: frozen examples plus algebraic property tests."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklpoly.exactnum import (
    LaurentPoly,
    NotDivisible,
    NotPolynomial,
    RatFunc,
    ZeroDenominator,
    _add_scaled,
    _affine_terms,
    _canonical,
    _product,
    exact_polynomial_check,
    linear_combination,
    monomial_numerator,
    poly_divmod,
    poly_exact_div,
    poly_gcd,
    residual,
    three_term_step,
)

X = LaurentPoly.x()


def lp(mapping):
    return LaurentPoly(mapping)


# -- frozen worked examples ---------------------------------------------------


def test_laurent_product_clears_pole():
    p = lp({-1: 1, 0: 1})
    assert p * X == lp({0: 1, 1: 1})


def test_laurent_derivative_negative_exponent():
    p = lp({-2: 3})
    assert p.derivative() == lp({-3: -6})


def test_substitute_affine_reflection_shift():
    assert X.substitute_affine(-1, -1) == lp({1: -1, 0: -1})


def test_ratfunc_reduction_cancels_common_factor():
    gamma = Fraction(1, 2)
    num = lp({3: 1, 1: -(gamma**2)})
    r = RatFunc.of(num, X)
    assert r.num == lp({2: 1, 0: Fraction(-1, 4)})
    assert r.den == LaurentPoly.one()


def test_exact_polynomial_check_difference_of_squares():
    gamma = Fraction(2, 3)
    num = lp({2: 1, 0: -(gamma**2)})
    den = lp({1: 1, 0: -gamma})
    assert exact_polynomial_check(RatFunc.of(num, den)) == lp({1: 1, 0: gamma})


def test_exact_polynomial_check_rejects_true_pole():
    r = RatFunc.of(lp({2: 1, 0: 1}), X)
    with pytest.raises(NotPolynomial):
        exact_polynomial_check(r)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RatFunc.of(X, LaurentPoly.zero())


def test_degree_sentinels():
    assert LaurentPoly.zero().degree is None
    assert LaurentPoly.zero().min_exp is None
    assert lp({-3: 1, 2: 5}).degree == 2
    assert lp({-3: 1, 2: 5}).min_exp == -3


def test_no_zero_coefficients_stored():
    p = lp({0: 1, 1: 1}) - lp({1: 1})
    assert p.items() == ((0, Fraction(1)),)


def test_substitution_with_pole_and_shift_returns_ratfunc():
    p = lp({-1: 1})
    r = p.substitute_affine(1, 1)
    assert isinstance(r, RatFunc)
    assert r.num == LaurentPoly.one()
    assert r.den == lp({1: 1, 0: 1})


def test_poly_exact_div_and_remainder():
    a = lp({2: 1, 0: Fraction(-9, 25)})
    b = lp({1: 1, 0: Fraction(3, 5)})
    assert poly_exact_div(a, b) == lp({1: 1, 0: Fraction(-3, 5)})
    with pytest.raises(NotDivisible):
        poly_exact_div(a + LaurentPoly.one(), b)


def test_compose_sparse_horner():
    outer = lp({3: 2, 0: -1})
    inner = lp({1: 1, 0: 1})
    expected = 2 * inner * inner * inner - LaurentPoly.one()
    assert outer.compose(inner) == expected


def test_str_matches_cli_format():
    assert str(lp({2: 1, 0: Fraction(-3, 4)})) == "x^2 - 3/4"
    assert str(LaurentPoly.zero()) == "0"
    assert str(lp({1: Fraction(1, 2), -1: 1})) == "1/2*x + x^-1"


# -- property tests ------------------------------------------------------------

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def laurents(draw, min_exp=-4, max_exp=6):
    exps = draw(st.lists(st.integers(min_exp, max_exp), max_size=5))
    return LaurentPoly({e: draw(rationals) for e in exps})


@st.composite
def plain_polys(draw, max_deg=5, nonzero=False):
    exps = draw(st.lists(st.integers(0, max_deg), min_size=1 if nonzero else 0, max_size=5))
    p = LaurentPoly({e: draw(rationals) for e in exps})
    if nonzero and p.is_zero:
        p = p + LaurentPoly.one()
    return p


@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(laurents())
def test_reflection_is_an_involution(p):
    assert p.substitute_affine(-1, 0).substitute_affine(-1, 0) == p


@given(plain_polys(), st.fractions(min_value=-6, max_value=6, max_denominator=4))
def test_shift_then_unshift(p, delta):
    assert p.substitute_affine(1, delta).substitute_affine(1, -delta) == p


@given(laurents(), laurents())
def test_product_rule(a, b):
    lhs = (a * b).derivative()
    assert lhs == a.derivative() * b + a * b.derivative()


@given(plain_polys(nonzero=True), plain_polys(nonzero=True), plain_polys(nonzero=True))
def test_gcd_cancellation_gives_equal_ratfunc(a, b, c):
    assert RatFunc.of(a * c, b * c) == RatFunc.of(a, b)


@given(plain_polys(), plain_polys(nonzero=True))
def test_divmod_identity(a, b):
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(plain_polys(nonzero=True), plain_polys(nonzero=True))
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert poly_divmod(a, g)[1].is_zero
    assert poly_divmod(b, g)[1].is_zero
    assert g.leading_coeff() == 1


@settings(max_examples=60)
@given(laurents(), st.sampled_from([1, -1]), st.fractions(min_value=-5, max_value=5, max_denominator=3))
def test_substitution_is_evaluation_compatible(p, eps, delta):
    x0 = Fraction(3, 7)
    target = Fraction(eps) * x0 + delta
    if target == 0 and (p.min_exp or 0) < 0:
        return
    image = p.substitute_affine(eps, delta)
    assert image.evaluate(x0) == p.evaluate(target)


# -- differential tests against the Fraction-per-coefficient form ---------------
#
# ``RefPoly`` is the earlier LaurentPoly: one Fraction per coefficient in a
# dict, with the same insertion and pop order in every operation.  The
# integer-numerator form must give the same coefficients, strings and hashes,
# and the same ``evaluate_float`` bit for bit, which holds only if every
# result keeps its terms in the same order.


def _ref_wrap(coeffs):
    p = RefPoly.__new__(RefPoly)
    p.c = coeffs
    return p


class RefPoly:
    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        store = {}
        for exp, c in items:
            c = Fraction(c)
            if c:
                store[exp] = store.get(exp, Fraction(0)) + c
                if not store[exp]:
                    del store[exp]
        self.c = store

    def items(self):
        return tuple(sorted(self.c.items()))

    @property
    def degree(self):
        return max(self.c) if self.c else None

    def __add__(self, other):
        out = dict(self.c)
        for exp, c in other.c.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _ref_wrap(out)

    def __neg__(self):
        return _ref_wrap({e: -c for e, c in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c0):
        c0 = Fraction(c0)
        if not c0:
            return RefPoly()
        return _ref_wrap({e: c * c0 for e, c in self.c.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.c.items():
            for e2, c2 in other.c.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _ref_wrap(out)

    def __pow__(self, n):
        result, base = RefPoly({0: 1}), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self):
        return _ref_wrap({e - 1: c * e for e, c in self.c.items() if e != 0})

    def substitute_affine(self, eps, delta):
        """A RefPoly, or a reduced (num, den) pair when a pole stays."""
        eps, delta = Fraction(eps), Fraction(delta)
        if not delta:
            return _ref_wrap({e: c * eps**e for e, c in self.c.items()})
        inner = RefPoly({1: eps, 0: delta})
        pos = RefPoly()
        neg_parts = {}
        for e, c in self.c.items():
            if e >= 0:
                pos = pos + (inner**e).scale(c)
            else:
                neg_parts[-e] = c
        if not neg_parts:
            return pos
        m = max(neg_parts)
        num = pos * inner**m
        for k, c in neg_parts.items():
            num = num + (inner ** (m - k)).scale(c)
        return ref_reduce(num, inner**m)

    def compose(self, inner):
        result, prev_exp = RefPoly(), None
        for e in sorted(self.c, reverse=True):
            if prev_exp is None:
                result = RefPoly({0: self.c[e]})
            else:
                result = result * inner ** (prev_exp - e) + RefPoly({0: self.c[e]})
            prev_exp = e
        if prev_exp is None:
            return RefPoly()
        return result * inner**prev_exp

    def evaluate(self, value):
        total = Fraction(0)
        for e, c in self.c.items():
            total += c * Fraction(value) ** e
        return total

    def evaluate_float(self, value):
        # left to right in insertion order, the documented summation order
        total = 0.0
        for e, c in self.c.items():
            total += float(c) * value**e
        return total


def ref_divmod(a, b):
    q, r = {}, dict(a.c)
    db = b.degree
    lb = b.c[db]
    rest = [(e - db, c) for e, c in b.c.items() if e != db]
    while r:
        top = max(r)
        if top < db:
            break
        factor = r.pop(top) / lb
        q[top - db] = factor
        for e, c in rest:
            e += top
            s = r.get(e, Fraction(0)) - factor * c
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return _ref_wrap(q), _ref_wrap(r)


def ref_gcd(a, b):
    while b.c:
        a, b = b, ref_divmod(a, b)[1]
    if not a.c:
        return a
    return a.scale(1 / a.c[a.degree])


def ref_reduce(num, den):
    """RatFunc normalisation of two true polynomials: (num, den) reduced,
    den monic."""
    if not num.c:
        return num, RefPoly({0: 1})
    g = ref_gcd(num, den)
    if g.degree:
        num, den = ref_divmod(num, g)[0], ref_divmod(den, g)[0]
    inv = 1 / den.c[den.degree]
    if inv != 1:
        num, den = num.scale(inv), den.scale(inv)
    return num, den


FLOAT_POINTS = (0.7, -1.3, 2.5, -0.45)


def assert_same(new, ref):
    assert new.items() == ref.items()
    assert new == LaurentPoly(ref.c)
    assert str(new) == str(LaurentPoly(ref.c))
    assert repr(new) == f"LaurentPoly({dict(ref.items())!r})"
    assert hash(new) == hash(LaurentPoly(ref.c))
    for x in FLOAT_POINTS:
        assert new.evaluate_float(x) == ref.evaluate_float(x)


def assert_same_ratfunc(new, ref_pair):
    assert_same(new.num, ref_pair[0])
    assert_same(new.den, ref_pair[1])


diff_scalars = st.fractions(min_value=-40, max_value=40, max_denominator=30) | st.integers(-50, 50)
_term_lists = st.lists(st.tuples(st.integers(-4, 6), diff_scalars), max_size=7)
_plain_term_lists = st.lists(st.tuples(st.integers(0, 7), diff_scalars), max_size=7)


def both(terms):
    """The same term list (repeats and cancellations included) in both forms."""
    return LaurentPoly(terms), RefPoly(terms)


@settings(deadline=None)
@given(_term_lists, _term_lists, diff_scalars, st.integers(0, 3))
def test_ring_operations_match_fraction_form(ta, tb, c, k):
    (a, ra), (b, rb) = both(ta), both(tb)
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(-a, -ra)
    assert_same(a * b, ra * rb)
    assert_same(a * c, ra.scale(c))
    assert_same(c * a, ra.scale(c))
    if c:
        assert_same(a / c, ra.scale(1 / Fraction(c)))
    assert_same(a**k, ra**k)
    assert_same(a.derivative(), ra.derivative())
    assert a.coeff(2) == ra.c.get(2, 0)
    assert a.leading_coeff() == (ra.c[ra.degree] if ra.c else 0)


@settings(deadline=None)
@given(
    _term_lists,
    st.sampled_from([1, -1]) | st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
    st.just(0) | st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_substitution_matches_fraction_form(terms, eps, delta):
    p, ref = both(terms)
    image, ref_image = p.substitute_affine(eps, delta), ref.substitute_affine(eps, delta)
    if isinstance(ref_image, tuple):
        assert isinstance(image, RatFunc)
        assert_same_ratfunc(image, ref_image)
    else:
        assert isinstance(image, LaurentPoly)
        assert_same(image, ref_image)


@settings(deadline=None)
@given(_plain_term_lists, _term_lists)
def test_compose_matches_fraction_form(outer_terms, inner_terms):
    (outer, ref_outer), (inner, ref_inner) = both(outer_terms), both(inner_terms)
    assert_same(outer.compose(inner), ref_outer.compose(ref_inner))


@settings(deadline=None)
@given(_term_lists, st.fractions(min_value=-5, max_value=5, max_denominator=7) | st.integers(-3, 3))
def test_evaluate_matches_fraction_form(terms, value):
    p, ref = both(terms)
    try:
        expected = ref.evaluate(value)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            p.evaluate(value)
        return
    assert p.evaluate(value) == expected
    assert isinstance(p.evaluate(value), Fraction)


@settings(deadline=None)
@given(_plain_term_lists, _plain_term_lists, _plain_term_lists)
def test_division_gcd_and_reduction_match_fraction_form(ta, tb, tc):
    (a, ra), (b, rb), (c, rc) = both(ta), both(tb), both(tc)
    if b.is_zero:
        b, rb = both([(0, 1)])
    q, r = poly_divmod(a, b)
    rq, rr = ref_divmod(ra, rb)
    assert_same(q, rq)
    assert_same(r, rr)
    assert_same(poly_gcd(a, b), ref_gcd(ra, rb))
    # a common factor c makes the gcd and the reduction nontrivial
    if not c.is_zero:
        assert_same(poly_gcd(a * c, b * c), ref_gcd(ra * rc, rb * rc))
        assert_same_ratfunc(RatFunc.of(a * c, b * c), ref_reduce(ra * rc, rb * rc))
    assert_same_ratfunc(RatFunc.of(a, b), ref_reduce(ra, rb))
    if r.is_zero:
        assert_same(poly_exact_div(a, b), rq)
    else:
        with pytest.raises(NotDivisible, match=re.escape(f"remainder {r} is nonzero")):
            poly_exact_div(a, b)


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), diff_scalars), max_size=5),
    st.lists(st.lists(st.tuples(st.integers(-2, 4), diff_scalars), max_size=4), min_size=5, max_size=5),
)
def test_map_monomials_matches_fraction_form(terms, images):
    # the operator route's sum_j f_j N_j, term by term over Fractions
    f, ref_f = both(terms)
    basis = [both(t) for t in images]
    calls = []

    def image(j):
        calls.append(j)
        return basis[j][0]

    total = RefPoly()
    for j, c in ref_f.items():
        total = total + basis[j][1].scale(c)
    assert_same(f.map_monomials(image), total)
    assert calls == sorted(ref_f.c)


def assert_canonical(p):
    assert isinstance(p._den, int) and p._den > 0
    assert all(isinstance(n, int) and n for n in p._nums.values())
    assert math.gcd(p._den, *p._nums.values()) == 1


@given(_term_lists, _term_lists, diff_scalars)
def test_results_are_in_canonical_form(ta, tb, c):
    a, b = LaurentPoly(ta), LaurentPoly(tb)
    results = [a, b, a + b, a - b, a * b, a * c, a.derivative(),
               a.substitute_affine(-1, 0), a.substitute_affine(Fraction(-2, 3), 0)]
    pa = a * LaurentPoly.monomial(-(a.min_exp or 0))
    pb = b * LaurentPoly.monomial(-(b.min_exp or 0))
    if not pb.is_zero:
        results += list(poly_divmod(pa, pb)) + [poly_gcd(pa, pb)]
        reduced = RatFunc.of(pa, pb)
        results += [reduced.num, reduced.den]
    for p in results:
        assert_canonical(p)
    assert (a + b == b + a) and hash(a + b) == hash(b + a)


_MODULUS = sys.hash_info.modulus


@pytest.mark.parametrize(
    "coeffs",
    [
        {},                                          # the zero polynomial
        {0: -1},                                     # a term hashing to -1
        {3: Fraction(-(_MODULUS + 2), 2), 0: Fraction(1, 2)},  # -1 over den 2
        {1: -(_MODULUS + 1), 2: 1},                  # an int reducing to -1
        {5: -10**60 - 7, -2: Fraction(10**45 + 1, 3)},  # negative and huge
        {0: Fraction(10**80, 7**30), 4: Fraction(-1, 7**30)},
        {1: _MODULUS, 0: Fraction(-_MODULUS, 11)},   # numerators of the modulus
        {1: Fraction(1, _MODULUS), 0: 5},            # den = modulus
        {2: Fraction(-3, 2 * _MODULUS), -1: Fraction(1, 4)},  # den a multiple of it
    ],
)
def test_hash_is_the_hash_of_items(coeffs):
    # the hash is a function of the items alone: equal polynomials, however
    # built, hash equal
    p = LaurentPoly(coeffs)
    assert hash(p) == hash(LaurentPoly(p.items()))
    assert hash(p) == hash(LaurentPoly(reversed(list(coeffs.items()))))
    assert hash(p) == hash(p + LaurentPoly({7: 1}) - LaurentPoly({7: 1}))


# -- binomial monomial images and one-pass division ---------------------------


def test_affine_power_frozen_examples():
    assert LaurentPoly.affine_power(3, -1, 2) == lp({3: -1, 2: 6, 1: -12, 0: 8})
    assert LaurentPoly.affine_power(0, 1, Fraction(1, 2)) == LaurentPoly.one()
    # Laurent powers at delta == 0: exact coefficients, never floats
    assert LaurentPoly.affine_power(-3, -1, 0) == lp({-3: -1})
    assert LaurentPoly.affine_power(-2, Fraction(2, 3), 0) == lp({-2: Fraction(9, 4)})
    assert all(type(c) is Fraction for _, c in LaurentPoly.affine_power(-4, -1, 0).items())
    with pytest.raises(ValueError):
        LaurentPoly.affine_power(-1, 1, 1)
    with pytest.raises(ValueError):
        LaurentPoly.affine_power(2, 0, 1)


_deltas = (
    st.just(0)
    | st.integers(-6, -1)
    | st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(lambda d: d.denominator != 1)
)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_affine_power_matches_substitution(data):
    delta = data.draw(_deltas)
    j = data.draw(st.integers(0 if delta else -4, 40))
    eps = data.draw(st.sampled_from([1, -1]))
    got = LaurentPoly.affine_power(j, eps, delta)
    want = LaurentPoly.monomial(j).substitute_affine(eps, delta)
    assert_canonical(got)
    assert got == want and str(got) == str(want) and hash(got) == hash(want)
    # against repeated squaring in the Fraction form: same terms in the same
    # order, so float evaluation agrees bit for bit
    assert_same(got, RefPoly({j: 1}).substitute_affine(eps, delta))


@pytest.mark.parametrize("divisor", [{3: 1}, {2: 1, 0: 1}, {2: Fraction(3, 2), 0: -5}])
def test_sparse_division_matches_fraction_form(divisor):
    # x^200 + 1: the one-pass loop walks 200 exponents, most of them absent
    (a, ra), (b, rb) = both([(200, 1), (0, 1)]), both(divisor.items())
    q, r = poly_divmod(a, b)
    rq, rr = ref_divmod(ra, rb)
    assert_same(q, rq)
    assert_same(r, rr)
    assert q * b + r == a


# -- single-term divisors ------------------------------------------------------
# ``poly_divmod`` and ``poly_gcd`` split the terms for a divisor c*x^k instead
# of running their loops.  The loops are copied here as the general route:
# both routes must give the same fields with the terms in the same order.


def general_divmod(a, b):
    r = dict(a._nums)
    rden = a._den
    db = b.degree
    lb = b._nums[db]
    rest = [(e - db, n) for e, n in b._nums.items() if e != db]
    steps = []
    for top in range(max(r, default=-1), db - 1, -1):
        lead = r.pop(top, 0)
        if not lead:
            if not r:
                break
            continue
        g = math.gcd(lead, lb)
        scale, factor = lb // g, lead // g
        if scale != 1:
            for e in r:
                r[e] *= scale
            rden *= scale
        steps.append((top - db, factor, scale))
        for e, n in rest:
            e += top
            s = r.get(e, 0) - factor * n
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    quotient = []
    later = b._den
    for exp, factor, scale in reversed(steps):
        quotient.append((exp, factor * later))
        later *= scale
    return _canonical(dict(reversed(quotient)), rden), _canonical(r, rden)


def general_gcd(a, b):
    while not b.is_zero:
        a, b = b, general_divmod(a, b)[1]
    if a.is_zero:
        return a
    return _canonical(a._nums, a._nums[a.degree])


def assert_identical(new, old):
    assert new._den == old._den
    assert list(new._nums.items()) == list(old._nums.items())
    for x in FLOAT_POINTS:
        assert new.evaluate_float(x) == old.evaluate_float(x)


@settings(deadline=None)
@given(
    _plain_term_lists | st.lists(st.tuples(st.integers(0, 30), diff_scalars), max_size=12),
    st.integers(0, 9),
    diff_scalars.filter(bool),
    _plain_term_lists,
)
def test_single_term_divisor_matches_general_route(ta, k, c, tc):
    (a, ra), (b, rb) = both(ta), both([(k, c)])
    other = LaurentPoly(tc)
    q, r = poly_divmod(a, b)
    gq, gr = general_divmod(a, b)
    assert_identical(q, gq)
    assert_identical(r, gr)
    assert_canonical(q)
    assert_canonical(r)
    rq, rr = ref_divmod(ra, rb)
    assert_same(q, rq)
    assert_same(r, rr)
    # the divisor is single-term at the first step, or (for a monomial a)
    # after one general step
    for x, y in ((a, b), (b, a), (a * other, b), (b, a * other)):
        if not y.is_zero:
            assert_identical(poly_gcd(x, y), general_gcd(x, y))
    assert_same(poly_gcd(a, b), ref_gcd(ra, rb))
    assert_same_ratfunc(RatFunc.of(a, b), ref_reduce(ra, rb))


def general_ratfunc(num, den):
    """RatFunc's normalisation by the general route: clear the powers of x,
    divide out the gcd, make the denominator monic."""
    if not (num.is_polynomial and den.is_polynomial):
        mono = LaurentPoly.monomial(-min(num.min_exp if not num.is_zero else 0, den.min_exp))
        num, den = num * mono, den * mono
    if num.is_zero:
        return num, LaurentPoly.one()
    g = poly_gcd(num, den)
    if g.degree:
        num, den = poly_exact_div(num, g), poly_exact_div(den, g)
    inv = 1 / den.leading_coeff()
    return (num, den) if inv == 1 else (num * inv, den * inv)


@settings(deadline=None)
@given(_term_lists, st.integers(-3, 5))
def test_power_of_x_denominator_matches_general_route(tn, k):
    # num / x^k with no power of x left to divide out skips the gcd: the
    # fields and term order of the general route, Laurent numerators too
    num, den = LaurentPoly(tn), LaurentPoly.monomial(k)
    got = RatFunc(num, den)
    want = general_ratfunc(num, den)
    assert_identical(got.num, want[0])
    assert_identical(got.den, want[1])


def test_single_term_divisor_frozen_examples():
    a = lp({0: 5, 4: 3, 1: -2, 6: Fraction(1, 2)})
    q, r = poly_divmod(a, lp({2: Fraction(-2, 3)}))
    assert list(q._nums.items()) == [(4, -3), (2, -18)] and q._den == 4
    assert list(r._nums.items()) == [(0, 5), (1, -2)] and r._den == 1
    assert poly_gcd(lp({3: 2, 5: 1}), lp({4: 7})) == lp({3: 1})
    assert poly_gcd(LaurentPoly.zero(), lp({2: 3})) == lp({2: 1})
    assert poly_gcd(lp({2: 1, 0: 1}), X) == LaurentPoly.one()
    # the shortcuts keep the polynomial-input checks
    with pytest.raises(ValueError):
        poly_divmod(lp({-1: 1}), X)
    with pytest.raises(ValueError):
        poly_gcd(lp({-1: 1}), X)


# -- integer-numerator kernels against the composed routes ---------------------
# Each kernel replaces a chain of canonical LaurentPoly results.  The chains
# are written out here as they stood: the kernels must give the same fields
# with the terms in the same order.


def composed_step(p, q, diag, sub):
    return (X - diag) * p - sub * q


def composed_numerator(j, terms):
    numerator = LaurentPoly.zero()
    for m, k, eps, delta in terms:
        g = LaurentPoly.affine_power(j, eps, delta)
        for _ in range(k):
            g = g.derivative()
        numerator = numerator + m * g
    return numerator


def affine_route_numerator(j, terms):
    """``monomial_numerator`` with every term, shift-free ones too, through
    ``_affine_terms`` and ``_product``: the route its shift-free branch skips."""
    out, den = {}, 1
    for m, k, eps, delta in terms:
        falling = math.prod(range(j - k + 1, j + 1))
        if not falling:
            continue
        nums, gden = _affine_terms(j - k, eps, delta, falling * eps.numerator**k)
        pden = m._den * gden * eps.denominator**k
        g = math.gcd(den, pden)
        ma = pden // g
        if ma != 1:
            out = {e: n * ma for e, n in out.items()}
        _add_scaled(out, _product(m._nums, nums), den // g)
        den *= ma
    return _canonical(out, den)


_maybe_zero = st.just(0) | diff_scalars


@settings(deadline=None)
@given(_term_lists, _term_lists, _maybe_zero, _maybe_zero)
def test_three_term_step_matches_composed_route(tp, tq, diag, sub):
    p, q = LaurentPoly(tp), LaurentPoly(tq)
    got = three_term_step(p, q, diag, sub)
    assert_identical(got, composed_step(p, q, diag, sub))
    assert_canonical(got)


def test_three_term_step_frozen_examples():
    one = LaurentPoly.one()
    # the first step of every recurrence: P_1 = x - diag(0)
    assert_identical(three_term_step(one, LaurentPoly.zero(), Fraction(2, 3), 0), X - Fraction(2, 3))
    assert_identical(three_term_step(one, LaurentPoly.zero(), 0, 0), X)
    # x^2 - 1/2 from (x - 0) x - (1/2) 1; a zero sum drops its term
    assert list(three_term_step(X, one, 0, Fraction(1, 2))._nums.items()) == [(2, 2), (0, -1)]
    assert three_term_step(X + 1, one, -1, 1) == lp({2: 1, 1: 2})


_term_shapes = st.tuples(
    _term_lists,
    st.integers(0, 3),
    st.sampled_from([1, -1]),
    st.sampled_from([0, 1, -1]) | st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@settings(deadline=None)
@given(st.lists(_term_shapes, min_size=1, max_size=4), st.integers(-4, 12))
def test_monomial_numerator_matches_composed_route(shapes, j):
    terms = [(LaurentPoly(tm), k, eps, delta) for tm, k, eps, delta in shapes]
    try:
        want = composed_numerator(j, terms)
    except ValueError as exc:   # a negative power of a shifted argument
        with pytest.raises(ValueError, match=str(exc)):
            monomial_numerator(j, terms)
        return
    got = monomial_numerator(j, terms)
    assert_identical(got, want)
    assert_identical(got, affine_route_numerator(j, terms))
    assert_canonical(got)


_shift_free_shapes = st.tuples(
    _term_lists,
    st.integers(0, 3),
    st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
    st.sampled_from([0, Fraction(0)]),
)


@settings(deadline=None)
@given(st.lists(_shift_free_shapes | _term_shapes, min_size=1, max_size=5),
       st.integers(-4, 12))
def test_shift_free_numerator_matches_affine_route(shapes, j):
    # a shift-free term's image is m shifted by j - k and scaled by
    # eps^j j!/(j-k)!: the fields and the insertion order of the
    # _affine_terms route, beside shifted terms and for negative j too
    terms = [(LaurentPoly(tm), k, eps, delta) for tm, k, eps, delta in shapes]
    if j < 0 and any(delta for _, _, _, delta in terms):
        return   # a negative power of a shifted argument: the ValueError above
    assert_identical(monomial_numerator(j, terms), affine_route_numerator(j, terms))


def test_monomial_numerator_frozen_examples():
    one = LaurentPoly.one()
    # d^2 (-x + 1)^4 = 12 (-x + 1)^2, and 2 d^0 (x - 1/2)^4 beside it
    got = monomial_numerator(4, [(one, 2, -1, 1), (2 * one, 0, 1, Fraction(-1, 2))])
    assert got == 12 * lp({2: 1, 1: -2, 0: 1}) + 2 * lp({1: 1, 0: Fraction(-1, 2)}) ** 4
    # a derivative order above the power leaves nothing of the term
    assert monomial_numerator(1, [(X, 2, 1, 1)]).is_zero
    with pytest.raises(ValueError, match="negative powers need delta == 0"):
        monomial_numerator(-1, [(one, 0, 1, 1)])


@settings(deadline=None)
@given(st.lists(st.tuples(_maybe_zero | st.sampled_from([1, -1]), _term_lists), max_size=6))
def test_linear_combination_matches_composed_route(pairs):
    terms = [(c, LaurentPoly(tp)) for c, tp in pairs]
    want = LaurentPoly.zero()
    for c, p in terms:
        want = want + c * p
    got = linear_combination(terms)
    assert_identical(got, want)
    assert_canonical(got)


@settings(deadline=None)
@given(_term_lists, _term_lists, _maybe_zero)
def test_residual_matches_composed_route(ta, tb, c):
    a, b = LaurentPoly(ta), LaurentPoly(tb)
    got = residual(a, b, c)
    assert_identical(got, a - b * c)
    assert_canonical(got)
    assert residual(b * c, b, c).is_zero


# -- single-term fast paths -----------------------------------------------------
# A factor x^k (one term, numerator 1, denominator 1) only shifts the other
# factor's exponents, and ``map_monomials`` on x^j is image(j) itself.  Both
# must give what the general routes below give: the same fields in the same
# order, so the same hash and the same ``evaluate_float`` bits.


def general_product(a, b):
    return _canonical(_product(a._nums, b._nums), a._den * b._den)


def general_map_monomials(f, image):
    terms = [(n, image(j)) for j, n in sorted(f._nums.items())]
    den = math.lcm(*(p._den for _, p in terms))
    out = {}
    for n, p in terms:
        _add_scaled(out, p._nums, n * (den // p._den))
    return _canonical(out, den * f._den)


_points = st.lists(st.floats(0.1, 3.0) | st.floats(-3.0, -0.1), min_size=1, max_size=3)


def assert_same_route(new, old, points):
    assert_identical(new, old)
    assert hash(new) == hash(old)
    for x in points:
        assert new.evaluate_float(x) == old.evaluate_float(x)


@pytest.mark.parametrize("exponents", [st.integers(-6, -1), st.just(0), st.integers(1, 6)],
                         ids=["negative", "zero", "positive"])
@settings(deadline=None)
@given(data=st.data(), terms=_term_lists, points=_points)
def test_monomial_factor_matches_general_product(exponents, data, terms, points):
    k = data.draw(exponents)
    mono, f = LaurentPoly.monomial(k), LaurentPoly(terms)   # f may be zero
    assert mono._den == 1 and mono._nums == {k: 1}
    assert_same_route(mono * f, general_product(mono, f), points)
    assert_same_route(f * mono, general_product(f, mono), points)
    assert_same_route(mono * mono, general_product(mono, mono), points)


@settings(deadline=None)
@given(st.integers(-6, 6), diff_scalars.filter(lambda c: c not in (0, 1)), _term_lists, _points)
def test_non_unit_single_terms_take_the_general_product(k, c, terms, points):
    term, f = LaurentPoly.monomial(k, c), LaurentPoly(terms)
    assert_same_route(term * f, general_product(term, f), points)
    assert_same_route(f * term, general_product(f, term), points)
    images = {k: f}
    assert_same_route(term.map_monomials(images.__getitem__),
                      general_map_monomials(term, images.__getitem__), points)


@settings(deadline=None)
@given(st.integers(-4, 6), _term_lists, _points)
def test_map_monomials_of_a_monomial_is_the_image(j, terms, points):
    target = LaurentPoly(terms)
    calls = []

    def image(i):
        calls.append(i)
        return target

    assert LaurentPoly.monomial(j).map_monomials(image) is target
    assert calls == [j]
    assert_same_route(target, general_map_monomials(LaurentPoly.monomial(j), image), points)


def test_constructors_build_canonical_fields():
    for got, want in ((LaurentPoly.one(), {0: 1}), (LaurentPoly.x(), {1: 1}),
                      (LaurentPoly.monomial(-3), {-3: 1}),
                      (LaurentPoly.monomial(2, Fraction(1)), {2: 1}),
                      (LaurentPoly.monomial(2, Fraction(-3, 4)), {2: Fraction(-3, 4)}),
                      (LaurentPoly.monomial(-1, -5), {-1: -5}),
                      (LaurentPoly.monomial(4, 0), {})):
        assert_identical(got, LaurentPoly(want))
        assert hash(got) == hash(LaurentPoly(want))
    for bad in (1.0, Fraction(2), "2"):
        with pytest.raises(TypeError, match="exponents must be int"):
            LaurentPoly.monomial(bad)
        with pytest.raises(TypeError, match="exponents must be int"):
            LaurentPoly.monomial(bad, 2.0)
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        LaurentPoly.monomial(2, 1.0)


# -- scalars ----------------------------------------------------------------------
# A constant equals the int or Fraction it is, and hashes like it; a
# rational function num / x^k equals the Laurent polynomial it is.


def test_constants_equal_their_scalars():
    assert LaurentPoly.const(3) == 3
    assert RatFunc.from_laurent(Fraction(3)) == 3
    assert RatFunc.from_laurent(0) == 0
    assert LaurentPoly.zero() == 0 == Fraction(0)
    assert LaurentPoly.const(Fraction(-2, 7)) == Fraction(-2, 7)
    assert RatFunc.of(LaurentPoly.x(), LaurentPoly.x()) == 1
    assert RatFunc.of(X * X - 1, X - 1) == X + 1
    assert X + 1 == RatFunc.of(X * X - 1, X - 1)
    assert LaurentPoly.const(3) != Fraction(1, 3)
    assert LaurentPoly.const(3) != 3.0          # a float is not exact
    assert LaurentPoly.const(3).__eq__(3.0) is NotImplemented
    assert RatFunc.from_laurent(3).__eq__(3.0) is NotImplemented


def test_a_set_mixes_constants_and_scalars():
    values = {LaurentPoly.const(3), 3, Fraction(3), RatFunc.from_laurent(3),
              LaurentPoly.zero(), 0, RatFunc.zero(), Fraction(0),
              Fraction(1, 2), LaurentPoly.const(Fraction(1, 2)),
              RatFunc.of(Fraction(1, 2), 1), X, RatFunc.of(X, 1)}
    assert len(values) == 4
    assert {3, 0, Fraction(1, 2)} <= values
    assert LaurentPoly.const(Fraction(1, 2)) in {Fraction(1, 2)}
    assert RatFunc.of(X + 3, X) not in values


@given(_term_lists, _plain_term_lists, diff_scalars)
def test_a_non_constant_equals_no_scalar(terms, den_terms, c):
    p = LaurentPoly(terms)
    if p._nums.keys() <= {0}:
        p = p + X
    assert p != c and c != p
    den = LaurentPoly(den_terms)
    if not den.is_zero:
        r = RatFunc.of(p, den)
        if r.den.degree or r.num._nums.keys() - {0}:
            assert r != c and c != r
        if len(den._nums) == 1:             # p / den is a Laurent polynomial
            value = p * LaurentPoly({-den.degree: 1 / den.leading_coeff()})
            assert r == value and value == r and hash(r) == hash(value)


def test_laurent_values_equal_their_rational_functions():
    inv = RatFunc.of(1, X)
    assert inv == LaurentPoly.monomial(-1) == inv
    assert hash(inv) == hash(LaurentPoly.monomial(-1))
    tail = RatFunc.of(X + 1, X * X * 3)
    laurent = LaurentPoly({-1: Fraction(1, 3), -2: Fraction(1, 3)})
    assert tail == laurent and laurent == tail and hash(tail) == hash(laurent)
    assert len({inv, LaurentPoly.monomial(-1), tail, laurent}) == 2
    assert inv != LaurentPoly.monomial(1) and inv != 1
    assert RatFunc.of(1, X + 1) != LaurentPoly.monomial(-1)
