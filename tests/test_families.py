"""Family recurrences and explicit hypergeometric constructions.

Frozen expected values below were computed independently with sympy
(exact Rational recurrences, sympy.jacobi, and direct Pochhammer sums)
before this module was implemented.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklpoly import families
from dunklpoly.dunklop import EIGEN_OPERATORS
from dunklpoly.exactnum import LaurentPoly, RatFunc
from dunklpoly.families import (
    CLASSICAL,
    FAMILIES,
    DegenerateParameters,
    big_m1_jacobi_AC,
    big_m1_jacobi_family,
    big_q_jacobi_family,
    cbi_family,
    chihara_family,
    explicit_poly,
    ext_hermite_family,
    gegenbauer_family,
    gen_hermite_family,
    generate_monic,
    hypergeometric_terminating,
    monic_list,
    pochhammer,
    recurrence_coeffs,
)
from dunklpoly.suites import CBI_SETS, CHIHARA_SETS, EXT_HERMITE_SETS

F = Fraction
X = LaurentPoly.x()


def coeffs_desc(p: LaurentPoly, n: int):
    """Dense descending coefficient list [x^n, ..., x^0]."""
    return [p.coeff(k) for k in range(n, -1, -1)]


# -- recurrence coefficients ---------------------------------------------------


def test_chihara_recurrence_values():
    fam = chihara_family(1, 1, F(1, 2))
    assert recurrence_coeffs(fam, 1) == (F(-1, 2), F(1, 2))
    assert recurrence_coeffs(fam, 2) == (F(1, 2), F(1, 10))


def test_chihara_generate_monic_matches_oracle():
    fam = chihara_family(1, 1, F(1, 2))
    polys = generate_monic(fam, 4)
    assert coeffs_desc(polys[2], 2) == [1, 0, F(-3, 4)]
    assert coeffs_desc(polys[3], 3) == [1, F(-1, 2), F(-17, 20), F(17, 40)]
    assert coeffs_desc(polys[4], 4) == [1, 0, F(-3, 2), 0, F(41, 80)]


def test_big_m1_jacobi_values():
    fam = big_m1_jacobi_family(1, 1, F(3, 5))
    A0, C0 = big_m1_jacobi_AC(0, 0, fam.p)
    A1, C1 = big_m1_jacobi_AC(0, 1, fam.p)
    assert A0 == F(4, 5) and C0 == 0
    assert C1 == F(4, 5)
    assert fam.diag(0) == F(1, 5)
    assert fam.sub(1) == F(16, 25)
    assert generate_monic(fam, 1)[1] == X - F(1, 5)


def test_big_q_jacobi_values():
    fam = big_q_jacobi_family(F(1, 3), F(1, 4), F(1, 5), F(1, 2))
    assert fam.diag(0) == F(11, 47)
    assert fam.sub(1) == F(-252, 55225)
    assert fam.diag(1) == F(6274, 44885)
    assert fam.sub(2) == F(-1600632, 349305575)


def test_ext_hermite_recurrence_values():
    fam = ext_hermite_family(F(3, 2), F(1, 2))
    assert recurrence_coeffs(fam, 1) == (F(-1, 2), F(2))
    polys = generate_monic(fam, 4)
    assert coeffs_desc(polys[2], 2) == [1, 0, F(-9, 4)]
    assert coeffs_desc(polys[3], 3) == [1, F(-1, 2), F(-13, 4), F(13, 8)]
    assert coeffs_desc(polys[4], 4) == [1, 0, F(-13, 2), 0, F(121, 16)]


def test_cbi_generate_matches_oracle():
    fam = cbi_family(1, 2, F(1, 3), F(1, 5))
    polys = generate_monic(fam, 3)
    assert coeffs_desc(polys[2], 2) == [1, 0, F(31, 67)]
    assert coeffs_desc(polys[3], 3) == [1, -2, F(183, 328), F(-183, 164)]


def test_sub_at_zero_is_conventional_zero():
    assert chihara_family(1, 1, 0).sub(0) == 0
    assert cbi_family(1, 2, F(1, 3), F(1, 5)).sub(0) == 0


def test_degenerate_parameters_lazy():
    fam = chihara_family(F(-3, 2), F(-1, 2), F(1, 4))
    recurrence_coeffs(fam, 0)  # fine
    with pytest.raises(DegenerateParameters):
        recurrence_coeffs(fam, 1)


def test_big_q_jacobi_rejects_unit_q():
    with pytest.raises(DegenerateParameters):
        big_q_jacobi_family(F(1, 3), F(1, 4), F(1, 5), 1)


# -- hypergeometric machinery ----------------------------------------------------


def test_pochhammer_scalar_and_poly():
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert pochhammer(X, 2) == X * (X + 1)
    assert pochhammer(F(2), 0) == 1


def test_gauss_series_example():
    z = LaurentPoly.x()
    got = hypergeometric_terminating([F(-2), F(4)], [F(2)], z)
    assert got == LaurentPoly({0: 1, 1: -4, 2: F(10, 3)})


def test_confluent_series_example():
    # 1F1(-1; 3/2; z) = 1 - 2z/3
    z = LaurentPoly.x()
    got = hypergeometric_terminating([F(-1)], [F(3, 2)], z)
    assert got == LaurentPoly({0: 1, 1: F(-2, 3)})


def test_terminating_parameter_validation():
    with pytest.raises(ValueError):
        hypergeometric_terminating([F(1, 2)], [F(2)], X)
    with pytest.raises(ValueError):
        hypergeometric_terminating([X], [F(2)], X)


def test_denominator_pochhammer_degenerate():
    with pytest.raises(DegenerateParameters):
        hypergeometric_terminating([F(-3), F(1)], [F(-1)], X)


def _pochhammer_per_k(num_params, den_params, argument):
    """Reference sum: every Pochhammer product rebuilt at every k."""
    n = -int(num_params[0])
    total = LaurentPoly.zero()
    for k in range(n + 1):
        den = F(1)
        for b in den_params:
            den *= pochhammer(b, k)
        if den == 0:
            raise DegenerateParameters(f"denominator Pochhammer vanishes at k={k}")
        for i in range(1, k + 1):
            den *= i
        term = LaurentPoly.one()
        for a in num_params:
            term = term * pochhammer(a, k)
        total = total + term * argument**k / den
    return total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateParameters as exc:
        return f"DegenerateParameters: {exc}"


_series_scalars = st.fractions(min_value=-4, max_value=4, max_denominator=5)
# degree-one numerator parameters, like rho2 +/- x in the cBI series
_series_params = _series_scalars | st.tuples(st.sampled_from([1, -1]), _series_scalars).map(
    lambda t: t[0] * X + t[1]
)
# nonpositive integers make a denominator Pochhammer vanish at k = 1 - b
_series_dens = _series_scalars.filter(bool) | st.integers(-6, 0)
_arguments = st.sampled_from([X, X * X - F(1, 9), LaurentPoly.one(), -2 * X])


@settings(deadline=None, max_examples=120)
@given(
    st.integers(0, 9),
    st.lists(_series_params, max_size=3),
    st.lists(_series_dens, max_size=3),
    _arguments,
)
def test_term_ratio_sum_matches_pochhammer_route(n, num_rest, dens, argument):
    num = [F(-n), *num_rest]
    got = _outcome(hypergeometric_terminating, num, dens, argument)
    assert got == _outcome(_pochhammer_per_k, num, dens, argument)


def _term_ratio_route(num_params, den_params, argument):
    """Reference: the series summed as a chain of canonical LaurentPolys,
    term = term * (step * ratio) and total = total + term."""
    n = -int(num_params[0])
    scalars = [F(a) for a in num_params if not isinstance(a, LaurentPoly)]
    polys = [a for a in num_params if isinstance(a, LaurentPoly)]
    term = total = LaurentPoly.one()
    for k in range(1, n + 1):
        ratio = F(1, k)
        for b in den_params:
            if b + k - 1 == 0:
                raise DegenerateParameters(f"denominator Pochhammer vanishes at k={k}")
            ratio /= b + k - 1
        for a in scalars:
            ratio *= a + k - 1
        step = argument
        for a in polys:
            step = step * (a + (k - 1))
        term = term * (step * ratio)
        total = total + term
    return total


def _fields(fn, *args):
    """The numerators in insertion order and the denominator of the result,
    or the type and message of the exception."""
    try:
        p = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return list(p._nums.items()), p._den


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 9),
    st.lists(_series_params, max_size=3),
    st.lists(_series_dens, max_size=3),
    _arguments,
)
def test_integer_kernel_keeps_the_term_ratio_route_fields(n, num_rest, dens, argument):
    # same numerators in the same insertion order (so evaluate_float keeps
    # its bits), same denominator, and the same exception at the same k
    num = [F(-n), *num_rest]
    assert _fields(hypergeometric_terminating, num, dens, argument) == _fields(
        _term_ratio_route, num, dens, argument)


@pytest.mark.parametrize(
    "name", sorted(name for name, entry in FAMILIES.items() if entry.reduced or entry.series)
)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_drawn_explicit_poly_keeps_the_term_ratio_route_fields(name, data):
    # the families' own series, the cBI polynomial parameters included
    entry = FAMILIES[name]
    draw = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    family = entry.build(*(data.draw(draw) for _ in entry.params))
    n = data.draw(st.integers(0, 14))
    got = _fields(explicit_poly, family, n)
    with mock.patch.object(families, "hypergeometric_terminating", _term_ratio_route):
        assert got == _fields(explicit_poly, family, n)


@pytest.mark.parametrize(
    "family",
    [
        chihara_family(F(-1, 2), F(-3, 2), F(1, 3)),
        cbi_family(F(-1, 2), F(-1, 2), F(1, 2), F(1, 2)),
        cbi_family(F(1, 2), F(-5, 2), 0, 0),
    ],
    ids=["chihara", "cbi-zero-over-zero", "cbi"],
)
def test_vanishing_prefactor_raises_degenerate(family):
    with pytest.raises(
        DegenerateParameters, match=rf"^{family.name} explicit_poly\(2\) prefactor denominator vanishes$"
    ):
        explicit_poly(family, 2)


# -- explicit vs recurrence construction -------------------------------------------


@pytest.mark.parametrize("params", CHIHARA_SETS)
def test_chihara_explicit_equals_recurrence(params):
    fam = chihara_family(*params)
    polys = generate_monic(fam, 16)
    for n in range(17):
        assert explicit_poly(fam, n) == polys[n], f"n={n}"


@pytest.mark.parametrize("params", CBI_SETS)
def test_cbi_explicit_equals_recurrence(params):
    fam = cbi_family(*params)
    polys = generate_monic(fam, 12)
    for n in range(13):
        assert explicit_poly(fam, n) == polys[n], f"n={n}"


@pytest.mark.parametrize("params", EXT_HERMITE_SETS)
def test_ext_hermite_explicit_equals_recurrence(params):
    fam = ext_hermite_family(*params)
    polys = generate_monic(fam, 16)
    for n in range(17):
        assert explicit_poly(fam, n) == polys[n], f"n={n}"


def test_gegenbauer_explicit_equals_recurrence():
    fam = gegenbauer_family(F(1, 2), 2)
    polys = generate_monic(fam, 16)
    for n in range(17):
        assert explicit_poly(fam, n) == polys[n]


def test_gen_hermite_explicit_equals_recurrence():
    fam = gen_hermite_family(F(3, 2))
    polys = generate_monic(fam, 16)
    for n in range(17):
        assert explicit_poly(fam, n) == polys[n]


def test_no_explicit_form_for_recurrence_only_families():
    with pytest.raises(ValueError):
        explicit_poly(big_m1_jacobi_family(1, 1, F(3, 5)), 2)


@pytest.mark.parametrize(
    "name", sorted(name for name, entry in FAMILIES.items() if entry.reduced or entry.series)
)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_drawn_explicit_equals_recurrence(name, data):
    entry = FAMILIES[name]
    draw = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    family = entry.build(*(data.draw(draw) for _ in entry.params))
    try:
        polys = generate_monic(family, 10)
        explicit = [explicit_poly(family, n) for n in range(11)]
    except DegenerateParameters:
        return
    assert explicit == polys


# -- structural invariants -----------------------------------------------------


def test_gamma_zero_specializations():
    assert generate_monic(chihara_family(1, 2, 0), 10) == generate_monic(
        gegenbauer_family(1, 2), 10
    )
    assert generate_monic(ext_hermite_family(F(3, 2), 0), 10) == generate_monic(
        gen_hermite_family(F(3, 2)), 10
    )


def test_cbi_symmetric_under_r_swap():
    a = cbi_family(1, 2, F(1, 3), F(1, 5))
    b = cbi_family(1, 2, F(1, 5), F(1, 3))
    for n in range(9):
        assert explicit_poly(a, n) == explicit_poly(b, n)


def test_monic_and_degree():
    fams = [
        chihara_family(1, 1, F(1, 2)),
        cbi_family(1, 2, F(1, 3), F(1, 5)),
        ext_hermite_family(F(3, 2), F(1, 2)),
        big_m1_jacobi_family(1, 1, F(3, 5)),
        big_q_jacobi_family(F(1, 3), F(1, 4), F(1, 5), F(1, 2)),
    ]
    for fam in fams:
        for n, p in enumerate(generate_monic(fam, 12)):
            assert p.degree == n
            assert p.leading_coeff() == 1


def test_gamma_reflection_parity():
    plus = generate_monic(chihara_family(1, 2, F(2, 5)), 8)
    minus = generate_monic(chihara_family(1, 2, F(-2, 5)), 8)
    for n in range(9):
        assert minus[n].substitute_affine(-1, 0) * (-1) ** n == plus[n]


# -- classical monic Jacobi in t ---------------------------------------------------


def _t_jacobi(a, b, N: int):
    """Monic R_0 .. R_N for t^a (1-t)^b on [0, 1], the recurrence the Gauss
    rules and the jacobi suite read."""
    return monic_list(partial(CLASSICAL["jacobi"].recurrence, F(a), F(b)), N)


def test_classical_jacobi_frozen_values():
    # 2^(-n) times the classical monic Jacobi polynomial in z for
    # (1-z)^b (1+z)^a, at z = 2t - 1
    assert coeffs_desc(_t_jacobi(0, 0, 2)[2], 2) == [1, -1, F(1, 6)]
    assert coeffs_desc(_t_jacobi(1, 2, 3)[3], 3) == [1, F(-4, 3), F(1, 2), F(-1, 21)]
    assert coeffs_desc(_t_jacobi(F(1, 2), F(3, 4), 4)[4], 4) == [
        1,
        F(-72, 37),
        F(504, 407),
        F(-3360, 11803),
        F(1008, 59015),
    ]


def test_classical_jacobi_chebyshev_alpha_plus_beta_minus_one():
    # a + b = -1 zeroes the factor s - 1 of the general sub formula at k = 1;
    # the monic shifted Chebyshev polynomials 2^(1-2n) T_n(2t - 1) must still
    # come out
    half = F(-1, 2)
    monic = _t_jacobi(half, half, 8)
    assert coeffs_desc(monic[2], 2) == [1, -1, F(1, 8)]
    assert coeffs_desc(monic[3], 3) == [1, F(-3, 2), F(9, 16), F(-1, 32)]
    assert coeffs_desc(monic[4], 4) == [1, -2, F(5, 4), F(-1, 4), F(1, 128)]
    z = X * 2 - 1
    cheb = [LaurentPoly.one(), z]
    for _ in range(7):
        cheb.append(z * cheb[-1] * 2 - cheb[-2])
    assert monic[0] == cheb[0]
    for n in range(1, 9):
        assert monic[n] == cheb[n] * F(1, 2 ** (2 * n - 1))


def _z_route(a: Fraction, b: Fraction, k: int):
    """The t recurrence through the classical Jacobi recurrence in z for
    (1-z)^alpha (1+z)^beta, (alpha, beta) = (b, a), under t = (1+z)/2."""
    alpha, beta = b, a
    if k == 0:
        diag, sub = (beta - alpha) / (alpha + beta + 2), Fraction(0)
    else:
        s = 2 * k + alpha + beta
        diag = (beta * beta - alpha * alpha) / (s * (s + 2))
        if k == 1:
            sub = 4 * (1 + alpha) * (1 + beta) / ((2 + alpha + beta) ** 2 * (3 + alpha + beta))
        else:
            sub = 4 * k * (k + alpha) * (k + beta) * (k + alpha + beta) / (
                s * s * (s + 1) * (s - 1)
            )
    return (diag + 1) / 2, sub / 4


def _pair_or_error(recurrence, a, b, k):
    try:
        return recurrence(a, b, k)
    except ZeroDivisionError:
        return ZeroDivisionError


_PARITY_GRID = [F(n, 2) for n in range(-6, 6)] + [F(-2, 3), F(-1, 3), F(1, 3), F(5, 3)]


def test_jacobi_t_recurrence_matches_z_route():
    # the grid holds a + b in {-1, -2, -3}, where general formulas cancel
    # or a denominator vanishes; values and ZeroDivisionError points agree
    recurrence = CLASSICAL["jacobi"].recurrence
    sums = set()
    for a in _PARITY_GRID:
        for b in _PARITY_GRID:
            sums.add(a + b)
            for k in range(9):
                want = _pair_or_error(_z_route, a, b, k)
                assert _pair_or_error(recurrence, a, b, k) == want, (a, b, k)
    assert {-1, -2, -3} <= sums


def test_gegenbauer_chebyshev_weight_gives_monic_chebyshev():
    # alpha = beta = -1/2 is the weight (1-x^2)^(-1/2): alpha + beta + 1 = 0
    # cancels in sub(1), which must still give the monic 2^(1-n) T_n
    x = LaurentPoly.x()
    cheb = [LaurentPoly.one(), x]
    for _ in range(9):
        cheb.append(x * cheb[-1] * 2 - cheb[-2])
    monic = generate_monic(gegenbauer_family(F(-1, 2), F(-1, 2)), 10)
    assert monic[0] == cheb[0]
    for n in range(1, 11):
        assert monic[n] == cheb[n] * F(1, 2 ** (n - 1))


def test_chihara_sub_one_at_alpha_plus_beta_minus_one():
    # (alpha+1)/(alpha+beta+2), the value of the cancelled general formula
    fam = chihara_family(F(-1, 4), F(-3, 4), F(1, 2))
    assert fam.sub(1) == F(3, 4)
    # sub(3) = (1+alpha+1)(1+alpha+beta+1) / ((2+alpha+beta+1)(2+alpha+beta+2))
    assert fam.sub(3) == F(7, 24)


def _jacobi_moment(j: int, a: int, b: int) -> Fraction:
    """Exact integral of t^j t^a (1-t)^b over [0, 1] for integer a, b:
    B(j+a+1, b+1) = (j+a)! b! / (j+a+b+1)!."""
    from math import factorial

    return Fraction(factorial(j + a) * factorial(b), factorial(j + a + b + 1))


@pytest.mark.parametrize("a,b", [(0, 0), (1, 2)])
def test_classical_jacobi_against_gram_schmidt(a, b):
    # brute-force Gram-Schmidt on {1, t, t^2, t^3} with exact moments
    mom = [_jacobi_moment(j, a, b) for j in range(8)]

    def inner(p: LaurentPoly, q: LaurentPoly) -> Fraction:
        prod = p * q
        return sum(c * mom[e] for e, c in prod.items())

    monic = _t_jacobi(a, b, 3)
    basis = []
    for n in range(4):
        v = LaurentPoly.monomial(n)
        for u in basis:
            v = v - inner(v, u) / inner(u, u) * u
        basis.append(v)
        assert monic[n] == v


# -- the three-term step against the composed route ----------------------------

_step_params = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_generate_monic_matches_composed_steps(name, data):
    # gegenbauer and gen_hermite have diag(n) = 0, and every family sub(0) = 0
    entry = FAMILIES[name]
    try:
        family = entry.build(*(data.draw(_step_params) for _ in entry.params))
        want = [LaurentPoly.zero(), LaurentPoly.one()]
        for n in range(8):
            want.append((X - family.diag(n)) * want[-1] - family.sub(n) * want[-2])
    except (DegenerateParameters, ZeroDivisionError):
        return
    for got, ref in zip(generate_monic(family, 8), want[1:]):
        assert got._den == ref._den
        assert list(got._nums.items()) == list(ref._nums.items())


# -- the tables at a formal half-degree ----------------------------------------
#
# Each parity-split formula is arithmetic in m, so it runs on m = the variable
# of a RatFunc.  An identity among the coefficients that holds there holds at
# every degree (Chihara 1978, ch. I; Koekoek, Lesky and Swarttouw 2010, §9.8).

M = RatFunc.from_laurent(LaurentPoly.x())


def _formal(value):
    """A table value as a RatFunc in m; a value free of m is a constant."""
    return value if isinstance(value, RatFunc) else RatFunc.from_laurent(value)


def _quadratic_argument(sub, recurrence, a, *rest):
    """The even and odd halves of a symmetric-type family are monic classical
    polynomials in t iff the classical recurrences at (a, *rest) and
    (a + 1, *rest) are these sums and products of the family's sub(m, odd)."""
    even = (sub(M, 0) + sub(M, 1), sub(M - 1, 1) * sub(M, 0))
    odd = (sub(M, 1) + sub(M + 1, 0), sub(M, 0) * sub(M, 1))
    return (tuple(map(_formal, recurrence(a, *rest, M))) == even
            and tuple(map(_formal, recurrence(a + 1, *rest, M))) == odd)


@pytest.mark.parametrize("alpha, beta, gamma", [(1, F(2, 3), F(1, 2)), (F(-1, 3), F(5, 7), -1000)])
def test_chihara_quadratic_argument_at_every_degree(alpha, beta, gamma):
    fam = chihara_family(alpha, beta, gamma)
    sub = lambda m, odd: FAMILIES["chihara"].sub(m, odd, fam.p)
    assert _quadratic_argument(sub, CLASSICAL["jacobi"].recurrence, fam.p["alpha"], fam.p["beta"])


def test_chihara_quadratic_argument_detects_moved_beta():
    fam = chihara_family(1, F(2, 3), F(1, 2))
    sub = lambda m, odd: FAMILIES["chihara"].sub(m, odd, fam.p)
    assert not _quadratic_argument(
        sub, CLASSICAL["jacobi"].recurrence, F(1), F(2, 3) + F(1, 1000))


@pytest.mark.parametrize("mu, gamma", [(F(3, 2), F(1, 2)), (F(-1, 4), F(-2, 3))])
def test_ext_hermite_quadratic_argument_at_every_degree(mu, gamma):
    fam = ext_hermite_family(mu, gamma)
    sub = lambda m, odd: FAMILIES["ext_hermite"].sub(m, odd, fam.p)
    assert _quadratic_argument(sub, CLASSICAL["generalized_laguerre"].recurrence, mu - F(1, 2))


@pytest.mark.parametrize("a, b, c", [(F(1), F(1), F(3, 5)), (F(1, 2), F(3, 4), F(5, 13)),
                                     (F(2), F(1), F(5, 13))])
def test_christoffel_identity_at_every_degree(a, b, c):
    # (1 - c^2) sigma_n(b/2 - 1/2, a/2 + 1/2) = A_n C_n, both parities
    sigma = FAMILIES["chihara"].sub
    mapped = {"alpha": b / 2 - F(1, 2), "beta": a / 2 + F(1, 2)}
    p = big_m1_jacobi_family(a, b, c).p
    for odd in (0, 1):
        A, C = big_m1_jacobi_AC(M, odd, p)
        assert (1 - c * c) * sigma(M, odd, mapped) == A * C


def _generic(names):
    """Distinct non-integer rationals in (0, 1), one per parameter name."""
    return {name: F(2 * i + 1, 3 * i + 7) for i, name in enumerate(names)}


_TABLE_FORMULAS = [
    *((f"{name}.{part}", getattr(entry, part), _generic(entry.params))
      for name, entry in sorted(FAMILIES.items()) if name != "big_q_jacobi"
      for part in ("diag", "sub")),
    *((f"{token}.eigenvalue", op.eigenvalue, _generic(op.params))
      for token, op in sorted(EIGEN_OPERATORS.items())),
]


@pytest.mark.parametrize("formula, p", [(f, p) for _, f, p in _TABLE_FORMULAS],
                         ids=[label for label, _, _ in _TABLE_FORMULAS])
def test_table_formula_at_formal_m_evaluates_to_integer_values(formula, p):
    for odd in (0, 1):
        formal = _formal(formula(M, odd, p))
        for m in range(1, 9):
            assert formal.evaluate(m) == formula(m, odd, p), (odd, m)


# -- parity with the former n-indexed formulas ---------------------------------
#
# Copies of the formulas as they were written in n, with n // 2 and n % 2:
# the (m, odd) table must give the same value, of the same type, and raise
# DegenerateParameters at the same degrees.


def _old_sigma(p, n):
    alpha, beta = p["alpha"], p["beta"]
    m = n // 2
    if n % 2 == 0:
        return Fraction(m) * (m + beta) / ((2 * m + alpha + beta) * (2 * m + alpha + beta + 1))
    if m == 0 and alpha + beta + 1 == 0:
        return (alpha + 1) / (alpha + beta + 2)
    return (m + alpha + 1) * (m + alpha + beta + 1) / (
        (2 * m + alpha + beta + 1) * (2 * m + alpha + beta + 2)
    )


def _old_tau(p, n):
    rho1, rho2, r1, r2 = p["rho1"], p["rho2"], p["r1"], p["r2"]
    g = rho1 + rho2 - r1 - r2
    m = n // 2
    if n % 2 == 0:
        return -Fraction(m) * (m + rho1 - r1 + Fraction(1, 2)) * (
            m + rho1 - r2 + Fraction(1, 2)
        ) * (m - r1 - r2) / ((2 * m + g) * (2 * m + g + 1))
    return -(m + g + 1) * (m + rho1 + rho2 + 1) * (m + rho2 - r1 + Fraction(1, 2)) * (
        m + rho2 - r2 + Fraction(1, 2)
    ) / ((2 * m + g + 1) * (2 * m + g + 2))


def _old_theta(p, n):
    m = n // 2
    return Fraction(m) if n % 2 == 0 else m + p["mu"] + Fraction(1, 2)


def _old_AC(p, n):
    a, b, c = p["a"], p["b"], p["c"]
    if n % 2 == 0:
        A = (1 + c) * (a + n + 1) / (2 * n + a + b + 2)
        C = (1 - c) * Fraction(n) / (2 * n + a + b)
    else:
        A = (1 - c) * (n + a + b + 1) / (2 * n + a + b + 2)
        C = (1 + c) * (n + b) / (2 * n + a + b)
    return A, C


_OLD_FORMULAS = {
    "chihara": (lambda p, n: (-1) ** n * p["gamma"], _old_sigma),
    "gegenbauer": (lambda p, n: Fraction(0), _old_sigma),
    "cbi": (lambda p, n: (-1) ** n * p["rho2"], _old_tau),
    "ext_hermite": (lambda p, n: (-1) ** n * p["gamma"], _old_theta),
    "gen_hermite": (lambda p, n: Fraction(0), _old_theta),
    "big_m1_jacobi": (lambda p, n: 1 - sum(_old_AC(p, n)),
                      lambda p, n: _old_AC(p, n - 1)[0] * _old_AC(p, n)[1]),
}

_JACOBI_GRID = [(a, b) for a in (-2, F(-3, 2), -1, F(-1, 2), 0, F(1, 3), 1)
                for b in (F(-3, 2), -1, F(-1, 2), 0, F(2, 5), 2)]
_CBI_GRID = [(rho1, rho2, r1, r2) for rho1 in (0, F(1, 2), 1) for rho2 in (F(-1, 2), F(1, 3), 2)
             for r1 in (F(1, 2), 1, F(5, 3)) for r2 in (F(1, 5), F(1, 2), F(3, 2))]
_FORMER_GRID = [
    *(chihara_family(a, b, F(1, 2)) for a, b in _JACOBI_GRID),
    *(gegenbauer_family(a, b) for a, b in _JACOBI_GRID),
    *(cbi_family(*params) for params in _CBI_GRID),
    *(ext_hermite_family(mu, F(-1, 3)) for mu in (F(-3, 2), F(-1, 2), 0, F(1, 3), F(3, 2))),
    *(gen_hermite_family(mu) for mu in (F(-3, 2), F(-1, 2), 0, F(1, 3), F(3, 2))),
    *(big_m1_jacobi_family(a, b, c) for a in (-3, -2, -1, F(-1, 2), 0, 1, F(5, 2))
      for b in (-3, -1, F(-1, 2), 0, 2) for c in (F(3, 5), 0, F(-1, 3))),
]


def test_former_grid_reaches_the_degenerate_sums():
    assert {a + b for a, b in _JACOBI_GRID} >= {-1, -2, -3}
    assert {rho1 + rho2 - r1 - r2 for rho1, rho2, r1, r2 in _CBI_GRID} >= {-1, -2}


def _old_value(formula, p, n):
    try:
        return formula(p, n)
    except ZeroDivisionError:
        return DegenerateParameters


def _new_value(method, n):
    try:
        return method(n)
    except DegenerateParameters:
        return DegenerateParameters


@pytest.mark.parametrize("name", sorted(_OLD_FORMULAS))
def test_table_matches_former_n_indexed_formulas(name):
    old_diag, old_sub = _OLD_FORMULAS[name]
    for family in (f for f in _FORMER_GRID if f.name == name):
        for n in range(13):
            for got, want in (
                (_new_value(family.diag, n), _old_value(old_diag, family.p, n)),
                (_new_value(family.sub, n),
                 Fraction(0) if n == 0 else _old_value(old_sub, family.p, n)),
            ):
                assert got == want and type(got) is type(want), (family.label(), n)
