"""Family recurrences and explicit hypergeometric constructions.

Frozen expected values below were computed independently with sympy
(exact Rational recurrences, sympy.jacobi, and direct Pochhammer sums)
before this module was implemented.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklpoly.exactnum import LaurentPoly
from dunklpoly.families import (
    FAMILIES,
    DegenerateParameters,
    big_m1_jacobi_AC,
    big_m1_jacobi_family,
    big_q_jacobi_family,
    cbi_family,
    chihara_family,
    classical_jacobi_monic,
    explicit_poly,
    ext_hermite_family,
    gegenbauer_family,
    gen_hermite_family,
    generate_monic,
    hypergeometric_terminating,
    pochhammer,
    recurrence_coeffs,
)

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
    A0, C0 = big_m1_jacobi_AC(fam.p, 0)
    A1, C1 = big_m1_jacobi_AC(fam.p, 1)
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


CHIHARA_SETS = [(1, 1, F(1, 2)), (F(1, 2), F(3, 4), F(1, 3)), (2, 3, F(-2, 5))]
CBI_SETS = [
    (1, 2, F(1, 3), F(1, 5)),
    (F(3, 2), F(1, 2), F(1, 4), F(-1, 3)),
    (2, 1, F(-1, 2), F(1, 7)),
]
EXT_HERMITE_SETS = [(F(3, 2), F(1, 2)), (F(1, 2), F(1, 3)), (F(5, 2), F(-1, 4))]


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


# -- classical monic Jacobi ------------------------------------------------------


def test_classical_jacobi_frozen_values():
    assert coeffs_desc(classical_jacobi_monic(2, 0, 0), 2) == [1, 0, F(-1, 3)]
    assert coeffs_desc(classical_jacobi_monic(3, 1, 2), 3) == [1, F(-1, 3), F(-1, 3), F(1, 21)]
    assert coeffs_desc(classical_jacobi_monic(4, F(1, 2), F(3, 4)), 4) == [
        1,
        F(-4, 37),
        F(-294, 407),
        F(548, 11803),
        F(3383, 59015),
    ]


def test_classical_jacobi_chebyshev_alpha_plus_beta_minus_one():
    # alpha + beta = -1 zeroes the factor s - 1 of the general sub formula at
    # k = 1; the monic Chebyshev polynomials 2^(1-n) T_n must still come out
    half = F(-1, 2)
    assert coeffs_desc(classical_jacobi_monic(2, half, half), 2) == [1, 0, F(-1, 2)]
    assert coeffs_desc(classical_jacobi_monic(3, half, half), 3) == [1, 0, F(-3, 4), 0]
    assert coeffs_desc(classical_jacobi_monic(4, half, half), 4) == [1, 0, -1, 0, F(1, 8)]


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
    """Exact integral of z^j (1-z)^a (1+z)^b over [-1, 1] for integer a, b."""
    from math import comb

    total = Fraction(0)
    for i in range(a + 1):
        for k in range(b + 1):
            c = Fraction(comb(a, i) * comb(b, k) * (-1) ** i)
            e = j + i + k
            total += c * (1 + (-1) ** e) / (e + 1)
    return total


@pytest.mark.parametrize("a,b", [(0, 0), (1, 2)])
def test_classical_jacobi_against_gram_schmidt(a, b):
    # brute-force Gram-Schmidt on {1, z, z^2, z^3} with exact moments
    mom = [_jacobi_moment(j, a, b) for j in range(8)]

    def inner(p: LaurentPoly, q: LaurentPoly) -> Fraction:
        prod = p * q
        return sum(c * mom[e] for e, c in prod.items())

    basis = []
    for n in range(4):
        v = LaurentPoly.monomial(n)
        for u in basis:
            v = v - inner(v, u) / inner(u, u) * u
        basis.append(v)
        assert classical_jacobi_monic(n, a, b) == v


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
