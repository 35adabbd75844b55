"""Operator application, eigen-equations, and the quadratic algebra.

The frozen image of the Chihara eigenoperator on x^3 was computed by an
independent route: expand x^3 in the family basis (frozen recurrence
polynomials), multiply by the eigenvalue table, and reassemble by hand.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklpoly.exactnum import (
    LaurentPoly,
    NotPolynomial,
    RatFunc,
    exact_polynomial_check,
    monomial_numerator,
    poly_divmod,
    poly_exact_div,
    poly_gcd,
)
from dunklpoly.dunklop import (
    ALGEBRAS,
    EIGEN_OPERATORS,
    OPERATOR_TOKENS,
    DunklOperator,
    GaussianPoly,
    OperatorTerm,
    UnsupportedTermForGaussianClass,
    _merge,
    algebra_relations,
    build_operator,
    eigencheck,
    expected_eigenvalue,
    term,
    verify_algebra,
)
from dunklpoly.families import (
    cbi_family,
    chihara_family,
    gegenbauer_family,
    gen_hermite_family,
    generate_monic,
    ext_hermite_family,
)
from dunklpoly.suites import (
    ALGEBRA_EPS,
    CHIHARA_SETS,
    EIGEN_CASES,
    EIGEN_EPS,
    EXT_HERMITE_SETS,
    RunMemo,
    eigen_records,
)

F = Fraction
X = LaurentPoly.x()
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


# -- involution and parity -------------------------------------------------------


def test_involution_worked_examples():
    P = build_operator("involution_P", gamma=F(1, 2))
    assert P.apply(X) == LaurentPoly({1: -1, 0: 1})
    assert P.apply(X * X) == X * X
    assert P.apply(LaurentPoly.one()) == LaurentPoly.one()


def test_involution_squares_to_identity():
    P = build_operator("involution_P", gamma=F(2, 7))
    for j in range(13):
        mono = LaurentPoly.monomial(j)
        assert P.apply(P.apply(mono)) == mono


def test_reflection_parity_identity():
    # the projector acts on P_n as multiplication by n mod 2
    polys = generate_monic(chihara_family(1, 1, F(1, 2)), 12)
    proj = build_operator("reflection_component", gamma=F(1, 2))
    for n, p in enumerate(polys):
        assert proj.apply(p) == (n % 2) * p, n
    # n=1 by hand: (x-gamma)/(2x) * ((x-gamma) - (-x-gamma)) = x - gamma
    assert proj.apply(polys[1]) == polys[1]


# -- eigen-equations ---------------------------------------------------------------


def test_chihara_apply_frozen_nonbasis_value():
    # Oracle: expand x^3 = C3 + (1/2)C2 + (17/20)C1 + (3/8)C0 in the monic basis
    # at (alpha, beta, gamma) = (1, 1, 1/2) and apply the eigenvalue table
    # (0, 2/3, 4, 17/3) for eps = 2/3 term by term.
    D = build_operator("chihara_D", alpha=1, beta=1, gamma=F(1, 2), eps=F(2, 3))
    got = D.apply(LaurentPoly.monomial(3))
    assert got == LaurentPoly(
        {3: F(17, 3), 2: F(-5, 6), 1: F(-17, 4), 0: F(5, 8)}
    )


def test_chihara_lowest_eigencheck_examples():
    D = build_operator("chihara_D", alpha=1, beta=1, gamma=F(1, 2), eps=F(2, 3))
    polys = generate_monic(chihara_family(1, 1, F(1, 2)), 2)
    assert D.apply(polys[0]).is_zero
    assert eigencheck(D, polys[1], F(2, 3)).is_zero
    assert eigencheck(D, polys[2], F(1 + 1 + 2)).is_zero


@pytest.mark.parametrize("params", CHIHARA_SETS)
@pytest.mark.parametrize("eps", EIGEN_EPS)
def test_chihara_eigenchecks(params, eps):
    alpha, beta, gamma = params
    D = build_operator("chihara_D", alpha=alpha, beta=beta, gamma=gamma, eps=eps)
    polys = generate_monic(chihara_family(alpha, beta, gamma), 10)
    for n, p in enumerate(polys):
        lam = expected_eigenvalue("chihara_D", n, alpha=alpha, beta=beta, eps=eps)
        assert eigencheck(D, p, lam).is_zero, f"n={n}"


def test_cbi_apply_frozen_value():
    # K x = Lambda_1 (x - rho2) with Lambda_1 = omega + alpha = 33/20 here
    K = build_operator("cbi_K", rho1=1, rho2=2, r1=F(1, 3), r2=F(1, 5), alpha=F(2, 3))
    assert K.apply(X) == F(33, 20) * (X - 2)


def test_cbi_eigenchecks():
    params = dict(rho1=1, rho2=2, r1=F(1, 3), r2=F(1, 5))
    K = build_operator("cbi_K", alpha=F(2, 3), **params)
    polys = generate_monic(cbi_family(**params), 8)
    for n, p in enumerate(polys):
        lam = expected_eigenvalue("cbi_K", n, alpha=F(2, 3), **params)
        assert eigencheck(K, p, lam).is_zero, f"n={n}"


def test_gegenbauer_eigenchecks():
    W = build_operator("gegenbauer_W", alpha=F(1, 2), beta=2, eps=F(2, 3))
    polys = generate_monic(gegenbauer_family(F(1, 2), 2), 10)
    for n, p in enumerate(polys):
        lam = expected_eigenvalue("gegenbauer_W", n, alpha=F(1, 2), beta=2, eps=F(2, 3))
        assert eigencheck(W, p, lam).is_zero, f"n={n}"


def test_ext_hermite_eigenchecks():
    Z = build_operator("y_Z", mu=F(3, 2), gamma=F(1, 2), eps=F(2, 3))
    polys = generate_monic(ext_hermite_family(F(3, 2), F(1, 2)), 10)
    for n, p in enumerate(polys):
        lam = expected_eigenvalue("y_Z", n, eps=F(2, 3))
        assert eigencheck(Z, p, lam).is_zero, f"n={n}"


def test_gen_hermite_eigenchecks():
    Om = build_operator("gh_Omega", mu=F(3, 2), eps=F(2, 3))
    polys = generate_monic(gen_hermite_family(F(3, 2)), 10)
    for n, p in enumerate(polys):
        lam = expected_eigenvalue("gh_Omega", n, eps=F(2, 3))
        assert eigencheck(Om, p, lam).is_zero, f"n={n}"


# -- the Gaussian-dressed class ------------------------------------------------------


def test_gaussian_derivative_example():
    d = DunklOperator((term(1, k=1),))
    got = d.apply_gaussian(GaussianPoly(LaurentPoly.one()))
    assert got.poly == LaurentPoly({1: -1})


def test_gaussian_derivative_of_a_polynomial():
    # d/dx [e^(-x^2/2) x^2] = e^(-x^2/2) (2x - x^3)
    d = DunklOperator((term(1, k=1),))
    got = d.apply_gaussian(GaussianPoly(X * X))
    assert got.poly == LaurentPoly({1: 2, 3: -1})


def test_gaussian_dunkl_derivative_example():
    Dm = build_operator("dunkl_derivative", mu=F(3, 2))
    got = Dm.apply_gaussian(GaussianPoly(X))
    assert got.poly == LaurentPoly({0: 4, 2: -1})  # 1 - x^2 + 2 mu


def test_gaussian_class_takes_polynomial_factors_only():
    # the conjugate acts through apply, which refuses a Laurent factor
    Ot = build_operator("gh_OmegaTilde", mu=F(3, 2), eps=F(2, 3))
    with pytest.raises(ValueError, match="operators act on true polynomials here") as caught:
        Ot.apply_gaussian(GaussianPoly(LaurentPoly.monomial(-1)))
    assert type(caught.value) is ValueError


@pytest.mark.parametrize("mu", [F(1, 2), F(3, 2), F(-1, 4), F(7, 3)])
@pytest.mark.parametrize("eps", [F(0), F(2, 3), F(5)])
def test_oscillator_conjugate_is_shifted_gh_omega(mu, eps):
    # e^(x^2/2) OmegaTilde e^(-x^2/2) = gh_Omega(mu, eps + 1) + (mu + 1/2) I
    Ot = build_operator("gh_OmegaTilde", mu=mu, eps=eps)
    Om = build_operator("gh_Omega", mu=mu, eps=eps + 1)
    for j in range(13):
        f = LaurentPoly.monomial(j)
        assert Ot._conjugate.apply(f) == Om.apply(f) + (mu + F(1, 2)) * f, j


def test_oscillator_ground_state():
    Ot = build_operator("gh_OmegaTilde", mu=F(3, 2), eps=F(2, 3))
    psi0 = GaussianPoly(LaurentPoly.one())
    assert eigencheck(Ot, psi0, F(3, 2) + F(1, 2)).is_zero


def test_oscillator_eigenchecks():
    mu, eps = F(3, 2), F(2, 3)
    Ot = build_operator("gh_OmegaTilde", mu=mu, eps=eps)
    polys = generate_monic(gen_hermite_family(mu), 10)
    for n, p in enumerate(polys):
        lam = expected_eigenvalue("gh_OmegaTilde", n, mu=mu, eps=eps)
        assert eigencheck(Ot, GaussianPoly(p), lam).is_zero, f"n={n}"


def test_shift_terms_leave_gaussian_class():
    K = build_operator("cbi_K", rho1=1, rho2=2, r1=F(1, 3), r2=F(1, 5), alpha=0)
    with pytest.raises(UnsupportedTermForGaussianClass):
        K.apply_gaussian(GaussianPoly(X))


# -- the eigen-operators built from the Dunkl derivative ---------------------------


def test_dunkl_square_eigencheck():
    mu, a = F(3, 2), F(3, 4)
    Q = build_operator("gegenbauer_Q", mu=mu, a=a)
    polys = generate_monic(gegenbauer_family(mu - F(1, 2), a), 10)
    for n, p in enumerate(polys):
        lam = expected_eigenvalue("gegenbauer_Q", n, mu=mu, a=a)
        assert eigencheck(Q, p, lam).is_zero, f"n={n}"


@settings(deadline=None, max_examples=15)
@given(mu=_rationals, a=_rationals, eps=_rationals)
def test_dunkl_square_matches_double_application(mu, a, eps):
    # gegenbauer_Q and gh_OmegaTilde are built in the closed reflection
    # form; nested application of D^mu is the independent route, on
    # polynomials and on the Gaussian class alike
    Q = build_operator("gegenbauer_Q", mu=mu, a=a)
    Ot = build_operator("gh_OmegaTilde", mu=mu, eps=eps)
    Dm = build_operator("dunkl_derivative", mu=mu)
    w = LaurentPoly({0: 1, 2: -1})
    routes = {
        "apply": lambda op, f: op.apply(f),
        "apply_gaussian": lambda op, f: op.apply_gaussian(GaussianPoly(f)).poly,
    }
    for route, image in routes.items():
        def d(f):
            return image(Dm, f)

        for j in range(13):
            f = LaurentPoly.monomial(j)
            assert image(Q, f) == w * d(d(f)) - 2 * (a + 1) * X * d(f), (route, j)
            reflected = f.substitute_affine(-1, 0)
            want = F(-1, 2) * d(d(f)) + F(1, 2) * X * X * f + eps / 2 * (f - reflected)
            assert image(Ot, f) == want, (route, j)


def test_eigenvalue_table_spot_values():
    assert expected_eigenvalue("chihara_D", 2, alpha=1, beta=1, eps=0) == 4
    assert expected_eigenvalue("gegenbauer_Q", 2, mu=F(3, 2), a=F(3, 4)) == -2 * (
        2 * F(3, 4) + 2 * F(3, 2) + 3
    )
    assert expected_eigenvalue("gh_OmegaTilde", 0, mu=F(3, 2), eps=0) == 2


# The eigenvalues as they were written before the table became arithmetic in
# m alone, with Fraction(m) on the index: values and types must not move.


def _old_chihara_eigenvalue(m, odd, p):
    s = p["alpha"] + p["beta"]
    return m * (m + s + 2) + p["eps"] if odd else Fraction(m) * (m + s + 1)


def _old_cbi_eigenvalue(m, odd, p):
    g = p["rho1"] + p["rho2"] - p["r1"] - p["r2"]
    if not odd:
        return Fraction(m) * (m + g + 1)
    omega = (
        p["rho1"] * (1 - p["r1"] - p["r2"])
        + p["r1"] * p["r2"]
        - Fraction(3, 2) * (p["r1"] + p["r2"])
        + Fraction(5, 4)
    )
    return m * (m + g + 2) + omega + p["alpha"]


def _old_gegenbauer_q_eigenvalue(m, odd, p):
    mu, a = p["mu"], p["a"]
    if odd:
        return -(2 * m + 2 * mu + 1) * (2 * m + 2 * a + 2)
    return Fraction(-2 * m) * (2 * m + 2 * a + 2 * mu + 1)


def _old_oscillator_eigenvalue(m, odd, p):
    base = 2 * m + p["mu"] + Fraction(1, 2)
    return base + 1 + p["eps"] if odd else base


_OLD_EIGENVALUES = {
    "chihara_D": _old_chihara_eigenvalue,
    "gegenbauer_W": _old_chihara_eigenvalue,
    "cbi_K": _old_cbi_eigenvalue,
    "gegenbauer_Q": _old_gegenbauer_q_eigenvalue,
    "y_Z": lambda m, odd, p: m + p["eps"] if odd else Fraction(m),
    "gh_Omega": lambda m, odd, p: 2 * m + p["eps"] if odd else Fraction(2 * m),
    "gh_OmegaTilde": _old_oscillator_eigenvalue,
}


@pytest.mark.parametrize("token", sorted(EIGEN_OPERATORS))
def test_eigenvalues_match_former_formulas(token):
    names = EIGEN_OPERATORS[token].params
    grid = (F(-3, 2), 0, F(2, 3))
    for i in range(3 ** len(names)):
        params = {name: grid[i // 3**k % 3] for k, name in enumerate(names)}
        p = {name: F(v) for name, v in params.items()}
        for n in range(13):
            got = expected_eigenvalue(token, n, **params)
            want = _OLD_EIGENVALUES[token](*divmod(n, 2), p)
            assert got == want and type(got) is type(want), (params, n)


def test_expected_eigenvalue_rejects_non_eigen_token():
    with pytest.raises(ValueError):
        expected_eigenvalue("involution_P", 0, gamma=1)


@pytest.mark.parametrize("token", list(EIGEN_OPERATORS))
def test_every_eigenvalue_branch_is_sharp(monkeypatch, token):
    # negative control of the whole table: adding 1 to the even branch of a
    # token's eigenvalue must fail its sweep at n = 0 and 2, and adding 1 to
    # the odd branch at n = 1 and 3; the first pinned instance is used
    spec = EIGEN_OPERATORS[token]
    values = next(v for t, v in EIGEN_CASES if t == token)
    params = dict(zip(spec.params, values))
    assert all(r.outcome != "fail" for r in eigen_records(token, params, 3, RunMemo()))
    for bumped in (0, 1):
        def eigenvalue(m, odd, p, bumped=bumped):
            return spec.eigenvalue(m, odd, p) + (1 if odd == bumped else 0)

        monkeypatch.setitem(EIGEN_OPERATORS, token, spec._replace(eigenvalue=eigenvalue))
        failures = [int(r.degrees) for r in eigen_records(token, params, 3, RunMemo())
                    if r.outcome == "fail"]
        assert failures == [bumped, bumped + 2], bumped


# -- failure detectors ------------------------------------------------------------


def test_apply_rejects_nonpolynomial_input():
    D = build_operator("chihara_D", alpha=1, beta=1, gamma=F(1, 2), eps=0)
    with pytest.raises(ValueError):
        D.apply(LaurentPoly({-1: 1}))


def test_perturbed_coefficient_is_detected():
    # adding 1 to the (alpha+1/2)-part of the first-derivative coefficient:
    # odd inputs stop being polynomial images, even ones get a wrong eigenvalue
    D = build_operator("chihara_D", alpha=1, beta=1, gamma=F(1, 2), eps=F(2, 3))
    bad = D + DunklOperator((term(RatFunc.of(LaurentPoly.const(-1), 2 * X), k=1),))
    polys = generate_monic(chihara_family(1, 1, F(1, 2)), 3)
    with pytest.raises(NotPolynomial):
        bad.apply(polys[1])
    res = eigencheck(bad, polys[2], expected_eigenvalue("chihara_D", 2, alpha=1, beta=1, eps=F(2, 3)))
    assert not res.is_zero


# -- the common-denominator route against the term-by-term RatFunc route --------


def _ratfunc_route(op, f, gaussian=False):
    """Reference image: every term reduced as a RatFunc, then summed."""
    total = RatFunc.zero()
    for t in op.terms:
        g = f.substitute_affine(t.eps, t.delta)
        for _ in range(t.k):
            g = g.derivative() - X * g if gaussian else g.derivative()
        total = total + t.coeff * RatFunc.from_laurent(g)
    return exact_polynomial_check(total)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotPolynomial as exc:
        return f"NotPolynomial: {exc}"


TOKEN_PARAMS = {
    "cbi_K": ("rho1", "rho2", "r1", "r2", "alpha"),
    "chihara_D": ("alpha", "beta", "gamma", "eps"),
    "dunkl_derivative": ("mu",),
    "gegenbauer_Q": ("mu", "a"),
    "gegenbauer_W": ("alpha", "beta", "eps"),
    "gh_Omega": ("mu", "eps"),
    "gh_OmegaTilde": ("mu", "eps"),
    "involution_P": ("gamma",),
    "reflection_component": ("gamma",),
    "y_Z": ("mu", "gamma", "eps"),
}

_polys = st.lists(_rationals, max_size=11).map(lambda cs: LaurentPoly(dict(enumerate(cs))))


@st.composite
def _extra_terms(draw):
    """Zero or one extra term c/x^m or c/(x - r), as in the perturbed control."""
    if not draw(st.booleans()):
        return ()
    c = draw(_rationals.filter(bool))
    den = X ** draw(st.integers(0, 3)) if draw(st.booleans()) else X - draw(_rationals)
    delta = draw(st.sampled_from((1, -1, F(1, 2)))) if draw(st.booleans()) else 0
    return (term(RatFunc.of(LaurentPoly.const(c), den), k=draw(st.integers(0, 2)),
                 eps=draw(st.sampled_from((1, -1))), delta=delta),)


def test_token_params_cover_every_operator():
    assert sorted(TOKEN_PARAMS) == list(OPERATOR_TOKENS)


def test_eigen_table_params_are_token_params():
    for token, spec in EIGEN_OPERATORS.items():
        assert spec.params == TOKEN_PARAMS[token], token


@pytest.mark.parametrize("token", OPERATOR_TOKENS)
@settings(deadline=None, max_examples=12)
@given(data=st.data())
def test_apply_matches_ratfunc_route(token, data):
    params = {name: data.draw(_rationals) for name in TOKEN_PARAMS[token]}
    extra = data.draw(_extra_terms())
    op = build_operator(token, **params) + DunklOperator(extra)
    shift_free = all(t.delta == 0 for t in op.terms)
    for f in (data.draw(_polys), data.draw(_polys)):
        assert _outcome(op.apply, f) == _outcome(_ratfunc_route, op, f)
        if shift_free:
            got = _outcome(lambda g: op.apply_gaussian(GaussianPoly(g)).poly, f)
            assert got == _outcome(_ratfunc_route, op, f, True)
    # the per-operator caches are invisible to equality and hashing
    fresh = build_operator(token, **params) + DunklOperator(extra)
    assert op == fresh and hash(op) == hash(fresh)


@pytest.mark.parametrize("token", OPERATOR_TOKENS)
@settings(deadline=None, max_examples=12)
@given(data=st.data())
def test_common_denominator_matches_lcm_route(token, data):
    # powers of x take a shortcut; an extra c/(x - r) term or cbi_K's
    # shifts take the lcm loop: the same fields in the same order
    params = {name: data.draw(_rationals) for name in TOKEN_PARAMS[token]}
    op = build_operator(token, **params) + DunklOperator(data.draw(_extra_terms()))
    L = LaurentPoly.one()
    for t in op.terms:
        L = L * poly_exact_div(t.coeff.den, poly_gcd(L, t.coeff.den))
    want = (L, *(t.coeff.num * poly_exact_div(L, t.coeff.den) for t in op.terms))
    got = (op._common[0], *op._common[1])
    assert [(p._den, list(p._nums.items())) for p in got] == [
        (p._den, list(p._nums.items())) for p in want]


# -- cached monomial quotients against one division per input -------------------


def _numerator_route(op, f, gaussian=False):
    """Reference image: the numerator sum_j f_j N_j over L, divided once per
    input, the route the cached quotient tables replace."""
    L, multipliers = op._common

    def numerator(j):
        image = LaurentPoly.zero()
        for t, m in zip(op.terms, multipliers):
            g = LaurentPoly.affine_power(j, t.eps, t.delta)
            for _ in range(t.k):
                g = g.derivative() - X * g if gaussian else g.derivative()
            image = image + m * g
        return image

    total = f.map_monomials(numerator)
    if total.is_polynomial:
        quotient, remainder = poly_divmod(total, L)
        if remainder.is_zero:
            return quotient
    return exact_polynomial_check(RatFunc(total, L))


def _assert_same_images(op, data):
    """apply and, for a shift-free op, apply_gaussian give the reference's
    image with the same denominator, or the same NotPolynomial message."""

    def same(got_fn, want_fn, f):
        got, want = _outcome(got_fn, f), _outcome(want_fn, f)
        assert got == want
        if isinstance(want, LaurentPoly):
            assert got._den == want._den

    shift_free = all(t.delta == 0 for t in op.terms)
    for f in (data.draw(_polys), data.draw(_polys), data.draw(_polys)):
        same(op.apply, lambda p: _numerator_route(op, p), f)
        if shift_free:
            same(lambda p: op.apply_gaussian(GaussianPoly(p)).poly,
                 lambda p: _numerator_route(op, p, True), f)


@pytest.mark.parametrize("token", (*EIGEN_OPERATORS, "involution_P"))
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_apply_matches_numerator_route(token, data):
    params = {name: data.draw(_rationals) for name in TOKEN_PARAMS[token]}
    _assert_same_images(build_operator(token, **params), data)


@pytest.mark.parametrize("mk", [(0, 1), (1, 1)])
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_perturbed_apply_matches_numerator_route(mk, data):
    params = {name: data.draw(_rationals) for name in TOKEN_PARAMS["chihara_D"]}
    _assert_same_images(build_operator("chihara_D", **params) + _perturbation(*mk), data)


def _composed_numerator(op, j):
    """N_j as a sum of canonical LaurentPolys: the route ``monomial_numerator``
    replaces in the table fill."""
    L, multipliers = op._common
    numerator = LaurentPoly.zero()
    for t, m in zip(op.terms, multipliers):
        g = LaurentPoly.affine_power(j, t.eps, t.delta)
        for _ in range(t.k):
            g = g.derivative()
        numerator = numerator + m * g
    return numerator


@pytest.mark.parametrize("token", (*EIGEN_OPERATORS, "involution_P"))
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_monomial_numerators_match_composed_route(token, data):
    # cbi_K carries the shifts
    params = {name: data.draw(_rationals) for name in TOKEN_PARAMS[token]}
    op = build_operator(token, **params)
    L, multipliers = op._common
    terms = [(m, t.k, t.eps, t.delta) for t, m in zip(op.terms, multipliers)]
    for j in data.draw(st.lists(st.integers(0, 14), min_size=1, max_size=4)):
        got = monomial_numerator(j, terms)
        want = _composed_numerator(op, j)
        assert got._den == want._den
        assert list(got._nums.items()) == list(want._nums.items())


@pytest.mark.parametrize("token", sorted(EIGEN_OPERATORS))
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_eigen_residual_matches_composed_route(token, data):
    params = {name: data.draw(_rationals) for name in TOKEN_PARAMS[token]}
    op = build_operator(token, **params)
    lam = data.draw(_rationals)
    f = data.draw(_polys)
    if EIGEN_OPERATORS[token].gaussian:
        got = eigencheck(op, GaussianPoly(f), lam).poly
        want = op.apply_gaussian(GaussianPoly(f)).poly - f * lam
    else:
        got, want = eigencheck(op, f, lam), op.apply(f) - f * lam
    assert got._den == want._den
    assert list(got._nums.items()) == list(want._nums.items())


def test_unknown_operator_token():
    with pytest.raises(ValueError):
        build_operator("not_an_operator", mu=1)


def test_term_validation():
    with pytest.raises(ValueError):
        OperatorTerm(RatFunc.from_laurent(X), -1, 1, F(0))
    with pytest.raises(ValueError):
        OperatorTerm(RatFunc.from_laurent(X), 0, 2, F(0))


def test_first_order_builders_write_their_terms_in_order():
    # D^mu = d + (mu/x)(I - R), P = (gamma/x) I + ((x - gamma)/x) R and
    # ((x - gamma)/(2x))(I - R), through _reflection_form
    m, c = RatFunc.of(F(3, 2), X), RatFunc.of(X - F(1, 3), 2 * X)
    assert build_operator("dunkl_derivative", mu=F(3, 2)).terms == (
        term(1, k=1), term(m), term(-m, eps=-1))
    assert build_operator("involution_P", gamma=F(1, 3)).terms == (
        term(RatFunc.of(F(1, 3), X)), term(RatFunc.of(X - F(1, 3), X), eps=-1))
    assert build_operator("reflection_component", gamma=F(1, 3)).terms == (
        term(c), term(-c, eps=-1))


def test_zero_parameter_drops_zero_terms():
    assert build_operator("dunkl_derivative", mu=0).terms == (term(1, k=1),)
    assert build_operator("involution_P", gamma=0).terms == (term(1, eps=-1),)


# -- the Laurent builders against their RatFunc formulas ----------------------------
# The shift-free builders sum their coefficients as Laurent polynomials and
# wrap each in one RatFunc.  The RatFunc sums they replace are written out
# here: every term must be the same, field by field.


def _ratfunc_form(S, T, U, V):
    zero = F(0)
    return _merge((OperatorTerm(S, 2, 1, zero), OperatorTerm(T, 1, -1, zero),
                   OperatorTerm(U, 1, 1, zero), OperatorTerm(V, 0, 1, zero),
                   OperatorTerm(-V, 0, -1, zero)))


def _ratfunc_chihara_coeffs(alpha, beta, gamma, eps):
    r = X * X - LaurentPoly.const(gamma**2)
    r1 = r - 1
    ab, ah = alpha + beta + F(3, 2), alpha + F(1, 2)
    S = RatFunc.of(r * r1, 4 * X**2)
    T = RatFunc.of(gamma * (X - gamma) * r1, 4 * X**3)
    U = (RatFunc.of(gamma * r1 * (2 * gamma - X), 4 * X**3) + RatFunc.of(r * ab, 2 * X)
         - RatFunc.of(LaurentPoly.const(ah), 2 * X))
    V = (RatFunc.of(gamma * r1 * (X - F(3, 2) * gamma), 4 * X**4)
         - RatFunc.of(r * ab, 4 * X**2) + RatFunc.of(LaurentPoly.const(ah), 4 * X**2)
         + RatFunc.of(eps * (X - gamma), 2 * X))
    return S, T, U, V


def _ratfunc_ext_hermite(mu, gamma, eps):
    mg, c = mu + gamma**2, LaurentPoly.const
    S = RatFunc.of(gamma**2 - X * X, 4 * X**2)
    T = RatFunc.of(gamma * (X - gamma), 4 * X**3)
    U = (RatFunc.of(X, 2) + RatFunc.of(c(gamma), 4 * X**2)
         - RatFunc.of(c(gamma**2), 2 * X**3) - RatFunc.of(c(mg), 2 * X))
    V = (RatFunc.of(c(3 * gamma**2), 8 * X**4) - RatFunc.of(c(gamma), 4 * X**3)
         + RatFunc.of(c(mg), 4 * X**2) + RatFunc.of(eps * (X - gamma), 2 * X)
         - RatFunc.from_laurent(c(F(1, 4))))
    return _ratfunc_form(S, -T, U, V)


_ZERO = RatFunc.zero()
_RATFUNC_BUILDERS = {
    "chihara_D": lambda alpha, beta, gamma, eps: _ratfunc_form(
        *_ratfunc_chihara_coeffs(alpha, beta, gamma, eps)),
    "gegenbauer_W": lambda alpha, beta, eps: _ratfunc_form(
        *_ratfunc_chihara_coeffs(alpha, beta, F(0), eps)),
    "y_Z": _ratfunc_ext_hermite,
    "gh_Omega": lambda mu, eps: _ratfunc_form(
        RatFunc.from_laurent(F(-1, 2)), _ZERO, RatFunc.of(X * X - mu, X),
        RatFunc.of(LaurentPoly.const(mu), 2 * X**2) + RatFunc.from_laurent((eps - 1) / 2)),
    "gegenbauer_Q": lambda mu, a: _ratfunc_form(
        RatFunc.from_laurent(1 - X * X), _ZERO,
        RatFunc.of(2 * mu * (1 - X * X) - 2 * (a + 1) * X * X, X),
        RatFunc.of(-mu * (1 - X * X) - 2 * (a + 1) * mu * X * X, X**2)),
    "gh_OmegaTilde": lambda mu, eps: _ratfunc_form(
        RatFunc.from_laurent(F(-1, 2)), _ZERO, RatFunc.of(-mu, X),
        RatFunc.of(mu + eps * X * X, 2 * X**2)) + DunklOperator((term(X * X / 2),)),
    "dunkl_derivative": lambda mu: _ratfunc_form(
        _ZERO, _ZERO, RatFunc.from_laurent(1), RatFunc.of(mu, X)),
    "involution_P": lambda gamma: _ratfunc_form(
        _ZERO, _ZERO, _ZERO, RatFunc.of(gamma, X)) + DunklOperator((term(1, eps=-1),)),
    "reflection_component": lambda gamma: _ratfunc_form(
        _ZERO, _ZERO, _ZERO, RatFunc.of(X - gamma, 2 * X)),
}


def _fields(op):
    return [(t.coeff.num._den, t.coeff.num._nums, t.coeff.den._den, t.coeff.den._nums,
             t.k, t.eps, t.delta) for t in op.terms]


def test_every_shift_free_token_has_a_ratfunc_reference():
    assert sorted(_RATFUNC_BUILDERS) == sorted(set(OPERATOR_TOKENS) - {"cbi_K"})


@pytest.mark.parametrize("token", sorted(_RATFUNC_BUILDERS))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_laurent_builders_equal_ratfunc_formulas(token, data):
    # zero parameters included: a coefficient that vanishes drops its term
    # on both routes
    params = {name: data.draw(st.just(F(0)) | _rationals) for name in TOKEN_PARAMS[token]}
    got = build_operator(token, **params)
    assert _fields(got) == _fields(_RATFUNC_BUILDERS[token](**params))


# -- quadratic algebra -------------------------------------------------------------


def _relations(which, **params):
    """``algebra_relations`` over a K and P built here, by ``build_operator``."""
    K = build_operator(ALGEBRAS[which].operator, **params)
    P = build_operator("involution_P", gamma=params["gamma"])
    return algebra_relations(which, K, P, **params)


def _first_failures(which, cap, **params):
    """(relation name, first failing degree or None), in table order;
    ``verify_algebra`` is looked up on its module, so a wrapper put in its
    place is called."""
    from dunklpoly import dunklop

    return [(name, dunklop.verify_algebra(lhs, rhs, cap))
            for name, lhs, rhs in _relations(which, **params)]


@pytest.mark.parametrize("params", CHIHARA_SETS)
@pytest.mark.parametrize("eps", ALGEBRA_EPS)
def test_chihara_algebra_relations(params, eps):
    alpha, beta, gamma = params
    failures = _first_failures("chihara", 12, alpha=alpha, beta=beta, gamma=gamma, eps=eps)
    assert len(failures) == 6
    for name, first in failures:
        assert first is None, f"{name} first failure at degree {first}"


@pytest.mark.parametrize("params", EXT_HERMITE_SETS)
@pytest.mark.parametrize("eps", ALGEBRA_EPS)
def test_ext_hermite_algebra_relations(params, eps):
    mu, gamma = params
    failures = _first_failures("ext_hermite", 12, mu=mu, gamma=gamma, eps=eps)
    assert len(failures) == 6
    for name, first in failures:
        assert first is None, f"{name} first failure at degree {first}"


def test_algebra_constants_are_sharp():
    # shifting the P-coefficient of the position-bracket relation by
    # 2*gamma*eps*(gamma - 1), the gap to the sign-slipped variant of the
    # constant, must break the relation; this pins the implemented constants
    from dunklpoly.dunklop import ext_hermite_eigenop, parity_involution

    mu, gamma, eps = F(3, 2), F(1, 2), F(2, 3)
    K1 = ext_hermite_eigenop(mu, gamma, eps)
    P = parity_involution(gamma)
    k1, pp = K1.apply, P.apply
    k2 = lambda f: X * f
    k3 = lambda f: k1(k2(f)) - k2(k1(f))
    c_good = gamma**2 * (1 - 2 * eps) + mu
    c_bad = gamma**2 - 2 * gamma * eps + mu
    assert c_good != c_bad
    f = LaurentPoly.one()
    lhs = k2(k3(f)) - k3(k2(f))
    rhs_good = (2 * eps - 1) * (X * X * pp(f)) - 2 * gamma * k3(pp(f)) + c_good * pp(f) + F(1, 2) * f
    rhs_bad = (2 * eps - 1) * (X * X * pp(f)) - 2 * gamma * k3(pp(f)) + c_bad * pp(f) + F(1, 2) * f
    assert lhs == rhs_good
    assert lhs != rhs_bad


# two parameter sets per entry of ALGEBRAS, by parameter name
_ALGEBRA_SETS = {
    "chihara": (dict(alpha=1, beta=1, gamma=F(1, 2), eps=F(2, 3)),
                dict(alpha=F(1, 2), beta=F(3, 4), gamma=F(-1, 3), eps=F(5))),
    "ext_hermite": (dict(mu=F(3, 2), gamma=F(1, 2), eps=F(2, 3)),
                    dict(mu=F(1, 2), gamma=F(1, 3), eps=F(5))),
}


@pytest.mark.parametrize("which", list(ALGEBRAS))
@pytest.mark.parametrize("index", [0, 1])
def test_every_rhs_coefficient_is_sharp(monkeypatch, which, index):
    # negative control of the whole table: adding 1 to any coefficient of a
    # right-hand side (to the empty word, where the side is empty) must
    # break that relation at degree 0 or 1 and leave the other five intact
    spec, params = ALGEBRAS[which], _ALGEBRA_SETS[which][index]
    relations = spec.relations(*(F(params[n]) for n in spec.params))
    for i, (_, _, rhs) in enumerate(relations):
        for word in rhs or {"": 0}:
            def shifted(*args, i=i, word=word):
                relations = spec.relations(*args)
                name, lhs, rhs = relations[i]
                rhs = {**rhs, word: rhs.get(word, 0) + 1}
                return [*relations[:i], (name, lhs, rhs), *relations[i + 1:]]

            monkeypatch.setitem(ALGEBRAS, which, spec._replace(relations=shifted))
            failures = [first for _, first in _first_failures(which, 6, **params)]
            assert failures.pop(i) in (0, 1), (i, word)
            assert failures == [None] * 5, (i, word)


def test_algebra_params_are_operator_params():
    for which, spec in ALGEBRAS.items():
        assert spec.params == EIGEN_OPERATORS[spec.operator].params, which


@pytest.mark.parametrize("which", list(ALGEBRAS))
def test_relations_build_no_operator(monkeypatch, which):
    # the relation table alone, with every operator builder disabled
    from dunklpoly import dunklop

    def refuse(*args, **kwargs):
        raise AssertionError("an operator was built")

    for token in OPERATOR_TOKENS:
        monkeypatch.setitem(dunklop._BUILDERS, token, refuse)
    for name in ("build_operator", "parity_involution", "chihara_eigenop", "ext_hermite_eigenop"):
        monkeypatch.setattr(dunklop, name, refuse)
    spec, params = ALGEBRAS[which], _ALGEBRA_SETS[which][0]
    relations = spec.relations(*(F(params[n]) for n in spec.params))
    assert len(relations) == len({name for name, _, _ in relations}) == 6


def test_algebra_report_shape():
    params = dict(alpha=1, beta=1, gamma=F(1, 2), eps=F(2, 3))
    name, lhs, rhs = _relations("chihara", **params)[4]
    assert name == "bracket-position-commutator"
    assert verify_algebra(lhs, rhs, 4) is None
    # a side maps a polynomial to a polynomial
    assert isinstance(lhs(LaurentPoly.monomial(2)), LaurentPoly)
    # the relation's "BP": 2 * d3, with d3 = gamma
    spec = ALGEBRAS["chihara"]
    _, _, rhs = spec.relations(*(F(params[n]) for n in spec.params))[4]
    assert rhs["BP"] == 2 * params["gamma"]


# -- the application memo of algebra_relations ------------------------------------


def _count_applications(monkeypatch):
    """One dict per relation checked from now on: how often each memoized
    letter (K, P and B) computed an image of each input."""
    from dunklpoly import dunklop

    counts = []
    memoize, check = dunklop.cache, dunklop.verify_algebra

    def counted_cache(fn):
        # K and P are bound ``apply`` methods, B a function of its own
        letter = id(getattr(fn, "__self__", fn))

        def counted(f):
            counts[-1][letter, f] = counts[-1].get((letter, f), 0) + 1
            return fn(f)

        return memoize(counted)

    def marked_check(*args, **kwargs):
        counts.append({})
        return check(*args, **kwargs)

    monkeypatch.setattr(dunklop, "cache", counted_cache)
    monkeypatch.setattr(dunklop, "verify_algebra", marked_check)
    return counts


@pytest.mark.parametrize(
    "which, params",
    [
        ("chihara", dict(alpha=1, beta=1, gamma=F(1, 2), eps=F(2, 3))),
        ("ext_hermite", dict(mu=F(3, 2), gamma=F(1, 2), eps=F(5))),
    ],
)
def test_algebra_applies_each_operator_once_per_input(monkeypatch, which, params):
    counts = _count_applications(monkeypatch)
    failures = _first_failures(which, 8, **params)
    assert all(first is None for _, first in failures)
    assert len(counts) == len(failures) == 6
    # one memo for the whole call: K, P and B each compute an image of a
    # given input at most once over all six relations
    applied = [key for relation in counts for key in relation]
    assert all(n == 1 for relation in counts for n in relation.values())
    assert len(applied) == len(set(applied))
    assert len({letter for letter, _ in applied}) == 3
    # the monomials' P images are made by the first relation (PP) and
    # reused by the later ones
    monomials = {LaurentPoly.monomial(j) for j in range(9)}
    first = {}
    for letter, f in counts[0]:
        first.setdefault(letter, set()).add(f)
    assert any(monomials <= seen for seen in first.values())
    # nothing carries over into the next call
    _first_failures(which, 8, **params)
    assert [len(c) for c in counts[6:]] == [len(c) for c in counts[:6]]


# (m, k) adds -x^m/(2x) d^k to the Chihara eigenoperator: (0, 1) is the
# negative control's term, whose images of odd monomials keep a pole; the
# failure points below are those of the unmemoized nested application
_PERTURBED_FAILURES = {
    (1, 1): [None, 1, None, 0, 0, 0],
    (6, 5): [None, 5, None, 4, 3, 4],
}


@pytest.mark.parametrize("mk", sorted(_PERTURBED_FAILURES))
@pytest.mark.parametrize(
    "params",
    [dict(alpha=1, beta=1, gamma=F(1, 2), eps=F(2, 3)), dict(alpha=F(1, 2), beta=F(3, 4), gamma=F(1, 3), eps=0)],
)
def test_perturbed_algebra_fails_where_it_did(monkeypatch, mk, params):
    _perturb_chihara(monkeypatch, *mk)
    failures = _first_failures("chihara", 12, **params)
    assert [first for _, first in failures] == _PERTURBED_FAILURES[mk]


def test_perturbed_algebra_raises_where_it_did(monkeypatch):
    _perturb_chihara(monkeypatch, 0, 1)
    with pytest.raises(NotPolynomial, match="^denominator x does not cancel$"):
        _first_failures("chihara", 12, alpha=1, beta=1, gamma=F(1, 2), eps=F(2, 3))


def _perturbation(m, k):
    """The term -x^m/(2x) d^k."""
    return DunklOperator((term(RatFunc.of(LaurentPoly.const(F(-1)) * X**m, 2 * X), k=k),))


def _perturb_chihara(monkeypatch, m, k):
    from dunklpoly import dunklop

    build = dunklop._BUILDERS["chihara_D"]
    extra = _perturbation(m, k)
    monkeypatch.setitem(dunklop._BUILDERS, "chihara_D", lambda **p: build(**p) + extra)
