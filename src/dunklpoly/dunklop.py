"""Dunkl-type difference-differential operators and their exact application.

An operator is a finite sum of primitive terms.  A term stores
``(coeff, k, eps, delta)`` with ``coeff`` a rational function, ``k`` a
derivative order, ``eps`` in {+1, -1} and ``delta`` a rational shift; it
acts on a function f as

    f  |->  coeff(x) * d^k/dx^k [ f(eps*x + delta) ]

(substitute first, then differentiate).  The identity is (1, 0, +1, 0),
the reflection R is (1, 0, -1, 0), the shifts T^+ / T^- are
(1, 0, +1, +1) / (1, 0, +1, -1), and T^+ R is (1, 0, -1, -1).

Applying an operator to a polynomial works over one common denominator.
Each operator, on first use, takes the monic lcm L of its term
denominators (for a shift-free operator, the highest power of x among
them) and turns every term coefficient num_i/den_i into the polynomial
multiplier num_i * L/den_i.  The image of x^j times L is then the
polynomial N_j = sum_i mult_i * d^{k_i}[(eps_i*x + delta_i)^j].
``exactnum.monomial_numerator`` forms N_j on integer numerators over one
common denominator, with one gcd: each derivative by its closed form
eps^k j!/(j-k)! (eps*x + delta)^(j-k), whose binomial coefficients are
written down, not multiplied out.  Division by the fixed L is linear, so
each N_j is divided once, N_j = Q_j L + R_j, and the pair (Q_j, R_j) is
cached on the operator per exponent j.  The image of f is sum_j f_j Q_j with
remainder sum_j f_j R_j.  When every R_j that f uses is zero, as for every
eigenoperator and every P here, applying the operator divides nothing
beyond filling the table.  A nonzero remainder sends the numerator
L * sum_j f_j Q_j + sum_j f_j R_j through ``RatFunc``, which raises
``NotPolynomial`` with the reduced leftover denominator.  That error is the
primary detector for a mistranscribed coefficient.  The tables keep each
remainder beside its quotient (a zero one is the module's one zero, since
a run keeps its operators' tables), so they stay correct when the image
of a single monomial is not a polynomial, and they are invisible to
``==`` and ``hash``.  Besides plain polynomials the module supports the
class e^{-x^2/2} * poly, which every shift-free operator here preserves
(``apply_gaussian``).  Conjugating by the Gaussian turns each d^k into
(d - x)^k (Rosenblum, "Generalized Hermite polynomials and the Bose-like
oscillator calculus", 1994), so the operator's conjugate, built once,
acts on the polynomial factor through ``apply`` and its own table.
``eigencheck`` forms its residual op(P) - lambda*P with
``exactnum.residual``, one canonical form for the result.

``build_operator`` builds each operator by its token:

=================  ============================================================
token              operator
=================  ============================================================
chihara_D          second-order Dunkl eigenoperator of the Chihara family
cbi_K              first-order shift/reflection eigenoperator of the
                   complementary Bannai-Ito family
gegenbauer_W       chihara_D at gamma = 0 (generalized Gegenbauer)
gegenbauer_Q       (1-x^2) (D^mu)^2 - 2(a+1) x D^mu, in the reflection form
dunkl_derivative   D^mu = d/dx + (mu/x)(I - R)
y_Z                eigenoperator of the extended generalized Hermite family
gh_Omega           generalized Hermite eigenoperator
gh_OmegaTilde      oscillator form -(1/2)(D^mu)^2 + x^2/2 + eps Pi_0,
                   in the reflection form, acting on e^{-x^2/2} * poly
involution_P       P = R + (gamma/x)(I - R), the algebra involution
reflection_component  Pi_gamma = (x-gamma)/(2x) (I - R) = (I - P)/2
=================  ============================================================

``EIGEN_OPERATORS`` holds each eigen-operator token as data: its parameter
names, its builder, its eigenvalue on the n-th polynomial, its polynomial
family, its default sweep cap and whether it acts on the Gaussian class.
``build_operator``, ``expected_eigenvalue``, the eigen suite and the
``eigencheck`` command all read it, so a new eigen operator is one entry.
Every shift-free operator here, the six eigen-operators, D^mu, P and the
parity projector, shares one shape, S d^2 + T d R + U d + V (I - R) + W,
and each is one ``_reflection_form`` call; only gh_OmegaTilde (W = x^2/2)
and P (V = gamma/x - 1, W = 1) have an identity term W.  Every pole of
S, T, U, V and W is at x = 0, so the builders sum them as Laurent
polynomials (x^-k is a term like any other) and ``_reflection_form`` wraps
each in one ``RatFunc``; only cbi_K, whose shift coefficients have poles
at -1 and +-1/2, sums ``RatFunc``s.  The two eigen-operators built from
D^mu reach the shape through the closed square

    (D^mu)^2 = d^2 + (2 mu/x) d - (mu/x^2)(I - R),

so no operator is composed symbolically; the tests check both against
nested application of D^mu.

The tokens with a parameter eps depend on it through the parity
projector alone (gamma = 0 for the Gegenbauer and Hermite tokens):
K(eps) = K(0) + eps Pi_gamma.  ``_with_parity`` builds each from its
coefficients at eps = 0 (``_chihara_coeffs`` and its kin), adding
eps (x - gamma)/(2x) to V, and adds eps to its eigenvalue on odd n, where
Pi_gamma acts as 1.  Pi_gamma has no derivative and the Gaussian is even,
so ``apply_gaussian`` conjugates it to itself.  cbi_K obeys the same law
in alpha with Pi_rho2, but its alpha sits inside a shifted coefficient,
so it writes the term out.

The quadratic algebra relations satisfied by (eigenoperator,
multiplication by x, P) are checked by applying both sides of each relation
to every monomial x^j up to a degree cap; all arithmetic is exact, so a
relation either holds identically on that space or fails at a specific
monomial.  ``ALGEBRAS`` holds each algebra as data: the ``EIGEN_OPERATORS``
token of K, whose parameter names are the algebra's, and a function that
takes those parameters in order and returns only the relations
``(name, lhs, rhs)``.  Each side maps a word to its coefficient; a word is
a string over K, X (times x), P and B = KX - XK that acts right to left
("KP" is f -> K(P(f)), "" the identity).  ``algebra_relations`` takes K,
built by its token, and P = ``parity_involution(gamma)`` from its caller,
so a run builds each once for its eigen checks and its algebras
(``suites.RunMemo``); it turns each side into a function on polynomials,
and ``verify_algebra`` runs one relation over the monomials and returns
the first degree where its sides differ.  A new algebra is one relations
function, which reuses ``_involution_relations``, and one ``ALGEBRAS``
entry; the CLI and the algebra suite read its names from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .exactnum import (
    LaurentPoly,
    RatFunc,
    Scalar,
    _as_fraction,
    exact_polynomial_check,
    linear_combination,
    monomial_numerator,
    poly_divmod,
    poly_exact_div,
    poly_gcd,
    residual,
)
from .families import (
    FamilySpec,
    cbi_family,
    chihara_family,
    ext_hermite_family,
    gegenbauer_family,
    gen_hermite_family,
)

X = LaurentPoly.x()
_ZERO = LaurentPoly.zero()


class UnsupportedTermForGaussianClass(ValueError):
    """Raised when a shifted term is applied to e^{-x^2/2} * poly."""


@dataclass(frozen=True, slots=True)
class OperatorTerm:
    coeff: RatFunc
    k: int
    eps: int
    delta: Fraction

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("derivative order must be nonnegative")
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")


def term(coeff, k: int = 0, eps: int = 1, delta: Scalar = 0) -> OperatorTerm:
    if not isinstance(coeff, RatFunc):
        coeff = RatFunc.from_laurent(coeff if isinstance(coeff, LaurentPoly) else LaurentPoly.const(coeff))
    return OperatorTerm(coeff, k, eps, _as_fraction(delta))


@dataclass(frozen=True)
class DunklOperator:
    terms: Tuple[OperatorTerm, ...]

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """Exact image of a polynomial; raises NotPolynomial if it is not one.

        The image is sum_j f_j Q_j, where N_j = Q_j L + R_j is L times the
        image of x^j; (Q_j, R_j) is cached per exponent j."""
        if not f.is_polynomial:
            raise ValueError("operators act on true polynomials here")
        L, multipliers = self._common
        quotients = self._quotients
        leftover = []

        def quotient(j: int) -> LaurentPoly:
            pair = quotients.get(j)
            if pair is None:
                terms = [(m, t.k, t.eps, t.delta) for t, m in zip(self.terms, multipliers)]
                pair = poly_divmod(monomial_numerator(j, terms), L)
                if pair[1].is_zero:   # a table may live as long as its run
                    pair = (pair[0], _ZERO)
                quotients[j] = pair
            if not pair[1].is_zero:
                leftover.append(j)
            return pair[0]

        image = f.map_monomials(quotient)
        if not leftover:
            return image
        remainder = f.map_monomials(lambda j: quotients[j][1])
        if remainder.is_zero:
            return image
        # a pole is left: the numerator L * image + remainder goes through
        # RatFunc, which names the leftover denominator
        return exact_polynomial_check(RatFunc(L * image + remainder, L))

    def apply_gaussian(self, f: "GaussianPoly") -> "GaussianPoly":
        """Image of e^{-x^2/2} p(x), for a polynomial p and a shift-free
        operator: the conjugate e^{x^2/2} op e^{-x^2/2} applied to p."""
        return GaussianPoly(self._conjugate.apply(f.poly))

    @cached_property
    def _conjugate(self) -> "DunklOperator":
        """e^{x^2/2} op e^{-x^2/2}.  The Gaussian is even, so x -> eps*x
        passes through it, and d/dx [e^{-x^2/2} g] = e^{-x^2/2} (d - x) g:
        each term c d^k becomes c (d - x)^k = sum_j c a_j d^j."""
        terms = []
        zero = LaurentPoly.zero()
        for t in self.terms:
            if t.delta != 0:
                raise UnsupportedTermForGaussianClass(
                    f"shift delta={t.delta} leaves the class e^(-x^2/2)*poly"
                )
            a = [LaurentPoly.one()]
            for _ in range(t.k):
                # (d - x) sum_j a_j d^j = sum_j (a_j' - x a_j + a_(j-1)) d^j
                a = [p.derivative() - X * p + q for p, q in zip(a + [zero], [zero] + a)]
            terms += [OperatorTerm(t.coeff * a[j], j, t.eps, t.delta)
                      for j in reversed(range(t.k + 1))]
        return _merge(terms)

    @cached_property
    def _common(self) -> Tuple[LaurentPoly, Tuple[LaurentPoly, ...]]:
        """The lcm L of the term denominators and the multipliers num_i L/den_i.
        When every denominator is a power of x, as for every shift-free
        operator here, L is the highest and no division is needed."""
        dens = [t.coeff.den for t in self.terms]
        powers = [d.degree for d in dens]
        if all(d == LaurentPoly.monomial(k) for d, k in zip(dens, powers)):
            top = max(powers, default=0)
            return LaurentPoly.monomial(top), tuple(
                t.coeff.num * LaurentPoly.monomial(top - k) for t, k in zip(self.terms, powers))
        L = LaurentPoly.one()
        for den in dens:
            L = L * poly_exact_div(den, poly_gcd(L, den))
        return L, tuple(t.coeff.num * poly_exact_div(L, d) for t, d in zip(self.terms, dens))

    @cached_property
    def _quotients(self) -> Dict[int, Tuple[LaurentPoly, LaurentPoly]]:
        return {}

    def __add__(self, other: "DunklOperator") -> "DunklOperator":
        return _merge(self.terms + other.terms)


def _merge(terms: Sequence[OperatorTerm]) -> DunklOperator:
    buckets: Dict[Tuple[int, int, Fraction], RatFunc] = {}
    order: List[Tuple[int, int, Fraction]] = []
    for t in terms:
        key = (t.k, t.eps, t.delta)
        if key not in buckets:
            buckets[key] = t.coeff
            order.append(key)
        else:
            buckets[key] = buckets[key] + t.coeff
    kept = tuple(
        OperatorTerm(buckets[k], k[0], k[1], k[2]) for k in order if not buckets[k].is_zero
    )
    return DunklOperator(kept)


@dataclass(frozen=True)
class GaussianPoly:
    """A function e^{-x^2/2} * poly, closed under the shift-free operators."""

    poly: LaurentPoly

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero


# -- operator builders ---------------------------------------------------------


def _over_x(p: LaurentPoly | Scalar, k: int, c: int = 1) -> LaurentPoly:
    """p / (c x^k), a Laurent polynomial for every k."""
    return LaurentPoly.monomial(-k, Fraction(1, c)) * p


def _projector(gamma: Fraction) -> LaurentPoly:
    """(x - gamma)/(2x), the V of Pi_gamma = (x - gamma)/(2x) (I - R)."""
    return _over_x(X - gamma, 1, 2)


def _reflection_form(S: LaurentPoly, T: LaurentPoly, U: LaurentPoly,
                     V: LaurentPoly, W: LaurentPoly = _ZERO) -> DunklOperator:
    """S d^2 + T d R + U d + V (I - R) + W, the shape of every shift-free
    operator here.  Its coefficients are Laurent polynomials, since every
    pole is at x = 0; each becomes one ``RatFunc``, the identity term W
    joins the I part of V (I - R), and a zero coefficient drops its term."""
    zero = Fraction(0)
    return _merge((OperatorTerm(RatFunc.from_laurent(S), 2, 1, zero),
                   OperatorTerm(RatFunc.from_laurent(T), 1, -1, zero),
                   OperatorTerm(RatFunc.from_laurent(U), 1, 1, zero),
                   OperatorTerm(RatFunc.from_laurent(V + W), 0, 1, zero),
                   OperatorTerm(RatFunc.from_laurent(-V), 0, -1, zero)))


def _chihara_coeffs(alpha: Fraction, beta: Fraction, gamma: Fraction):
    r = X * X - gamma**2      # x^2 - gamma^2
    r1 = r - 1                # x^2 - gamma^2 - 1
    gr1 = r1 * gamma
    w = r * (alpha + beta + Fraction(3, 2)) - (alpha + Fraction(1, 2))
    S = _over_x(r * r1, 2, 4)
    T = _over_x(gr1 * (X - gamma), 3, 4)
    U = _over_x(gr1 * (2 * gamma - X), 3, 4) + _over_x(w, 1, 2)
    V = _over_x(gr1 * (X - Fraction(3, 2) * gamma), 4, 4) - _over_x(w, 2, 4)
    return S, T, U, V, _ZERO


def _ext_hermite_coeffs(mu: Fraction, gamma: Fraction):
    mg = mu + gamma**2
    S = _over_x(gamma**2 - X * X, 2, 4)
    T = _over_x(gamma * (gamma - X), 3, 4)
    U = X / 2 + _over_x(gamma, 2, 4) - _over_x(gamma**2, 3, 2) - _over_x(mg, 1, 2)
    V = _over_x(3 * gamma**2, 4, 8) - _over_x(gamma, 3, 4) + _over_x(mg, 2, 4) - Fraction(1, 4)
    return S, T, U, V, _ZERO


def _gen_hermite_coeffs(mu: Fraction):
    S = LaurentPoly.const(Fraction(-1, 2))
    return S, _ZERO, _over_x(X * X - mu, 1), _over_x(mu, 2, 2) - Fraction(1, 2), _ZERO


def _oscillator_coeffs(mu: Fraction):
    # -(1/2)(D^mu)^2 by its closed square, and the identity term W = x^2/2
    S = LaurentPoly.const(Fraction(-1, 2))
    return S, _ZERO, _over_x(-mu, 1), _over_x(mu, 2, 2), X * X / 2


def cbi_eigenop(rho1: Scalar, rho2: Scalar, r1: Scalar, r2: Scalar, alpha: Scalar) -> DunklOperator:
    """The one builder with poles off x = 0 (at -1 and +-1/2), so its
    coefficients are ``RatFunc`` sums."""
    rho1, rho2, r1, r2 = map(_as_fraction, (rho1, rho2, r1, r2))
    alpha = _as_fraction(alpha)
    h = Fraction(1, 2)
    A = RatFunc.of(
        (X + rho1 + 1) * (X + rho2 + 1) * (X - r1 + h) * (X - r2 + h),
        2 * (X + 1) * (2 * X + 1),
    )
    B = RatFunc.of(
        (X - rho1 - 1) * (X - rho2) * (X + r1 - h) * (X + r2 - h),
        2 * X * (2 * X - 1),
    )
    C = RatFunc.of(
        (X + rho1 + 1) * (X - rho2) * (X - r1 + h) * (X - r2 + h),
        2 * X * (2 * X + 1),
    ) + RatFunc.of((alpha - X * X) * (X - rho2), 2 * X)
    D = RatFunc.of(
        rho2 * (X + rho1 + 1) * (X - r1 + h) * (X - r2 + h),
        2 * X * (X + 1) * (2 * X + 1),
    )
    zero = Fraction(0)
    return _merge(
        (
            OperatorTerm(A, 0, 1, Fraction(1)),      # A T^+
            OperatorTerm(B, 0, 1, Fraction(-1)),     # B T^-
            OperatorTerm(D, 0, -1, Fraction(-1)),    # D T^+ R
            OperatorTerm(C - A - D, 0, 1, zero),     # (C - A - D) I
            OperatorTerm(-(B + C), 0, -1, zero),     # -(B + C) R
        )
    )


def dunkl_derivative(mu: Scalar) -> DunklOperator:
    """D^mu = d/dx + (mu/x)(I - R)."""
    return _reflection_form(_ZERO, _ZERO, LaurentPoly.one(), _over_x(_as_fraction(mu), 1))


def gegenbauer_dunkl_square(mu: Scalar, a: Scalar) -> DunklOperator:
    """(1 - x^2)(D^mu)^2 - 2(a+1) x D^mu in the reflection form, with
    (D^mu)^2 written out by its closed square (module docstring)."""
    mu, a = _as_fraction(mu), _as_fraction(a)
    w = 1 - X * X
    return _reflection_form(w, _ZERO, _over_x(2 * mu * w - 2 * (a + 1) * X * X, 1),
                            _over_x(-mu * w - 2 * (a + 1) * mu * X * X, 2))


def parity_involution(gamma: Scalar) -> DunklOperator:
    """P = R + (gamma/x)(I - R) = I - 2 Pi_gamma."""
    return _reflection_form(_ZERO, _ZERO, _ZERO, -2 * _projector(_as_fraction(gamma)),
                            LaurentPoly.one())


def reflection_component(gamma: Scalar) -> DunklOperator:
    """Pi_gamma = (x - gamma)/(2x) (I - R) = (I - P)/2."""
    return _reflection_form(_ZERO, _ZERO, _ZERO, _projector(_as_fraction(gamma)))


# -- the eigen-operator table -----------------------------------------------------


class EigenOperator(NamedTuple):
    """An eigen-operator token: its parameter names; its builder, which takes
    them by name; its eigenvalue on P_n as ``eigenvalue(m, odd, params)``
    with n = 2m + odd (both by ``_with_parity`` for a token with eps); its
    family; its default sweep cap; and whether it acts on e^(-x^2/2) * poly."""

    params: Tuple[str, ...]
    build: Callable[..., DunklOperator]
    eigenvalue: Callable[[int, int, Mapping[str, Fraction]], Fraction]
    family: Callable[[Mapping[str, Fraction]], FamilySpec]
    cap: int
    gaussian: bool = False


def _with_parity(coeffs: Callable[..., Tuple[LaurentPoly, ...]],
                 eigenvalue: Callable[[int, int, Mapping[str, Fraction]], Fraction]):
    """Builder and eigenvalue of K(eps) = K(0) + eps Pi_gamma, from K(0)'s
    (S, T, U, V, W) and eigenvalue; gamma is the parameter of that name, else 0."""

    def build(eps: Fraction, **params: Fraction) -> DunklOperator:
        S, T, U, V, W = coeffs(**params)
        return _reflection_form(S, T, U, V + eps * _projector(params.get("gamma", 0)), W)

    def eigen(m: int, odd: int, p: Mapping[str, Fraction]) -> Fraction:
        lam = eigenvalue(m, odd, p)
        return lam + p["eps"] if odd else lam

    return build, eigen


def _chihara_eigenvalue(m: int, odd: int, p: Mapping[str, Fraction]) -> Fraction:
    s = p["alpha"] + p["beta"]
    return m * (m + s + 2) if odd else m * (m + s + 1)


def _cbi_eigenvalue(m: int, odd: int, p: Mapping[str, Fraction]) -> Fraction:
    g = p["rho1"] + p["rho2"] - p["r1"] - p["r2"]
    if not odd:
        return m * (m + g + 1)
    omega = (
        p["rho1"] * (1 - p["r1"] - p["r2"])
        + p["r1"] * p["r2"]
        - Fraction(3, 2) * (p["r1"] + p["r2"])
        + Fraction(5, 4)
    )
    return m * (m + g + 2) + omega + p["alpha"]


def _gegenbauer_q_eigenvalue(m: int, odd: int, p: Mapping[str, Fraction]) -> Fraction:
    mu, a = p["mu"], p["a"]
    if odd:
        return -(2 * m + 2 * mu + 1) * (2 * m + 2 * a + 2)
    return -2 * m * (2 * m + 2 * a + 2 * mu + 1)


EIGEN_OPERATORS: Dict[str, EigenOperator] = {
    "chihara_D": EigenOperator(
        ("alpha", "beta", "gamma", "eps"), *_with_parity(_chihara_coeffs, _chihara_eigenvalue),
        lambda p: chihara_family(p["alpha"], p["beta"], p["gamma"]), 16),
    "cbi_K": EigenOperator(
        ("rho1", "rho2", "r1", "r2", "alpha"), cbi_eigenop, _cbi_eigenvalue,
        lambda p: cbi_family(p["rho1"], p["rho2"], p["r1"], p["r2"]), 12),
    # chihara_D at gamma = 0 (generalized Gegenbauer)
    "gegenbauer_W": EigenOperator(
        ("alpha", "beta", "eps"),
        *_with_parity(partial(_chihara_coeffs, gamma=Fraction(0)), _chihara_eigenvalue),
        lambda p: gegenbauer_family(p["alpha"], p["beta"]), 16),
    "gegenbauer_Q": EigenOperator(
        ("mu", "a"), gegenbauer_dunkl_square, _gegenbauer_q_eigenvalue,
        lambda p: gegenbauer_family(p["mu"] - Fraction(1, 2), p["a"]), 16),
    "y_Z": EigenOperator(
        ("mu", "gamma", "eps"),
        *_with_parity(_ext_hermite_coeffs, lambda m, odd, p: m * Fraction(1)),
        lambda p: ext_hermite_family(p["mu"], p["gamma"]), 16),
    "gh_Omega": EigenOperator(
        ("mu", "eps"), *_with_parity(_gen_hermite_coeffs, lambda m, odd, p: 2 * m * Fraction(1)),
        lambda p: gen_hermite_family(p["mu"]), 16),
    "gh_OmegaTilde": EigenOperator(
        ("mu", "eps"),
        *_with_parity(_oscillator_coeffs, lambda m, odd, p: 2 * m + odd + p["mu"] + Fraction(1, 2)),
        lambda p: gen_hermite_family(p["mu"]), 12, gaussian=True),
}

# Every token build_operator knows; each builder takes the token's
# parameters by name.
_BUILDERS: Dict[str, Callable[..., DunklOperator]] = {
    **{token: op.build for token, op in EIGEN_OPERATORS.items()},
    "dunkl_derivative": dunkl_derivative,
    "involution_P": parity_involution,
    "reflection_component": reflection_component,
}

OPERATOR_TOKENS = tuple(sorted(_BUILDERS))


def build_operator(which: str, **params: Scalar) -> DunklOperator:
    """Build a named operator; ``which`` is one of OPERATOR_TOKENS."""
    if which not in _BUILDERS:
        raise ValueError(f"unknown operator {which!r}; know {OPERATOR_TOKENS}")
    return _BUILDERS[which](**{k: _as_fraction(v) for k, v in params.items()})


def expected_eigenvalue(which: str, n: int, **params: Scalar) -> Fraction:
    """Eigenvalue on the n-th family polynomial, from ``EIGEN_OPERATORS``."""
    if which not in EIGEN_OPERATORS:
        raise ValueError(f"{which} has no eigenvalue table")
    p = {k: _as_fraction(v) for k, v in params.items()}
    return EIGEN_OPERATORS[which].eigenvalue(*divmod(n, 2), p)


def eigencheck(op: DunklOperator, vec, eigenvalue: Scalar):
    """Residual op(vec) - eigenvalue*vec, exact; zero residual means pass."""
    lam = _as_fraction(eigenvalue)
    if isinstance(vec, GaussianPoly):
        return GaussianPoly(residual(op.apply_gaussian(vec).poly, vec.poly, lam))
    return residual(op.apply(vec), vec, lam)


# -- quadratic algebra relations ------------------------------------------------


Applier = Callable[[LaurentPoly], LaurentPoly]
Combination = Dict[str, Scalar]  # word over K, X, P, B -> coefficient
Relation = Tuple[str, Combination, Combination]  # (name, lhs, rhs)


class Algebra(NamedTuple):
    """The ``EIGEN_OPERATORS`` token of the eigenoperator K, and a function
    that takes K's parameters in order and returns the relations."""

    operator: str
    relations: Callable[..., List[Relation]]

    @property
    def params(self) -> Tuple[str, ...]:
        return EIGEN_OPERATORS[self.operator].params


def _involution_relations(gamma: Fraction) -> List[Relation]:
    """The relations of P = R + (gamma/x)(I - R) with K, X and B, which
    every algebra here shares."""
    return [
        ("involution-squares-to-identity", {"PP": 1}, {"": 1}),
        ("eigenop-commutes-with-involution", {"KP": 1}, {"PK": 1}),
        ("position-anticommutes-with-involution", {"XP": 1, "PX": 1}, {"": 2 * gamma}),
        ("bracket-anticommutes-with-involution", {"BP": 1, "PB": 1}, {}),
    ]


def _chihara_relations(alpha: Fraction, beta: Fraction, gamma: Fraction, eps: Fraction):
    d1 = eps * (alpha + beta + 1 - eps)
    d2 = alpha + beta + Fraction(3, 2) - 2 * eps
    d3 = gamma
    d4 = (gamma**2 + 1) / 2
    d5 = gamma**2 * d2 + alpha + Fraction(1, 2)
    half = Fraction(1, 2)
    return _involution_relations(d3) + [
        ("bracket-position-commutator", {"BX": 1, "XB": -1},
         {"XX": half, "XXP": d2, "BP": 2 * d3, "P": -d5, "": -d4}),
        ("eigenop-bracket-commutator", {"KB": 1, "BK": -1},
         {"KX": half, "XK": half, "BP": -d2, "KP": -d3, "X": d1, "P": -d1 * d3}),
    ]


def _ext_hermite_relations(mu: Fraction, gamma: Fraction, eps: Fraction):
    # The coefficients of the last two relations are the unique exact fit
    # over Q of these words to the images of the monomials x^j: the linear
    # system has full rank.  The P-coefficients gamma^2(1-2eps)+mu and
    # gamma*eps*(1-eps) follow the gamma != 0 pattern of the chihara algebra.
    return _involution_relations(gamma) + [
        ("position-bracket-commutator", {"XB": 1, "BX": -1},
         {"XXP": 2 * eps - 1, "BP": -2 * gamma, "P": gamma**2 * (1 - 2 * eps) + mu,
          "": Fraction(1, 2)}),
        ("bracket-eigenop-commutator", {"BK": 1, "KB": -1},
         {"BP": 1 - 2 * eps, "X": eps * (eps - 1), "P": gamma * eps * (1 - eps)}),
    ]


ALGEBRAS: Dict[str, Algebra] = {
    "chihara": Algebra("chihara_D", _chihara_relations),
    "ext_hermite": Algebra("y_Z", _ext_hermite_relations),
}


def _evaluate(letters: Dict[str, Applier], combination: Combination, f: LaurentPoly) -> LaurentPoly:
    """The sum of c * word(f) over the combination, in its order."""
    return linear_combination(
        (c, reduce(lambda g, letter: letters[letter](g), reversed(word), f))
        for word, c in combination.items())


def _letters(K: DunklOperator, P: DunklOperator) -> Dict[str, Applier]:
    """The letters over one fresh memo: K, P and B keep their images per
    input, so each is applied once per input while the memo lives."""
    k = cache(K.apply)
    return {
        "K": k,
        "X": lambda f: X * f,
        "P": cache(P.apply),
        "B": cache(lambda f: k(X * f) - X * k(f)),
    }


def algebra_relations(which: str, K: DunklOperator, P: DunklOperator,
                      **params: Scalar) -> List[Tuple[str, Applier, Applier]]:
    """The relations of ``ALGEBRAS[which]`` as ``(name, lhs, rhs)``, each
    side a function on polynomials.

    ``K`` is the algebra's eigenoperator, built by the token
    ``ALGEBRAS[which].operator`` at ``params``, and ``P`` is
    ``parity_involution(gamma)``; the caller builds them, so one run can
    share them with its eigen checks.
    ``params`` holds the algebra's parameters by name.  Both sides are
    evaluated by nested application, never by symbolic multiplication, so
    the check is an independent route onto the stated structure constants.
    The sides of all relations share one memo of images: K, P and B are
    each applied at most once per distinct input while the returned
    functions live, and K and P fill their monomial quotient tables once.
    A relation checked first makes the images that the later ones reuse.
    No image carries over into the next call; the quotient tables live on
    K and P.
    """
    if which not in ALGEBRAS:
        raise ValueError(f"no algebra table for {which!r}")
    spec = ALGEBRAS[which]
    p = {n: _as_fraction(params[n]) for n in spec.params}
    letters = _letters(K, P)
    return [(name, partial(_evaluate, letters, lhs), partial(_evaluate, letters, rhs))
            for name, lhs, rhs in spec.relations(*p.values())]


def verify_algebra(lhs: Applier, rhs: Applier, degree_cap: int) -> Optional[int]:
    """The first degree j <= ``degree_cap`` with lhs(x^j) != rhs(x^j), or
    None when the relation holds on every monomial up to the cap."""
    for j in range(degree_cap + 1):
        mono = LaurentPoly.monomial(j)
        if lhs(mono) != rhs(mono):
            return j
    return None
