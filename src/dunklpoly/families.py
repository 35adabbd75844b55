"""Polynomial families: recurrences, reduced weights and explicit forms.

Every family is presented in monic normalized form and generated two
independent ways:

* through the three-term recurrence
  ``P_{n+1} = (x - diag(n)) P_n - sub(n) P_{n-1}``, each step one call of
  ``exactnum.three_term_step`` on the integer numerators of P_n and
  P_{n-1}, with one gcd per new polynomial.  ``monic_list`` is this one
  loop for any coefficient source: a family (``generate_monic``), a
  ``CLASSICAL`` recurrence in t, or the kernel recurrence of
  ``transforms``; and
* where a terminating hypergeometric expression exists, through
  ``explicit_poly``: exact Pochhammer prefactors times a series summed by
  its term ratio.

Agreement of the two routes, coefficient by coefficient over the rationals,
is the construction-equivalence check of the acceptance suite.

The families are the entries of one table, ``FAMILIES``.  A weighted
family's entry holds ``reduced(p)``, the classical weight of its even half:
both halves are monic classical polynomials in t = x^2 - gamma^2 (gamma = 0
where the family has none), P_2m = R_m^(a,b)(t) and P_2m+1 =
(x - gamma) R_m^(a+1,b)(t), with R the Jacobi polynomial for t^a (1-t)^b on
[0, 1], (a, b) = (alpha, beta), for chihara and gegenbauer, and the Laguerre
polynomial for t^a e^(-t), a = mu - 1/2, for the two Hermite families
(Chihara, *An Introduction to Orthogonal Polynomials*, 1978, ch. I; Koekoek,
Lesky and Swarttouw 2010, §§9.8, 9.12).  The entry also holds the family's
float pointwise ``weight`` and its ``support`` text.  Each reduced kind is
an entry of ``CLASSICAL``, keyed by its tag: its formulas in t and whether
its support is finite.  ``quad`` reads both tables and compares no kind.

Families carried here:

* ``chihara``        -- alpha, beta, gamma; two-interval Jacobi-type weight.
* ``gegenbauer``     -- generalized Gegenbauer, the gamma = 0 specialization.
* ``cbi``            -- complementary Bannai-Ito, rho1, rho2, r1, r2.
* ``ext_hermite``    -- one-parameter extension of generalized Hermite
                        (mu, gamma); Laguerre-type weight.
* ``gen_hermite``    -- generalized Hermite, the gamma = 0 specialization.
* ``big_m1_jacobi``  -- big -1 Jacobi, a, b, c; defined through its
                        recurrence (its kernel partners live in transforms).
* ``big_q_jacobi``   -- big q-Jacobi at exact rational q, the q -> -1
                        parent family used by the limits module.

Parameter degeneracies (vanishing recurrence denominators, vanishing
denominator Pochhammers) raise ``DegenerateParameters`` lazily at the first
offending index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .exactnum import BigRational, LaurentPoly, Scalar, _as_fraction, three_term_step
from .report import format_params

PolyOrScalar = Union[LaurentPoly, BigRational, int]


class DegenerateParameters(ValueError):
    """A recurrence or series denominator vanished for the given parameters."""


@dataclass(frozen=True)
class FamilySpec:
    """A named family at given parameters; its ``FAMILIES`` entry holds its
    formulas, evaluated at exact rational parameters for every check and at
    float parameters for the source families of ``limits``."""

    name: str
    params: Tuple[Tuple[str, Fraction], ...]

    @cached_property
    def p(self) -> Dict[str, Fraction]:
        """The parameters by name, built once per spec."""
        return dict(self.params)

    def diag(self, n: int) -> Fraction:
        try:
            return FAMILIES[self.name].diag(self.p, n)
        except ZeroDivisionError:
            raise DegenerateParameters(f"{self.name} diag({n}) denominator vanishes") from None

    def sub(self, n: int) -> Fraction:
        if n == 0:
            # multiplies P_{-1} = 0; value is conventional
            return Fraction(0)
        try:
            return FAMILIES[self.name].sub(self.p, n)
        except ZeroDivisionError:
            raise DegenerateParameters(f"{self.name} sub({n}) denominator vanishes") from None

    def label(self) -> str:
        return format_params(self.params)


def _params(**kwargs: Scalar) -> Tuple[Tuple[str, Fraction], ...]:
    return tuple((k, _as_fraction(v)) for k, v in kwargs.items())


def chihara_family(alpha: Scalar, beta: Scalar, gamma: Scalar) -> FamilySpec:
    return FamilySpec("chihara", _params(alpha=alpha, beta=beta, gamma=gamma))


def gegenbauer_family(alpha: Scalar, beta: Scalar) -> FamilySpec:
    return FamilySpec("gegenbauer", _params(alpha=alpha, beta=beta))


def cbi_family(rho1: Scalar, rho2: Scalar, r1: Scalar, r2: Scalar) -> FamilySpec:
    return FamilySpec("cbi", _params(rho1=rho1, rho2=rho2, r1=r1, r2=r2))


def ext_hermite_family(mu: Scalar, gamma: Scalar) -> FamilySpec:
    return FamilySpec("ext_hermite", _params(mu=mu, gamma=gamma))


def gen_hermite_family(mu: Scalar) -> FamilySpec:
    return FamilySpec("gen_hermite", _params(mu=mu))


def big_m1_jacobi_family(a: Scalar, b: Scalar, c: Scalar) -> FamilySpec:
    return FamilySpec("big_m1_jacobi", _params(a=a, b=b, c=c))


def big_q_jacobi_family(qalpha: Scalar, qbeta: Scalar, qgamma: Scalar, q: Scalar) -> FamilySpec:
    q = _as_fraction(q)
    if q in (Fraction(0), Fraction(1), Fraction(-1)):
        raise DegenerateParameters("big_q_jacobi requires q outside {0, 1, -1}")
    return FamilySpec("big_q_jacobi", _params(qalpha=qalpha, qbeta=qbeta, qgamma=qgamma, q=q))


# -- recurrence coefficients -------------------------------------------------


def _chihara_sigma(p: Dict[str, Fraction], n: int) -> Fraction:
    alpha, beta = p["alpha"], p["beta"]
    m = n // 2
    if n % 2 == 0:
        return Fraction(m) * (m + beta) / ((2 * m + alpha + beta) * (2 * m + alpha + beta + 1))
    if m == 0 and alpha + beta + 1 == 0:
        # the alpha + beta + 1 factors cancel, here as 0/0; elsewhere the
        # uncancelled form stays, since float limit sources must keep its bits
        return (alpha + 1) / (alpha + beta + 2)
    return (m + alpha + 1) * (m + alpha + beta + 1) / (
        (2 * m + alpha + beta + 1) * (2 * m + alpha + beta + 2)
    )


def _cbi_tau(p: Dict[str, Fraction], n: int) -> Fraction:
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


def _ext_hermite_theta(p: Dict[str, Fraction], n: int) -> Fraction:
    mu = p["mu"]
    m = n // 2
    return Fraction(m) if n % 2 == 0 else m + mu + Fraction(1, 2)


def big_m1_jacobi_AC(p: Dict[str, Fraction], n: int) -> Tuple[Fraction, Fraction]:
    """Christoffel split coefficients A_n, C_n of the big -1 Jacobi family."""
    a, b, c = p["a"], p["b"], p["c"]
    if n % 2 == 0:
        A = (1 + c) * (a + n + 1) / (2 * n + a + b + 2)
        C = (1 - c) * Fraction(n) / (2 * n + a + b)
    else:
        A = (1 - c) * (n + a + b + 1) / (2 * n + a + b + 2)
        C = (1 + c) * (n + b) / (2 * n + a + b)
    return A, C


def big_q_jacobi_AC(p: Dict[str, Fraction], n: int) -> Tuple[Fraction, Fraction]:
    """Recurrence split coefficients (upsilon_n, nu_n) of big q-Jacobi."""
    al, be, ga, q = p["qalpha"], p["qbeta"], p["qgamma"], p["q"]
    qn = q**n
    ups = (1 - al * qn * q) * (1 - al * be * qn * q) * (1 - ga * qn * q) / (
        (1 - al * be * qn * qn * q) * (1 - al * be * qn * qn * q * q)
    )
    nu = -al * ga * qn * q * (1 - qn) * (1 - al * be * qn / ga) * (1 - be * qn) / (
        (1 - al * be * qn * qn) * (1 - al * be * qn * qn * q)
    )
    return ups, nu


# -- classical weights in t ----------------------------------------------------


def _jacobi01_recurrence(a: Fraction, b: Fraction, k: int) -> Tuple[Fraction, Fraction]:
    """Monic recurrence (diag, sub) for the weight t^a (1-t)^b on [0, 1].

    Raises ``ZeroDivisionError`` where a denominator vanishes.
    """
    if k == 0:
        return (a + 1) / (a + b + 2), Fraction(0)
    s = 2 * k + a + b
    q = s * (s + 2)
    diag = (q + a * a - b * b) / (2 * q)
    if k == 1:
        # k + a + b cancels against s - 1, which is 0 at a + b = -1
        return diag, (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
    return diag, k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1))


def _beta_function(a: Fraction, b: Fraction) -> float:
    """B(a+1, b+1) = Gamma(a+1) Gamma(b+1) / Gamma(a+b+2) in float: the Gamma
    product, or through ``lgamma`` where a Gamma value leaves the double range."""
    a, b = float(a), float(b)
    try:
        return math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
    except OverflowError:
        return math.exp(math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2))


def _jacobi_norm_ratio(alpha: Fraction, beta: Fraction, n: int) -> Fraction:
    """<P_n, P_n> / <P_(n-1), P_(n-1)> of a family reduced to t^alpha (1-t)^beta.

    The Gamma ratios of the closed-form constants cancel into Pochhammer
    products, telescoped: (a)_m / (a+1)_m = a / (a+m) and (a)_(m-1) / (a)_m
    = 1 / (a+m-1) with a = m + alpha + beta + 1.  Where a Pochhammer factor
    vanishes (alpha + beta an integer in [-(n+1), -(m+1)], outside every
    integrable weight) it raises ``ZeroDivisionError``, as the products do.
    """
    m = n // 2
    s = alpha + beta
    if n == 1 and s + 1 == 0:
        # the alpha + beta + 1 factors cancel (Chebyshev-type weights)
        return (alpha + 1) / (alpha + beta + 2)
    if s.denominator == 1 and -(n + 1) <= s <= -(m + 1):
        raise ZeroDivisionError(f"norm ratio {n} has a zero Pochhammer factor")
    if n % 2 == 1:
        # (m+alpha+1)/(m+s+1) * (2m+s+1)/(2m+s+2) * ((m+s+1)/(2m+s+1))^2
        return (m + alpha + 1) * (m + s + 1) / ((2 * m + s + 1) * (2 * m + s + 2))
    # m (m+beta) (2m+s)/(2m+s+1) * (1/(2m+s))^2
    return Fraction(m) * (m + beta) / ((2 * m + s) * (2 * m + s + 1))


class Classical(NamedTuple):
    """A classical weight in t.  Each formula takes the exact parameters
    named in ``params``, then an index: the monic recurrence (diag, sub),
    mu_j / mu_(j-1), the float mu_0 (no index), R_m's upper series
    parameters beyond -m, and the closed-form norm ratio of a family
    reduced to it.  ``finite`` tells a bounded support."""

    params: Tuple[str, ...]
    recurrence: Callable[..., Tuple[Fraction, Fraction]]
    moment_ratio: Callable[..., Fraction]
    zeroth_moment: Callable[..., float]
    upper: Callable[..., List[Fraction]]
    norm_ratio: Callable[..., Fraction]
    finite: bool


#: The classical weights in t, keyed by the tag of a reduced weight class.
CLASSICAL: Dict[str, Classical] = {
    # t^a (1-t)^b on [0, 1]
    "jacobi": Classical(
        ("a", "b"), _jacobi01_recurrence, lambda a, b, j: (a + j) / (a + b + j + 1),
        _beta_function, lambda a, b, m: [m + a + b + 1], _jacobi_norm_ratio, True),
    # t^a e^(-t) on [0, inf); the norm ratio is Gamma(m+a+2)/Gamma(m+a+1)
    # at odd n and m!/(m-1)! at even n
    "generalized_laguerre": Classical(
        ("a",), lambda a, k: (2 * k + a + 1, Fraction(k) * (k + a)), lambda a, j: a + j,
        lambda a: math.gamma(float(a) + 1), lambda a, m: [],
        lambda a, n: n // 2 + a + 1 if n % 2 == 1 else Fraction(n // 2), False),
}


# -- explicit forms and the family table ---------------------------------------


def _jacobi_reduced(p: Mapping[str, Fraction]) -> Tuple:
    return ("jacobi", p["alpha"], p["beta"])


def _laguerre_reduced(p: Mapping[str, Fraction]) -> Tuple:
    return ("generalized_laguerre", p["mu"] - Fraction(1, 2))


def _chihara_weight(p: Mapping[str, float]) -> Callable[[float], float]:
    g, a, b = p["gamma"], p["alpha"], p["beta"]
    return lambda x: (
        math.copysign(1.0, x) * (x + g) * (x * x - g * g) ** a * (1 + g * g - x * x) ** b
    )


def _gegenbauer_weight(p: Mapping[str, float]) -> Callable[[float], float]:
    e, b = 2 * p["alpha"] + 1, p["beta"]
    return lambda x: abs(x) ** e * (1 - x * x) ** b


def _ext_hermite_weight(p: Mapping[str, float]) -> Callable[[float], float]:
    g, e = p["gamma"], p["mu"] - 0.5
    return lambda x: math.copysign(1.0, x) * (x + g) * (x * x - g * g) ** e * math.exp(-x * x)


def _gen_hermite_weight(p: Mapping[str, float]) -> Callable[[float], float]:
    e = 2 * p["mu"]
    return lambda x: abs(x) ** e * math.exp(-x * x)


def _cbi_series(p: Mapping[str, Fraction], m: int, odd: int) -> Tuple:
    """The complementary Bannai-Ito 4F3 at argument 1, with root rho2."""
    rho1, rho2, r1, r2 = p["rho1"], p["rho2"], p["r1"], p["r2"]
    g = rho1 + rho2 - r1 - r2
    h = Fraction(1, 2) + odd
    x = LaurentPoly.x()
    dens = [rho1 + rho2 + 1 + odd, rho2 - r1 + h, rho2 - r2 + h]
    num = pochhammer(dens[0], m) * pochhammer(dens[1], m) * pochhammer(dens[2], m)
    upper = [Fraction(-m), m + g + 1 + odd, x + rho2 + odd, -x + rho2 + odd]
    return num, pochhammer(m + g + 1 + odd, m), upper, dens, LaurentPoly.one(), rho2


class Family(NamedTuple):
    """A builder taking the parameters in ``params`` order, the recurrence
    ``diag(p, n)`` and ``sub(p, n)``, and the explicit form: a ``reduced(p)``
    weight, or an own ``series(p, m, odd)`` for P_(2m+odd) as (prefactor
    numerator and denominator, upper and lower parameters, argument, root).
    A weighted family has a ``weight`` factory of float parameters and a
    ``support`` text."""

    build: Callable[..., FamilySpec]
    params: Tuple[str, ...]
    diag: Callable[[Mapping[str, Fraction], int], Fraction]
    sub: Callable[[Mapping[str, Fraction], int], Fraction]
    reduced: Optional[Callable[[Mapping[str, Fraction]], Tuple]] = None
    weight: Optional[Callable[[Mapping[str, float]], Callable[[float], float]]] = None
    support: Optional[str] = None
    series: Optional[Callable[[Mapping[str, Fraction], int, int], Tuple]] = None


#: The family registry, keyed by family name.
FAMILIES: Dict[str, Family] = {
    "chihara": Family(chihara_family, ("alpha", "beta", "gamma"),
                      lambda p, n: (-1) ** n * p["gamma"], _chihara_sigma, _jacobi_reduced,
                      _chihara_weight,
                      "[-sqrt(1+gamma^2), -|gamma|] U [|gamma|, sqrt(1+gamma^2)]"),
    "gegenbauer": Family(gegenbauer_family, ("alpha", "beta"),
                         lambda p, n: Fraction(0), _chihara_sigma, _jacobi_reduced,
                         _gegenbauer_weight, "[-1, 1]"),
    "ext_hermite": Family(ext_hermite_family, ("mu", "gamma"),
                          lambda p, n: (-1) ** n * p["gamma"], _ext_hermite_theta, _laguerre_reduced,
                          _ext_hermite_weight, "(-inf, -|gamma|] U [|gamma|, inf)"),
    "gen_hermite": Family(gen_hermite_family, ("mu",),
                          lambda p, n: Fraction(0), _ext_hermite_theta, _laguerre_reduced,
                          _gen_hermite_weight, "(-inf, inf)"),
    "cbi": Family(cbi_family, ("rho1", "rho2", "r1", "r2"),
                  lambda p, n: (-1) ** n * p["rho2"], _cbi_tau, series=_cbi_series),
    "big_m1_jacobi": Family(
        big_m1_jacobi_family, ("a", "b", "c"), lambda p, n: 1 - sum(big_m1_jacobi_AC(p, n)),
        lambda p, n: big_m1_jacobi_AC(p, n - 1)[0] * big_m1_jacobi_AC(p, n)[1]),
    "big_q_jacobi": Family(
        big_q_jacobi_family, ("qalpha", "qbeta", "qgamma", "q"),
        lambda p, n: 1 - sum(big_q_jacobi_AC(p, n)),
        lambda p, n: big_q_jacobi_AC(p, n - 1)[0] * big_q_jacobi_AC(p, n)[1]),
}


def recurrence_coeffs(family: FamilySpec, n: int) -> Tuple[Fraction, Fraction]:
    """Exact (diag, sub) pair of the monic three-term recurrence at index n."""
    return family.diag(n), family.sub(n)


def monic_list(pair: Callable[[int], Tuple[Fraction, Fraction]], N: int) -> List[LaurentPoly]:
    """P_0 .. P_N of the monic recurrence whose (diag, sub) at n is ``pair(n)``;
    every entry monic of degree n."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    polys = [LaurentPoly.zero(), LaurentPoly.one()]   # P_{-1}, P_0
    for n in range(N):
        polys.append(three_term_step(polys[-1], polys[-2], *pair(n)))
    return polys[1:]


def generate_monic(family: FamilySpec, N: int) -> List[LaurentPoly]:
    """P_0 .. P_N of a family through its recurrence."""
    return monic_list(partial(recurrence_coeffs, family), N)


def float_monic(diag: Sequence[float], sub: Sequence[float], N: int) -> List[List[float]]:
    """Dense float coefficient lists of monic P_0..P_N (index j = x^j).

    The float twin of ``generate_monic`` for coefficients known only in
    double precision; ``diag`` and ``sub`` need entries 0..N-1.
    """
    polys = [[1.0]]
    if N == 0:
        return polys
    polys.append([-diag[0], 1.0])
    for n in range(1, N):
        cur, prev = polys[n], polys[n - 1]
        nxt = [0.0] * (n + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += c
            nxt[j] -= diag[n] * c
        for j, c in enumerate(prev):
            nxt[j] -= sub[n] * c
        polys.append(nxt)
    return polys


# -- hypergeometric construction ----------------------------------------------


def pochhammer(a: PolyOrScalar, k: int):
    """Rising factorial (a)_k over the rationals or the Laurent ring."""
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    if isinstance(a, LaurentPoly):
        result: PolyOrScalar = LaurentPoly.one()
    else:
        a = _as_fraction(a)
        result = Fraction(1)
    for i in range(k):
        result = result * (a + i)
    return result


def hypergeometric_terminating(
    num_params: Sequence[PolyOrScalar],
    den_params: Sequence[Scalar],
    argument: LaurentPoly,
) -> LaurentPoly:
    """Terminating series sum_k [prod (a_j)_k / prod (b_i)_k] z^k / k!.

    The first numerator parameter fixes the truncation: it must be -n for a
    nonnegative integer n.  Numerator parameters may be scalars or degree-one
    polynomials (the complementary Bannai-Ito series carries rho2 +/- x in
    the numerator); denominator parameters must be scalars, and a vanishing
    denominator Pochhammer raises DegenerateParameters.

    Each term comes from the one before by the term ratio
    t_k / t_{k-1} = z prod (a_j + k - 1) / (k prod (b_i + k - 1))
    (Koekoek, Lesky and Swarttouw 2010, §1.4), so a call takes O(n)
    polynomial products.  (b_i)_k first vanishes at the k whose factor
    b_i + k - 1 is zero, and that factor is checked before the term is
    formed.
    """
    if not num_params:
        raise ValueError("at least one numerator parameter required")
    first = num_params[0]
    if isinstance(first, LaurentPoly):
        raise ValueError("the terminating parameter must be a scalar")
    first = _as_fraction(first)
    if first > 0 or first.denominator != 1:
        raise ValueError(f"terminating parameter must be a nonpositive integer, got {first}")
    n = -int(first)
    dens = [_as_fraction(b) for b in den_params]
    scalars = [_as_fraction(a) for a in num_params if not isinstance(a, LaurentPoly)]
    polys = [a for a in num_params if isinstance(a, LaurentPoly)]
    term = total = LaurentPoly.one()
    for k in range(1, n + 1):
        ratio = Fraction(1, k)
        for b in dens:
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


def explicit_poly(family: FamilySpec, n: int) -> LaurentPoly:
    """Monic P_n through the entry's ``series``, or its ``reduced`` form with
    R_m = (-1)^m (a+1)_m / prod (u)_m pFq(-m, u...; a+1; t), t = x^2 -
    gamma^2, the upper parameters u from the ``CLASSICAL`` entry: 2F1 with
    u = m+a+b+1 for Jacobi, 1F1 with none for Laguerre."""
    entry = FAMILIES[family.name]
    p = family.p
    x = LaurentPoly.x()
    m, odd = divmod(n, 2)
    if entry.series is not None:
        num, den, upper, lower, z, root = entry.series(p, m, odd)
    elif entry.reduced is not None:
        tag, a, *b = entry.reduced(p)
        a += odd
        upper, lower = [Fraction(-m), *CLASSICAL[tag].upper(a, *b, m)], [a + 1]
        num = (-1) ** m * pochhammer(a + 1, m)
        den = math.prod(pochhammer(u, m) for u in upper[1:])
        root = p.get("gamma", Fraction(0))
        z = x * x - LaurentPoly.const(root**2)
    else:
        raise ValueError(f"no terminating ordinary hypergeometric form for {family.name}")
    if not den:
        raise DegenerateParameters(f"{family.name} explicit_poly({n}) prefactor denominator vanishes")
    pref = num / den
    series = hypergeometric_terminating(upper, lower, z)
    return pref * series * (x - root) if odd else pref * series
