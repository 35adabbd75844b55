"""Exact scalar and polynomial arithmetic.

Everything downstream (recurrence generation, operator application, algebra
checks) is decided exactly over the rationals, so the number types here are
deliberately small and strict:

* ``BigRational`` is ``fractions.Fraction``: arbitrary-precision, always
  gcd-normalized with a positive denominator.
* ``LaurentPoly`` is a finite rational combination of integer powers of x.
  It stores integer numerators sparsely as ``{exponent: numerator}`` over
  one positive integer denominator shared by every coefficient, in
  canonical form: no zero numerator is kept, and the denominator is coprime
  to the numerators together (Geddes, Czapor and Labahn, *Algorithms for
  Computer Algebra*, ch. 2).  Ring operations, substitution and division
  then run on Python ints, with one gcd per result instead of one per
  coefficient; ``Fraction`` coefficients appear only where they are read
  out (``items``, ``coeff``, ``leading_coeff``, ``evaluate``, ``str``).
  Negative exponents are first-class; operator coefficients need poles at
  x = 0 up to order four.
* ``RatFunc`` is a reduced ratio of two true polynomials (no negative
  exponents), denominator monic, numerator and denominator coprime.  With
  that normalization equality of rational functions is plain field equality,
  and "is this actually a polynomial" is decidable by looking at the
  denominator.  Operators are built from RatFunc coefficients; they are
  applied through polynomial arithmetic over one common denominator, with
  one ``poly_divmod`` per monomial cached on the operator (see
  :mod:`dunklpoly.dunklop`), not through RatFunc sums.

Five kernels form whole results that would otherwise be chains of
canonical LaurentPolys, each with its own gcd.  They work on the raw
integer numerators over one common denominator and take one gcd at the end
(Geddes, Czapor and Labahn, ch. 2; Knuth, TAOCP vol. 2, §4.6):

* ``monomial_numerator``: N_j = sum_i m_i * d^{k_i}[(eps_i*x + delta_i)^j],
  the numerator of an operator's image of x^j, with each derivative in
  closed form; a shift-free term (delta = 0, eps = +-1) adds a shifted,
  scaled copy of its multiplier m_i, with no product;
* ``three_term_step``: (x - diag)*p - sub*q, the step of every monic
  recurrence over the rationals (``families.monic_list``);
* ``residual``: a - c*b, an eigen-equation's residual;
* ``linear_combination``: c_1*p_1 + c_2*p_2 + ..., a side of an algebra
  relation (``dunklop.algebra_relations``);
* ``term_ratio_sum``: t_0 + t_1 + ... with t_k = t_(k-1) * f_k * c_k / d_k
  for integers c_k and d_k, a series summed by its term ratio
  (``families.hypergeometric_terminating``), every term over one growing
  denominator and no gcd before the sum's.

Each makes the dict operations of the route it replaces, on values scaled
by nonzero integers, so its partial sums reach zero at the same steps: the
result has the same terms in the same insertion order, and float
evaluation gives the same bits.

Single terms skip the general routes.  A product with a factor x^k (one
term, numerator 1, denominator 1) shifts the other factor's exponents, in
its order and over its denominator, with no product loop and no gcd;
``one``, ``x`` and ``monomial`` write their fields directly;
``map_monomials`` on x^j returns ``image(j)`` itself; and a ``RatFunc``
num / x^k with no power of x to cancel from both parts (a Laurent
polynomial over 1, for one) only shifts num, with no gcd.  Each gives the
fields and term order of the general route.  The image is then
shared with its source (an operator's cached quotient, for one), which is
safe because a LaurentPoly is never changed once built.

``exact_polynomial_check`` converts a RatFunc back to a LaurentPoly and
raises ``NotPolynomial`` otherwise.  That failure is meaningful, not an
inconvenience: eigenoperator images of polynomials must close among
polynomials, so a residual denominator is a primary detector for a wrongly
transcribed operator coefficient.  Operator application reports a nonzero
remainder through this check, so its message names the reduced denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

BigRational = Fraction

Scalar = Union[BigRational, int]


class ZeroDenominator(ZeroDivisionError):
    """Raised when a rational function is built with a zero denominator."""


class NotPolynomial(ValueError):
    """Raised when a rational function fails an exact polynomial check."""


class NotDivisible(ValueError):
    """Raised when an exact polynomial division leaves a remainder."""


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class LaurentPoly:
    """Immutable sparse Laurent polynomial with rational coefficients, held
    as integer numerators over one common denominator.

    ``_nums`` maps each exponent to a nonzero int and ``_den`` is a positive
    int with ``gcd(_den, *_nums.values()) == 1``, so the coefficient of x^e
    is ``_nums[e] / _den`` and equal polynomials have equal fields.  Results
    keep their terms in the insertion order the coefficient-wise
    computation would give, which fixes the summation order of
    ``evaluate_float``.  A constant equals the int or ``Fraction`` it is.
    """

    __slots__ = ("_nums", "_den", "_hash")

    def __init__(self, coeffs: Mapping[int, Scalar] | Iterable[Tuple[int, Scalar]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: Dict[int, Scalar] = {}
        for exp, c in items:
            if not isinstance(exp, int):
                raise TypeError("exponents must be int")
            if not isinstance(c, (int, Fraction)):
                _as_fraction(c)  # raises the TypeError
            if c:
                s = store.get(exp, 0) + c
                if s:
                    store[exp] = s
                else:
                    del store[exp]
        # lcm of reduced denominators: canonical without a further gcd
        den = lcm(*(c.denominator for c in store.values()))
        self._nums = {e: c.numerator * (den // c.denominator) for e, c in store.items()}
        self._den = den
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return _wrap({0: 1}, 1)

    @staticmethod
    def x() -> "LaurentPoly":
        return _wrap({1: 1}, 1)

    @staticmethod
    def const(c: Scalar) -> "LaurentPoly":
        return LaurentPoly.monomial(0, c)

    @staticmethod
    def monomial(exp: int, c: Scalar = 1) -> "LaurentPoly":
        if not isinstance(exp, int):
            raise TypeError("exponents must be int")
        if not isinstance(c, (int, Fraction)):
            _as_fraction(c)  # raises the TypeError
        return _wrap({exp: c.numerator}, c.denominator) if c else LaurentPoly()

    @staticmethod
    def affine_power(j: int, eps: Scalar, delta: Scalar) -> "LaurentPoly":
        """(eps*x + delta)^j: the power ``substitute_affine`` expands x^j into.

        With eps = a/b and delta = p/q the binomial theorem gives the
        coefficient of x^i as C(j,i) (aq)^i (pb)^(j-i) over (bq)^j.  The
        terms are inserted from x^j down to x^0, the order repeated
        squaring of eps*x + delta gives, and one gcd makes the result
        canonical.  A negative j needs delta == 0; the result is then
        eps^j x^j, exact.
        """
        return _canonical(*_affine_terms(j, _as_fraction(eps), _as_fraction(delta)))

    # -- inspection --------------------------------------------------------

    def items(self) -> Tuple[Tuple[int, Fraction], ...]:
        den = self._den
        return tuple(sorted((e, Fraction(n, den)) for e, n in self._nums.items()))

    def coeff(self, exp: int) -> Fraction:
        return Fraction(self._nums.get(exp, 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self):
        """Largest exponent, or None for the zero polynomial."""
        return max(self._nums) if self._nums else None

    @property
    def min_exp(self):
        return min(self._nums) if self._nums else None

    @property
    def is_polynomial(self) -> bool:
        return (not self._nums) or min(self._nums) >= 0

    def leading_coeff(self) -> Fraction:
        if not self._nums:
            return Fraction(0)
        return Fraction(self._nums[max(self._nums)], self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -n for e, n in self._nums.items()}, self._den)

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(other, self, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly()
            p = other.numerator
            return _canonical({e: n * p for e, n in self._nums.items()}, self._den * other.denominator)
        if isinstance(other, LaurentPoly):
            # a factor x^k only shifts the other's exponents: same order,
            # same denominator, already canonical
            k = _unit_exponent(other)
            if k is not None:
                return _wrap({e + k: n for e, n in self._nums.items()}, self._den)
            k = _unit_exponent(self)
            if k is not None:
                return _wrap({k + e: n for e, n in other._nums.items()}, other._den)
            return _canonical(_product(self._nums, other._nums), self._den * other._den)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = _as_fraction(other)
            if not c0:
                raise ZeroDenominator("division of a polynomial by zero")
            return self * (Fraction(1) / c0)
        if isinstance(other, LaurentPoly):
            return RatFunc.of(self, other)
        if isinstance(other, RatFunc):
            return RatFunc.from_laurent(self) / other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, (int, Fraction)):
            # equal to a scalar exactly when self is that constant
            return self._den == other.denominator and self._nums == (
                {0: other.numerator} if other else {})
        return NotImplemented

    def __hash__(self):
        """The hash of the canonical fields, computed once: equal polynomials
        have equal fields, so they hash equal.  A constant hashes like its
        ``Fraction``, which it equals."""
        if self._hash is None:
            nums = self._nums
            if nums.keys() <= {0}:
                self._hash = hash(Fraction(nums.get(0, 0), self._den))
            else:
                self._hash = hash((self._den, tuple(sorted(nums.items()))))
        return self._hash

    # -- calculus and substitution -----------------------------------------

    def derivative(self) -> "LaurentPoly":
        """Formal derivative; d/dx x^k = k x^(k-1) for every integer k."""
        return _canonical({e - 1: n * e for e, n in self._nums.items() if e != 0}, self._den)

    def substitute_affine(self, eps: Scalar, delta: Scalar):
        """Exact substitution x -> eps*x + delta.

        Returns a LaurentPoly whenever the result is one (always true if the
        input is a true polynomial, or if delta == 0); otherwise returns a
        RatFunc with denominator (eps*x + delta)^m.
        """
        eps = _as_fraction(eps)
        delta = _as_fraction(delta)
        if not eps:
            raise ValueError("eps must be nonzero")
        if not delta:
            terms, scale = _power_terms(self._nums, eps)
            return _canonical(terms, self._den * scale)
        # sum over the numerators, one division by the denominator at the end
        power = LaurentPoly.affine_power
        pos = LaurentPoly()
        neg_parts: Dict[int, int] = {}
        for e, n in self._nums.items():
            if e >= 0:
                pos = pos + n * power(e, eps, delta)
            else:
                neg_parts[-e] = n
        scale = Fraction(1, self._den)
        if not neg_parts:
            return pos * scale
        m = max(neg_parts)
        den = power(m, eps, delta)
        num = pos * den
        for k, n in neg_parts.items():
            num = num + n * power(m - k, eps, delta)
        return RatFunc.of(num * scale, den)

    def compose(self, inner: "LaurentPoly") -> "LaurentPoly":
        """Polynomial composition self(inner(x)); self must be a polynomial."""
        if not self.is_polynomial:
            raise ValueError("compose requires a polynomial outer factor")
        # Horner with sparse exponent gaps over the numerators: fold in
        # descending exponent order, divide by the denominator at the end.
        result = LaurentPoly()
        prev_exp = None
        for e in sorted(self._nums, reverse=True):
            if prev_exp is None:
                result = LaurentPoly.const(self._nums[e])
            else:
                result = result * inner ** (prev_exp - e) + LaurentPoly.const(self._nums[e])
            prev_exp = e
        if prev_exp is None:
            return LaurentPoly()
        return result * inner**prev_exp * Fraction(1, self._den)

    def map_monomials(self, image: Callable[[int], "LaurentPoly"]) -> "LaurentPoly":
        """sum_j f_j * image(j) for self = sum_j f_j x^j: the linear map that
        sends each x^j to ``image(j)``, applied to self.

        ``image`` is called once per term, in ascending exponent order.  The
        sum runs on integers over the lcm of the images' denominators; for
        self = x^j it is ``image(j)`` itself.
        """
        j = _unit_exponent(self)
        if j is not None:
            return image(j)
        terms = [(n, image(j)) for j, n in sorted(self._nums.items())]
        den = lcm(*(p._den for _, p in terms))
        out: Dict[int, int] = {}
        for n, p in terms:
            _add_scaled(out, p._nums, n * (den // p._den))
        return _canonical(out, den * self._den)

    def evaluate(self, value: Scalar) -> Fraction:
        terms, scale = _power_terms(self._nums, _as_fraction(value))
        return Fraction(sum(terms.values()), self._den * scale)

    def evaluate_float(self, value: float) -> float:
        # int / int rounds correctly, like float(Fraction).  The terms are
        # added left to right in insertion order: sum() of floats compensates
        # its rounding from Python 3.12 on, which would change the bits.
        den = self._den
        total = 0.0
        for e, n in self._nums.items():
            total += n / den * value**e
        return total

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        pieces = []
        for e in sorted(self._nums, reverse=True):
            c = Fraction(self._nums[e], self._den)
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                xpow = "x" if e == 1 else f"x^{e}"
                body = xpow if mag == 1 else f"{mag}*{xpow}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"


def _wrap(nums: Dict[int, int], den: int) -> LaurentPoly:
    """A LaurentPoly on fields already in canonical form."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._nums = nums
    p._den = den
    p._hash = None
    return p


def _unit_exponent(p: LaurentPoly) -> Optional[int]:
    """k when p is x^k (one term, numerator 1, denominator 1), else None."""
    if p._den == 1 and len(p._nums) == 1:
        [(k, n)] = p._nums.items()
        if n == 1:
            return k
    return None


def _canonical(nums: Dict[int, int], den: int) -> LaurentPoly:
    """nums / den for nonzero numerators and any nonzero den: divides out
    the common content and makes the denominator positive."""
    if den != 1:
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
    return _wrap(nums, den)


def _add_scaled(out: Dict[int, int], nums: Dict[int, int], scale: int) -> None:
    """out[e] += scale * n for each term n x^e of nums, in nums' order,
    dropping a sum that reaches zero.  Every sum here makes these dict
    operations in the order of the coefficient-wise computation, so equal
    results keep equal insertion orders."""
    get = out.get
    for e, n in nums.items():
        s = get(e, 0) + scale * n
        if s:
            out[e] = s
        else:
            out.pop(e, None)


def _product(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """The numerators of a product: ``_add_scaled`` of each row n1 x^e1 * b
    over a, in b's order, written out because every product runs it."""
    out: Dict[int, int] = {}
    get = out.get
    right = tuple(b.items())
    for e1, n1 in a.items():
        for e2, n2 in right:
            e = e1 + e2
            s = get(e, 0) + n1 * n2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _combine(a: LaurentPoly, b: LaurentPoly, c: Scalar) -> LaurentPoly:
    """a + c*b over the lcm of the two denominators, in the order of a."""
    bden = b._den * c.denominator
    g = gcd(a._den, bden)
    ma = bden // g
    out = {e: n * ma for e, n in a._nums.items()} if ma != 1 else dict(a._nums)
    _add_scaled(out, b._nums, c.numerator * (a._den // g))
    return _canonical(out, a._den * ma)


def _affine_terms(n: int, eps: Scalar, delta: Scalar, c: int = 1) -> Tuple[Dict[int, int], int]:
    """Integers t_i and one s with c * (eps*x + delta)^n == sum_i t_i x^i / s.

    With eps = a/b and delta = p/q the binomial theorem gives t_i as
    c C(n,i) (aq)^i (pb)^(n-i) over (bq)^n.  The terms run from x^n down to
    x^0, the order repeated squaring of eps*x + delta gives.  A negative n
    needs delta == 0; the one term is then c eps^n x^n, exact.
    """
    if not eps:
        raise ValueError("eps must be nonzero")
    a, b = eps.numerator, eps.denominator
    if not delta:
        return ({n: c * a**n}, b**n) if n >= 0 else ({n: c * b**-n}, a**-n)
    if n < 0:
        raise ValueError("negative powers need delta == 0")
    p, q = delta.numerator, delta.denominator
    lead, tail = [1], [1]   # (aq)^i and (pb)^i for i = 0..n
    for _ in range(n):
        lead.append(lead[-1] * a * q)
        tail.append(tail[-1] * p * b)
    terms = {i: c * comb(n, i) * lead[i] * tail[n - i] for i in range(n, -1, -1)}
    return terms, (b * q) ** n


def _power_terms(nums: Dict[int, int], value: Fraction) -> Tuple[Dict[int, int], int]:
    """Integers t_e and one factor s with n_e * value**e == t_e / s.

    With value = p/q and lo <= 0 <= hi bounding the exponents,
    t_e = n_e p^(e-lo) q^(hi-e) and s = p^(-lo) q^hi.
    """
    p, q = value.numerator, value.denominator
    lo = min(min(nums, default=0), 0)
    hi = max(max(nums, default=0), 0)
    terms = {e: n * p ** (e - lo) * q ** (hi - e) for e, n in nums.items()}
    return terms, p ** (-lo) * q**hi


def _coerce_poly(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.const(value)
    return NotImplemented


# -- integer-numerator kernels (see the module docstring) ----------------------


def monomial_numerator(j: int, terms: Iterable[Tuple[LaurentPoly, int, Scalar, Scalar]]) -> LaurentPoly:
    """N_j = sum_i m_i * d^{k_i}[(eps_i*x + delta_i)^j] for the terms
    (m_i, k_i, eps_i, delta_i): L times an operator's image of x^j.

    Each derivative takes its closed form
    d^k (eps*x + delta)^j = eps^k j!/(j-k)! (eps*x + delta)^(j-k).  The terms
    are summed in order, as ``zero + m_1*g_1 + m_2*g_2 + ...``.  A
    shift-free term (delta = 0, eps = +-1) has the image c x^(j-k) with
    c = eps^j j!/(j-k)!, so its product with m is m's numerators times c,
    shifted by j - k, in m's order: the terms of the general product,
    added without forming it.
    """
    out: Dict[int, int] = {}
    den = 1
    for m, k, eps, delta in terms:
        falling = prod(range(j - k + 1, j + 1))   # j!/(j-k)!, 0 for 0 <= j < k
        if not falling:
            continue
        shift_free = not delta and (eps == 1 or eps == -1)
        if shift_free:
            pden = m._den
        else:
            nums, gden = _affine_terms(j - k, eps, delta, falling * eps.numerator**k)
            pden = m._den * gden * eps.denominator**k
        g = gcd(den, pden)
        ma = pden // g
        if ma != 1:
            out = {e: n * ma for e, n in out.items()}
        if shift_free:
            # _add_scaled of the shifted, scaled m, written out
            scale = (-falling if eps == -1 and j % 2 else falling) * (den // g)
            shift = j - k
            get = out.get
            for e, n in m._nums.items():
                e += shift
                s = get(e, 0) + scale * n
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        else:
            _add_scaled(out, _product(m._nums, nums), den // g)
        den *= ma
    return _canonical(out, den)


def three_term_step(p: LaurentPoly, q: LaurentPoly, diag: Scalar, sub: Scalar) -> LaurentPoly:
    """(x - diag)*p - sub*q: one step of a monic three-term recurrence.

    The numerators are those of x*p, then of -diag*p and -sub*q added in
    the order of p and of q.
    """
    diag, sub = _as_fraction(diag), _as_fraction(sub)
    pden = p._den * diag.denominator
    qden = q._den * sub.denominator
    den = lcm(pden, qden)
    cp = den // pden
    out = {e + 1: n * diag.denominator * cp for e, n in p._nums.items()}
    if diag:
        _add_scaled(out, p._nums, -diag.numerator * cp)
    if sub:
        _add_scaled(out, q._nums, -sub.numerator * (den // qden))
    return _canonical(out, den)


def residual(a: LaurentPoly, b: LaurentPoly, c: Scalar) -> LaurentPoly:
    """a - c*b, the residual of an eigen-equation a = c*b."""
    return _combine(a, b, -_as_fraction(c))


def linear_combination(terms: Iterable[Tuple[Scalar, LaurentPoly]]) -> LaurentPoly:
    """c_1*p_1 + c_2*p_2 + ... for the pairs (c_i, p_i), summed in order.

    The numerators of each c_i*p_i are added over the lcm of the
    denominators so far, as ``zero + c_1*p_1 + c_2*p_2 + ...`` adds them.
    """
    out: Dict[int, int] = {}
    den = 1
    for c, p in terms:
        pden = p._den * c.denominator
        g = gcd(den, pden)
        ma = pden // g
        if ma != 1:
            out = {e: n * ma for e, n in out.items()}
        _add_scaled(out, p._nums, c.numerator * (den // g))
        den *= ma
    return _canonical(out, den)


def term_ratio_sum(factors: Iterable[Tuple[LaurentPoly, int, int]]) -> LaurentPoly:
    """t_0 + t_1 + ... with t_0 = 1 and t_k = t_(k-1) * f_k * c_k / d_k for
    the polynomials f_k and integers c_k, d_k != 0 of ``factors``: a series
    summed by its term ratio.

    The numerators of t_k are those of t_(k-1) * f_k times c_k, over the
    denominator of t_(k-1) times d_k and the denominator of f_k.  Each
    denominator is a multiple of the one before, so the sum is kept over
    the latest one; its sign and content go in the one gcd at the end.
    """
    term: Dict[int, int] = {0: 1}
    total: Dict[int, int] = {0: 1}
    den = 1
    for f, c, d in factors:
        term = {e: n * c for e, n in _product(term, f._nums).items()} if c else {}
        scale = f._den * d
        if scale != 1:
            total = {e: n * scale for e, n in total.items()}
            den *= scale
        _add_scaled(total, term, 1)
    return _canonical(total, den)


# -- dense polynomial division and gcd (plain polynomials only) -------------


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division a = q*b + r with deg r < deg b; inputs polynomial.

    Fraction-free long division (Knuth, TAOCP vol. 2, §4.6.1) on the
    integer numerators: the remainder r = R / rden keeps integer entries.
    A step cancels R's leading term t against b's leading numerator lb by
    R <- (lb/g) R - (t/g) x^k B with g = gcd(t, lb), and rden takes the
    factor lb/g, which is 1 whenever lb divides t (always for monic
    integer divisors).  The quotient terms are collected over the final
    rden, and one gcd per result restores the canonical form.

    The steps run in one pass over the exponents, from deg a down to
    deg b: each pops its exponent from R (a missing one is a zero term and
    skipped), so no step searches R for its leading term.  The dict
    operations are those of a search-per-step loop in the same order, and
    quotient and remainder keep its insertion order.

    A single-term divisor c*x^k only splits a's terms: the quotient is
    those with e >= k, shifted down by k and divided by c, in descending
    order, and the remainder those with e < k, in a's order, as the loop
    would give them.
    """
    if not (a.is_polynomial and b.is_polynomial):
        raise ValueError("poly_divmod requires true polynomials")
    if b.is_zero:
        raise ZeroDenominator("polynomial division by zero")
    if len(b._nums) == 1:
        [(k, c)] = b._nums.items()
        high = sorted((e for e in a._nums if e >= k), reverse=True)
        quotient = {e - k: a._nums[e] * b._den for e in high}
        low = {e: n for e, n in a._nums.items() if e < k}
        return _canonical(quotient, a._den * c), _canonical(low, a._den)
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
        g = gcd(lead, lb)
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
    # step i's quotient term is factor_i * b._den / rden after step i; put
    # every term over the final rden by the scales of the later steps
    quotient = []
    later = b._den
    for exp, factor, scale in reversed(steps):
        quotient.append((exp, factor * later))
        later *= scale
    return _canonical(dict(reversed(quotient)), rden), _canonical(r, rden)


def poly_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q, r = poly_divmod(a, b)
    if not r.is_zero:
        raise NotDivisible(f"remainder {r} is nonzero")
    return q


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of two polynomials (gcd(0, 0) = 0).

    A single-term divisor c*x^k ends the Euclidean loop: the gcd is
    x^min(k, v), with v the lowest exponent of the dividend.
    """
    while not b.is_zero:
        if len(b._nums) == 1 and a.is_polynomial and b.is_polynomial:
            [k] = b._nums
            return _wrap({min(k, min(a._nums, default=k)): 1}, 1)
        _, rem = poly_divmod(a, b)
        a, b = b, rem
    if a.is_zero:
        return a
    # a / lc(a) is the numerators over the leading numerator
    return _canonical(a._nums, a._nums[a.degree])


@dataclass(frozen=True, eq=False, slots=True)
class RatFunc:
    """Reduced rational function num/den, den monic, gcd(num, den) = 1.

    Equal rational functions have equal fields.  A Laurent polynomial
    num / x^k also equals the ``LaurentPoly``, int or ``Fraction`` it is,
    and hashes like it.
    """

    num: LaurentPoly
    den: LaurentPoly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        k = _unit_exponent(den)
        if k is not None and not num.is_zero and min(k, num.min_exp) <= 0:
            # num / x^k with no power of x to divide out of both parts (a
            # Laurent polynomial over 1, for one): the shift below is the
            # whole normalisation, so no gcd
            v = min(k, num.min_exp)
            object.__setattr__(self, "num", num * LaurentPoly.monomial(-v))
            object.__setattr__(self, "den", LaurentPoly.monomial(k - v))
            return
        if not (num.is_polynomial and den.is_polynomial):
            # Clear common powers of x so both parts are true polynomials.
            shift = min(num.min_exp if not num.is_zero else 0, den.min_exp)
            mono = LaurentPoly.monomial(-shift)
            num = num * mono
            den = den * mono
        if num.is_zero:
            den = LaurentPoly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree and g.degree > 0:
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
            lc = den.leading_coeff()
            if lc != 1:
                inv = Fraction(1) / lc
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(num, den) -> "RatFunc":
        return RatFunc(_coerce_poly(num), _coerce_poly(den))

    @staticmethod
    def from_laurent(p: LaurentPoly | Scalar) -> "RatFunc":
        return RatFunc(_coerce_poly(p), LaurentPoly.one())

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(LaurentPoly.zero(), LaurentPoly.one())

    # -- field operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return RatFunc.from_laurent(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise ZeroDenominator("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, LaurentPoly)):
            # a Laurent polynomial is num / x^k with its monic den x^k
            k = _unit_exponent(self.den)
            return k is not None and self.num * LaurentPoly.monomial(-k) == other
        return NotImplemented

    def __hash__(self):
        k = _unit_exponent(self.den)
        if k is not None:
            return hash(self.num * LaurentPoly.monomial(-k))
        return hash((self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def substitute_affine(self, eps: Scalar, delta: Scalar) -> "RatFunc":
        num = self.num.substitute_affine(eps, delta)
        den = self.den.substitute_affine(eps, delta)
        return RatFunc.from_laurent(num) / RatFunc.from_laurent(den)

    def evaluate(self, value: Scalar) -> Fraction:
        d = self.den.evaluate(value)
        if not d:
            raise ZeroDenominator(f"denominator vanishes at {value}")
        return self.num.evaluate(value) / d

    def __str__(self) -> str:
        if self.den == LaurentPoly.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def exact_polynomial_check(r: RatFunc) -> LaurentPoly:
    """Return r as a LaurentPoly, or raise NotPolynomial.

    RatFunc normalization cancels every common factor, so r is a polynomial
    exactly when the reduced denominator is the constant 1.
    """
    if r.den == LaurentPoly.one():
        return r.num
    raise NotPolynomial(f"denominator {r.den} does not cancel")
