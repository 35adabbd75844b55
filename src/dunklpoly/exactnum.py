"""Exact scalar and polynomial arithmetic.

Everything downstream (recurrence generation, operator application, algebra
checks) is decided exactly over the rationals, so the number types here are
deliberately small and strict:

* ``BigRational`` is ``fractions.Fraction``: arbitrary-precision, always
  gcd-normalized with a positive denominator.
* ``LaurentPoly`` is a finite rational combination of integer powers of x,
  stored sparsely as ``{exponent: coefficient}`` with no zero coefficients
  kept.  Negative exponents are first-class; operator coefficients need
  poles at x = 0 up to order four.
* ``RatFunc`` is a reduced ratio of two true polynomials (no negative
  exponents), denominator monic, numerator and denominator coprime.  With
  that normalization equality of rational functions is plain field equality,
  and "is this actually a polynomial" is decidable by looking at the
  denominator.  Operators are built from RatFunc coefficients; they are
  applied through polynomial arithmetic over one common denominator and a
  single ``poly_divmod`` (see :mod:`dunklpoly.dunklop`), not through RatFunc
  sums.

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
from typing import Dict, Iterable, Mapping, Tuple, Union

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
    """Immutable sparse Laurent polynomial with Fraction coefficients."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, Scalar] | Iterable[Tuple[int, Scalar]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: Dict[int, Fraction] = {}
        for exp, c in items:
            if not isinstance(exp, int):
                raise TypeError("exponents must be int")
            c = _as_fraction(c)
            if c:
                store[exp] = store.get(exp, Fraction(0)) + c
                if not store[exp]:
                    del store[exp]
        self._coeffs = store
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def x() -> "LaurentPoly":
        return LaurentPoly({1: 1})

    @staticmethod
    def const(c: Scalar) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def monomial(exp: int, c: Scalar = 1) -> "LaurentPoly":
        return LaurentPoly({exp: c})

    @staticmethod
    def from_coeffs(coeffs: Iterable[Scalar]) -> "LaurentPoly":
        """Dense constructor: coeffs[k] multiplies x^k."""
        return LaurentPoly({k: c for k, c in enumerate(coeffs)})

    # -- inspection --------------------------------------------------------

    def items(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple(sorted(self._coeffs.items()))

    def coeff(self, exp: int) -> Fraction:
        return self._coeffs.get(exp, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self):
        """Largest exponent, or None for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else None

    @property
    def min_exp(self):
        return min(self._coeffs) if self._coeffs else None

    @property
    def is_polynomial(self) -> bool:
        return (not self._coeffs) or min(self._coeffs) >= 0

    def leading_coeff(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return self._coeffs[max(self._coeffs)]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = _as_fraction(other)
            if not c0:
                return LaurentPoly()
            return _wrap({e: c * c0 for e, c in self._coeffs.items()})
        if isinstance(other, LaurentPoly):
            out: Dict[int, Fraction] = {}
            for e1, c1 in self._coeffs.items():
                for e2, c2 in other._coeffs.items():
                    e = e1 + e2
                    s = out.get(e, Fraction(0)) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            return _wrap(out)
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
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.items())
        return self._hash

    # -- calculus and substitution -----------------------------------------

    def derivative(self) -> "LaurentPoly":
        """Formal derivative; d/dx x^k = k x^(k-1) for every integer k."""
        return _wrap({e - 1: c * e for e, c in self._coeffs.items() if e != 0})

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
            return _wrap({e: c * eps**e for e, c in self._coeffs.items()})
        inner = LaurentPoly({1: eps, 0: delta})
        pos = LaurentPoly()
        neg_parts: Dict[int, Fraction] = {}
        for e, c in self._coeffs.items():
            if e >= 0:
                pos = pos + c * inner**e
            else:
                neg_parts[-e] = c
        if not neg_parts:
            return pos
        m = max(neg_parts)
        num = pos * inner**m
        for k, c in neg_parts.items():
            num = num + c * inner ** (m - k)
        return RatFunc.of(num, inner**m)

    def compose(self, inner: "LaurentPoly") -> "LaurentPoly":
        """Polynomial composition self(inner(x)); self must be a polynomial."""
        if not self.is_polynomial:
            raise ValueError("compose requires a polynomial outer factor")
        # Horner with sparse exponent gaps: fold in descending exponent order.
        result = LaurentPoly()
        prev_exp = None
        for e in sorted(self._coeffs, reverse=True):
            if prev_exp is None:
                result = LaurentPoly.const(self._coeffs[e])
            else:
                result = result * inner ** (prev_exp - e) + LaurentPoly.const(self._coeffs[e])
            prev_exp = e
        if prev_exp is None:
            return LaurentPoly()
        return result * inner**prev_exp

    def evaluate(self, value: Scalar) -> Fraction:
        value = _as_fraction(value)
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * value**e
        return total

    def evaluate_float(self, value: float) -> float:
        return float(sum(float(c) * value**e for e, c in self._coeffs.items()))

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        pieces = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
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


def _wrap(coeffs: Dict[int, Fraction]) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._coeffs = coeffs
    p._hash = None
    return p


def _coerce_poly(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.const(value)
    return NotImplemented


# -- dense polynomial division and gcd (plain polynomials only) -------------


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division a = q*b + r with deg r < deg b; inputs polynomial."""
    if not (a.is_polynomial and b.is_polynomial):
        raise ValueError("poly_divmod requires true polynomials")
    if b.is_zero:
        raise ZeroDenominator("polynomial division by zero")
    q: Dict[int, Fraction] = {}
    r = dict(a._coeffs)
    db = b.degree
    lb = b.leading_coeff()
    rest = [(e - db, c) for e, c in b._coeffs.items() if e != db]
    # Long division on one remainder dict: each step cancels the leading
    # term exactly and subtracts factor * (b minus its leading term).
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
    return _wrap(q), _wrap(r)


def poly_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q, r = poly_divmod(a, b)
    if not r.is_zero:
        raise NotDivisible(f"remainder {r} is nonzero")
    return q


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of two polynomials (gcd(0, 0) = 0)."""
    while not b.is_zero:
        _, rem = poly_divmod(a, b)
        a, b = b, rem
    if a.is_zero:
        return a
    return a * (Fraction(1) / a.leading_coeff())


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function num/den, den monic, gcd(num, den) = 1."""

    num: LaurentPoly
    den: LaurentPoly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
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
