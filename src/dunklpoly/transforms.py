"""Christoffel and Geronimus transforms linking big -1 Jacobi and Chihara.

Dividing out a root at x = 1 sends the monic big -1 Jacobi list to its
kernel partners,

    K_n = (J_{n+1} - A_n J_n) / (x - 1),

and the inverse (Geronimus) step J_n = K_n - C_n K_{n-1} undoes it exactly,
where A_n and C_n are the two factors of the big -1 Jacobi recurrence
coefficients (``families.big_m1_jacobi_AC``).  The division is exact
division over the rationals; a remainder is a hard error (``NotDivisible``),
which is precisely what makes a perturbed A_n or a wrong source list
detectable.

The kernel list is itself a monic orthogonal sequence; its three-term
recurrence has

    diag(n) = (-1)^(n+1) c,      sub(n) = f_n = A_n C_n,

and after the rescaling x -> s x with s = sqrt(1 - c^2) it coincides with
the Chihara recurrence at

    alpha = b/2 - 1/2,   beta = a/2 + 1/2,   gamma = -c/s.

``kernel_to_chihara`` performs that comparison exactly, coefficient by
coefficient: it needs s rational, i.e. 1 - c^2 a square of a rational
(c = 3/5, 5/13, 8/17, ...).  For any other c in (0, 1) it raises
``IrrationalScale`` and ``kernel_to_chihara_float`` provides the floating
route (compare residuals against 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exactnum import LaurentPoly, Scalar, _as_fraction, poly_exact_div
from .families import (
    FamilySpec,
    big_m1_jacobi_AC,
    chihara_family,
    float_monic,
    generate_monic,
)


class IrrationalScale(ValueError):
    """1 - c^2 is not the square of a rational; use the float comparison."""


# -- ratio lists ---------------------------------------------------------------


def split_ratios(family: FamilySpec, N: int) -> Tuple[List[Fraction], List[Fraction]]:
    """(A_0..A_N, C_0..C_N) of the big -1 Jacobi recurrence factorization."""
    if family.name != "big_m1_jacobi":
        raise ValueError("split_ratios is defined for the big_m1_jacobi family")
    pairs = [big_m1_jacobi_AC(family.p, n) for n in range(N + 1)]
    return [A for A, _ in pairs], [C for _, C in pairs]


# -- the two transforms --------------------------------------------------------


def christoffel(polys: Sequence[LaurentPoly], ratios: Sequence[Fraction]) -> List[LaurentPoly]:
    """Kernel partners K_n = (P_{n+1} - A_n P_n)/(x - 1), n = 0..len(polys)-2.

    ``ratios[n]`` must equal P_{n+1}(1)/P_n(1); otherwise the numerator does
    not vanish at x = 1 and ``NotDivisible`` is raised.
    """
    if len(ratios) < len(polys) - 1:
        raise ValueError("need one ratio per produced kernel polynomial")
    x_minus_1 = LaurentPoly.x() - 1
    out: List[LaurentPoly] = []
    for n in range(len(polys) - 1):
        numerator = polys[n + 1] - polys[n] * _as_fraction(ratios[n])
        out.append(poly_exact_div(numerator, x_minus_1))
    return out


def geronimus(kernels: Sequence[LaurentPoly], ratios: Sequence[Fraction]) -> List[LaurentPoly]:
    """Inverse transform P_n = K_n - C_n K_{n-1} (the n = 0 term is K_0)."""
    if len(ratios) < len(kernels):
        raise ValueError("need one ratio per kernel polynomial")
    out: List[LaurentPoly] = []
    for n, kernel in enumerate(kernels):
        if n == 0:
            out.append(kernel)
        else:
            out.append(kernel - kernels[n - 1] * _as_fraction(ratios[n]))
    return out


# -- kernel recurrence ----------------------------------------------------------


def kernel_recurrence_coeffs(a: Scalar, b: Scalar, c: Scalar, n: int) -> Tuple[Fraction, Fraction]:
    """Exact (diag, sub) of the kernel three-term recurrence at index n."""
    a, b, c = _as_fraction(a), _as_fraction(b), _as_fraction(c)
    diag = (-1) ** (n + 1) * c
    if n == 0:
        return diag, Fraction(0)
    denom = (2 * n + a + b) * (2 * n + a + b + 2)
    if n % 2 == 0:
        sub = (1 - c * c) * Fraction(n) * (n + a + 1) / denom
    else:
        sub = (1 - c * c) * (n + b) * (n + a + b + 1) / denom
    return diag, sub


def extract_recurrence(polys: Sequence[LaurentPoly]) -> Tuple[List[Fraction], List[Fraction]]:
    """Recover (diag, sub) lists from a monic sequence, verifying exactness.

    For each n with P_{n+1} available, x P_n - P_{n+1} must equal
    diag(n) P_n + sub(n) P_{n-1} exactly; any higher-degree leftover raises
    ``ValueError`` (the input was not generated by a three-term recurrence).
    """
    x = LaurentPoly.x()
    diags: List[Fraction] = []
    subs: List[Fraction] = []
    for n in range(len(polys) - 1):
        rest = x * polys[n] - polys[n + 1]
        diag = rest.coeff(n)
        rest = rest - polys[n] * diag
        if n == 0:
            sub = Fraction(0)
        else:
            sub = rest.coeff(n - 1)
            rest = rest - polys[n - 1] * sub
        if not rest.is_zero:
            raise ValueError(f"no three-term recurrence at index {n}: leftover {rest}")
        diags.append(diag)
        subs.append(sub)
    return diags, subs


# -- parameter map ---------------------------------------------------------------


def _rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """The exact square root of a nonnegative rational, or None."""
    if value < 0:
        return None
    num_root = math.isqrt(value.numerator)
    den_root = math.isqrt(value.denominator)
    if num_root * num_root == value.numerator and den_root * den_root == value.denominator:
        return Fraction(num_root, den_root)
    return None


@dataclass(frozen=True)
class KernelMap:
    """Parameter map from a big -1 Jacobi triple to its Chihara image.

    ``alpha = b/2 - 1/2`` and ``beta = a/2 + 1/2`` are always exact; the
    scale ``s = sqrt(1 - c^2)`` and ``gamma = -c/s`` carry exact rational
    values only when 1 - c^2 is a rational square (``is_exact``), and float
    values otherwise.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    alpha: Fraction
    beta: Fraction
    scale_exact: Optional[Fraction]
    gamma_exact: Optional[Fraction]

    @property
    def is_exact(self) -> bool:
        return self.scale_exact is not None

    @property
    def scale_float(self) -> float:
        if self.scale_exact is not None:
            return float(self.scale_exact)
        return math.sqrt(1.0 - float(self.c) ** 2)

    @property
    def gamma_float(self) -> float:
        if self.gamma_exact is not None:
            return float(self.gamma_exact)
        return -float(self.c) / self.scale_float


def kernel_map(a: Scalar, b: Scalar, c: Scalar) -> KernelMap:
    """Build the parameter map for source parameters (a, b, c), 0 < |c| < 1."""
    a, b, c = _as_fraction(a), _as_fraction(b), _as_fraction(c)
    if not abs(c) < 1:
        raise ValueError("kernel map requires |c| < 1")
    scale = _rational_sqrt(1 - c * c)
    gamma = None if scale is None else -c / scale
    return KernelMap(
        a=a,
        b=b,
        c=c,
        alpha=b / 2 - Fraction(1, 2),
        beta=a / 2 + Fraction(1, 2),
        scale_exact=scale,
        gamma_exact=gamma,
    )


def kernel_to_chihara(kmap: KernelMap, kernels: Sequence[LaurentPoly]) -> List[LaurentPoly]:
    """Residuals s^(-n) K_n(s x) - C_n(x; alpha, beta, gamma), all exact.

    Zero residuals certify that the rescaled kernel list is the Chihara list
    at the mapped parameters.  Requires an exact map; otherwise raises
    ``IrrationalScale`` (use ``kernel_to_chihara_float`` with a 1e-12
    tolerance instead).
    """
    if not kmap.is_exact:
        raise IrrationalScale(
            "1 - c^2 is not a rational square at c = %s; "
            "use kernel_to_chihara_float (tolerance 1e-12)" % kmap.c
        )
    s = kmap.scale_exact
    targets = generate_monic(
        chihara_family(kmap.alpha, kmap.beta, kmap.gamma_exact), len(kernels) - 1
    )
    out: List[LaurentPoly] = []
    for n, kernel in enumerate(kernels):
        rescaled = kernel.substitute_affine(s, 0) * (Fraction(1) / s**n)
        out.append(rescaled - targets[n])
    return out


def kernel_to_chihara_float(kmap: KernelMap, kernels: Sequence[LaurentPoly]) -> List[float]:
    """Max absolute coefficient error of s^(-n) K_n(s x) against C_n, per n.

    The floating route for maps whose scale is irrational; coefficients of
    the rescaled kernel are K_n[j] * s^(j - n) evaluated in double precision.
    """
    s = kmap.scale_float
    gamma = kmap.gamma_float
    family = chihara_family(kmap.alpha, kmap.beta, 0)
    top = len(kernels) - 1
    # The float Chihara coefficients, with the irrational gamma in the diagonal.
    targets = float_monic([(-1) ** n * gamma for n in range(top)],
                          [float(family.sub(n)) for n in range(len(kernels))], top)
    out: List[float] = []
    for n, kernel in enumerate(kernels):
        worst = 0.0
        for j in range(n + 1):
            rescaled = float(kernel.coeff(j)) * s ** (j - n)
            worst = max(worst, abs(rescaled - targets[n][j]))
        out.append(worst)
    return out
