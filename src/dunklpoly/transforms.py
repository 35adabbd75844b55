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

and f_n = (1 - c^2) sigma_n(alpha, beta), where sigma_n is the Chihara
sub-diagonal at

    alpha = b/2 - 1/2,   beta = a/2 + 1/2.

So K_n = s^n C_n(x/s; alpha, beta, -c/s) with s = sqrt(1 - c^2): the kernel
list is the Chihara list at gamma = -c/s, rescaled.  sigma_n does not
depend on gamma, and the rescaled list has the recurrence above, whose
coefficients are rational for every rational c with |c| < 1 even where s
is not.  ``kernel_to_chihara`` builds the rescaled targets from that
recurrence with ``families.monic_list``, the loop behind every exact monic
list, and compares them with the kernels exactly, coefficient by
coefficient (Vinet-Zhedanov, Trans. AMS 364 (2012); Chihara 1978, ch. I).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exactnum import LaurentPoly, Scalar, _as_fraction, poly_exact_div
from .families import FamilySpec, big_m1_jacobi_AC, chihara_family, monic_list


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


# -- parameter map ---------------------------------------------------------------


@dataclass(frozen=True)
class KernelMap:
    """Parameter map from a big -1 Jacobi triple to its Chihara image.

    ``alpha = b/2 - 1/2`` and ``beta = a/2 + 1/2``; the image's
    ``gamma = -c/s`` enters only through the rescaled recurrence, which
    needs c and s^2 = 1 - c^2 alone.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    alpha: Fraction
    beta: Fraction


def kernel_map(a: Scalar, b: Scalar, c: Scalar) -> KernelMap:
    """Build the parameter map for source parameters (a, b, c), |c| < 1."""
    a, b, c = _as_fraction(a), _as_fraction(b), _as_fraction(c)
    if not abs(c) < 1:
        raise ValueError("kernel map requires |c| < 1")
    return KernelMap(a=a, b=b, c=c, alpha=b / 2 - Fraction(1, 2), beta=a / 2 + Fraction(1, 2))


def kernel_to_chihara(kmap: KernelMap, kernels: Sequence[LaurentPoly]) -> List[LaurentPoly]:
    """Residuals K_n - s^n C_n(x/s; alpha, beta, -c/s), all exact.

    The targets come from their monic recurrence, diag(n) = (-1)^(n+1) c
    and sub(n) = (1 - c^2) sigma_n(alpha, beta).  Zero residuals certify
    that the kernel list is the rescaled Chihara list at the mapped
    parameters.
    """
    if not kernels:
        return []
    c, s_squared = kmap.c, 1 - kmap.c * kmap.c
    sigma = chihara_family(kmap.alpha, kmap.beta, 0)
    targets = monic_list(
        lambda n: ((-1) ** (n + 1) * c, s_squared * sigma.sub(n)), len(kernels) - 1)
    return [kernel - target for kernel, target in zip(kernels, targets)]
