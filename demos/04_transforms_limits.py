"""Kernel transforms and contraction limits.

Two ways the families are related to each other:

* The Christoffel transform at the point x = 1 maps the big -1 Jacobi
  polynomials to their kernel partners, and the Geronimus transform maps
  them back.  The kernel sequence is a rescaled Chihara sequence,
  K_n(x) = s^n C_n(x/s) with s = sqrt(1 - c^2) and gamma = -c/s; its
  recurrence needs only s^2, so the comparison is exact for every
  rational c, also where s is irrational (c = 1/3 below).  All of this
  is exact.

* Three parameter contractions connect the families analytically.  They
  involve irrational scalings, so they are verified in floating point on
  a geometric step grid: errors must shrink monotonically with empirical
  convergence order near 1.  ``limit_check`` runs one and writes its
  record; the record's outcome is the verdict printed below.
"""

from fractions import Fraction as F

from dunklpoly import big_m1_jacobi_family, generate_monic
from dunklpoly.suites import limit_check
from dunklpoly.transforms import (
    christoffel,
    geronimus,
    kernel_map,
    kernel_to_chihara,
    split_ratios,
)


def main() -> None:
    a, b, c = F(1), F(1), F(3, 5)
    family = big_m1_jacobi_family(a, b, c)
    print(f"kernel transform demo for {family.name} ({family.label()}):")
    polys = generate_monic(family, 9)
    a_ratios, c_ratios = split_ratios(family, 9)
    kernels = christoffel(polys, a_ratios)
    back = geronimus(kernels, c_ratios)
    print(f"  round trip P -> K -> P exact for n <= 8: "
          f"{all(back[n] == polys[n] for n in range(9))}")

    for c in (F(3, 5), F(1, 3)):
        family = big_m1_jacobi_family(a, b, c)
        kernels = christoffel(generate_monic(family, 9), split_ratios(family, 9)[0])
        kmap = kernel_map(a, b, c)
        residuals = kernel_to_chihara(kmap, kernels)
        print(f"  c = {c}: K_n = s^n C_n(x/s; alpha={kmap.alpha}, beta={kmap.beta}, "
              f"gamma=-c/s), s^2 = {1 - c * c}: {all(r.is_zero for r in residuals)}")
    print()

    print("contraction limit: shift family -> Chihara (step h -> 0):")
    report, record = limit_check("cbi_h_to_0")
    for result in report.results:
        print(f"  h = {result.step:.0e}:  max poly error "
              f"{result.max_poly_error:.3e}")
    print(f"  empirical overall order: {report.overall_order:.3f} "
          f"(converged: {record.outcome != 'fail'})")
    print()

    print("contraction limit: big q-Jacobi at q -> -1 (step eps -> 0):")
    report, record = limit_check("bigq_q_to_minus1")
    for result in report.results:
        print(f"  eps = {result.step:.0e}:  max poly error "
              f"{result.max_poly_error:.3e}")
    print(f"  empirical overall order: {report.overall_order:.3f} "
          f"(converged: {record.outcome != 'fail'})")


if __name__ == "__main__":
    main()
