"""Weights, quadrature orthogonality, norms, and the weight equation.

The Chihara weight lives on two symmetric intervals
[-sqrt(1+gamma^2), -|gamma|] U [|gamma|, sqrt(1+gamma^2)]; the package
reduces such two-interval integrals to classical Jacobi-type moments and
evaluates them with Gauss quadrature built from scratch (tridiagonal QL
eigensolver, no external numerics).  This demo shows:

* the Gram matrix of the first members is diagonal to ~1e-15,
* quadrature norm ratios reproduce the exact ones, the recurrence
  coefficients sub(n),
* the weight satisfies its first-order (Pearson-type) equation exactly
  as a rational-function identity, plus a reflection symmetry check.
"""

from fractions import Fraction as F

from dunklpoly.families import chihara_family, pearson_weight_equation
from dunklpoly.quad import (
    gram_matrix,
    gram_offdiag_worst,
    norm_ratio_check,
    verify_pearson,
    weight_for,
)


def main() -> None:
    family = chihara_family(alpha=1, beta=2, gamma=F(1, 3))
    spec = weight_for(family)
    print(f"weight for {family.name} ({family.label()}):")
    print(f"  support: {spec.support}")
    print(f"  sample values: w(0.5) = {spec.weight_value(0.5):.6f}, "
          f"w(0.9) = {spec.weight_value(0.9):.6f}")
    print()

    gram = gram_matrix(spec, 8)
    print("Gram matrix of P_0..P_8 under the quadrature inner product:")
    print(f"  worst off-diagonal (relative): {gram_offdiag_worst(gram):.3e}")
    print(f"  sample diagonal entries: h_0 = {gram[0][0]:.6f}, "
          f"h_1 = {gram[1][1]:.6f}, h_2 = {gram[2][2]:.6f}")
    print()

    print("norm ratios h_n/h_(n-1): quadrature vs exact closed form:")
    for n in (1, 2, 3, 4):
        exact, quad = family.sub(n), norm_ratio_check(spec, n)
        print(f"  n={n}: exact {str(exact):>8s} = {float(exact):.12f}   "
              f"quadrature {quad:.12f}")
    print()

    samples = len(list(spec.midpoints(10)))
    print("weight-equation verification:")
    print(f"  first-order equation holds exactly: {pearson_weight_equation(family)}")
    print(f"  reflection residual over {samples} samples: "
          f"{verify_pearson(family, samples_per_side=10):.3e}")


if __name__ == "__main__":
    main()
