"""Dunkl-type operators: eigen-equations and algebra relations.

The families are eigenfunctions of first- and second-order operators
built from derivatives, the reflection f(x) -> f(-x), and (for the shift
family) unit shifts.  All operator algebra here is symbolic and exact:
applying an operator to a polynomial gives another exact polynomial, so
an eigen-equation either has a literally zero residual or it fails.

The operators also close into a quadratic algebra together with the
parity involution; the structure relations of every algebra in
``ALGEBRAS`` are checked on all monomials up to a degree cap.
"""

from fractions import Fraction as F

from dunklpoly import (
    ALGEBRAS,
    GaussianPoly,
    algebra_relations,
    build_operator,
    chihara_family,
    eigencheck,
    expected_eigenvalue,
    gen_hermite_family,
    generate_monic,
    verify_algebra,
)


def main() -> None:
    alpha, beta, gamma, eps = F(1), F(1), F(1, 2), F(2, 3)
    family = chihara_family(alpha, beta, gamma)
    operator = build_operator("chihara_D", alpha=alpha, beta=beta,
                              gamma=gamma, eps=eps)
    polys = generate_monic(family, 6)

    print(f"eigen-equation sweep for the {family.name} eigenvalue operator")
    print(f"(parameters {family.label()}, reflection weight eps={eps}):")
    for n, poly in enumerate(polys):
        lam = expected_eigenvalue("chihara_D", n, alpha=alpha, beta=beta, eps=eps)
        residual = eigencheck(operator, poly, lam)
        print(f"  n={n}: eigenvalue {str(lam):>5s}  residual "
              f"{'= 0 exactly' if residual.is_zero else f'= {residual}'}")
    print()

    mu = F(3, 2)
    print(f"Gaussian-class eigenvectors (gen_hermite, mu={mu}):")
    print("  the oscillator operator acts on P_n(x) e^(-x^2/2); the residual")
    print("  is computed in that class without ever expanding the Gaussian.")
    osc = build_operator("gh_OmegaTilde", mu=mu, eps=F(1, 4))
    for n, poly in enumerate(generate_monic(gen_hermite_family(mu), 4)):
        lam = expected_eigenvalue("gh_OmegaTilde", n, mu=mu, eps=F(1, 4))
        residual = eigencheck(osc, GaussianPoly(poly), lam)
        print(f"  n={n}: eigenvalue {str(lam):>5s}  zero residual: {residual.is_zero}")
    print()

    values = {"alpha": alpha, "beta": beta, "gamma": gamma, "eps": eps, "mu": mu}
    for which, spec in ALGEBRAS.items():
        params = {name: values[name] for name in spec.params}
        K = build_operator(spec.operator, **params)
        P = build_operator("involution_P", gamma=params["gamma"])
        print(f"quadratic algebra relations of {which} on monomials up to degree 8:")
        for name, lhs, rhs in algebra_relations(which, K, P, **params):
            print(f"  {name:12s} holds: {verify_algebra(lhs, rhs, 8) is None}")


if __name__ == "__main__":
    main()
