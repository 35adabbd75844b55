"""Exact construction and verification toolkit for -1 orthogonal polynomials.

The package builds the Chihara family and its relatives (complementary
Bannai-Ito, big -1 Jacobi, generalized Gegenbauer/Hermite, and the
two-parameter symmetric extension) as exact monic polynomials, realizes
their Dunkl-type eigenvalue operators symbolically, and verifies the
defining identities: eigen-equations, operator algebra relations,
orthogonality and norms, weight-function equations, kernel transforms,
and contraction limits.

Layering:

* :mod:`dunklpoly.exactnum`    exact Laurent polynomials / rational functions
* :mod:`dunklpoly.families`    recurrences and explicit hypergeometric forms
* :mod:`dunklpoly.dunklop`     reflection operators and algebra relations
* :mod:`dunklpoly.transforms`  Christoffel/Geronimus kernel transforms
* :mod:`dunklpoly.quad`        weights, Gauss quadrature, norms, Pearson
* :mod:`dunklpoly.limits`      contraction limits with convergence orders
* :mod:`dunklpoly.report`      verification records and serialization
* :mod:`dunklpoly.suites`      the check layer and the pinned suites over it
* :mod:`dunklpoly.cli`         command-line driver (``dunklpoly``)
"""

from .exactnum import LaurentPoly, NotDivisible, NotPolynomial, RatFunc
from .families import (
    DegenerateParameters,
    FamilySpec,
    big_m1_jacobi_family,
    big_q_jacobi_family,
    cbi_family,
    chihara_family,
    explicit_poly,
    ext_hermite_family,
    gegenbauer_family,
    gen_hermite_family,
    generate_monic,
    recurrence_coeffs,
)
from .dunklop import (
    ALGEBRAS,
    EIGEN_OPERATORS,
    DunklOperator,
    GaussianPoly,
    algebra_relations,
    build_operator,
    eigencheck,
    expected_eigenvalue,
    verify_algebra,
)
from .report import VerificationRecord, emit, parse
from .suites import ALL_SUITES, SUITE_NAMES, run_suites

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "RatFunc",
    "NotPolynomial",
    "NotDivisible",
    "DegenerateParameters",
    "FamilySpec",
    "chihara_family",
    "gegenbauer_family",
    "cbi_family",
    "ext_hermite_family",
    "gen_hermite_family",
    "big_m1_jacobi_family",
    "big_q_jacobi_family",
    "generate_monic",
    "explicit_poly",
    "recurrence_coeffs",
    "DunklOperator",
    "GaussianPoly",
    "build_operator",
    "expected_eigenvalue",
    "eigencheck",
    "algebra_relations",
    "verify_algebra",
    "ALGEBRAS",
    "EIGEN_OPERATORS",
    "VerificationRecord",
    "emit",
    "parse",
    "ALL_SUITES",
    "SUITE_NAMES",
    "run_suites",
    "__version__",
]
