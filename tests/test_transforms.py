"""Transform tests: kernel construction, round-trip, and the Chihara map."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklpoly.exactnum import LaurentPoly, NotDivisible
from dunklpoly.families import (
    big_m1_jacobi_family,
    chihara_family,
    generate_monic,
    recurrence_coeffs,
)
from dunklpoly.transforms import (
    christoffel,
    extract_recurrence,
    geronimus,
    kernel_map,
    kernel_recurrence_coeffs,
    kernel_to_chihara,
    split_ratios,
)

PARAM_SETS = [
    (F(1), F(1), F(3, 5)),
    (F(1, 2), F(3, 4), F(1, 3)),
    (F(2), F(1), F(5, 13)),
]


def kernel_pipeline(a, b, c, N):
    fam = big_m1_jacobi_family(a, b, c)
    polys = generate_monic(fam, N + 1)
    A, C = split_ratios(fam, N + 1)
    return fam, polys, christoffel(polys, A), A, C


# -- worked values ---------------------------------------------------------------


def test_source_polynomials_worked_values():
    fam = big_m1_jacobi_family(1, 1, F(3, 5))
    polys = generate_monic(fam, 2)
    assert polys[1] == LaurentPoly({1: F(1), 0: F(-1, 5)})
    assert polys[2] == LaurentPoly({2: F(1), 1: F(-2, 15), 0: F(-49, 75)})


def test_christoffel_worked_values():
    _, _, kernels, _, _ = kernel_pipeline(1, 1, F(3, 5), 4)
    assert kernels[0] == LaurentPoly.one()
    assert kernels[1] == LaurentPoly({1: F(1), 0: F(3, 5)})


def test_geronimus_undoes_christoffel_worked_value():
    _, polys, kernels, _, C = kernel_pipeline(1, 1, F(3, 5), 4)
    assert kernels[1] - C[1] * kernels[0] == polys[1]
    assert geronimus(kernels, C) == polys[: len(kernels)]


@pytest.mark.parametrize("a,b,c", PARAM_SETS)
def test_round_trip_exact(a, b, c):
    _, polys, kernels, _, C = kernel_pipeline(a, b, c, 12)
    assert geronimus(kernels, C) == polys[: len(kernels)]


@pytest.mark.parametrize("a,b,c", PARAM_SETS)
def test_ratio_is_value_ratio_at_kernel_point(a, b, c):
    fam = big_m1_jacobi_family(a, b, c)
    polys = generate_monic(fam, 13)
    A, _ = split_ratios(fam, 12)
    for n in range(13):
        assert polys[n + 1].evaluate(1) == A[n] * polys[n].evaluate(1)


# -- kernel recurrence ------------------------------------------------------------


@pytest.mark.parametrize("a,b,c", PARAM_SETS)
def test_kernel_recurrence_recovered_from_output(a, b, c):
    _, _, kernels, A, C = kernel_pipeline(a, b, c, 13)
    diags, subs = extract_recurrence(kernels)
    for n in range(len(diags)):
        diag_ref, sub_ref = kernel_recurrence_coeffs(a, b, c, n)
        assert diags[n] == diag_ref == (-1) ** (n + 1) * c
        assert subs[n] == sub_ref
        if n >= 1:
            assert sub_ref == A[n] * C[n]


def test_extract_recurrence_matches_source_family():
    fam = big_m1_jacobi_family(F(1, 2), F(3, 4), F(1, 3))
    polys = generate_monic(fam, 9)
    diags, subs = extract_recurrence(polys)
    for n in range(9):
        diag_ref, sub_ref = recurrence_coeffs(fam, n)
        assert diags[n] == diag_ref
        assert subs[n] == sub_ref


def test_extract_recurrence_rejects_non_recurrent_lists():
    polys = [LaurentPoly.one(), LaurentPoly.x(), LaurentPoly({2: F(1), 0: F(1)}), LaurentPoly({3: F(1), 2: F(5)})]
    with pytest.raises(ValueError):
        extract_recurrence(polys)


# -- parameter map -----------------------------------------------------------------


def test_kernel_map_exact_at_rational_scale():
    kmap = kernel_map(1, 1, F(3, 5))
    assert (kmap.a, kmap.b, kmap.c) == (1, 1, F(3, 5))
    assert kmap.alpha == 0
    assert kmap.beta == 1


def test_kernel_map_rejects_large_c():
    with pytest.raises(ValueError):
        kernel_map(1, 1, F(7, 5))


@pytest.mark.parametrize("c", [F(3, 5), F(5, 13), F(8, 17)])
def test_kernel_to_chihara_exact(c):
    _, _, kernels, _, _ = kernel_pipeline(F(1), F(1), c, 12)
    residuals = kernel_to_chihara(kernel_map(1, 1, c), kernels)
    assert all(r.is_zero for r in residuals)


def test_kernel_to_chihara_symmetric_point():
    _, _, kernels, _, _ = kernel_pipeline(F(3, 2), F(1, 2), F(0), 10)
    kmap = kernel_map(F(3, 2), F(1, 2), 0)
    residuals = kernel_to_chihara(kmap, kernels)
    assert all(r.is_zero for r in residuals)
    # at c = 0 the targets are the Chihara list itself, gamma = 0 and s = 1
    chihara = generate_monic(chihara_family(kmap.alpha, kmap.beta, 0), 10)
    assert [k - r for k, r in zip(kernels, residuals)] == chihara


@pytest.mark.parametrize("c", [F(1, 3), F(-2, 7), F(1, 2)])
def test_kernel_to_chihara_exact_at_irrational_scale(c):
    """1 - c^2 is not a rational square, and the map is still exact."""
    _, _, kernels, _, _ = kernel_pipeline(F(1, 2), F(3, 4), c, 24)
    residuals = kernel_to_chihara(kernel_map(F(1, 2), F(3, 4), c), kernels)
    assert len(residuals) == 25
    assert all(r.is_zero for r in residuals)


def test_kernel_to_chihara_detects_wrong_c():
    """Kernels at c checked against the map at c + 1/100 leave a residual."""
    c = F(1, 3)
    _, _, kernels, _, _ = kernel_pipeline(F(1), F(1), c, 12)
    residuals = kernel_to_chihara(kernel_map(1, 1, c + F(1, 100)), kernels)
    assert residuals[0].is_zero
    assert all(not r.is_zero for r in residuals[1:])


@pytest.mark.parametrize("a,b,c", PARAM_SETS)
def test_mapped_sub_coefficients_consistent(a, b, c):
    """Chihara sub at the mapped parameters times (1 - c^2) equals kernel sub."""
    kmap = kernel_map(a, b, c)
    fam = chihara_family(kmap.alpha, kmap.beta, 0)
    for n in range(1, 13):
        _, sub_kernel = kernel_recurrence_coeffs(a, b, c, n)
        assert fam.sub(n) * (1 - c * c) == sub_kernel


def test_mapped_sigma_worked_value():
    # c = 3/5: sigma_1 at (alpha, beta) = (0, 1) is 1/3 and f_1 = (1 - c^2)/3.
    kmap = kernel_map(1, 1, F(3, 5))
    fam = chihara_family(kmap.alpha, kmap.beta, F(-3, 4))
    assert fam.sub(1) == F(1, 3)
    assert kernel_recurrence_coeffs(1, 1, F(3, 5), 1)[1] == F(1, 3) * (1 - F(9, 25))


# -- negative controls ---------------------------------------------------------------


def test_perturbed_ratio_breaks_divisibility():
    fam = big_m1_jacobi_family(1, 1, F(3, 5))
    polys = generate_monic(fam, 5)
    A, _ = split_ratios(fam, 4)
    A[2] += 1
    with pytest.raises(NotDivisible):
        christoffel(polys, A)


def test_split_ratios_rejects_wrong_family():
    with pytest.raises(ValueError):
        split_ratios(chihara_family(1, 1, F(1, 2)), 4)


def test_christoffel_needs_enough_ratios():
    fam = big_m1_jacobi_family(1, 1, F(3, 5))
    polys = generate_monic(fam, 5)
    with pytest.raises(ValueError):
        christoffel(polys, [F(4, 5)])


# -- properties -----------------------------------------------------------------------


small_rationals = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6)
inner_c = st.fractions(min_value=F(-4, 5), max_value=F(4, 5), max_denominator=7)


@settings(deadline=None, max_examples=40)
@given(a=small_rationals, b=small_rationals, c=inner_c)
def test_round_trip_property(a, b, c):
    fam = big_m1_jacobi_family(a, b, c)
    polys = generate_monic(fam, 7)
    A, C = split_ratios(fam, 7)
    kernels = christoffel(polys, A)
    assert geronimus(kernels, C) == polys[: len(kernels)]


@settings(deadline=None, max_examples=40)
@given(a=small_rationals, b=small_rationals, c=inner_c)
def test_kernel_recurrence_property(a, b, c):
    fam = big_m1_jacobi_family(a, b, c)
    polys = generate_monic(fam, 8)
    A, _ = split_ratios(fam, 8)
    kernels = christoffel(polys, A)
    diags, subs = extract_recurrence(kernels)
    for n in range(len(diags)):
        diag_ref, sub_ref = kernel_recurrence_coeffs(a, b, c, n)
        assert diags[n] == diag_ref
        assert subs[n] == sub_ref


@settings(deadline=None, max_examples=25)
@given(a=small_rationals, b=small_rationals, c=inner_c)
def test_kernel_to_chihara_property(a, b, c):
    fam = big_m1_jacobi_family(a, b, c)
    polys = generate_monic(fam, 9)
    A, _ = split_ratios(fam, 9)
    kernels = christoffel(polys, A)
    assert all(r.is_zero for r in kernel_to_chihara(kernel_map(a, b, c), kernels))
