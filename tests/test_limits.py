"""Tests for the floating-point limit-process verifications.

Frozen numbers below were produced by an independent script that implemented
the three contractions from scratch (own tau/upsilon-nu/sigma formulas, own
float recurrence, own exact targets) and printed per-degree errors and
Richardson orders; the module under test must reproduce them:

  cbi (5, 3, 3/2, 1/2), steps 1e-3..1e-5:
      e_1(1e-3) = 1.250000e-4 (= b2*h/s exactly), e_6(1e-3) = 1.192155e-3,
      max coeff error(1e-3) = 4.425130e-4, all orders ~= 1.0000
  bigq (1, 1, 3/5): e_1(1e-3) = 1.750368e-3, max coeff error(1e-3)
      = 3.615937e-3, orders ~= 1.000
  beta (3/2, 1/2): e_2(1e-3) = 5.982054e-3, max coeff error(1e-3)
      = 3.570237e-2, diag channel exactly 0, orders ~= 0.9995-0.9999
  beta (mu=1): |beta*sigma_2 - 1| at beta=1e4 is 4.99788e-4
      (analytically (beta^2+beta)/((beta+5/2)(beta+7/2)) - 1)
  bigq wrong-sign control: odd-degree errors plateau near 2*gamma_C
      (order ~ -8e-5), even degrees still decay; the decay is not monotone,
      so the residual is 1.0 and the record fails.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklpoly.families import DegenerateParameters, FamilySpec, chihara_family
from dunklpoly.limits import (
    DEFAULT_STEPS,
    LIMIT_CASES,
    LIMIT_DEGREE_CAP,
    LIMIT_IDS,
    DegenerateStep,
    IrrationalScale,
    LimitCase,
    NOISE_FLOOR,
    SourceStep,
    limit_case,
    run_limit,
)
from dunklpoly.suites import ORDER_TOLERANCE, limit_check


# -- construction and validation ----------------------------------------------


def test_geometric_steps_default():
    # bit-identical to first * ratio**k, so the default records stay the same
    assert DEFAULT_STEPS == (1e-3, 1e-3 * 0.1, 1e-3 * 0.1**2)
    assert DEFAULT_STEPS[0] == pytest.approx(1e-3)
    assert DEFAULT_STEPS[1] / DEFAULT_STEPS[0] == pytest.approx(0.1)
    assert DEFAULT_STEPS[2] / DEFAULT_STEPS[1] == pytest.approx(0.1)
    for limit_id in LIMIT_IDS:
        assert limit_case(limit_id).steps == DEFAULT_STEPS


def test_limit_registry_builds_every_id():
    assert LIMIT_IDS == ("cbi_h_to_0", "bigq_q_to_minus1", "chihara_beta_to_inf")
    for limit_id, (defaults, _) in LIMIT_CASES.items():
        assert isinstance(limit_case(limit_id, **defaults), LimitCase), limit_id


@pytest.mark.parametrize("limit_id", LIMIT_IDS)
def test_limit_case_rejects_an_unknown_parameter(limit_id):
    with pytest.raises(TypeError, match="'nope'"):
        limit_case(limit_id, nope=1)


def _dummy_source(h):
    return SourceStep(FamilySpec("gegenbauer", (("alpha", 1.0), ("beta", 1.0))), 1.0)


_TARGET = chihara_family(1, 1, F(1, 2))


def test_case_rejects_short_step_list():
    with pytest.raises(ValueError):
        LimitCase(_dummy_source, _TARGET, 4, (1e-1, 1e-2))


def test_case_rejects_increasing_steps():
    with pytest.raises(ValueError):
        LimitCase(_dummy_source, _TARGET, 4, (1e-3, 1e-2, 1e-1))


def test_case_rejects_nonpositive_steps():
    with pytest.raises(ValueError, match="positive"):
        LimitCase(_dummy_source, _TARGET, 4, (1e-2, 1e-3, 0.0))


@pytest.mark.parametrize("steps", [
    (math.nan, math.nan, math.nan),
    (1e-3, 1e-4, 1e-5, math.nan),
    (math.inf, math.inf, math.inf),
    (math.inf, 1e-2, 1e-3),
])
def test_case_rejects_non_finite_steps(steps):
    # every comparison with nan is false, so "positive" alone lets nan in
    with pytest.raises(ValueError, match="finite and positive"):
        LimitCase(_dummy_source, _TARGET, 4, steps)


def test_case_rejects_non_geometric_steps():
    with pytest.raises(ValueError):
        LimitCase(_dummy_source, _TARGET, 4, (1e-1, 1e-2, 2e-3))


def test_case_rejects_zero_degree_cap():
    with pytest.raises(ValueError):
        LimitCase(_dummy_source, _TARGET, 0, (1e-1, 1e-2, 1e-3))


def test_cbi_case_default_target():
    case = limit_case("cbi_h_to_0")
    assert case.target.name == "chihara"
    assert case.target.p == {"alpha": F(0), "beta": F(2), "gamma": F(3, 4)}


def test_cbi_case_rejects_negative_gap():
    with pytest.raises(ValueError):
        limit_case("cbi_h_to_0", a1=3, a2=5)


def test_cbi_case_rejects_irrational_scale():
    with pytest.raises(IrrationalScale):
        limit_case("cbi_h_to_0", a1=2, a2=1)


def test_bigq_case_default_target():
    case = limit_case("bigq_q_to_minus1")
    assert case.target.p == {"alpha": F(1), "beta": F(1), "gamma": F(3, 4)}


def test_bigq_case_rejects_large_g():
    with pytest.raises(ValueError):
        limit_case("bigq_q_to_minus1", g=F(7, 5))


def test_bigq_case_rejects_irrational_scale():
    with pytest.raises(IrrationalScale):
        limit_case("bigq_q_to_minus1", g=F(1, 3))


def test_beta_case_default_target():
    case = limit_case("chihara_beta_to_inf")
    assert case.target.name == "ext_hermite"
    assert case.target.p == {"mu": F(3, 2), "gamma": F(1, 2)}


def test_source_params_echo():
    step = limit_case("cbi_h_to_0").source(1e-3)
    assert step.family.name == "cbi"
    p = step.family.p
    assert p["rho1"] == pytest.approx(5001.5)
    assert p["rho2"] == pytest.approx(3000.5)
    assert p["r1"] == pytest.approx(5000.0)
    assert p["r2"] == pytest.approx(3000.0)
    assert step.rescale == pytest.approx(4000.0)


# Reference source models written out independently of ``families``: the
# step -> parameter maps and the float recurrence coefficients, in the
# operation order the coefficient table must keep for the limit records to
# stay bit-identical.


def _old_cbi_source(h, a1=5.0, a2=3.0, b1=1.5, b2=0.5):
    p = {"rho1": a1 / h + b1, "rho2": a2 / h + b2, "r1": a1 / h, "r2": a2 / h}

    def tau(n):
        rho1, rho2, r1, r2 = p["rho1"], p["rho2"], p["r1"], p["r2"]
        g = rho1 + rho2 - r1 - r2
        m = n // 2
        if n % 2 == 0:
            return -F(m) * (m + rho1 - r1 + F(1, 2)) * (
                m + rho1 - r2 + F(1, 2)
            ) * (m - r1 - r2) / ((2 * m + g) * (2 * m + g + 1))
        return -(m + g + 1) * (m + rho1 + rho2 + 1) * (m + rho2 - r1 + F(1, 2)) * (
            m + rho2 - r2 + F(1, 2)
        ) / ((2 * m + g + 1) * (2 * m + g + 2))

    return (lambda n: (-1) ** n * p["rho2"],
            lambda n: 0.0 if n == 0 else float(tau(n)))


def _old_bigq_params(eps, alpha=1.0, beta=1.0, g=0.6, sign=-1.0):
    return {
        "qalpha": math.exp(2 * eps * beta),
        "qbeta": -math.exp(eps * (2 * alpha + 1)),
        "qgamma": sign * g,
        "q": -math.exp(eps),
    }


def _old_bigq_source(eps, alpha=1.0, beta=1.0, g=0.6):
    p = _old_bigq_params(eps, alpha, beta, g)

    def ac(n):
        al, be, ga, q = p["qalpha"], p["qbeta"], p["qgamma"], p["q"]
        qn = q**n
        ups = (1 - al * qn * q) * (1 - al * be * qn * q) * (1 - ga * qn * q) / (
            (1 - al * be * qn * qn * q) * (1 - al * be * qn * qn * q * q)
        )
        nu = -al * ga * qn * q * (1 - qn) * (1 - al * be * qn / ga) * (1 - be * qn) / (
            (1 - al * be * qn * qn) * (1 - al * be * qn * qn * q)
        )
        return ups, nu

    return (lambda n: float(1 - sum(ac(n))),
            lambda n: 0.0 if n == 0 else float(ac(n - 1)[0] * ac(n)[1]))


def _old_beta_source(h, mu=1.5, gamma=0.5):
    p = {"alpha": mu - 0.5, "beta": 1.0 / h, "gamma": gamma * math.sqrt(h)}

    def sigma(n):
        alpha, beta = p["alpha"], p["beta"]
        m = n // 2
        if n % 2 == 0:
            return F(m) * (m + beta) / ((2 * m + alpha + beta) * (2 * m + alpha + beta + 1))
        return (m + alpha + 1) * (m + alpha + beta + 1) / (
            (2 * m + alpha + beta + 1) * (2 * m + alpha + beta + 2)
        )

    return (lambda n: (-1) ** n * p["gamma"],
            lambda n: 0.0 if n == 0 else float(sigma(n)))


@pytest.mark.parametrize("case, old", [
    (limit_case("cbi_h_to_0"), _old_cbi_source),
    (limit_case("cbi_h_to_0", a1=13, a2=5, b1=F(3, 4), b2=F(5, 2)),
     lambda h: _old_cbi_source(h, 13.0, 5.0, 0.75, 2.5)),
    (limit_case("bigq_q_to_minus1"), _old_bigq_source),
    (limit_case("bigq_q_to_minus1", alpha=F(1, 2), beta=3, g=F(5, 13)),
     lambda eps: _old_bigq_source(eps, 0.5, 3.0, 5 / 13)),
    (limit_case("chihara_beta_to_inf"), _old_beta_source),
    (limit_case("chihara_beta_to_inf", mu=F(3, 4), gamma=F(-2)),
     lambda h: _old_beta_source(h, 0.75, -2.0)),
], ids=["cbi", "cbi-13-5", "bigq", "bigq-5/13", "beta", "beta-3/4"])
def test_source_coefficients_bit_identical_to_former_closures(case, old):
    for h in (0.3, 1e-2, 1e-3, 1e-4, 1e-5, 1e-7):
        family = case.source(h).family
        old_diag, old_sub = old(h)
        for n in range(13):
            assert family.diag(n) == old_diag(n), (h, n)
            assert family.sub(n) == old_sub(n), (h, n)


# -- frozen convergence numbers ------------------------------------------------


def test_cbi_frozen_errors():
    report = run_limit(limit_case("cbi_h_to_0"))
    first = report.results[0]
    assert first.step == pytest.approx(1e-3)
    # degree-1 error is exactly |b2*h/s| = 0.5e-3/4
    assert first.poly_errors[1] == pytest.approx(1.25e-4, rel=1e-6)
    assert first.poly_errors[6] == pytest.approx(1.192155e-3, rel=1e-4)
    assert first.max_coeff_error == pytest.approx(4.425130e-4, rel=1e-4)
    assert report.monotone_ok and report.residual <= ORDER_TOLERANCE


def test_bigq_frozen_errors():
    report = run_limit(limit_case("bigq_q_to_minus1"))
    first = report.results[0]
    assert first.poly_errors[1] == pytest.approx(1.750368e-3, rel=1e-4)
    assert first.max_coeff_error == pytest.approx(3.615937e-3, rel=1e-4)
    assert report.monotone_ok and report.residual <= ORDER_TOLERANCE


def test_beta_frozen_errors():
    report = run_limit(limit_case("chihara_beta_to_inf"))
    first = report.results[0]
    assert first.poly_errors[2] == pytest.approx(5.982054e-3, rel=1e-4)
    assert first.max_coeff_error == pytest.approx(3.570237e-2, rel=1e-4)
    assert report.monotone_ok and report.residual <= ORDER_TOLERANCE


def _default_cases():
    return {limit_id: limit_case(limit_id) for limit_id in LIMIT_IDS}


def test_default_cases_all_converge_with_unit_order():
    for limit_id, case in _default_cases().items():
        report = run_limit(case)
        assert report.monotone_ok, limit_id
        for p in report.poly_orders:
            if p is not None:
                assert 0.99 <= p <= 1.01
        assert 0.99 <= report.coeff_order <= 1.01
        assert 0.99 <= report.overall_order <= 1.01
        assert report.residual <= 0.01, limit_id


def test_max_errors_decrease():
    for case in _default_cases().values():
        errs = [step.max_poly_error for step in run_limit(case).results]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_monotone_decay_on_longer_grid():
    for limit_id in LIMIT_IDS:
        case = limit_case(limit_id, steps=tuple(1e-2 * 0.1**k for k in range(5)))
        report = run_limit(case)
        assert report.monotone_ok, limit_id
        for n in range(1, case.degree_cap + 1):
            series = [r.poly_errors[n] for r in report.results]
            for k in range(1, len(series) - 1):
                assert series[k + 1] < series[k] or series[k + 1] <= NOISE_FLOOR


# -- the residual the limits record is built from ----------------------------------


def _reference_residual(report, cap):
    """The residual recomputed from the per-step errors alone: the worst
    |order - 1| over every computable order of degrees 0..cap, the
    coefficient order and the overall order, or 1.0 when the errors of
    degrees 1..min(cap, 6) or of the coefficients do not decay after the
    first step, or no order is computable."""
    coarse, fine = report.results[-2], report.results[-1]
    ratio = fine.step / coarse.step

    def order(a, b):
        if a <= NOISE_FLOOR or b <= NOISE_FLOOR:
            return None
        return math.log(a / b) / math.log(1.0 / ratio)

    def decays(series):
        return all(b <= NOISE_FLOOR or b < a for a, b in zip(series[1:], series[2:]))

    orders = [order(coarse.poly_errors[n], fine.poly_errors[n]) for n in range(cap + 1)]
    orders += [order(coarse.max_coeff_error, fine.max_coeff_error),
               order(coarse.max_poly_error, fine.max_poly_error)]
    orders = [o for o in orders if o is not None]
    monotone = all(decays([r.poly_errors[n] for r in report.results])
                   for n in range(1, min(cap, 6) + 1))
    monotone = monotone and decays([r.max_coeff_error for r in report.results])
    return max(abs(o - 1.0) for o in orders) if monotone and orders else 1.0


def _assert_residual_matches_record(limit_id, cap, steps):
    report, record = limit_check(limit_id, cap, steps)
    assert report.residual == _reference_residual(report, cap)
    assert record.residual == repr(report.residual)
    assert record.outcome == ("float_pass" if report.residual <= ORDER_TOLERANCE
                              else "fail")


@pytest.mark.parametrize("limit_id", LIMIT_IDS)
def test_residual_is_the_record_residual_on_default_cases(limit_id):
    _assert_residual_matches_record(limit_id, 6, None)


@settings(max_examples=25, deadline=None)
@given(
    limit_id=st.sampled_from(LIMIT_IDS),
    cap=st.integers(1, 12),
    first=st.floats(1e-4, 5e-2),
    ratio=st.floats(0.1, 0.7),
    count=st.integers(3, 5),
)
def test_residual_is_the_record_residual_on_drawn_grids(limit_id, cap, first, ratio, count):
    _assert_residual_matches_record(
        limit_id, cap, tuple(first * ratio**k for k in range(count)))


# -- the beta -> infinity dual check -------------------------------------------


def test_beta_case_checks_both_coefficient_and_polynomial_limits():
    report = run_limit(limit_case("chihara_beta_to_inf"))
    for result in report.results:
        beta = 1.0 / result.step
        # diagonal is reproduced exactly by the rescaling (pure rounding)
        assert max(result.diag_errors) <= NOISE_FLOOR
        # beta*sigma_{2m} -> m and beta*sigma_{2m+1} -> m + mu + 1/2,
        # with error bounded by C/beta
        assert max(result.sub_errors) <= 400.0 / beta
        # polynomial limit is tracked as well and is nontrivial
        assert result.poly_errors[2] > NOISE_FLOOR
    assert report.coeff_order is not None


def test_beta_sigma_bound_at_beta_1e4():
    # alpha = mu - 1/2 = 1/2: |beta*sigma_2(beta) - 1| at beta = 1e4 equals
    # 1 - (beta^2+beta)/((beta+5/2)(beta+7/2)) = 4.99788e-4 <= 1e-3
    report = run_limit(limit_case("chihara_beta_to_inf", mu=1, gamma=F(1, 2)))
    middle = report.results[1]
    assert middle.step == pytest.approx(1e-4)
    assert middle.sub_errors[2] == pytest.approx(4.99788e-4, rel=1e-3)
    assert middle.sub_errors[2] <= 1e-3


# -- negative control and degeneracies ------------------------------------------


def test_wrong_gamma_sign_flagged_as_non_convergent():
    # the default q -> -1 case with qgamma = +g in place of -g
    def wrong_sign(eps):
        params = _old_bigq_params(eps, sign=1.0)
        return SourceStep(FamilySpec("big_q_jacobi", tuple(sorted(params.items()))), 0.8)

    case = LimitCase(wrong_sign, chihara_family(1, 1, F(3, 4)), LIMIT_DEGREE_CAP,
                     DEFAULT_STEPS)
    report = run_limit(case)
    # the decay is not monotone, so the residual is 1.0 and fails the
    # tolerance the limits record is built against
    assert not report.monotone_ok
    assert report.residual == 1.0 > ORDER_TOLERANCE
    # odd degrees plateau at O(1): order collapses to ~0
    assert abs(report.poly_orders[1]) < 0.1
    assert report.results[-1].poly_errors[1] > 1.0
    # even degrees still decay; the flag comes from the odd channel
    assert report.poly_orders[2] == pytest.approx(1.0, abs=0.05)


def _float_source_case(name, params):
    family = FamilySpec(name, tuple(sorted(params.items())))
    return LimitCase(lambda h: SourceStep(family, 1.0), _TARGET, 4, (1e-1, 1e-2, 1e-3))


def test_degenerate_source_diag_raises():
    # qalpha * qbeta * q = 1 zeroes the upsilon_0 denominator of big q-Jacobi
    case = _float_source_case(
        "big_q_jacobi", {"qalpha": 2.0, "qbeta": 0.25, "qgamma": 0.5, "q": 2.0})
    with pytest.raises(DegenerateStep, match=r"source diag\(0\) denominator vanishes"):
        run_limit(case)


def test_non_finite_source_sub_raises():
    case = _float_source_case(
        "cbi", {"rho1": math.inf, "rho2": 1.0, "r1": 0.5, "r2": 0.25})
    with pytest.raises(DegenerateStep, match=r"source sub\(1\) is not finite"):
        run_limit(case)


def test_underflowing_rescale_square_raises_degenerate_step():
    # sigma = 4/h = 4e-200 at h = 1e200: sigma^2 underflows to 0
    with pytest.raises(DegenerateStep, match=r"rescale factor squared underflows at step 1e\+200"):
        run_limit(limit_case("cbi_h_to_0", degree_cap=1, steps=(1e200, 1e199, 1e198)))


def test_overflowing_steps_raise_degenerate_step():
    # tau ~ (a1*a2)/h^2 overflows past 1e308 for h ~ 1e-155
    with pytest.raises(DegenerateStep):
        run_limit(limit_case("cbi_h_to_0", steps=(1e-155, 1e-156, 1e-157)))


def test_degenerate_target_raises_family_error():
    # b1 = -5/2 makes the *target* chihara(0, -2, 3/4) recurrence degenerate
    with pytest.raises(DegenerateParameters):
        run_limit(limit_case("cbi_h_to_0", b1=F(-5, 2)))


# -- property: the contractions converge across the parameter windows -----------

_PYTHAGOREAN = [(F(5), F(3)), (F(13), F(5)), (F(5), F(4)), (F(25), F(7))]
_RATIONAL_G = [F(3, 5), F(5, 13), F(8, 17), F(4, 5)]


@settings(max_examples=10, deadline=None)
@given(
    pair=st.sampled_from(_PYTHAGOREAN),
    b1=st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4),
    b2=st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4),
)
def test_cbi_property_monotone_and_at_least_first_order(pair, b1, b2):
    report = run_limit(limit_case("cbi_h_to_0", a1=pair[0], a2=pair[1], b1=b1, b2=b2,
                                  degree_cap=4))
    assert report.monotone_ok
    for p in report.poly_orders:
        if p is not None:
            assert p >= 0.8


@settings(max_examples=10, deadline=None)
@given(
    g=st.sampled_from(_RATIONAL_G),
    alpha=st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4),
    beta=st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4),
)
def test_bigq_property_monotone_and_at_least_first_order(g, alpha, beta):
    report = run_limit(limit_case("bigq_q_to_minus1", alpha=alpha, beta=beta, g=g, degree_cap=4))
    assert report.monotone_ok
    for p in report.poly_orders:
        if p is not None:
            assert p >= 0.8


@settings(max_examples=10, deadline=None)
@given(
    mu=st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4),
    gamma=st.fractions(min_value=F(-2), max_value=F(2), max_denominator=4),
)
def test_beta_property_monotone_and_at_least_first_order(mu, gamma):
    report = run_limit(limit_case("chihara_beta_to_inf", mu=mu, gamma=gamma, degree_cap=4))
    assert report.monotone_ok
    for p in report.poly_orders:
        if p is not None:
            assert p >= 0.8
