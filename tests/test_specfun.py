"""Special-function layer: polygamma values against independent series
oracles and frozen high-precision references, the inverse trigamma, the
degree-7 roughness polynomial, and the F-distribution quantile."""

import math

import numpy as np
import pytest
from scipy.special import psi

from g0lcum import specfun
from g0lcum.specfun import (
    DegenerateLeadingCoefficientError,
    NoBracketError,
    f_cdf,
    f_quantile,
    ln_gamma,
    negative_real_mask,
    roughness_companions,
    roughness_polynomial,
    solve_roughness_polynomial,
    trigamma,
    trigamma_approx,
    trigamma_inverse_bracketed,
)

# Frozen references computed with mpmath at 40 decimal digits.
DIGAMMA_REF = {
    0.5: -1.9635100260214234794,
    1.0: -0.57721566490153286061,
    2.0: 0.42278433509846713939,
    3.7: 1.1671535393615114409,
    10.0: 2.2517525890667211076,
    57.5: 4.0430640916027097178,
}
TRIGAMMA_REF = {
    0.5: 4.9348022005446793094,
    1.0: 1.6449340668482264365,
    2.0: 0.64493406684822643647,
    3.7: 0.31003785767003830216,
    10.0: 0.10516633568168574612,
    57.5: 0.017543409716574620734,
}


class TestPolygamma:
    def test_digamma_frozen_values(self):
        """The scale estimate's digamma is scipy's psi."""
        for x, ref in DIGAMMA_REF.items():
            assert psi(x) == pytest.approx(ref, rel=1e-13, abs=1e-14)

    def test_trigamma_frozen_values(self):
        for x, ref in TRIGAMMA_REF.items():
            assert trigamma(x) == pytest.approx(ref, rel=1e-13)

    def test_digamma_identities(self):
        """psi(x+1) = psi(x) + 1/x and psi(1) = -euler_mascheroni, for psi
        and for its series oracle."""
        for digamma in (psi, specfun.digamma_series_oracle):
            assert digamma(1.0) == pytest.approx(-np.euler_gamma, rel=1e-15)
            for x in (0.3, 1.0, 2.5, 7.0, 40.0):
                assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-13)

    def test_trigamma_identities(self):
        """psi1(x+1) = psi1(x) - 1/x^2 and psi1(1) = pi^2/6."""
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
        for x in (0.3, 1.0, 2.5, 7.0, 40.0):
            assert trigamma(x + 1.0) == pytest.approx(trigamma(x) - 1.0 / x ** 2, rel=1e-13)

    def test_series_oracle_agreement(self):
        xs = np.logspace(np.log10(0.5), 2.0, 60)
        for x in xs:
            x = float(x)
            tref = specfun.trigamma_series_oracle(x)
            dref = specfun.digamma_series_oracle(x)
            assert abs(trigamma(x) - tref) <= 1e-12 * abs(tref)
            assert abs(psi(x) - dref) <= 1e-12 * max(1.0, abs(dref))

    def test_euler_mascheroni_oracle(self):
        assert specfun.euler_mascheroni_oracle() == pytest.approx(np.euler_gamma, abs=1e-14)

    def test_ln_gamma(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)

    def test_domain_validation(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                specfun.digamma_series_oracle(bad)
            with pytest.raises(ValueError):
                trigamma(bad)


class TestTrigammaApprox:
    def test_error_bound_on_working_interval(self):
        """Absolute error stays below 1/x^11 across [2, 15]."""
        for x in np.linspace(2.0, 15.0, 261):
            x = float(x)
            assert abs(trigamma_approx(x) - trigamma(x)) <= x ** -11

    def test_error_at_left_edge(self):
        # Measured 2.149e-5; the bound below is a frozen safety margin.
        assert abs(trigamma_approx(2.0) - trigamma(2.0)) <= 5e-5

    def test_converges_to_trigamma_for_large_x(self):
        assert trigamma_approx(200.0) == pytest.approx(trigamma(200.0), rel=1e-15)


class TestTrigammaInverse:
    def test_round_trip_from_alpha(self):
        for a in (1.2, 2.0, 3.0, 5.0, 8.0, 15.0, 60.0):
            eta = trigamma(a)
            assert trigamma_inverse_bracketed(eta) == pytest.approx(a, rel=1e-10)

    def test_round_trip_other_direction(self):
        for eta in (1e-4, 0.01, 0.3, 1.0, 4.9):
            x = trigamma_inverse_bracketed(eta)
            assert trigamma(x) == pytest.approx(eta, rel=1e-9)

    def test_monotone_decreasing_input_maps_up(self):
        assert trigamma_inverse_bracketed(0.01) > trigamma_inverse_bracketed(1.0)

    def test_rejects_nonpositive_eta(self):
        for bad in (0.0, -0.5):
            with pytest.raises((ValueError, NoBracketError)):
                trigamma_inverse_bracketed(bad)


class TestRoughnessPolynomial:
    def test_evaluator_matches_horner_expansion(self):
        """p(a) = 210 eta a^7 + 210 a^6 - 105 a^5 + 35 a^4 - 7 a^2 + 5."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            eta = float(rng.uniform(0.01, 3.0))
            a = float(rng.uniform(-16.0, -0.1))
            direct = (210.0 * eta * a ** 7 + 210.0 * a ** 6 - 105.0 * a ** 5
                      + 35.0 * a ** 4 - 7.0 * a ** 2 + 5.0)
            assert roughness_polynomial(eta, a) == pytest.approx(direct, rel=1e-12)

    def test_solver_roots_annihilate_polynomial(self):
        for eta in (0.05, 0.5, 2.0):
            roots = solve_roughness_polynomial(eta)
            assert roots.shape == (7,)
            for r in roots:
                # Scale-relative residual: coefficients are O(210 |r|^7).
                scale = 210.0 * max(1.0, abs(r)) ** 7
                val = (210.0 * eta * r ** 7 + 210.0 * r ** 6 - 105.0 * r ** 5
                       + 35.0 * r ** 4 - 7.0 * r ** 2 + 5.0)
                assert abs(val) <= 1e-9 * scale

    def test_unique_negative_real_root_frozen(self):
        # mpmath.polyroots oracle at 40 digits for eta_m = 0.5.
        roots = solve_roughness_polynomial(0.5)
        neg = roots.real[negative_real_mask(roots)]
        assert len(neg) == 1
        assert neg[0] == pytest.approx(-2.4599837508297701623, rel=1e-10)

    def test_root_near_alpha_three(self):
        # mpmath oracle: exact negative root for eta = trigamma(3).
        roots = solve_roughness_polynomial(trigamma(3.0))
        neg = roots.real[negative_real_mask(roots)]
        assert len(neg) == 1
        assert neg[0] == pytest.approx(-3.0000089164442775458, rel=1e-10)

    def test_single_negative_real_root_across_eta(self):
        for eta in np.logspace(-4, 1, 40):
            roots = solve_roughness_polynomial(float(eta))
            neg = roots.real[negative_real_mask(roots)]
            assert len(neg) == 1

    def test_roots_sorted_by_real_then_imaginary_part(self):
        for eta in (0.05, 0.5, 2.0):
            roots = solve_roughness_polynomial(eta)
            order = sorted(range(7), key=lambda i: (roots[i].real, roots[i].imag))
            assert order == list(range(7))

    def test_root_mask_on_a_stack_matches_each_row(self):
        etas = np.logspace(-4, 1, 12)
        stack = np.sort(np.linalg.eigvals(roughness_companions(etas)), axis=1)
        mask = negative_real_mask(stack)
        assert mask.shape == (12, 7)
        for eta, row, row_mask in zip(etas, stack, mask):
            assert np.array_equal(row_mask, negative_real_mask(row))
            single = solve_roughness_polynomial(float(eta))
            assert row.real[row_mask] == pytest.approx(single.real[negative_real_mask(single)],
                                                      rel=1e-12)

    def test_degenerate_leading_coefficient(self):
        for bad in (0.0, math.nan):
            with pytest.raises(DegenerateLeadingCoefficientError):
                solve_roughness_polynomial(bad)


class TestFQuantile:
    def test_closed_form_when_first_dof_is_two(self):
        """For d1=2 the CDF inverts analytically:
        x = d2/2 ((1-u)^(-2/d2) - 1)."""
        for u, d2, ref in (
            (0.25, 4.0, 0.30940107675850305804),
            (0.5, 4.0, 0.8284271247461900976),
            (0.9, 7.0, 3.2574420510913760132),
        ):
            assert f_quantile(u, 2.0, d2) == pytest.approx(ref, rel=1e-12)

    def test_cdf_round_trip(self):
        for u in (0.001, 0.2, 0.5, 0.8, 0.999):
            for d1, d2 in ((2.0, 4.0), (1.0, 6.0), (16.0, 3.0), (2.0, 10.0)):
                x = f_quantile(u, d1, d2)
                assert f_cdf(x, d1, d2) == pytest.approx(u, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        us = np.array([0.1, 0.4, 0.7])
        vec = f_quantile(us, 2.0, 6.0)
        for u, v in zip(us, vec):
            assert v == pytest.approx(f_quantile(float(u), 2.0, 6.0), rel=1e-14)

    def test_rejects_unit_and_above(self):
        with pytest.raises(ValueError):
            f_quantile(1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            f_quantile(1.5, 2.0, 4.0)

    def test_zero_maps_to_zero(self):
        assert f_quantile(0.0, 2.0, 4.0) == 0.0
