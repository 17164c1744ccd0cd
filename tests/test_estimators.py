"""Estimator layer: the transformed second log-cumulant, its spread, the
Bayesian positivity correction, the four inversion routes with their
failure taxonomy, and the end-to-end roughness/scale estimation."""

import math
import statistics

import numpy as np
import pytest

from g0lcum import specfun
from g0lcum.estimators import (
    FAILURE_CODES,
    EstimatorKind,
    EtaEstimate,
    FailureReason,
    SampleTooSmallError,
    Status,
    bayes_correct_eta,
    estimate_alpha,
    estimate_from_moments,
    estimate_gamma,
    eta_hat,
    eta_sigma,
    invert_eta,
)
from g0lcum.model import (
    G0Params,
    LogCumulants,
    ModelKind,
    Sample,
    sample_g0,
    theoretical_log_cumulants,
    unit_mean_gamma,
)

I = ModelKind.INTENSITY
A = ModelKind.AMPLITUDE


class TestEtaHat:
    def test_intensity_case(self):
        """k2 = psi1(1)+psi1(2) at L=1 leaves eta = psi1(2)."""
        lc = LogCumulants(k1=0.0, k2=specfun.trigamma(1.0) + specfun.trigamma(2.0))
        eta = eta_hat(lc, 1.0, I)
        assert eta.eta_hat == pytest.approx(0.64493406684822643647, rel=1e-13)

    def test_amplitude_quarter_cancels(self):
        k2i = specfun.trigamma(1.0) + specfun.trigamma(2.0)
        ei = eta_hat(LogCumulants(k1=0.0, k2=k2i), 1.0, I)
        ea = eta_hat(LogCumulants(k1=0.0, k2=k2i / 4.0), 1.0, A)
        assert ea.eta_hat == pytest.approx(ei.eta_hat, rel=1e-13)

    def test_degenerate_k2_goes_negative(self):
        eta = eta_hat(LogCumulants(k1=0.0, k2=0.0), 1.0, I)
        assert eta.eta_hat == pytest.approx(-math.pi ** 2 / 6.0, rel=1e-13)


class TestEtaSigma:
    def test_constant_sample_is_zero(self):
        s = Sample(values=np.full(10, 2.5), model=I)
        assert eta_sigma(s, I) == 0.0

    def test_too_small_sample(self):
        s = Sample(values=np.array([1.0, 2.0, 3.0]), model=I)
        with pytest.raises(SampleTooSmallError):
            eta_sigma(s, I)

    def test_gaussian_logs_match_variance_of_sample_variance(self):
        """For standard normal logs the spread is sqrt(2/n) up to O(1/n)."""
        rng = np.random.default_rng(17)
        n = 100_000
        s = Sample(values=np.exp(rng.standard_normal(n)), model=I)
        assert eta_sigma(s, I) == pytest.approx(math.sqrt(2.0 / n), rel=0.05)

    def test_linear_in_model_constant(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(0.5, 2.0, 64)
        si = Sample(values=vals, model=I)
        sa = Sample(values=vals, model=A)
        assert eta_sigma(sa, A) == pytest.approx(4.0 * eta_sigma(si, I), rel=1e-12)


class TestBayesCorrection:
    # Frozen oracles: posterior mean of a normal truncated to (0, inf),
    # computed with mpmath at 40+ digits.
    ORACLE = {
        (0.5, 0.3): 0.53134093601031741358,
        (-1.0, 0.7): 0.31470227257003035067,
        (0.0, 1.0): 0.79788456080286535588,
        (2.0, 0.1): 2.0,
        (-2.0, 0.25): 0.030342028059028170163,
        (-2.0, 0.1): 0.004975306852785054771,
        (-5.0, 0.2): 0.0079746024115125175186,
        (-30.0, 1.0): 0.033259667433677037071,
    }

    def test_frozen_oracles(self):
        for (e, s), ref in self.ORACLE.items():
            got = bayes_correct_eta(EtaEstimate(eta_hat=e, sigma=s)).eta_m
            assert got == pytest.approx(ref, rel=1e-12), (e, s)

    def test_zero_center_closed_form(self):
        """At eta_hat = 0 the corrected value is sigma*sqrt(2/pi)."""
        for sigma in (0.1, 0.7, 2.0):
            got = bayes_correct_eta(EtaEstimate(eta_hat=0.0, sigma=sigma)).eta_m
            assert got == pytest.approx(sigma * math.sqrt(2.0 / math.pi), rel=1e-13)

    def test_always_positive_and_never_below_input(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            e = float(rng.uniform(-50.0, 5.0))
            s = float(rng.uniform(0.01, 3.0))
            got = bayes_correct_eta(EtaEstimate(eta_hat=e, sigma=s)).eta_m
            assert got > 0.0
            assert got >= e

    def test_monotone_in_sigma_for_negative_eta(self):
        vals = [bayes_correct_eta(EtaEstimate(eta_hat=-1.0, sigma=s)).eta_m
                for s in (0.2, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    def test_degenerate_sigma_clamps(self):
        assert bayes_correct_eta(EtaEstimate(eta_hat=0.8, sigma=0.0)).eta_m == 0.8
        assert bayes_correct_eta(EtaEstimate(eta_hat=-0.8, sigma=0.0)).eta_m == 1e-12

    def test_requires_sigma(self):
        with pytest.raises(ValueError):
            bayes_correct_eta(EtaEstimate(eta_hat=0.5, sigma=None))
        with pytest.raises(ValueError):
            bayes_correct_eta(EtaEstimate(eta_hat=0.5, sigma=-0.1))


class TestInvertEta:
    def test_traditional_round_trips(self):
        # 15.0 sits on the admissibility floor where rounding flips the
        # strict range check, so the deepest probe stays interior.
        for a in (1.0, 1.5, 3.0, 14.5):
            alpha, reason = invert_eta(specfun.trigamma(a), EstimatorKind.TRADITIONAL)
            assert reason is None
            assert alpha == pytest.approx(-a, abs=1e-8)

    def test_traditional_negative_eta(self):
        alpha, reason = invert_eta(-0.1, EstimatorKind.TRADITIONAL)
        assert alpha is None and reason is FailureReason.NEGATIVE_ETA

    def test_traditional_eta_below_bracket_is_out_of_range(self):
        """Roughness deeper than any admissible value (root beyond 1e6)."""
        alpha, reason = invert_eta(1e-9, EstimatorKind.TRADITIONAL)
        assert alpha is None and reason is FailureReason.ROOT_OUT_OF_RANGE

    def test_traditional_eta_above_bracket_no_convergence(self):
        alpha, reason = invert_eta(2e12, EstimatorKind.TRADITIONAL)
        assert alpha is None and reason is FailureReason.SOLVER_NO_CONVERGENCE

    def test_traditional_range_check(self):
        eta = specfun.trigamma(15.5)  # root -15.5, below the default floor
        alpha, reason = invert_eta(eta, EstimatorKind.TRADITIONAL)
        assert alpha is None and reason is FailureReason.ROOT_OUT_OF_RANGE
        alpha, reason = invert_eta(eta, EstimatorKind.TRADITIONAL, alpha_floor=-20.0)
        assert reason is None and alpha == pytest.approx(-15.5, abs=1e-8)

    def test_fmolc_magnitude_form(self):
        for eta in (0.04, -0.04):
            alpha, reason = invert_eta(eta, EstimatorKind.FMOLC_SIMPLE)
            assert reason is None
            assert alpha == pytest.approx(-5.0, rel=1e-13)

    def test_fmolc_degenerate_and_range(self):
        alpha, reason = invert_eta(0.0, EstimatorKind.FMOLC_SIMPLE)
        assert alpha is None and reason is FailureReason.DEGENERATE_K2
        alpha, reason = invert_eta(1e-4, EstimatorKind.FMOLC_SIMPLE)
        assert alpha is None and reason is FailureReason.ROOT_OUT_OF_RANGE

    def test_poly_round_trip(self):
        alpha, reason = invert_eta(specfun.trigamma(3.0), EstimatorKind.FAST_POLY)
        assert reason is None
        assert alpha == pytest.approx(-3.0, abs=5e-3)

    def test_poly_negative_eta_has_no_admissible_root(self):
        alpha, reason = invert_eta(-0.25, EstimatorKind.FAST_POLY)
        assert alpha is None and reason is FailureReason.NO_REAL_ROOT_OR_MULTIPLE

    def test_poly_degenerate(self):
        alpha, reason = invert_eta(0.0, EstimatorKind.FAST_POLY)
        assert alpha is None and reason is FailureReason.DEGENERATE_K2

    def test_poly_range_boundary(self):
        """The admissible-root window ends where the root crosses the floor,
        near eta = trigamma(15)."""
        alpha, reason = invert_eta(0.06, EstimatorKind.FAST_POLY)
        assert alpha is None and reason is FailureReason.ROOT_OUT_OF_RANGE
        alpha, reason = invert_eta(0.07, EstimatorKind.FAST_POLY)
        assert reason is None and -15.0 <= alpha < -14.0

    def test_solver_level_agreement_with_bracketed_inverse(self):
        """Unique negative polynomial root tracks the bracketed inverse
        within 5e-3 over the deep-roughness band."""
        for a in np.linspace(2.0, 15.0, 27):
            eta = specfun.trigamma(float(a))
            bracketed = -specfun.trigamma_inverse_bracketed(eta)
            roots = specfun.solve_roughness_polynomial(eta)
            neg = [r for r in roots.real_roots() if r < 0.0]
            assert len(neg) == 1
            assert abs(neg[0] - bracketed) <= 5e-3


class TestEstimateGamma:
    def test_recovers_scale_from_exact_cumulants(self):
        for model in (I, A):
            p = G0Params(alpha=-4.0, gamma=2.5, looks=3.0)
            lc = theoretical_log_cumulants(p, model)
            got = estimate_gamma(-4.0, lc.k1, 3.0, model)
            assert got == pytest.approx(2.5, rel=1e-12)

    def test_unit_scale_hand_value(self):
        """k1 = digamma(1) - digamma(2) = -1 at L=1, alpha=-2 gives exactly 1."""
        assert estimate_gamma(-2.0, -1.0, 1.0, I) == pytest.approx(1.0, rel=1e-15)

    def test_shift_acts_multiplicatively(self):
        base = estimate_gamma(-3.0, 0.25, 2.0, A)
        shifted = estimate_gamma(-3.0, 0.25 + 0.1, 2.0, A)
        assert shifted == pytest.approx(base * math.exp(2.0 * 0.1), rel=1e-13)

    def test_rejects_nonnegative_alpha(self):
        with pytest.raises(ValueError):
            estimate_gamma(0.0, 0.0, 1.0, I)


class TestEstimateAlpha:
    def test_statistical_round_trip(self):
        p = G0Params(-3.0, unit_mean_gamma(-3.0), 4.0)
        s = sample_g0(p, I, 20_000, seed=40)
        consistent = (EstimatorKind.TRADITIONAL, EstimatorKind.FAST_POLY,
                      EstimatorKind.FAST_POLY_CORRECTED)
        for kind in consistent:
            res = estimate_alpha(s, 4.0, I, kind)
            assert res.status is Status.OK
            assert res.alpha_hat == pytest.approx(-3.0, abs=0.2)
            assert res.gamma_hat == pytest.approx(2.0, rel=0.2)
            assert res.elapsed_ns > 0
            assert res.cumulants.n == 20_000

    def test_fmolc_converges_to_its_plugin_limit(self):
        """The magnitude-form shortcut is not consistent at moderate
        roughness; it settles on -1/sqrt(trigamma(-alpha)) instead."""
        p = G0Params(-3.0, unit_mean_gamma(-3.0), 4.0)
        s = sample_g0(p, I, 20_000, seed=40)
        res = estimate_alpha(s, 4.0, I, EstimatorKind.FMOLC_SIMPLE)
        assert res.status is Status.OK
        limit = -1.0 / math.sqrt(specfun.trigamma(3.0))
        assert res.alpha_hat == pytest.approx(limit, abs=0.1)
        assert res.gamma_hat > 0.0

    def test_within_half_band_proportion_at_n1000(self):
        """Corrected estimator at (-3, gamma=2, L=2, n=1000) over seeds
        0..99: all succeed and most land within 0.5 of the truth. The
        sampling spread here is about 0.37, putting the half-width band at
        1.34 sigma, so the achievable proportion sits near 82-89%."""
        p = G0Params(-3.0, 2.0, 2.0)
        hits = 0
        for seed in range(100):
            s = sample_g0(p, I, 1000, seed=seed)
            res = estimate_alpha(s, 2.0, I, EstimatorKind.FAST_POLY_CORRECTED)
            assert res.status is Status.OK
            hits += abs(res.alpha_hat + 3.0) <= 0.5
        assert hits >= 80

    def test_amplitude_intensity_duality(self):
        """Squaring amplitude data and switching model kind changes the
        estimate only at rounding level."""
        p = G0Params(-3.0, unit_mean_gamma(-3.0), 2.0)
        sa = sample_g0(p, A, 5000, seed=41)
        si = Sample(values=sa.values ** 2, model=I)
        for kind in (EstimatorKind.TRADITIONAL, EstimatorKind.FAST_POLY_CORRECTED):
            ra = estimate_alpha(sa, 2.0, A, kind)
            ri = estimate_alpha(si, 2.0, I, kind)
            assert ra.status is ri.status
            assert ra.alpha_hat == pytest.approx(ri.alpha_hat, rel=1e-9)
            assert ra.eta.eta_hat == pytest.approx(ri.eta.eta_hat, rel=1e-9)

    def test_failure_taxonomy_exclusive(self):
        p = G0Params(-5.0, unit_mean_gamma(-5.0), 1.0)
        for seed in range(120):
            s = sample_g0(p, I, 9, seed=seed)
            for kind in EstimatorKind:
                res = estimate_alpha(s, 1.0, I, kind)
                if res.status is Status.OK:
                    assert res.failure is None
                    assert -15.0 <= res.alpha_hat < 0.0
                    assert res.gamma_hat > 0.0
                else:
                    assert res.failure is not None
                    assert res.alpha_hat is None and res.gamma_hat is None

    def test_correction_reduces_failures(self):
        """On 1000 small hard samples the corrected variant fails strictly
        less often than the plain polynomial route."""
        p = G0Params(-1.5, unit_mean_gamma(-1.5), 1.0)
        plain = corrected = 0
        for seed in range(1000):
            s = sample_g0(p, I, 9, seed=seed)
            plain += estimate_alpha(s, 1.0, I, EstimatorKind.FAST_POLY).status is Status.FAILED
            corrected += estimate_alpha(
                s, 1.0, I, EstimatorKind.FAST_POLY_CORRECTED).status is Status.FAILED
        assert corrected < plain

    def test_corrected_never_fails_on_negative_eta(self):
        """The correction maps any eta to a positive value, so the polynomial
        always has its admissible-root chance."""
        s = Sample(values=np.array([1.0, 1.0001, 0.9999, 1.00005]), model=I)
        res = estimate_alpha(s, 1.0, I, EstimatorKind.FAST_POLY_CORRECTED)
        assert res.failure in (None, FailureReason.ROOT_OUT_OF_RANGE)

    def test_tiny_corrected_sample_degrades_to_point_posterior(self):
        s = Sample(values=np.array([0.5, 1.5, 2.5]), model=I)
        res = estimate_alpha(s, 1.0, I, EstimatorKind.FAST_POLY_CORRECTED)
        assert res.eta.sigma == 0.0

    def test_median_time_ordering(self):
        """Polynomial inversion beats bracketed refinement on the clock."""
        p = G0Params(-3.0, unit_mean_gamma(-3.0), 8.0)
        samples = [sample_g0(p, I, 121, seed=5000 + i) for i in range(200)]
        for s in samples[:20]:
            estimate_alpha(s, 8.0, I, EstimatorKind.TRADITIONAL)
            estimate_alpha(s, 8.0, I, EstimatorKind.FAST_POLY)
        trad, poly = [], []
        for s in samples:
            trad.append(min(estimate_alpha(s, 8.0, I, EstimatorKind.TRADITIONAL).elapsed_ns
                            for _ in range(3)))
            poly.append(min(estimate_alpha(s, 8.0, I, EstimatorKind.FAST_POLY).elapsed_ns
                            for _ in range(3)))
        assert statistics.median(poly) <= statistics.median(trad)

    def test_rejects_bad_looks(self):
        s = Sample(values=np.array([1.0, 2.0]), model=I)
        with pytest.raises(ValueError):
            estimate_alpha(s, 0.5, I, EstimatorKind.TRADITIONAL)

    def test_estimator_parse(self):
        assert EstimatorKind.parse("poly-corrected") is EstimatorKind.FAST_POLY_CORRECTED
        with pytest.raises(ValueError):
            EstimatorKind.parse("fastest")


class TestEstimateFromMoments:
    @pytest.mark.parametrize("model", [I, A])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_matches_estimate_alpha(self, model, kind):
        # Sizes from 3 (spread degrades to the point posterior) to 121.
        rng = np.random.default_rng(5)
        samples = [rng.gamma(2.0, 1.0, n) / rng.gamma(rng.uniform(1.5, 6.0), 1.0, n)
                   for n in (3, 3, 4, 5, 9, 9, 25, 25, 49, 121) * 4]
        moments = []
        for values in samples:
            logs = np.log(values)
            d2 = (logs - logs.mean()) ** 2
            moments.append((logs.size, logs.mean(), d2.mean(), (d2 * d2).mean()))
        n, k1, k2, m4 = (np.array(col) for col in zip(*moments))
        alpha, gamma, code = estimate_from_moments(n, k1, k2, m4, 2.0, model, kind)
        for i, values in enumerate(samples):
            res = estimate_alpha(Sample(values, model), 2.0, model, kind)
            assert FAILURE_CODES[code[i]] is res.failure
            if res.failure is None:
                assert alpha[i] == pytest.approx(res.alpha_hat, rel=1e-12, abs=0.0)
                assert gamma[i] == pytest.approx(res.gamma_hat, rel=1e-12, abs=0.0)
            else:
                assert math.isnan(alpha[i]) and math.isnan(gamma[i])

    def test_rejects_bad_looks(self):
        with pytest.raises(ValueError, match="looks"):
            estimate_from_moments([9], [0.0], [1.0], [3.0], 0.5, I, EstimatorKind.FMOLC_SIMPLE)
