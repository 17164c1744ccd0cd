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
    Status,
    _eta_variance,
    bayes_correct_eta,
    estimate_alpha,
    estimate_from_moments,
    estimate_gamma,
    invert_eta,
    log_moments,
)
from g0lcum.model import (
    G0Params,
    ModelKind,
    Sample,
    sample_g0,
    theoretical_log_cumulants,
    unit_mean_gamma,
)

I = ModelKind.INTENSITY
A = ModelKind.AMPLITUDE


def two_point_sample(k2: float, model: ModelKind) -> Sample:
    """Sample whose intensity logs are +-sqrt(k2), so that their k2 (divisor
    n) is k2; amplitude logs are half as large."""
    r = math.sqrt(k2) * (0.5 if model is A else 1.0)
    return Sample(values=np.exp([-r, r]), model=model)


def eta_of(s: Sample, looks: float, model: ModelKind):
    return estimate_alpha(s, looks, model, EstimatorKind.FMOLC_SIMPLE).eta.eta_hat


def sigma_of(s: Sample, model: ModelKind):
    return estimate_alpha(s, 1.0, model, EstimatorKind.FAST_POLY_CORRECTED).eta.sigma


class TestEtaHat:
    def test_intensity_case(self):
        """k2 = psi1(1)+psi1(2) at L=1 leaves eta = psi1(2)."""
        k2 = specfun.trigamma(1.0) + specfun.trigamma(2.0)
        eta = eta_of(two_point_sample(k2, I), 1.0, I)
        assert eta == pytest.approx(0.64493406684822643647, rel=1e-13)

    def test_amplitude_quarter_cancels(self):
        k2i = specfun.trigamma(1.0) + specfun.trigamma(2.0)
        ei = eta_of(two_point_sample(k2i, I), 1.0, I)
        ea = eta_of(two_point_sample(k2i, A), 1.0, A)
        assert ea == pytest.approx(ei, rel=1e-13)

    def test_degenerate_k2_goes_negative(self):
        eta = eta_of(Sample(values=np.full(5, 1.7), model=I), 1.0, I)
        assert eta == -specfun.trigamma(1.0)
        assert eta == pytest.approx(-math.pi ** 2 / 6.0, rel=1e-13)


class TestEtaSigma:
    def test_constant_sample_is_zero(self):
        s = Sample(values=np.full(10, 2.5), model=I)
        assert sigma_of(s, I) == 0.0

    def test_gaussian_logs_match_variance_of_sample_variance(self):
        """For standard normal logs the spread is sqrt(2/n) up to O(1/n)."""
        rng = np.random.default_rng(17)
        n = 100_000
        s = Sample(values=np.exp(rng.standard_normal(n)), model=I)
        assert sigma_of(s, I) == pytest.approx(math.sqrt(2.0 / n), rel=0.05)

    @pytest.mark.parametrize("model", [I, A])
    def test_fisher_k_statistics_on_a_small_sample(self, model):
        """Logs (0, 1, 1, 2, 6) ln2, n = 5: mean 2, so in powers of ln2
        k2 = (4+1+1+0+16)/5 = 22/5 and m4 = (16+1+1+0+256)/5 = 274/5. Then
        K2 = 5/4 * 22/5 = 11/2, K4 = 25 (6 * 274/5 - 12 (22/5)^2) / (4*3*2)
        = 201/2, and sigma^2 = c^2 (K4/5 + 2 K2^2/4) = c^2 * 1409/40 ln2^4.
        The divisor-n moments alone gave c^2 * 1128/125 ln2^4."""
        sigma = model.c_alpha * math.sqrt(1409 / 40) * math.log(2.0) ** 2
        values = 2.0 ** np.array([0.0, 1.0, 1.0, 2.0, 6.0])
        res = estimate_alpha(Sample(values, model), 1.0, model,
                             EstimatorKind.FAST_POLY_CORRECTED)
        assert res.eta.sigma == pytest.approx(sigma, rel=1e-13)
        eta_m = bayes_correct_eta(EtaEstimate(res.eta.eta_hat, sigma=sigma)).eta_m
        alpha, reason = invert_eta(eta_m, EstimatorKind.FAST_POLY_CORRECTED)
        assert reason is None and res.alpha_hat == pytest.approx(alpha, rel=1e-12)
        moments = log_moments(np.log(values)[np.newaxis])
        batch, _, code = estimate_from_moments(5, *moments, 1.0, model,
                                               EstimatorKind.FAST_POLY_CORRECTED)
        assert code[0] == 0 and batch[0] == pytest.approx(alpha, rel=1e-12)

    def test_int32_sizes_do_not_wrap(self):
        """Map windows pass their usable counts as int32, and n^2 overflows
        int32 from n = 46341 on."""
        n = 60_000
        sizes = np.array([n], dtype=np.int32)
        assert _eta_variance(2.0, 12.0, sizes, 4.0)[0] == _eta_variance(2.0, 12.0, n, 4.0) > 0.0

    def test_linear_in_model_constant(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(0.5, 2.0, 64)
        si = Sample(values=vals, model=I)
        sa = Sample(values=vals, model=A)
        assert sigma_of(sa, A) == pytest.approx(4.0 * sigma_of(si, I), rel=1e-12)


class TestLogMoments:
    def test_hand_case(self):
        """logs 0,1,2: mean 1, population variance 2/3, m4 2/3 (divisor n)."""
        k1, k2, m4 = log_moments(np.array([0.0, 1.0, 2.0]))
        assert (k1, k2, m4) == pytest.approx((1.0, 2.0 / 3.0, 2.0 / 3.0), rel=1e-14)

    def test_stack_matches_each_row_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for n in (3, 9, 25, 121, 1000):
            logs = rng.standard_normal((17, n)) * 3.0 + 2.0
            stacked = log_moments(logs)
            for t in range(17):
                assert tuple(float(x[t]) for x in stacked) == tuple(
                    float(x) for x in log_moments(logs[t]))

    def test_constant_sample_has_exactly_zero_spread(self):
        """The centering residue of a constant sample is no spread, in one
        sample or a stack, whatever the size and the value."""
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 1002))
            value = float(np.exp(rng.uniform(-30.0, 30.0)))
            logs = np.log(np.full(n, value))
            k1, k2, m4 = log_moments(logs)
            assert k1 == pytest.approx(logs[0], rel=1e-12, abs=1e-300)
            assert k2 == 0.0 and m4 == 0.0
            stack = np.vstack([logs, logs + rng.standard_normal(n) * 1e-3])
            k1s, k2s, m4s = log_moments(stack)
            assert k2s[0] == 0.0 and m4s[0] == 0.0
            assert (n == 1) == (k2s[1] == 0.0)

    def test_nearly_constant_sample_keeps_its_spread(self):
        logs = np.full(50, 3.0)
        logs[7] = np.nextafter(3.0, 4.0)
        _, k2, m4 = log_moments(logs)
        assert k2 > 0.0 and m4 > 0.0

    def test_all_true_mask_gives_the_unmasked_bits(self):
        rng = np.random.default_rng(12)
        for n in (3, 9, 25, 121, 1000):
            stack = rng.standard_normal((17, n)) * 3.0 + 2.0
            stack[3] = 1.5  # a constant row: the zero-spread pass
            for logs in (stack[0], stack):
                plain = log_moments(logs)
                masked = log_moments(logs, np.ones(logs.shape, dtype=bool))
                for a, b in zip(plain, masked):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), n

    def test_masked_rows_match_their_packed_entries(self):
        """Rows of many different usable counts in one call, their unusable
        entries NaN or finite: each row's moments are those of its usable
        entries alone."""
        rng = np.random.default_rng(13)
        logs = rng.standard_normal((300, 121)) * 2.0 + 5.0
        usable = rng.random(logs.shape) < rng.uniform(0.05, 1.0, (300, 1))
        usable[:, :4] = True
        logs[~usable & (rng.random(logs.shape) < 0.5)] = np.nan
        n = usable.sum(axis=1)
        assert np.unique(n).size >= 50
        k1, k2, m4 = log_moments(logs, usable)
        for t in range(logs.shape[0]):
            p1, p2, p4 = log_moments(logs[t][usable[t]])
            assert k1[t] == pytest.approx(p1, rel=1e-14, abs=0.0)
            assert k2[t] == pytest.approx(p2, rel=1e-12, abs=0.0)
            assert m4[t] == pytest.approx(p4, rel=1e-12, abs=0.0)

    def test_masked_constant_rows_have_exactly_zero_spread(self):
        """The zero-spread pass looks at usable entries only, so an unusable
        entry, NaN or not, does not hide a constant row."""
        rng = np.random.default_rng(14)
        logs = np.full((6, 25), 0.1)
        logs[:, 0] = [np.nan, 7.0, -3.0, np.nan, 0.1, 0.0]
        usable = np.ones(logs.shape, dtype=bool)
        usable[:, 0] = False
        logs[5, 1:] = 0.0                           # a constant row of zeros
        logs[4, 1:] += 1e-3 * rng.standard_normal(24)
        k1, k2, m4 = log_moments(logs, usable)
        assert k1[:4] == pytest.approx([0.1] * 4, rel=1e-14) and k1[5] == 0.0
        assert not k2[[0, 1, 2, 3, 5]].any() and not m4[[0, 1, 2, 3, 5]].any()
        assert k2[4] > 0.0 and m4[4] > 0.0


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

    @pytest.mark.parametrize("eta", [EtaEstimate(0.3, sigma=math.nan),
                                     EtaEstimate(math.nan, sigma=0.2),
                                     EtaEstimate(math.inf, sigma=0.2),
                                     EtaEstimate(-math.inf, sigma=0.0)])
    def test_rejects_nan_and_infinite_input(self, eta):
        """A NaN eta_m would break the promise of a positive result never
        below eta_hat."""
        with pytest.raises(ValueError, match="finite"):
            bayes_correct_eta(eta)


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
        """The approximation's inverse tracks the bracketed inverse within
        5e-3 over the deep-roughness band."""
        for a in np.linspace(2.0, 15.0, 27):
            eta = specfun.trigamma(float(a))
            bracketed = -specfun.trigamma_inverse_bracketed(eta)
            assert abs(-specfun.trigamma_approx_inverse(eta) - bracketed) <= 5e-3


class TestSolverNoConvergence:
    """The bracketed solve's two NoConvergenceError paths, forced: Brent's
    loop stopped by a low iteration cap, and a residual check no root can
    pass. Every layer above reports SolverNoConvergence."""

    @pytest.fixture(params=["iteration cap", "residual"])
    def stall(self, request, monkeypatch):
        if request.param == "iteration cap":
            monkeypatch.setattr(specfun, "_BRACKET_MAX_ITER", 3)
            return "no convergence after 3 iterations"
        monkeypatch.setattr(specfun, "_BRACKET_TOL", -1.0)
        return "residual above tolerance"

    def test_every_layer_reports_it(self, stall):
        looks, model = 2.0, I
        eta = specfun.trigamma(3.0)
        with pytest.raises(specfun.NoConvergenceError, match=stall):
            specfun.trigamma_inverse_bracketed(eta)
        assert invert_eta(eta, EstimatorKind.TRADITIONAL) == (
            None, FailureReason.SOLVER_NO_CONVERGENCE)
        s = two_point_sample(eta + specfun.trigamma(looks), model)
        res = estimate_alpha(s, looks, model, EstimatorKind.TRADITIONAL)
        assert res.status is Status.FAILED
        assert res.failure is FailureReason.SOLVER_NO_CONVERGENCE
        k1, k2, m4 = log_moments(np.log(s.values))
        alpha, gamma, code = estimate_from_moments(
            [2], [k1], [k2], [m4], looks, model, EstimatorKind.TRADITIONAL)
        assert FAILURE_CODES[code[0]] is FailureReason.SOLVER_NO_CONVERGENCE
        assert math.isnan(alpha[0]) and math.isnan(gamma[0])
        # Estimators that do not run the bracketed solve are untouched.
        assert estimate_alpha(s, looks, model, EstimatorKind.FAST_POLY).failure is None


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

    def test_scale_too_large_for_float64_is_nan(self):
        """ln(1.8e308) is 709.78: an exponent past it gives NaN, no warning."""
        assert math.isnan(estimate_gamma(-3.0, 800.0, 1.0, I))
        got = estimate_gamma(np.array([-3.0, -3.0]), np.array([0.25, 800.0]), 1.0, I)
        assert got[0] == estimate_gamma(-3.0, 0.25, 1.0, I) and math.isnan(got[1])


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

    @pytest.mark.parametrize("model", [I, A])
    def test_polynomial_estimators_agree_with_the_scalar_path(self, model):
        """From the same log moments, the array core gives poly the scalar
        path's bits; poly-corrected's array Bayes correction may differ from
        the scalar one in the last bit."""
        rng = np.random.default_rng(8)
        samples = [rng.gamma(2.0, 1.0, n) / rng.gamma(rng.uniform(1.5, 6.0), 1.0, n)
                   for n in (3, 4, 9, 9, 25, 49, 121, 400) * 8]
        moments = [(v.size, *map(float, log_moments(np.log(v)))) for v in samples]
        n, k1, k2, m4 = (np.array(col) for col in zip(*moments))
        for kind in (EstimatorKind.FAST_POLY, EstimatorKind.FAST_POLY_CORRECTED):
            alpha, _, code = estimate_from_moments(n, k1, k2, m4, 2.0, model, kind)
            scalar = [estimate_alpha(Sample(v, model), 2.0, model, kind) for v in samples]
            assert [FAILURE_CODES[c] for c in code] == [res.failure for res in scalar]
            ok = code == 0
            assert ok.sum() > 40
            expected = np.array([res.alpha_hat for res in scalar if res.failure is None])
            if kind is EstimatorKind.FAST_POLY:
                np.testing.assert_array_equal(alpha[ok], expected)
            else:
                np.testing.assert_allclose(alpha[ok], expected, rtol=1e-12, atol=0.0)

    def test_scale_too_large_for_float64_is_nan_on_success(self):
        """The moments of a sample around 1e200 in amplitude: the roughness
        estimate succeeds, and the scale, near 1e400, is NaN."""
        values = np.exp(np.random.default_rng(1).normal(0.0, 0.5, 25)) * 1e200
        moments = log_moments(np.log(values[np.newaxis]))
        alpha, gamma, code = estimate_from_moments(25, *moments, 3.0, A,
                                                   EstimatorKind.FAST_POLY)
        assert code.tolist() == [0]
        assert -15.0 <= alpha[0] < 0.0 and math.isnan(gamma[0])
        res = estimate_alpha(Sample(values, A), 3.0, A, EstimatorKind.FAST_POLY)
        assert (res.status, res.alpha_hat, res.gamma_hat) == (Status.OK, alpha[0], None)

    @pytest.mark.parametrize("looks", [0.5, math.nan, math.inf])
    def test_rejects_bad_looks(self, looks):
        with pytest.raises(ValueError, match="looks must be >= 1"):
            estimate_from_moments([9], [0.0], [1.0], [3.0], looks, I,
                                  EstimatorKind.FMOLC_SIMPLE)
