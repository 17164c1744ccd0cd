"""Speckle model layer: densities, moments, log-cumulants, and the seeded
synthetic sampler for both the intensity and amplitude variants."""

import hashlib
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from g0lcum import cli, model, specfun
from g0lcum import (
    G0Params,
    LogCumulants,
    ModelKind,
    MomentUndefinedError,
    Sample,
    f_cdf,
    log_moments,
    moment,
    pdf,
    read_sample_csv,
    sample_g0,
    theoretical_log_cumulants,
    unit_mean_gamma,
    write_sample_csv,
)
from g0lcum.estimators import (
    EstimatorKind,
    FailureReason,
    estimate_alpha,
    estimate_from_moments,
)
from g0lcum.harness import CellStats, MCConfig, MCReport, read_report, write_report
from g0lcum.model import check_looks, parse_real, sample_g0_stack
from g0lcum.raster import Raster, RasterFormatError, read_raster

I = ModelKind.INTENSITY
A = ModelKind.AMPLITUDE
# Small and 64-bit seeds, as harness.trial_seed derives them.
STACK_SEEDS = [0, 1, 7, 2 ** 63 + 5, 2 ** 64 - 1]


def analytic_cdf(z, params: G0Params, model: ModelKind) -> float:
    """Forward CDF through the sampling transform: (-alpha/gamma) Z_I follows
    an F distribution with (2L, -2alpha) degrees of freedom."""
    x = z * z if model is A else z
    return f_cdf(x * (-params.alpha) / params.gamma, 2.0 * params.looks,
                 -2.0 * params.alpha)


class TestValidation:
    def test_params_reject_bad_values(self):
        with pytest.raises(ValueError):
            G0Params(alpha=0.5, gamma=1.0, looks=1.0)
        with pytest.raises(ValueError):
            G0Params(alpha=-2.0, gamma=0.0, looks=1.0)
        with pytest.raises(ValueError):
            G0Params(alpha=-2.0, gamma=1.0, looks=0.5)

    @pytest.mark.parametrize("alpha, gamma, scale", [(-1e-300, 1e10, "inf"),
                                                     (-3.0, 5e-324, "0.0"),
                                                     (-0.5, sys.float_info.max, "inf")])
    def test_params_reject_an_f_scale_of_zero_or_inf(self, alpha, gamma, scale):
        with pytest.raises(ValueError) as err:
            G0Params(alpha=alpha, gamma=gamma, looks=2.0)
        assert str(err.value) == (f"alpha {alpha!r} and gamma {gamma!r} give the F scale "
                                  f"-gamma/alpha {scale}; it must be finite and positive")

    @pytest.mark.parametrize("alpha, gamma", [
        (-1e-300, 1e-10), (-3.0, 1e-323), (-1.0, sys.float_info.max),
        (-5e-324, 2e-308), (-1e300, 1e-20),
        (-sys.float_info.max / 2, sys.float_info.max)])
    def test_params_accept_every_finite_positive_f_scale(self, alpha, gamma):
        p = G0Params(alpha=alpha, gamma=gamma, looks=2.0)
        assert 0.0 < -p.gamma / p.alpha < math.inf

    @pytest.mark.parametrize("values, message", [
        ([1.0, math.nan], "sample values must be finite and strictly positive"),
        ([math.nan, 1.0], "sample values must be finite and strictly positive"),
        ([1.0, math.inf], "sample values must be finite and strictly positive"),
        ([-math.inf, 1.0], "sample values must be finite and strictly positive"),
        ([1.0, 0.0], "sample values must be finite and strictly positive"),
        ([1.0, -2.0], "sample values must be finite and strictly positive"),
        ([], "sample must be a nonempty 1-D array"),
        ([[1.0, 2.0], [3.0, 4.0]], "sample must be a nonempty 1-D array"),
    ])
    def test_sample_rejects_nonpositive_and_empty(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Sample(values=np.array(values), model=I)

    def test_sample_stores_valid_values_unchanged(self):
        values = [5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300, np.finfo(float).max]
        s = Sample(values=values, model=I)
        assert s.values.dtype == np.float64
        assert s.values.tolist() == values

    @pytest.mark.parametrize("k2, n, message", [
        (-0.1, 10, "sample-derived k2 is a variance of logs and cannot be negative"),
        (0.5, 0, "sample size must be positive, got 0")])
    def test_sample_log_cumulants_reject_negative_k2_and_empty(self, k2, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LogCumulants(k1=0.0, k2=k2, n=n)

    def test_model_parse(self):
        assert ModelKind.parse("intensity") is I
        assert ModelKind.parse("AMPLITUDE") is A
        with pytest.raises(ValueError):
            ModelKind.parse("power")


class TestPdf:
    def test_single_look_hand_value(self):
        """Intensity, alpha=-2, gamma=1, L=1, z=1: 2 * (1+1)^-3 = 0.25."""
        p = G0Params(alpha=-2.0, gamma=1.0, looks=1.0)
        assert pdf(p, 1.0, I) == pytest.approx(0.25, rel=1e-14)

    def test_amplitude_change_of_variables(self):
        """Amplitude density at z equals 2z times intensity density at z^2."""
        p = G0Params(alpha=-3.0, gamma=2.0, looks=4.0)
        for z in (0.3, 0.9, 1.7):
            assert pdf(p, z, A) == pytest.approx(2.0 * z * pdf(p, z * z, I), rel=1e-13)

    @pytest.mark.parametrize("alpha,looks", [(-3.0, 1.0), (-5.0, 3.0)])
    def test_normalization(self, alpha, looks):
        p = G0Params(alpha=alpha, gamma=unit_mean_gamma(alpha), looks=looks)
        total, _ = quad(lambda z: pdf(p, z, I), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("model", [I, A])
    @pytest.mark.parametrize("alpha,looks", [(-1.5, 1.0), (-3.0, 3.0), (-8.0, 8.0),
                                             (-8.0, 1.0), (-1.5, 8.0)])
    def test_matches_derivative_of_sampler_cdf(self, model, alpha, looks):
        """The sampler draws intensity (-gamma/alpha) F(2L, -2 alpha) and
        amplitude its square root, so the density is the central difference
        of f_cdf under that transform, from the 0.1% to the 99.999% quantile."""
        p = G0Params(alpha=alpha, gamma=2.0, looks=looks)
        d1, d2, scale = 2.0 * looks, -2.0 * alpha, -2.0 / alpha
        power = 1.0 if model is I else 2.0
        for u in (1e-3, 0.05, 0.5, 0.95, 0.999, 0.99999):
            z = (scale * specfun.f_quantile(u, d1, d2)) ** (1.0 / power)
            h = 1e-5 * z
            above, below = (f_cdf((z + s) ** power / scale, d1, d2) for s in (h, -h))
            assert (above - below) / (2.0 * h) == pytest.approx(pdf(p, z, model), rel=1e-6)

    def test_rejects_nonpositive_argument(self):
        p = G0Params(alpha=-2.0, gamma=1.0, looks=1.0)
        with pytest.raises(ValueError):
            pdf(p, 0.0, I)
        with pytest.raises(ValueError):
            pdf(p, -1.0, I)


class TestMoment:
    def test_first_intensity_moment_closed_form(self):
        """E[Z] = gamma / (-alpha - 1) after the gamma-function recurrence."""
        p = G0Params(alpha=-2.0, gamma=1.0, looks=1.0)
        assert moment(p, 1.0, I) == pytest.approx(1.0, rel=1e-14)
        p2 = G0Params(alpha=-4.0, gamma=3.0, looks=2.0)
        assert moment(p2, 1.0, I) == pytest.approx(1.0, rel=1e-14)

    def test_second_intensity_moment_frozen(self):
        # mpmath oracle: (g/L)^2 G(-a-2)G(L+2)/(G(-a)G(L)) at a=-4, g=3, L=2.
        p = G0Params(alpha=-4.0, gamma=3.0, looks=2.0)
        assert moment(p, 2.0, I) == pytest.approx(2.25, rel=1e-13)

    def test_amplitude_moment_frozen(self):
        # mpmath oracle: sqrt(g/L) G(-a-1/2)G(L+1/2)/(G(-a)G(L)).
        p = G0Params(alpha=-4.0, gamma=3.0, looks=2.0)
        assert moment(p, 1.0, A) == pytest.approx(0.90179284933256069218, rel=1e-13)

    def test_amplitude_square_equals_intensity(self):
        p = G0Params(alpha=-2.0, gamma=1.0, looks=1.0)
        assert moment(p, 2.0, A) == pytest.approx(moment(p, 1.0, I), rel=1e-14)

    @pytest.mark.parametrize("order", [0.0, -1.0])
    def test_rejects_nonpositive_order(self, order):
        p = G0Params(alpha=-3.0, gamma=2.0, looks=1.0)
        with pytest.raises(ValueError, match=f"^moment order must be positive, got {order}$"):
            moment(p, order, I)

    def test_undefined_at_constraint_boundary(self):
        p = G0Params(alpha=-2.0, gamma=1.0, looks=1.0)
        with pytest.raises(MomentUndefinedError):
            moment(p, 2.0, I)
        with pytest.raises(MomentUndefinedError):
            moment(p, 4.0, A)


class TestLogCumulants:
    def test_theoretical_intensity_frozen(self):
        # mpmath oracle: ln(g/L) + psi(L) - psi(-a) and psi1(L) + psi1(-a).
        lc = theoretical_log_cumulants(G0Params(-3.0, 2.0, 4.0), I)
        assert lc.k1 == pytest.approx(-0.35981384722661197608, rel=1e-13)
        assert lc.k2 == pytest.approx(0.67875702258534176183, rel=1e-13)

    def test_amplitude_is_half_and_quarter(self):
        p = G0Params(-3.0, 2.0, 4.0)
        lci = theoretical_log_cumulants(p, I)
        lca = theoretical_log_cumulants(p, A)
        assert lca.k1 == pytest.approx(lci.k1 / 2.0, rel=1e-14)
        assert lca.k2 == pytest.approx(lci.k2 / 4.0, rel=1e-14)

    def test_sample_cumulants_hand_case(self):
        """logs 0,1,2: mean 1, population variance 2/3 (divisor n)."""
        s = Sample(values=np.exp(np.array([0.0, 1.0, 2.0])), model=I)
        k1, k2, _ = log_moments(np.log(s.values))
        assert k1 == pytest.approx(1.0, rel=1e-14)
        assert k2 == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_duality_of_sample_cumulants(self):
        rng = np.random.default_rng(5)
        amp = Sample(values=rng.uniform(0.1, 3.0, 500), model=A)
        sq = Sample(values=amp.values ** 2, model=I)
        k1a, k2a, _ = log_moments(np.log(amp.values))
        k1i, k2i, _ = log_moments(np.log(sq.values))
        assert k1i == pytest.approx(2.0 * k1a, rel=1e-12)
        assert k2i == pytest.approx(4.0 * k2a, rel=1e-12)


class TestUnitMeanGamma:
    def test_value(self):
        assert unit_mean_gamma(-3.0) == 2.0
        p = G0Params(alpha=-3.0, gamma=unit_mean_gamma(-3.0), looks=2.0)
        assert moment(p, 1.0, I) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_alpha_at_least_minus_one(self):
        with pytest.raises(ValueError):
            unit_mean_gamma(-1.0)
        with pytest.raises(ValueError):
            unit_mean_gamma(-0.5)


class TestSampler:
    def test_seeded_determinism(self):
        p = G0Params(-3.0, 2.0, 2.0)
        a = sample_g0(p, I, 256, seed=11)
        b = sample_g0(p, I, 256, seed=11)
        assert np.array_equal(a.values, b.values)
        c = sample_g0(p, I, 256, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_outputs_positive_and_finite(self):
        p = G0Params(-1.01, 0.5, 1.0)
        s = sample_g0(p, I, 10_000, seed=3)
        assert np.all(np.isfinite(s.values)) and np.all(s.values > 0.0)

    def test_goodness_of_fit_across_seeds(self):
        """One-sample KS against the analytic CDF stays under the 1%
        critical value 1.6276/sqrt(n) in at least 95 of 100 seeds."""
        p = G0Params(-3.0, unit_mean_gamma(-3.0), looks=2.0)
        n = 10_000
        crit = 1.6276 / math.sqrt(n)
        hits = 0
        grid = (np.arange(n) + 1.0) / n
        for seed in range(100):
            z = np.sort(sample_g0(p, I, n, seed=seed).values)
            u = analytic_cdf(z, p, I)
            d = max(np.max(np.abs(u - grid)), np.max(np.abs(u - grid + 1.0 / n)))
            hits += d < crit
        assert hits >= 95

    def test_amplitude_goodness_of_fit(self):
        p = G0Params(-5.0, unit_mean_gamma(-5.0), looks=3.0)
        n = 10_000
        z = np.sort(sample_g0(p, A, n, seed=7).values)
        u = analytic_cdf(z, p, A)
        grid = (np.arange(n) + 1.0) / n
        d = max(np.max(np.abs(u - grid)), np.max(np.abs(u - grid + 1.0 / n)))
        assert d < 1.6276 / math.sqrt(n)

    def test_moment_consistency(self):
        """Empirical moments match theory within 4 standard errors."""
        n = 100_000
        pi = G0Params(-5.0, unit_mean_gamma(-5.0), looks=3.0)
        zi = sample_g0(pi, I, n, seed=21).values
        se = zi.std(ddof=1) / math.sqrt(n)
        assert abs(zi.mean() - moment(pi, 1.0, I)) < 4.0 * se

        za = sample_g0(pi, A, n, seed=22).values
        for r in (1.0, 2.0):
            w = za ** r
            se = w.std(ddof=1) / math.sqrt(n)
            assert abs(w.mean() - moment(pi, r, A)) < 4.0 * se


class TestSampleStack:
    @pytest.mark.parametrize("kind", [I, A])
    @pytest.mark.parametrize("alpha", [-1.01, -3.0, -40.0])
    @pytest.mark.parametrize("looks", [1.0, 8.0])
    @pytest.mark.parametrize("n", [1, 9, 1000])
    def test_rows_equal_sample_g0(self, kind, alpha, looks, n):
        p = G0Params(alpha, unit_mean_gamma(alpha), looks)
        stack = sample_g0_stack(p, kind, n, STACK_SEEDS)
        assert stack.shape == (len(STACK_SEEDS), n)
        for row, seed in zip(stack, STACK_SEEDS):
            one = sample_g0(p, kind, n, seed).values
            assert np.array_equal(row.view(np.uint64), one.view(np.uint64))

    @staticmethod
    def force(monkeypatch, rows, bad):
        """Patch the F quantile so its first call returns the values ``bad``
        at the columns ``rows`` maps each row to, or with bad=None zeroes the
        uniforms there before the real quantile runs; returns the list of
        the shapes of u it is called with."""
        real = specfun.f_quantile
        calls = []

        def patched(u, d1, d2):
            first = not calls
            calls.append(np.shape(u))
            if first and bad is None:
                for row, cols in rows.items():
                    u[row, list(cols)] = 0.0
            x = real(u, d1, d2)
            if first and bad is not None:
                for row, cols in rows.items():
                    x[row, list(cols)] = bad
            return x

        monkeypatch.setattr(specfun, "f_quantile", patched)
        return calls

    def test_forced_redraws_stay_on_their_own_rows(self, monkeypatch):
        """The first F quantile call returns inf and 0 at chosen positions of
        rows 1 and 3; each of those rows redraws from its own generator, so
        it equals sample_g0 for its seed under the same forcing."""
        self.check_forced_redraws(monkeypatch, (np.inf, 0.0))

    def test_forced_nan_redraws_stay_on_their_own_rows(self, monkeypatch):
        self.check_forced_redraws(monkeypatch, np.nan)

    def test_forced_zero_uniform_redraws_stay_on_their_own_rows(self, monkeypatch):
        """A zero uniform maps to z = 0 and is redrawn like any bad output."""
        self.check_forced_redraws(monkeypatch, None)

    def check_forced_redraws(self, monkeypatch, bad):
        p = G0Params(-3.0, unit_mean_gamma(-3.0), 2.0)
        forced = {1: (2, 5), 3: (0, 8)}
        clean = sample_g0_stack(p, I, 9, STACK_SEEDS)
        calls = self.force(monkeypatch, forced, bad)
        stack = sample_g0_stack(p, I, 9, STACK_SEEDS)
        # One call over the stack, the overflow probe, then one per row that
        # redraws.
        assert calls == [(len(STACK_SEEDS), 9), (1,), (2,), (2,)]
        for t, seed in enumerate(STACK_SEEDS):
            self.force(monkeypatch, {0: forced[t]} if t in forced else {}, bad)
            one = sample_g0(p, I, 9, seed).values
            assert np.array_equal(stack[t].view(np.uint64), one.view(np.uint64)), t
            changed = np.flatnonzero(stack[t] != clean[t]).tolist()
            assert changed == sorted(forced.get(t, ())), t

    @pytest.mark.parametrize("alpha, rounds, digest", [
        (-0.001, 212, "7210f6591b103202054e2a39c7a38ff50b39108df1f177401283342db96429e4"),
        (-0.01, 23, "6e491f3c5f0c318817375834edddb7e34c887e02ea1e0c1b57b43efaf6549e03")])
    def test_heavy_tails_redraw_within_the_bound(self, monkeypatch, alpha, rounds, digest):
        """Near alpha = 0 most draws overflow and are redrawn, for many
        rounds; these samples keep the bits they had before rounds were
        bounded."""
        calls = self.force(monkeypatch, {}, 0.0)  # forces nothing; counts the calls
        values = sample_g0(G0Params(alpha, 1.0, 2.0), I, 1000, 1).values
        # The stack's call and the overflow probe's come before the rounds.
        assert calls[:2] == [(1, 1000), (1,)]
        assert len(calls) - 2 == rounds < model._REDRAW_ROUNDS
        assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("usable_after, fails", [(3, False), (4, True)])
    def test_redraw_rounds_are_bounded(self, monkeypatch, usable_after, fails):
        """A row whose draws stay unusable for _REDRAW_ROUNDS redraw rounds
        fails naming the parameters; one usable in the last round does not.
        The overflow probe, the one call on a single value, draws as usual."""
        monkeypatch.setattr(model, "_REDRAW_ROUNDS", 3)
        real, calls = specfun.f_quantile, []

        def patched(u, d1, d2):
            calls.append(np.shape(u))
            usable = np.shape(u) == (1,) or len(calls) > usable_after + 1
            return real(u, d1, d2) if usable else np.full(np.shape(u), np.inf)

        monkeypatch.setattr(specfun, "f_quantile", patched)
        p = G0Params(-3.0, 2.0, 2.0)
        if fails:
            with pytest.raises(ValueError, match=r"^alpha -3\.0, gamma 2\.0 and looks 2\.0 give "
                                                 r"no usable draw in 3 redraw rounds$"):
                sample_g0(p, I, 9, 1)
        else:
            assert len(sample_g0(p, I, 9, 1)) == 9
        assert calls == [(1, 9), (1,)] + [(9,)] * 3

    def test_every_draw_overflowing_fails_before_any_round(self, monkeypatch):
        """Parameters whose smallest nonzero uniform already draws inf fail
        after the stack's call and the probe's, naming the parameters; alpha
        -1e-10, whose probe draw is finite, still takes its redraw rounds."""
        calls = self.force(monkeypatch, {}, 0.0)  # forces nothing; counts the calls
        with pytest.raises(ValueError, match=r"^alpha -1e-30, gamma 1\.0 and looks 2\.0 "
                                             r"give no usable draw: every draw overflows$"):
            sample_g0_stack(G0Params(-1e-30, 1.0, 2.0), I, 5000, STACK_SEEDS)
        assert calls == [(len(STACK_SEEDS), 5000), (1,)]
        calls.clear()
        monkeypatch.setattr(model, "_REDRAW_ROUNDS", 2)
        with pytest.raises(ValueError, match=r"in 2 redraw rounds$"):
            sample_g0(G0Params(-1e-10, 1.0, 2.0), I, 50, 1)
        assert calls == [(1, 50), (1,), (50,), (50,)]

    def test_overflow_in_the_draw_is_redrawn_silently(self):
        """scale * F overflows to inf for a huge gamma; that draw is redrawn
        without a RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = sample_g0(G0Params(-0.01, 1e300, 2.0), I, 200, 1).values
        assert values.size == 200 and np.all(np.isfinite(values)) and np.all(values > 0.0)


class TestSampleCsv:
    def test_round_trip_exact(self, tmp_path):
        p = G0Params(-3.0, 2.0, 1.0)
        s = sample_g0(p, I, 64, seed=9)
        path = tmp_path / "s.csv"
        write_sample_csv(s, path)
        back = read_sample_csv(path, I)
        assert np.array_equal(back.values, s.values)
        assert back.model is I

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\n")
        with pytest.raises(ValueError):
            read_sample_csv(path, I)

    @pytest.mark.parametrize("value", ["1_0", "2.5_1", "1e1_0", "abc"])
    def test_rejects_malformed_value_naming_the_file(self, tmp_path, value):
        # float() alone would read the underscored values as numbers.
        path = tmp_path / "bad.csv"
        path.write_text(f"z\n1.5\n{value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-numeric value")):
            read_sample_csv(path, I)

    @pytest.mark.parametrize("value", ["-2", "0", "-0.0"])
    def test_rejects_nonpositive_value_naming_the_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"z\n1.5\n{value}\n3\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: sample value {value!r} is not positive")):
            read_sample_csv(path, I)

    def test_spaces_and_tabs_around_a_value(self, tmp_path):
        # Empty and whitespace-only rows are skipped.
        path = tmp_path / "s.csv"
        path.write_text("z\n 1.5\n\n2e0\t\n \t\n\t.25 \n")
        assert read_sample_csv(path, I).values.tolist() == [1.5, 2.0, 0.25]

    def test_rejects_two_values_in_a_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z\n1.5\n1,2\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: expected one value per row, got ['1', '2']")):
            read_sample_csv(path, I)

    @pytest.mark.parametrize("text", ["z\n", "z", "z\n\n \n\t\n"],
                             ids=["header-only", "header-without-newline", "blank-rows"])
    def test_rejects_no_values_naming_the_file(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no sample values$"):
            read_sample_csv(path, I)


# Number text that every reader rejects. JSON readers take each as a JSON
# string, and also the bare JSON tokens in BAD_JSON_NUMBERS.
BAD_NUMBERS = {"fullwidth-one": "\uff11", "arabic-indic-three": "\u0663", "nan": "nan",
               "inf": "inf", "overflow": "1e999", "underscore": "1_0", "hex": "0x10",
               "empty": ""}
BAD_JSON_NUMBERS = {"true": "true", "NaN": "NaN", "bare-overflow": "1e999",
                    "400-digit-integer": "1" + "0" * 399}


def _spoil_report(tmp_path, fmt, alpha):
    """A written report whose first cell's alpha field holds ``alpha``."""
    failures = {r.value: 0 for r in FailureReason}
    cell = CellStats(model=I, estimator=EstimatorKind.FAST_POLY, alpha=-3.0, looks=1.0,
                     n=9, trials=2, successes=2, failures=failures, mse=0.5,
                     mean_time_ns=10.0)
    path = tmp_path / f"report.{fmt}"
    write_report(MCReport(cells=[cell]), path, fmt)
    field = "-3.0" if fmt == "csv" else '"alpha": -3.0'
    path.write_text(path.read_text().replace(field, field.replace("-3.0", alpha), 1),
                    encoding="utf-8")
    return path


def _sample_csv(tmp_path, capsys, text):
    path = tmp_path / "s.csv"
    path.write_text(f"z\n1.5\n{text}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-numeric value")):
        read_sample_csv(path, I)


def _csv_raster(tmp_path, capsys, text):
    path = tmp_path / "grid.csv"
    path.write_text(f"1,2\n3,{text}\n", encoding="utf-8")
    with pytest.raises(RasterFormatError, match=re.escape(f"{path}:2: non-numeric cell")):
        read_raster(path, "csv", I, 1.0)


def _report(fmt):
    def check(tmp_path, capsys, text):
        path = _spoil_report(tmp_path, fmt, text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed report")):
            read_report(path, fmt)
    return check


def _mc_config(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"alphas": [{text}], "trials": 1}}', encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["mc", "--config", str(path), "--out", str(tmp_path / "r.json"),
                     "--format", "json", "--threads", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("g0lcum: error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


# Each check writes a valid file that holds the text where a number belongs
# and asserts a clean failure.
READERS = {"sample-csv": _sample_csv, "csv-raster": _csv_raster, "csv-report": _report("csv"),
           "json-report": _report("json"), "mc-config": _mc_config}
JSON_READERS = ("json-report", "mc-config")


def _reader_cases():
    for reader in READERS:
        in_json = reader in JSON_READERS
        for name, text in BAD_NUMBERS.items():
            # A sample CSV skips an empty row as a blank line.
            if not (reader == "sample-csv" and name == "empty"):
                yield pytest.param(reader, json.dumps(text) if in_json else text,
                                   id=f"{reader}-{name}")
        for name, token in BAD_JSON_NUMBERS.items() if in_json else ():
            yield pytest.param(reader, token, id=f"{reader}-{name}")


class TestParseReal:
    def test_reads_back_every_repr_bit_for_bit(self):
        bits = np.frombuffer(np.random.default_rng(5).bytes(8 * 200_000), dtype=np.float64)
        tiny = 5e-324
        edges = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308 - tiny,
                 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max]
        values = np.concatenate([bits[np.isfinite(bits)], edges])
        back = np.array([parse_real(repr(x)) for x in values.tolist()])
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("value, expected", [
        ("3", 3.0), (" -1.5e3\t", -1500.0), ("+.5E-3", 5e-4), ("5.", 5.0), (7, 7.0),
        (np.float32(0.5), 0.5), (-0.0, -0.0)])
    def test_accepts(self, value, expected):
        x = parse_real(value)
        assert type(x) is float and repr(x) == repr(expected)

    @pytest.mark.parametrize("value", [
        True, pytest.param(10 ** 400, id="400-digits"), math.nan, -math.inf, None, b"1",
        ".", "e5", "1e", " ", "1 2", "1\n", "\v1", "1,5"])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="is not a finite number"):
            parse_real(value)

    @pytest.mark.parametrize("reader, text", _reader_cases())
    def test_every_reader_rejects(self, tmp_path, capsys, reader, text):
        READERS[reader](tmp_path, capsys, text)


class TestCheckLooks:
    @pytest.mark.parametrize("value", [1, 1.0, 2.5, np.float32(3.0), np.int64(4),
                                       sys.float_info.max])
    def test_accepts(self, value):
        looks = check_looks(value)
        assert type(looks) is float and looks == value

    @pytest.mark.parametrize("value", [
        True, 0.5, 0, -1.0, math.nan, math.inf, "2", None,
        pytest.param(10 ** 400, id="400-digits")])
    def test_rejects_with_one_message(self, value):
        with pytest.raises(ValueError, match=re.escape(f"looks must be >= 1, got {value!r}")):
            check_looks(value)

    def test_every_check_rejects_a_bool(self):
        """A bool is not a number of looks anywhere it is taken."""
        s = Sample(values=np.array([1.0, 2.0, 4.0, 8.0]), model=I)
        checks = [
            lambda: G0Params(alpha=-2.0, gamma=1.0, looks=True),
            lambda: estimate_alpha(s, True, I, EstimatorKind.FAST_POLY),
            lambda: estimate_from_moments([9], [0.0], [1.0], [3.0], True, I,
                                          EstimatorKind.FAST_POLY),
            lambda: Raster(width=1, height=1, pixels=np.ones(1), model=I, looks=True),
            lambda: MCConfig(looks=(True,)),
        ]
        for check in checks:
            with pytest.raises(ValueError, match="looks must be >= 1, got True"):
                check()

    def test_params_keep_the_float(self):
        assert type(G0Params(-3.0, 2.0, np.int64(2)).looks) is float


class TestParseName:
    @pytest.mark.parametrize("kind, text", [(ModelKind, "power"), (EstimatorKind, "fastest")])
    def test_one_message(self, kind, text):
        noun = "model" if kind is ModelKind else "estimator"
        valid = ", ".join(k.value for k in kind)
        with pytest.raises(ValueError,
                           match=re.escape(f"unknown {noun} {text!r}; expected one of {valid}")):
            kind.parse(text)
