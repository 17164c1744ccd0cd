"""Invariants every estimation path keeps, for all four estimators and both
models: scaling a sample by c leaves alpha_hat alone and scales gamma_hat
by c (intensity) or c^2 (amplitude); reordering a sample changes nothing;
a constant sample has exactly zero spread; and a campaign cell, which
estimates its trials as one batch, agrees with estimate_alpha trial by
trial. Roughness maps keep the first two with no-data pixels in their
windows."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from g0lcum import harness, raster
from g0lcum.estimators import (
    FAILURE_CODES,
    EstimatorKind,
    count_failures,
    estimate_alpha,
    estimate_from_moments,
    log_moments,
)
from g0lcum.harness import MCConfig, run_campaign, trial_seed
from g0lcum.model import G0Params, ModelKind, Sample, sample_g0, unit_mean_gamma
from g0lcum.raster import Raster, roughness_map

MODELS = list(ModelKind)
KINDS = list(EstimatorKind)
LOOKS = 2.0
SCALES = (1e-3, 7.5, 2.0 ** 20)


def samples(model: ModelKind, n: int, count: int = 12):
    out = []
    for alpha in (-1.5, -3.0, -5.0):
        params = G0Params(alpha, unit_mean_gamma(alpha), LOOKS)
        out += [sample_g0(params, model, n, seed).values for seed in range(count)]
    return out


def gamma_power(model: ModelKind) -> int:
    return 1 if model is ModelKind.INTENSITY else 2


def batch(values: np.ndarray, model: ModelKind, kind: EstimatorKind):
    """A campaign cell's estimation of a (trials, n) stack of samples."""
    return estimate_from_moments(values.shape[1], *log_moments(np.log(values)),
                                 LOOKS, model, kind)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("kind", KINDS)
class TestScaleAndOrder:
    def test_scaling_through_estimate_alpha(self, model, kind):
        for values in samples(model, 25):
            base = estimate_alpha(Sample(values, model), LOOKS, model, kind)
            for c in SCALES:
                res = estimate_alpha(Sample(values * c, model), LOOKS, model, kind)
                assert res.failure is base.failure
                if base.failure is None:
                    assert res.alpha_hat == pytest.approx(base.alpha_hat, rel=1e-12, abs=0.0)
                    assert res.gamma_hat == pytest.approx(
                        base.gamma_hat * c ** gamma_power(model), rel=1e-12, abs=0.0)

    def test_reordering_through_estimate_alpha(self, model, kind):
        rng = np.random.default_rng(2)
        for values in samples(model, 25):
            base = estimate_alpha(Sample(values, model), LOOKS, model, kind)
            res = estimate_alpha(Sample(rng.permutation(values), model), LOOKS, model, kind)
            assert res.failure is base.failure
            if base.failure is None:
                assert res.alpha_hat == pytest.approx(base.alpha_hat, rel=1e-12, abs=0.0)
                assert res.gamma_hat == pytest.approx(base.gamma_hat, rel=1e-12, abs=0.0)

    def test_scaling_and_reordering_through_a_batch(self, model, kind):
        values = np.stack(samples(model, 25))
        rng = np.random.default_rng(3)
        alpha, gamma, code = batch(values, model, kind)
        ok = code == 0
        variants = [(values * c, c ** gamma_power(model)) for c in SCALES]
        variants.append((rng.permuted(values, axis=1), 1.0))
        for changed, factor in variants:
            a, g, c = batch(changed, model, kind)
            assert np.array_equal(c, code)
            np.testing.assert_allclose(a[ok], alpha[ok], rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(g[ok], gamma[ok] * factor, rtol=1e-12, atol=0.0)

    def test_scaling_and_reordering_through_a_campaign_cell(self, model, kind, monkeypatch):
        cfg = MCConfig(alphas=(-3.0,), looks=(LOOKS,), sizes=(25,), trials=40,
                       models=(model,), estimators=(kind,), seed=4)
        base = run_campaign(cfg).cells[0]
        draw = harness.sample_g0_stack
        rng = np.random.default_rng(5)
        for change in (lambda v: v * 7.5, lambda v: v * 1e-3, rng.permutation):
            monkeypatch.setattr(harness, "sample_g0_stack",
                                lambda *args: np.array([change(row) for row in draw(*args)]))
            cell = run_campaign(cfg).cells[0]
            assert (cell.successes, cell.failures) == (base.successes, base.failures)
            if base.mse is not None:
                assert cell.mse == pytest.approx(base.mse, rel=1e-12, abs=0.0)


def no_data_scene(height=26, width=31, seed=15) -> np.ndarray:
    """Heavy-tailed grid with a no-data patch and 5% scattered zero pixels."""
    rng = np.random.default_rng(seed)
    grid = rng.gamma(2.0, 1.0, (height, width)) / rng.gamma(3.0, 1.0, (height, width))
    grid[5:12, 8:17] = 0.0
    grid[rng.random(grid.shape) < 0.05] = 0.0
    return grid


def map_of(grid: np.ndarray, model: ModelKind, kind: EstimatorKind):
    """A window-5 map's alpha, gamma and per-window outcome codes."""
    r = Raster(width=grid.shape[1], height=grid.shape[0], pixels=grid.ravel(),
               model=model, looks=LOOKS)
    m = roughness_map(r, window=5, kind=kind)
    logs = np.log(grid, out=np.full(grid.shape, np.nan), where=grid > 0.0)
    windows = sliding_window_view(logs, (5, 5))
    n, *moments = (x.reshape(windows.shape[:2])
                   for x in raster._window_moments(windows.reshape(-1, 25)))
    code = raster._estimate_windows(n, *moments, model, LOOKS, kind,
                                    *np.full((2, *n.shape), np.nan))
    assert m.failures == count_failures(code)
    assert m.sparse_windows == np.count_nonzero(n < 4) > 0
    return m.alpha, m.gamma, code


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("kind", KINDS)
class TestMapInvariants:
    """Scaling and transposing a raster with no-data pixels: the first
    scales each window, the second reorders each window's pixels."""

    def test_scaling_a_raster(self, model, kind):
        grid = no_data_scene()
        alpha, gamma, code = map_of(grid, model, kind)
        ok = ~np.isnan(alpha)
        assert ok.any()
        for c in SCALES:
            a, g, changed = map_of(grid * c, model, kind)
            assert np.array_equal(changed, code)
            np.testing.assert_allclose(a[ok], alpha[ok], rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(g[ok], gamma[ok] * c ** gamma_power(model),
                                       rtol=1e-12, atol=0.0)

    def test_transposing_a_raster(self, model, kind):
        grid = no_data_scene()
        alpha, gamma, code = map_of(grid, model, kind)
        a, g, changed = map_of(grid.T.copy(), model, kind)
        assert np.array_equal(changed, code.T)
        assert np.array_equal(np.isnan(a), np.isnan(alpha.T))
        ok = ~np.isnan(a)
        np.testing.assert_allclose(a[ok], alpha.T[ok], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(g[ok], gamma.T[ok], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("kind", KINDS)
def test_campaign_cell_matches_per_trial_estimate_alpha(model, kind):
    """Same status and reason per trial, estimates within 1e-12, and the
    cell's counts and MSE equal those of the per-trial loop."""
    cfg = MCConfig(alphas=(-5.0,), looks=(1.0,), sizes=(9,), trials=150,
                   models=(model,), estimators=(kind,), seed=12)
    cell = run_campaign(cfg).cells[0]
    params = G0Params(-5.0, unit_mean_gamma(-5.0), 1.0)
    trials = [sample_g0(params, model, 9, trial_seed(cfg.seed, 0, t))
              for t in range(cfg.trials)]
    alpha, gamma, code = estimate_from_moments(
        9, *log_moments(np.log(np.stack([s.values for s in trials]))), 1.0, model, kind)
    failures = {reason.value: 0 for reason in FAILURE_CODES[1:]}
    hits = []
    for t, s in enumerate(trials):
        res = estimate_alpha(s, 1.0, model, kind)
        assert FAILURE_CODES[code[t]] is res.failure, t
        if res.failure is None:
            assert alpha[t] == pytest.approx(res.alpha_hat, rel=1e-12, abs=0.0)
            assert gamma[t] == pytest.approx(res.gamma_hat, rel=1e-12, abs=0.0)
            hits.append(res.alpha_hat)
        else:
            failures[res.failure.value] += 1
    assert cell.successes == len(hits)
    assert cell.failures == failures
    assert hits
    loop_mse = sum((a + 5.0) ** 2 for a in hits) / len(hits)
    assert cell.mse == pytest.approx(loop_mse, rel=1e-12, abs=0.0)


class TestConstantSample:
    """A constant sample has zero spread on every path: k2 = 0, so the
    corrected estimator sees sigma = 0 and the point-estimate posterior."""

    SIZES = (4, 5, 9, 25, 121, 1001)
    VALUES = (1e-12, 0.3, 1.0, 2.5, 7.25, 1e9)

    @pytest.mark.parametrize("model", MODELS)
    def test_estimate_alpha(self, model):
        for n in self.SIZES:
            for v in self.VALUES:
                s = Sample(np.full(n, v), model)
                for kind in KINDS:
                    res = estimate_alpha(s, LOOKS, model, kind)
                    assert res.cumulants.k2 == 0.0, (n, v)
                    assert res.cumulants.k1 == pytest.approx(math.log(v), rel=1e-12)
                    if kind is EstimatorKind.FAST_POLY_CORRECTED:
                        assert res.eta.sigma == 0.0 and res.eta.eta_m == 1e-12

    @pytest.mark.parametrize("model", MODELS)
    def test_batch_matches_estimate_alpha(self, model):
        for n in self.SIZES:
            values = np.stack([np.full(n, v) for v in self.VALUES])
            k1, k2, m4 = log_moments(np.log(values))
            assert not k2.any() and not m4.any()
            for kind in KINDS:
                _, _, code = estimate_from_moments(n, k1, k2, m4, LOOKS, model, kind)
                for v, c in zip(self.VALUES, code):
                    res = estimate_alpha(Sample(np.full(n, v), model), LOOKS, model, kind)
                    assert FAILURE_CODES[c] is res.failure, (n, v, kind)

    @pytest.mark.parametrize("model", MODELS)
    def test_map_window(self, model):
        """A constant raster, whole or with zero pixels that leave its six
        window-5 windows 25, 24 or 23 usable pixels: every window has
        exactly zero spread and fails as estimate_alpha does on its usable
        pixels."""
        for v in self.VALUES:
            for zeros in ((), ((0, 0), (1, 1), (5, 6))):
                grid = np.full((6, 7), v)
                for ij in zeros:
                    grid[ij] = 0.0
                logs = np.log(grid, out=np.full(grid.shape, np.nan), where=grid > 0.0)
                windows = sliding_window_view(logs, (5, 5)).reshape(-1, 25)
                n, _, k2, m4 = raster._window_moments(windows)
                assert sorted(set(n.tolist())) == ([23, 24, 25] if zeros else [25])
                assert not k2.any() and not m4.any(), (v, zeros)
                r = Raster(width=7, height=6, pixels=grid.ravel(), model=model, looks=LOOKS)
                for kind in KINDS:
                    m = roughness_map(r, window=5, kind=kind)
                    failures = {reason.value: 0 for reason in FAILURE_CODES[1:]}
                    for i, j in np.ndindex(2, 3):
                        usable = grid[i:i + 5, j:j + 5][grid[i:i + 5, j:j + 5] > 0.0]
                        res = estimate_alpha(Sample(usable, model), LOOKS, model, kind)
                        if res.failure is None:
                            assert m.alpha[i + 2, j + 2] == pytest.approx(
                                res.alpha_hat, rel=1e-12, abs=0.0)
                        else:
                            assert np.isnan(m.alpha[i + 2, j + 2])
                            failures[res.failure.value] += 1
                    assert m.failures == failures, (v, zeros, kind)
