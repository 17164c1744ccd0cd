"""Monte Carlo campaign layer: config parsing/validation, seed derivation,
per-cell aggregation, determinism across parallelism, and report round trips."""

import dataclasses
import json
import re
import tracemalloc

import pytest

from g0lcum import harness
from g0lcum.estimators import EstimatorKind, FailureReason, Status, estimate_alpha
from g0lcum.harness import (
    CellStats,
    MCConfig,
    MCReport,
    mse,
    read_report,
    run_campaign,
    trial_seed,
    write_report,
)
from g0lcum.model import G0Params, ModelKind, sample_g0, unit_mean_gamma

I = ModelKind.INTENSITY
A = ModelKind.AMPLITUDE


class TestMCConfig:
    def test_defaults(self):
        cfg = MCConfig()
        assert cfg.alphas == (-1.5, -3.0, -5.0)
        assert cfg.looks == (1.0, 3.0, 8.0)
        assert cfg.sizes == (9, 25, 49, 121, 1000)
        assert cfg.trials == 1000
        assert cfg.models == (I, A)
        assert cfg.estimators == (EstimatorKind.TRADITIONAL, EstimatorKind.FMOLC_SIMPLE,
                                  EstimatorKind.FAST_POLY, EstimatorKind.FAST_POLY_CORRECTED)
        assert cfg.seed == 0
        assert cfg.alpha_floor == -15.0
        assert len(cfg.sample_cells()) == 90

    def test_json_round_trip(self):
        cfg = MCConfig(alphas=(-2.0,), looks=(4.0,), sizes=(25, 49), trials=7,
                       models=(A,), estimators=(EstimatorKind.FAST_POLY,), seed=99)
        assert MCConfig.from_json(cfg.to_json()) == cfg

    def test_from_json_parses_names(self):
        cfg = MCConfig.from_json(json.dumps({
            "alphas": [-2.5], "models": ["amplitude"], "estimators": ["poly-corrected"]}))
        assert cfg.alphas == (-2.5,)
        assert cfg.models == (A,)
        assert cfg.estimators == (EstimatorKind.FAST_POLY_CORRECTED,)
        assert cfg.trials == 1000

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            MCConfig.from_json('{"trials": 5, "repeats": 5}')
        with pytest.raises(ValueError, match="JSON object"):
            MCConfig.from_json('[1, 2]')

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            MCConfig(alphas=())
        with pytest.raises(ValueError, match="unit-mean"):
            MCConfig(alphas=(-0.5,))
        with pytest.raises(ValueError, match="looks"):
            MCConfig(looks=(0.5,))
        with pytest.raises(ValueError, match="sizes"):
            MCConfig(sizes=(0,))
        with pytest.raises(ValueError, match="trials"):
            MCConfig(trials=0)
        with pytest.raises(ValueError, match="alpha_floor"):
            MCConfig(alpha_floor=1.0)

    @pytest.mark.parametrize("field, values, message", [
        ("sizes", (9, 25.5), "sizes must be integers"),
        ("models", (I, "amplitude"), "models must be ModelKind members"),
        ("estimators", ("poly",), "estimators must be EstimatorKind members"),
    ])
    def test_rejects_sweep_values_of_the_wrong_type(self, field, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MCConfig(**{field: values})

    @pytest.mark.parametrize("field, values", [
        ("alphas", (-3.0, -1.5, -3)),
        ("looks", (1.0, 1)),
        ("sizes", (9, 25, 9)),
        ("models", (I, A, I)),
        ("estimators", (EstimatorKind.FAST_POLY, EstimatorKind.FAST_POLY)),
    ])
    def test_rejects_repeated_sweep_values(self, field, values):
        # A repeated value would report two cells under one key.
        with pytest.raises(ValueError, match=f"{field} has a repeated value"):
            MCConfig(**{field: values})


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(0, 3, 17) == trial_seed(0, 3, 17)

    def test_distinct_across_axes(self):
        seeds = {trial_seed(s, c, t) for s in (0, 1) for c in range(6) for t in range(6)}
        assert len(seeds) == 2 * 6 * 6


class TestMse:
    def test_exact_estimate(self):
        assert mse([(-3.0, -3.0)]) == 0.0

    def test_symmetric_pair(self):
        assert mse([(-2.0, -3.0), (-4.0, -3.0)]) == 1.0

    def test_permutation_invariant(self):
        pairs = [(-2.0, -3.0), (-4.0, -3.0), (-3.5, -3.0)]
        assert mse(pairs) == mse(list(reversed(pairs)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([])


class TestRunCampaign:
    def test_single_trial_matches_direct_call(self):
        # The second sample cell draws from seeds keyed on its own index, 1.
        cfg = MCConfig(alphas=(-1.5, -3.0), looks=(2.0,), sizes=(100,), trials=1,
                       models=(I,), estimators=(EstimatorKind.FAST_POLY,), seed=11)
        cell = run_campaign(cfg).cells[1]
        params = G0Params(-3.0, unit_mean_gamma(-3.0), 2.0)
        s = sample_g0(params, I, 100, seed=trial_seed(11, 1, 0))
        direct = estimate_alpha(s, 2.0, I, EstimatorKind.FAST_POLY)
        assert cell.trials == 1
        if direct.status is Status.OK:
            assert cell.successes == 1
            assert cell.mse == (direct.alpha_hat + 3.0) ** 2
        else:
            assert cell.successes == 0
            assert cell.mse is None
            assert cell.failures[direct.failure.value] == 1

    def test_default_grid_structure(self):
        cfg = MCConfig(trials=1, seed=3)
        report = run_campaign(cfg)
        assert len(report.cells) == 360
        keys = [(c.model, c.estimator, c.alpha, c.looks, c.n) for c in report.cells]
        expected = [(m, e, a, l, n)
                    for m in cfg.models for e in cfg.estimators
                    for a in cfg.alphas for l in cfg.looks for n in cfg.sizes]
        assert keys == expected
        for c in report.cells:
            assert c.successes + sum(c.failures.values()) == c.trials

    def test_estimators_share_trial_samples(self):
        """Traditional rejects eta <= 0 outright while the polynomial route
        splits the same events between no-root and degenerate-k2, so the
        counts must reconcile cell by cell."""
        cfg = MCConfig(alphas=(-1.5,), looks=(1.0,), sizes=(9, 25), trials=300,
                       models=(I,),
                       estimators=(EstimatorKind.TRADITIONAL, EstimatorKind.FAST_POLY),
                       seed=5)
        report = run_campaign(cfg)
        for n in cfg.sizes:
            trad = report.cell(I, EstimatorKind.TRADITIONAL, -1.5, 1.0, n)
            poly = report.cell(I, EstimatorKind.FAST_POLY, -1.5, 1.0, n)
            assert trad.failures["NegativeEta"] > 0
            assert trad.failures["NegativeEta"] == (
                poly.failures["NoRealRootOrMultiple"] + poly.failures["DegenerateK2"])

    def test_correction_lowers_failure_rate(self):
        cfg = MCConfig(alphas=(-1.5,), looks=(1.0,), sizes=(9,), trials=400,
                       models=(I,),
                       estimators=(EstimatorKind.FAST_POLY,
                                   EstimatorKind.FAST_POLY_CORRECTED),
                       seed=2)
        report = run_campaign(cfg)
        plain = report.cell(I, EstimatorKind.FAST_POLY, -1.5, 1.0, 9)
        corrected = report.cell(I, EstimatorKind.FAST_POLY_CORRECTED, -1.5, 1.0, 9)
        assert corrected.failure_count() < plain.failure_count() / 2

    def test_failure_rate_drops_with_looks(self):
        cfg = MCConfig(alphas=(-1.5,), looks=(1.0, 3.0, 8.0), sizes=(9,), trials=300,
                       models=(I,), estimators=(EstimatorKind.TRADITIONAL,), seed=8)
        rates = run_campaign(cfg).failure_rate_by_looks(I, EstimatorKind.TRADITIONAL)
        assert list(rates) == [1.0, 3.0, 8.0]
        assert rates[1.0] > rates[3.0] > rates[8.0]

    def test_parallelism_does_not_change_results(self):
        cfg = MCConfig(alphas=(-1.5, -3.0), looks=(1.0,), sizes=(25,), trials=150,
                       models=(I,),
                       estimators=(EstimatorKind.TRADITIONAL,
                                   EstimatorKind.FAST_POLY_CORRECTED),
                       seed=21)
        serial = run_campaign(cfg, parallelism=1)
        parallel = run_campaign(cfg, parallelism=2)

        def strip_timing(report):
            return [(c.model, c.estimator, c.alpha, c.looks, c.n, c.trials,
                     c.successes, c.failures, c.mse) for c in report.cells]

        assert strip_timing(serial) == strip_timing(parallel)

    def test_pool_has_one_worker_per_sample_cell_at_most(self, monkeypatch):
        requested = []

        class SerialPool:
            # Records the pool size and runs the cells in this process.
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        cfg = MCConfig(alphas=(-1.5, -3.0), looks=(1.0,), sizes=(9,), trials=5,
                       models=(I,), estimators=(EstimatorKind.FMOLC_SIMPLE,))
        assert len(run_campaign(cfg, parallelism=64).cells) == 2
        assert run_campaign(cfg, parallelism=2).cells
        assert requested == [2, 2]

    def test_rejects_bad_parallelism(self):
        with pytest.raises(ValueError):
            run_campaign(MCConfig(trials=1), parallelism=0)

    def test_blocks_of_whole_trials_keep_every_cell(self, monkeypatch):
        """With blocks of 100 values, a 10-trial n = 25 cell draws 4, 4 and 2
        trials, each block from the list of its trial seeds, and reports as
        a cell drawn in one block does (timing aside)."""
        cfg = MCConfig(alphas=(-1.5, -3.0), looks=(2.0,), sizes=(25,), trials=10,
                       models=(I,), seed=6)
        whole = run_campaign(cfg).cells
        draw, seeds = harness.sample_g0_stack, []

        def record(params, model, n, block):
            seeds.append(block)
            return draw(params, model, n, block)

        monkeypatch.setattr(harness, "sample_g0_stack", record)
        monkeypatch.setattr(harness, "_BLOCK_VALUES", 100)
        blocked = run_campaign(cfg).cells
        assert [len(b) for b in seeds] == [4, 4, 2] * 2
        assert all(type(b) is list for b in seeds)
        assert sum(seeds, []) == [trial_seed(6, c, t) for c in (0, 1) for t in range(10)]
        assert ([dataclasses.replace(c, mean_time_ns=0.0) for c in blocked]
                == [dataclasses.replace(c, mean_time_ns=0.0) for c in whole])

    def test_cell_memory_does_not_grow_with_blocked_trials(self, monkeypatch):
        """A cell holds its trials' moments, not their samples: with blocks
        of 10 trials at n = 100, each added trial raises its peak by under
        400 B (a whole (trials, n) stack costs 8 B a value several times)."""
        monkeypatch.setattr(harness, "_BLOCK_VALUES", 1000)

        def peak(trials):
            cfg = MCConfig(alphas=(-3.0,), looks=(2.0,), sizes=(100,), trials=trials,
                           models=(I,), seed=1)
            tracemalloc.start()
            try:
                harness._run_sample_cell(cfg, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(50)  # first-call allocations
        assert (peak(2000) - peak(200)) / 1800 < 400


def _toy_report():
    def cell(estimator, looks, n, successes, neg, time_ns, mse_val):
        failures = {r.value: 0 for r in FailureReason}
        failures["NegativeEta"] = neg
        return CellStats(model=I, estimator=estimator, alpha=-3.0, looks=looks,
                         n=n, trials=successes + neg, successes=successes,
                         failures=failures, mse=mse_val, mean_time_ns=time_ns)

    return MCReport(cells=[
        cell(EstimatorKind.TRADITIONAL, 1.0, 9, 8, 2, 100.0, 0.5),
        cell(EstimatorKind.TRADITIONAL, 3.0, 9, 10, 0, 200.0, 0.25),
        cell(EstimatorKind.FAST_POLY, 1.0, 25, 6, 4, 300.0, None),
    ])


def _edit_csv_row(edit):
    """Report text with ``edit`` applied to the fields of its first data row."""
    def spoil(text):
        lines = text.splitlines()
        lines[1] = ",".join(edit(lines[1].split(",")))
        return "\n".join(lines) + "\n"
    return spoil


def _edit_json(edit):
    return lambda text: json.dumps(edit(json.loads(text)))


def _drop_a_reason(payload):
    del payload["cells"][0]["failures"]["DegenerateK2"]
    return payload


def _json_counts(**counts):
    """Report text with the first JSON cell's counts replaced: n, trials,
    successes, or a failure count by its reason."""
    def edit(payload):
        cell = payload["cells"][0]
        for key, value in counts.items():
            (cell if key in cell else cell["failures"])[key] = value
        return payload
    return _edit_json(edit)


MALFORMED_REPORTS = {
    "csv-row-two-fields-short": ("csv", _edit_csv_row(lambda fields: fields[:-2])),
    "csv-row-two-fields-long": ("csv", _edit_csv_row(lambda fields: fields + ["1", "2"])),
    "json-without-cells": ("json", _edit_json(lambda payload: {"rows": payload["cells"]})),
    "json-top-level-list": ("json", _edit_json(lambda payload: payload["cells"])),
    "json-failures-short-a-reason": ("json", _edit_json(_drop_a_reason)),
    # The first cell has 10 trials: 8 successes and 2 NegativeEta failures.
    "json-n-not-whole": ("json", _json_counts(n=9.5)),
    "json-trials-boolean": ("json", _json_counts(trials=True, successes=1, NegativeEta=0)),
    "json-failure-count-not-whole": ("json", _json_counts(successes=7.5, NegativeEta=2.5)),
    "json-negative-count": ("json", _json_counts(successes=-2, NegativeEta=12)),
    "json-counts-do-not-add-up": ("json", _json_counts(successes=5)),
    # Fields 6 and 7 of a CSV row are successes and fail_NegativeEta.
    "csv-negative-count": ("csv", _edit_csv_row(lambda f: f[:6] + ["-2", "12"] + f[8:])),
    "csv-counts-do-not-add-up": ("csv", _edit_csv_row(lambda f: f[:6] + ["5"] + f[7:])),
    # int() and float() alone would read each of these as the written value.
    "csv-count-underscored": ("csv", _edit_csv_row(lambda f: f[:5] + ["1_0"] + f[6:])),
    "csv-count-spaced": ("csv", _edit_csv_row(lambda f: f[:6] + [" 8"] + f[7:])),
    "csv-count-signed": ("csv", _edit_csv_row(lambda f: f[:7] + ["+2"] + f[8:])),
    "csv-alpha-underscored": ("csv", _edit_csv_row(lambda f: f[:2] + ["-0_3.0"] + f[3:])),
}


class TestMarginals:
    def test_failure_rate_by_looks(self):
        rates = _toy_report().failure_rate_by_looks()
        assert rates == {1.0: 6 / 20, 3.0: 0.0}
        only_trad = _toy_report().failure_rate_by_looks(I, EstimatorKind.TRADITIONAL)
        assert only_trad == {1.0: 0.2, 3.0: 0.0}

    def test_mean_time_by_size(self):
        times = _toy_report().mean_time_by_size()
        assert times == {9: 150.0, 25: 300.0}
        assert _toy_report().mean_time_by_size(EstimatorKind.FAST_POLY) == {25: 300.0}

    def test_cell_lookup(self):
        report = _toy_report()
        assert report.cell(I, EstimatorKind.FAST_POLY, -3.0, 1.0, 25).successes == 6
        with pytest.raises(KeyError):
            report.cell(A, EstimatorKind.FAST_POLY, -3.0, 1.0, 25)


class TestReportIO:
    def test_empty_report_is_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report(MCReport(cells=[]), path, "csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("model,estimator,alpha,L,n,trials,successes,fail_")
        assert read_report(path, "csv").cells == []

    def test_csv_round_trip(self, tmp_path):
        report = _toy_report()
        path = tmp_path / "report.csv"
        write_report(report, path, "csv")
        assert read_report(path, "csv").cells == report.cells

    def test_json_round_trip(self, tmp_path):
        report = _toy_report()
        path = tmp_path / "report.json"
        write_report(report, path, "json")
        assert read_report(path, "json").cells == report.cells

    def test_csv_column_order(self, tmp_path):
        path = tmp_path / "cols.csv"
        write_report(_toy_report(), path, "csv")
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["model", "estimator", "alpha", "L", "n", "trials",
                          "successes", "fail_NegativeEta", "fail_NoRealRootOrMultiple",
                          "fail_RootOutOfRange", "fail_SolverNoConvergence",
                          "fail_DegenerateK2", "mse", "mean_time_ns"]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format 'parquet'"):
            write_report(_toy_report(), tmp_path / "x.bin", "parquet")
        assert not (tmp_path / "x.bin").exists()
        with pytest.raises(ValueError, match="unknown report format 'parquet'"):
            read_report(tmp_path / "missing.bin", "parquet")

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_report(path, "csv")

    @pytest.mark.parametrize("case", MALFORMED_REPORTS)
    def test_malformed_report_rejected(self, tmp_path, case):
        fmt, spoil = MALFORMED_REPORTS[case]
        path = tmp_path / f"report.{fmt}"
        write_report(_toy_report(), path, fmt)
        path.write_text(spoil(path.read_text()))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_report(path, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_utf8_report_rejected(self, tmp_path, fmt):
        path = tmp_path / f"report.{fmt}"
        write_report(_toy_report(), path, fmt)
        path.write_bytes(path.read_bytes().replace(b"intensity", b"intensit\xff", 1))
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed report "
                                                       "(UnicodeDecodeError")):
            read_report(path, fmt)


class TestGoldenBytes:
    """The exact bytes of campaign artifacts, so a refactor of the writers
    cannot change what a campaign publishes."""

    def test_toy_report_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(_toy_report(), path, "csv")
        assert path.read_bytes() == (
            b"model,estimator,alpha,L,n,trials,successes,fail_NegativeEta,"
            b"fail_NoRealRootOrMultiple,fail_RootOutOfRange,fail_SolverNoConvergence,"
            b"fail_DegenerateK2,mse,mean_time_ns\r\n"
            b"intensity,traditional,-3.0,1.0,9,10,8,2,0,0,0,0,0.5,100.0\r\n"
            b"intensity,traditional,-3.0,3.0,9,10,10,0,0,0,0,0,0.25,200.0\r\n"
            b"intensity,poly,-3.0,1.0,25,10,6,4,0,0,0,0,,300.0\r\n")

    def test_toy_report_json(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_toy_report(), path, "json")

        def cell(estimator, looks, n, successes, neg, mse_val, time_ns):
            return (f'{{"model": "intensity", "estimator": "{estimator}", "alpha": -3.0, '
                    f'"looks": {looks}, "n": {n}, "trials": 10, "successes": {successes}, '
                    f'"failures": {{"NegativeEta": {neg}, "NoRealRootOrMultiple": 0, '
                    f'"RootOutOfRange": 0, "SolverNoConvergence": 0, "DegenerateK2": 0}}, '
                    f'"mse": {mse_val}, "mean_time_ns": {time_ns}}}')

        assert path.read_bytes() == ('{"cells": [' + ", ".join([
            cell("traditional", "1.0", 9, 8, 2, "0.5", "100.0"),
            cell("traditional", "3.0", 9, 10, 0, "0.25", "200.0"),
            cell("poly", "1.0", 25, 6, 4, "null", "300.0"),
        ]) + "]}").encode()

    def test_default_config_json(self):
        assert MCConfig().to_json() == (
            '{"alphas": [-1.5, -3.0, -5.0], "looks": [1.0, 3.0, 8.0], '
            '"sizes": [9, 25, 49, 121, 1000], "trials": 1000, '
            '"models": ["intensity", "amplitude"], '
            '"estimators": ["traditional", "fmolc", "poly", "poly-corrected"], '
            '"seed": 0, "alpha_floor": -15.0}')
        # Integer numbers read as floats, so equal configs write equal bytes.
        same = MCConfig.from_json('{"alphas": [-1.5, -3, -5], "looks": [1, 3, 8], '
                                  '"alpha_floor": -15}')
        assert same.to_json() == MCConfig().to_json()

    def test_custom_config_json(self):
        cfg = MCConfig(alphas=(-2.0, -7.25), looks=(4.0,), sizes=(25, 49), trials=7,
                       models=(A,), estimators=(EstimatorKind.FAST_POLY_CORRECTED,
                                                EstimatorKind.TRADITIONAL),
                       seed=99, alpha_floor=-20.5)
        assert cfg.to_json() == (
            '{"alphas": [-2.0, -7.25], "looks": [4.0], "sizes": [25, 49], "trials": 7, '
            '"models": ["amplitude"], "estimators": ["poly-corrected", "traditional"], '
            '"seed": 99, "alpha_floor": -20.5}')
