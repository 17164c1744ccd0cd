"""Seeded Monte Carlo campaigns over (model, estimator, roughness, looks,
sample size) grids, with MSE / failure-rate / runtime aggregation and
CSV/JSON report emission."""

from __future__ import annotations

import csv
import enum
import functools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import product

import numpy as np

from . import specfun
from .estimators import (
    ALPHA_FLOOR,
    EstimatorKind,
    FailureReason,
    count_failures,
    estimate_from_moments,
    log_moments,
)
from .model import (G0Params, ModelKind, check_looks, check_seed, is_int, is_real,
                    parse_count, parse_real, sample_g0_stack, unit_mean_gamma)

_DEFAULT_ALPHAS = (-1.5, -3.0, -5.0)
_DEFAULT_LOOKS = (1.0, 3.0, 8.0)
_DEFAULT_SIZES = (9, 25, 49, 121, 1000)


@dataclass(frozen=True)
class MCConfig:
    alphas: tuple = _DEFAULT_ALPHAS
    looks: tuple = _DEFAULT_LOOKS
    sizes: tuple = _DEFAULT_SIZES
    trials: int = 1000
    models: tuple = (ModelKind.INTENSITY, ModelKind.AMPLITUDE)
    estimators: tuple = (EstimatorKind.TRADITIONAL, EstimatorKind.FMOLC_SIMPLE,
                         EstimatorKind.FAST_POLY, EstimatorKind.FAST_POLY_CORRECTED)
    seed: int = 0
    alpha_floor: float = ALPHA_FLOOR

    def __post_init__(self):
        sweeps = [f.name for f in fields(self) if isinstance(f.default, tuple)]
        for name in sweeps:
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list")
        if not all(is_real(x) for x in (*self.alphas, self.alpha_floor)):
            raise ValueError("alphas and alpha_floor must be numbers")
        if not all(is_int(n) for n in self.sizes):
            raise ValueError("sizes must be integers")
        if not all(isinstance(m, ModelKind) for m in self.models):
            raise ValueError("models must be ModelKind members")
        if not all(isinstance(e, EstimatorKind) for e in self.estimators):
            raise ValueError("estimators must be EstimatorKind members")
        if not is_int(self.trials):
            raise ValueError("trials must be an integer")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "alphas", tuple(map(parse_real, self.alphas)))
        object.__setattr__(self, "looks", tuple(map(check_looks, self.looks)))
        object.__setattr__(self, "alpha_floor", parse_real(self.alpha_floor))
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for name in sweeps:
            values = getattr(self, name)
            if not values:
                raise ValueError("every sweep list must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has a repeated value")
        if any(not a < -1.0 for a in self.alphas):
            raise ValueError("alphas must be < -1 so the unit-mean scale exists")
        if any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # A cell's samples are one (trials, n) float64 stack, whose size in
        # bytes numpy holds in an intp.
        if self.trials * max(self.sizes) > np.iinfo(np.intp).max // 8:
            raise ValueError(f"trials {self.trials} at sample size {max(self.sizes)} is "
                             "more float64 values than one array can hold")
        if not self.alpha_floor < 0.0:
            raise ValueError("alpha_floor must be negative")

    @classmethod
    def from_json(cls, text: str) -> "MCConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("campaign config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key, kind in (("models", ModelKind), ("estimators", EstimatorKind)):
            if key in raw:
                names = raw[key]
                if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
                    raise ValueError(f"{key} must be a list of names")
                raw[key] = tuple(kind.parse(name) for name in names)
        return cls(**raw)

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=lambda member: member.value)

    def sample_cells(self) -> list:
        """(model, alpha, looks, n) grid in enumeration order; the per-trial
        seeds are keyed on this index so samples do not depend on which
        estimators are requested."""
        return list(product(self.models, self.alphas, self.looks, self.sizes))


def trial_seed(config_seed: int, cell_index: int, trial: int) -> int:
    """Derived 64-bit seed for one trial of one sample cell, stable under
    any parallel execution order."""
    ss = np.random.SeedSequence(config_seed, spawn_key=(cell_index, trial))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class CellStats:
    model: ModelKind
    estimator: EstimatorKind
    alpha: float
    looks: float
    n: int
    trials: int
    successes: int
    failures: dict
    mse: float | None
    mean_time_ns: float

    def failure_count(self) -> int:
        return sum(self.failures.values())


@dataclass(frozen=True)
class MCReport:
    cells: list

    def cell(self, model: ModelKind, estimator: EstimatorKind, alpha: float,
             looks: float, n: int) -> CellStats:
        for c in self.cells:
            if (c.model is model and c.estimator is estimator and c.alpha == alpha
                    and c.looks == looks and c.n == n):
                return c
        raise KeyError((model, estimator, alpha, looks, n))

    def _marginal(self, axis: str, summed, model, estimator) -> dict:
        """Per value of the field ``axis``, summed(cell) over its cells (of
        ``model`` and ``estimator`` where given) divided by their trials."""
        agg: dict = {}
        for c in self.cells:
            if model in (None, c.model) and estimator in (None, c.estimator):
                total, trials = agg.get(key := getattr(c, axis), (0, 0))
                agg[key] = (total + summed(c), trials + c.trials)
        return {key: total / trials for key, (total, trials) in sorted(agg.items())}

    def failure_rate_by_looks(self, model: ModelKind | None = None,
                              estimator: EstimatorKind | None = None) -> dict:
        """Failure rate marginalized over everything except looks."""
        return self._marginal("looks", CellStats.failure_count, model, estimator)

    def mean_time_by_size(self, estimator: EstimatorKind | None = None) -> dict:
        return self._marginal("n", lambda c: c.mean_time_ns * c.trials, None, estimator)


def mse(estimates) -> float:
    """Mean squared error over (estimate, truth) pairs, the rows of a
    sequence or a (k, 2) array."""
    pairs = np.asarray(estimates, dtype=float)
    if pairs.size == 0:
        raise ValueError("MSE of an empty estimate list is undefined")
    return float(np.mean((pairs[:, 0] - pairs[:, 1]) ** 2))


def _run_sample_cell(cfg: MCConfig, cell_index: int) -> dict:
    """Every requested estimator on one sample cell. The trials are drawn as
    one stack, each row from its own seed, and estimated as one batch.
    The timing covers the log moments of the batch plus the estimator."""
    model, alpha, looks, n = cfg.sample_cells()[cell_index]
    params = G0Params(alpha=alpha, gamma=unit_mean_gamma(alpha), looks=looks)
    seeds = (trial_seed(cfg.seed, cell_index, t) for t in range(cfg.trials))
    values = sample_g0_stack(params, model, n, seeds, cfg.trials)
    t0 = time.perf_counter_ns()
    moments = log_moments(np.log(values))
    moments_ns = time.perf_counter_ns() - t0
    out = {}
    for kind in cfg.estimators:
        t0 = time.perf_counter_ns()
        alpha_hat, _, code = estimate_from_moments(n, *moments, looks, model, kind,
                                                   cfg.alpha_floor)
        elapsed = time.perf_counter_ns() - t0 + moments_ns
        ok = alpha_hat[code == 0]
        out[kind] = CellStats(
            model=model, estimator=kind, alpha=alpha, looks=looks, n=n,
            trials=cfg.trials, successes=ok.size, failures=count_failures(code),
            mse=mse(np.column_stack([ok, np.full(ok.size, alpha)])) if ok.size else None,
            mean_time_ns=elapsed / cfg.trials,
        )
    return out


def run_campaign(cfg: MCConfig, parallelism: int = 1) -> MCReport:
    """Run every cell of the sweep; each trial's sample is shared by all
    requested estimators. Deterministic for a given config regardless of
    the parallelism degree (timing fields excepted). Cells are reported by
    model, then estimator, then alpha, looks and n."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    indices = range(len(cfg.sample_cells()))
    run = functools.partial(_run_sample_cell, cfg)
    if parallelism == 1 or len(indices) == 1:
        partials = list(map(run, indices))
    else:
        specfun.import_special()  # once, before the workers fork
        with ProcessPoolExecutor(max_workers=min(parallelism, len(indices))) as pool:
            partials = list(pool.map(run, indices))
    # Sample cells already run in (model, alpha, looks, n) order, and the
    # sort is stable.
    cells = sorted((stats for part in partials for stats in part.values()),
                   key=lambda c: (cfg.models.index(c.model),
                                  cfg.estimators.index(c.estimator)))
    return MCReport(cells=cells)


# The formats write_report writes and read_report reads.
REPORT_FORMATS = ("csv", "json")
# A CSV report names looks L and spreads failures over one column per reason.
_CSV_COLUMNS = tuple(col for f in fields(CellStats) for col in (
    [f"fail_{r.value}" for r in FailureReason] if f.name == "failures"
    else ["L" if f.name == "looks" else f.name]))


def _csv_row(rec: dict) -> list:
    """A report cell's record as its CSV row: enum members by value, and the
    failure counts in FailureReason order in place of the failures dict."""
    row = []
    for value in rec.values():
        if isinstance(value, dict):
            row.extend(value[r.value] for r in FailureReason)
        else:
            row.append(value.value if isinstance(value, enum.Enum) else value)
    return row


def write_report(report: MCReport, path, fmt: str) -> None:
    """One record per cell, its fields in declaration order. JSON writes the
    records; CSV flattens each into a row, and its writer puts floats by
    repr and None as an empty field."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    records = [{f.name: getattr(c, f.name) for f in fields(c)} for c in report.cells]
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            writer.writerows(map(_csv_row, records))
    else:
        with open(path, "w") as fh:
            fh.write(json.dumps({"cells": records}, default=lambda member: member.value))


def _cell_from_record(rec: dict) -> CellStats:
    """One report cell from its JSON record, or from a CSV row in that shape."""
    cell = CellStats(
        model=ModelKind.parse(rec["model"]),
        estimator=EstimatorKind.parse(rec["estimator"]),
        alpha=parse_real(rec["alpha"]), looks=parse_real(rec["looks"]),
        n=parse_count(rec["n"]), trials=parse_count(rec["trials"]),
        successes=parse_count(rec["successes"]),
        failures={r.value: parse_count(rec["failures"][r.value]) for r in FailureReason},
        mse=None if rec["mse"] in (None, "") else parse_real(rec["mse"]),
        mean_time_ns=parse_real(rec["mean_time_ns"]),
    )
    if cell.successes + cell.failure_count() != cell.trials:
        raise ValueError(f"{cell.successes} successes and {cell.failure_count()} failures "
                         f"do not add up to {cell.trials} trials")
    return cell


def read_report(path, fmt: str) -> MCReport:
    """A report as write_report wrote it; malformed content raises
    ValueError naming the path."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            if fmt == "json":
                records = json.load(fh)["cells"]
            else:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or tuple(header) != _CSV_COLUMNS:
                    raise ValueError(f"unexpected report header {header!r}")
                records = [dict(zip(_CSV_COLUMNS, row, strict=True)) for row in reader]
                for rec in records:
                    rec["looks"] = rec["L"]
                    rec["failures"] = {r.value: rec[f"fail_{r.value}"] for r in FailureReason}
            return MCReport(cells=[_cell_from_record(rec) for rec in records])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed report ({type(exc).__name__}: {exc})") from None
