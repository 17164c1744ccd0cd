"""Seeded Monte Carlo campaigns over (model, estimator, roughness, looks,
sample size) grids, with MSE / failure-rate / runtime aggregation and
CSV/JSON report emission."""

from __future__ import annotations

import csv
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .estimators import EstimatorKind, FailureReason, Status, estimate_alpha
from .model import G0Params, ModelKind, sample_g0, unit_mean_gamma

_DEFAULT_ALPHAS = (-1.5, -3.0, -5.0)
_DEFAULT_LOOKS = (1.0, 3.0, 8.0)
_DEFAULT_SIZES = (9, 25, 49, 121, 1000)
_SWEEP_FIELDS = ("alphas", "looks", "sizes", "models", "estimators")


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


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
    alpha_floor: float = -15.0

    def __post_init__(self):
        for name in _SWEEP_FIELDS:
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list")
        if not all(_is_real(x) for x in (*self.alphas, *self.looks, self.alpha_floor)):
            raise ValueError("alphas, looks and alpha_floor must be numbers")
        if not all(_is_int(n) for n in self.sizes):
            raise ValueError("sizes must be integers")
        if not all(isinstance(m, ModelKind) for m in self.models):
            raise ValueError("models must be ModelKind members")
        if not all(isinstance(e, EstimatorKind) for e in self.estimators):
            raise ValueError("estimators must be EstimatorKind members")
        if not _is_int(self.trials):
            raise ValueError("trials must be an integer")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "looks", tuple(float(l) for l in self.looks))
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not (self.alphas and self.looks and self.sizes and self.models and self.estimators):
            raise ValueError("every sweep list must be nonempty")
        if any(not (math.isfinite(a) and a < -1.0) for a in self.alphas):
            raise ValueError("alphas must be < -1 so the unit-mean scale exists")
        if any(not (math.isfinite(l) and l >= 1.0) for l in self.looks):
            raise ValueError("looks must be >= 1")
        if any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (math.isfinite(self.alpha_floor) and self.alpha_floor < 0.0):
            raise ValueError("alpha_floor must be negative")

    @classmethod
    def from_json(cls, text: str) -> "MCConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("campaign config must be a JSON object")
        known = {"alphas", "looks", "sizes", "trials", "models", "estimators",
                 "seed", "alpha_floor"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("models", "estimators"):
            names = raw.get(key, [])
            if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
                raise ValueError(f"{key} must be a list of names")
        kwargs = {}
        for key in ("alphas", "looks", "sizes", "trials", "seed", "alpha_floor"):
            if key in raw:
                kwargs[key] = raw[key]
        if "models" in raw:
            kwargs["models"] = tuple(ModelKind.parse(m) for m in raw["models"])
        if "estimators" in raw:
            kwargs["estimators"] = tuple(EstimatorKind.parse(e) for e in raw["estimators"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps({
            "alphas": list(self.alphas),
            "looks": list(self.looks),
            "sizes": list(self.sizes),
            "trials": self.trials,
            "models": [m.value for m in self.models],
            "estimators": [e.value for e in self.estimators],
            "seed": self.seed,
            "alpha_floor": self.alpha_floor,
        })

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

    def failure_rate(self) -> float:
        return self.failure_count() / self.trials


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

    def failure_rate_by_looks(self, model: ModelKind | None = None,
                              estimator: EstimatorKind | None = None) -> dict:
        """Failure rate marginalized over everything except looks."""
        agg: dict = {}
        for c in self.cells:
            if model is not None and c.model is not model:
                continue
            if estimator is not None and c.estimator is not estimator:
                continue
            fails, total = agg.get(c.looks, (0, 0))
            agg[c.looks] = (fails + c.failure_count(), total + c.trials)
        return {looks: fails / total for looks, (fails, total) in sorted(agg.items())}

    def mean_time_by_size(self, estimator: EstimatorKind | None = None) -> dict:
        agg: dict = {}
        for c in self.cells:
            if estimator is not None and c.estimator is not estimator:
                continue
            tsum, total = agg.get(c.n, (0.0, 0))
            agg[c.n] = (tsum + c.mean_time_ns * c.trials, total + c.trials)
        return {n: tsum / total for n, (tsum, total) in sorted(agg.items())}


def mse(estimates) -> float:
    """Mean squared error over (estimate, truth) pairs."""
    pairs = list(estimates)
    if not pairs:
        raise ValueError("MSE of an empty estimate list is undefined")
    return float(np.mean([(a - b) ** 2 for a, b in pairs]))


def _run_sample_cell(args) -> dict:
    cfg, cell_index = args
    model, alpha, looks, n = cfg.sample_cells()[cell_index]
    params = G0Params(alpha=alpha, gamma=unit_mean_gamma(alpha), looks=looks)
    acc = {kind: {"successes": 0, "sq_err": 0.0,
                  "failures": {r: 0 for r in FailureReason}, "time_ns": 0}
           for kind in cfg.estimators}
    for trial in range(cfg.trials):
        sample = sample_g0(params, model, n, trial_seed(cfg.seed, cell_index, trial))
        for kind in cfg.estimators:
            res = estimate_alpha(sample, looks, model, kind, cfg.alpha_floor)
            a = acc[kind]
            a["time_ns"] += res.elapsed_ns
            if res.status is Status.OK:
                a["successes"] += 1
                a["sq_err"] += (res.alpha_hat - alpha) ** 2
            else:
                a["failures"][res.failure] += 1
    out = {}
    for kind, a in acc.items():
        out[kind] = CellStats(
            model=model, estimator=kind, alpha=alpha, looks=looks, n=n,
            trials=cfg.trials, successes=a["successes"],
            failures={r.value: c for r, c in a["failures"].items()},
            mse=a["sq_err"] / a["successes"] if a["successes"] else None,
            mean_time_ns=a["time_ns"] / cfg.trials,
        )
    return out


def run_campaign(cfg: MCConfig, parallelism: int = 1) -> MCReport:
    """Run every cell of the sweep; each trial's sample is shared by all
    requested estimators. Deterministic for a given config regardless of
    the parallelism degree (timing fields excepted)."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    cells = cfg.sample_cells()
    work = [(cfg, i) for i in range(len(cells))]
    if parallelism == 1 or len(cells) == 1:
        partials = [_run_sample_cell(w) for w in work]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            partials = list(pool.map(_run_sample_cell, work))
    by_key = {}
    for (model, alpha, looks, n), part in zip(cells, partials):
        for kind, stats in part.items():
            by_key[(model, kind, alpha, looks, n)] = stats
    ordered = []
    for model in cfg.models:
        for kind in cfg.estimators:
            for alpha in cfg.alphas:
                for looks in cfg.looks:
                    for n in cfg.sizes:
                        ordered.append(by_key[(model, kind, alpha, looks, n)])
    return MCReport(cells=ordered)


_CSV_COLUMNS = ("model", "estimator", "alpha", "L", "n", "trials", "successes",
                *(f"fail_{r.value}" for r in FailureReason), "mse", "mean_time_ns")


def write_report(report: MCReport, path, fmt: str) -> None:
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for c in report.cells:
                writer.writerow([
                    c.model.value, c.estimator.value, repr(c.alpha), repr(c.looks),
                    c.n, c.trials, c.successes,
                    *(c.failures[r.value] for r in FailureReason),
                    "" if c.mse is None else repr(c.mse), repr(c.mean_time_ns),
                ])
    elif fmt == "json":
        payload = {"cells": [{
            "model": c.model.value, "estimator": c.estimator.value,
            "alpha": c.alpha, "looks": c.looks, "n": c.n, "trials": c.trials,
            "successes": c.successes, "failures": c.failures,
            "mse": c.mse, "mean_time_ns": c.mean_time_ns,
        } for c in report.cells]}
        with open(path, "w") as fh:
            json.dump(payload, fh)
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def read_report(path, fmt: str) -> MCReport:
    cells = []
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != _CSV_COLUMNS:
                raise ValueError(f"{path}: unexpected report header {header!r}")
            for row in reader:
                rec = dict(zip(_CSV_COLUMNS, row))
                cells.append(CellStats(
                    model=ModelKind.parse(rec["model"]),
                    estimator=EstimatorKind.parse(rec["estimator"]),
                    alpha=float(rec["alpha"]), looks=float(rec["L"]),
                    n=int(rec["n"]), trials=int(rec["trials"]),
                    successes=int(rec["successes"]),
                    failures={r.value: int(rec[f"fail_{r.value}"]) for r in FailureReason},
                    mse=None if rec["mse"] == "" else float(rec["mse"]),
                    mean_time_ns=float(rec["mean_time_ns"]),
                ))
    elif fmt == "json":
        with open(path) as fh:
            payload = json.load(fh)
        for rec in payload["cells"]:
            cells.append(CellStats(
                model=ModelKind.parse(rec["model"]),
                estimator=EstimatorKind.parse(rec["estimator"]),
                alpha=float(rec["alpha"]), looks=float(rec["looks"]),
                n=int(rec["n"]), trials=int(rec["trials"]),
                successes=int(rec["successes"]),
                failures=dict(rec["failures"]),
                mse=rec["mse"], mean_time_ns=float(rec["mean_time_ns"]),
            ))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return MCReport(cells=cells)
