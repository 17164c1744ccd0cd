"""The three benchmark workloads and their input generators.

Every input is made from the workload seed with numpy's own Gamma and
reciprocal-Gamma draws, never with ``g0lcum.sample_g0``, so the program under
test receives only the generated inputs. Each workload has the same shape:
the constructor is the set-up, ``request(i)`` is one timed call into the
program, ``check(i, out)`` validates that call's output, and ``final_checks``
recomputes a few results directly after the timed loop.

Why each workload exists, and which layers it leaves alone, is written in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from tracing import REASONS

ALPHA_FLOOR = -15.0


@dataclass(frozen=True)
class Sizes:
    campaign_trials: int
    campaign_seeds: int
    map_side: int
    map_scenes: int
    map_patch: int
    single_pool: int


FULL = Sizes(campaign_trials=20, campaign_seeds=2, map_side=80, map_scenes=60,
             map_patch=16, single_pool=10000)
TINY = Sizes(campaign_trials=2, campaign_seeds=1, map_side=64, map_scenes=2,
             map_patch=14, single_pool=400)


def g0_draw(rng: np.random.Generator, alpha: float, looks: float, n: int,
            amplitude: bool) -> np.ndarray:
    """G0 speckle with unit-mean intensity: unit-mean Gamma(looks) speckle
    times a reciprocal-Gamma(-alpha) texture of scale -alpha - 1."""
    speckle = rng.gamma(looks, 1.0 / looks, n)
    texture = (-alpha - 1.0) / rng.gamma(-alpha, 1.0, n)
    z = speckle * texture
    if not (np.all(np.isfinite(z)) and np.all(z > 0.0)):
        raise ArithmeticError("generator produced a non-positive or non-finite value")
    return np.sqrt(z) if amplitude else z


def _check_estimate(status: str, reason, alpha, gamma) -> list:
    if status == "Ok":
        if reason is not None:
            return [f"Ok result carries failure {reason!r}"]
        if not (alpha is not None and math.isfinite(alpha) and ALPHA_FLOOR <= alpha < 0.0):
            return [f"Ok result has alpha_hat {alpha!r} outside [{ALPHA_FLOOR}, 0)"]
        if not (gamma is not None and math.isfinite(gamma) and gamma > 0.0):
            return [f"Ok result has gamma_hat {gamma!r} <= 0"]
        return []
    if status == "Failed":
        if reason not in REASONS:
            return [f"Failed result carries no taxonomy reason ({reason!r})"]
        return []
    return [f"unknown status {status!r}"]


class Campaign:
    """``g0lcum mc``, one worker, one cell of the default grid per request
    with every estimator. Requests cycle through every cell under a fixed
    set of config seeds, so the cycle covers the whole grid, each request is
    short enough for a latency tail to be measured, and every request after
    the first cycle is a rerun whose report must match the first one except
    for timing."""

    name = "campaign"
    UNUSED = ("raster",)
    MODELS = ("intensity", "amplitude")
    ALPHAS = (-1.5, -3.0, -5.0)
    LOOKS = (1.0, 3.0, 8.0)
    SIZES = (9, 25, 49, 121, 1000)
    ESTIMATORS = ("traditional", "fmolc", "poly", "poly-corrected")
    # The criterion-6 hot spot is always one of the two recomputed cells.
    HOT_CELL = ("intensity", -5.0, 1.0, 9)

    def __init__(self, g0, seed: int, sizes: Sizes, workdir, workers: int):
        self.g0 = g0
        self.trials = sizes.campaign_trials
        self.cells = list(itertools.product(self.MODELS, self.ALPHAS, self.LOOKS, self.SIZES))
        self.estimates_per_request = len(self.ESTIMATORS) * self.trials
        # Cells differ in cost by ~100x (n = 9 against n = 1000), so a timing
        # block is one pass over the grid, which holds every cell once.
        self.block_requests = len(self.cells)
        self.map_interior = 0
        config_seeds = np.random.SeedSequence(seed).generate_state(
            sizes.campaign_seeds * len(self.cells), np.uint32)
        self.configs = []
        for k, cfg_seed in enumerate(config_seeds):
            model, alpha, looks, n = cell = self.cells[k % len(self.cells)]
            path = workdir / f"campaign-{k}.json"
            path.write_text(json.dumps({
                "models": [model], "alphas": [alpha], "looks": [looks], "sizes": [n],
                "estimators": list(self.ESTIMATORS), "trials": self.trials,
                "seed": int(cfg_seed)}))
            self.configs.append((path, int(cfg_seed), cell))
        self.out = workdir / "report.json"
        self.min_requests = len(self.configs)
        self.spot_cell = self.cells[int(np.random.default_rng(seed).integers(len(self.cells)))]
        self.first = {}
        self.runs = Counter()

    def request(self, i: int):
        path, _, _ = self.configs[i % len(self.configs)]
        return self.g0.cli.main(["mc", "--config", str(path), "--out", str(self.out),
                                 "--format", "json", "--threads", "1"])

    def check(self, i: int, rc) -> list:
        if rc != 0:
            return [f"mc exited with {rc}"]
        k = i % len(self.configs)
        self.runs[k] += 1
        cells = json.loads(self.out.read_text())["cells"]
        for c in cells:
            c.pop("mean_time_ns", None)
        if k in self.first:
            if cells != self.first[k]:
                return [f"config {k}: report differs from its first run beyond timing"]
            return []
        self.first[k] = cells
        return self._check_report(self.configs[k][2], cells)

    def _check_report(self, cell, cells) -> list:
        model, alpha, looks, n = cell
        expected = {(model, e, alpha, looks, n) for e in self.ESTIMATORS}
        keys = [(c["model"], c["estimator"], c["alpha"], c["looks"], c["n"]) for c in cells]
        if len(keys) != len(expected) or set(keys) != expected:
            return [f"cell {cell}: report does not hold each estimator exactly once"]
        for c, key in zip(cells, keys):
            fails = c["failures"]
            if c["trials"] != self.trials or set(fails) != set(REASONS):
                return [f"cell {key}: wrong trial count or failure reasons"]
            if c["successes"] + sum(fails.values()) != c["trials"]:
                return [f"cell {key}: trials != successes + failures"]
            if (c["mse"] is None) != (c["successes"] == 0):
                return [f"cell {key}: mse presence disagrees with successes"]
            if c["mse"] is not None and not (math.isfinite(c["mse"]) and c["mse"] >= 0.0):
                return [f"cell {key}: mse {c['mse']!r} is not a finite nonnegative number"]
        return []

    def est_failure_rate(self) -> float:
        failed = sum(sum(c["failures"].values()) for cells in self.first.values() for c in cells)
        trials = sum(c["trials"] for cells in self.first.values() for c in cells)
        return failed / max(1, trials)

    def final_checks(self) -> list:
        errors = []
        for cell in (self.HOT_CELL, self.spot_cell):
            k = self.cells.index(cell)
            if self.runs[k] < 2:
                errors += self.check(k, self.request(k))
            errors += self._recompute(k)
        return errors

    def _recompute(self, k: int) -> list:
        """Recompute config ``k`` (one cell, so cell index 0) from the
        program's own seed derivation, sampler and estimator."""
        g0 = self.g0
        _, cfg_seed, cell = self.configs[k]
        model_name, alpha, looks, n = cell
        kind = g0.model.ModelKind.parse(model_name)
        params = g0.model.G0Params(alpha=alpha, gamma=g0.model.unit_mean_gamma(alpha),
                                   looks=looks)
        acc = {e: {"successes": 0, "sq_err": 0.0, "failures": Counter()}
               for e in self.ESTIMATORS}
        for trial in range(self.trials):
            sample = g0.model.sample_g0(params, kind, n, g0.harness.trial_seed(cfg_seed, 0, trial))
            for e in self.ESTIMATORS:
                res = g0.estimators.estimate_alpha(
                    sample, looks, kind, g0.estimators.EstimatorKind.parse(e), ALPHA_FLOOR)
                if res.failure is None:
                    acc[e]["successes"] += 1
                    acc[e]["sq_err"] += (res.alpha_hat - alpha) ** 2
                else:
                    acc[e]["failures"][res.failure.value] += 1
        errors = []
        for c in self.first[k]:
            a = acc[c["estimator"]]
            mse = a["sq_err"] / a["successes"] if a["successes"] else None
            fails = {r: a["failures"][r] for r in REASONS}
            mse_ok = (mse is None and c["mse"] is None) or (
                mse is not None and c["mse"] is not None
                and abs(mse - c["mse"]) <= 1e-12 * max(1.0, abs(mse)))
            if c["successes"] != a["successes"] or c["failures"] != fails or not mse_ok:
                errors.append(f"cell {cell} {c['estimator']}: report disagrees with "
                              "a direct recomputation")
        return errors


class Map:
    """``g0lcum map`` over synthetic 16-bit PGM mosaics: four roughness
    quadrants and one all-zero ("no data") patch per scene. Requests cycle
    through a fixed set of scenes; failures cluster in space, so one scene is
    too small a sample for a steady failure rate."""

    name = "map"
    UNUSED = ("harness", "model.sample_g0", "specfun.f_quantile")
    ALPHAS = (-1.5, -3.0, -5.0, -8.0)   # top-left, top-right, bottom-left, bottom-right
    LOOKS = 4.0
    WINDOW = 11
    ESTIMATOR = "poly-corrected"
    COUNTS_PER_UNIT = 1000.0             # 16-bit quantization of unit-mean intensity
    SPOT_PIXELS = 24

    def __init__(self, g0, seed: int, sizes: Sizes, workdir, workers: int):
        self.g0 = g0
        self.workers = workers
        self.seed = seed
        self.side, self.half = sizes.map_side, self.WINDOW // 2
        half, p = self.side // 2, sizes.map_patch
        self.patch = (half // 2 - p // 2, half + half // 2 - p // 2, p)   # row, col, side
        rng = np.random.default_rng(seed)
        self.scenes = []
        for k in range(sizes.map_scenes):
            path = workdir / f"scene-{k}.pgm"
            counts = self._scene(rng)
            with open(path, "wb") as fh:
                fh.write(f"P5\n{self.side} {self.side}\n65535\n".encode("ascii"))
                fh.write(counts.tobytes())
            self.scenes.append(path)
            if k == 0:
                self.grid0 = counts.astype(float)
        self.map_interior = (self.side - 2 * self.half) ** 2
        self.estimates_per_request = self.map_interior
        self.block_requests = 1             # every scene has the same layout
        self.out = workdir / "map.csv"
        self.min_requests = len(self.scenes)
        self.first_bytes = {}
        self.values = {}
        self.n_failures = {}

    def _scene(self, rng) -> np.ndarray:
        side, half = self.side, self.side // 2
        intensity = np.empty((side, side))
        for q, alpha in enumerate(self.ALPHAS):
            r0, c0 = (q // 2) * half, (q % 2) * half
            intensity[r0:r0 + half, c0:c0 + half] = g0_draw(
                rng, alpha, self.LOOKS, half * half, amplitude=False).reshape(half, half)
        counts = np.clip(np.rint(intensity * self.COUNTS_PER_UNIT), 1, 65535).astype(">u2")
        pr, pc, p = self.patch
        counts[pr:pr + p, pc:pc + p] = 0
        return counts

    def request(self, i: int, workers: int | None = None):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.g0.cli.main([
                "map", "--in", str(self.scenes[i % len(self.scenes)]), "--format", "pgm",
                "--window", str(self.WINDOW), "--looks", str(self.LOOKS),
                "--model", "intensity", "--estimator", self.ESTIMATOR,
                "--out", str(self.out), "--threads", str(workers or self.workers)])
        return rc, err.getvalue()

    def check(self, i: int, out) -> list:
        rc, err = out
        if rc != 0:
            return [f"map exited with {rc}: {err.strip()}"]
        k = i % len(self.scenes)
        data = self.out.read_bytes()
        if k in self.first_bytes:
            return [] if data == self.first_bytes[k] else [f"scene {k}: map CSV differs "
                                                           "from its first run"]
        self.first_bytes[k] = data
        return self._check_first(k, data)

    def _check_first(self, k: int, data: bytes) -> list:
        try:
            values = np.array([[float(v) for v in line.split(",")]
                               for line in data.decode("ascii").splitlines()])
        except ValueError:
            return [f"scene {k}: map CSV is not a numeric grid"]
        h, s = self.half, self.side
        if values.shape != (s, s):
            return [f"scene {k}: map CSV has shape {values.shape}, expected {(s, s)}"]
        border = np.ones((s, s), dtype=bool)
        border[h:s - h, h:s - h] = False
        if np.any(values[border] != 0.0):
            return [f"scene {k}: map CSV has nonzero values on the border frame"]
        interior = values[h:s - h, h:s - h]
        meta = json.loads((self.out.parent / (self.out.name + ".meta.json")).read_text())
        zeros = int(np.count_nonzero(interior == 0.0))
        if meta.get("n_failures") != zeros:
            return [f"scene {k}: sidecar n_failures {meta.get('n_failures')} != "
                    f"{zeros} interior zeros"]
        if meta.get("window") != self.WINDOW or meta.get("estimator") != self.ESTIMATOR:
            return [f"scene {k}: sidecar window or estimator does not echo the request"]
        ok = interior[interior != 0.0]
        if not np.all((ok >= ALPHA_FLOOR) & (ok < 0.0)):
            return [f"scene {k}: map has estimates outside [{ALPHA_FLOOR}, 0)"]
        self.values[k], self.n_failures[k] = values, zeros
        return []

    def est_failure_rate(self) -> float:
        return sum(self.n_failures.values()) / max(1, len(self.n_failures) * self.map_interior)

    def final_checks(self) -> list:
        if 0 not in self.values:
            return ["scene 0 produced no checked map"]
        errors = self._check_pixels() + self._check_region_order()
        if self.workers != 1:
            # The map must not depend on the number of workers.
            rc, err = self.request(0, workers=1)
            if rc != 0 or self.out.read_bytes() != self.first_bytes[0]:
                errors.append("scene 0: one-worker map differs from the pooled map")
        return errors

    def _check_pixels(self) -> list:
        g0, h, s = self.g0, self.half, self.side
        rng = np.random.default_rng([self.seed, 1])
        pr, pc, p = self.patch
        pixels = [(pr + p // 2, pc + p // 2), (pr + p // 2, pc)]   # inside, on the edge
        pixels += [tuple(int(x) for x in rng.integers(h, s - h, 2))
                   for _ in range(self.SPOT_PIXELS)]
        intensity = g0.model.ModelKind.INTENSITY
        kind = g0.estimators.EstimatorKind.parse(self.ESTIMATOR)
        errors = []
        for r, c in pixels:
            win = self.grid0[r - h:r + h + 1, c - h:c + h + 1].ravel()
            usable = win[win > 0.0]
            got = self.values[0][r, c]
            if usable.size < 4:
                if got != 0.0:
                    errors.append(f"scene 0 pixel {(r, c)}: {usable.size} usable pixels "
                                  f"but an estimate {got!r}")
                continue
            res = g0.estimators.estimate_alpha(g0.model.Sample(usable, intensity),
                                               self.LOOKS, intensity, kind, ALPHA_FLOOR)
            want = 0.0 if res.alpha_hat is None else res.alpha_hat
            if (got == 0.0) != (want == 0.0) or abs(got - want) > 1e-9:
                errors.append(f"scene 0 pixel {(r, c)}: map {got!r}, direct estimate {want!r}")
        return errors

    def _check_region_order(self) -> list:
        """Mean estimate per quadrant over every scene, from windows that lie
        inside their quadrant."""
        h, half = self.half, self.side // 2
        means = []
        for q in range(len(self.ALPHAS)):
            r0, c0 = (q // 2) * half, (q % 2) * half
            region = np.concatenate([v[r0 + h:r0 + half - h, c0 + h:c0 + half - h].ravel()
                                     for v in self.values.values()])
            ok = region[region != 0.0]
            means.append(float(ok.mean()) if ok.size else math.nan)
        if not all(a > b for a, b in zip(means, means[1:])):
            return [f"region means {means} are not ordered by true alpha {self.ALPHAS}"]
        return []


class Single:
    """Closed loop of single ``estimate_alpha(Sample(values, model), ...)``
    calls over a pool of samples drawn at set-up."""

    name = "single"
    UNUSED = ("cli", "harness", "raster", "model.sample_g0", "specfun.f_quantile")
    SIZES = (9, 25, 49, 121)
    LARGE_N, LARGE_SHARE = 1000, 0.05
    ALPHAS = (-1.5, -3.0, -5.0, -8.0)
    LOOKS = (1.0, 3.0, 8.0)

    def __init__(self, g0, seed: int, sizes: Sizes, workdir, workers: int):
        self.g0 = g0
        rng = np.random.default_rng(seed)
        models = list(g0.model.ModelKind)
        kinds = list(g0.estimators.EstimatorKind)
        self.pool = []
        for _ in range(sizes.single_pool):
            n = self.LARGE_N if rng.random() < self.LARGE_SHARE else int(rng.choice(self.SIZES))
            model = models[int(rng.integers(len(models)))]
            looks = float(rng.choice(self.LOOKS))
            values = g0_draw(rng, float(rng.choice(self.ALPHAS)), looks, n,
                             amplitude=model is g0.model.ModelKind.AMPLITUDE)
            self.pool.append((values, model, looks, kinds[int(rng.integers(len(kinds)))]))
        self.estimates_per_request = 1
        self.block_requests = 1000          # enough random draws for a steady mix
        self.map_interior = 0
        self.min_requests = len(self.pool)
        self.first = []

    def request(self, i: int):
        values, model, looks, kind = self.pool[i % len(self.pool)]
        return self.g0.estimators.estimate_alpha(self.g0.model.Sample(values, model),
                                                 looks, model, kind)

    def check(self, i: int, res) -> list:
        reason = None if res.failure is None else res.failure.value
        record = (res.status.value, reason, res.alpha_hat, res.gamma_hat)
        k = i % len(self.pool)
        if k < len(self.first):
            return [] if record == self.first[k] else [f"sample {k}: result changed on rerun"]
        self.first.append(record)
        return _check_estimate(*record)

    def est_failure_rate(self) -> float:
        return sum(r[0] == "Failed" for r in self.first) / max(1, len(self.first))

    def final_checks(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (Campaign, Map, Single)}
