"""Outside-in span tracing of g0lcum for the benchmark's traced runs.

Each public function the workloads reach is wrapped at the name its caller
looks it up by (``g0lcum.harness.sample_g0``, ``g0lcum.raster.estimate_alpha``
and so on), so the program itself is not edited. Spans (name, start, end,
parent, request id) are kept in flat in-memory arrays and written out when
the run ends. A name that no longer exists after a refactor is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "g0lcum"
LAYERS = ("cli", "harness", "model", "specfun", "estimators", "raster")
REQUEST = "bench.request"
REASONS = ("NegativeEta", "NoRealRootOrMultiple", "RootOutOfRange",
           "SolverNoConvergence", "DegenerateK2")

# span name -> the (module, attribute) bindings callers look it up through.
BINDINGS = {
    "cli.main": [("cli", "main")],
    "harness.run_campaign": [("harness", "run_campaign")],
    "harness.write_report": [("harness", "write_report")],
    "harness.trial_seed": [("harness", "trial_seed")],
    "model.sample_g0": [("harness", "sample_g0")],
    "model.Sample": [("model", "Sample"), ("raster", "Sample")],
    "specfun.f_quantile": [("specfun", "f_quantile")],
    "specfun.trigamma": [("specfun", "trigamma")],
    "specfun.trigamma_inverse_bracketed": [("specfun", "trigamma_inverse_bracketed")],
    "specfun.solve_roughness_polynomial": [("specfun", "solve_roughness_polynomial")],
    "estimators.estimate_alpha": [("estimators", "estimate_alpha"),
                                  ("harness", "estimate_alpha"),
                                  ("raster", "estimate_alpha")],
    "estimators.invert_eta": [("estimators", "invert_eta")],
    "estimators.bayes_correct_eta": [("estimators", "bayes_correct_eta")],
    "estimators.estimate_gamma": [("estimators", "estimate_gamma")],
    "raster.read_raster": [("raster", "read_raster")],
    "raster.roughness_map": [("raster", "roughness_map")],
    "raster.write_map": [("raster", "write_map")],
}


def per_layer_metric_units() -> dict:
    """Every metric a traced run reports, with its unit, in print order."""
    units = {}
    for name in BINDINGS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "model.sample_g0.redraw_ratio": "ratio",
        "specfun.f_quantile.ns_per_value": "ns",
        "specfun.trigamma_inverse_bracketed.iters": "count",
        "estimators.ok_ratio": "ratio",
        **{f"estimators.fail.{r}": "count" for r in REASONS},
        "raster.windows_skipped": "count",
        "trace.overhead": "ratio",
        "trace.wall_s": "s",
        "trace.self_sum_s": "s",
        "trace.coverage": "ratio",
        "trace.spans": "count",
        "trace.missing": "count",
    })
    return units


class Tracer:
    """Records spans while installed; ``install`` patches the bindings and
    ``uninstall`` restores the originals."""

    def __init__(self):
        self.names = [REQUEST, *BINDINGS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []
        self.run_id = -1
        self.values = Counter()     # f_quantile output values
        self.outcomes = Counter()   # estimate_alpha status / failure reason
        self.missing = []
        self._patched = []

    def _wrap(self, name: str, fn, on_result=None):
        nid = self.name_id[name]
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _count_values(self, out) -> None:
        self.values["specfun.f_quantile"] += int(np.size(out))

    def _count_outcome(self, out) -> None:
        failure = getattr(out, "failure", None)
        self.outcomes[getattr(failure, "value", "Ok")] += 1

    def install(self) -> None:
        hooks = {"specfun.f_quantile": self._count_values,
                 "estimators.estimate_alpha": self._count_outcome}
        for name, bindings in BINDINGS.items():
            for mod_name, attr in bindings:
                qual = f"{PACKAGE}.{mod_name}.{attr}"
                try:
                    mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                    original = getattr(mod, attr)
                except (ImportError, AttributeError):
                    self.missing.append(qual)
                    continue
                setattr(mod, attr, self._wrap(name, original, hooks.get(name)))
                self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def request(self, run_id: int, fn, *args):
        """Run one benchmark request as a root span with its own id."""
        self.run_id = run_id
        return self._wrap(REQUEST, fn)(*args)

    def arrays(self) -> dict:
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "run": np.array(self.span_run, dtype=np.int32),
            "start_ns": np.array(self.span_start, dtype=np.int64),
            "end_ns": np.array(self.span_end, dtype=np.int64),
        }

    def write(self, path, provenance: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), provenance=provenance,
                            **self.arrays())

    def metrics(self, wall_s: float, overhead: float, map_interior: int) -> dict:
        """Per-layer metrics from the recorded spans. ``map_interior`` is the
        number of interior pixels the traced map requests covered."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_by_name = np.bincount(name, weights=self_ns, minlength=n_names)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def nid(n):
            return self.name_id[n]

        def under(child_name, parent_name_):
            return int(np.count_nonzero((name == nid(child_name))
                                        & (parent_name == nid(parent_name_))))

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for n in BINDINGS:
            out[f"{n}.calls"] = int(calls[nid(n)])
            out[f"{n}.self_s"] = float(self_by_name[nid(n)]) / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(out[f"{n}.self_s"] for n in BINDINGS
                                         if n.split(".", 1)[0] == layer)
        bracketed = out["specfun.trigamma_inverse_bracketed.calls"]
        out["model.sample_g0.redraw_ratio"] = ratio(
            out["specfun.f_quantile.calls"], out["model.sample_g0.calls"])
        out["specfun.f_quantile.ns_per_value"] = ratio(
            out["specfun.f_quantile.self_s"] * 1e9, self.values["specfun.f_quantile"])
        out["specfun.trigamma_inverse_bracketed.iters"] = ratio(
            under("specfun.trigamma", "specfun.trigamma_inverse_bracketed"), bracketed)
        estimates = sum(self.outcomes.values())
        out["estimators.ok_ratio"] = ratio(self.outcomes["Ok"], estimates)
        for r in REASONS:
            out[f"estimators.fail.{r}"] = self.outcomes[r]
        out["raster.windows_skipped"] = map_interior - under(
            "estimators.estimate_alpha", "raster.roughness_map")
        self_sum = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        request_s = float(dur[name == nid(REQUEST)].sum()) / 1e9
        out["trace.overhead"] = overhead
        out["trace.wall_s"] = wall_s
        out["trace.self_sum_s"] = self_sum
        out["trace.coverage"] = ratio(self_sum, request_s)
        out["trace.spans"] = int(dur.size)
        out["trace.missing"] = len(self.missing)
        return out
