"""g0lcum benchmark: drives the package from outside, through its public API
and its command-line entry point, and prints every metric by name and unit.

    python3 benchmarks/run.py --workload {campaign,map,single,all} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
runs the same workload untraced and then traced, one worker each, and reports
per-layer self times, counts and ratios from spans. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is nonzero when any output check fails. ``--workload all`` runs
the three workloads one after another, each in its own interpreter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
IMPORT_REPS = 5
MAX_STORED_ERRORS = 20
P50_SAMPLES = 100     # fifty latency samples on each side of the median
P99_SAMPLES = 1000    # ten latency samples beyond p99
SLOW_TAIL = 10        # percent of blocks allowed to be slower


def _end_to_end_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, workers: int) -> dict:
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "workers": workers,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for (the
    map workload's pool workers); Linux reports kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def guarded(check, *args) -> list:
    """Run an output check; a check that raises reports a failure."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"output check raised {_describe(exc)}"]


class Loop:
    """One closed-loop pass: the next request starts when the previous one
    and its output check have finished."""

    def __init__(self, workload, seconds: float, call, min_requests: int):
        self.latency_ns = array("q")
        self.failed = 0
        self.errors = []
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        clock = time.perf_counter_ns
        while i < min_requests or time.perf_counter() < deadline:
            t0 = clock()
            try:
                out = call(i)
            except Exception as exc:   # counted as a failed request, run goes on
                t1 = clock()
                errs = [_describe(exc)]
            else:
                t1 = clock()
                errs = guarded(workload.check, i, out)
            self.latency_ns.append(t1 - t0)
            if errs:
                self.failed += 1
                self.errors.extend(errs[:MAX_STORED_ERRORS - len(self.errors)])
            i += 1
        self.wall_s = time.perf_counter() - start
        self.requests = i
        self.busy_s = sum(self.latency_ns) / 1e9


def blocks(lat_us, size: int):
    """Consecutive blocks of ``size`` requests, as rows."""
    n_blocks = max(1, lat_us.size // size)
    return lat_us[:n_blocks * size].reshape(n_blocks, -1)


def latency_blocks(lat_us, block: int, samples: int):
    """Blocks of the fewest whole workload blocks that hold ``samples``
    requests; a run with fewer than two of them is one block."""
    size = block * math.ceil(samples / block)
    return blocks(lat_us, size if lat_us.size >= 2 * size else lat_us.size)


def end_to_end(lat_us, per_request: int, block: int) -> dict:
    """Throughput per workload block (``block`` requests that hold the same
    mix of inputs), and latency percentiles per group of whole blocks that
    holds enough samples for the percentile.

    Each figure is the slow tail over blocks: the throughput that nine blocks
    in ten reach, and the latency that nine blocks in ten stay within. A
    shared machine runs at a base speed with spells of up to ~1.7x faster;
    the tail ignores such spells while they cover less than nine tenths of a
    run, and slow spells while they cover less than a tenth of it, where a
    median moves with every fast spell past half a run."""
    tput = blocks(lat_us, block)
    p50 = latency_blocks(lat_us, block, P50_SAMPLES)
    p99 = latency_blocks(lat_us, block, P99_SAMPLES)
    return {
        "estimates_per_s": float(np.percentile(
            tput.shape[1] * per_request * 1e6 / tput.sum(axis=1), SLOW_TAIL)),
        "latency_p50_us": float(np.percentile(np.percentile(p50, 50, axis=1),
                                              100 - SLOW_TAIL)),
        "latency_p99_us": float(np.percentile(np.percentile(p99, 99, axis=1),
                                              100 - SLOW_TAIL)),
    }


def _import_program():
    """Import g0lcum from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "g0lcum" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no g0lcum sources under {src}")
    sys.path.insert(0, str(src))
    import g0lcum
    import g0lcum.cli
    if Path(g0lcum.__file__).resolve().parent != (src / "g0lcum").resolve():
        raise SystemExit(f"benchmark: imported g0lcum from {g0lcum.__file__}, not {src}")
    return g0lcum


def child_import_s() -> float:
    """Import time of g0lcum in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import g0lcum, g0lcum.cli; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def run_one(args) -> int:
    g0 = _import_program()
    sizes = workloads.TINY if args.tiny else workloads.FULL
    cls = workloads.WORKLOADS[args.workload]
    workers = min(2, os.cpu_count() or 1) if (cls is workloads.Map and not args.trace) else 1
    prov = provenance(args, workers)
    work_root = HERE / "_work"
    workdir = work_root / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        gen_s = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl = cls(g0, args.seed, sizes, workdir, workers)
            gen_s.append(time.perf_counter() - t0)
        # Lazy set-up inside the program (pool start, deferred imports) is
        # paid by the first request, so that request counts as set-up.
        warm = Loop(wl, 0.0, wl.request, 1)
        setup_s = statistics.median(gen_s) + warm.busy_s

        if args.trace:
            # Both halves start at request 0, so they run the same inputs.
            plain = Loop(wl, args.seconds / 2, wl.request, 1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = Loop(wl, args.seconds / 2,
                              lambda i: tracer.request(i, wl.request, i), 1)
            finally:
                tracer.uninstall()
            loops = (warm, plain, traced)
        else:
            loops = (warm, Loop(wl, args.seconds, wl.request, wl.min_requests))
        final_errors = guarded(wl.final_checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(lp.requests for lp in loops)
    failed = sum(lp.failed for lp in loops)
    errors = [e for lp in loops for e in lp.errors] + final_errors
    if final_errors:
        failed = min(attempted, failed + 1)
    correct = not errors and failed == 0

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} workers {workers}")
    print("provenance " + json.dumps(prov))
    for e in errors:
        print(f"CHECK FAILED: {e}")

    if args.trace:
        _, plain, traced = loops
        overhead = (traced.busy_s / traced.requests) / (plain.busy_s / plain.requests)
        metrics = tracer.metrics(wall_s=traced.wall_s, overhead=overhead,
                                 map_interior=wl.map_interior * traced.requests)
        units = tracing.per_layer_metric_units()
        for name in tracer.missing:
            print(f"trace: missing {name}")
        work_root.mkdir(exist_ok=True)
        spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_path, json.dumps(prov))
        print(f"spans written to {spans_path.relative_to(ROOT)} "
              f"({metrics['trace.spans']} spans, {traced.requests} requests)")
    else:
        loop = loops[-1]
        lat_us = np.asarray(loop.latency_ns, dtype=np.float64) / 1e3
        metrics = {
            **end_to_end(lat_us, wl.estimates_per_request, wl.block_requests),
            "est_failure_rate": wl.est_failure_rate(),
            "peak_rss_mb": peak_rss_mb(),
            # Read after peak RSS, so these interpreters do not count in it.
            "setup_s": setup_s + statistics.median(
                child_import_s() for _ in range(IMPORT_REPS)),
        }
        units = _end_to_end_units()
        print(f"requests {loop.requests} (latency samples), "
              f"{loop.requests * wl.estimates_per_request} estimates, "
              f"{loop.wall_s:.3f} s wall, {loop.busy_s:.3f} s inside calls")
        print(f"metric error_rate {failed / attempted!r} ratio "
              f"({failed} of {attempted} requests)")
        # Printed on every run but not gated in BENCHMARK.json: on campaign
        # and map a run holds at most two p99 blocks, so p99 follows the
        # host's spells more than the program.
        print(f"metric latency_p99_us {metrics.pop('latency_p99_us')!r} us")

    result = {}
    for name, unit in units.items():
        value = metrics[name]
        print(f"metric {name} {value!r} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so set-up and peak RSS are its
    own; prints every child's output and a summary table."""
    summary, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = None
        if proc.returncode != 0 or summary[name] is None:
            status = 1
    print("\nsummary")
    for name, res in summary.items():
        if res is None:
            print(f"  {name}: no result")
            continue
        print(f"  {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"    {metric} = {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
