"""Record a trajectory point: run every workload untraced on a range of seeds
and write per-seed results, medians and quartile spreads to
``benchmarks/trajectory/<label>.json``.

    python3 benchmarks/record.py --label seed-8fd437e --seeds 1-10

The spread of a metric is the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of its median,
the figure BENCHMARK.json's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(runs: list, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    point = {"label": args.label, "seconds": spec["run_seconds"],
             "seeds": [first, last], "workloads": {}}
    status = 0
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            prov = next(json.loads(line[len("provenance "):]) for line in lines
                        if line.startswith("provenance "))
            res = json.loads(lines[-1])
            status |= proc.returncode != 0 or not res["correct"]
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{name} seed {seed}: rc {proc.returncode} correct {res['correct']}",
                  flush=True)
        point.setdefault("provenance", {k: prov[k] for k in
                                        ("nproc", "cpu", "python", "numpy", "scipy",
                                         "commit")})
        point["workloads"][name] = {
            "why": w["why"], "does_not_use": list(WORKLOADS[name].UNUSED),
            "workers": prov["workers"], "runs": runs, "summary": summarize(runs, units)}
        for metric, s in point["workloads"][name]["summary"].items():
            print(f"  {metric:18s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}")
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
