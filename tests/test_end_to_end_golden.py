"""Golden pins of the command line's outputs: sha256 digests of `sample`
CSVs, `mc` reports and `map` rasters with their sidecars, each made by
g0lcum's own `main` from fixed seeds. Timing fields are set to 0 before
hashing; every other byte is pinned. A change that alters any of them fails
here, and its pins are re-recorded only by a change that says which bytes
moved and why.

Record the pins of a tree by running this file as a script with that tree's
`src` first on the path:

    PYTHONPATH=path/to/tree/src python tests/test_end_to_end_golden.py > pins.json

The sample pins come through scipy's `betaincinv`, whose bits may differ
between scipy versions; the map pins are built from numpy's generator and
never pass through it. The file records the versions it was taken with."""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import scipy

import g0lcum
from g0lcum import harness
from g0lcum.cli import main

GOLDEN = Path(__file__).with_name("golden_end_to_end.json")
# (alpha, gamma) of each pinned sample at looks 2, n 1000, seed 1; None is
# the unit-mean scale. Near alpha = 0 most draws overflow and are redrawn.
SAMPLES = ((-0.001, 1.0), (-0.01, 1.0), (-0.01, 1e300), (-1.5, None), (-40.0, None))
CAMPAIGN = {"trials": 40, "alphas": [-1.5, -3.0], "looks": [1.0, 3.0], "sizes": [9, 49],
            "seed": 7}
# Values per block small enough that every cell of CAMPAIGN spans several.
SMALL_BLOCK = 100
_TIMING = re.compile(rb'("(?:elapsed_ns|moments_ns|estimate_ns|mean_time_ns)": )[^,}]+')


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _untimed(path: Path) -> bytes:
    """A report's or sidecar's bytes with each timing field set to 0; in a
    CSV report that is the last column, mean_time_ns."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        head, *rows = data.splitlines(keepends=True)
        return head + b"".join(re.sub(rb",[^,]*(\r?\n)$", rb",0\1", row) for row in rows)
    return _TIMING.sub(rb"\g<1>0", data)


def _run(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"g0lcum {' '.join(map(str, argv))} exited {code}")


def _scene() -> np.ndarray:
    """A 64x64 L = 4 intensity scene, G0-like through a Gamma texture, with
    a zero patch whose windows have fewer than 4 usable pixels."""
    rng = np.random.default_rng(20261022)
    scene = rng.gamma(4.0, 0.25, (64, 64)) * 2.0 / rng.gamma(3.0, 1.0, (64, 64))
    scene[20:33, 30:43] = 0.0
    return scene


def pins(work: Path) -> dict:
    """Every pinned digest, made in the directory ``work``."""
    out = {}
    for model in ("intensity", "amplitude"):
        for alpha, gamma in SAMPLES:
            name = f"sample-{model}-a{alpha}-g{gamma}.csv"
            extra = () if gamma is None else ("--gamma", gamma)
            _run("sample", "--alpha", alpha, *extra, "--looks", 2, "--model", model,
                 "--n", 1000, "--seed", 1, "--out", work / name)
            out[name] = _digest((work / name).read_bytes())
    config = work / "campaign.json"
    config.write_text(json.dumps(CAMPAIGN))
    for fmt in ("json", "csv"):
        for threads in (1, 2):
            name = f"mc-threads{threads}.{fmt}"
            _run("mc", "--config", config, "--out", work / name, "--format", fmt,
                 "--threads", threads)
            out[name] = _digest(_untimed(work / name))
        name = f"mc-small-blocks.{fmt}"
        block, harness._BLOCK_VALUES = harness._BLOCK_VALUES, SMALL_BLOCK
        try:
            _run("mc", "--config", config, "--out", work / name, "--format", fmt,
                 "--threads", 1)
        finally:
            harness._BLOCK_VALUES = block
        out[name] = _digest(_untimed(work / name))
    scene = work / "scene.csv"
    scene.write_text("".join(",".join(map(repr, row)) + "\n" for row in _scene().tolist()))
    for estimator in ("traditional", "poly-corrected"):
        for ext in ("csv", "pgm"):
            name = f"map-{estimator}.{ext}"
            _run("map", "--in", scene, "--format", "csv", "--window", 11, "--looks", 4,
                 "--model", "intensity", "--estimator", estimator, "--out", work / name,
                 "--threads", 2)
            out[name] = _digest((work / name).read_bytes())
            out[name + ".meta.json"] = _digest(_untimed(work / (name + ".meta.json")))
    return out


def test_outputs_match_golden_pins(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = pins(tmp_path)
    assert sorted(got) == sorted(golden["pins"])
    assert {key: got[key] for key in golden["pins"] if got[key] != golden["pins"][key]} == {}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        record = {"numpy": np.__version__, "scipy": scipy.__version__,
                  "python": sys.version.split()[0], "pins": pins(Path(work))}
    print(f"pins of g0lcum at {Path(g0lcum.__file__).parent}", file=sys.stderr)
    print(json.dumps(record, indent=1, sort_keys=True))
