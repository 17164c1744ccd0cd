"""Golden pin of the scalar estimation path: every field of estimate_alpha's
result but its timing, bit for bit, over fixed samples of both models and
all four estimators. The golden file was recorded before the scalar path
was rewritten for speed; a change that alters any bit of it fails here."""

import json
import math
from pathlib import Path

import numpy as np

from g0lcum import specfun
from g0lcum.estimators import EstimatorKind, estimate_alpha
from g0lcum.model import ModelKind, Sample

GOLDEN = Path(__file__).with_name("golden_scalar_path.json")
SIZES = (3, 4, 9, 121, 1000)
ALPHAS = (-1.5, -3.0, -8.0)
LOOKS = (1.0, 3.0, 8.0)


def _g0(rng, alpha: float, looks: float, n: int) -> np.ndarray:
    """Unit-mean G0 intensity: Gamma(looks) speckle times reciprocal-Gamma
    texture."""
    return rng.gamma(looks, 1.0 / looks, n) * (-alpha - 1.0) / rng.gamma(-alpha, 1.0, n)


def cases():
    """(case id, sample, looks) for each model: the grid of sizes and
    roughness, then four edge cases."""
    rng = np.random.default_rng(20240515)
    out = []
    for model in ModelKind:
        m, power = model.value, 0.5 if model is ModelKind.AMPLITUDE else 1.0
        for i, (n, alpha) in enumerate((n, a) for n in SIZES for a in ALPHAS):
            looks = LOOKS[i % len(LOOKS)]
            out.append((f"{m}-n{n}-a{alpha}", _g0(rng, alpha, looks, n) ** power, model, looks))
        # A constant sample: k2 = 0 exactly, eta = -trigamma(looks).
        out.append((f"{m}-constant", np.full(9, 1.7), model, 3.0))
        # Log spread far below trigamma(1): eta < 0 with eta/sigma < -8, the
        # posterior mean's continued-fraction tail.
        out.append((f"{m}-deep-tail", np.exp(0.01 * power * rng.standard_normal(1000)),
                    model, 1.0))
        # A small sample with a negative eta and a moderate spread.
        out.append((f"{m}-negative-eta", np.exp(0.4 * power * rng.standard_normal(9)),
                    model, 1.0))
        # Logs +-r with c * r^2 just above trigamma(1): 0 < eta below the
        # image of the bracketed solver's bracket.
        r = power * math.sqrt(specfun.trigamma(1.0) + 2e-7)
        out.append((f"{m}-below-bracket", np.exp([-r, r, -r, r]), model, 1.0))
    return [(key, Sample(values, model), looks) for key, values, model, looks in out]


def _hex(x):
    return None if x is None else float(x).hex()


def record(res) -> dict:
    """Every result field but elapsed_ns; floats as float.hex."""
    return {
        "alpha_hat": _hex(res.alpha_hat),
        "gamma_hat": _hex(res.gamma_hat),
        "status": res.status.value,
        "failure": None if res.failure is None else res.failure.value,
        "k1": _hex(res.cumulants.k1),
        "k2": _hex(res.cumulants.k2),
        "n": res.cumulants.n,
        "eta_hat": _hex(res.eta.eta_hat),
        "sigma": _hex(res.eta.sigma),
        "eta_m": _hex(res.eta.eta_m),
    }


def results() -> dict:
    return {f"{key}-{kind.value}": record(estimate_alpha(sample, looks, sample.model, kind))
            for key, sample, looks in cases() for kind in EstimatorKind}


def test_scalar_path_matches_golden_bits():
    golden = json.loads(GOLDEN.read_text())
    got = results()
    assert sorted(got) == sorted(golden)
    assert [key for key in golden if got[key] != golden[key]] == []


def test_golden_cases_reach_every_branch():
    golden = json.loads(GOLDEN.read_text())
    assert len(cases()) == 2 * (len(SIZES) * len(ALPHAS) + 4)
    rec = {key: {k: float.fromhex(v) if isinstance(v, str) and k not in ("status", "failure")
                 else v for k, v in r.items()} for key, r in golden.items()}
    for model in ModelKind:
        m = model.value
        assert rec[f"{m}-constant-fmolc"]["k2"] == 0.0
        tail = rec[f"{m}-deep-tail-poly-corrected"]
        assert tail["eta_hat"] / tail["sigma"] < -8.0
        assert rec[f"{m}-negative-eta-traditional"]["failure"] == "NegativeEta"
        below = rec[f"{m}-below-bracket-traditional"]
        assert 0.0 < below["eta_hat"] < specfun._BRACKET_ETA_MIN
        assert below["failure"] == "RootOutOfRange"
        assert rec[f"{m}-n3-a-1.5-poly-corrected"]["sigma"] == 0.0
    assert len({r["failure"] for r in golden.values()}) >= 4
    for kind in EstimatorKind:
        assert any(r["status"] == "Ok" for key, r in golden.items()
                   if key.endswith(f"-{kind.value}"))
