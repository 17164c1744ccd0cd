"""Command-line surface: synthetic sampling, single-sample estimation,
Monte Carlo campaigns, roughness maps, and the special-function self-check.

Exit codes: 0 success, 1 domain/validation error, out of memory or a dead
campaign worker, 2 I/O error. Estimation failures on `estimate` are payload
content, not process errors."""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import re
import sys
from concurrent.futures import BrokenExecutor

import numpy as np

from . import harness, model, raster, specfun
from .estimators import EstimatorKind, estimate_alpha


# A negative decimal, exponent included, is a flag's value, not an option.
# The rule argparse has in Python 3.11 misses the exponent: "--alpha -2e0"
# failed with "expected one argument".
_NEGATIVE_NUMBER = re.compile(r"-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="g0lcum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # Names in any letter case, as configs and reports take them.
    models = [k.value for k in model.ModelKind]
    estimators = [k.value for k in EstimatorKind]
    # The CPUs this process may run on, where the OS says.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

    p = sub.add_parser("sample",
                       help="draw a synthetic sample and write it as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--looks", type=float, required=True)
    p.add_argument("--model", required=True, type=str.lower, choices=models)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--gamma", type=float, default=None,
                   help="scale; defaults to the unit-mean convention")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("estimate",
                       help="estimate roughness/scale from a sample CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--looks", type=float, required=True)
    p.add_argument("--model", required=True, type=str.lower, choices=models)
    p.add_argument("--estimator", required=True, type=str.lower, choices=estimators)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("mc",
                       help="run a Monte Carlo campaign from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", required=True, choices=harness.REPORT_FORMATS)
    p.add_argument("--threads", type=int, default=cpus)
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("map",
                       help="sliding-window roughness map over a raster")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", required=True, choices=raster.RASTER_READERS)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--looks", type=float, required=True)
    p.add_argument("--model", required=True, type=str.lower, choices=models)
    p.add_argument("--estimator", required=True, type=str.lower, choices=estimators)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=cpus)
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("specfun-check",
                       help="run the special-function oracle suites")
    p.set_defaults(handler=_cmd_specfun_check)
    return parser


def _cmd_sample(args) -> int:
    gamma = args.gamma
    if gamma is None:
        gamma = model.unit_mean_gamma(args.alpha)
    params = model.G0Params(alpha=args.alpha, gamma=gamma, looks=args.looks)
    kind = model.ModelKind.parse(args.model)
    sample = model.sample_g0(params, kind, args.n, args.seed)
    model.write_sample_csv(sample, args.out)
    return 0


def _cmd_estimate(args) -> int:
    kind = model.ModelKind.parse(args.model)
    sample = model.read_sample_csv(args.infile, kind)
    res = estimate_alpha(sample, args.looks, kind, EstimatorKind.parse(args.estimator))
    payload = {
        "alpha_hat": res.alpha_hat,
        "gamma_hat": res.gamma_hat,
        "status": res.status.value,
        "failure": None if res.failure is None else res.failure.value,
        "elapsed_ns": res.elapsed_ns,
        "k1": res.cumulants.k1,
        "k2": res.cumulants.k2,
        "eta_hat": res.eta.eta_hat,
        "eta_m": res.eta.eta_m,
        "sigma": res.eta.sigma,
    }
    print(json.dumps(payload))
    return 0


def _cmd_mc(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = harness.MCConfig.from_json(fh.read())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise OSError(f"{args.config}: invalid JSON ({exc})") from None
    report = harness.run_campaign(cfg, parallelism=args.threads)
    harness.write_report(report, args.out, args.format)
    return 0


def _cmd_map(args) -> int:
    kind = model.ModelKind.parse(args.model)
    rast = raster.read_raster(args.infile, args.format, kind, args.looks)
    est = EstimatorKind.parse(args.estimator)
    rmap = raster.roughness_map(rast, args.window, est, parallelism=args.threads)
    out_fmt = raster.write_map(rmap, args.out)
    print(f"wrote {out_fmt} map {rmap.width}x{rmap.height}, "
          f"{rmap.n_failures} failures, {rmap.elapsed_ns} ns", file=sys.stderr)
    return 0


def _cmd_specfun_check(args) -> int:
    xs = np.logspace(np.log10(0.5), 2.0, 200)
    tri = max(abs(specfun.trigamma(x) - specfun.trigamma_series_oracle(x))
              / specfun.trigamma_series_oracle(x) for x in xs)
    dig = max(abs(specfun.psi(x) - specfun.digamma_series_oracle(x))
              / max(1e-9, abs(specfun.digamma_series_oracle(x))) for x in xs)
    us = (0.01, 0.1, 0.5, 0.9, 0.99)
    dof = ((2.0, 4.0), (1.0, 6.0), (16.0, 3.0))
    rt = max(abs(specfun.f_cdf(specfun.f_quantile(u, d1, d2), d1, d2) - u)
             for u in us for d1, d2 in dof)
    print(f"trigamma vs series oracle: max rel err {tri:.3e}")
    print(f"digamma vs series oracle:  max rel err {dig:.3e}")
    print(f"F quantile round trip:     max abs err {rt:.3e}")
    ok = tri <= 1e-12 and dig <= 1e-12 and rt <= 1e-9
    return 0 if ok else 1


def _check_out(path) -> None:
    """Raise OSError for an output path that cannot be opened for writing: a
    directory, an empty path, or a path whose directory does not exist."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.handler(args)
    # BrokenExecutor: a campaign worker died, say for lack of memory.
    except (ValueError, BrokenExecutor, model.MomentUndefinedError) as exc:
        print(f"g0lcum: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the allocation it could not make.
        print(f"g0lcum: error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except (OSError, raster.RasterFormatError) as exc:
        print(f"g0lcum: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
