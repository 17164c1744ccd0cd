"""Special-function layer: polygamma values against independent series
oracles and frozen high-precision references, the inverse trigamma, the
inverse of the approximation behind the degree-7 roughness polynomial, and
the F-distribution quantile."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import psi

import g0lcum
from g0lcum import harness, specfun
from g0lcum.estimators import EstimatorKind
from g0lcum.model import G0Params, ModelKind, sample_g0
from g0lcum.specfun import (
    NoBracketError,
    NoConvergenceError,
    f_cdf,
    f_quantile,
    ln_gamma,
    trigamma,
    trigamma_approx,
    trigamma_approx_inverse,
    trigamma_inverse_bracketed,
)

# Frozen references computed with mpmath at 40 decimal digits.
DIGAMMA_REF = {
    0.5: -1.9635100260214234794,
    1.0: -0.57721566490153286061,
    2.0: 0.42278433509846713939,
    3.7: 1.1671535393615114409,
    10.0: 2.2517525890667211076,
    57.5: 4.0430640916027097178,
}
TRIGAMMA_REF = {
    0.5: 4.9348022005446793094,
    1.0: 1.6449340668482264365,
    2.0: 0.64493406684822643647,
    3.7: 0.31003785767003830216,
    10.0: 0.10516633568168574612,
    57.5: 0.017543409716574620734,
}


class TestPolygamma:
    def test_digamma_frozen_values(self):
        """The scale estimate's digamma is scipy's psi."""
        for x, ref in DIGAMMA_REF.items():
            assert psi(x) == pytest.approx(ref, rel=1e-13, abs=1e-14)

    def test_trigamma_frozen_values(self):
        for x, ref in TRIGAMMA_REF.items():
            assert trigamma(x) == pytest.approx(ref, rel=1e-13)

    def test_digamma_identities(self):
        """psi(x+1) = psi(x) + 1/x and psi(1) = -euler_mascheroni, for psi
        and for its series oracle."""
        for digamma in (psi, specfun.digamma_series_oracle):
            assert digamma(1.0) == pytest.approx(-np.euler_gamma, rel=1e-15)
            for x in (0.3, 1.0, 2.5, 7.0, 40.0):
                assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-13)

    def test_trigamma_identities(self):
        """psi1(x+1) = psi1(x) - 1/x^2 and psi1(1) = pi^2/6."""
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
        for x in (0.3, 1.0, 2.5, 7.0, 40.0):
            assert trigamma(x + 1.0) == pytest.approx(trigamma(x) - 1.0 / x ** 2, rel=1e-13)

    def test_series_oracle_agreement(self):
        xs = np.logspace(np.log10(0.5), 2.0, 60)
        for x in xs:
            x = float(x)
            tref = specfun.trigamma_series_oracle(x)
            dref = specfun.digamma_series_oracle(x)
            assert abs(trigamma(x) - tref) <= 1e-12 * abs(tref)
            assert abs(psi(x) - dref) <= 1e-12 * max(1.0, abs(dref))

    def test_euler_mascheroni_oracle(self):
        assert specfun.euler_mascheroni_oracle() == pytest.approx(np.euler_gamma, abs=1e-14)

    def test_ln_gamma(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)

    def test_domain_validation(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                specfun.digamma_series_oracle(bad)
            with pytest.raises(ValueError):
                trigamma(bad)


class TestTrigammaApprox:
    def test_error_bound_on_working_interval(self):
        """Absolute error stays below 1/x^11 across [2, 15]."""
        for x in np.linspace(2.0, 15.0, 261):
            x = float(x)
            assert abs(trigamma_approx(x) - trigamma(x)) <= x ** -11

    def test_error_at_left_edge(self):
        # Measured 2.149e-5; the bound below is a frozen safety margin.
        assert abs(trigamma_approx(2.0) - trigamma(2.0)) <= 5e-5

    def test_converges_to_trigamma_for_large_x(self):
        assert trigamma_approx(200.0) == pytest.approx(trigamma(200.0), rel=1e-15)


class TestTrigammaInverse:
    def test_round_trip_from_alpha(self):
        for a in (1.2, 2.0, 3.0, 5.0, 8.0, 15.0, 60.0):
            eta = trigamma(a)
            assert trigamma_inverse_bracketed(eta) == pytest.approx(a, rel=1e-10)

    def test_round_trip_other_direction(self):
        for eta in (1e-4, 0.01, 0.3, 1.0, 4.9):
            x = trigamma_inverse_bracketed(eta)
            assert trigamma(x) == pytest.approx(eta, rel=1e-9)

    def test_monotone_decreasing_input_maps_up(self):
        assert trigamma_inverse_bracketed(0.01) > trigamma_inverse_bracketed(1.0)

    def test_rejects_nonpositive_eta(self):
        for bad in (0.0, -0.5):
            with pytest.raises((ValueError, NoBracketError)):
                trigamma_inverse_bracketed(bad)

    def test_rejects_eta_just_outside_the_bracket(self):
        for bad in (np.nextafter(specfun._BRACKET_ETA_MIN, 0.0),
                    np.nextafter(specfun._BRACKET_ETA_MAX, np.inf)):
            with pytest.raises(NoBracketError):
                trigamma_inverse_bracketed(float(bad))

    def test_equals_scipy_brentq_bit_for_bit(self):
        """The direct call into scipy's compiled Brent loop gives brentq's
        root to the bit, and raises exactly where that root fails the
        residual check. Should a scipy release change the private routine
        behind brentq, this is the test that says so."""
        rng = np.random.default_rng(11)
        lo, hi = specfun._BRACKET_ETA_MIN, specfun._BRACKET_ETA_MAX
        etas = np.concatenate([np.exp(rng.uniform(np.log(lo), np.log(hi), 3000)),
                               [trigamma(x) for x in np.linspace(1.0, 16.0, 301)],
                               [lo, hi]])
        compared = 0
        for eta in map(float, etas):
            ref = brentq(lambda t: trigamma(t) - eta, 1e-6, 1e6, xtol=1e-14,
                         rtol=4.0 * np.finfo(float).eps, maxiter=200)
            if abs(trigamma(ref) - eta) > specfun._BRACKET_TOL * max(1.0, eta):
                with pytest.raises(NoConvergenceError, match="residual"):
                    trigamma_inverse_bracketed(eta)
            else:
                assert trigamma_inverse_bracketed(eta) == ref
                compared += 1
        assert compared > 3000


# Run in a fresh interpreter, since this one has imported scipy.optimize for
# brentq and scipy.special for psi. Neither package is loaded by an import of
# this package, a map (polynomial or traditional), an estimate by any of the
# four estimators, or a traditional inversion. A sample, or a forked campaign
# before its workers start (argv[2] says which comes first), loads
# scipy.special for the F quantile, and the sample's bits and the campaign's
# cells are those this interpreter got (argv[1]/expected.json). A serial or
# forked campaign with traditional still leaves scipy.optimize out: its workers
# inherit the Brent loop, and the forked campaign agrees with the serial one.
NO_OPTIMIZE_SCRIPT = textwrap.dedent("""
    import contextlib, dataclasses, io, json, sys
    from pathlib import Path
    import numpy as np
    from g0lcum import cli, harness, specfun
    from g0lcum.estimators import EstimatorKind, invert_eta
    from g0lcum.model import G0Params, ModelKind, sample_g0

    def loaded(package):
        return package in sys.modules

    tmp, first = Path(sys.argv[1]), sys.argv[2]
    expected = json.loads((tmp / "expected.json").read_text())
    assert not loaded("scipy.optimize") and not loaded("scipy.special")
    rng = np.random.default_rng(3)
    (tmp / "grid.csv").write_text("\\n".join(
        ",".join(map(repr, row)) for row in rng.gamma(2.0, 1.0, (8, 8)).tolist()))
    for kind in ("poly-corrected", "traditional"):
        assert cli.main(["map", "--in", str(tmp / "grid.csv"), "--format", "csv",
                         "--window", "3", "--looks", "1", "--model", "intensity",
                         "--estimator", kind, "--out", str(tmp / "m.csv"),
                         "--threads", "1"]) == 0
    # Unit-mean G0 intensity, alpha -3 and L 2, drawn without the sampler.
    values = rng.gamma(2.0, 0.5, 400) * 2.0 / rng.gamma(3.0, 1.0, 400)
    (tmp / "sample.csv").write_text("z\\n" + "\\n".join(map(repr, values.tolist())))
    for kind in EstimatorKind:
        with contextlib.redirect_stdout(io.StringIO()) as payload:
            assert cli.main(["estimate", "--in", str(tmp / "sample.csv"), "--looks", "2",
                             "--model", "intensity", "--estimator", kind.value]) == 0
        assert json.loads(payload.getvalue())["status"] == "Ok", kind
    assert invert_eta(specfun.trigamma(3.0), EstimatorKind.TRADITIONAL)[1] is None
    assert not loaded("scipy.optimize") and not loaded("scipy.special")

    def sample():
        params = G0Params(alpha=-3.0, gamma=2.0, looks=2.0)
        return sample_g0(params, ModelKind.INTENSITY, 400, 7).values.tolist()

    def campaign():
        cfg = harness.MCConfig.from_json(expected["config"])
        forked = harness.run_campaign(cfg, parallelism=2)
        assert loaded("scipy.special")
        serial = harness.run_campaign(cfg, parallelism=1)
        untimed = lambda report: [dataclasses.replace(c, mean_time_ns=0.0)
                                  for c in report.cells]
        assert untimed(forked) == untimed(serial)
        assert all(c.successes > 0 for c in forked.cells)
        return repr(untimed(serial))

    steps = {"sample": sample, "campaign": campaign}
    for name in sorted(steps, key=lambda name: name != first):
        assert steps[name]() == expected[name], name
        assert loaded("scipy.special") and not loaded("scipy.optimize")
    print("ok")
""")

# Run in a fresh interpreter: a traditional solve before or after
# "import scipy.optimize, scipy.special" (argv[1] says which) leaves those
# packages whole; the public brentq gives the solve's root to the bit, and
# scipy.special's psi, log_ndtr and gammaln give this package's bits over grids
# that span the float range and the poles.
IMPORT_ORDER_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    if sys.argv[1] == "scipy-first":
        import scipy.optimize, scipy.special
    from g0lcum import specfun
    eta = specfun.trigamma(3.0)
    root = specfun.trigamma_inverse_bracketed(eta)
    import scipy.optimize, scipy.special
    assert scipy.optimize._zeros is sys.modules["scipy.optimize._zeros"]
    assert root == scipy.optimize.brentq(lambda t: specfun.trigamma(t) - eta, 1e-6, 1e6,
                                         xtol=1e-14, rtol=specfun._BRACKET_RTOL, maxiter=200)
    assert root == specfun.trigamma_inverse_bracketed(eta)
    grid = np.concatenate([np.geomspace(1e-300, 1e300, 50_000),
                           -np.geomspace(1e-300, 1e300, 50_000),
                           np.linspace(-60.0, 60.0, 100_001), [0.0, -0.0, np.inf, -np.inf]])
    for name in ("psi", "log_ndtr", "gammaln"):
        ours, scipys = getattr(specfun, name)(grid), getattr(scipy.special, name)(grid)
        assert ours.tobytes() == scipys.tobytes(), name
    print("ok")
""")


def run_fresh(script: str, *args: str) -> None:
    """Run ``script`` in a fresh interpreter on this package; it must print ok."""
    src = os.path.dirname(os.path.dirname(g0lcum.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_no_command_or_estimator_loads_scipy_optimize(tmp_path):
    cfg = harness.MCConfig(alphas=(-3.0,), looks=(1.0, 3.0), sizes=(9, 25), trials=30,
                           models=(ModelKind.INTENSITY,),
                           estimators=(EstimatorKind.TRADITIONAL,))
    untimed = [dataclasses.replace(c, mean_time_ns=0.0)
               for c in harness.run_campaign(cfg, parallelism=1).cells]
    params = G0Params(alpha=-3.0, gamma=2.0, looks=2.0)
    (tmp_path / "expected.json").write_text(json.dumps({
        "config": cfg.to_json(), "campaign": repr(untimed),
        "sample": sample_g0(params, ModelKind.INTENSITY, 400, 7).values.tolist()}))
    for first in ("sample", "campaign"):
        run_fresh(NO_OPTIMIZE_SCRIPT, str(tmp_path), first)


@pytest.mark.parametrize("order", ["g0lcum-first", "scipy-first"])
def test_either_import_order_leaves_scipy_optimize_whole(order):
    run_fresh(IMPORT_ORDER_SCRIPT, order)


def test_a_missing_brent_module_fails_the_import_naming_its_path(tmp_path):
    """With scipy's package path pointing first at a directory without
    optimize/_zeros, importing this package fails and says where it looked."""
    run_fresh(textwrap.dedent("""
        import os, sys
        import scipy
        scipy.__path__.insert(0, sys.argv[1])
        try:
            import g0lcum
        except ImportError as exc:
            assert os.path.join(sys.argv[1], "optimize", "_zeros") in str(exc), exc
            print("ok")
    """), str(tmp_path))


def test_a_missing_special_ufuncs_module_falls_back_to_scipy_special(tmp_path):
    """With scipy's package path pointing first at a directory that holds
    optimize/_zeros but not special/_special_ufuncs, this package imports,
    takes psi, log_ndtr and gammaln from scipy.special, and gives the scalar
    path's golden bits."""
    zeros = Path(sys.modules["scipy.optimize._zeros"].__file__)
    (tmp_path / "optimize").mkdir()
    (tmp_path / "optimize" / zeros.name).symlink_to(zeros)
    run_fresh(textwrap.dedent("""
        import sys
        import scipy
        scipy.__path__.insert(0, sys.argv[1])
        sys.path.insert(0, sys.argv[2])
        from g0lcum import specfun
        import scipy.special
        assert specfun.SPECIAL_UFUNCS_SOURCE == scipy.special.__file__
        assert specfun.psi is scipy.special.psi and specfun.gammaln is scipy.special.gammaln
        assert specfun.log_ndtr is scipy.special.log_ndtr
        import test_scalar_golden
        test_scalar_golden.test_scalar_path_matches_golden_bits()
        print("ok")
    """), str(tmp_path), os.path.dirname(__file__))


def approx_series(x: float) -> float:
    """The trigamma series through x^-7 that trigamma_approx_inverse
    inverts, summed exactly rounded."""
    return math.fsum((1.0 / x, 1.0 / (2.0 * x ** 2), 1.0 / (6.0 * x ** 3),
                      -1.0 / (30.0 * x ** 5), 1.0 / (42.0 * x ** 7)))


def newton_step(x: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """One more Newton step on P(w) = T(1/w) = eta from w = 1/x."""
    w = 1.0 / x
    p = w + w ** 2 / 2.0 + w ** 3 / 6.0 - w ** 5 / 30.0 + w ** 7 / 42.0
    dp = 1.0 + w + w ** 2 / 2.0 - w ** 4 / 6.0 + w ** 6 / 6.0
    return 1.0 / (w - (p - eta) / dp)


class TestTrigammaApproxInverse:
    def test_unique_negative_real_root_frozen(self):
        # mpmath.polyroots oracle at 40 digits for eta_m = 0.5.
        assert -trigamma_approx_inverse(0.5) == pytest.approx(-2.4599837508297701623,
                                                              rel=2e-15)

    def test_root_near_alpha_three(self):
        # mpmath oracle: exact negative root for eta = trigamma(3).
        assert -trigamma_approx_inverse(trigamma(3.0)) == pytest.approx(
            -3.0000089164442775458, rel=2e-15)

    def test_matches_companion_matrix_roots(self):
        """np.roots, an eigenvalue solver, finds one negative real root of
        210 eta z^7 + 210 z^6 - 105 z^5 + 35 z^4 - 7 z^2 + 5, and it is -x."""
        for eta in np.logspace(-8, 8, 161):
            roots = np.roots([210.0 * eta, 210.0, -105.0, 35.0, 0.0, -7.0, 0.0, 5.0])
            real = np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots.real))
            negative = roots.real[real & (roots.real < 0.0)]
            assert negative.size == 1
            x = trigamma_approx_inverse(float(eta))
            assert abs(-negative[0] - x) <= 1e-13 * x

    def test_residual_within_a_few_ulp(self):
        # x is right to about an ulp, and an ulp of x moves T by up to 7 ulp
        # of eta where T falls like x^-7.
        for eta in np.logspace(-8, 8, 401):
            x = trigamma_approx_inverse(float(eta))
            assert abs(approx_series(x) - eta) <= 10.0 * np.spacing(eta)

    def test_root_falls_as_eta_grows(self):
        """alpha_hat = -x is strictly increasing in eta."""
        x = trigamma_approx_inverse(np.logspace(-8, 8, 2001))
        assert np.all(np.diff(x) < 0.0)

    def test_scalar_and_array_bits_agree(self):
        # Dense where the estimators work: a start from Python's pow in
        # place of numpy's changes the last bit of about 1 in 1000 of these.
        rng = np.random.default_rng(11)
        etas = np.concatenate([np.logspace(-300, 300, 601), np.logspace(-2.0, 0.0, 20001),
                               10.0 ** rng.uniform(-10.0, 10.0, 2000)])
        stacked = trigamma_approx_inverse(etas)
        single = np.array([trigamma_approx_inverse(float(eta)) for eta in etas])
        assert isinstance(trigamma_approx_inverse(0.5), float)
        np.testing.assert_array_equal(stacked.view(np.int64), single.view(np.int64))

    def test_converged_over_the_whole_float_range(self):
        etas = np.logspace(-300, 300, 6001)
        x = trigamma_approx_inverse(etas)
        assert np.all(np.isfinite(x) & (x > 0.0))
        assert np.max(np.abs(newton_step(x, etas) - x) / x) <= 1e-15


class TestFQuantile:
    def test_closed_form_when_first_dof_is_two(self):
        """For d1=2 the CDF inverts analytically:
        x = d2/2 ((1-u)^(-2/d2) - 1)."""
        for u, d2, ref in (
            (0.25, 4.0, 0.30940107675850305804),
            (0.5, 4.0, 0.8284271247461900976),
            (0.9, 7.0, 3.2574420510913760132),
        ):
            assert f_quantile(u, 2.0, d2) == pytest.approx(ref, rel=1e-12)

    def test_cdf_round_trip(self):
        for u in (0.001, 0.2, 0.5, 0.8, 0.999):
            for d1, d2 in ((2.0, 4.0), (1.0, 6.0), (16.0, 3.0), (2.0, 10.0)):
                x = f_quantile(u, d1, d2)
                assert f_cdf(x, d1, d2) == pytest.approx(u, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        us = np.array([0.1, 0.4, 0.7])
        vec = f_quantile(us, 2.0, 6.0)
        for u, v in zip(us, vec):
            assert v == pytest.approx(f_quantile(float(u), 2.0, 6.0), rel=1e-14)

    def test_rejects_unit_and_above(self):
        """u = 1, above 1, or NaN (scalar or in an array) is outside [0, 1)."""
        for u in (1.0, 1.5, np.nan, np.array([0.5, np.nan]), np.array([0.2, 1.0])):
            with pytest.raises(ValueError, match=re.escape("u must lie in [0, 1)")):
                f_quantile(u, 2.0, 4.0)

    def test_zero_maps_to_zero(self):
        """Exactly 0, so the sampler redraws a zero uniform as it does z = 0."""
        for d1 in (2.0, 6.0, 16.0):
            for d2 in (2.02, 6.0, 80.0, 3000.0):
                assert f_quantile(0.0, d1, d2) == 0.0
                assert np.array_equal(f_quantile(np.zeros(3), d1, d2), np.zeros(3))
