"""Gamma-family special functions, series oracles, trigamma inverses and
F-distribution quantile machinery used by the roughness estimators."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os

import numpy as np
import scipy


class NoBracketError(Exception):
    """Target value lies outside the invertible range of the bracket."""


class NoConvergenceError(Exception):
    """Bracketed refinement hit its iteration cap without meeting tolerance."""


# Euler-Mascheroni constant, the digamma oracle's -psi(1).
_EULER_MASCHERONI = 0.5772156649015329

# Asymptotic tail coefficients: Bernoulli numbers B_2..B_14.
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def _check_positive(x, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")
    return x


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function on the positive axis."""
    x = _check_positive(x, "x")
    return float(gammaln(x))


def trigamma(x: float) -> float:
    """Second logarithmic derivative of gamma; strictly positive and
    strictly decreasing on the positive axis."""
    return _trigamma(_check_positive(x, "x"))


def _trigamma(x: float, minus: float = 0.0) -> float:
    """trigamma's arithmetic, unchecked: x must be a positive finite float.
    Returns trigamma(x) - minus, the root-finding objective, in one frame;
    subtracting the default 0.0 leaves every trigamma value as it is."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / (x * x)
        x += 1.0
    w = 1.0 / (x * x)
    b2, b4, b6, b8, b10, b12, b14 = _B2K
    tail = b2 + w * (b4 + w * (b6 + w * (b8 + w * (b10 + w * (b12 + w * b14)))))
    return shift + 1.0 / x + 0.5 * w + w / x * tail - minus


def trigamma_approx(x: float) -> float:
    """Six-term reciprocal-power approximation of trigamma."""
    x = _check_positive(x, "x")
    x2 = x * x
    x3 = x2 * x
    x5 = x3 * x2
    x7 = x5 * x2
    x9 = x7 * x2
    return (1.0 / x + 1.0 / (2.0 * x2) + 1.0 / (6.0 * x3)
            - 1.0 / (30.0 * x5) + 1.0 / (42.0 * x7) - 1.0 / (30.0 * x9))


def trigamma_series_oracle(x: float) -> float:
    """Independent check value for trigamma: partial sums of the defining
    series sum_k 1/(x+k)^2 with an Euler-Maclaurin tail.

    Truncation error of the tail is below 1/(42 s^7) with s >= 130, i.e.
    under 4e-16 absolute, so the oracle is reliable to ~1e-14 relative."""
    x = _check_positive(x, "x")
    k_terms = int(max(0.0, math.ceil(130.0 - x)))
    head = math.fsum(1.0 / ((x + k) * (x + k)) for k in range(k_terms))
    s = x + k_terms
    s2 = s * s
    tail = 1.0 / s + 1.0 / (2.0 * s2) + 1.0 / (6.0 * s2 * s) - 1.0 / (30.0 * s2 * s2 * s)
    return head + tail


def digamma_series_oracle(x: float) -> float:
    """Independent check value for digamma from the series
    psi(x) = -tau + sum_k (1/(k+1) - 1/(k+x)), Euler-Maclaurin tail."""
    x = _check_positive(x, "x")
    k_terms = 256
    head = math.fsum(1.0 / (k + 1.0) - 1.0 / (k + x) for k in range(k_terms))
    a = k_terms + 1.0
    b = k_terms + x
    tail = (math.log(b / a) + 0.5 * (1.0 / a - 1.0 / b)
            - (1.0 / (b * b) - 1.0 / (a * a)) / 12.0
            + (6.0 / (b ** 4) - 6.0 / (a ** 4)) / 720.0)
    return -_EULER_MASCHERONI + head + tail


def euler_mascheroni_oracle() -> float:
    """The Euler-Mascheroni constant from harmonic partial sums with an
    Euler-Maclaurin correction; independent of the stored constant."""
    k = 100
    harmonic = math.fsum(1.0 / j for j in range(1, k + 1))
    return (harmonic - math.log(k) - 0.5 / k + 1.0 / (12.0 * k * k)
            - 1.0 / (120.0 * k ** 4) + 1.0 / (252.0 * k ** 6))


# Bracket for the traditional trigamma inversion, its image under trigamma,
# the refinement's residual tolerance and iteration cap, and the relative
# step tolerance brentq passes by default.
_BRACKET_LO, _BRACKET_HI = 1e-6, 1e6
_BRACKET_ETA_MIN, _BRACKET_ETA_MAX = trigamma(_BRACKET_HI), trigamma(_BRACKET_LO)
_BRACKET_TOL, _BRACKET_MAX_ITER = 1e-10, 200
_BRACKET_RTOL = 4.0 * np.finfo(float).eps


def _load_extension(path: str):
    """One of scipy's compiled extension modules, scipy/<path> plus this
    platform's extension suffix, loaded from its file on its own. Importing
    such a module by its scipy name first runs the init of every package
    above it, which for scipy.optimize and scipy.special costs far more than
    the module. Its name here is this package's plus the file's stem, the
    component Python takes the init function's name from, so scipy's own
    import of the module, before or after this one, is left as it is.
    Raises ImportError naming the path when the file is missing."""
    stem = os.path.join(scipy.__path__[0], *path.split("/"))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            break
    else:
        raise ImportError(f"scipy's compiled module {stem} is missing (looked for the "
                          f"suffixes {importlib.machinery.EXTENSION_SUFFIXES})")
    spec = importlib.util.spec_from_file_location(
        f"{__package__}.{os.path.basename(stem)}", stem + suffix)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# scipy's compiled Brent loop, the routine behind scipy.optimize.brentq; its
# file links only libc and libm.
_brentq = _load_extension("optimize/_zeros")._brentq


def import_special():
    """scipy.special, for the F law's betaincinv and betainc. They exist only
    in its Cython ufunc module, whose init runs the whole package's, so the
    package is imported on the first draw rather than by every process that
    imports this one. A process about to fork workers that draw calls this
    first, so that they share its copy rather than each import their own."""
    from scipy import special

    return special


def _load_special_ufuncs():
    """psi, log_ndtr and gammaln with the file they came from: scipy's
    special/_special_ufuncs, whose objects scipy.special exports under the
    same names, or scipy.special itself in a scipy without that file or
    without one of the three in it."""
    names = ("psi", "log_ndtr", "gammaln")
    try:
        module = _load_extension("special/_special_ufuncs")
        return tuple(getattr(module, name) for name in names), module.__file__
    except (ImportError, AttributeError):
        special = import_special()
        return tuple(getattr(special, name) for name in names), special.__file__


# The estimators' digamma, the Bayes correction's log normal CDF and the
# density's log gamma. SPECIAL_UFUNCS_SOURCE names the file they came from.
(psi, log_ndtr, gammaln), SPECIAL_UFUNCS_SOURCE = _load_special_ufuncs()


def trigamma_inverse_bracketed(eta: float) -> float:
    """Solve trigamma(x) = eta for x > 0 by bracketed refinement.

    Raises NoBracketError when eta is nonpositive or outside the image of
    the bracket [1e-6, 1e6]; NoConvergenceError on the iteration cap.

    The refinement is Brent's method in scipy's compiled loop, the routine
    behind scipy.optimize.brentq, called with the arguments brentq would
    pass it, so the root is brentq's to the bit. It is reached through its
    private name to skip brentq's Python wrapper, which runs a NaN check
    on each of the solve's ~29 evaluations and costs more than the solve.
    That check cannot fire here: eta is finite before the solve, and on the
    bracket _trigamma is finite and positive, so the objective is finite.
    For the same reason the objective is the unchecked _trigamma itself,
    which the loop calls with eta as its extra argument. The loop is bound
    once, when this module loads."""
    eta = float(eta)
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    if not _BRACKET_ETA_MIN <= eta <= _BRACKET_ETA_MAX:
        raise NoBracketError(f"eta={eta!r} is outside the invertible bracket")
    root, _, _, flag = _brentq(_trigamma, _BRACKET_LO, _BRACKET_HI, 1e-14, _BRACKET_RTOL,
                               _BRACKET_MAX_ITER, (eta,), True, False)
    if flag != 0:
        raise NoConvergenceError(f"no convergence after {_BRACKET_MAX_ITER} iterations")
    if abs(_trigamma(root, eta)) > _BRACKET_TOL * max(1.0, eta):
        raise NoConvergenceError(f"residual above tolerance at x={root!r}")
    return root


def trigamma_approx_inverse(eta):
    """The x > 0 with T(x) = eta, for eta > 0, where T is the trigamma
    series through x^-7, trigamma_approx less its x^-9 term:
    T(x) = 1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + 1/(42x^7).
    The fast estimators take alpha_hat = -x. Accepts a scalar or an array;
    a scalar gets the bits it would get as an array element.

    Why there is one root and why Newton's method finds it:
    - For x > 0, p(-x) = 210 x^7 (T(x) - eta), where p(z) = 210 eta z^7
      + 210 z^6 - 105 z^5 + 35 z^4 - 7 z^2 + 5 is the estimators' degree-7
      roughness polynomial, so its negative roots are exactly the solutions
      of T(x) = eta. With w = 1/x, T(1/w) = P(w) = w + w^2/2 + w^3/6
      - w^5/30 + w^7/42.
    - P is strictly increasing: P'(w) = 1 + w + (w^2/6)(w^4 - w^2 + 3)
      >= 1 for w > 0, the quadratic in w^2 having a negative discriminant.
      With P(0) = 0, every eta > 0 has exactly one root w* > 0.
    - P is convex: P''(w) = 1 + w (w^4 - (2/3) w^2 + 1) > 0 for w > 0.
    - P(w) - w^7/84 = w + w^2/2 + w^3 (1/6 - v/30 + v^2/84) with v = w^2,
      and that quadratic in v has a negative discriminant, so
      P(w) > w^7/84 for w > 0 and w0 = (84 eta)^(1/7) lies above w*.
    - From above the root of a convex increasing function, each Newton
      step w <- w - (P(w) - eta)/P'(w) lands between the root and w: the
      iterates fall monotonically onto w* without overshooting, and
      P' >= 1 keeps every step finite.

    From w0, 6 steps reach w* to rounding for eta in [1e-300, 1e300]; 8
    are taken. The step count is fixed and the loop is plain arithmetic,
    so a float and an array run the same operations."""
    # numpy's pow, not Python's: the two can differ in the last bit. The
    # loop then runs on Python floats for a scalar, which is faster.
    w = np.power(84.0 * eta, 1.0 / 7.0)
    if w.ndim == 0:
        w = float(w)
    for _ in range(8):
        w2 = w * w
        p = w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w2 * (w2 / 42.0 - 1.0 / 30.0))))
        dp = 1.0 + w + w2 * (0.5 + w2 * (w2 - 1.0) / 6.0)
        w = w - (p - eta) / dp
    return 1.0 / w


def f_quantile(u, d1: float, d2: float):
    """Quantile of Snedecor's F law with (d1, d2) degrees of freedom via the
    inverse regularized incomplete beta. Accepts scalars or arrays; u = 1 is
    rejected since it maps to +infinity."""
    d1 = _check_positive(d1, "d1")
    d2 = _check_positive(d2, "d2")
    uu = np.asarray(u, dtype=float)
    if np.any(uu < 0.0) or np.any(uu >= 1.0):
        raise ValueError("u must lie in [0, 1); u = 1 maps to +infinity")
    y = import_special().betaincinv(0.5 * d1, 0.5 * d2, uu)
    with np.errstate(divide="ignore"):
        x = d2 * y / (d1 * (1.0 - y))
    if np.ndim(u) == 0:
        return float(x)
    return x


def f_cdf(x, d1: float, d2: float):
    """Forward CDF of Snedecor's F law; scalar or array arguments."""
    d1 = _check_positive(d1, "d1")
    d2 = _check_positive(d2, "d2")
    xx = np.asarray(x, dtype=float)
    y = d1 * xx / (d1 * xx + d2)
    cdf = import_special().betainc(0.5 * d1, 0.5 * d2, np.clip(y, 0.0, 1.0))
    out = np.where(xx <= 0.0, 0.0, cdf)
    if np.ndim(x) == 0:
        return float(out)
    return out
