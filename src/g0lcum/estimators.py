"""Roughness and scale estimators built on the first two log-cumulants:
the traditional bracketed trigamma inversion, the closed-form reciprocal
square root, the degree-7 polynomial device, and the latter preceded by a
Bayesian correction of the transformed second log-cumulant."""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .specfun import log_ndtr as _log_ndtr
from .specfun import psi as _psi
from .model import LogCumulants, ModelKind, NamedEnum, Sample, check_looks

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = np.finfo(float).eps
# A scale estimate looks * exp(x) is taken as too large for a float64 once x
# reaches ln(float64 max) - ln(looks), less 1e-9 for the rounding of that
# bound and of exp, so every estimate below it is finite.
_LOG_GAMMA_MAX = math.log(np.finfo(float).max) - 1e-9
# Default lower bound of an admissible roughness estimate: a root below it
# fails with RootOutOfRange.
ALPHA_FLOOR = -15.0


class EstimatorKind(NamedEnum):
    TRADITIONAL = "traditional"
    FMOLC_SIMPLE = "fmolc"
    FAST_POLY = "poly"
    FAST_POLY_CORRECTED = "poly-corrected"


class Status(enum.Enum):
    OK = "Ok"
    FAILED = "Failed"


class FailureReason(enum.Enum):
    NEGATIVE_ETA = "NegativeEta"
    NO_REAL_ROOT_OR_MULTIPLE = "NoRealRootOrMultiple"
    ROOT_OUT_OF_RANGE = "RootOutOfRange"
    SOLVER_NO_CONVERGENCE = "SolverNoConvergence"
    DEGENERATE_K2 = "DegenerateK2"


# Per-estimate outcome codes of estimate_from_moments: code 0 is success and
# code k > 0 failed for FAILURE_CODES[k].
FAILURE_CODES = (None, *FailureReason)
_CODE = {reason: code for code, reason in enumerate(FAILURE_CODES)}


def count_failures(code) -> dict:
    """Count of each FailureReason value among an array of outcome codes."""
    counts = np.bincount(np.ravel(code), minlength=len(FAILURE_CODES))
    return {reason.value: int(counts[c]) for c, reason in enumerate(FAILURE_CODES)
            if reason is not None}


@dataclass(frozen=True)
class EtaEstimate:
    eta_hat: float
    sigma: float | None = None
    eta_m: float | None = None


@dataclass(frozen=True)
class EstimateResult:
    alpha_hat: float | None
    gamma_hat: float | None
    failure: FailureReason | None
    elapsed_ns: int
    cumulants: LogCumulants | None = None
    eta: EtaEstimate | None = None

    @property
    def status(self) -> Status:
        """Ok exactly when there is no failure reason."""
        return Status.OK if self.failure is None else Status.FAILED


def log_moments(logs, usable=None, n=None):
    """Mean k1 and second and fourth central moments k2 and m4 (divisor n,
    center then square) of ``logs`` along its last axis, for one sample or a
    stack of them. A sample of equal values gets k2 = m4 = 0 exactly: its
    centering residue is no spread.

    Given a boolean mask ``usable`` like ``logs``, a sample is its true
    entries alone (the others may be NaN) and n is their count, so samples
    of any sizes share one pass; a fully usable one keeps the unmasked bits.
    A caller that has already counted them passes those counts as ``n``.
    One unmasked sample takes the same arithmetic on a scalar mean."""
    logs = np.asarray(logs, dtype=float)
    if usable is None:
        n = logs.shape[-1]
        k1 = np.add.reduce(logs, axis=-1) / n
        d = logs - (k1 if logs.ndim == 1 else k1[..., np.newaxis])
    else:
        if n is None:
            n = np.count_nonzero(usable, axis=-1)
        d = np.where(usable, logs, 0.0)
        k1 = np.add.reduce(d, axis=-1) / n
        d -= k1[..., np.newaxis]
        d *= usable
    d *= d
    k2 = np.add.reduce(d, axis=-1) / n
    d *= d
    m4 = np.add.reduce(d, axis=-1) / n
    # The mean of n equal values is off by at most n*eps relative, so a
    # constant sample's k2 is below this bound; only the samples below it
    # get a second pass over their usable data.
    near = k2 <= (n * _EPS * k1) ** 2
    if near if near.ndim == 0 else np.count_nonzero(near):
        checked, where = logs[near], True if usable is None else usable[near]
        flat = np.array(near)
        flat[near] = (checked.min(axis=-1, where=where, initial=np.inf)
                      == checked.max(axis=-1, where=where, initial=-np.inf))
        k2, m4 = np.where(flat, 0.0, k2), np.where(flat, 0.0, m4)
    return k1, k2, m4


def _eta_variance(k2, m4, n, c_alpha):
    """Estimated variance of eta_hat = c_alpha * k2 - trigamma(looks) from a
    sample's log moments k2, m4 (divisor n) and its size n >= 4; scalars or
    arrays.

    The variance of the unbiased sample variance of n values is
    kappa4/n + 2 kappa2^2/(n-1), for the population cumulants kappa2 and
    kappa4 of their distribution, so eta_hat's is c_alpha^2 times that.
    Fisher's k-statistics are the unbiased estimates of those cumulants
    from the divisor-n central moments:

        K2 = n/(n-1) k2,
        K4 = n^2 ((n+1) m4 - 3(n-1) k2^2) / ((n-1)(n-2)(n-3)).

    Plugging in k2 and m4 - 3 k2^2 instead understates both at small n.
    Both K2 and K4 are location-invariant and vanish on a constant sample,
    and K4 needs n >= 4. The estimate can be negative, as K4 can; callers
    take a negative one as zero spread."""
    r = n / (n - 1.0)  # a float even for integer n, so no product below overflows
    k2_fisher = r * k2
    k4_fisher = r * n / ((n - 2.0) * (n - 3.0)) * ((n + 1.0) * m4 - 3.0 * (n - 1.0) * k2 * k2)
    return c_alpha * c_alpha * (k4_fisher / n + 2.0 * k2_fisher * k2_fisher / (n - 1.0))


def _deep_tail_mean(eta_hat, sigma):
    """Posterior mean of eta for eta_hat / sigma < -8, where the direct form
    cancels catastrophically: t + pdf/cdf ratio equals the continued
    fraction 1/(s+2/(s+3/...)) with s = -t. Scalars or arrays."""
    s = -(eta_hat / sigma)
    acc = 0.0
    for k in range(60, 1, -1):
        acc = k / (s + acc)
    return sigma / (s + acc)


def _posterior_mean(eta_hat: float, sigma: float) -> float:
    """bayes_correct_eta's eta_m, unchecked: eta_hat must be a finite float
    and sigma a float >= 0."""
    if sigma == 0.0:
        return max(eta_hat, 1e-12)
    t = eta_hat / sigma
    if t >= -8.0:
        return eta_hat + sigma * math.exp(-0.5 * t * t - _LOG_SQRT_2PI - _log_ndtr(t))
    return _deep_tail_mean(eta_hat, sigma)


def bayes_correct_eta(eta: EtaEstimate) -> EtaEstimate:
    """Posterior-mean correction of eta under a flat positive prior: the mean
    of a normal centered at eta_hat with scale sigma, truncated to (0, inf).

    Always strictly positive and never below eta_hat. A zero sigma collapses
    the posterior onto the point estimate, clamped away from zero. A NaN or
    infinite eta_hat, or a sigma that is unset, NaN or negative, raises
    ValueError."""
    if not (math.isfinite(eta.eta_hat) and eta.sigma is not None and eta.sigma >= 0.0):
        raise ValueError("eta.eta_hat must be finite and eta.sigma set and nonnegative "
                         f"before correction, got {eta!r}")
    return replace(eta, eta_m=_posterior_mean(eta.eta_hat, eta.sigma))


def _gamma_hat(alpha_hat, k1, looks: float, model: ModelKind):
    """estimate_gamma's formula, unchecked: alpha_hat must already be finite
    and negative, and looks a float >= 1. Scalars or arrays of alpha_hat and
    k1; looks is one number, so its psi is taken as a Python float. NaN
    where the estimate is too large for a float64: the exponent shows it
    before exp runs, so no overflow warning is raised."""
    x = model.k1_scale * k1 - float(_psi(looks)) + _psi(-alpha_hat)
    fits = x < _LOG_GAMMA_MAX - math.log(looks)
    if isinstance(x, float):  # np.float64 is a float; cheaper than np.ndim(x) == 0
        return looks * np.exp(x) if fits else math.nan
    return looks * np.exp(x, out=np.full(x.shape, np.nan), where=fits)


def estimate_gamma(alpha_hat, k1, looks: float, model: ModelKind):
    """Scale estimate from the first log-cumulant once roughness is known;
    scalars or arrays of alpha_hat and k1. NaN where it is too large for a
    float64."""
    a = np.asarray(alpha_hat, dtype=float)
    if not (np.isfinite(a) & (a < 0.0)).all():
        raise ValueError(f"alpha_hat must be negative, got {alpha_hat!r}")
    gamma = _gamma_hat(a, k1, check_looks(looks), model)
    return float(gamma) if a.ndim == 0 else gamma


def invert_eta(eta_value: float, kind: EstimatorKind,
               alpha_floor: float = ALPHA_FLOOR) -> tuple[float | None, FailureReason | None]:
    """Map a transformed second log-cumulant to a roughness estimate, or
    classify why no admissible estimate exists. The corrected estimator uses
    the same polynomial route as the plain fast one."""
    if kind is EstimatorKind.TRADITIONAL:
        if eta_value <= 0.0:
            return None, FailureReason.NEGATIVE_ETA
        try:
            root = specfun.trigamma_inverse_bracketed(eta_value)
        except specfun.NoBracketError:
            # Positive eta escapes the bracket's image only below its low
            # end (root deeper than any admissible roughness) or above its
            # high end (no refinable bracket on that side).
            if eta_value < specfun._BRACKET_ETA_MIN:
                return None, FailureReason.ROOT_OUT_OF_RANGE
            return None, FailureReason.SOLVER_NO_CONVERGENCE
        except specfun.NoConvergenceError:
            return None, FailureReason.SOLVER_NO_CONVERGENCE
        alpha = -root
    elif kind is EstimatorKind.FMOLC_SIMPLE:
        if eta_value == 0.0:
            return None, FailureReason.DEGENERATE_K2
        alpha = -1.0 / math.sqrt(abs(eta_value))
    else:
        if eta_value == 0.0:
            return None, FailureReason.DEGENERATE_K2
        if eta_value < 0.0:
            # The approximation is positive on the whole positive axis, so
            # a negative eta has no root.
            return None, FailureReason.NO_REAL_ROOT_OR_MULTIPLE
        alpha = -specfun.trigamma_approx_inverse(eta_value)
    if not (alpha_floor <= alpha < 0.0):
        return None, FailureReason.ROOT_OUT_OF_RANGE
    return alpha, None


def estimate_alpha(s: Sample, looks: float, model: ModelKind, kind: EstimatorKind,
                   alpha_floor: float = ALPHA_FLOOR) -> EstimateResult:
    """Full estimation on a raw sample: log-cumulants, eta, inversion, and
    the scale estimate on success. Failures are carried in the result, never
    thrown; timing covers everything from the log transform onward.

    Between the numpy calls it needs, the arithmetic runs on Python floats."""
    looks = check_looks(looks)
    t0 = time.perf_counter_ns()
    logs = np.log(s.values)
    n = logs.size
    k1, k2, m4 = map(float, log_moments(logs))
    eta_hat = model.c_alpha * k2 - specfun._trigamma(looks)
    if kind is EstimatorKind.FAST_POLY_CORRECTED:
        # Too few points to estimate the spread: degrade to the
        # point-estimate posterior rather than failing outright.
        var = _eta_variance(k2, m4, n, model.c_alpha) if n >= 4 else 0.0
        sigma = math.sqrt(var) if var > 0.0 else 0.0
        eta = EtaEstimate(eta_hat, sigma, _posterior_mean(eta_hat, sigma))
        alpha_hat, reason = invert_eta(eta.eta_m, kind, alpha_floor)
    else:
        eta = EtaEstimate(eta_hat)
        alpha_hat, reason = invert_eta(eta_hat, kind, alpha_floor)
    gamma_hat = None
    if alpha_hat is not None:
        gamma_hat = float(_gamma_hat(alpha_hat, k1, looks, model))
        if math.isnan(gamma_hat):  # too large for a float64
            gamma_hat = None
    elapsed = time.perf_counter_ns() - t0
    return EstimateResult(
        alpha_hat=alpha_hat,
        gamma_hat=gamma_hat,
        failure=reason,
        elapsed_ns=elapsed,
        cumulants=LogCumulants(k1=k1, k2=k2, n=n),
        eta=eta,
    )


# The direct form is written twice, here and in _posterior_mean, because
# np.exp and math.exp differ in the last bit on some arguments (about 5%),
# and the golden test pins the scalar path's bits; only _deep_tail_mean is
# shared.
def _bayes_correct_array(eta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """bayes_correct_eta over arrays of eta_hat and sigma."""
    eta_m = np.maximum(eta, 1e-12)
    spread = sigma > 0.0
    t = np.full(eta.shape, -np.inf)
    t[spread] = eta[spread] / sigma[spread]
    direct = t >= -8.0
    td = t[direct]
    eta_m[direct] = eta[direct] + sigma[direct] * np.exp(
        -0.5 * td * td - _LOG_SQRT_2PI - _log_ndtr(td))
    tail = spread & ~direct
    if tail.any():
        eta_m[tail] = _deep_tail_mean(eta[tail], sigma[tail])
    return eta_m


def estimate_from_moments(n, k1, k2, m4, looks: float, model: ModelKind,
                          kind: EstimatorKind, alpha_floor: float = ALPHA_FLOOR):
    """Array form of estimate_alpha for many samples at once, from 1-D
    arrays of each sample's log_moments k1, k2, m4 and its size n (an array,
    or one int for samples of equal size). Returns arrays (alpha_hat,
    gamma_hat, code): NaN estimates where a sample failed, and code 0 on
    success or the index of its FailureReason in FAILURE_CODES.

    fmolc and the polynomial estimators run on whole arrays, the latter
    through one trigamma_approx_inverse call, as invert_eta does; the
    traditional estimator keeps the bracketed solver, one sample at a
    time."""
    looks = check_looks(looks)
    n = np.asarray(n)
    k1, k2, m4 = (np.asarray(x, dtype=float) for x in (k1, k2, m4))
    eta = model.c_alpha * k2 - specfun.trigamma(looks)
    alpha = np.full(eta.shape, np.nan)
    code = np.zeros(eta.shape, dtype=np.int8)
    if kind is EstimatorKind.TRADITIONAL:
        for i, value in enumerate(eta):
            a, reason = invert_eta(float(value), kind, alpha_floor)
            if reason is None:
                alpha[i] = a
            else:
                code[i] = _CODE[reason]
    elif kind is EstimatorKind.FMOLC_SIMPLE:
        code[eta == 0.0] = _CODE[FailureReason.DEGENERATE_K2]
        alpha[code == 0] = -1.0 / np.sqrt(np.abs(eta[code == 0]))
    else:
        if kind is EstimatorKind.FAST_POLY_CORRECTED:
            # Too few points to estimate the spread: the point-estimate
            # posterior, as in estimate_alpha.
            with np.errstate(divide="ignore", invalid="ignore"):
                var = np.where(n >= 4, _eta_variance(k2, m4, n, model.c_alpha), 0.0)
            sigma = np.sqrt(np.maximum(var, 0.0))
            eta = _bayes_correct_array(eta, sigma)
        code[eta < 0.0] = _CODE[FailureReason.NO_REAL_ROOT_OR_MULTIPLE]
        code[eta == 0.0] = _CODE[FailureReason.DEGENERATE_K2]
        positive = eta > 0.0
        alpha[positive] = -specfun.trigamma_approx_inverse(eta[positive])
    out_of_range = (code == 0) & ~((alpha_floor <= alpha) & (alpha < 0.0))
    code[out_of_range] = _CODE[FailureReason.ROOT_OUT_OF_RANGE]
    ok = code == 0
    alpha[~ok] = np.nan
    gamma = np.full(eta.shape, np.nan)
    gamma[ok] = _gamma_hat(alpha[ok], k1[ok], looks, model)
    return alpha, gamma, code
