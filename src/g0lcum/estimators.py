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
from scipy.special import log_ndtr as _log_ndtr
from scipy.special import psi as _psi

from . import specfun
from .model import LogCumulants, ModelKind, Sample

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class SampleTooSmallError(Exception):
    """The variance formula for eta needs at least four observations."""


class EstimatorKind(enum.Enum):
    TRADITIONAL = "traditional"
    FMOLC_SIMPLE = "fmolc"
    FAST_POLY = "poly"
    FAST_POLY_CORRECTED = "poly-corrected"

    @classmethod
    def parse(cls, text: str) -> "EstimatorKind":
        try:
            return cls(text.lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown estimator {text!r}; expected one of {valid}") from None


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


@dataclass(frozen=True)
class EtaEstimate:
    eta_hat: float
    sigma: float | None = None
    eta_m: float | None = None


@dataclass(frozen=True)
class EstimateResult:
    alpha_hat: float | None
    gamma_hat: float | None
    status: Status
    failure: FailureReason | None
    elapsed_ns: int
    cumulants: LogCumulants | None = None
    eta: EtaEstimate | None = None


def eta_hat(lc: LogCumulants, looks: float, model: ModelKind) -> EtaEstimate:
    """Transformed second log-cumulant whose trigamma inversion yields the
    roughness; sigma is left unset."""
    if looks < 1.0:
        raise ValueError(f"looks must be >= 1, got {looks!r}")
    return EtaEstimate(eta_hat=model.c_alpha * lc.k2 - specfun.trigamma(looks))


def _eta_variance(k2, m4, n, c_alpha):
    """Estimated variance of eta_hat; scalars or arrays."""
    return (c_alpha * c_alpha / n) * (m4 - (n - 3.0) / (n - 1.0) * k2 * k2)


def _sigma_from_log_moments(k2: float, m4: float, n: int, c_alpha: float) -> float:
    var = _eta_variance(k2, m4, n, c_alpha)
    return math.sqrt(var) if var > 0.0 else 0.0


def _deep_tail_mean(eta_hat, sigma):
    """Posterior mean of eta for eta_hat / sigma < -8, where the direct form
    cancels catastrophically: t + pdf/cdf ratio equals the continued
    fraction 1/(s+2/(s+3/...)) with s = -t. Scalars or arrays."""
    s = -(eta_hat / sigma)
    acc = 0.0
    for k in range(60, 1, -1):
        acc = k / (s + acc)
    return sigma / (s + acc)


def eta_sigma(s: Sample, model: ModelKind) -> float:
    """Estimated standard deviation of eta_hat from the second and fourth
    central moments of the log data (divisor n); zero for a constant sample."""
    n = len(s)
    if n < 4:
        raise SampleTooSmallError(f"need at least 4 observations, got {n}")
    if s.values.min() == s.values.max():
        # Centering residue must not leak a nonzero spread here.
        return 0.0
    logs = np.log(s.values)
    d = logs - logs.mean()
    d2 = d * d
    k2 = float(d2.mean())
    m4 = float((d2 * d2).mean())
    return _sigma_from_log_moments(k2, m4, n, model.c_alpha)


def bayes_correct_eta(eta: EtaEstimate) -> EtaEstimate:
    """Posterior-mean correction of eta under a flat positive prior: the mean
    of a normal centered at eta_hat with scale sigma, truncated to (0, inf).

    Always strictly positive and never below eta_hat. A zero sigma collapses
    the posterior onto the point estimate, clamped away from zero."""
    if eta.sigma is None or eta.sigma < 0.0:
        raise ValueError("eta.sigma must be set and nonnegative before correction")
    sigma = eta.sigma
    if sigma == 0.0:
        return replace(eta, eta_m=max(eta.eta_hat, 1e-12))
    t = eta.eta_hat / sigma
    if t >= -8.0:
        corrected = eta.eta_hat + sigma * math.exp(-0.5 * t * t - _LOG_SQRT_2PI - _log_ndtr(t))
    else:
        corrected = _deep_tail_mean(eta.eta_hat, sigma)
    return replace(eta, eta_m=corrected)


def estimate_gamma(alpha_hat: float, k1: float, looks: float, model: ModelKind) -> float:
    """Scale estimate from the first log-cumulant once roughness is known."""
    if not (math.isfinite(alpha_hat) and alpha_hat < 0.0):
        raise ValueError(f"alpha_hat must be negative, got {alpha_hat!r}")
    return looks * math.exp(model.k1_scale * k1 - specfun.digamma(looks)
                            + specfun.digamma(-alpha_hat))


def invert_eta(eta_value: float, kind: EstimatorKind,
               alpha_floor: float = -15.0) -> tuple[float | None, FailureReason | None]:
    """Map a transformed second log-cumulant to a roughness estimate, or
    classify why no admissible estimate exists. The corrected estimator uses
    the same polynomial route as the plain fast one."""
    if kind is EstimatorKind.TRADITIONAL:
        if eta_value <= 0.0:
            return None, FailureReason.NEGATIVE_ETA
        try:
            root = specfun.trigamma_inverse_bracketed(eta_value)
        except specfun.NoBracketError:
            # Positive eta escapes the bracket only below trigamma(1e6)
            # (root deeper than any admissible roughness) or above
            # trigamma(1e-6) (no refinable bracket on that side).
            if eta_value < 1.0:
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
            # With a nonpositive leading coefficient every term of the
            # polynomial is nonnegative on the negative axis (the even part
            # 35a^4 - 7a^2 + 5 has negative discriminant), so no real
            # negative root can exist.
            return None, FailureReason.NO_REAL_ROOT_OR_MULTIPLE
        try:
            roots = specfun.solve_roughness_polynomial(eta_value)
        except specfun.NoConvergenceError:
            return None, FailureReason.SOLVER_NO_CONVERGENCE
        negatives = [r for r in roots.real_roots() if r < 0.0]
        if len(negatives) != 1:
            return None, FailureReason.NO_REAL_ROOT_OR_MULTIPLE
        alpha = negatives[0]
    if not (alpha_floor <= alpha < 0.0):
        return None, FailureReason.ROOT_OUT_OF_RANGE
    return alpha, None


def estimate_alpha(s: Sample, looks: float, model: ModelKind, kind: EstimatorKind,
                   alpha_floor: float = -15.0) -> EstimateResult:
    """Full estimation on a raw sample: log-cumulants, eta, inversion, and
    the scale estimate on success. Failures are carried in the result, never
    thrown; timing covers everything from the log transform onward."""
    if looks < 1.0:
        raise ValueError(f"looks must be >= 1, got {looks!r}")
    t0 = time.perf_counter_ns()
    logs = np.log(s.values)
    n = logs.size
    k1 = float(logs.mean())
    d = logs - k1
    d2 = d * d
    k2 = float(d2.mean())
    eta = EtaEstimate(eta_hat=model.c_alpha * k2 - specfun.trigamma(looks))
    if kind is EstimatorKind.FAST_POLY_CORRECTED:
        if n >= 4:
            m4 = float((d2 * d2).mean())
            sigma = _sigma_from_log_moments(k2, m4, n, model.c_alpha)
        else:
            # Too few points to estimate the spread; degrade to the
            # point-estimate posterior rather than failing outright.
            sigma = 0.0
        eta = bayes_correct_eta(replace(eta, sigma=sigma))
        alpha_hat, reason = invert_eta(eta.eta_m, kind, alpha_floor)
    else:
        alpha_hat, reason = invert_eta(eta.eta_hat, kind, alpha_floor)
    gamma_hat = None
    if alpha_hat is not None:
        gamma_hat = estimate_gamma(alpha_hat, k1, looks, model)
    elapsed = time.perf_counter_ns() - t0
    return EstimateResult(
        alpha_hat=alpha_hat,
        gamma_hat=gamma_hat,
        status=Status.OK if alpha_hat is not None else Status.FAILED,
        failure=reason,
        elapsed_ns=elapsed,
        cumulants=LogCumulants(k1=k1, k2=k2, n=n),
        eta=eta,
    )


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
    eta_m[tail] = _deep_tail_mean(eta[tail], sigma[tail])
    return eta_m


def _invert_each(value: np.ndarray, index, kind: EstimatorKind, alpha_floor: float,
                 alpha: np.ndarray, code: np.ndarray) -> None:
    """Scalar invert_eta on value[i] for each i in index, into alpha and code."""
    for i in index:
        a, reason = invert_eta(float(value[i]), kind, alpha_floor)
        if reason is None:
            alpha[i] = a
        else:
            code[i] = _CODE[reason]


def _invert_polynomial_array(value: np.ndarray, kind: EstimatorKind, alpha_floor: float,
                             alpha: np.ndarray, code: np.ndarray) -> None:
    """The polynomial branch of invert_eta over an array of eta values, into
    alpha and code: every companion matrix goes to one stacked eigenvalue
    solve. The floor is not applied."""
    code[value < 0.0] = _CODE[FailureReason.NO_REAL_ROOT_OR_MULTIPLE]
    code[value == 0.0] = _CODE[FailureReason.DEGENERATE_K2]
    solve = np.flatnonzero(code == 0)
    try:
        roots = np.linalg.eigvals(specfun.roughness_companions(value[solve]))
    except np.linalg.LinAlgError:
        # Some matrix did not converge and the stack does not say which:
        # the scalar solve classifies each one on its own.
        _invert_each(value, solve, kind, alpha_floor, alpha, code)
        return
    real = np.abs(roots.imag) <= specfun.REAL_ROOT_IM_TOL * np.maximum(1.0, np.abs(roots.real))
    negative = real & (roots.real < 0.0)
    single = np.count_nonzero(negative, axis=1) == 1
    alpha[solve[single]] = roots.real[single][negative[single]]
    code[solve[~single]] = _CODE[FailureReason.NO_REAL_ROOT_OR_MULTIPLE]


def estimate_from_moments(n, k1, k2, m4, looks: float, model: ModelKind,
                          kind: EstimatorKind, alpha_floor: float = -15.0):
    """Array form of estimate_alpha for many samples at once, from 1-D
    arrays of each sample's size n and log moments: mean k1, and second and
    fourth central moments k2 and m4 (divisor n). Returns arrays (alpha_hat,
    gamma_hat, code): NaN estimates where a sample failed, and code 0 on
    success or the index of its FailureReason in FAILURE_CODES.

    fmolc and the polynomial estimators run on whole arrays, the latter
    through one stacked companion-matrix eigenvalue solve; the traditional
    estimator keeps the bracketed solver, one sample at a time."""
    if looks < 1.0:
        raise ValueError(f"looks must be >= 1, got {looks!r}")
    n = np.asarray(n)
    k1, k2, m4 = (np.asarray(x, dtype=float) for x in (k1, k2, m4))
    eta = model.c_alpha * k2 - specfun.trigamma(looks)
    alpha = np.full(eta.shape, np.nan)
    code = np.zeros(eta.shape, dtype=np.int8)
    if kind is EstimatorKind.TRADITIONAL:
        _invert_each(eta, range(eta.size), kind, alpha_floor, alpha, code)
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
        _invert_polynomial_array(eta, kind, alpha_floor, alpha, code)
    out_of_range = (code == 0) & ~((alpha_floor <= alpha) & (alpha < 0.0))
    code[out_of_range] = _CODE[FailureReason.ROOT_OUT_OF_RANGE]
    ok = code == 0
    alpha[~ok] = np.nan
    gamma = np.full(eta.shape, np.nan)
    gamma[ok] = looks * np.exp(model.k1_scale * k1[ok] - specfun.digamma(looks)
                               + _psi(-alpha[ok]))
    return alpha, gamma, code
