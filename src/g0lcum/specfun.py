"""Gamma-family special functions, series oracles, trigamma inverses and
F-distribution quantile machinery used by the roughness estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp
from scipy.linalg import lapack as _lapack
from scipy.optimize import brentq as _brentq


class NoBracketError(Exception):
    """Target value lies outside the invertible range of the bracket."""


class NoConvergenceError(Exception):
    """Bracketed refinement hit its iteration cap without meeting tolerance."""


class DegenerateLeadingCoefficientError(Exception):
    """Polynomial degree collapses because the leading coefficient vanishes."""


@dataclass(frozen=True)
class MathConstants:
    euler_mascheroni: float
    pi: float


CONSTANTS = MathConstants(euler_mascheroni=0.5772156649015329, pi=math.pi)

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
    return float(_sp.gammaln(x))


def digamma(x: float) -> float:
    """First logarithmic derivative of gamma, by recurrence shift to x >= 10
    followed by the asymptotic expansion."""
    x = _check_positive(x, "x")
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    # psi(x) ~ ln x - 1/(2x) - sum B_2k / (2k x^{2k})
    tail = w * (
        1.0 / 12.0
        + w * (-1.0 / 120.0 + w * (1.0 / 252.0 + w * (-1.0 / 240.0
            + w * (1.0 / 132.0 + w * (-691.0 / 32760.0 + w / 12.0)))))
    )
    return shift + math.log(x) - 0.5 / x - tail


def trigamma(x: float) -> float:
    """Second logarithmic derivative of gamma; strictly positive and
    strictly decreasing on the positive axis."""
    x = _check_positive(x, "x")
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / (x * x)
        x += 1.0
    w = 1.0 / (x * x)
    b2, b4, b6, b8, b10, b12, b14 = _B2K
    tail = b2 + w * (b4 + w * (b6 + w * (b8 + w * (b10 + w * (b12 + w * b14)))))
    return shift + 1.0 / x + 0.5 * w + w / x * tail


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
    return -CONSTANTS.euler_mascheroni + head + tail


def euler_mascheroni_oracle() -> float:
    """The Euler-Mascheroni constant from harmonic partial sums with an
    Euler-Maclaurin correction; independent of the stored constant."""
    k = 100
    harmonic = math.fsum(1.0 / j for j in range(1, k + 1))
    return (harmonic - math.log(k) - 0.5 / k + 1.0 / (12.0 * k * k)
            - 1.0 / (120.0 * k ** 4) + 1.0 / (252.0 * k ** 6))


# Bracket for the traditional trigamma inversion.
_BRACKET_LO = 1e-6
_BRACKET_HI = 1e6


def trigamma_inverse_bracketed(eta: float, tol: float = 1e-10,
                               max_iter: int = 200) -> float:
    """Solve trigamma(x) = eta for x > 0 by bracketed refinement.

    Raises NoBracketError when eta is nonpositive or outside the image of
    the bracket [1e-6, 1e6]; NoConvergenceError on the iteration cap."""
    eta = float(eta)
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    if eta <= 0.0 or eta < trigamma(_BRACKET_HI) or eta > trigamma(_BRACKET_LO):
        raise NoBracketError(f"eta={eta!r} is outside the invertible bracket")
    root, info = _brentq(lambda t: trigamma(t) - eta, _BRACKET_LO, _BRACKET_HI,
                         xtol=1e-14, rtol=4.0 * np.finfo(float).eps,
                         maxiter=max_iter, full_output=True, disp=False)
    if not info.converged:
        raise NoConvergenceError(f"no convergence after {max_iter} iterations")
    if abs(trigamma(root) - eta) > tol * max(1.0, eta):
        raise NoConvergenceError(f"residual above tolerance at x={root!r}")
    return float(root)


# Relative size of an imaginary part below which a computed root counts as real.
REAL_ROOT_IM_TOL = 1e-9


@dataclass(frozen=True)
class PolyRoots:
    """Root set of the degree-7 roughness polynomial."""

    roots: tuple

    def real_roots(self, im_tol: float = REAL_ROOT_IM_TOL) -> list:
        """Roots whose imaginary part is negligible next to the real part;
        eigenvalue noise makes exact-zero tests meaningless."""
        out = []
        for r in self.roots:
            if abs(r.imag) <= im_tol * max(1.0, abs(r.real)):
                out.append(float(r.real))
        return out


def roughness_polynomial(eta_m: float, z: complex) -> complex:
    """Evaluate 210*eta*z^7 + 210 z^6 - 105 z^5 + 35 z^4 - 7 z^2 + 5."""
    return (((((((210.0 * eta_m) * z + 210.0) * z - 105.0) * z + 35.0) * z
             + 0.0) * z - 7.0) * z + 0.0) * z + 5.0


_COMPANION_TEMPLATE = np.zeros((7, 7), order="F")
_COMPANION_TEMPLATE[1:, :-1] = np.eye(6)
_COMPANION_TEMPLATE.setflags(write=False)


def _set_monic_tail(last, inv) -> None:
    """Write the companion matrices' last column, the negated monic
    coefficients z^0 .. z^6 (division by 210*eta_m), into ``last`` (shape
    (7,) or (7, P)) from inv = 1/eta_m; the zero coefficients stay as they
    are."""
    last[0] = -inv / 42.0
    last[2] = inv / 30.0
    last[4] = -inv / 6.0
    last[5] = 0.5 * inv
    last[6] = -inv


def solve_roughness_polynomial(eta_m: float) -> PolyRoots:
    """All seven roots of the roughness polynomial, as eigenvalues of the
    companion matrix of its monic normalization."""
    eta_m = float(eta_m)
    if not math.isfinite(eta_m) or eta_m == 0.0:
        raise DegenerateLeadingCoefficientError(
            f"leading coefficient 210*eta_m degenerate for eta_m={eta_m!r}")
    comp = _COMPANION_TEMPLATE.copy(order="F")
    _set_monic_tail(comp[:, -1], 1.0 / eta_m)
    wr, wi, _, _, info = _lapack.dgeev(comp, compute_vl=0, compute_vr=0, overwrite_a=1)
    if info != 0:
        raise NoConvergenceError(f"eigenvalue iteration failed (info={info})")
    ordered = sorted((wr + 1j * wi).tolist(), key=lambda r: (r.real, r.imag))
    return PolyRoots(roots=tuple(ordered))


def roughness_companions(eta_m: np.ndarray) -> np.ndarray:
    """Stack (len(eta_m), 7, 7) of the companion matrices that
    solve_roughness_polynomial builds, one per nonzero finite eta_m."""
    inv = 1.0 / np.asarray(eta_m, dtype=float)
    comp = np.repeat(_COMPANION_TEMPLATE[np.newaxis], inv.size, axis=0)
    _set_monic_tail(comp[:, :, -1].T, inv)
    return comp


def inv_reg_incomplete_beta(u: float, a: float, b: float) -> float:
    """Inverse of the regularized incomplete beta function in its first
    argument: returns y with I_y(a, b) = u."""
    a = _check_positive(a, "a")
    b = _check_positive(b, "b")
    u = float(u)
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    return float(_sp.betaincinv(a, b, u))


def reg_incomplete_beta(y: float, a: float, b: float) -> float:
    """Forward regularized incomplete beta I_y(a, b)."""
    a = _check_positive(a, "a")
    b = _check_positive(b, "b")
    y = float(y)
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"y must lie in [0, 1], got {y!r}")
    return float(_sp.betainc(a, b, y))


def f_quantile(u, d1: float, d2: float):
    """Quantile of Snedecor's F law with (d1, d2) degrees of freedom via the
    inverse regularized incomplete beta. Accepts scalars or arrays; u = 1 is
    rejected since it maps to +infinity."""
    d1 = _check_positive(d1, "d1")
    d2 = _check_positive(d2, "d2")
    uu = np.asarray(u, dtype=float)
    if np.any(uu < 0.0) or np.any(uu >= 1.0):
        raise ValueError("u must lie in [0, 1); u = 1 maps to +infinity")
    y = _sp.betaincinv(0.5 * d1, 0.5 * d2, uu)
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
    out = np.where(xx <= 0.0, 0.0, _sp.betainc(0.5 * d1, 0.5 * d2, np.clip(y, 0.0, 1.0)))
    if np.ndim(x) == 0:
        return float(out)
    return out
