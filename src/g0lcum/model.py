"""Heavy-tailed speckle models for SAR returns: densities, moments,
log-cumulants and the seeded synthetic sampler, for both the intensity
and the amplitude variant (amplitude squared equals intensity)."""

from __future__ import annotations

import csv
import enum
import math
import numbers
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .specfun import psi


class NamedEnum(enum.Enum):
    """An enum read from its value in any letter case."""

    @classmethod
    def parse(cls, text: str):
        try:
            return cls(text.lower())
        except ValueError:
            noun = cls.__name__.removesuffix("Kind").lower()
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown {noun} {text!r}; expected one of {valid}") from None


class ModelKind(NamedEnum):
    INTENSITY = "intensity"
    AMPLITUDE = "amplitude"

    @property
    def c_alpha(self) -> float:
        return 1.0 if self is ModelKind.INTENSITY else 4.0

    @property
    def k1_scale(self) -> float:
        return 1.0 if self is ModelKind.INTENSITY else 2.0


# ASCII decimal text: optional sign, digits, point, exponent, and spaces or tabs
# around. float() alone would also take '_', non-ASCII digits, nan and inf.
_DECIMAL = re.compile(r"[ \t]*[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?[ \t]*", re.ASCII)


def is_real(value) -> bool:
    """A real number that is not a bool; a float skips the slower ABC check."""
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def parse_real(value) -> float:
    """A finite float from a real number that is not a bool, or from a decimal
    string; anything else, even a value beyond the float range, raises ValueError."""
    if is_real(value) or isinstance(value, str) and _DECIMAL.fullmatch(value):
        try:
            if math.isfinite(x := float(value)):
                return x
        except OverflowError:
            pass
    raise ValueError(f"{value!r} is not a finite number")


def check_looks(value) -> float:
    """Looks L as a float from a real number, not a bool, with 1 <= L < inf."""
    try:
        if is_real(value) and 1.0 <= (looks := float(value)) < math.inf:
            return looks
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"looks must be >= 1, got {value!r}")


def check_seed(value) -> int:
    """A generator seed as an int from an integer, not a bool, that is >= 0."""
    if is_int(value) and value >= 0:
        return int(value)
    raise ValueError(f"seed must be a nonnegative integer, got {value!r}")


def parse_count(value) -> int:
    """A count as a report holds it: an int >= 0 that is not a bool, or ASCII digits
    with no sign, space or '_'. Anything else raises ValueError."""
    if (type(value) is int and value >= 0) or (
            isinstance(value, str) and value.isascii() and value.isdigit()):
        return int(value)
    raise ValueError(f"count {value!r} is not a nonnegative whole number")


# The sampler's F law has 2 * looks and -2 * alpha degrees of freedom, which
# must be finite: neither |alpha| nor looks may exceed half the float64 maximum.
_HALF_FLOAT_MAX = sys.float_info.max / 2.0
# Redraw rounds a sample row may take before the sampler gives up on its
# parameters. Heavy tails need many: alpha -0.001 (gamma 1, looks 2, n 1000)
# takes 212, its draws 96% unusable. A scale -gamma/alpha that rounds to 0 or
# inf, or an alpha so near 0 that the F quantile is always inf, never ends.
_REDRAW_ROUNDS = 1000


class MomentUndefinedError(ValueError):
    """The requested moment order violates the roughness constraint."""


@dataclass(frozen=True)
class G0Params:
    alpha: float
    gamma: float
    looks: float

    def __post_init__(self):
        if not -_HALF_FLOAT_MAX <= self.alpha < 0.0:
            raise ValueError(f"alpha must be negative and at least {-_HALF_FLOAT_MAX!r}, "
                             f"got {self.alpha!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        looks = check_looks(self.looks)
        if looks > _HALF_FLOAT_MAX:
            raise ValueError(f"looks must be at most {_HALF_FLOAT_MAX!r}, got {self.looks!r}")
        object.__setattr__(self, "looks", looks)


@dataclass(frozen=True)
class LogCumulants:
    k1: float
    k2: float
    n: int | None = None

    def __post_init__(self):
        if self.n is not None:
            if self.n < 1:
                raise ValueError(f"sample size must be positive, got {self.n!r}")
            if self.k2 < 0.0:
                raise ValueError("sample-derived k2 is a variance of logs and cannot be negative")


@dataclass(frozen=True)
class Sample:
    values: np.ndarray
    model: ModelKind

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sample must be a nonempty 1-D array")
        # A NaN fails both comparisons.
        if not (0.0 < np.minimum.reduce(arr) and np.maximum.reduce(arr) < math.inf):
            raise ValueError("sample values must be finite and strictly positive")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def pdf(params: G0Params, z: float, model: ModelKind) -> float:
    """Density at z, assembled in log space for numerical stability."""
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise ValueError(f"z must be positive, got {z!r}")
    a, g, looks = params.alpha, params.gamma, params.looks
    common = (looks * math.log(looks) + specfun.ln_gamma(looks - a)
              - a * math.log(g) - specfun.ln_gamma(-a) - specfun.ln_gamma(looks))
    if model is ModelKind.INTENSITY:
        logf = common + (looks - 1.0) * math.log(z) + (a - looks) * math.log(g + looks * z)
    else:
        logf = (math.log(2.0) + common + (2.0 * looks - 1.0) * math.log(z)
                + (a - looks) * math.log(g + looks * z * z))
    return math.exp(logf)


def moment(params: G0Params, r: float, model: ModelKind) -> float:
    """r-th non-central moment; defined only while the tail is light enough."""
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"moment order must be positive, got {r!r}")
    a, g, looks = params.alpha, params.gamma, params.looks
    # Amplitude moments are intensity moments of half the order.
    h = r / model.k1_scale
    if not a < -h:
        raise MomentUndefinedError(f"moment of order {r} needs alpha < {-h}, got {a}")
    logm = (h * math.log(g / looks) + specfun.ln_gamma(-a - h) + specfun.ln_gamma(looks + h)
            - specfun.ln_gamma(-a) - specfun.ln_gamma(looks))
    return math.exp(logm)


def theoretical_log_cumulants(params: G0Params, model: ModelKind) -> LogCumulants:
    a, g, looks = params.alpha, params.gamma, params.looks
    k1 = float(math.log(g / looks) + psi(looks) - psi(-a))
    k2 = specfun.trigamma(looks) + specfun.trigamma(-a)
    return LogCumulants(k1=k1 / model.k1_scale, k2=k2 / model.c_alpha)


def unit_mean_gamma(alpha: float) -> float:
    """Scale that makes the intensity mean exactly one."""
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha < -1.0):
        raise ValueError(f"unit-mean scale needs alpha < -1, got {alpha!r}")
    return -alpha - 1.0


def sample_g0_stack(params: G0Params, model: ModelKind, n: int, seeds) -> np.ndarray:
    """sample_g0 for a sequence of seeds at once: row t of the (len(seeds), n)
    result is sample_g0(params, model, n, seeds[t]).values. One F quantile
    runs over the whole stack, and one check finds the rows that need a
    redraw; each of those redraws from its own generator, for at most
    _REDRAW_ROUNDS rounds."""
    n = int(n)
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n!r}")
    u = np.empty((len(seeds), n))
    rngs = []
    for row, seed in zip(u, seeds):
        rng = np.random.Generator(np.random.Philox(seed))
        rng.random(out=row)
        rngs.append(rng)
    d1, d2, scale = 2.0 * params.looks, -2.0 * params.alpha, -params.gamma / params.alpha

    def draw(u: np.ndarray) -> np.ndarray:
        # An overflow gives inf, which is redrawn.
        with np.errstate(over="ignore"):
            za = np.sqrt(scale * specfun.f_quantile(u, d1, d2))
            return za * za if model is ModelKind.INTENSITY else za

    def bad(z: np.ndarray) -> np.ndarray:
        # z = 0, from a zero uniform, is redrawn too.
        return ~np.isfinite(z) | (z <= 0.0)

    z = draw(u)
    for t in np.flatnonzero(bad(z).any(axis=1)):
        row, rng, redo = z[t], rngs[t], bad(z[t])
        for _ in range(_REDRAW_ROUNDS):
            row[redo] = draw(rng.random(int(redo.sum())))
            if not (redo := bad(row)).any():
                break
        else:
            raise ValueError(f"alpha {params.alpha!r}, gamma {params.gamma!r} and looks "
                             f"{params.looks!r} give no usable draw in {_REDRAW_ROUNDS} "
                             "redraw rounds")
    return z


def sample_g0(params: G0Params, model: ModelKind, n: int, seed: int) -> Sample:
    """n independent draws by inverse transform through the F quantile.

    The generator is counter-based so trials can be split reproducibly;
    identical (params, model, n, seed) always yields the identical sample.
    A zero uniform maps to z = 0; that and any other non-finite or
    nonpositive draw is redrawn, so the uniforms in effect lie in (0, 1)."""
    return Sample(values=sample_g0_stack(params, model, n, [check_seed(seed)])[0],
                  model=model)


def write_sample_csv(s: Sample, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z"])
        for v in s.values:
            writer.writerow([repr(float(v))])


def read_sample_csv(path, model: ModelKind) -> Sample:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["z"]:
                raise ValueError(f"{path}: expected single-column CSV with header 'z'")
            values = []
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 1:
                    raise ValueError(f"{path}: expected one value per row, got {row!r}")
                try:
                    values.append(parse_real(row[0]))
                except ValueError:
                    raise ValueError(f"{path}:{reader.line_num}: non-numeric value "
                                     f"{row[0]!r}") from None
                if not values[-1] > 0.0:
                    raise ValueError(f"{path}:{reader.line_num}: sample value {row[0]!r} "
                                     "is not positive")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not values:
        raise ValueError(f"{path}: no sample values")
    return Sample(values=np.array(values, dtype=float), model=model)
