"""Raster I/O (PGM, raw float32, CSV) and sliding-window roughness-map
extraction: each interior pixel gets the estimate computed from its
window's strictly positive neighbors."""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .estimators import EstimatorKind, count_failures, estimate_from_moments, log_moments
from .model import ModelKind

# Windows per chunk of the map kernel. Each chunk holds copies of its
# windows; a row wider than this is cut into column spans, so the chunk
# size, not the raster size, sets the kernel's working memory.
_CHUNK_WINDOWS = 512
# Outcome code of a window with fewer than 4 usable pixels.
_SPARSE = -1


class RasterFormatError(Exception):
    """Malformed raster file: header, dimensions, or pixel values."""


@dataclass(frozen=True)
class Raster:
    width: int
    height: int
    pixels: np.ndarray
    model: ModelKind
    looks: float

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("raster dimensions must be positive")
        arr = np.asarray(self.pixels, dtype=float)
        if arr.ndim != 1 or arr.size != self.width * self.height:
            raise ValueError(f"expected {self.width * self.height} row-major pixels, "
                             f"got {arr.size}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("pixels must be finite and nonnegative")
        if not (math.isfinite(self.looks) and self.looks >= 1.0):
            raise ValueError("looks must be >= 1")
        object.__setattr__(self, "pixels", arr)

    def grid(self) -> np.ndarray:
        return self.pixels.reshape(self.height, self.width)


@dataclass(frozen=True)
class RoughnessMap:
    """Per-pixel estimates (NaN where absent). ``failures`` counts failed
    windows by FailureReason value; ``sparse_windows`` counts windows with
    fewer than 4 usable pixels, which were never estimated."""

    width: int
    height: int
    alpha: np.ndarray
    gamma: np.ndarray
    failures: dict
    sparse_windows: int
    elapsed_ns: int
    window: int
    estimator: EstimatorKind
    alpha_floor: float

    @property
    def n_failures(self) -> int:
        """Interior pixels without an estimate: failed plus sparse windows."""
        return sum(self.failures.values()) + self.sparse_windows


def _pgm_tokens(data: bytes):
    """Header tokens of a PGM file, skipping '#' comments."""
    pos = 0
    while True:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            return
        yield data[start:pos].decode("ascii"), pos


def _read_pgm(path) -> tuple:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        w, _ = next(tokens)
        h, _ = next(tokens)
        maxval, after = next(tokens)
        width, height, maxval = int(w), int(h), int(maxval)
    except (StopIteration, ValueError, UnicodeDecodeError):
        raise RasterFormatError(f"{path}: malformed PGM header") from None
    if magic not in ("P2", "P5"):
        raise RasterFormatError(f"{path}: expected P2 or P5 magic, got {magic!r}")
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise RasterFormatError(f"{path}: invalid PGM dimensions or maxval")
    count = width * height
    if magic == "P2":
        try:
            values = np.array(data[after:].split(), dtype=float)
        except ValueError:
            raise RasterFormatError(f"{path}: non-numeric P2 pixel data") from None
    else:
        raw = data[after + 1:]  # single whitespace byte separates header from pixels
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        if len(raw) != count * dtype.itemsize:
            raise RasterFormatError(f"{path}: P5 payload has {len(raw)} bytes, "
                                    f"expected {count * dtype.itemsize}")
        values = np.frombuffer(raw, dtype=dtype).astype(float)
    if values.size != count:
        raise RasterFormatError(f"{path}: {values.size} pixels for {width}x{height} grid")
    if np.any(values < 0) or np.any(values > maxval):
        raise RasterFormatError(f"{path}: pixel values outside [0, {maxval}]")
    return width, height, values


def _read_rawf32(path) -> tuple:
    sidecar = str(path) + ".json"
    try:
        with open(sidecar) as fh:
            meta = json.load(fh)
        width, height = int(meta["width"]), int(meta["height"])
    except (OSError, ValueError, KeyError, TypeError):
        raise RasterFormatError(f"{sidecar}: missing or malformed sidecar "
                                '(expected {"width": W, "height": H})') from None
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) != 4 * width * height:
        raise RasterFormatError(f"{path}: {len(raw)} bytes do not match "
                                f"{width}x{height} float32 grid")
    return width, height, np.frombuffer(raw, dtype="<f4").astype(float)


def _read_csv_grid(path) -> tuple:
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise RasterFormatError(f"{path}:{line_no}: non-numeric cell") from None
    if not rows:
        raise RasterFormatError(f"{path}: empty CSV raster")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise RasterFormatError(f"{path}: ragged CSV rows")
    return width, len(rows), np.array(rows, dtype=float).ravel()


def read_raster(path, fmt: str, model: ModelKind, looks: float) -> Raster:
    if fmt == "pgm":
        width, height, values = _read_pgm(path)
    elif fmt == "rawf32":
        width, height, values = _read_rawf32(path)
    elif fmt == "csv":
        width, height, values = _read_csv_grid(path)
    else:
        raise ValueError(f"unknown raster format {fmt!r}")
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise RasterFormatError(f"{path}: pixels must be finite and nonnegative")
    return Raster(width=width, height=height, pixels=values, model=model, looks=looks)


def _window_moments(win: np.ndarray) -> tuple:
    """Usable count n and log_moments k1, k2, m4 (NaN where n < 4) of each
    row of ``win``, the logs of one window per row with NaN where a pixel is
    not positive, all in one masked pass whatever their n. ``win`` is only
    read, so it may be a strided view."""
    usable = ~np.isnan(win)
    n = np.count_nonzero(usable, axis=1)
    with np.errstate(invalid="ignore"):  # rows with no usable pixel: 0 / 0
        moments = log_moments(win, usable)
    return (n, *(np.where(n < 4, np.nan, m) for m in moments))


def _chunks(n_rows: int, n_cols: int) -> list:
    """Window-index bounds (r0, r1, c0, c1) of the kernel's chunks: whole
    rows, or column spans of one row when a row has more than
    _CHUNK_WINDOWS windows."""
    row_step = max(1, _CHUNK_WINDOWS // n_cols)
    col_step = min(n_cols, _CHUNK_WINDOWS)
    return [(r0, min(n_rows, r0 + row_step), c0, min(n_cols, c0 + col_step))
            for r0 in range(0, n_rows, row_step) for c0 in range(0, n_cols, col_step)]


def _map_chunk(win, model, looks, kind, alpha_floor) -> tuple:
    """Estimates and outcome codes for every window of ``win``, one chunk's
    grid of windows sliced from a sliding_window_view of the log pixels, as
    arrays of that grid."""
    shape = win.shape[:2]
    n, k1, k2, m4 = _window_moments(win.reshape(shape[0] * shape[1], -1))
    est = n >= 4
    alpha, gamma = np.full((2, n.size), np.nan)
    code = np.full(n.shape, _SPARSE, dtype=np.int8)
    alpha[est], gamma[est], code[est] = estimate_from_moments(
        n[est], k1[est], k2[est], m4[est], looks, model, kind, alpha_floor)
    return alpha.reshape(shape), gamma.reshape(shape), code.reshape(shape)


def roughness_map(r: Raster, window: int, kind: EstimatorKind,
                  parallelism: int = 1, alpha_floor: float = -15.0) -> RoughnessMap:
    """Per-pixel roughness over every pixel whose full window fits in the
    raster; the border frame stays absent. Zero pixels are dropped from each
    window, and windows with fewer than 4 usable pixels count as failures.

    Logs are taken once over the whole raster, and its windows cut into
    chunks that up to ``parallelism`` threads work through (one for the
    traditional estimator), each writing only its chunk's slice of the
    output. One masked pass gives a chunk's window moments: estimate_alpha's
    bits where a window has no zero pixel, else the same status and
    estimates within 1e-12 relative. Each estimate depends on its own window
    only, so the output is identical for any parallelism degree."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    if window > min(r.width, r.height):
        raise ValueError(f"window {window} exceeds raster dimensions "
                         f"{r.width}x{r.height}")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    t0 = time.perf_counter_ns()
    half = window // 2
    grid = r.grid()
    logs = np.log(grid, out=np.full(grid.shape, np.nan), where=grid > 0.0)
    windows = sliding_window_view(logs, (window, window))
    alpha, gamma = np.full((2, r.height, r.width), np.nan)
    code = np.empty(windows.shape[:2], dtype=np.int8)

    def run(bounds):
        r0, r1, c0, c1 = bounds
        a, g, c = _map_chunk(windows[r0:r1, c0:c1], r.model, r.looks, kind, alpha_floor)
        alpha[r0 + half:r1 + half, c0 + half:c1 + half] = a
        gamma[r0 + half:r1 + half, c0 + half:c1 + half] = g
        code[r0:r1, c0:c1] = c

    chunks = _chunks(*code.shape)
    # traditional's per-window brentq holds the interpreter lock: more threads only contend.
    workers = 1 if kind is EstimatorKind.TRADITIONAL else min(parallelism, len(chunks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, chunks))
    elapsed = time.perf_counter_ns() - t0
    return RoughnessMap(width=r.width, height=r.height, alpha=alpha, gamma=gamma,
                        failures=count_failures(code),
                        sparse_windows=int(np.count_nonzero(code == _SPARSE)),
                        elapsed_ns=elapsed,
                        window=window, estimator=kind, alpha_floor=alpha_floor)


def write_map(m: RoughnessMap, path, fmt: str) -> None:
    """CSV export writes zeros where estimation failed or no full window
    fit, plus a .meta.json sibling; PGM rescales [alpha_floor, 0] onto the
    8-bit range for visualization."""
    if fmt == "csv":
        filled = np.where(np.isnan(m.alpha), 0.0, m.alpha)
        with open(path, "w") as fh:
            for row in filled.tolist():
                fh.write(",".join(map(repr, row)))
                fh.write("\n")
        meta = {"n_failures": m.n_failures, "failures": m.failures,
                "sparse_windows": m.sparse_windows, "elapsed_ns": m.elapsed_ns,
                "window": m.window, "estimator": m.estimator.value}
        with open(str(path) + ".meta.json", "w") as fh:
            json.dump(meta, fh)
    elif fmt == "pgm":
        scaled = (1.0 - m.alpha / m.alpha_floor) * 255.0
        scaled = np.where(np.isnan(m.alpha), 0.0, np.clip(scaled, 0.0, 255.0))
        ints = np.rint(scaled).astype(int)
        lines = [f"P2\n{m.width} {m.height}\n255"]
        for row in ints.tolist():
            lines.append(" ".join(map(str, row)))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown map format {fmt!r}")
