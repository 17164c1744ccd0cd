"""Raster I/O (PGM, raw float32, CSV) and sliding-window roughness-map
extraction: each interior pixel gets the estimate computed from its
window's strictly positive neighbors."""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .estimators import FAILURE_CODES, EstimatorKind, estimate_from_moments
from .model import ModelKind

# Windows per chunk of the map kernel. Each chunk holds copies of its
# windows and a stack of 7x7 companion matrices; a row wider than this is
# cut into column spans, so the chunk size, not the raster size, sets the
# kernel's working memory.
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
        if self.looks < 1.0:
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
    """Usable count n and log moments k1, k2, m4 of each row of ``win`` (the
    log pixels of one window per row, NaN where a pixel is not positive), by
    the divisor-n, center-then-square formulas of estimate_alpha; k1, k2, m4
    are NaN where n < 4. Rows are grouped by n, and the usable logs of a
    partly usable row are packed to the front of a copy, so each sum adds the
    same values in the same order, and gives the same bits, as estimate_alpha
    on that window. ``win`` is only read, so it may be a strided view."""
    usable = ~np.isnan(win)
    n = np.count_nonzero(usable, axis=1)
    partial = np.flatnonzero((n >= 4) & (n < win.shape[1]))
    # Stable sort keeps the usable logs in window order.
    order = np.argsort(~usable[partial], axis=1, kind="stable")
    packed = np.take_along_axis(win[partial], order, axis=1)
    k1, k2, m4 = (np.full(n.shape, np.nan) for _ in range(3))
    for size in np.unique(n[n >= 4]).tolist():
        if size == win.shape[1]:
            rows = np.flatnonzero(n == size)
            d = win[rows]
        else:
            group = np.flatnonzero(n[partial] == size)
            rows = partial[group]
            d = packed[group, :size]
        k1[rows] = d.sum(axis=1) / size
        d -= k1[rows, np.newaxis]
        d *= d
        k2[rows] = d.sum(axis=1) / size
        d *= d
        m4[rows] = d.sum(axis=1) / size
    return n, k1, k2, m4


def _map_rows(args) -> tuple:
    """Estimates and outcome codes for every full window centered in one band
    of rows. ``logs`` holds the band plus the window's halo rows above and
    below. Chunks are whole rows, or column spans of one row when a row has
    more than _CHUNK_WINDOWS windows."""
    logs, model, looks, window, kind, alpha_floor = args
    n_rows = logs.shape[0] - window + 1
    n_cols = logs.shape[1] - window + 1
    alpha = np.full((n_rows, n_cols), np.nan)
    gamma = np.full((n_rows, n_cols), np.nan)
    code = np.full((n_rows, n_cols), _SPARSE, dtype=np.int8)
    row_step = max(1, _CHUNK_WINDOWS // n_cols)
    col_step = min(n_cols, _CHUNK_WINDOWS)
    for r0 in range(0, n_rows, row_step):
        r1 = min(n_rows, r0 + row_step)
        for c0 in range(0, n_cols, col_step):
            c1 = min(n_cols, c0 + col_step)
            win = sliding_window_view(logs[r0:r1 + window - 1, c0:c1 + window - 1],
                                      (window, window))
            n, k1, k2, m4 = _window_moments(win.reshape(-1, window * window))
            est = n >= 4
            a, g, c = estimate_from_moments(n[est], k1[est], k2[est], m4[est],
                                            looks, model, kind, alpha_floor)
            est = est.reshape(r1 - r0, c1 - c0)
            alpha[r0:r1, c0:c1][est] = a
            gamma[r0:r1, c0:c1][est] = g
            code[r0:r1, c0:c1][est] = c
    return alpha, gamma, code


def roughness_map(r: Raster, window: int, kind: EstimatorKind,
                  parallelism: int = 1, alpha_floor: float = -15.0) -> RoughnessMap:
    """Per-pixel roughness over every pixel whose full window fits in the
    raster; the border frame stays absent. Zero pixels are dropped from each
    window, and windows with fewer than 4 usable pixels count as failures.

    Logs are taken once over the whole raster; each worker gets one band of
    rows plus its halo and works through it in chunks of rows, so every
    estimate depends on its own window only and the output is identical for
    any parallelism degree."""
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
    row_lo, row_hi = half, r.height - half
    n_rows = row_hi - row_lo
    alpha = np.full((r.height, r.width), np.nan)
    gamma = np.full((r.height, r.width), np.nan)
    if parallelism == 1 or n_rows <= 1:
        blocks = [(row_lo, row_hi)]
    else:
        bounds = np.linspace(row_lo, row_hi, min(parallelism, n_rows) + 1).astype(int)
        blocks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    work = [(logs[lo - half:hi + half], r.model, r.looks, window, kind, alpha_floor)
            for lo, hi in blocks]
    if len(work) == 1:
        parts = [_map_rows(work[0])]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            parts = list(pool.map(_map_rows, work))
    counts = np.zeros(len(FAILURE_CODES), dtype=np.int64)
    sparse = 0
    for (lo, hi), (a_blk, g_blk, code) in zip(blocks, parts):
        alpha[lo:hi, half:r.width - half] = a_blk
        gamma[lo:hi, half:r.width - half] = g_blk
        counts += np.bincount(code[code > 0], minlength=len(FAILURE_CODES))
        sparse += int(np.count_nonzero(code == _SPARSE))
    elapsed = time.perf_counter_ns() - t0
    failures = {reason.value: int(counts[c]) for c, reason in enumerate(FAILURE_CODES)
                if reason is not None}
    return RoughnessMap(width=r.width, height=r.height, alpha=alpha, gamma=gamma,
                        failures=failures, sparse_windows=sparse, elapsed_ns=elapsed,
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
