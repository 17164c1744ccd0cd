"""Raster I/O (PGM, raw float32, CSV) and sliding-window roughness-map
extraction: each interior pixel gets the estimate computed from its
window's strictly positive neighbors."""

from __future__ import annotations

import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from .estimators import (
    ALPHA_FLOOR,
    EstimatorKind,
    count_failures,
    estimate_from_moments,
    log_moments,
)
from .model import ModelKind, check_looks, is_int, parse_real

# Windows per chunk of the map's moments phase. Each chunk holds copies of
# its windows; a row wider than this is cut into column spans, so the chunk
# size, not the raster size, sets that phase's working memory.
_CHUNK_WINDOWS = 512
# Windows per estimate_from_moments call of the map's estimation phase,
# which bounds its temporaries on large rasters.
_ESTIMATE_WINDOWS = 16 * _CHUNK_WINDOWS
# A PGM header: the magic, then width, height and maxval in ASCII digits, each
# token after whitespace and '#' comments that run to the end of their line. A
# token runs to the next whitespace byte, so '3#c' or '+3' is one bad token.
_PGM_GAP = rb"(?:\s|#[^\n]*(?:\n|\Z))*"
_PGM_HEADER = re.compile(_PGM_GAP + rb"([^\s#]\S*)(?!\S)" + (_PGM_GAP + rb"(\d+)(?!\S)") * 3)


class RasterFormatError(OSError):
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
        object.__setattr__(self, "looks", check_looks(self.looks))
        object.__setattr__(self, "pixels", arr)

    def grid(self) -> np.ndarray:
        return self.pixels.reshape(self.height, self.width)


@dataclass(frozen=True)
class RoughnessMap:
    """Per-pixel estimates (NaN where absent). ``failures`` counts failed
    windows by FailureReason value; ``sparse_windows`` counts windows with
    fewer than 4 usable pixels, which were never estimated. ``elapsed_ns``
    times the whole map, ``moments_ns`` and ``estimate_ns`` its two
    phases. The map's width and height are those of its alpha grid."""

    alpha: np.ndarray
    gamma: np.ndarray
    failures: dict
    sparse_windows: int
    elapsed_ns: int
    window: int
    estimator: EstimatorKind
    model: ModelKind
    looks: float
    moments_ns: int
    estimate_ns: int

    @property
    def width(self) -> int:
        return self.alpha.shape[1]

    @property
    def height(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_failures(self) -> int:
        """Interior pixels without an estimate: failed plus sparse windows."""
        return sum(self.failures.values()) + self.sparse_windows


def _read_pgm(path) -> tuple:
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise RasterFormatError(f"{path}: malformed PGM header")
    magic = header[1].decode("ascii", "replace")
    if magic not in ("P2", "P5"):
        raise RasterFormatError(f"{path}: expected P2 or P5 magic, got {magic!r}")
    try:
        width, height, maxval = map(int, header.groups()[1:])
    except ValueError:  # more digits than int() converts
        raise RasterFormatError(f"{path}: malformed PGM header") from None
    after = header.end()
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise RasterFormatError(f"{path}: invalid PGM dimensions or maxval")
    count = width * height
    if magic == "P2":
        samples = data[after:].split()
        if not all(map(bytes.isdigit, samples)):
            raise RasterFormatError(f"{path}: P2 pixel data must be unsigned "
                                    "decimal integers")
        values = np.array(samples, dtype=float)
    else:
        raw = data[after + 1:]  # single whitespace byte separates header from pixels
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        if len(raw) != count * dtype.itemsize:
            raise RasterFormatError(f"{path}: P5 payload has {len(raw)} bytes, "
                                    f"expected {count * dtype.itemsize}")
        values = np.frombuffer(raw, dtype=dtype).astype(float)
    if values.size != count:
        raise RasterFormatError(f"{path}: {values.size} pixels for {width}x{height} grid")
    if np.any(values > maxval):
        raise RasterFormatError(f"{path}: pixel values outside [0, {maxval}]")
    return width, height, values


def _read_rawf32(path) -> tuple:
    sidecar = str(path) + ".json"
    try:
        with open(sidecar, encoding="utf-8") as fh:
            meta = json.load(fh)
        width, height = meta["width"], meta["height"]
    except (OSError, ValueError, KeyError, TypeError):
        raise RasterFormatError(f"{sidecar}: missing or malformed sidecar "
                                '(expected {"width": W, "height": H})') from None
    # type(), not isinstance(): a JSON true would pass as the int 1.
    if not all(type(v) is int and v > 0 for v in (width, height)):
        raise RasterFormatError(f"{sidecar}: width and height must be positive "
                                f"integers, got {width!r} and {height!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) != 4 * width * height:
        raise RasterFormatError(f"{path}: {len(raw)} bytes do not match "
                                f"{width}x{height} float32 grid")
    return width, height, np.frombuffer(raw, dtype="<f4").astype(float)


def _read_csv_grid(path) -> tuple:
    rows = []
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append([parse_real(tok) for tok in line.split(",")])
                except ValueError:
                    raise RasterFormatError(f"{path}:{line_no}: non-numeric cell") from None
        except UnicodeDecodeError as exc:
            raise RasterFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise RasterFormatError(f"{path}: empty CSV raster")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise RasterFormatError(f"{path}: ragged CSV rows")
    return width, len(rows), np.array(rows, dtype=float).ravel()


# The formats read_raster takes, each with its reader.
RASTER_READERS = {"pgm": _read_pgm, "rawf32": _read_rawf32, "csv": _read_csv_grid}


def read_raster(path, fmt: str, model: ModelKind, looks: float) -> Raster:
    if fmt not in RASTER_READERS:
        raise ValueError(f"unknown raster format {fmt!r}")
    width, height, values = RASTER_READERS[fmt](path)
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise RasterFormatError(f"{path}: pixels must be finite and nonnegative")
    return Raster(width=width, height=height, pixels=values, model=model, looks=looks)


def _window_moments(win: np.ndarray, masked: bool = True) -> tuple:
    """Usable count n and log_moments k1, k2, m4 of each row of ``win``, the
    logs of one window per row with NaN where a pixel is not positive, all
    in one masked pass whatever their n; the moments of a row with n < 4
    are not defined. With masked=False every pixel must be usable: the mask
    is skipped and the bits are the same. ``win`` is only read."""
    if not masked:
        return (np.full(win.shape[0], win.shape[1]), *log_moments(win))
    usable = ~np.isnan(win)
    n = np.count_nonzero(usable, axis=1)
    with np.errstate(invalid="ignore"):  # rows with no usable pixel: 0 / 0
        return (n, *log_moments(win, usable, n))


def _chunks(n_rows: int, n_cols: int) -> list:
    """Window-index bounds (r0, r1, c0, c1) of the kernel's chunks: whole
    rows, or column spans of one row when a row has more than
    _CHUNK_WINDOWS windows."""
    row_step = max(1, _CHUNK_WINDOWS // n_cols)
    col_step = min(n_cols, _CHUNK_WINDOWS)
    return [(r0, min(n_rows, r0 + row_step), c0, min(n_cols, c0 + col_step))
            for r0 in range(0, n_rows, row_step) for c0 in range(0, n_cols, col_step)]


def _map_moments(logs: np.ndarray, window: int, parallelism: int) -> tuple:
    """Window moments n, k1, k2, m4 of every full window of the log grid
    ``logs`` (NaN where a pixel is not positive), as arrays of the windows'
    grid, taken chunk by chunk on W <= ``parallelism`` threads, thread w
    taking chunks w, w + W, w + 2W, ... A chunk whose raster footprint has
    no NaN skips the mask."""
    windows = sliding_window_view(logs, (window, window))
    n = np.empty(windows.shape[:2], dtype=np.int32)
    k1, k2, m4 = np.empty((3, *n.shape))
    chunks = _chunks(*n.shape)
    workers = min(parallelism, len(chunks))
    size = max((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in chunks)

    def run(worker):
        # One buffer per thread for its chunks' window copies: a fresh copy
        # per chunk, next to log_moments' temporary, makes the allocator hand
        # their pages back and fault them in again on every chunk, and those
        # page faults serialize the threads.
        buf = np.empty((size, window * window))
        for r0, r1, c0, c1 in chunks[worker::workers]:
            win = buf[:(r1 - r0) * (c1 - c0)]
            np.copyto(win.reshape(r1 - r0, c1 - c0, window, window), windows[r0:r1, c0:c1])
            masked = np.isnan(logs[r0:r1 + window - 1, c0:c1 + window - 1]).any()
            for out, m in zip((n, k1, k2, m4), _window_moments(win, masked)):
                out[r0:r1, c0:c1] = m.reshape(r1 - r0, c1 - c0)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(workers)))
    return n, k1, k2, m4


def _estimate_windows(n, k1, k2, m4, model, looks, kind, alpha, gamma) -> np.ndarray:
    """estimate_from_moments over the windows with n >= 4, in slices of at
    most _ESTIMATE_WINDOWS, writing their estimates into ``alpha`` and
    ``gamma``, 2-D arrays shaped like the moments. Returns every window's
    outcome code, 0 for a window not estimated."""
    rows, cols = np.nonzero(n >= 4)
    code = np.zeros(n.shape, dtype=np.int8)
    for s in range(0, rows.size, _ESTIMATE_WINDOWS):
        idx = rows[s:s + _ESTIMATE_WINDOWS], cols[s:s + _ESTIMATE_WINDOWS]
        alpha[idx], gamma[idx], code[idx] = estimate_from_moments(
            *(m[idx] for m in (n, k1, k2, m4)), looks, model, kind, ALPHA_FLOOR)
    return code


def roughness_map(r: Raster, window: int, kind: EstimatorKind,
                  parallelism: int = 1) -> RoughnessMap:
    """Per-pixel roughness over every pixel whose full window fits in the
    raster; the border frame stays absent. Zero pixels are dropped from each
    window, and windows with fewer than 4 usable pixels are sparse: never
    estimated, and counted in n_failures but not in failures.

    Logs are taken once over the whole raster. The map is then made in two
    phases. First, up to ``parallelism`` threads take the window moments of
    the kernel's chunks, each writing only its chunk's slice of map-sized
    moment arrays: one masked pass per chunk, or an unmasked one where the
    chunk's footprint has no zero pixel. Second, the calling thread runs
    estimate_from_moments over all windows with at least 4 usable pixels,
    in slices of at most _ESTIMATE_WINDOWS. A window without a zero pixel
    gets estimate_alpha's bits, any other the same status and estimates
    within 1e-12 relative. Every step is elementwise over windows, so the
    output is identical for any parallelism degree."""
    if not is_int(window) or window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    if window > min(r.width, r.height):
        raise ValueError(f"window {window} exceeds raster dimensions "
                         f"{r.width}x{r.height}")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    t0 = time.perf_counter_ns()
    grid = r.grid()
    logs = np.log(grid, out=np.full(grid.shape, np.nan), where=grid > 0.0)
    moments = _map_moments(logs, window, parallelism)
    t1 = time.perf_counter_ns()
    alpha, gamma = np.full((2, r.height, r.width), np.nan)
    interior = np.s_[window // 2:r.height - window // 2, window // 2:r.width - window // 2]
    code = _estimate_windows(*moments, r.model, r.looks, kind,
                             alpha[interior], gamma[interior])
    t2 = time.perf_counter_ns()
    elapsed = time.perf_counter_ns() - t0
    return RoughnessMap(alpha=alpha, gamma=gamma, failures=count_failures(code),
                        sparse_windows=int(np.count_nonzero(moments[0] < 4)),
                        elapsed_ns=elapsed, window=int(window), estimator=kind,
                        model=r.model, looks=r.looks,
                        moments_ns=t1 - t0, estimate_ns=t2 - t1)


def meta_path(path) -> str:
    """The path of the .meta.json sidecar that write_map writes beside a map."""
    return str(path) + ".meta.json"


def write_map(m: RoughnessMap, path) -> str:
    """Write the map, then its meta_path sidecar, and return the format
    written: PGM for a path ending in .pgm in any letter case, else CSV.
    The sidecar's JSON is built first, so a value JSON cannot hold fails
    before either file is opened. CSV export writes zeros where estimation
    failed or no full window fit; PGM rescales [ALPHA_FLOOR, 0] onto the
    8-bit range for visualization."""
    meta = json.dumps({"n_failures": m.n_failures, "failures": m.failures,
                       "sparse_windows": m.sparse_windows, "elapsed_ns": m.elapsed_ns,
                       "window": m.window, "estimator": m.estimator.value,
                       "version": __version__, "model": m.model.value, "looks": m.looks,
                       "alpha_floor": ALPHA_FLOOR, "moments_ns": m.moments_ns,
                       "estimate_ns": m.estimate_ns})
    with open(path, "w") as fh:
        if str(path).lower().endswith(".pgm"):
            fmt, sep, cell = "pgm", " ", str
            scaled = (1.0 - m.alpha / ALPHA_FLOOR) * 255.0
            scaled = np.where(np.isnan(m.alpha), 0.0, np.clip(scaled, 0.0, 255.0))
            rows = np.rint(scaled).astype(int)
            fh.write(f"P2\n{m.width} {m.height}\n255\n")
        else:
            fmt, sep, cell = "csv", ",", repr
            rows = np.where(np.isnan(m.alpha), 0.0, m.alpha)
        for row in rows:
            fh.write(sep.join(map(cell, row.tolist())))
            fh.write("\n")
    with open(meta_path(path), "w") as fh:
        fh.write(meta)
    return fmt
