"""Raster readers, sliding-window roughness mapping, and map export."""

import json
import re
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import g0lcum
from g0lcum import raster
from g0lcum.estimators import (
    FAILURE_CODES,
    EstimatorKind,
    FailureReason,
    estimate_alpha,
    estimate_from_moments,
    log_moments,
)
from g0lcum.model import G0Params, ModelKind, Sample, sample_g0, unit_mean_gamma
from g0lcum.raster import (
    Raster,
    RasterFormatError,
    RoughnessMap,
    read_raster,
    roughness_map,
    write_map,
)

I = ModelKind.INTENSITY
TRAD = EstimatorKind.TRADITIONAL


def synthetic_raster(alpha, looks, width, height, seed) -> Raster:
    p = G0Params(alpha, unit_mean_gamma(alpha), looks)
    s = sample_g0(p, I, width * height, seed=seed)
    return Raster(width=width, height=height, pixels=s.values, model=I, looks=looks)


class TestReadRaster:
    def test_csv_grid(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("1,2\n3,4\n")
        r = read_raster(path, "csv", I, 1.0)
        assert (r.width, r.height) == (2, 2)
        assert r.pixels.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert r.grid().tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_csv_errors(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2\n3\n")
        with pytest.raises(RasterFormatError, match="ragged"):
            read_raster(ragged, "csv", I, 1.0)
        bad = tmp_path / "bad.csv"
        bad.write_text("1,x\n")
        with pytest.raises(RasterFormatError, match="non-numeric"):
            read_raster(bad, "csv", I, 1.0)
        empty = tmp_path / "empty.csv"
        empty.write_text("\n\n")
        with pytest.raises(RasterFormatError, match="empty"):
            read_raster(empty, "csv", I, 1.0)

    def test_plain_pgm(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# comment line\n3 2\n255\n0 10 20\n30 40 255\n")
        r = read_raster(path, "pgm", I, 1.0)
        assert (r.width, r.height) == (3, 2)
        assert r.pixels.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0, 255.0]

    def test_binary_pgm_8bit(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([5, 6, 7, 8]))
        r = read_raster(path, "pgm", I, 1.0)
        assert r.pixels.tolist() == [5.0, 6.0, 7.0, 8.0]

    def test_binary_pgm_16bit_big_endian(self, tmp_path):
        path = tmp_path / "img.pgm"
        payload = np.array([300, 1, 65535, 2], dtype=">u2").tobytes()
        path.write_bytes(b"P5\n2 2\n65535\n" + payload)
        r = read_raster(path, "pgm", I, 1.0)
        assert r.pixels.tolist() == [300.0, 1.0, 65535.0, 2.0]

    def test_pgm_errors(self, tmp_path):
        bad_magic = tmp_path / "a.pgm"
        bad_magic.write_bytes(b"P6\n2 2\n255\n" + bytes(4))
        with pytest.raises(RasterFormatError, match="magic"):
            read_raster(bad_magic, "pgm", I, 1.0)
        short = tmp_path / "b.pgm"
        short.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(RasterFormatError, match="payload"):
            read_raster(short, "pgm", I, 1.0)
        overflow = tmp_path / "c.pgm"
        overflow.write_text("P2\n2 1\n10\n5 11\n")
        with pytest.raises(RasterFormatError, match="outside"):
            read_raster(overflow, "pgm", I, 1.0)
        truncated = tmp_path / "d.pgm"
        truncated.write_text("P2\n2")
        with pytest.raises(RasterFormatError, match="header"):
            read_raster(truncated, "pgm", I, 1.0)

    def test_rawf32_round_trip(self, tmp_path):
        path = tmp_path / "img.raw"
        np.array([1.5, 2.5, 3.5, 4.5, 5.5, 6.5], dtype="<f4").tofile(path)
        (tmp_path / "img.raw.json").write_text('{"width": 3, "height": 2}')
        r = read_raster(path, "rawf32", I, 2.0)
        assert (r.width, r.height) == (3, 2)
        assert r.pixels.tolist() == [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]

    def test_rawf32_errors(self, tmp_path):
        path = tmp_path / "img.raw"
        np.zeros(4, dtype="<f4").tofile(path)
        with pytest.raises(RasterFormatError, match="sidecar"):
            read_raster(path, "rawf32", I, 1.0)
        (tmp_path / "img.raw.json").write_text('{"width": 3, "height": 2}')
        with pytest.raises(RasterFormatError, match="do not match"):
            read_raster(path, "rawf32", I, 1.0)

    @pytest.mark.parametrize("dims", ['{"width": 3.9, "height": 2}',
                                      '{"width": 3, "height": true}',
                                      '{"width": "3", "height": 2}',
                                      '{"width": 0, "height": 2}',
                                      '{"width": -3, "height": -2}'])
    def test_rawf32_sidecar_needs_positive_integers(self, tmp_path, dims):
        # 3.9 once read as 3, true as 1 and "3" as 3; -3 by -2 passed the
        # byte count.
        path = tmp_path / "img.raw"
        np.ones(6, dtype="<f4").tofile(path)
        (tmp_path / "img.raw.json").write_text(dims)
        with pytest.raises(RasterFormatError, match="img.raw.json: width and height"):
            read_raster(path, "rawf32", I, 1.0)

    @pytest.mark.parametrize("body", ["1.5 2 3 4", "1 2 1e2 4", "1 +2 3 4", "1 2 -0 4"])
    def test_plain_pgm_samples_are_decimal_integers(self, tmp_path, body):
        path = tmp_path / "img.pgm"
        path.write_text(f"P2\n2 2\n255\n{body}\n")
        with pytest.raises(RasterFormatError, match="decimal integers"):
            read_raster(path, "pgm", I, 1.0)

    # Each file's outcome as the earlier token-by-token header reader gave
    # it: the pixels it read, or the start of its error message.
    @pytest.mark.parametrize("data, expected", [
        *(pytest.param(header.encode() + (b"\n1 2 3\n" if header[1] == "2" else b"\n\1\2\3"),
                       "malformed PGM header", id=header)
          for header in ["P2 1_0 1 255", "P2 +3 1 255", "P2 3 1 2_55", "P2 3 -1 255",
                         "P5 3 1 +255"]),
        pytest.param(b"# a\nP2\n# b\n3 # c\n# d\n1\n#e\n255\n1 2 3\n", [1, 2, 3],
                     id="comments-before-each-token"),
        pytest.param(b"#a\nP5 #b\n3 #c\n1\n#d\n255\n\1\2\3", [1, 2, 3],
                     id="comments-before-each-token-p5"),
        pytest.param(b"P2# c\n3 1 255\n1 2 3\n", "malformed PGM header",
                     id="comment-glued-to-magic"),
        pytest.param(b"P2 3# c\n1 255\n1 2 3\n", "malformed PGM header",
                     id="comment-glued-to-number"),
        pytest.param(b"P2 3 1 255 #c", "P2 pixel data must be unsigned",
                     id="comment-ending-the-file"),
        pytest.param(b"P2\r\n3 1\r\n255\r\n1 2 3\r\n", [1, 2, 3], id="crlf"),
        pytest.param(b"P5\r\n3 1\r\n255\r\n\1\2\3", "P5 payload has 4 bytes", id="crlf-p5"),
        pytest.param(b"P2\x0b3\x0c1\x0b255\x0c1 2 3", [1, 2, 3], id="vertical-tab-form-feed"),
        pytest.param(b"P5\x0b3\x0c1\x0b255\x0c\1\2\3", [1, 2, 3],
                     id="vertical-tab-form-feed-p5"),
        pytest.param("P2 \uff13 1 255\n1 2 3\n".encode(), "malformed PGM header",
                     id="fullwidth-digit"),
        pytest.param(b"P2 3 1 " + b"0" * 5000 + b"255\n1 2 3\n", "malformed PGM header",
                     id="more-digits-than-int-reads"),
        pytest.param(b"P5 3 1 255", "P5 payload has 0 bytes", id="nothing-after-maxval-p5"),
        pytest.param(b"P2 3 1 255", "0 pixels for 3x1 grid", id="nothing-after-maxval"),
        pytest.param(b"P7 3 1 255\n1 2 3\n", "expected P2 or P5 magic, got 'P7'",
                     id="bad-magic"),
        pytest.param(b"P2 0 1 255\n", "invalid PGM dimensions or maxval", id="zero-width"),
        pytest.param(b"P5 1 1 65536\n\0\1", "invalid PGM dimensions or maxval",
                     id="maxval-above-16-bit"),
    ])
    def test_pgm_header_numbers_are_decimal_digits(self, tmp_path, data, expected):
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        if isinstance(expected, str):
            with pytest.raises(RasterFormatError, match=re.escape(f"{path}: {expected}")):
                read_raster(path, "pgm", I, 1.0)
        else:
            r = read_raster(path, "pgm", I, 1.0)
            assert (r.width, r.height, r.pixels.tolist()) == (3, 1, expected)

    @pytest.mark.parametrize("text", ["1_0,2\n3,4\n", "1,2\n3,4_0\n", "1,2\n_3,4\n"])
    def test_csv_cells_have_no_underscores(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with pytest.raises(RasterFormatError, match="non-numeric cell"):
            read_raster(path, "csv", I, 1.0)

    def test_rejects_nonfinite_and_negative_pixels(self, tmp_path):
        path = tmp_path / "img.raw"
        sidecar = tmp_path / "img.raw.json"
        sidecar.write_text('{"width": 2, "height": 2}')
        np.array([1, -2, 3, 4], dtype="<f4").tofile(path)
        with pytest.raises(RasterFormatError, match="nonnegative"):
            read_raster(path, "rawf32", I, 1.0)
        np.array([1, np.nan, 3, 4], dtype="<f4").tofile(path)
        with pytest.raises(RasterFormatError, match="finite"):
            read_raster(path, "rawf32", I, 1.0)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown raster format 'tiff'"):
            read_raster(tmp_path / "x", "tiff", I, 1.0)

    @pytest.mark.parametrize("width, pixels, message", [
        (2, [1.0], "expected 2 row-major pixels, got 1"),
        (0, [], "raster dimensions must be positive"),
        (2, [1.0, np.nan], "pixels must be finite and nonnegative"),
        (2, [1.0, -2.0], "pixels must be finite and nonnegative")])
    def test_raster_rejects_empty_grid_and_bad_pixels(self, width, pixels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Raster(width=width, height=1, pixels=np.array(pixels), model=I, looks=1.0)

    def test_raster_validation(self):
        for looks in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="looks"):
                Raster(width=1, height=1, pixels=np.ones(1), model=I, looks=looks)


class TestRoughnessMap:
    def test_geometry_single_center_pixel(self):
        # Wide spread keeps the log variance above the L=1 trigamma value,
        # so the lone interior window succeeds.
        vals = np.array([0.01, 0.1, 1.0, 10.0, 100.0, 0.05, 5.0, 50.0, 0.5])
        r = Raster(width=3, height=3, pixels=vals, model=I, looks=1.0)
        m = roughness_map(r, window=3, kind=TRAD)
        assert m.alpha.shape == (3, 3)
        interior = np.isfinite(m.alpha)
        assert interior.sum() == 1 and interior[1, 1]
        assert m.n_failures == 0
        assert -15.0 <= m.alpha[1, 1] < 0.0
        assert m.gamma[1, 1] > 0.0

    def test_full_window_estimate_tracks_truth(self):
        r = synthetic_raster(-5.0, 4.0, 11, 11, seed=303)
        m = roughness_map(r, window=11, kind=EstimatorKind.FAST_POLY_CORRECTED)
        assert np.isfinite(m.alpha).sum() == 1
        assert m.alpha[5, 5] == pytest.approx(-5.0, abs=3.0)

    def test_window_validation(self):
        r = synthetic_raster(-3.0, 2.0, 6, 6, seed=1)
        for window in (4, True, 3.0):
            with pytest.raises(ValueError, match="odd"):
                roughness_map(r, window=window, kind=TRAD)
        with pytest.raises(ValueError, match="exceeds"):
            roughness_map(r, window=7, kind=TRAD)
        with pytest.raises(ValueError, match="parallelism"):
            roughness_map(r, window=3, kind=TRAD, parallelism=0)

    def test_sparse_window_counts_as_failure(self):
        pixels = np.zeros(25)
        pixels[[0, 7, 13]] = 1.0
        r = Raster(width=5, height=5, pixels=pixels, model=I, looks=1.0)
        m = roughness_map(r, window=3, kind=TRAD)
        assert m.n_failures == 9
        assert not np.isfinite(m.alpha).any()

    def test_failure_accounting_matches_absent_entries(self):
        r = synthetic_raster(-1.5, 1.0, 9, 9, seed=77)
        m = roughness_map(r, window=3, kind=TRAD)
        interior_absent = np.isnan(m.alpha[1:-1, 1:-1]).sum()
        assert m.n_failures == interior_absent
        assert np.isnan(m.alpha[0]).all() and np.isnan(m.alpha[-1]).all()
        assert np.isnan(m.gamma).sum() == np.isnan(m.alpha).sum()

    def test_locality(self):
        r = synthetic_raster(-3.0, 4.0, 9, 9, seed=15)
        base = roughness_map(r, window=3, kind=TRAD)
        bumped_pixels = r.pixels.copy()
        bumped_pixels[4 * 9 + 4] *= 7.0
        bumped = roughness_map(
            Raster(width=9, height=9, pixels=bumped_pixels, model=I, looks=4.0),
            window=3, kind=TRAD)
        same = (base.alpha == bumped.alpha) | (np.isnan(base.alpha) & np.isnan(bumped.alpha))
        changed = np.argwhere(~same)
        assert len(changed) <= 9
        assert all(abs(i - 4) <= 1 and abs(j - 4) <= 1 for i, j in changed)

    def test_parallel_determinism(self):
        r = synthetic_raster(-3.0, 2.0, 10, 12, seed=42)
        serial = roughness_map(r, window=3, kind=EstimatorKind.FAST_POLY_CORRECTED)
        for workers in (2, 3):
            par = roughness_map(r, window=3, kind=EstimatorKind.FAST_POLY_CORRECTED,
                                parallelism=workers)
            assert np.array_equal(serial.alpha, par.alpha, equal_nan=True)
            assert np.array_equal(serial.gamma, par.gamma, equal_nan=True)
            assert serial.n_failures == par.n_failures


def kernel_scene(height=30, width=40, seed=11) -> np.ndarray:
    """Heavy-tailed positive grid with a no-data patch holding windows of
    exactly 4 and exactly 3 usable pixels, a saturated constant block whose
    windows have exactly zero spread, and a nearly constant block whose
    windows drive the Bayes correction into its t < -8 branch."""
    rng = np.random.default_rng(seed)
    grid = rng.gamma(2.0, 1.0, (height, width)) / rng.gamma(3.0, 1.0, (height, width))
    grid[4:16, 3:17] = 0.0
    grid[6:8, 5:7] = rng.uniform(0.5, 2.0, (2, 2))  # the window at (6, 6) sees 4
    grid[12, 12:14] = 1.0                           # the window at (13, 13) sees 3
    grid[13, 12] = 3.0
    grid[18:28, 20:33] = 7.25
    grid[18:28, 3:15] = 3.0 * np.exp(1e-4 * rng.standard_normal((10, 12)))
    return grid


def log_grid(grid) -> np.ndarray:
    return np.log(grid, out=np.full(grid.shape, np.nan), where=grid > 0.0)


def estimate_band(moments, model, kind, looks):
    """Per-window alpha, gamma and outcome code that the estimation phase
    gives for these window moments, NaN where it writes no estimate."""
    alpha, gamma = np.full((2, *moments[0].shape), np.nan)
    code = raster._estimate_windows(*moments, model, looks, kind, alpha, gamma)
    return alpha, gamma, code


def kernel_band(grid, model, kind, window, looks):
    """Per-window alpha, gamma and outcome code straight from the kernel's
    two stages, every window through the masked moments."""
    windows = sliding_window_view(log_grid(grid), (window, window))
    moments = raster._window_moments(windows.reshape(-1, window * window))
    return estimate_band([m.reshape(windows.shape[:2]) for m in moments], model, kind, looks)


def chunked_band(grid, model, kind, window, looks):
    """Per-window alpha, gamma and outcome code from the map's own moments
    phase, which skips the mask on chunks whose footprint has no zero."""
    moments = raster._map_moments(log_grid(grid), window, parallelism=1)
    return estimate_band(moments, model, kind, looks)


def sparse_count(grid, window) -> int:
    """Windows of ``grid`` with fewer than 4 positive pixels."""
    usable = sliding_window_view(grid > 0.0, (window, window)).sum(axis=(2, 3))
    return int(np.count_nonzero(usable < 4))


def scattered_zero_scene(height=30, width=40, seed=21) -> np.ndarray:
    """Heavy-tailed grid whose scattered zero pixels thicken from none on
    the left to 95% on the right, so most windows are partial and the usable
    counts of 7x7 windows take nearly every value from under 4 to 49."""
    rng = np.random.default_rng(seed)
    grid = rng.gamma(2.0, 1.0, (height, width)) / rng.gamma(3.0, 1.0, (height, width))
    grid[rng.random((height, width)) < np.linspace(-0.15, 0.95, width)] = 0.0
    return grid


def assert_matches_scalar_estimate(grid, model, kind, window, looks, band=kernel_band):
    """Every window of the kernel against estimate_alpha on the window's
    usable pixels. Returns the usable counts seen and the number of
    windows in the Bayes correction's t < -8 branch."""
    alpha, gamma, code = band(grid, model, kind, window, looks)
    sizes, deep_tail = set(), 0
    for (i, j), c in np.ndenumerate(code):
        win = grid[i:i + window, j:j + window].ravel()
        usable = win[win > 0.0]
        sizes.add(usable.size)
        if usable.size < 4:
            assert c == 0 and np.isnan(alpha[i, j]) and np.isnan(gamma[i, j]), (i, j)
            continue
        res = estimate_alpha(Sample(usable, model), looks, model, kind)
        assert FAILURE_CODES[c] is res.failure, (i, j)
        if res.failure is None:
            assert alpha[i, j] == pytest.approx(res.alpha_hat, rel=1e-12, abs=0.0)
            assert gamma[i, j] == pytest.approx(res.gamma_hat, rel=1e-12, abs=0.0)
        else:
            assert np.isnan(alpha[i, j]) and np.isnan(gamma[i, j]), (i, j)
        if res.eta.sigma:
            deep_tail += res.eta.eta_hat / res.eta.sigma < -8.0
    return sizes, deep_tail


class TestMapKernel:
    """The array kernel against estimate_alpha on each window: same status
    and failure reason on every pixel (no decision-boundary flips occur on
    these scenes), estimates within 1e-12 relative."""

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_matches_scalar_estimate_per_window(self, model, kind):
        sizes, deep_tail = assert_matches_scalar_estimate(kernel_scene(), model, kind,
                                                          window=5, looks=2.0)
        assert {3, 4} <= sizes
        if kind is EstimatorKind.FAST_POLY_CORRECTED:
            assert deep_tail > 0

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_scattered_zeros_match_scalar_estimate(self, model, kind):
        """Mostly partial windows of many usable counts share one masked
        pass; the fully usable ones keep the unmasked log_moments bits."""
        grid, window, looks = scattered_zero_scene(), 7, 2.0
        sizes, _ = assert_matches_scalar_estimate(grid, model, kind, window, looks)
        assert len(sizes) >= 20 and min(sizes) < 4
        alpha, gamma, code = kernel_band(grid, model, kind, window, looks)
        windows = sliding_window_view(log_grid(grid), (window, window))
        windows = windows.reshape(-1, window * window)
        full = ~np.isnan(windows).any(axis=1)
        assert 0 < np.count_nonzero(full) < full.size / 2
        logs = windows[full]
        _, k1, k2, m4 = raster._window_moments(windows)
        for got, want in zip((k1[full], k2[full], m4[full]), log_moments(logs)):
            assert got.tobytes() == want.tobytes()
        a, g, c = estimate_from_moments(window * window, *log_moments(logs), looks, model, kind)
        assert alpha.ravel()[full].tobytes() == a.tobytes()
        assert gamma.ravel()[full].tobytes() == g.tobytes()
        assert code.ravel()[full].tobytes() == c.tobytes()

    def test_map_counts_reasons_and_sparse_windows(self):
        grid = kernel_scene()
        kind = EstimatorKind.FAST_POLY
        _, _, code = kernel_band(grid, I, kind, 5, 2.0)
        r = Raster(width=40, height=30, pixels=grid.ravel(), model=I, looks=2.0)
        m = roughness_map(r, window=5, kind=kind)
        assert m.sparse_windows == sparse_count(grid, 5) > 0
        assert m.failures == {reason.value: int(np.count_nonzero(code == c))
                              for c, reason in enumerate(FAILURE_CODES) if reason}
        assert m.failures["NoRealRootOrMultiple"] > 0
        assert m.n_failures == np.isnan(m.alpha[2:-2, 2:-2]).sum()

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_raster_as_wide_as_window_with_zero_pixel(self, kind):
        # One window per row, so the strided windows fold into a view of the
        # raster without a copy; the zero pixel leaves its windows 24 usable.
        rng = np.random.default_rng(5)
        grid = rng.gamma(2.0, 1.0, (9, 5)) / rng.gamma(3.0, 1.0, (9, 5))
        grid[4, 2] = 0.0
        r = Raster(width=5, height=9, pixels=grid.ravel(), model=I, looks=1.0)
        m = roughness_map(r, window=5, kind=kind)
        for i in range(2, 7):
            win = grid[i - 2:i + 3].ravel()
            res = estimate_alpha(Sample(win[win > 0.0], I), 1.0, I, kind)
            if res.failure is None:
                assert m.alpha[i, 2] == pytest.approx(res.alpha_hat, rel=1e-12, abs=0.0)
            else:
                assert np.isnan(m.alpha[i, 2]) and m.failures[res.failure.value] > 0
        assert m.sparse_windows == 0

    @pytest.mark.parametrize("kind", [EstimatorKind.FAST_POLY_CORRECTED,
                                      EstimatorKind.TRADITIONAL])
    def test_column_spans_match_whole_row_chunks(self, monkeypatch, kind):
        grid, window = kernel_scene(), 5
        half = window // 2
        whole = kernel_band(grid, I, kind, window, 2.0)
        monkeypatch.setattr(raster, "_CHUNK_WINDOWS", 7)  # 36 windows a row
        chunks = len(raster._chunks(*whole[2].shape))
        assert chunks == whole[2].shape[0] * 6
        r = Raster(width=grid.shape[1], height=grid.shape[0], pixels=grid.ravel(),
                   model=I, looks=2.0)
        interval = sys.getswitchinterval()
        for workers in (1, 2, chunks + 1):
            # Above the chunk count, threads are also switched every
            # microsecond while they write their slices of the output.
            if workers > chunks:
                sys.setswitchinterval(1e-6)
            try:
                m = roughness_map(r, window=window, kind=kind, parallelism=workers)
            finally:
                sys.setswitchinterval(interval)
            np.testing.assert_array_equal(m.alpha[half:-half, half:-half], whole[0])
            np.testing.assert_array_equal(m.gamma[half:-half, half:-half], whole[1])
            assert m.sparse_windows == sparse_count(grid, window)
            assert m.failures == {reason.value: int(np.count_nonzero(whole[2] == c))
                                  for c, reason in enumerate(FAILURE_CODES) if reason}

    @pytest.mark.parametrize("kind", [EstimatorKind.FAST_POLY_CORRECTED,
                                      EstimatorKind.TRADITIONAL])
    def test_chunk_and_worker_boundaries_do_not_matter(self, kind):
        # 76 rows of 36 windows: 6 chunks of up to 14 rows, shared out among
        # the threads differently for every parallelism degree, including
        # more workers than chunks.
        grid = kernel_scene(height=80)
        r = Raster(width=40, height=80, pixels=grid.ravel(), model=I, looks=2.0)
        serial = roughness_map(r, window=5, kind=kind)
        chunks = len(raster._chunks(76, 36))
        assert chunks == 6
        for workers in (2, 3, chunks + 1):
            par = roughness_map(r, window=5, kind=kind, parallelism=workers)
            assert np.array_equal(serial.alpha, par.alpha, equal_nan=True)
            assert np.array_equal(serial.gamma, par.gamma, equal_nan=True)
            assert (serial.failures, serial.sparse_windows) == (par.failures,
                                                                par.sparse_windows)

    def test_thread_pool_has_one_worker_per_chunk_at_most(self, monkeypatch):
        requested = []

        class RecordingPool(raster.ThreadPoolExecutor):
            def __init__(self, max_workers):
                requested.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(raster, "ThreadPoolExecutor", RecordingPool)
        grid = kernel_scene(height=80)
        r = Raster(width=40, height=80, pixels=grid.ravel(), model=I, looks=2.0)
        for kind in (EstimatorKind.FMOLC_SIMPLE, EstimatorKind.TRADITIONAL):
            for workers in (1, 2, 6, 7, 64):
                roughness_map(r, window=5, kind=kind, parallelism=workers)
        # Only the moments run on the pool, so every estimator gets its threads.
        assert requested == [1, 2, 6, 6, 6] * 2

    @pytest.mark.parametrize("zero", [None, "inside", "outside"])
    def test_unmasked_chunks_match_masked_kernel(self, monkeypatch, zero):
        """One zero pixel just inside, then just outside, each edge of one
        chunk's raster footprint: the chunks whose footprint has no zero skip
        the mask, and every window still matches the all-masked kernel bit
        for bit and estimate_alpha as the masked kernel does."""
        window, looks = 3, 2.0
        monkeypatch.setattr(raster, "_CHUNK_WINDOWS", 5)  # 14 windows a row: spans of 5
        r0, r1, c0, c1 = 5, 6, 5, 10                      # footprint rows 5-7, columns 5-11
        assert (r0, r1, c0, c1) in raster._chunks(12, 14)
        inner = [(5, 8), (7, 8), (6, 5), (6, 11), (5, 5), (7, 11)]
        outer = [(4, 8), (8, 8), (6, 4), (6, 12), (4, 4), (8, 12)]
        places = {None: [None], "inside": inner, "outside": outer}[zero]
        calls = []
        moments = raster._window_moments

        def recording(win, masked=True):
            calls.append(masked)
            return moments(win, masked)

        monkeypatch.setattr(raster, "_window_moments", recording)
        for place in places:
            grid = np.random.default_rng(31).gamma(2.0, 1.0, (14, 16))
            grid /= np.random.default_rng(32).gamma(3.0, 1.0, (14, 16))
            if place is not None:
                grid[place] = 0.0
            for kind in EstimatorKind:
                calls.clear()
                want = kernel_band(grid, I, kind, window, looks)
                got = chunked_band(grid, I, kind, window, looks)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), (place, kind)
                # After the all-masked kernel's call, one call per chunk in
                # order (one thread), masked where the footprint has the zero.
                chunks = raster._chunks(12, 14)
                assert calls[1:] == [place is not None and b[0] <= place[0] < b[1] + window - 1
                                     and b[2] <= place[1] < b[3] + window - 1 for b in chunks]
                assert calls[1 + chunks.index((r0, r1, c0, c1))] == (zero == "inside")
                assert_matches_scalar_estimate(grid, I, kind, window, looks, band=chunked_band)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_estimation_slices_do_not_matter(self, monkeypatch, kind):
        grid = kernel_scene()
        r = Raster(width=40, height=30, pixels=grid.ravel(), model=I, looks=2.0)
        whole = roughness_map(r, window=5, kind=kind, parallelism=2)
        monkeypatch.setattr(raster, "_ESTIMATE_WINDOWS", 3)
        sliced = roughness_map(r, window=5, kind=kind, parallelism=2)
        assert sliced.alpha.tobytes() == whole.alpha.tobytes()
        assert sliced.gamma.tobytes() == whole.gamma.tobytes()
        assert (sliced.failures, sliced.sparse_windows) == (whole.failures,
                                                            whole.sparse_windows)


def manual_map(alpha_rows, window=3, failures=None, sparse=0, looks=2.0) -> RoughnessMap:
    alpha = np.array(alpha_rows, dtype=float)
    counts = {r.value: 0 for r in FailureReason}
    counts.update(failures or {})
    return RoughnessMap(alpha=alpha, gamma=np.where(np.isnan(alpha), np.nan, 1.0),
                        failures=counts, sparse_windows=sparse, elapsed_ns=3,
                        window=window, estimator=TRAD, model=I, looks=looks,
                        moments_ns=1, estimate_ns=1)


class TestWriteMap:
    def test_size_is_the_alpha_grids(self, tmp_path):
        """A map's width and height are read from its alpha grid, so its PGM
        header always matches the pixels that follow."""
        m = manual_map(np.full((3, 4), -2.0))
        assert (m.width, m.height) == (4, 3)
        write_map(m, tmp_path / "m.pgm")
        back = read_raster(tmp_path / "m.pgm", "pgm", I, 1.0)
        assert (back.width, back.height) == (4, 3)
        assert not {"width", "height", "alpha_floor"} & {f.name for f in fields(RoughnessMap)}

    def test_csv_zeros_for_absent_and_meta_sidecar(self, tmp_path):
        m = manual_map([[np.nan, -2.5], [np.nan, np.nan]],
                       failures={"NegativeEta": 1}, sparse=2)
        path = tmp_path / "map.csv"
        write_map(m, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert [[float(v) for v in row] for row in rows] == [[0.0, -2.5], [0.0, 0.0]]
        meta = json.loads((tmp_path / "map.csv.meta.json").read_text())
        assert meta == {"n_failures": 3, "elapsed_ns": 3, "window": 3,
                        "estimator": "traditional", "sparse_windows": 2,
                        "failures": {"NegativeEta": 1, "NoRealRootOrMultiple": 0,
                                     "RootOutOfRange": 0, "SolverNoConvergence": 0,
                                     "DegenerateK2": 0},
                        "version": g0lcum.__version__, "model": "intensity", "looks": 2.0,
                        "alpha_floor": -15.0, "moments_ns": 1, "estimate_ns": 1}
        assert list(meta)[:6] == ["n_failures", "failures", "sparse_windows",
                                  "elapsed_ns", "window", "estimator"]

    def test_numpy_looks_and_window_give_plain_numbers(self, tmp_path):
        pixels = np.random.default_rng(3).gamma(4.0, 1.0, 25)
        r = Raster(width=5, height=5, pixels=pixels, model=I, looks=np.int64(4))
        write_map(roughness_map(r, window=np.int64(3), kind=TRAD), tmp_path / "m.pgm")
        text = (tmp_path / "m.pgm.meta.json").read_text()
        assert '"window": 3,' in text and '"looks": 4.0,' in text
        meta = json.loads(text)
        assert type(meta["window"]) is int and type(meta["looks"]) is float

    @pytest.mark.parametrize("name", ["m.csv", "m.pgm"])
    def test_unserializable_sidecar_writes_no_file(self, tmp_path, name):
        m = manual_map([[-1.5, -2.0]], looks=np.float32(2.0))
        with pytest.raises(TypeError, match="float32"):
            write_map(m, tmp_path / name)
        assert list(tmp_path.iterdir()) == []

    def test_golden_csv_and_pgm_bytes(self, tmp_path):
        # Bytes written by the per-element formatter this export replaced.
        m = manual_map([[np.nan, -1e-05, -14.999999999, -15.0],
                        [-1e-12, -7.5, -2.5, -3.3333333333333335],
                        [-16.0, -0.1, np.nan, -1.2345678901234567]])
        assert write_map(m, tmp_path / "m.csv") == "csv"
        assert write_map(m, tmp_path / "m.pgm") == "pgm"
        assert (tmp_path / "m.csv").read_bytes() == (
            b"0.0,-1e-05,-14.999999999,-15.0\n"
            b"-1e-12,-7.5,-2.5,-3.3333333333333335\n"
            b"-16.0,-0.1,0.0,-1.2345678901234567\n")
        assert (tmp_path / "m.pgm").read_bytes() == (
            b"P2\n4 3\n255\n0 255 0 0\n255 128 212 198\n0 253 0 234\n")

    def test_csv_export_holds_one_row_of_text(self, tmp_path):
        """A 512x512 CSV export writes the bytes of the whole-map formatter it
        replaced, and traces a peak under 16 B per pixel: the map with zeros
        for NaN, not every pixel as a Python float."""
        alpha = -np.random.default_rng(4).exponential(3.0, (512, 512))
        alpha[::7, ::3] = np.nan
        m = manual_map(alpha)
        tracemalloc.start()
        try:
            write_map(m, tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / alpha.size < 16
        expected = "".join(",".join(map(repr, row)) + "\n"
                           for row in np.where(np.isnan(alpha), 0.0, alpha).tolist())
        assert (tmp_path / "m.csv").read_text() == expected

    def test_all_failed_map_is_all_zero(self, tmp_path):
        pixels = np.zeros(25)
        pixels[12] = 1.0
        r = Raster(width=5, height=5, pixels=pixels, model=I, looks=1.0)
        m = roughness_map(r, window=3, kind=TRAD)
        assert m.n_failures == 9
        path = tmp_path / "failed.csv"
        write_map(m, path)
        values = [float(v) for line in path.read_text().splitlines()
                  for v in line.split(",")]
        assert values == [0.0] * 25

    def test_csv_round_trip_exact_when_no_failures(self, tmp_path):
        alpha = [[-1.5, -2.25], [-14.999999999, -0.001]]
        m = manual_map(alpha)
        path = tmp_path / "exact.csv"
        write_map(m, path)
        back = [[float(v) for v in line.split(",")]
                for line in path.read_text().splitlines()]
        assert np.allclose(back, alpha, rtol=0.0, atol=1e-9)

    def test_pgm_rescale_endpoints(self, tmp_path):
        m = manual_map([[-15.0, -1e-12], [np.nan, -7.5]])
        path = tmp_path / "map.pgm"
        write_map(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3].split() == ["0", "255"]
        assert lines[4].split() == ["0", "128"]
