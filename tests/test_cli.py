"""Command-line binding: flag surfaces, JSON/CSV outputs, exit codes."""

import json
import os
import re
import shutil
import signal
import subprocess

import numpy as np
import pytest

import g0lcum
from g0lcum import cli, harness, model, raster
from g0lcum.cli import main
from g0lcum.estimators import EstimatorKind, estimate_alpha
from g0lcum.model import ModelKind, read_sample_csv


# The rest of a one-pixel-window map command line, writing to {tmp}/out.
MAP_FLAGS = ("--window 1 --looks 1 --model intensity --estimator poly --out {tmp}/out "
             "--threads 1")


def run_cli(*argv):
    return main(list(argv))


_RUN_SAMPLE_CELL = harness._run_sample_cell


def _exit_in_second_cell(cfg, index):
    """A campaign cell runner whose worker dies on cell 1."""
    if index == 1:
        os._exit(3)
    return _RUN_SAMPLE_CELL(cfg, index)


def write_sample(tmp_path, name="s.csv", alpha=-3.0, looks=2.0, n=400, seed=7):
    path = tmp_path / name
    code = run_cli("sample", "--alpha", str(alpha), "--looks", str(looks),
                   "--model", "intensity", "--n", str(n), "--seed", str(seed),
                   "--out", str(path))
    assert code == 0
    return path


class TestSample:
    def test_seeded_determinism(self, tmp_path):
        a = write_sample(tmp_path, "a.csv")
        b = write_sample(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_count(self, tmp_path):
        lines = write_sample(tmp_path, n=5).read_text().splitlines()
        assert lines[0] == "z"
        assert len(lines) == 6
        assert all(float(v) > 0.0 for v in lines[1:])

    def test_explicit_gamma_changes_output(self, tmp_path):
        default = write_sample(tmp_path, "d.csv", n=5)
        scaled = tmp_path / "g.csv"
        assert run_cli("sample", "--alpha", "-3", "--looks", "2",
                       "--model", "intensity", "--n", "5", "--seed", "7",
                       "--gamma", "8.0", "--out", str(scaled)) == 0
        ratio = [float(a) / float(b) for a, b
                 in zip(scaled.read_text().splitlines()[1:],
                        default.read_text().splitlines()[1:])]
        assert ratio == pytest.approx([4.0] * 5, rel=1e-12)

    @pytest.mark.parametrize("written, plain", [("-2e0", "-2"), ("-1.5E+1", "-15")])
    def test_negative_alpha_with_an_exponent(self, tmp_path, written, plain):
        """A negative value in exponent notation is the flag's value, not an option."""
        paths = []
        for alpha in (written, plain):
            paths.append(tmp_path / f"{alpha}.csv")
            assert run_cli("sample", "--alpha", alpha, "--looks", "2", "--model", "intensity",
                           "--n", "5", "--seed", "7", "--out", str(paths[-1])) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEstimate:
    def test_single_json_line_on_stdout(self, tmp_path, capsys):
        path = write_sample(tmp_path)
        capsys.readouterr()
        assert run_cli("estimate", "--in", str(path), "--looks", "2",
                       "--model", "intensity", "--estimator", "traditional") == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        payload = json.loads(out)
        assert list(payload) == ["alpha_hat", "gamma_hat", "status", "failure", "elapsed_ns",
                                 "k1", "k2", "eta_hat", "eta_m", "sigma"]
        assert payload["status"] == "Ok"
        assert payload["failure"] is None
        assert payload["eta_m"] is None
        assert payload["sigma"] is None
        assert -15.0 <= payload["alpha_hat"] < 0.0
        assert payload["gamma_hat"] > 0.0
        assert payload["elapsed_ns"] > 0

    def test_corrected_reports_eta_m_and_sigma(self, tmp_path, capsys):
        path = write_sample(tmp_path)
        capsys.readouterr()
        assert run_cli("estimate", "--in", str(path), "--looks", "2",
                       "--model", "intensity", "--estimator", "poly-corrected") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eta_m"] > 0.0
        kind = ModelKind.INTENSITY
        res = estimate_alpha(read_sample_csv(path, kind), 2.0, kind,
                             EstimatorKind.FAST_POLY_CORRECTED)
        assert payload["sigma"] == res.eta.sigma > 0.0

    def test_constant_sample_fails_in_payload_not_exit_code(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("z\n" + "2.0\n" * 9)
        capsys.readouterr()
        assert run_cli("estimate", "--in", str(path), "--looks", "1",
                       "--model", "intensity", "--estimator", "traditional") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Failed"
        assert payload["failure"] == "NegativeEta"
        assert payload["alpha_hat"] is None
        assert payload["gamma_hat"] is None


class TestMc:
    def test_default_config_yields_360_rows(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trials": 1}')
        out = tmp_path / "report.csv"
        assert run_cli("mc", "--config", str(cfg), "--out", str(out),
                       "--format", "csv", "--threads", "1") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 361
        assert lines[0].split(",")[:5] == ["model", "estimator", "alpha", "L", "n"]

    def test_json_report_round_trips(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "alphas": [-3.0], "looks": [1.0],
                                   "sizes": [25], "models": ["intensity"],
                                   "estimators": ["poly"]}))
        out = tmp_path / "report.json"
        assert run_cli("mc", "--config", str(cfg), "--out", str(out),
                       "--format", "json", "--threads", "1") == 0
        report = harness.read_report(out, "json")
        assert len(report.cells) == 1
        assert report.cells[0].trials == 2

    @pytest.mark.parametrize("trials, error", [
        (10 ** 30, "trials 1000000000000000000000000000000 at sample size 9 is more "
                   "float64 values than one array can hold"),
        (2 ** 62, "trials 4611686018427387904 at sample size 9 is more float64 values"),
        (10 ** 12, "out of memory: Unable to allocate")])
    def test_impossible_trial_count_fails_at_once(self, tmp_path, capsys, trials, error):
        """A trial count no array can hold is rejected with the config, and a
        cell's stack is allocated before any seed is derived, so a count no
        memory can hold fails in one line instead of running on."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": trials, "alphas": [-3.0], "looks": [1.0],
                                   "sizes": [9], "models": ["intensity"],
                                   "estimators": ["poly"]}))
        out = tmp_path / "report.json"

        def hung(signum, frame):
            pytest.fail(f"mc with {trials} trials still running after 20 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            code = run_cli("mc", "--config", str(cfg), "--out", str(out),
                           "--format", "json", "--threads", "1")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"g0lcum: error: {error}") and err.count("\n") == 1
        assert not out.exists()


    def test_dead_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        """A pool worker that dies is an error of the run, not of its I/O.
        The workers fork, so they run the patched cell runner."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "alphas": [-3.0, -5.0], "looks": [1.0],
                                   "sizes": [9], "models": ["intensity"],
                                   "estimators": ["poly"]}))
        out = tmp_path / "report.json"
        monkeypatch.setattr(harness, "_run_sample_cell", _exit_in_second_cell)
        capsys.readouterr()
        assert run_cli("mc", "--config", str(cfg), "--out", str(out),
                       "--format", "json", "--threads", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("g0lcum: error: A process in the process pool was terminated")
        assert err.count("\n") == 1
        assert not out.exists()


class TestMap:
    def test_csv_map_with_meta(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(",".join(f"{v:.17g}" for v in row)
                                  for row in rng.gamma(2.0, 1.0, (8, 8))) + "\n")
        out = tmp_path / "map.csv"
        capsys.readouterr()
        assert run_cli("map", "--in", str(grid), "--format", "csv",
                       "--window", "3", "--looks", "1", "--model", "intensity",
                       "--estimator", "poly-corrected", "--out", str(out),
                       "--threads", "1") == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "failures" in captured.err
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == 8 and all(len(r) == 8 for r in rows)
        meta = json.loads((tmp_path / "map.csv.meta.json").read_text())
        assert meta["window"] == 3
        assert meta["estimator"] == "poly-corrected"

    @pytest.mark.parametrize("estimator", ["traditional", "poly"])
    def test_meta_records_how_the_map_was_made(self, tmp_path, estimator):
        rng = np.random.default_rng(6)
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(",".join(f"{v:.17g}" for v in row)
                                  for row in rng.gamma(2.0, 1.0, (9, 12))) + "\n")
        out = tmp_path / "map.csv"
        assert run_cli("map", "--in", str(grid), "--format", "csv", "--window", "5",
                       "--looks", "3", "--model", "amplitude", "--estimator", estimator,
                       "--out", str(out), "--threads", "2") == 0
        meta = json.loads((tmp_path / "map.csv.meta.json").read_text())
        assert list(meta) == ["n_failures", "failures", "sparse_windows", "elapsed_ns",
                              "window", "estimator", "version", "model", "looks",
                              "alpha_floor", "moments_ns", "estimate_ns"]
        assert (meta["version"], meta["model"], meta["looks"], meta["alpha_floor"]) == (
            g0lcum.__version__, "amplitude", 3.0, -15.0)
        stages = meta["moments_ns"], meta["estimate_ns"]
        assert all(type(t) is int and t >= 0 for t in stages)
        assert sum(stages) <= meta["elapsed_ns"]

    @pytest.mark.parametrize("name, fmt", [("map.pgm", "pgm"), ("map.PGM", "pgm"),
                                           ("map.Pgm", "pgm"), ("map.txt", "csv")])
    def test_pgm_output_by_extension(self, tmp_path, capsys, name, fmt):
        """A .pgm suffix in any letter case writes PGM, any other CSV; either
        gets the sidecar a CSV map gets."""
        rng = np.random.default_rng(4)
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(",".join(f"{v:.17g}" for v in row)
                                  for row in rng.gamma(2.0, 1.0, (6, 6))) + "\n")
        ref, out = tmp_path / "map.csv", tmp_path / name
        for path in (ref, out):
            assert run_cli("map", "--in", str(grid), "--format", "csv",
                           "--window", "3", "--looks", "1", "--model", "intensity",
                           "--estimator", "traditional", "--out", str(path),
                           "--threads", "1") == 0
        assert capsys.readouterr().err.splitlines()[1].startswith(f"wrote {fmt} map 6x6, ")
        if fmt == "pgm":
            assert out.read_text().startswith("P2\n6 6\n255\n")
        else:
            assert out.read_bytes() == ref.read_bytes()
        ref_meta, meta = (json.loads((tmp_path / f"{p.name}.meta.json").read_text())
                          for p in (ref, out))
        assert list(meta) == list(ref_meta)
        for key in ("elapsed_ns", "moments_ns", "estimate_ns"):
            del meta[key], ref_meta[key]
        assert meta == ref_meta


class TestSpecfunCheck:
    def test_passes_and_prints_errors(self, capsys):
        assert run_cli("specfun-check") == 0
        out = capsys.readouterr().out
        assert "trigamma" in out and "digamma" in out and "round trip" in out


class TestExitCodes:
    def test_exception_families(self):
        """Exit codes follow the builtin families: ValueError 1, OSError 2."""
        assert issubclass(model.MomentUndefinedError, ValueError)
        assert issubclass(raster.RasterFormatError, OSError)

    def test_missing_input_file_is_io_error(self, tmp_path):
        assert run_cli("estimate", "--in", str(tmp_path / "nope.csv"),
                       "--looks", "1", "--model", "intensity",
                       "--estimator", "traditional") == 2

    def test_malformed_config_json_is_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                       "--format", "csv") == 2
        assert capsys.readouterr().err.startswith(f"g0lcum: i/o error: {cfg}: invalid JSON (")

    def test_unknown_config_field_is_domain_error(self, tmp_path):
        cfg = tmp_path / "extra.json"
        cfg.write_text('{"trials": 1, "bogus": true}')
        assert run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                       "--format", "csv") == 1

    @pytest.mark.parametrize("config", [
        '{"trials": "5"}', '{"trials": 1.5}', '{"alphas": 5}', '{"seed": "abc"}',
        '{"models": "intensity"}'])
    def test_mistyped_config_field_is_domain_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "typed.json"
        cfg.write_text(config)
        assert run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                       "--format", "csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("g0lcum: error: ") and "Traceback" not in err
        assert "'i'" not in err

    @pytest.mark.parametrize("field, values", [
        ("alphas", [-3.0, -3.0]), ("sizes", [9, 9]), ("models", ["intensity", "intensity"]),
        ("estimators", ["poly", "fmolc", "poly"])])
    def test_repeated_sweep_value_is_domain_error(self, tmp_path, capsys, field, values):
        cfg = tmp_path / "repeated.json"
        cfg.write_text(json.dumps({"trials": 2, field: values}))
        assert run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                       "--format", "csv", "--threads", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("g0lcum: error: ") and f"{field} has a repeated value" in err

    @pytest.mark.parametrize("looks", ["nan", "inf"])
    def test_nonfinite_looks_is_domain_error(self, tmp_path, capsys, looks):
        sample = write_sample(tmp_path)
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in
                                  np.random.default_rng(5).gamma(2.0, 1.0, (5, 5))) + "\n")
        capsys.readouterr()
        assert run_cli("estimate", "--in", str(sample), "--looks", looks,
                       "--model", "intensity", "--estimator", "poly") == 1
        assert "looks must be >= 1" in capsys.readouterr().err
        assert run_cli("map", "--in", str(grid), "--format", "csv", "--window", "3",
                       "--looks", looks, "--model", "intensity", "--estimator", "poly",
                       "--out", str(tmp_path / "m.csv"), "--threads", "1") == 1
        assert "looks must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ['{"width": 3.9, "height": 2}',
                                      '{"width": true, "height": 2}',
                                      '{"width": -3, "height": -2}'])
    def test_malformed_rawf32_sidecar_is_io_error(self, tmp_path, capsys, dims):
        raw = tmp_path / "img.raw"
        np.ones(6, dtype="<f4").tofile(raw)
        (tmp_path / "img.raw.json").write_text(dims)
        capsys.readouterr()
        assert run_cli("map", "--in", str(raw), "--format", "rawf32", "--window", "1",
                       "--looks", "1", "--model", "intensity", "--estimator", "poly",
                       "--out", str(tmp_path / "m.csv"), "--threads", "1") == 2
        err = capsys.readouterr().err
        assert "img.raw.json: width and height must be positive integers" in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("name, content", [("img.pgm", b"P2\n1_0 1\n255\n" + b"1 " * 10),
                                               ("grid.csv", b"1_0,2\n3,4\n")])
    def test_underscored_raster_number_is_io_error(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        assert run_cli("map", "--in", str(path), "--format", name.split(".")[1],
                       "--window", "1", "--looks", "1", "--model", "intensity",
                       "--estimator", "poly", "--out", str(tmp_path / "m.csv"),
                       "--threads", "1") == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("name, content, command, code, detail", [
        ("s.csv", b"z\n1.5\n3\xff4\n",
         "estimate --in {path} --looks 1 --model intensity --estimator poly", 1,
         "not UTF-8 text"),
        ("grid.csv", b"1,2\n3,\xff4\n",
         "map --in {path} --format csv " + MAP_FLAGS, 2, "not UTF-8 text"),
        ("img.raw.json", b'{"width": 3, "height": 2}\xff',
         "map --in {tmp}/img.raw --format rawf32 " + MAP_FLAGS, 2,
         "missing or malformed sidecar"),
        ("cfg.json", b'{"trials": 1, "alphas": [-3\xff]}',
         "mc --config {path} --out {tmp}/out --format json --threads 1", 2, "invalid JSON")],
        ids=["sample-csv", "csv-raster", "rawf32-sidecar", "mc-config"])
    def test_non_utf8_input_names_the_file(self, tmp_path, capsys, name, content, command,
                                           code, detail):
        path = tmp_path / name
        path.write_bytes(content)
        np.ones(6, dtype="<f4").tofile(tmp_path / "img.raw")
        capsys.readouterr()
        assert run_cli(*command.format(path=path, tmp=tmp_path).split()) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"{path}: {detail}" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1_0", "abc", "1e999", "-2"])
    def test_malformed_sample_value_is_domain_error(self, tmp_path, capsys, value):
        path = tmp_path / "s.csv"
        path.write_text("z\n" + "2.5\n" * 8 + f"{value}\n")
        assert run_cli("estimate", "--in", str(path), "--looks", "1",
                       "--model", "intensity", "--estimator", "poly") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        detail = (f"sample value {value!r} is not positive" if value == "-2"
                  else f"non-numeric value {value!r}")
        assert captured.err == f"g0lcum: error: {path}:10: {detail}\n"

    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                     "(1000000000000,) and data type float64"),
         "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
         "and data type float64"),
        (MemoryError(), "allocation failed")])
    def test_out_of_memory_exits_1_in_one_line(self, tmp_path, capsys, monkeypatch,
                                                exc, detail):
        def fail(*args):
            raise exc

        monkeypatch.setattr(g0lcum.model, "sample_g0", fail)
        assert run_cli("sample", "--alpha", "-3", "--looks", "2", "--model", "intensity",
                       "--n", "1000000000000", "--seed", "1",
                       "--out", str(tmp_path / "s.csv")) == 1
        assert capsys.readouterr().err == f"g0lcum: error: out of memory: {detail}\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("alpha, n, message", [
        ("1.0", "5", "unit-mean scale needs alpha < -1, got 1.0"),
        ("-3", "0", "sample size must be positive, got 0")])
    def test_invalid_domain_value_is_domain_error(self, tmp_path, capsys, alpha, n, message):
        assert run_cli("sample", "--alpha", alpha, "--looks", "2",
                       "--model", "intensity", "--n", n, "--seed", "1",
                       "--out", str(tmp_path / "s.csv")) == 1
        assert capsys.readouterr().err == f"g0lcum: error: {message}\n"
        assert not (tmp_path / "s.csv").exists()

    def test_negative_seed_is_domain_error_naming_the_seed(self, tmp_path, capsys):
        """The sampler and a campaign config reject a negative seed in one message."""
        message = "g0lcum: error: seed must be a nonnegative integer, got -1\n"
        assert run_cli("sample", "--alpha", "-3", "--looks", "2", "--model", "intensity",
                       "--n", "5", "--seed", "-1", "--out", str(tmp_path / "s.csv")) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "s.csv").exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -1}')
        assert run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                       "--format", "csv") == 1
        assert capsys.readouterr().err == message

    def test_even_window_is_domain_error(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("1,2\n3,4\n")
        assert run_cli("map", "--in", str(grid), "--format", "csv",
                       "--window", "2", "--looks", "1", "--model", "intensity",
                       "--estimator", "traditional",
                       "--out", str(tmp_path / "m.csv")) == 1

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sample", "--alpha", "-3", "--looks", "2", "--model",
                    "intensity", "--n", "5", "--seed", "1",
                    "--out", str(tmp_path / "s.csv"), "--bogus", "1")
        assert exc.value.code == 1
        assert "--bogus" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 1

    def test_missing_required_flag_names_it(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sample", "--alpha", "-3")
        assert exc.value.code == 1
        assert "--looks" in capsys.readouterr().err


class TestOutCheckedFirst:
    """An --out that cannot be written fails with exit 2 before any work,
    and creates no file."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work ran before --out was checked")

        for module, name in ((harness, "run_campaign"), (raster, "read_raster"),
                             (raster, "roughness_map"), (model, "sample_g0")):
            monkeypatch.setattr(module, name, fail)

    def commands(self, tmp_path, out):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trials": 1}')
        grid = tmp_path / "grid.csv"
        grid.write_text("1,2,3\n4,5,6\n7,8,9\n")
        return [["mc", "--config", str(cfg), "--out", out, "--format", "csv",
                 "--threads", "1"],
                ["map", "--in", str(grid), "--format", "csv", "--window", "3",
                 "--looks", "1", "--model", "intensity", "--estimator", "poly",
                 "--out", out, "--threads", "1"],
                ["sample", "--alpha", "-3", "--looks", "2", "--model", "intensity",
                 "--n", "5", "--seed", "7", "--out", out]]

    def test_missing_directory(self, tmp_path, capsys, no_work):
        out = tmp_path / "missing" / "r.csv"
        for argv in self.commands(tmp_path, str(out)):
            capsys.readouterr()
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert err == f"g0lcum: i/o error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_empty_path(self, tmp_path, capsys, no_work):
        for argv in self.commands(tmp_path, ""):
            capsys.readouterr()
            assert run_cli(*argv) == 2
            assert capsys.readouterr().err == ("g0lcum: i/o error: [Errno 2] "
                                               "No such file or directory: ''\n")

    def test_out_is_a_directory(self, tmp_path, capsys, no_work):
        out = tmp_path / "dir"
        out.mkdir()
        for argv in self.commands(tmp_path, str(out)):
            capsys.readouterr()
            assert run_cli(*argv) == 2
            assert capsys.readouterr().err.startswith("g0lcum: i/o error: [Errno 21] ")
        assert list(out.iterdir()) == []


    def test_map_sidecar_is_a_directory(self, tmp_path, capsys, no_work):
        out = tmp_path / "m.pgm"
        sidecar = tmp_path / "m.pgm.meta.json"
        sidecar.mkdir()
        capsys.readouterr()
        assert run_cli(*self.commands(tmp_path, str(out))[1]) == 2
        assert capsys.readouterr().err == ("g0lcum: i/o error: [Errno 21] "
                                           f"Is a directory: '{sidecar}'\n")
        assert not out.exists() and list(sidecar.iterdir()) == []


class TestNamesAndDefaults:
    def test_names_in_any_case(self, tmp_path, capsys):
        """The command line takes model and estimator names as configs do."""
        path = write_sample(tmp_path)
        capsys.readouterr()
        assert run_cli("estimate", "--in", str(path), "--looks", "2",
                       "--model", "Intensity", "--estimator", "POLY-Corrected") == 0
        mixed = json.loads(capsys.readouterr().out)
        assert run_cli("estimate", "--in", str(path), "--looks", "2",
                       "--model", "intensity", "--estimator", "poly-corrected") == 0
        lower = json.loads(capsys.readouterr().out)
        mixed.pop("elapsed_ns"), lower.pop("elapsed_ns")
        assert mixed == lower
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate", "--in", str(path), "--looks", "2",
                    "--model", "power", "--estimator", "poly")
        assert exc.value.code == 1
        assert "choose from 'intensity', 'amplitude'" in capsys.readouterr().err

    def test_threads_default_is_the_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cli._build_parser.cache_clear()
        try:
            for argv in (["mc", "--config", "c", "--out", "o", "--format", "csv"],
                         ["map", "--in", "i", "--format", "csv", "--window", "3",
                          "--looks", "1", "--model", "intensity", "--estimator", "poly",
                          "--out", "o"]):
                assert cli._build_parser().parse_args(argv).threads == 1
        finally:
            cli._build_parser.cache_clear()


    def test_format_choices_are_the_module_tables(self, capsys):
        """--format takes exactly the formats read_raster and the report
        functions take; any other exits 1 naming them."""
        parser = cli._build_parser()
        mc = ["mc", "--config", "c", "--out", "o", "--format"]
        map_ = ["map", "--in", "i", "--window", "3", "--looks", "1", "--model", "intensity",
                "--estimator", "poly", "--out", "o", "--format"]
        for argv, table in ((mc, harness.REPORT_FORMATS), (map_, raster.RASTER_READERS)):
            for fmt in table:
                assert parser.parse_args(argv + [fmt]).format == fmt
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(argv + ["tiff"])
            assert exc.value.code == 1
            assert f"(choose from {', '.join(map(repr, table))})" in capsys.readouterr().err


class TestParserReuse:
    def test_consecutive_calls_share_one_parser(self, tmp_path, capsys):
        """A bad flag, a map and an estimate in one process behave as each
        does on a freshly built parser, and the parser is built once."""
        rng = np.random.default_rng(9)
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(",".join(f"{v:.17g}" for v in row)
                                  for row in rng.gamma(2.0, 1.0, (9, 9))) + "\n")
        sample = write_sample(tmp_path)

        def calls(fresh):
            outcomes = []
            for argv in (["map", "--in", str(grid), "--format", "csv", "--window", "3",
                          "--looks", "1", "--model", "intensity", "--bogus", "1",
                          "--estimator", "poly", "--out", str(tmp_path / "bad.csv")],
                         ["map", "--in", str(grid), "--format", "csv", "--window", "3",
                          "--looks", "1", "--model", "intensity", "--estimator", "poly",
                          "--out", str(tmp_path / "map.csv"), "--threads", "2"],
                         ["estimate", "--in", str(sample), "--looks", "2",
                          "--model", "intensity", "--estimator", "poly-corrected"]):
                if fresh:
                    cli._build_parser.cache_clear()
                capsys.readouterr()
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
                captured = capsys.readouterr()
                out = json.loads(captured.out) if captured.out else {}
                out.pop("elapsed_ns", None)
                err = re.sub(r"\d+ ns", "ns", captured.err)  # the map's note times it
                outcomes.append((rc, out, err))
            outcomes.append((tmp_path / "map.csv").read_bytes())
            (tmp_path / "map.csv").unlink()
            return outcomes

        fresh = calls(fresh=True)
        cli._build_parser.cache_clear()
        shared = calls(fresh=False)
        assert cli._build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [rc for rc, _, _ in shared[:3]] == [1, 0, 0]
        assert "--bogus" in shared[0][2] and not (tmp_path / "bad.csv").exists()
        assert shared[2][1]["status"] == "Ok"


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("g0lcum")
        assert exe is not None
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [exe, "sample", "--alpha", "-3", "--looks", "2", "--model",
             "intensity", "--n", "5", "--seed", "7", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.read_text().splitlines()[0] == "z"
