"""Command-line binding: flag surfaces, JSON/CSV outputs, exit codes."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from g0lcum import harness
from g0lcum.cli import main


def run_cli(*argv):
    return main(list(argv))


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


class TestEstimate:
    def test_single_json_line_on_stdout(self, tmp_path, capsys):
        path = write_sample(tmp_path)
        capsys.readouterr()
        assert run_cli("estimate", "--in", str(path), "--looks", "2",
                       "--model", "intensity", "--estimator", "traditional") == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        payload = json.loads(out)
        assert sorted(payload) == ["alpha_hat", "elapsed_ns", "eta_hat", "eta_m",
                                   "failure", "gamma_hat", "k1", "k2", "status"]
        assert payload["status"] == "Ok"
        assert payload["failure"] is None
        assert payload["eta_m"] is None
        assert -15.0 <= payload["alpha_hat"] < 0.0
        assert payload["gamma_hat"] > 0.0
        assert payload["elapsed_ns"] > 0

    def test_corrected_reports_eta_m(self, tmp_path, capsys):
        path = write_sample(tmp_path)
        capsys.readouterr()
        assert run_cli("estimate", "--in", str(path), "--looks", "2",
                       "--model", "intensity", "--estimator", "poly-corrected") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eta_m"] > 0.0

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

    def test_pgm_output_by_extension(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(",".join(f"{v:.17g}" for v in row)
                                  for row in rng.gamma(2.0, 1.0, (6, 6))) + "\n")
        out = tmp_path / "map.pgm"
        assert run_cli("map", "--in", str(grid), "--format", "csv",
                       "--window", "3", "--looks", "1", "--model", "intensity",
                       "--estimator", "traditional", "--out", str(out),
                       "--threads", "1") == 0
        assert out.read_text().startswith("P2\n6 6\n255\n")


class TestSpecfunCheck:
    def test_passes_and_prints_errors(self, capsys):
        assert run_cli("specfun-check") == 0
        out = capsys.readouterr().out
        assert "trigamma" in out and "digamma" in out and "round trip" in out


class TestExitCodes:
    def test_missing_input_file_is_io_error(self, tmp_path):
        assert run_cli("estimate", "--in", str(tmp_path / "nope.csv"),
                       "--looks", "1", "--model", "intensity",
                       "--estimator", "traditional") == 2

    def test_malformed_config_json_is_io_error(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                       "--format", "csv") == 2

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

    def test_invalid_domain_value_is_domain_error(self, tmp_path):
        assert run_cli("sample", "--alpha", "1.0", "--looks", "2",
                       "--model", "intensity", "--n", "5", "--seed", "1",
                       "--out", str(tmp_path / "s.csv")) == 1

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
