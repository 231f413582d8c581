import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from massbath.cli import EVOLVE_HEADER, MAP_HEADER, main, parse_initial


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    values = {}
    for line in text.strip().splitlines():
        name, value = line.split()
        values[name] = float(value)
    return values


class TestParseInitial:
    def test_named(self):
        assert parse_initial("E").pop_e == 1.0
        assert parse_initial("bell-GE").coh_ge == 0.5

    def test_diag(self):
        state = parse_initial("diag:0.5,0,0.5,0")
        assert state.pop_e == 0.5 and state.pop_a == 0.5

    def test_raw_values(self):
        state = parse_initial("0.5,0,0,0.5,0.5,0,0,0")
        assert state.coh_ge == 0.5 and state.pop_g == 0.5

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_initial("bell-AS")
        with pytest.raises(ValueError):
            parse_initial("diag:1,2")
        with pytest.raises(ValueError):
            parse_initial("2,0,0,-1,0,0,0,0")


class TestCoeffs:
    def test_massless_far_apart(self, capsys):
        code, out, _ = run_cli(["coeffs", "--mass-ratio", "0", "--sep", "1e9"], capsys)
        assert code == 0
        table = parse_table(out)
        assert table["a1"] == 0.25
        assert table["b1"] == 0.25
        assert abs(table["a2"]) < 1e-9
        assert abs(table["b2"]) < 1e-9

    def test_frozen_branch(self, capsys):
        code, out, _ = run_cli(["coeffs", "--mass-ratio", "1.5", "--sep", "1"], capsys)
        assert code == 0
        table = parse_table(out)
        assert table["gray_factor"] == 0.0
        assert table["a1"] == table["b1"] == table["a2"] == table["b2"] == 0.0

    def test_thermal_ratio(self, capsys):
        code, out, _ = run_cli(
            ["coeffs", "--mass-ratio", "0", "--sep", "1", "--temp-ratio", "0.5"],
            capsys,
        )
        assert code == 0
        table = parse_table(out)
        assert table["a1"] / table["b1"] == pytest.approx(1.0 / math.tanh(1.0), rel=1e-11)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["coeffs", "--mass-ratio", "abc", "--sep", "1"])
        assert info.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["coeffs", "--mass-ratio", "0.5"])
        assert info.value.code == 2

    def test_semantic_usage_error(self, capsys):
        code, _, err = run_cli(["coeffs", "--mass-ratio", "-1", "--sep", "1"], capsys)
        assert code == 2
        assert "usage error" in err


class TestEvolve:
    def test_header_and_bell_row(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--initial", "bell-GE", "--mass-ratio", "0", "--sep", "2",
             "--tmax", "1", "--steps", "5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == EVOLVE_HEADER
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[-2] == 1.0  # concurrence
        assert first[-1] == 1.0  # negativity

    def test_frozen_rows_constant(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "1.2", "--steps", "4"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",")[1:] for line in out.strip().splitlines()[1:]]
        assert all(row == rows[0] for row in rows)

    def test_antisymmetric_decay_without_sudden_death(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--initial", "A", "--mass-ratio", "0", "--sep", "1e9",
             "--tmax", "5", "--steps", "50"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        taus = [float(line.split(",")[0]) for line in lines]
        conc = [float(line.split(",")[-2]) for line in lines]
        assert all(c > 0.0 for c in conc)
        assert all(b < a for a, b in zip(conc, conc[1:]))
        for tau, c in zip(taus, conc):
            assert c == pytest.approx(math.exp(-tau), rel=1e-6)

    def test_round_trip_no_loss(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            ["evolve", "--initial", "diag:0.4,0.1,0.3,0.2", "--mass-ratio", "0.3",
             "--sep", "1.2", "--tmax", "4", "--steps", "20",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        text = out_path.read_text()
        for line in text.strip().splitlines()[1:]:
            for token in line.split(","):
                assert repr(float(token)) == token

    def test_manifest_written(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--sep", "1",
             "--tmax", "1", "--steps", "3", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["command"] == "evolve"
        assert manifest["outputs"][0]["path"] == "traj.csv"
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert manifest["outputs"][0]["sha256"] == digest

    def test_invalid_initial_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["evolve", "--initial", "diag:2,0,0,-1", "--mass-ratio", "0"], capsys
        )
        assert code == 2
        assert "usage error" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mass-ratio=0.6\nsep=1.0\n# comment\ntemp-ratio=0.5\n")
        code, out, _ = run_cli(
            ["coeffs", "--config", str(config), "--sep", "2.0"], capsys
        )
        assert code == 0
        table = parse_table(out)
        assert table["gray_factor"] == pytest.approx(0.8)
        # --sep flag overrides the file value 1.0
        assert table["spatial_factor"] == pytest.approx(
            math.sin(2.0 * 0.8) / (2.0 * 0.8), rel=1e-12
        )
        # temp-ratio came from the file
        assert table["a1"] / table["b1"] == pytest.approx(1.0 / math.tanh(1.0), rel=1e-11)


class TestMap:
    def test_degenerate_grid_four_rows(self, capsys, tmp_path):
        out_path = tmp_path / "map.csv"
        code, _, _ = run_cli(
            ["map", "time-sep", "--mass-ratio", "0", "--initial", "E",
             "--tau-min", "1", "--tau-max", "2", "--tau-count", "2",
             "--sep-min", "1", "--sep-max", "2", "--sep-count", "2",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == MAP_HEADER
        assert len(lines) == 5
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_massive_map_shows_long_range_generation(self, capsys, tmp_path):
        out_path = tmp_path / "massive.csv"
        code, _, _ = run_cli(
            ["map", "time-sep", "--mass-ratio", "0.995", "--initial", "E",
             "--tau-min", "5", "--tau-max", "120", "--tau-count", "25",
             "--sep-min", "10", "--sep-max", "16", "--sep-count", "3",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        conc = np.array([float(r.split(",")[2]) for r in rows])
        # separations way beyond the massless reach (~2.5) still generate
        assert conc.max() > 1e-3

    def test_temp_sep_no_generation_above_threshold(self, capsys, tmp_path):
        out_path = tmp_path / "thermal.csv"
        code, _, _ = run_cli(
            ["map", "temp-sep", "--mass-ratio", "0", "--initial", "E",
             "--temp-min", "0.3", "--temp-max", "0.5", "--temp-count", "2",
             "--sep-min", "0.3", "--sep-max", "3", "--sep-count", "4",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        conc = np.array([float(r.split(",")[2]) for r in rows])
        assert conc.max() < 1e-3

    def test_byte_identical_with_fixed_epoch(self, tmp_path):
        env_args = [
            sys.executable, "-m", "massbath.cli", "map", "time-sep",
            "--mass-ratio", "0.5", "--initial", "bell-GE",
            "--tau-min", "0.5", "--tau-max", "3", "--tau-count", "3",
            "--sep-min", "0.5", "--sep-max", "3", "--sep-count", "3",
        ]
        import os

        env = dict(os.environ, SOURCE_DATE_EPOCH="1700000000")
        for name in ("a", "b"):
            subprocess.run(
                env_args + ["--out", str(tmp_path / f"{name}.csv")],
                check=True,
                env=env,
            )
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        first = (tmp_path / "a.csv.manifest.json").read_text()
        second = (tmp_path / "b.csv.manifest.json").read_text()
        assert json.loads(first)["timestamp"] == json.loads(second)["timestamp"]
        assert json.loads(first)["outputs"][0]["sha256"] == json.loads(second)["outputs"][0]["sha256"]


class TestNumericalFailureExit:
    def test_sweep_failure_exits_3_with_coordinates(self, capsys, monkeypatch):
        import massbath.cli as cli
        from massbath.errors import SweepCellError

        def boom(config):
            raise SweepCellError("sweep failed at separation 1.0", axis2=1.0)

        monkeypatch.setattr(cli, "evolve_scan", boom)
        code, _, err = run_cli(
            ["map", "time-sep", "--mass-ratio", "0", "--out", "/tmp/unused.csv"],
            capsys,
        )
        assert code == 3
        assert "separation 1.0" in err

    def test_non_positive_temperature_exits_2(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, err = run_cli(
            ["map", "temp-sep", "--mass-ratio", "0", "--temp-min", "-0.1",
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "T/omega" in err
        assert not out.exists()

    def test_non_converged_cell_exits_3_with_coordinates(self, capsys, monkeypatch, tmp_path):
        import massbath.experiments as experiments

        monkeypatch.setattr(experiments, "MAX_DOUBLINGS", 1)
        code, _, err = run_cli(
            ["map", "temp-sep", "--mass-ratio", "0", "--temp-min", "0.1",
             "--temp-max", "0.2", "--temp-count", "2", "--sep-min", "1",
             "--sep-max", "2", "--sep-count", "2", "--out", str(tmp_path / "t.csv")],
            capsys,
        )
        assert code == 3
        assert "T/omega=0.1, omega*L=1.0" in err

    def test_runtime_error_exits_3(self, capsys, monkeypatch):
        import massbath.cli as cli
        from massbath.errors import StepUnderflowError

        def boom(*args, **kwargs):
            raise StepUnderflowError("step 1e-15 below 1e-14 at tau=0.5")

        monkeypatch.setattr(cli, "eigen_trajectory", boom)
        code, _, err = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "1.2"], capsys
        )
        assert code == 3
        assert "error" in err


class TestVerify:
    def test_passes_and_deterministic(self, capsys):
        code, first, _ = run_cli(["verify", "--seed", "42"], capsys)
        assert code == 0
        assert first.count("PASS") == 5
        code, second, _ = run_cli(["verify", "--seed", "42"], capsys)
        assert code == 0
        assert first == second

    def test_perturbation_fails(self, capsys):
        code, out, _ = run_cli(["verify", "--perturb", "1e-6"], capsys)
        assert code == 1
        assert "FAIL" in out
