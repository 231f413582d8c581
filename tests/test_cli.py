import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import mp_reference_state
from massbath import (
    EigenPropagator,
    FieldBathConfig,
    XState,
    build_rate_matrix,
    coefficients,
    concurrence,
    eigen_trajectory,
    evolve_scan,
    negativity,
)
from massbath import cli
from massbath.cli import EVOLVE_HEADER, MAP_HEADER, main, parse_initial
from massbath.errors import NotAStateError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment for a child Python that imports this checkout's massbath."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


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

    def test_single_step_is_the_initial_row(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--steps", "1"], capsys
        )
        assert code == 0
        assert out.splitlines()[1:] == ["0.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0"]

    def test_frozen_rows_constant(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "1.2", "--steps", "4"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",")[1:] for line in out.strip().splitlines()[1:]]
        assert all(row == rows[0] for row in rows)

    def test_eigen_rows_keep_their_trace_at_long_times(self, capsys):
        # An eigen cell out to Gamma0*tau = 1e6, where any drift of the
        # stationary mode would fail the output's 1e-10 trace check (exit 3).
        code, out, _ = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "0.5", "--sep", "0.7",
             "--temp-ratio", "0.3", "--tmax", "1e6", "--steps", "3"],
            capsys,
        )
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert all(abs(sum(row[1:5]) - 1.0) <= 1e-12 for row in rows)

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

    def test_rows_match_a_per_state_loop(self, capsys):
        initial = "0.3,0.2,0.1,0.4,0.1,0.05,0.02,-0.03"
        code, out, _ = run_cli(
            ["evolve", "--initial", initial, "--mass-ratio", "0.5", "--sep", "0.7",
             "--temp-ratio", "0.3", "--tmax", "6", "--steps", "40"],
            capsys,
        )
        assert code == 0
        config = FieldBathConfig.from_ratios(0.5, 0.7, 0.3)
        trajectory = eigen_trajectory(
            parse_initial(initial), build_rate_matrix(coefficients(config)),
            np.linspace(0.0, 6.0, 40),
        )
        expected = [EVOLVE_HEADER] + [
            ",".join(repr(float(v)) for v in (
                tau, state.pop_g, state.pop_a, state.pop_s, state.pop_e,
                state.coh_ge.real, state.coh_ge.imag, state.coh_as.real,
                state.coh_as.imag, concurrence(state), negativity(state),
            ))
            for tau, state in trajectory
        ]
        assert out == "\n".join(expected) + "\n"

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

    def test_config_file_holds_flags_of_its_own_subcommand_only(self, capsys, tmp_path):
        # Every key becomes a flag of the subcommand the file is passed to, so
        # verify's seed is an unrecognized argument of coeffs.
        config = tmp_path / "run.cfg"
        config.write_text("mass-ratio=0.6\nsep=1.0\nseed=0\n")
        with pytest.raises(SystemExit) as info:
            main(["coeffs", "--config", str(config)])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --seed 0" in err

    def test_config_equals_path_reads_the_file(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mass-ratio=0.6\nsep=1.0\ntemp-ratio=0.5\n")
        spaced = run_cli(["coeffs", "--config", str(config)], capsys)
        joined = run_cli(["coeffs", f"--config={config}"], capsys)
        assert spaced == joined and spaced[0] == 0
        assert parse_table(joined[1])["gray_factor"] == pytest.approx(0.8)

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "absent.cfg"
        code, out, err = run_cli(["coeffs", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"usage error: [Errno 2] No such file or directory: '{path}'\n"

    def test_config_line_without_equals_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mass-ratio=0.6\n  junk  \n")
        code, out, err = run_cli(["coeffs", "--config", str(config), "--sep", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == "usage error: config line without '=': 'junk'\n"

    def test_raw_initial_of_five_values_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["evolve", "--initial", "0.5,0,0,0.5,0", "--mass-ratio", "0"], capsys
        )
        assert (code, out) == (2, "")
        assert err == ("usage error: invalid --initial '0.5,0,0,0.5,0': expected a named "
                       "state, diag:e,g,a,s, or 8 comma-separated values\n")

    @pytest.mark.parametrize("argv, text", [
        (["coeffs", "--config", "CFG", "--mass", "0.5", "--sep", "1"], "mass-ratio=0.9"),
        (["coeffs", "--conf", "CFG", "--mass-ratio", "0.5", "--sep", "1"], "mass-ratio=0.9"),
        (["evolve", "--config", "CFG", "--initial", "E", "--mass", "0.5"], "mass-ratio=0.9"),
        (["map", "time-sep", "--config", "CFG", "--mass", "0.5", "--out", "OUT"], "mass-ratio=0.9"),
        (["map", "temp-sep", "--config", "CFG", "--mass", "0.5", "--out", "OUT"], "mass-ratio=0.9"),
        (["verify", "--config", "CFG", "--se", "1"], "seed=3"),
    ], ids=["coeffs-flag", "coeffs-config", "evolve", "time-sep", "temp-sep", "verify"])
    def test_abbreviated_flags_are_usage_errors(self, argv, text, capsys, tmp_path):
        # The config merge matches flags by their full names, so a flag that
        # argparse would expand from an abbreviation could lose to the file
        # (m/omega = 0.9 here, a gray factor of 0.4359 against 0.8660), and an
        # abbreviated --config would never read it.
        config = tmp_path / "run.cfg"
        config.write_text(text + "\n")
        paths = {"CFG": str(config), "OUT": str(tmp_path / "map.csv")}
        with pytest.raises(SystemExit) as info:
            main([paths.get(token, token) for token in argv])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "map.csv").exists()


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

    @pytest.mark.parametrize("mass, initial, temp, shared", [
        ("0.4", "bell-GE", "0.3", False),
        ("0.5", "A", None, False),
        # In these two every cell's concurrence and negativity have one bit
        # pattern (bell-GE in vacuum near omega; E above the thermal
        # threshold, where both are 0.0), so the block's two measure columns
        # share each formatted value.
        ("0.995", "bell-GE", None, True),
        ("0.4", "E", "0.3", True),
    ])
    def test_rows_match_a_per_cell_loop(self, capsys, tmp_path, mass, initial, temp, shared):
        # 3 x 2 fits one CSV block; 40 x 60 is 2,400 rows in three blocks,
        # whose edges fall inside a tau's row, so labels repeat across blocks.
        assert 2 * cli._CSV_BLOCK < 40 * 60 and cli._CSV_BLOCK % 60
        thermal = [] if temp is None else ["--temp-ratio", temp]
        for tau_count, sep_count in ((3, 2), (40, 60)):
            out_path = tmp_path / f"map-{tau_count}.csv"
            code, _, _ = run_cli(
                ["map", "time-sep", "--mass-ratio", mass, "--initial", initial, *thermal,
                 "--tau-count", str(tau_count), "--sep-count", str(sep_count),
                 "--out", str(out_path)],
                capsys,
            )
            assert code == 0
            result = evolve_scan(float(mass), parse_initial(initial),
                                 None if temp is None else float(temp),
                                 np.linspace(0.05, 20.0, tau_count),
                                 np.linspace(0.05, 20.0, sep_count))
            if shared:
                assert np.array_equal(result.concurrence.view(np.int64),
                                      result.negativity.view(np.int64))
            expected = [MAP_HEADER] + [
                ",".join((repr(float(tau)), repr(float(sep)),
                          repr(float(result.concurrence[i, j])),
                          repr(float(result.negativity[i, j])), result.method[i, j]))
                for i, tau in enumerate(result.axis1)
                for j, sep in enumerate(result.axis2)
            ]
            assert out_path.read_text() == "\n".join(expected) + "\n"
            manifest = json.loads((tmp_path / f"{out_path.name}.manifest.json").read_text())
            digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
            assert manifest["outputs"] == [{"path": out_path.name, "sha256": digest}]

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


class TestManifestParams:
    """A manifest's params hold every flag the command parsed, under its name
    and with the values read from --config, except --config and --out; evolve
    adds its method, and a map its axis names."""

    # command: (flags on the line, the --config file, the params expected)
    CASES = {
        "evolve": (
            ["evolve", "--initial", "bell-GE", "--tmax", "2"], "mass-ratio=0.5\nsteps=3\n",
            {"initial": "bell-GE", "mass-ratio": 0.5, "sep": 0.0, "temp-ratio": None,
             "tmax": 2.0, "steps": 3, "method": "closed_form"},
        ),
        "time-sep": (
            ["map", "time-sep", "--mass-ratio", "0.5", "--tau-count", "3"],
            "temp-ratio=0.3\nsep-count=4\ntau-scale=log\n",
            {"initial": "E", "mass-ratio": 0.5, "temp-ratio": 0.3,
             "tau-min": 0.05, "tau-max": 20.0, "tau-count": 3, "tau-scale": "log",
             "sep-min": 0.05, "sep-max": 20.0, "sep-count": 4, "sep-scale": "linear",
             "axis1": "tau", "axis2": "sep"},
        ),
        "temp-sep": (
            ["map", "temp-sep", "--initial", "bell-GE", "--temp-count", "2"],
            "mass-ratio=0.9\nsep-count=3\nsep-scale=log\ntemp-max=0.3\n",
            {"initial": "bell-GE", "mass-ratio": 0.9,
             "temp-min": 0.02, "temp-max": 0.3, "temp-count": 2, "temp-scale": "linear",
             "sep-min": 0.05, "sep-max": 20.0, "sep-count": 3, "sep-scale": "log",
             "axis1": "temp-ratio", "axis2": "sep"},
        ),
    }
    EXTRAS = {"method", "axis1", "axis2"}

    @staticmethod
    def run(argv, config_text, folder):
        """The params of the manifest that argv, with --config and --out, writes."""
        folder.mkdir()
        config, out = folder / "run.cfg", folder / "out.csv"
        config.write_text(config_text)
        assert main(argv + ["--config", str(config), "--out", str(out)]) == 0
        return json.loads((folder / "out.csv.manifest.json").read_text())["params"]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_params_are_every_parsed_flag(self, name, tmp_path):
        argv, config_text, expected = self.CASES[name]
        params = self.run(argv, config_text, tmp_path / name)
        assert params == expected
        # The expected flags are all that the parser holds for the command.
        full = argv + ["--config", str(tmp_path / name / "run.cfg"), "--out", "x.csv"]
        parsed = vars(cli.build_parser().parse_args(cli._merge_config(full)))
        flags = {key.replace("_", "-") for key in parsed} - {"command", "submode", "func"}
        assert set(params) - self.EXTRAS == flags - {"config", "out"}

    def test_maps_differing_in_sep_count_record_it(self, tmp_path):
        argv = ["map", "time-sep", "--mass-ratio", "0.5", "--tau-count", "3", "--sep-count"]
        ten, thirty = (self.run(argv + [count], "", tmp_path / count) for count in ("10", "30"))
        assert (ten["sep-count"], thirty["sep-count"]) == (10, 30)
        assert {key for key in ten if ten[key] != thirty[key]} == {"sep-count"}


def reference_row(mass_ratio, sep, initial, tau):
    """Evolve-CSV entries and both measures from a 40-digit expm."""
    rates = build_rate_matrix(coefficients(FieldBathConfig.from_ratios(mass_ratio, sep)))
    state = mp_reference_state(rates, parse_initial(initial), tau)
    return [
        state.pop_g, state.pop_a, state.pop_s, state.pop_e,
        state.coh_ge.real, state.coh_ge.imag, state.coh_as.real, state.coh_as.imag,
        concurrence(state), negativity(state),
    ]


class TestNearUnitSpatialFactor:
    """Vacuum runs with 1 - lam below 1e-6 and long times: every command
    takes the cascade route and matches a 40-digit reference."""

    @pytest.mark.parametrize(
        "initial, sep, tmax, steps",
        [("E", "1e-4", "30", "300"), ("A", "0.003", "1000", "200")],
    )
    def test_evolve(self, capsys, initial, sep, tmax, steps):
        code, out, err = run_cli(
            ["evolve", "--initial", initial, "--mass-ratio", "0", "--sep", sep,
             "--tmax", tmax, "--steps", steps],
            capsys,
        )
        assert code == 0, err
        rows = [[float(x) for x in line.split(",")] for line in out.strip().splitlines()[1:]]
        assert len(rows) == int(steps)
        for row in (rows[1], rows[len(rows) // 2], rows[-1]):
            expected = reference_row(0.0, float(sep), initial, row[0])
            assert max(abs(x - y) for x, y in zip(row[1:], expected)) < 1e-8

    def test_map_at_late_times(self, capsys, tmp_path):
        out_path = tmp_path / "late.csv"
        code, _, err = run_cli(
            ["map", "time-sep", "--mass-ratio", "0", "--initial", "A",
             "--tau-min", "700", "--tau-max", "800", "--tau-count", "2",
             "--sep-min", "0.003", "--sep-max", "0.0031", "--sep-count", "2",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0, err
        for line in out_path.read_text().strip().splitlines()[1:]:
            tau, sep, conc, neg, _ = line.split(",")
            expected = reference_row(0.0, float(sep), "A", float(tau))
            assert abs(float(conc) - expected[-2]) < 1e-8
            assert abs(float(neg) - expected[-1]) < 1e-8
            assert float(conc) > 0.998


class TestCsvBlocks:
    @pytest.mark.parametrize("block", [1, 3, 7, 10, 1024])
    def test_block_size_does_not_change_the_text(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        rng = np.random.default_rng(5)
        columns = (rng.random(10), -rng.random(10), np.array(["eigen"] * 10, dtype=object))
        expected = "h\n" + "".join(
            f"{a!r},{b!r},eigen\n" for a, b in zip(columns[0].tolist(), columns[1].tolist())
        )
        assert "".join(cli._csv("h", columns)) == expected


def repr_csv(header, columns):
    """Reference writer: every value through its own repr, row by row."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return header + "\n" + "".join(
        ",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows
    )


class TestCsvDistinctValues:
    """The writer formats each distinct bit pattern once; its text must equal
    a per-value repr, signed zeros, non-finite values and extremes included."""

    SPECIAL = np.array([
        -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
        1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
        np.array([0x7FF8000000000001]).view(np.float64)[0],  # a NaN payload
    ])

    @pytest.mark.parametrize("block", [1, 3, 7, 1024])
    def test_matches_a_per_value_repr(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        rng = np.random.default_rng(9)
        n = 2500
        columns = (
            np.resize(self.SPECIAL, n),
            np.repeat(self.SPECIAL, n // self.SPECIAL.size + 1)[:n],
            np.where(rng.random(n) < 0.5, rng.choice(self.SPECIAL, n), rng.standard_normal(n)),
            np.zeros(n),
            np.resize(np.array(["eigen", "closed_form", "frozen"], dtype=object), n),
        )
        assert "".join(cli._csv("h", columns)) == repr_csv("h", columns)

    @pytest.mark.parametrize("block", [1, 3, 7, 1024])
    def test_float_columns_share_one_repr_per_bit_pattern(self, monkeypatch, block):
        """A block's float columns share their formatting: a value in two
        columns is formatted once, while -0.0 beside 0.0, and a NaN payload
        beside the default NaN, stay two bit patterns formatted apart."""
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        formatted = []
        monkeypatch.setattr(cli, "repr", lambda v: formatted.append(v) or repr(v), raising=False)
        rng = np.random.default_rng(13)
        n = 2500
        shared = np.array([-0.0, 0.0, np.nan, -np.nan, self.SPECIAL[-1], 1 / 3])
        same = rng.standard_normal(n)
        columns = (
            np.resize(np.array(["0.0", "-0.0", "nan"], dtype=object), n),
            same,
            same.copy(),
            np.resize([-0.0, 0.0], n),
            np.resize([0.0, -0.0], n),
            np.resize([self.SPECIAL[-1], np.nan], n),
            np.resize([np.nan, self.SPECIAL[-1]], n),
            rng.choice(shared, n),
            rng.choice(shared, n),
            np.resize(np.array(["eigen", "closed_form", "frozen"], dtype=object), n),
        )
        assert "".join(cli._csv("h", columns)) == repr_csv("h", columns)
        floats = [column.view(np.int64) for column in columns[1:-1]]
        per_block = [np.unique(np.concatenate([bits[start:start + block] for bits in floats]))
                     for start in range(0, n, block)]
        assert np.array_equal(np.array(formatted).view(np.int64), np.concatenate(per_block))


class TestStreamedOutput:
    """The CSV is written block by block and hashed as it is written."""

    ARGV = {
        # 41 x 30 = 1,230 rows: a full block and a partial one.
        "time-sep": ["map", "time-sep", "--mass-ratio", "0.5", "--temp-ratio", "0.3",
                     "--initial", "bell-GE", "--tau-count", "41", "--sep-count", "30"],
        "temp-sep": ["map", "temp-sep", "--mass-ratio", "0.9", "--temp-count", "2",
                     "--sep-count", "3"],
        "evolve": ["evolve", "--initial", "bell-GE", "--mass-ratio", "0.5", "--steps", "1500"],
    }

    @pytest.mark.parametrize("name", ARGV)
    def test_manifest_hashes_the_file_on_disk(self, capsys, tmp_path, name):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(self.ARGV[name] + ["--out", str(out)], capsys)
        assert code == 0, err
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"] == [{"path": "x.csv", "sha256": digest}]

    def test_evolve_stdout_is_the_out_file(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = [sys.executable, "-m", "massbath.cli", *self.ARGV["evolve"]]
        subprocess.run(argv + ["--out", str(out)], check=True, env=child_env())
        stdout = subprocess.run(argv, check=True, capture_output=True, env=child_env()).stdout
        assert stdout == out.read_bytes()

    @pytest.mark.parametrize("name", ARGV)
    def test_emit_gets_one_block_per_call(self, capsys, monkeypatch, tmp_path, name):
        """perfbench's `cli.emit.bytes` sums len(text.encode()) over `_emit`
        calls: each call must get one block's str, and the calls together
        must carry the file's bytes."""
        texts = []
        emit = cli._emit

        def record(text, *args):
            texts.append(text)
            emit(text, *args)

        monkeypatch.setattr(cli, "_emit", record)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(self.ARGV[name] + ["--out", str(out)], capsys)
        assert code == 0, err
        assert all(isinstance(text, str) for text in texts)
        assert max(text.count("\n") for text in texts) <= cli._CSV_BLOCK
        rows = len(out.read_text().splitlines()) - 1
        assert len(texts) == 1 + math.ceil(rows / cli._CSV_BLOCK)
        assert sum(len(text.encode()) for text in texts) == out.stat().st_size


# Runs the CLI in a child and prints, in kB, how far its peak RSS rose above
# its RSS after import. VmHWM is the child's own high-water mark; ru_maxrss
# would carry the parent's resident size across fork and exec.
PEAK_AFTER_IMPORT = r"""
import re, sys
from massbath.cli import main
def kb(field):
    with open("/proc/self/status") as status:
        return int(re.search(field + r":\s+(\d+)", status.read())[1])
before = kb("VmRSS")
code = main(sys.argv[1:])
print(kb("VmHWM") - before)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_map_memory_stays_below_three_file_sizes(tmp_path):
    """A streamed map holds one block of text, not the file: its peak RSS
    above the child's after import stays below 3x the CSV (about 5x when the
    whole text was joined, encoded and read back)."""
    out = tmp_path / "m.csv"
    child = subprocess.run(
        [sys.executable, "-c", PEAK_AFTER_IMPORT, "map", "time-sep", "--mass-ratio", "0.5",
         "--temp-ratio", "0.3", "--initial", "bell-GE", "--tau-count", "400",
         "--sep-count", "400", "--out", str(out)],
        check=True, capture_output=True, text=True, env=child_env(),
    )
    assert int(child.stdout) * 1024 < 3 * out.stat().st_size


class TestSourceDateEpoch:
    @pytest.mark.parametrize("epoch", ["abc", "1e9", "99999999999999999999"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--steps", "3"],
            ["map", "time-sep", "--mass-ratio", "0", "--tau-count", "2", "--sep-count", "2"],
        ],
    )
    def test_bad_epoch_exits_2_without_output(self, capsys, monkeypatch, tmp_path, epoch, argv):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error: SOURCE_DATE_EPOCH") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestNoNegativeZero:
    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "time-sep", "--tau-count", "3", "--sep-count", "3"],
            ["map", "temp-sep", "--temp-count", "2", "--sep-count", "2"],
        ],
    )
    def test_unentangled_map_prints_plain_zeros(self, capsys, tmp_path, argv):
        out_path = tmp_path / "g.csv"
        code, _, _ = run_cli(
            argv + ["--mass-ratio", "0", "--initial", "G", "--out", str(out_path)], capsys
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        assert all("-0.0" not in row.split(",") for row in rows)


class TestNumericalFailureExit:
    def test_sweep_failure_exits_3_with_coordinates(self, capsys, monkeypatch):
        import massbath.cli as cli
        from massbath.errors import SweepCellError

        def boom(*args):
            raise SweepCellError("sweep failed at separation 1.0", axis2=1.0)

        monkeypatch.setattr(cli, "evolve_scan", boom)
        code, _, err = run_cli(
            ["map", "time-sep", "--mass-ratio", "0", "--out", "/tmp/unused.csv"],
            capsys,
        )
        assert code == 3
        assert "separation 1.0" in err
        # main's MassbathError handler prints it; the map commands have none.
        assert err == "error: sweep failed at separation 1.0\n"

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

    def test_overflowing_temperature_exits_3_with_coordinates(self, capsys, tmp_path):
        # coth(omega/2T) overflows near T/omega = 1e308: a cell fails for real.
        out = tmp_path / "t.csv"
        code, _, err = run_cli(
            ["map", "temp-sep", "--mass-ratio", "0.5", "--temp-max", "1e308",
             "--out", str(out)],
            capsys,
        )
        assert code == 3
        assert "(T/omega=5.263157894736843e+307, omega*L=0.05)" in err
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

    def test_map_just_below_omega_exits_0(self, capsys, tmp_path):
        # Near m = omega the eigen route's populations are off by ~5e-12 already
        # at tau = 0 (V V^-1 is not the identity). The spurious early maximum of
        # cell (T/omega=0.04, omega*L=0.05) lies above its later passes, which
        # the one-sided stopping rule retires.
        code, _, err = run_cli(
            ["map", "temp-sep", "--mass-ratio", "0.999999", "--initial", "E",
             "--temp-min", "0.04", "--temp-max", "0.06", "--temp-count", "2",
             "--sep-min", "0.05", "--sep-max", "0.1", "--sep-count", "2",
             "--out", str(tmp_path / "t.csv")],
            capsys,
        )
        assert code == 0, err

    def test_runtime_error_exits_3(self, capsys, monkeypatch):
        import massbath.cli as cli
        from massbath.errors import StepUnderflowError

        def boom(*args, **kwargs):
            raise StepUnderflowError("step 1e-15 below 1e-14 at tau=0.5")

        monkeypatch.setattr(EigenPropagator, "populations", boom)
        code, _, err = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "1.2"], capsys
        )
        assert code == 3
        assert "error" in err


def _trace_off(row, coh2):
    return row + [3e-10, 0.0, 0.0, 0.0]


def _negative_population(row, coh2):
    return np.array([row[0], -2e-10, row[2], row[3]])


def _coherence_above_bound(row, coh2):
    return np.array([0.0, row[0] + row[1], row[2], row[3]])


def _just_inside_bound(row, coh2):
    # pop_g * pop_e + PSD_TOL exceeds |coh_ge|**2 by a relative 1e-14.
    pop_e = (coh2 * (1.0 + 1e-14) - 1e-10) / row[0]
    return np.array([row[0], 1.0 - row[0] - row[2] - pop_e, row[2], pop_e])


class TestEvolveRowChecks:
    """evolve rejects exactly the rows XState rejects, with XState's message:
    the propagator is made to return an edited row K and, in the rejected
    cases, a worse row after it; the first bad row is the one reported."""

    K = 17
    ARGV = ["evolve", "--initial", "bell-GE", "--mass-ratio", "0.5", "--sep", "0.7",
            "--temp-ratio", "0.3", "--tmax", "6", "--steps", "40"]

    def _patch(self, monkeypatch, edit, later_bad):
        original = EigenPropagator.populations
        seen = {}

        def populations(prop, pops0, taus):
            out = original(prop, pops0, taus).copy()
            pops = out[0]  # the one generator's rows
            coh_ge = (XState.bell_ge().coh_ge * np.exp(-prop.rates.decay_ge * taus))[self.K]
            pops[self.K] = edit(pops[self.K], abs(coh_ge) ** 2)
            if later_bad:
                pops[self.K + 3, 2] = -1.0
            seen["row"] = (*pops[self.K], coh_ge)
            return out

        monkeypatch.setattr(EigenPropagator, "populations", populations)
        return seen

    @pytest.mark.parametrize(
        "edit", [_trace_off, _negative_population, _coherence_above_bound]
    )
    def test_bad_row_exits_3_with_the_xstate_message(self, capsys, monkeypatch, edit):
        seen = self._patch(monkeypatch, edit, later_bad=True)
        code, out, err = run_cli(self.ARGV, capsys)
        *pops, coh_ge = seen["row"]
        with pytest.raises(NotAStateError) as rejected:
            XState(*pops, coh_ge=coh_ge)
        assert code == 3
        assert out == ""
        assert err == f"error: {rejected.value}\n"

    def test_row_the_screen_flags_but_xstate_accepts_passes(self, capsys, monkeypatch):
        import massbath.xstate as xstate

        self._patch(monkeypatch, _just_inside_bound, later_bad=False)
        built = []
        original = xstate._xstates
        monkeypatch.setattr(xstate, "_xstates", lambda p, *c: built.append(len(p)) or original(p, *c))
        code, out, err = run_cli(self.ARGV, capsys)
        assert code == 0, err
        assert built == [1]
        assert len(out.splitlines()) == 41


class TestUsageErrors:
    """Inputs no cell can take exit 2 with one line on stderr and no output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "time-sep", "--mass-ratio", "0", "--tau-min", "-1"],
            ["map", "time-sep", "--mass-ratio", "0", "--sep-min", "-1"],
            ["map", "temp-sep", "--mass-ratio", "0", "--sep-min", "-1"],
            ["map", "temp-sep", "--mass-ratio", "0", "--sep-max", "inf"],
            ["map", "time-sep", "--mass-ratio", "0.5", "--tau-max", "inf",
             "--tau-count", "2", "--sep-count", "2"],
            ["map", "time-sep", "--mass-ratio", "nan", "--tau-count", "2", "--sep-count", "2"],
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--tmax", "nan"],
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--tmax", "inf"],
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--steps", "0"],
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--steps", "-3"],
        ],
    )
    def test_exits_2_without_output(self, capsys, tmp_path, argv):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("tmax, steps", [("-5", "1"), ("-5", "200"), ("0", "2")])
    def test_bad_tmax_is_named(self, capsys, tmp_path, tmax, steps):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--tmax", tmax,
             "--steps", steps, "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err.startswith("usage error: --tmax") and err.count("\n") == 1
        assert not out.exists()

    def test_tmax_too_small_for_its_steps_is_named(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--tmax", "5e-324",
             "--steps", "3", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err.startswith("usage error: --tmax") and err.count("\n") == 1
        assert not out.exists()

    def test_zero_tmax_single_step_writes_its_row(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--tmax", "0", "--steps", "1"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[1:] == ["0.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--initial", "E", "--mass-ratio", "0", "--steps", "3"],
            ["map", "time-sep", "--mass-ratio", "0", "--tau-count", "2", "--sep-count", "2"],
        ],
    )
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert str(out) in err


class TestAxisFlags:
    """Each map grid comes from --{p}-{min,max,count,scale}: np.linspace, or
    np.geomspace on the log scale. A bad axis flag exits 2 naming the flag."""

    AXES = [("time-sep", "tau"), ("time-sep", "sep"), ("temp-sep", "temp"), ("temp-sep", "sep")]

    @pytest.mark.parametrize("command, p", AXES)
    @pytest.mark.parametrize(
        "flags, message",
        [
            ({"count": "1"}, "--{p}-count must be >= 2, got 1"),
            ({"count": "0"}, "--{p}-count must be >= 2, got 0"),
            ({"min": "nan"}, "--{p}-min must be finite, got nan"),
            ({"min": "-inf"}, "--{p}-min must be finite, got -inf"),
            ({"max": "inf"}, "--{p}-max must be finite, got inf"),
            ({"min": "0", "max": "inf"}, "--{p}-max must be finite, got inf"),
            ({"min": "2", "max": "1"}, "--{p}-min must be < --{p}-max, got 2.0, 1.0"),
            ({"min": "1", "max": "1"}, "--{p}-min must be < --{p}-max, got 1.0, 1.0"),
            ({"min": "0", "scale": "log"}, "--{p}-scale log requires --{p}-min > 0, got 0.0"),
        ],
        ids=["count-1", "count-0", "min-nan", "min-minus-inf", "max-inf", "max-inf-from-0",
             "min-above-max", "min-equals-max", "log-from-0"],
    )
    def test_bad_axis_exits_2_naming_its_flag(self, capsys, tmp_path, command, p, flags, message):
        out = tmp_path / "x.csv"
        axis = [f"--{p}-{key}={value}" for key, value in flags.items()]
        code, _, err = run_cli(
            ["map", command, "--mass-ratio", "0.5", *axis, "--out", str(out)], capsys)
        assert code == 2
        assert err == f"usage error: {message.format(p=p)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, message", [
        ("time-sep", "--sep-min=-1", "seps (omega*L) must be finite and >= 0, got -1.0 at entry 0"),
        ("time-sep", "--tau-min=-1",
         "taus (Gamma0*tau) must be finite and >= 0, got -1.0 at entry 0"),
        ("temp-sep", "--temp-min=0", "temps (T/omega) must be finite and > 0, got 0.0 at entry 0"),
    ], ids=["sep-min", "tau-min", "temp-min"])
    def test_an_axis_out_of_range_is_named_by_its_grid(self, capsys, tmp_path, command, flag,
                                                       message):
        # The range of an axis is the scan's rule, so the message names the
        # scan's grid, not the flag.
        out = tmp_path / "x.csv"
        code, _, err = run_cli(["map", command, "--mass-ratio", "0.5", flag, "--out", str(out)],
                               capsys)
        assert (code, err) == (2, f"usage error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, other", [("time-sep", "tau"), ("temp-sep", "temp")])
    def test_separation_axis_is_checked_first(self, capsys, tmp_path, command, other):
        code, _, err = run_cli(
            ["map", command, "--mass-ratio", "-1", f"--{other}-count", "1", "--sep-count", "1",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert (code, err) == (2, "usage error: --sep-count must be >= 2, got 1\n")

    @pytest.mark.parametrize("command, p", AXES)
    def test_unknown_scale_is_an_argparse_error(self, capsys, command, p):
        with pytest.raises(SystemExit) as info:
            main(["map", command, "--mass-ratio", "0.5", f"--{p}-scale", "cubic",
                  "--out", "unused.csv"])
        assert info.value.code == 2
        assert f"argument --{p}-scale: invalid choice: 'cubic'" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, spaced", [("linear", np.linspace), ("log", np.geomspace)])
    @pytest.mark.parametrize("command, p", AXES)
    def test_axis_values_are_linspace_or_geomspace(self, capsys, tmp_path, command, p,
                                                   scale, spaced):
        out = tmp_path / "map.csv"
        ends = {"tau": (0.5, 50.0), "sep": (0.1, 10.0), "temp": (0.05, 0.4)}[p]
        other = {"time-sep": {"tau", "sep"}, "temp-sep": {"temp", "sep"}}[command] - {p}
        argv = ["map", command, "--mass-ratio", "0.5", f"--{p}-min={ends[0]}",
                f"--{p}-max={ends[1]}", f"--{p}-count=3", f"--{p}-scale={scale}",
                f"--{other.pop()}-count=2", "--out", str(out)]
        assert run_cli(argv, capsys)[0] == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        column = 1 if p == "sep" else 0
        values = list(dict.fromkeys(float(row[column]) for row in rows))
        assert values == spaced(*ends, 3).tolist()


# Runs the CLI with scipy unimportable: the package needs only numpy.
WITHOUT_SCIPY = (
    "import sys; sys.modules['scipy'] = None; "
    "from massbath.cli import main; sys.exit(main(sys.argv[1:]))"
)


class TestRuntimeWithoutScipy:
    @pytest.mark.parametrize(
        "args",
        [
            ["map", "temp-sep", "--mass-ratio", "0.9", "--initial", "E",
             "--temp-min", "0.027", "--temp-max", "0.03", "--temp-count", "2",
             "--sep-min", "0.065", "--sep-max", "0.085", "--sep-count", "3"],
            ["evolve", "--initial", "bell-GE", "--mass-ratio", "0.9", "--sep", "0.07",
             "--temp-ratio", "0.028", "--tmax", "3000", "--steps", "1200"],
        ],
        ids=["slow-corner-map", "expm-evolve"],
    )
    def test_expm_route_exits_0(self, tmp_path, args):
        out = tmp_path / "out.csv"
        assert self.run(args + ["--out", str(out)]).returncode == 0
        written = out.read_text() + (tmp_path / "out.csv.manifest.json").read_text()
        assert "expm" in written

    def test_verify_exits_0(self):
        assert self.run(["verify", "--seed", "0"]).returncode == 0

    @staticmethod
    def run(args):
        return subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, *args], env=child_env())


# verify --seed 0..4 stdout, pinned: the suites' deviations must not move
# from one commit to the next unless a change means them to.
def _verify_text(lifetime: str, methods: str) -> str:
    return (
        "scaling-vacuum       max deviation 3.331e-16 (threshold 1e-10) PASS\n"
        "scaling-thermal      max deviation 5.463e-13 (threshold 1e-09) PASS\n"
        f"lifetime-bisection   max deviation {lifetime} (threshold 1e-08) PASS\n"
        f"method-agreement     max deviation {methods} (threshold 1e-08) PASS\n"
        "coefficient-oracle   max deviation 1.691e-16 (threshold 1e-12) PASS\n"
    )


VERIFY_GOLDEN = {
    0: _verify_text("1.172e-13", "4.000e-11"),
    1: _verify_text("2.959e-13", "4.078e-11"),
    2: _verify_text("2.235e-13", "4.566e-11"),
    3: _verify_text("1.118e-13", "4.299e-11"),
    4: _verify_text("1.199e-12", "3.974e-11"),
}


class TestVerify:
    @pytest.mark.parametrize("seed", sorted(VERIFY_GOLDEN))
    def test_stdout_is_pinned(self, seed, capsys):
        assert run_cli(["verify", "--seed", str(seed)], capsys) == (0, VERIFY_GOLDEN[seed], "")

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

    @pytest.mark.parametrize("argv, flag", [
        (["--seed", "-1"], "--seed"),
        (["--perturb", "inf"], "--perturb"),
        (["--perturb", "nan"], "--perturb"),
        (["--perturb=-inf"], "--perturb"),
    ], ids=["negative-seed", "inf-perturb", "nan-perturb", "negative-inf-perturb"])
    def test_bad_flag_exits_2_naming_it_before_any_suite(self, argv, flag, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verification", lambda **_: pytest.fail("a suite ran"))
        code, out, err = run_cli(["verify", *argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: {flag} must be ") and err.count("\n") == 1


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_then_map_behave_as_two_fresh_calls(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")

        def two_calls(name: str, fresh: bool):
            folder = tmp_path / name
            folder.mkdir()
            good = ["map", "temp-sep", "--mass-ratio", "0.5", "--temp-count", "2",
                    "--sep-count", "3", "--out", str(folder / "map.csv")]
            outcomes = []
            for argv in (["map", "temp-sep", "--mass-ratio", "abc", "--out", "x.csv"], good):
                if fresh:
                    cli.build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                outcomes.append((code, *capsys.readouterr()))
            files = [(folder / f).read_bytes() for f in ("map.csv", "map.csv.manifest.json")]
            return outcomes, files

        cached = two_calls("cached", fresh=False)
        assert [code for code, _, _ in cached[0]] == [2, 0]
        assert "invalid float value: 'abc'" in cached[0][0][2]
        assert two_calls("fresh", fresh=True) == cached

    def test_handlers_are_looked_up_when_called(self, monkeypatch):
        # A wrapper installed on a handler after the parser is built is the one called.
        cli.build_parser()
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
        assert main(["verify", "--seed", "3"]) == 7
