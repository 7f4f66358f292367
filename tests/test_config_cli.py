"""Config parsing and CLI behavior (subcommands, overrides, exit codes)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import securewave
from securewave.cli import main
from securewave.config import (
    load_config_file,
    parse_config_text,
    scenario_from_config,
    sweep_spec_from_config,
)
from securewave.channel import ScenarioConfig
from securewave.errors import ValidationError
from securewave.harness import MODES, SINGLE_RECEIVER_MODES, SweepSpec

GOOD_CONFIG = """
# demo sweep
schema_version = 1
mode = an-unknown-csi
l = 8
m = 3
noise_variance = 1.0
interferer_count = 5:10
interferer_energy = 1.0:4.0
seed = 3
trials = 5
isi = false
sweep = gamma_db
sweep_values = 0, 3, 6
emax = 100.0
k = 1
sinr_average = linear
"""


class TestParseConfig:
    def test_good_config(self):
        values = parse_config_text(GOOD_CONFIG)
        assert values["mode"] == "an-unknown-csi"
        assert values["sweep_values"] == "0, 3, 6"

    def test_missing_schema_version(self):
        with pytest.raises(ValidationError):
            parse_config_text("l = 8")

    def test_wrong_schema_version(self):
        with pytest.raises(ValidationError):
            parse_config_text("schema_version = 2")

    def test_unknown_key(self):
        with pytest.raises(ValidationError):
            parse_config_text("schema_version = 1\nbandwidth = 5")

    def test_duplicate_key(self):
        with pytest.raises(ValidationError):
            parse_config_text("schema_version = 1\nl = 8\nl = 16")

    def test_malformed_line(self):
        with pytest.raises(ValidationError):
            parse_config_text("schema_version = 1\njust some words")

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("\n# hi\nschema_version = 1  # trailing\n")
        assert values == {"schema_version": "1"}


class TestBuildersFromConfig:
    def test_scenario_fields(self):
        values = parse_config_text(GOOD_CONFIG)
        cfg = scenario_from_config(values)
        assert cfg.chips == 8 and cfg.paths == 3
        assert cfg.interferer_count == (5, 10)
        assert cfg.trials == 5 and cfg.seed == 3

    def test_sweep_spec_fields(self):
        values = parse_config_text(GOOD_CONFIG)
        spec = sweep_spec_from_config(values)
        assert spec.mode == "an-unknown-csi"
        assert spec.values == (0.0, 3.0, 6.0)
        assert spec.e_max == 100.0

    def test_overrides_beat_file(self):
        values = parse_config_text(GOOD_CONFIG)
        spec = sweep_spec_from_config(values, {"trials": 2, "seed": 9, "emax": 10.0})
        assert spec.scenario.trials == 2
        assert spec.scenario.seed == 9
        assert spec.e_max == 10.0

    def test_bad_value_types(self):
        with pytest.raises(ValidationError):
            scenario_from_config(parse_config_text("schema_version = 1\nl = eight"))
        with pytest.raises(ValidationError):
            scenario_from_config(
                parse_config_text("schema_version = 1\ninterferer_count = 5")
            )
        with pytest.raises(ValidationError):
            scenario_from_config(parse_config_text("schema_version = 1\nisi = maybe"))

    def test_unset_keys_take_the_dataclass_defaults(self):
        spec = sweep_spec_from_config({"schema_version": "1"})
        assert spec == SweepSpec(scenario=ScenarioConfig(), mode="eigen-known-csi",
                                 sweep="gamma_db", values=(6.0,))

    @pytest.mark.parametrize("overrides", [{}, {"l": 12, "emax": 7.5}])
    def test_single_point_is_the_resolved_swept_value(self, overrides):
        for sweep, resolved in (("l", lambda spec: float(spec.scenario.chips)),
                                ("emax", lambda spec: spec.e_max)):
            spec = sweep_spec_from_config({"schema_version": "1", "sweep": sweep}, overrides)
            assert spec.values == (resolved(spec),)
        assert (spec.scenario.chips, spec.e_max) == (overrides.get("l", 8),
                                                     overrides.get("emax", 100.0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            sweep_spec_from_config(parse_config_text("schema_version = 1\nmode = magic"))


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestCli:
    def test_sweep_writes_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", config_file, "--trials", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("swept_value,")
        assert len(lines) == 4

    def test_sweep_stdout(self, config_file, capsys):
        code = main(["sweep", config_file, "--trials", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("swept_value,")

    def test_sweep_stdout_matches_out_file(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", config_file, "--trials", "2", "--out", str(out)]) == 0
        assert main(["sweep", config_file, "--trials", "2"]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("args", [["design-p2p"], ["design-multicast", "--k", "2", "--l", "8"]])
    def test_design_stdout_matches_out_file(self, args, tmp_path, capsys):
        out = tmp_path / "design.json"
        assert main(args + ["--out", str(out)]) == 0
        assert main(args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_design_p2p_json(self, capsys):
        code = main(["design-p2p", "--gamma-db", "6", "--seed", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["branch"] in ("eigen", "bisection")
        assert abs(payload["sinr_bob_db"] - 6.0) < 1e-6
        assert len(payload["waveform"]) == 8

    def test_design_p2p_an_mode(self, capsys):
        code = main(["design-p2p", "--mode", "an-unknown-csi", "--gamma-db", "3",
                     "--seed", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["an_budget"] > 0
        assert abs(payload["sinr_bob_db"] - 3.0) < 1e-6

    def test_design_echoes_the_point_it_designed_at(self, capsys):
        """The shipped multicast config sweeps 0-10 dB; the design command
        uses its gamma_db (6 dB by default) and says so."""
        import pathlib

        config = pathlib.Path(__file__).resolve().parent.parent / "configs/multicast-sdr.cfg"
        assert main(["design-multicast", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["gamma_db"], payload["emax"]) == (6.0, 100.0)
        assert sorted(payload) == ["an_budget", "branch", "emax", "energy", "gamma_db", "mode",
                                   "sdp_lower_bound", "sinr_bobs_db", "sinr_eve_db", "waveform"]
        assert min(payload["sinr_bobs_db"]) >= 6.0 - 1e-6

    def test_design_multicast_json(self, capsys):
        code = main(["design-multicast", "--k", "3", "--gamma-db", "3", "--seed", "2",
                     "--l", "8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["sinr_bobs_db"]) == 3
        assert payload["sdp_lower_bound"] > 0
        assert min(payload["sinr_bobs_db"]) >= 3.0 - 1e-6

    def test_design_within_the_cap_slack_is_served(self, capsys):
        # The min-energy design at this seed lands 8.8e-11 relative over the
        # cap, inside the SDR design's slack; it is sent with zero AN.
        code = main(["design-multicast", "--mode", "multicast-min-energy-an", "--k", "2",
                     "--l", "8", "--seed", "4", "--emax", "4.00186085606977"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["an_budget"] == 0.0
        assert min(payload["sinr_bobs_db"]) >= 6.0

    def test_no_waveform_in_the_cap_names_the_energy_it_needs(self, capsys):
        # The min-energy relaxation at this cap is rank-1 only to roundoff:
        # its top eigenvector meets the SINR floors only above the cap.
        code = main(["design-multicast", "--mode", "multicast-min-energy-an", "--k", "2",
                     "--l", "8", "--seed", "21", "--emax", "7.58761426131615"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoTransmitError"
        cap, need = (float(x) for x in re.findall(r"\d\.\d+e[+-]\d+", err["detail"]))
        assert "rank-1 candidate needs energy" in err["detail"]
        assert 7.58761426131615 < cap < need

    def test_cap_in_the_precision_band_is_named(self, capsys):
        # The cap lies between the least-energy program's bound and its trace.
        code = main(["design-multicast", "--mode", "multicast-min-energy-an", "--k", "2",
                     "--l", "8", "--seed", "6", "--emax", "5.118895747713758"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericalError"
        assert "precision band" in err["detail"]
        cap, bound, trace = (float(x) for x in re.findall(r"\d\.\d+e[+-]\d+", err["detail"]))
        assert bound <= cap < trace

    @pytest.mark.parametrize("command,gamma_db", [("sweep", "6"), ("sweep", "40"),
                                                  ("design-multicast", "40")])
    def test_an_for_as_many_receivers_as_chips_is_invalid(self, command, gamma_db, capsys):
        """AN blocking K directions needs L >= K + 1 chips, whether or not
        any trial transmits (at 40 dB none does)."""
        code = main([command, "--mode", "multicast-min-energy-an", "--k", "8", "--l", "8",
                     "--gamma-db", gamma_db, "--trials", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "DimensionError",
            "detail": "need dim >= K+1 to block 8 directions at dim 8"}

    def test_simulate_ber_runs(self, config_file, tmp_path):
        out = tmp_path / "ber.csv"
        code = main(["simulate-ber", config_file, "--trials", "2", "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert "ber_bob" in header and "ber_eve" in header

    def test_infeasible_design_exit_code(self, capsys):
        code = main(["design-p2p", "--gamma-db", "40", "--emax", "1", "--seed", "4"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoTransmitError"

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("schema_version = 1\nmode = nonsense\n")
        code = main(["sweep", str(bad)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"

    @pytest.mark.parametrize("line", ["noise_variance = inf", "interferer_energy = 1:inf",
                                      "interferer_energy = 1:nan"])
    def test_non_finite_scenario_input_exit_code(self, line, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"schema_version = 1\n{line}\n")
        assert main(["sweep", str(bad), "--trials", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValidationError"

    @pytest.mark.parametrize("line,args,seed", [
        ("seed = -1", [], -1),
        ("", ["--seed", "-3"], -3),
        ("", ["--seed", str(2**128)], 2**128),
    ])
    def test_out_of_range_seed_exit_code(self, line, args, seed, tmp_path, capsys):
        """A master seed must be a Philox key, in [0, 2**128)."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"schema_version = 1\n{line}\n")
        assert main(["sweep", str(bad), "--trials", "3"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValidationError", "detail": f"seed must be in [0, 2**128), got {seed}"}

    @pytest.mark.parametrize("lines,key", [
        ("sweep_values = 1, nan", "sweep_values"),
        ("sweep = emax\nsweep_values = 1, inf", "sweep_values"),
        ("gamma_db = nan", "gamma_db"),
        ("sweep = emax\ngamma_db = -inf", "gamma_db"),
    ])
    @pytest.mark.parametrize("mode", ["eigen-known-csi", "min-energy-no-an", "multicast-sdr"])
    def test_non_finite_sweep_input_exit_code(self, lines, key, mode, tmp_path, capsys):
        """Non-finite sweep inputs are rejected at the spec, naming the key,
        in every mode alike."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"schema_version = 1\nmode = {mode}\n{lines}\n")
        assert main(["sweep", str(bad), "--trials", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValidationError"
        assert err["detail"].startswith(f"{key} must be finite, got ")

    @pytest.mark.parametrize("command", [["sweep"], ["simulate-ber"], ["design-p2p"],
                                         ["design-multicast", "--k", "2"]])
    def test_singular_disturbance_exit_code(self, command, tmp_path, capsys):
        """At noise variance 1e-20 the first trial's R is not positive definite."""
        cfg = tmp_path / "tiny-noise.cfg"
        cfg.write_text("schema_version = 1\nnoise_variance = 1e-20\nseed = 1\n")
        assert main(command + [str(cfg), "--trials", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DefinitenessError"

    @pytest.mark.parametrize("command,mode", [("design-p2p", "multicast-sdr"),
                                              ("design-multicast", "eigen-known-csi")])
    def test_mode_mismatch_is_validation_error(self, command, mode, capsys):
        code = main([command, "--mode", mode])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    @pytest.mark.parametrize("mode", MODES)
    def test_design_matches_one_trial_sweep(self, mode, capsys):
        """A design command scores trial (0, 0) as a one-trial sweep does."""
        single = mode in SINGLE_RECEIVER_MODES
        args = ["--mode", mode, "--seed", "4", "--gamma-db", "6", "--emax", "5",
                "--k", "1" if single else "2"]
        command = "design-p2p" if single else "design-multicast"
        assert main([command] + args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["sweep", "--trials", "1"] + args) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["solvability"] == "1"
        assert cells["mean_sinr_eve_db"] == f"{payload['sinr_eve_db']:.9g}"
        assert cells["an_fraction"] == f"{payload['an_budget'] / 5.0:.9g}"

    def test_shipped_example_configs_parse(self):
        import pathlib

        configs = sorted(pathlib.Path(__file__).resolve().parent.parent.glob("configs/*.cfg"))
        assert len(configs) >= 6
        for path in configs:
            spec = sweep_spec_from_config(load_config_file(path))
            assert spec.values

    def test_scipy_stays_out_of_the_runtime(self, tmp_path):
        # A fresh interpreter imports the package and the CLI, designs one
        # SDR multicast transmission and runs a 2-trial BER simulation (which
        # starts the BER threads) without loading scipy, logging or
        # concurrent.futures: each adds to the start-up time.
        config = Path(__file__).resolve().parent.parent / "configs/ber-uncoded.cfg"
        ber = ["simulate-ber", str(config), "--trials", "2",
               "--out", str(tmp_path / "ber.csv")]
        code = ("import sys, securewave, securewave.cli\n"
                "assert securewave.cli.main(['design-multicast', '--k', '2', '--l', '8']) == 0\n"
                f"assert securewave.cli.main({ber!r}) == 0\n"
                "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'\n"
                "             or name in ('logging', 'concurrent.futures')))\n")
        src = str(Path(securewave.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert done.stdout.splitlines()[-1] == "[]"
