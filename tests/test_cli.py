"""Command-line behavior: verbs, overrides, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uwbnav
from uwbnav import attitude, harness, uwb
from uwbnav.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from uwbnav.uwb import TOPOLOGIES


def run_cli(*argv):
    return main(list(argv))


class TestSimulateVerb:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = run_cli("simulate", "--out", str(out), "--seed", "3")
        assert code == EXIT_OK
        for name in ("truth.csv", "imu.csv", "anchors.csv", "tdoa.csv"):
            assert (out / name).exists()
        assert "dataset" in capsys.readouterr().out

    def test_toa_topology_rejected(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", str(tmp_path / "ds"), "--topology", "toa")
        assert code == EXIT_CONFIG
        assert "tdoa" in capsys.readouterr().err

    def test_builds_no_per_sample_values(self, tmp_path, monkeypatch):
        # simulate writes the synthesized blocks as they are
        def refuse(*args):
            raise AssertionError("a per-sample value was built")

        # a stream takes its maker from the harness's names when it is built
        for module, name in ((attitude, "ImuSample"), (uwb, "Ranges"), (harness, "ImuSample"), (harness, "Ranges")):
            monkeypatch.setattr(module, name, refuse)
        cfg = tmp_path / "sim.yaml"
        cfg.write_text("duration: 1.0\nrate: 50.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "ds")) == EXIT_OK
        with pytest.raises(AssertionError, match="per-sample"):  # the guard bites on the row path
            run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r"))

    @pytest.mark.parametrize("flag", [["--rate", "50"], ["--variant", "quaternion"]], ids=["rate", "variant"])
    def test_run_only_flags_are_usage_errors(self, tmp_path, capsys, flag):
        # once exit 0 with the config's 100 Hz flight written: simulate reads neither flag
        with pytest.raises(SystemExit) as exit_info:
            run_cli("simulate", "--out", str(tmp_path / "ds"), *flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_config_file_short_run(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\nrate: 50.0\n")
        out = tmp_path / "ds"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        rows = (out / "truth.csv").read_text().splitlines()
        assert len(rows) == 52


class TestRunVerb:
    @pytest.fixture
    def quick(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\n")
        return cfg

    def test_run_writes_artifacts(self, quick, tmp_path, capsys):
        out = tmp_path / "r"
        assert run_cli("run", "--config", str(quick), "--out", str(out)) == EXIT_OK
        for name in ("truth.csv", "estimates.csv", "metrics.csv", "summary.json"):
            assert (out / name).exists()
        assert "final pos" in capsys.readouterr().out

    def test_flag_overrides_land_in_summary(self, quick, tmp_path):
        out = tmp_path / "r"
        code = run_cli(
            "run", "--config", str(quick), "--out", str(out),
            "--seed", "9", "--variant", "quaternion", "--topology", "tdoa-ring",
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 9
        assert summary["variant"] == "quaternion"
        assert summary["topology"] == "tdoa-ring"

    def test_rate_flag_decimates(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\nrate: 200.0\n")
        out = tmp_path / "r"
        code = run_cli("run", "--config", str(cfg), "--out", str(out), "--rate", "50")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 50

    def test_same_seed_byte_identical_metrics(self, quick, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("run", "--config", str(quick), "--out", str(out),
                           "--seed", "5") == EXIT_OK
            blobs.append((out / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_dataset_replay(self, tmp_path):
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 2.0\nrate: 100.0\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(
            f"mode: dataset\ndataset_dir: {ds}\nrate: 100.0\nduration: 2.0\n"
        )
        out = tmp_path / "r"
        code = run_cli("run", "--config", str(run_cfg), "--out", str(out), "--rate", "50")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 100

    def test_replay_clock_is_the_filter_rate(self, tmp_path):
        # once refused ("filter_rate must be positive and not above rate"): the
        # default rate of 100 Hz was checked against the log's 500 Hz clock
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 2.0\nrate: 500.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\nfilter_rate: 250.0\ntopology: tdoa-main\n")
        out = tmp_path / "r"
        assert run_cli("run", "--config", str(run_cfg), "--out", str(out)) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["steps"] == 500

    def test_replay_into_its_own_dataset_is_config_error(self, tmp_path, capsys, monkeypatch):
        # once exit 0 with the dataset's truth.csv cut to the run's 100 Hz rows,
        # after which every replay of it failed with "clocks disagree" (exit 3)
        monkeypatch.chdir(tmp_path)
        Path("sim.yaml").write_text("duration: 2.0\nrate: 500.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", "sim.yaml", "--out", "ds") == EXIT_OK
        dataset = {name: (tmp_path / "ds" / name).read_bytes() for name in ("truth.csv", "imu.csv")}
        Path("replay.yaml").write_text("mode: dataset\ndataset_dir: ds\nrate: 500.0\nduration: 2.0\n"
                                       "filter_rate: 100.0\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", "replay.yaml", "--out", "./ds/") == EXIT_CONFIG
        assert "config error: out: ./ds/ is the dataset directory" in capsys.readouterr().err
        assert {name: (tmp_path / "ds" / name).read_bytes() for name in dataset} == dataset
        assert not (tmp_path / "ds" / "estimates.csv").exists()
        assert run_cli("run", "--config", "replay.yaml", "--out", "r") == EXIT_OK

    def test_missing_dataset_dir_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"mode: dataset\ndataset_dir: {tmp_path / 'absent'}\n")
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_dataset_dir_at_a_file_is_config_error(self, tmp_path, capsys):
        # once reported as "dataset_dir does not exist" for a path that exists
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"mode: dataset\ndataset_dir: {taken}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        assert f"config error: dataset_dir is not a directory: {taken}" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"
        assert not (tmp_path / "r").exists()

    def test_dataset_mode_with_toa_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"mode: dataset\ndataset_dir: {tmp_path}\ntopology: toa\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        assert "tdoa" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_incomplete_dataset_dir_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "ds"
        empty.mkdir()
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"mode: dataset\ndataset_dir: {empty}\n")
        assert run_cli("run", "--config", str(cfg)) == EXIT_DATA
        assert "truth.csv" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("not_a_key: 1\n")
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["sigma_m: .nan", "sigma_range: -.inf", "sigma_range: .inf"])
    def test_bad_noise_sigma_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"duration: 1.0\ntopology: toa\n{line}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and line.split(":")[0] in err

    @pytest.mark.parametrize(
        "line",
        ["k1: -1", "m_r: [0, 0, 9.81]", "radius: .nan", "seed: 1.5", "seed: true", "seed: -1",
         "anchors: [[0, 0, 0], [1, 0, 0]]", "anchors: abc", "trajectory: replay"],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"duration: 1.0\ntopology: toa\n{line}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and line.split(":")[0] in err

    @pytest.mark.parametrize(
        "line",
        ["p_hat0: abc", "sigma_omega: abc", "s: [1, 1, x]", "anchors: [[0, 0, x]]",
         "duration: yes", "k1: true", "sigma_m: yes", "radius: yes", "p0: [1, 2, true]"],
    )
    def test_text_or_boolean_in_numeric_key_is_config_error(self, tmp_path, capsys, line):
        # non-numeric text once escaped as a bare ValueError, and a YAML
        # boolean once read silently as 1.0
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"duration: 1.0\ntopology: toa\n{line}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and line.split(":")[0] in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("line", ["dt: 0.01", "anchors_file: anchors.csv", "schedule: constant"])
    def test_retired_key_is_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"duration: 1.0\ntopology: toa\n{line}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown config keys" in err and line.split(":")[0] in err

    @pytest.mark.parametrize("verb", ["run", "simulate"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, verb):
        assert run_cli(verb, "--seed", "-1", "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb,topology", [("run", "toa"), ("simulate", "tdoa-main")])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_through_a_file_is_config_error(self, tmp_path, capsys, verb, topology, below):
        # once FileExistsError or NotADirectoryError (exit 1), for run only
        # after the whole filter loop
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"duration: 1.0\ntopology: {topology}\n")
        assert run_cli(verb, "--config", str(cfg), "--out", str(taken / below)) == EXIT_CONFIG
        assert f"config error: out: {taken} exists and is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("verb,topology", [("run", "toa"), ("simulate", "tdoa-main")])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_empty_out_is_config_error(self, tmp_path, capsys, monkeypatch, verb, topology, where):
        # once exit 0 with every artifact written into the working directory
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"duration: 1.0\ntopology: {topology}\n" + ('out: ""\n' if where == "config" else ""))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        flags = ["--out", ""] if where == "flag" else []
        assert run_cli(verb, "--config", str(cfg), *flags) == EXIT_CONFIG
        assert "config error: out: must name a directory, got ''" in capsys.readouterr().err
        assert not list(work.iterdir())

    def test_negative_sigma_hat0_is_config_error(self, tmp_path, capsys):
        # once exit 0 at the attitude antipode (att 0.994 after 10 s)
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\nsigma_hat0: [-20, 0, 0]\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        assert "config error: sigma_hat0 must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_sigma_decay_of_a_whole_step_is_config_error(self, tmp_path, capsys):
        # k_sigma * gamma_sigma / filter_rate = 1.9: once exit 0, with a sigma_hat
        # component below -10 on 11 steps
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\nk_sigma: 190\ngamma_sigma: 1.0\nsigma_hat0: [100, 0, 0]\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: k_sigma * gamma_sigma / filter_rate must be below 1, got 1.9" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "verb,topology", [("run", topology) for topology in TOPOLOGIES] + [("simulate", "tdoa-ring")]
    )
    def test_anchors_that_give_no_fix_are_config_error(self, tmp_path, capsys, verb, topology):
        # five anchors on the floor plane support no 3-D fix: once every step
        # of the flight ran as a dropout before the run exited 4
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            f"duration: 1.0\ntopology: {topology}\n"
            "anchors: [[-3, -3, 0], [3, -3, 0], [3, 3, 0], [-3, 3, 0], [0, 0, 0]]\n"
        )
        assert run_cli(verb, "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: anchors give no {topology} fix: system rank 2 below 3" in err
        assert not (tmp_path / "r").exists()

    def test_sample_ceiling_names_filter_rate(self, tmp_path, capsys):
        # a synthetic run samples its flight at filter_rate: the ceiling's refusal names that key, not rate
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 60\nfilter_rate: 1.0e6\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: filter_rate: duration * filter_rate gives 6e+07 samples, above the ceiling of 1e+07" in err
        assert not (tmp_path / "r").exists()

    def test_ill_conditioned_toa_anchors_are_config_error(self, tmp_path, capsys):
        # a rank-3 set 1e-8 m off a plane: every TOA solve is above the condition ceiling
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "duration: 1.0\ntopology: toa\n"
            "anchors: [[-3, -3, 0], [3, -3, 0], [3, 3, 0], [-3, 3, 1.0e-8], [0, 0, 0]]\n"
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: anchors give no toa fix: condition number" in err and "above ceiling" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("topology", TOPOLOGIES[1:])
    def test_every_step_dropped_is_numeric_error(self, tmp_path, capsys, topology):
        # a replayed flight whose accelerometer reads zero throughout: every
        # step's vector triads are degenerate, so every step is a dropout
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text(f"duration: 1.0\ntopology: {topology}\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        header, *rows = (ds / "imu.csv").read_text().splitlines()
        rows = [",".join(cells[:4] + ["0", "0", "0"] + cells[7:]) for cells in (row.split(",") for row in rows)]
        (ds / "imu.csv").write_text("\n".join([header, *rows]) + "\n")
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\ntopology: {topology}\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_NUMERIC
        assert "numerical failure: every step dropped its measurement" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_four_anchors_under_tdoa_main_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "duration: 1.0\ntopology: tdoa-main\n"
            "anchors: [[-3, -3, 0], [-3, -3, 3], [-3, 3, 0], [3, -3, 0]]\n"
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "anchors" in err

    def test_dataset_with_too_few_anchors_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 1.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        rows = (ds / "anchors.csv").read_text().splitlines()
        (ds / "anchors.csv").write_text("\n".join(rows[:5]) + "\n")
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_DATA
        assert "anchors.csv: anchors give no tdoa-main fix: need at least 5 anchors, got 4" in capsys.readouterr().err

    def test_dataset_with_coincident_anchors_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 1.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        header, first, second, *rest = (ds / "anchors.csv").read_text().splitlines()
        second = ",".join([second.split(",")[0]] + first.split(",")[1:])
        (ds / "anchors.csv").write_text("\n".join([header, first, second, *rest]) + "\n")
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_DATA
        assert "anchors.csv: anchors closer than the minimum separation" in capsys.readouterr().err

    def test_dataset_with_planar_anchors_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 1.0\ntopology: tdoa-ring\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        floor = [(-3, -3), (3, -3), (3, 3), (-3, 3), (0, 0), (1, 2), (-2, 1), (2, -1)]  # eight anchors at z = 0
        (ds / "anchors.csv").write_text("id,x,y,z\n" + "".join(f"{k},{x},{y},0\n" for k, (x, y) in enumerate(floor, 1)))
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\ntopology: tdoa-ring\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_DATA
        err = capsys.readouterr().err
        assert "anchors.csv: anchors give no tdoa-ring fix: system rank 2 below 3" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("verb", ["run", "simulate"])
    def test_non_utf8_config_is_config_error(self, tmp_path, capsys, verb):
        # once a UnicodeDecodeError traceback (exit 1) out of the config file's read
        cfg = tmp_path / "run.yaml"
        cfg.write_bytes(b"duration: 1.0\n# caf\xe9\ntopology: tdoa-main\n")
        assert run_cli(verb, "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert f"config error: {cfg}: byte 0xe9 is not UTF-8 text (line 2)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # the three time-series files past their first 8 KB, which the header read decodes;
    # anchors.csv within them
    @pytest.mark.parametrize("name,line", [("truth.csv", 150), ("imu.csv", 150), ("tdoa.csv", 900),
                                           ("anchors.csv", 4)])
    def test_non_utf8_dataset_file_is_data_error(self, tmp_path, capsys, name, line):
        # once a UnicodeDecodeError traceback (exit 1), raised again by the bad-cell scan
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 2.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        lines = (ds / name).read_bytes().splitlines(keepends=True)
        assert line < 5 or sum(map(len, lines[:line - 1])) > 8192
        lines[line - 1] = lines[line - 1][:3] + b"\xe9" + lines[line - 1][4:]
        (ds / name).write_bytes(b"".join(lines))
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_DATA
        assert f"data error: {name}: byte 0xe9 is not UTF-8 text (line {line})" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text,cell", [("1_0,1,2,0.5", "'1_0'"), ("１,1,2,0.5", "'１'"), ("   ", "'   '")],
                             ids=["underscore", "full-width", "blank"])
    def test_cell_numpy_refuses_is_data_error(self, tmp_path, capsys, text, cell):
        # numpy's own message, with 0-based rows, once reached the user
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 0.5\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        lines = (ds / "tdoa.csv").read_text().splitlines()
        lines[9] = text
        (ds / "tdoa.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_DATA
        assert f"data error: tdoa.csv: non-numeric value {cell} in column 't' (data row 9)" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_config_anchor_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "duration: 1.0\ntopology: toa\n"
            "anchors: [[-3, -3, 0], [-3, -3, 3], [-3, 3, 0], [3, -3, 0], [1.0e200, 3, 3]]\n"
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "anchors must lie within" in err

    @pytest.mark.filterwarnings("error")
    def test_dataset_with_overflowing_anchor_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 1.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        header, first, *rest = (ds / "anchors.csv").read_text().splitlines()
        first = ",".join(first.split(",")[:3] + ["1e200"])
        (ds / "anchors.csv").write_text("\n".join([header, first, *rest]) + "\n")
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_DATA
        assert "anchors.csv: anchors must lie within" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "simulate"])
    def test_huge_sample_count_is_config_error(self, tmp_path, capsys, verb):
        # once a "Maximum allowed size exceeded" traceback out of np.arange
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0e300\ntopology: tdoa-main\n")
        assert run_cli(verb, "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "duration" in err and "rate" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "verb,topology",
        [("run", "toa"), ("run", "tdoa-main"), ("run", "tdoa-ring"),
         ("simulate", "tdoa-main"), ("simulate", "tdoa-ring")],
    )
    @pytest.mark.parametrize("line", ["radius: 1.0e300", "p0: [0, 0, 1.0e200]", "tag_offset: [1.0e300, 0, 0]"])
    def test_flight_beyond_anchor_limit_is_config_error(self, tmp_path, capsys, verb, topology, line):
        # ranges from such a tag position overflow: once a "ranges must be
        # finite" / "range differences must be finite" traceback
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"duration: 1.0\ntopology: {topology}\n{line}\n")
        assert run_cli(verb, "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and line.split(":")[0] in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb,topology", [("run", "toa"), ("run", "tdoa-ring"), ("simulate", "tdoa-main")])
    @pytest.mark.parametrize(
        "lines,key",
        [
            (["sigma_a: 1.0e308"], "sigma_a"),
            (["sigma_omega: 1.0e308"], "sigma_omega"),
            (["sigma_m: 1.0e308"], "sigma_m"),
            (["sigma_range: 1.0e308"], "sigma_range"),
            (["radius: 1.0e100", "period: 1.0e-110"], "radius"),
        ],
    )
    def test_overflowing_reading_is_config_error(self, tmp_path, capsys, verb, topology, lines, key):
        # finite values whose readings overflow: once an "a_m must be a finite
        # 3-vector" / "ranges must be finite and non-negative" traceback
        cfg = tmp_path / "run.yaml"
        cfg.write_text("\n".join(["duration: 1.0", f"topology: {topology}", *lines]) + "\n")
        assert run_cli(verb, "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "o").exists()

    def test_negative_toa_range_is_config_error(self, tmp_path, capsys):
        # range noise larger than the ranges drives a TOA range below zero
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\nsigma_range: 10.0\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "sigma_range" in err

    @pytest.mark.parametrize("line", ["g_vec: [0, 0, 1.0e308]", "m_r: [1.0e308, 0, 1.0]"])
    def test_overflowing_reference_is_config_error(self, tmp_path, capsys, line):
        # once a DegenerateTriads traceback after a numpy overflow warning
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"duration: 1.0\ntopology: toa\n{line}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "g_vec and m_r must lie within" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["p_hat0: [1.0e300, 0, 0]", "v_hat0: [1.0e300, 0, 0]"])
    def test_overflowing_error_is_numeric_error(self, tmp_path, capsys, line):
        # once exit 0 with inf in metrics.csv and Infinity in summary.json
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"duration: 1.0\ntopology: toa\n{line}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical failure" in err and "pos_err and vel_err must be finite and nonnegative (data row 1)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sigma_norm_is_numeric_error(self, tmp_path, capsys):
        # one step from a finite 1e155 covariance bound: once exit 0 with inf
        # in metrics.csv's sigma_norm, after a numpy overflow warning
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 0.01\ntopology: toa\nsigma_hat0: [1.0e155, 0, 0]\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical failure: metrics: sigma_norm must be finite (data row 1)" in err
        assert not (tmp_path / "o").exists()

    # row 4's tick is replayed, row 11's (t = 0.002) is one the 100 Hz filter clock skips
    @pytest.mark.parametrize("row", [4, 11])
    @pytest.mark.parametrize("value", ["1e6", "1e200"])
    def test_difference_beyond_the_anchor_reach_is_data_error(self, tmp_path, capsys, value, row):
        # a finite d no anchor pair can give: once exit 0 with a 90 m steady-state error (1e6), or exit 4
        # from an overflowed position solve (1e200)
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 2.0\nrate: 500.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        lines = (ds / "tdoa.csv").read_text().splitlines()
        lines[row] = ",".join(lines[row].split(",")[:3] + [value])
        (ds / "tdoa.csv").write_text("\n".join(lines) + "\n")
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\nrate: 500.0\nfilter_rate: 100.0\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: tdoa.csv: value {float(value):g} in column 'd' (data row {row})" in err
        assert "twice the largest anchor separation" in err
        assert not (tmp_path / "r").exists()

    def test_stale_ranging_group_is_data_error(self, tmp_path, capsys):
        # tdoa.csv stops after one second of a three-second flight: once exit 0,
        # every later tick holding the last group
        ds = tmp_path / "ds"
        sim_cfg = tmp_path / "sim.yaml"
        sim_cfg.write_text("duration: 3.0\nrate: 500.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(ds)) == EXIT_OK
        header, *rows = (ds / "tdoa.csv").read_text().splitlines()
        (ds / "tdoa.csv").write_text("\n".join([header] + [r for r in rows if float(r.split(",")[0]) < 1.0]) + "\n")
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\nrate: 500.0\nfilter_rate: 100.0\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_DATA
        assert "data error: tdoa.csv: no ranging group near t=1.0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_gapped_clock_is_data_error(self, tmp_path, capsys):
        # rows with t in [10, 10.2) cut from truth.csv and imu.csv: once 1,980 steps and exit 0, the gap stepped as
        # one 0.01 s interval and the truth velocity differentiated across it (a 32.7 m/s scored error)
        ds = tmp_path / "ds"
        (tmp_path / "sim.yaml").write_text("duration: 20.0\nrate: 500.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(tmp_path / "sim.yaml"), "--out", str(ds)) == EXIT_OK
        for name in ("truth.csv", "imu.csv"):
            header, *rows = (ds / name).read_text().splitlines()
            kept = [r for r in rows if not 10.0 <= float(r.split(",", 1)[0]) < 10.2]
            assert len(rows) - len(kept) == 100
            (ds / name).write_text("\n".join([header] + kept) + "\n")
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\nrate: 500.0\nfilter_rate: 100.0\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error: truth.csv: 0.202 s gap before t=10.2, over 1.5 times the median spacing 0.002 s" in err
        assert not (tmp_path / "r").exists()

    def test_jittered_clock_replays(self, tmp_path, capsys):
        # a sensor clock whose every stamp is off by up to 10% of its spacing is no gap
        ds = tmp_path / "ds"
        (tmp_path / "sim.yaml").write_text("duration: 3.0\nrate: 500.0\ntopology: tdoa-main\n")
        assert run_cli("simulate", "--config", str(tmp_path / "sim.yaml"), "--out", str(ds)) == EXIT_OK
        jitter = np.random.default_rng(18).uniform(-0.1, 0.1, 1501) * 0.002
        for name in ("truth.csv", "imu.csv"):
            header, *rows = (ds / name).read_text().splitlines()
            stamps = (float(r.split(",", 1)[0]) + e for r, e in zip(rows, jitter.tolist()))
            rows = [f"{t!r},{r.split(',', 1)[1]}" for t, r in zip(stamps, rows)]
            (ds / name).write_text("\n".join([header] + rows) + "\n")
        run_cfg = tmp_path / "replay.yaml"
        run_cfg.write_text(f"mode: dataset\ndataset_dir: {ds}\nrate: 500.0\nfilter_rate: 100.0\ntopology: tdoa-main\n")
        assert run_cli("run", "--config", str(run_cfg), "--out", str(tmp_path / "r")) == EXIT_OK
        assert json.loads((tmp_path / "r" / "summary.json").read_text())["steps"] == 300

    def test_runaway_gain_is_numeric_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 2.0\ntopology: toa\nka: 1.0e12\n")
        with np.errstate(all="ignore"):
            code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r"))
        assert code == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err


class TestMetricsVerb:
    def test_recompute_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\n")
        out = tmp_path / "r"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        original = (out / "metrics.csv").read_text()
        assert run_cli("metrics", str(out)) == EXIT_OK
        assert "100 rows" in capsys.readouterr().out
        redone = np.loadtxt(out / "metrics.csv", delimiter=",", skiprows=1)
        first = np.loadtxt(original.splitlines()[1:], delimiter=",", ndmin=2)
        assert np.allclose(first[:, 2], redone[:, 2], atol=1e-15)

    def test_non_finite_truth_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\n")
        out = tmp_path / "r"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        lines = (out / "truth.csv").read_text().splitlines()
        parts = lines[5].split(",")
        parts[1] = "nan"
        lines[5] = ",".join(parts)
        (out / "truth.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("metrics", str(out)) == EXIT_DATA
        assert "truth.csv: non-finite value in column 'px'" in capsys.readouterr().err

    def test_non_unit_truth_quaternion_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\n")
        out = tmp_path / "r"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        lines = (out / "truth.csv").read_text().splitlines()
        parts = lines[5].split(",")
        parts[4] = "5"
        lines[5] = ",".join(parts)
        (out / "truth.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("metrics", str(out)) == EXIT_DATA
        assert "truth.csv: columns 'qw'..'qz' are not a unit quaternion (data row 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [0, 1])
    def test_truth_of_fewer_than_two_rows_is_data_error(self, tmp_path, capsys, rows):
        # once two numpy RuntimeWarnings from the median of an empty diff,
        # then "need at least 5 samples"
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\n")
        out = tmp_path / "r"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        lines = (out / "truth.csv").read_text().splitlines()
        (out / "truth.csv").write_text("\n".join(lines[: 1 + rows]) + "\n")
        assert run_cli("metrics", str(out)) == EXIT_DATA
        assert "data error: truth.csv needs at least two samples" in capsys.readouterr().err

    @staticmethod
    def _run_dir(tmp_path):
        """The directory ``tmp_path/r`` of a short TOA run."""
        cfg = tmp_path / "run.yaml"
        cfg.write_text("duration: 1.0\ntopology: toa\n")
        out = tmp_path / "r"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        return out

    @classmethod
    def _edit_estimates(cls, tmp_path, row, column, value, name="estimates.csv"):
        """A short TOA run whose estimates.csv (or file ``name``) has ``column`` of data row ``row`` set to ``value``.

        ``value`` None drops that cell and every cell after it from the row.
        """
        out = cls._run_dir(tmp_path)
        lines = (out / name).read_text().splitlines()
        k = lines[0].split(",").index(column)
        parts = lines[row].split(",")
        parts = parts[:k] if value is None else parts[:k] + [value] + parts[k + 1:]
        lines[row] = ",".join(parts)
        (out / name).write_text("\n".join(lines) + "\n")
        return out

    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("vx", "abc", "non-numeric value 'abc' in column 'vx' (data row 5)"),
            # float() reads these, numpy's parser does not: numpy's own message once reached the user
            ("vx", "1_0", "non-numeric value '1_0' in column 'vx' (data row 5)"),
            ("s2", "１", "non-numeric value '１' in column 's2' (data row 5)"),
            ("dropout", None, "no value for column 'dropout' (data row 5)"),
            ("qw", "5", "columns 'qw'..'qz' are not a unit quaternion (data row 5)"),
            ("px", "inf", "non-finite value in column 'px' (data row 5)"),
            ("e_r", "nan", "non-finite value in column 'e_r' (data row 5)"),
            ("dropout", "2", "column 'dropout' must be 0 or 1 (data row 5)"),
        ],
    )
    def test_malformed_estimates_is_data_error(self, tmp_path, capsys, column, value, message):
        out = self._edit_estimates(tmp_path, 5, column, value)
        before = (out / "metrics.csv").read_bytes()
        assert run_cli("metrics", str(out)) == EXIT_DATA
        assert f"estimates.csv: {message}" in capsys.readouterr().err
        assert (out / "metrics.csv").read_bytes() == before

    @pytest.mark.parametrize("row", [5, 101], ids=["between", "after"])
    def test_whitespace_line_is_data_error(self, tmp_path, capsys, row):
        # a line of spaces is a data row; numpy's "number of columns changed" message once reached the user
        out = self._run_dir(tmp_path)
        lines = (out / "estimates.csv").read_text().splitlines()
        lines.insert(row, "  ")
        (out / "estimates.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("metrics", str(out)) == EXIT_DATA
        assert f"estimates.csv: non-numeric value '  ' in column 't' (data row {row})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,column,value,row",
        [("estimates.csv", "px", "1.0e300", 5), ("estimates.csv", "vz", "-1.0e300", 5),
         # the truth velocity's first Savitzky-Golay window holds row 5
         ("truth.csv", "pz", "1.0e300", 1)],
    )
    def test_overflowing_error_is_data_error(self, tmp_path, capsys, name, column, value, row):
        # once exit 0 with inf in metrics.csv, after a numpy overflow warning
        out = self._edit_estimates(tmp_path, 5, column, value, name)
        before = (out / "metrics.csv").read_bytes()
        assert run_cli("metrics", str(out)) == EXIT_DATA
        assert (
            "data error: estimates.csv against truth.csv: pos_err and vel_err must be finite and nonnegative "
            f"(data row {row})"
        ) in capsys.readouterr().err
        assert (out / "metrics.csv").read_bytes() == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column", ["s1", "s3"])
    def test_overflowing_sigma_norm_is_data_error(self, tmp_path, capsys, column):
        # once exit 0 with inf in metrics.csv's sigma_norm, after a numpy overflow warning
        out = self._edit_estimates(tmp_path, 5, column, "1.0e300")
        before = (out / "metrics.csv").read_bytes()
        assert run_cli("metrics", str(out)) == EXIT_DATA
        assert "data error: estimates.csv against truth.csv: sigma_norm must be finite (data row 5)" in (
            capsys.readouterr().err
        )
        assert (out / "metrics.csv").read_bytes() == before

    def test_dropout_row_may_carry_nan_residuals(self, tmp_path, capsys):
        out = self._edit_estimates(tmp_path, 5, "dropout", "1")
        lines = (out / "estimates.csv").read_text().splitlines()
        parts = lines[5].split(",")
        parts[14:16] = ["nan", "nan"]
        lines[5] = ",".join(parts)
        (out / "estimates.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("metrics", str(out)) == EXIT_OK
        assert "100 rows" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["estimates.csv", "truth.csv"])
    def test_non_utf8_input_is_data_error(self, tmp_path, capsys, name):
        # once a UnicodeDecodeError traceback (exit 1) out of the header read
        out = self._run_dir(tmp_path)
        before = (out / "metrics.csv").read_bytes()
        lines = (out / name).read_bytes().splitlines(keepends=True)
        lines[5] = b"\xff" + lines[5][1:]
        (out / name).write_bytes(b"".join(lines))
        assert run_cli("metrics", str(out)) == EXIT_DATA
        assert f"data error: {name}: byte 0xff is not UTF-8 text (line 6)" in capsys.readouterr().err
        assert (out / "metrics.csv").read_bytes() == before

    def test_out_in_a_missing_directory(self, tmp_path, capsys):
        # once FileNotFoundError (exit 1); run creates its output directory too
        out = self._run_dir(tmp_path)
        target = tmp_path / "new" / "deeper" / "m.csv"
        assert run_cli("metrics", str(out), "--out", str(target)) == EXIT_OK
        assert f"metrics: 100 rows -> {target}" in capsys.readouterr().out
        assert len(target.read_text().splitlines()) == 101

    @pytest.mark.parametrize("target", ["r", "taken/m.csv"])
    def test_out_at_a_directory_or_through_a_file_is_config_error(self, tmp_path, capsys, target):
        # once IsADirectoryError or NotADirectoryError (exit 1)
        out = self._run_dir(tmp_path)
        (tmp_path / "taken").write_text("kept\n")
        assert run_cli("metrics", str(out), "--out", str(tmp_path / target)) == EXIT_CONFIG
        assert "config error: out: " in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == "kept\n"

    @pytest.mark.parametrize("name", ["estimates.csv", "truth.csv"])
    def test_out_at_an_input_file_is_config_error(self, tmp_path, capsys, name):
        # once exit 0 with that input replaced by the metrics table, after which
        # every re-score of the run failed with "missing column" (exit 3)
        out = self._run_dir(tmp_path)
        kept = (out / name).read_bytes()
        target = f"{out}/../r/{name}"  # another spelling of the input's path
        assert run_cli("metrics", str(out), "--out", target) == EXIT_CONFIG
        role = name.removesuffix(".csv")
        assert f"config error: out: {target} is the {role} file being read" in capsys.readouterr().err
        assert (out / name).read_bytes() == kept
        assert run_cli("metrics", str(out)) == EXIT_OK

    def test_missing_run_dir(self, tmp_path, capsys):
        assert run_cli("metrics", str(tmp_path / "absent")) == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "uwbnav.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "metrics" in proc.stdout


# importing scipy cost most of a cold start; the package needs none of it
# (the tests use it as an independent oracle)
HEAVY_SCIPY = ("scipy",)

_ROUND_TRIP = """
import contextlib, io, sys
from pathlib import Path
import uwbnav.cli
work = Path(sys.argv[1])
lever = "tag_offset: [-0.012, 0.001, 0.091]"
(work / "sim.yaml").write_text(f"duration: 2.0\\nrate: 500.0\\n{lever}\\n")
(work / "ds").mkdir()
(work / "run.yaml").write_text(
    f"mode: dataset\\ndataset_dir: {work / 'ds'}\\nrate: 500.0\\nfilter_rate: 100.0\\n{lever}\\n"
)
verbs = [
    ["simulate", "--topology", "tdoa-main", "--config", str(work / "sim.yaml"), "--out", str(work / "ds")],
    ["run", "--topology", "tdoa-main", "--config", str(work / "run.yaml"), "--out", str(work / "run")],
    ["metrics", str(work / "run")],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in verbs:
        assert uwbnav.cli.main(argv) == 0, argv
heavy = sys.argv[2].split(",")
print(" ".join(sorted(m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in heavy))))
"""


class TestImportDiscipline:
    def test_round_trip_loads_no_heavy_scipy(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(uwbnav.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _ROUND_TRIP, str(tmp_path), ",".join(HEAVY_SCIPY)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run" / "metrics.csv").exists()
        assert proc.stdout.split() == []

    def test_cold_start_loads_no_scipy(self):
        # what a fresh process pays before its first step: the CLI and one config
        child = (
            "import sys\n"
            "import uwbnav.cli\n"
            "from uwbnav.harness import load_config\n"
            "load_config(sys.argv[1], {'topology': 'tdoa-ring'})\n"
            "print(' '.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(uwbnav.__file__).resolve().parents[1]))
        config = Path(__file__).resolve().parent.parent / "configs" / "circle.yaml"
        proc = subprocess.run(
            [sys.executable, "-c", child, str(config)], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []
