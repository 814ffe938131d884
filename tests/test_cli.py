import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helikin import cli, fileio, simulation
from helikin.cli import SPEC_PATH_ENV, build_parser, main
from helikin.estimation import compare_point_sequences
from helikin.geometry import derive_geometry
from helikin.kinematics import TipTrajectory, joint_from_actuation
from helikin.presets import default_tendon, default_tube

from .oracles import write_marker_table


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "device.json"
    path.write_text(fileio.dump_tube_spec(default_tube(), default_tendon()))
    return str(path)


class TestGeometryCommand:
    def test_writes_derived_json(self, tmp_path, spec_file, capsys):
        out = tmp_path / "derived.json"
        assert main(["geometry", "--spec", spec_file, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["composite_na_offset"] == pytest.approx(0.4574, abs=5e-4)
        assert payload["na_length"] == pytest.approx(64.0645, abs=5e-4)
        captured = capsys.readouterr()
        assert "pattern diagnostics" in captured.out

    def test_degenerate_half_angle_warns(self, tmp_path, capsys):
        payload = json.loads(fileio.dump_tube_spec(default_tube()))
        payload["tube"]["remaining_half_angle"] = 180.0 - 1e-10  # y_notch about 5e-13 mm
        path = tmp_path / "flat_annulus.json"
        path.write_text(json.dumps(payload))
        assert main(["geometry", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert "cannot form a helix" in out

    @pytest.mark.parametrize("command", [["geometry"], ["shape", "--stroke", "0", "-o", "shape.csv"]])
    def test_full_annulus_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        # A full annulus has no straight joint state (R = y_na = 0): refused with the spec.
        payload = json.loads(fileio.dump_tube_spec(default_tube()))
        payload["tube"]["remaining_half_angle"] = 180.0
        path = tmp_path / "annulus.json"
        path.write_text(json.dumps(payload))
        assert main([command[0], "--spec", str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "remaining_half_angle must lie in (0, pi)" in err

    def test_missing_field_exits_2(self, tmp_path, capsys):
        payload = json.loads(fileio.dump_tube_spec(default_tube()))["tube"]
        del payload["patterned_length"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        assert main(["geometry", "--spec", str(path)]) == 2
        assert "patterned_length" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["geometry", "--spec", str(path)]) == 2

    @staticmethod
    def _spec_with_turn_count(tmp_path, text):
        payload = json.loads(fileio.dump_tube_spec(default_tube(), default_tendon()))
        payload["tube"]["turn_count"] = "TURNS"
        path = tmp_path / "turns.json"
        path.write_text(json.dumps(payload).replace('"TURNS"', text))
        return str(path)

    @pytest.mark.parametrize("text", ["1.5", "2.9", "true", "1e400"])
    def test_non_integral_turn_count_exits_2(self, tmp_path, capsys, text):
        path = self._spec_with_turn_count(tmp_path, text)
        assert main(["geometry", "--spec", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: turn_count must be an integer >= 1")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["geometry", "shape"])
    @pytest.mark.parametrize("text", ["1e200", "1" + "0" * 400], ids=["1e200", "401-digit"])
    def test_huge_turn_count_exits_2(self, tmp_path, capsys, command, text):
        path = self._spec_with_turn_count(tmp_path, text)
        out = tmp_path / "out"
        argv = [command, "--spec", path, "-o", str(out)]
        assert main(argv + (["--stroke", "2.0"] if command == "shape" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: turn_count must be an integer >= 1")
        assert err.count("\n") == 1 and not out.exists()

    def test_integral_float_turn_count_loads_as_int(self, tmp_path, capsys):
        path = self._spec_with_turn_count(tmp_path, "2.0")
        tube, _ = fileio.load_device_spec(path)
        assert tube.turn_count == 2 and type(tube.turn_count) is int
        assert main(["geometry", "--spec", path]) == 0
        assert "(turns: 2)" in capsys.readouterr().out

    def test_env_var_supplies_spec(self, tmp_path, spec_file, monkeypatch):
        monkeypatch.setenv(SPEC_PATH_ENV, spec_file)
        out = tmp_path / "derived.json"
        assert main(["geometry", "-o", str(out)]) == 0
        assert out.exists()


class TestShapeCommand:
    def test_writes_curve(self, tmp_path, spec_file):
        out = tmp_path / "curve.csv"
        assert main(["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(out)]) == 0
        curve = fileio.read_backbone_csv(out)
        assert len(curve) == 129
        assert np.linalg.norm(curve.tip) == pytest.approx(60.953, abs=1e-3)

    def test_over_actuation_exits_3(self, tmp_path, spec_file):
        out = tmp_path / "curve.csv"
        assert main(["shape", "--spec", spec_file, "--stroke", "9.9", "-o", str(out)]) == 3

    def test_missing_input_file_exits_4(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["shape", "--spec", str(tmp_path / "nope.json"), "--stroke", "1", "-o", str(out)]
        )
        assert code == 4


class TestSweepCommand:
    def test_ramp_sweep(self, tmp_path, spec_file):
        out = tmp_path / "joints.csv"
        assert (
            main(
                [
                    "sweep", "--spec", spec_file, "--stroke-max", "4.0",
                    "--steps", "9", "-o", str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "dl_t_mm,T_N,R_mm,H_mm,phi_rad,theta_rad"
        assert len(lines) == 10

    def test_sweep_from_strokes_csv(self, tmp_path, spec_file):
        strokes = tmp_path / "strokes.csv"
        strokes.write_text("dl_t_mm,T_N\n0,0\n2,0\n")
        out = tmp_path / "joints.csv"
        assert main(["sweep", "--spec", spec_file, "--strokes", str(strokes), "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_dataset_bundle_emitted(self, tmp_path, spec_file):
        out = tmp_path / "joints.csv"
        bundle = tmp_path / "bundle"
        code = main(
            [
                "sweep", "--spec", spec_file, "--stroke-max", "3.0", "--steps", "5",
                "--noise-sigma", "0.2", "--seed", "7",
                "--dataset-dir", str(bundle), "-o", str(out),
            ]
        )
        assert code == 0
        assert (bundle / "spec.json").exists()
        assert (bundle / "tip.csv").exists()

    def test_requires_profile_source(self, tmp_path, spec_file):
        assert main(["sweep", "--spec", spec_file, "-o", str(tmp_path / "x.csv")]) == 2

    def test_negative_seed_exits_2(self, tmp_path, spec_file, capsys):
        out = tmp_path / "x.csv"
        code = main(
            [
                "sweep", "--spec", spec_file, "--stroke-max", "3", "--steps", "5",
                "--seed", "-1", "-o", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: noise seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_nan_theta_exits_2(self, tmp_path, spec_file, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--spec", spec_file, "--stroke-max", "3", "--theta-deg", "nan", "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: roll angle theta must be finite, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--stroke-max", "--tension"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_ramp_exits_2(self, tmp_path, spec_file, capsys, option, value):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--spec", spec_file, "--stroke-max", "3", f"{option}={value}", "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {option} must be finite, got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("markers, cell", [("abc", "abc"), ("1,,2", ""), ("10,2x", "2x"), ("", "")])
    def test_bad_marker_cell_exits_2(self, tmp_path, spec_file, capsys, markers, cell):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--spec", spec_file, "--stroke-max", "3", "--markers", markers, "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --markers: not an arc length: {cell!r}\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "header, message",
        [
            (
                'stroke_mm,dl_t_mm,"T_,0,0',
                "expected header starting with dl_t_mm, got stroke_mm,dl_t_mm,T_,0,0\\n",
            ),
            (
                'dl_t_mm,"T_,0,0',
                "unexpected columns T_,0,0\\n after dl_t_mm; optional columns must be exactly T_N",
            ),
        ],
        ids=["expected-header", "unexpected-columns"],
    )
    def test_header_cell_with_a_line_break_errs_on_one_line(
        self, tmp_path, spec_file, capsys, header, message
    ):
        # The unbalanced quote runs the last header cell into the line break.
        strokes = tmp_path / "f.csv"
        strokes.write_text(f"{header}\n0,0\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--spec", spec_file, "--strokes", str(strokes), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {strokes}: {message}\n"
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_markers_alike_at_12_digits_get_files_of_their_own(self, tmp_path, spec_file, capsys):
        out, bundle = tmp_path / "x.csv", tmp_path / "d"
        argv = [
            "sweep", "--spec", spec_file, "--stroke-max", "3", "--markers", "20,20.000000000001",
            "--dataset-dir", str(bundle), "-o", str(out),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(f"wrote 7 dataset files to {bundle}\n")
        names = sorted(p.name for p in bundle.iterdir())
        assert names == sorted([
            "spec.json", "joints.csv", "tip.csv", "marker_20.csv", "marker_20_truth.csv",
            "marker_20p000000000001.csv", "marker_20p000000000001_truth.csv",
        ])

    def test_duplicate_markers_exit_2(self, tmp_path, spec_file, capsys):
        out, bundle = tmp_path / "x.csv", tmp_path / "d"
        argv = [
            "sweep", "--spec", spec_file, "--stroke-max", "3", "--markers", "10,10",
            "--noise-sigma", "0.1", "--dataset-dir", str(bundle), "-o", str(out),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: marker arc length 10.0 mm given more than once\n"
        assert not out.exists() and not bundle.exists()


class TestFtlCommand:
    def test_rest_joint_traces_x_axis(self, tmp_path, spec_file):
        out = tmp_path / "tip.csv"
        assert main(["ftl", "--spec", spec_file, "--stroke", "0.0", "-o", str(out)]) == 0
        trajectory = fileio.read_tip_csv(out)
        assert len(trajectory) == 101
        off_axis = np.linalg.norm(trajectory.points[:, 1:], axis=1)
        assert np.max(off_axis) < 1e-6

    def test_eta_steps_flag(self, tmp_path, spec_file):
        out = tmp_path / "tip.csv"
        code = main(
            ["ftl", "--spec", spec_file, "--stroke", "2.0", "--eta-steps", "11", "-o", str(out)]
        )
        assert code == 0
        assert len(fileio.read_tip_csv(out)) == 11

    def test_infinite_theta_exits_2(self, tmp_path, spec_file, capsys):
        out = tmp_path / "tip.csv"
        argv = ["ftl", "--spec", spec_file, "--stroke", "2.0", "--theta-deg", "inf", "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: roll angle theta must be finite, got inf\n"
        assert not out.exists()

    def test_bodies_dir_holds_every_body(self, tmp_path, spec_file):
        bodies_dir = tmp_path / "bodies"
        joint_args = ["--stroke", "3.1", "--tension", "0.5", "--theta-deg", "20"]
        argv = ["ftl", "--spec", spec_file, *joint_args, "--eta-steps", "23"]
        assert main([*argv, "--bodies-dir", str(bodies_dir), "-o", str(tmp_path / "tip.csv")]) == 0
        geom = derive_geometry(default_tube())
        joint = joint_from_actuation(3.1, 0.5, default_tendon(), geom, math.radians(20.0))
        grid = simulation.default_eta_grid(23)
        _, bodies = simulation.ftl_run(joint, geom, grid)
        written = sorted(bodies_dir.iterdir())
        assert [p.name for p in written] == [f"body_eta_{eta:.4f}.csv" for eta in grid]
        for path, body in zip(written, bodies):
            fileio.write_backbone_csv(tmp_path / "expected.csv", body)
            assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes(), path.name
        shape = tmp_path / "shape.csv"
        assert main(["shape", "--spec", spec_file, *joint_args, "-o", str(shape)]) == 0
        assert written[-1].read_bytes() == shape.read_bytes()

    def test_bodies_dir_names_steps_finer_than_four_decimals_apart(self, tmp_path, spec_file, monkeypatch):
        grid = np.array([0.0, 0.5, 0.50001, 0.500012, 1.0])
        monkeypatch.setattr(cli, "default_eta_grid", lambda steps: grid)
        bodies_dir = tmp_path / "bodies"
        argv = ["ftl", "--spec", spec_file, "--stroke", "3.1", "--bodies-dir", str(bodies_dir)]
        assert main([*argv, "-o", str(tmp_path / "tip.csv")]) == 0
        names = [f"body_eta_{eta:.6f}.csv" for eta in grid]
        assert sorted(p.name for p in bodies_dir.iterdir()) == names
        joint = joint_from_actuation(3.1, 0.0, default_tendon(), derive_geometry(default_tube()))
        _, bodies = simulation.ftl_run(joint, derive_geometry(default_tube()), grid)
        for name, body in zip(names, bodies):
            assert fileio.read_backbone_csv(bodies_dir / name).s.size == len(body)

    @pytest.mark.parametrize("steps, digits", [(41, 4), (10001, 4), (10002, 5), (20001, 5), (100001, 5), (100002, 6)])
    def test_body_names_of_a_default_grid(self, steps, digits):
        grid = simulation.default_eta_grid(steps)
        names = fileio._distinct_tags(grid, "f", 4)
        assert len(set(names)) == steps
        assert names == [f"{eta:.{digits}f}" for eta in grid]


class TestEstimateCommand:
    def test_position_round_trip(self, tmp_path, spec_file):
        tip_csv = tmp_path / "tip.csv"
        joints_csv = tmp_path / "joints.csv"
        estimates_csv = tmp_path / "estimates.csv"
        assert main(["ftl", "--spec", spec_file, "--stroke", "2.0", "-o", str(tip_csv)]) == 0

        # drop eta = 0 (origin carries no shape information)
        trajectory = fileio.read_tip_csv(tip_csv)
        write_marker_table(tmp_path / "tips.csv", trajectory.eta[1:], trajectory.points[1:])

        code = main(
            [
                "estimate", "--spec", spec_file, "--method", "position",
                "-i", str(tmp_path / "tips.csv"), "-o", str(estimates_csv),
            ]
        )
        assert code == 0
        lines = estimates_csv.read_text().splitlines()
        assert lines[0] == "eta,H_mm,phi_truth_rad,R_mm,phi_model_rad"
        # during FTL deployment the exposed-tip norm varies, but at full
        # deployment the estimate must recover the generating joint
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == pytest.approx(60.95298822973639, abs=1e-9)
        assert last[2] == pytest.approx(0.2696983773706072, abs=1e-9)
        assert last[3] == pytest.approx(3.138983758103423, abs=1e-9)
        assert last[4] == pytest.approx(last[2], abs=1e-9)

    def test_position_records_per_sample_failures(self, tmp_path, spec_file, capsys):
        tips = tmp_path / "tips.csv"
        out = tmp_path / "estimates.csv"
        points = np.array([[60.9, 5.0, 1.0], [100.0, 0.0, 0.0], [64.0, 0.0, 0.0]])
        write_marker_table(tips, np.array([0.0, 0.5, 1.0]), points)
        args = [
            "estimate", "--spec", spec_file, "--method", "position",
            "-i", str(tips), "-o", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[2] == "0.5,nan,nan,nan,nan"
        assert all("nan" not in line for line in (lines[1], lines[3]))
        captured = capsys.readouterr()
        assert captured.err.startswith("sample 1: tip norm 100")
        assert "2/3 ok" in captured.out

    def test_position_exits_3_when_every_sample_fails(self, tmp_path, spec_file, capsys):
        tips = tmp_path / "tips.csv"
        write_marker_table(tips, np.array([0.0]), np.array([[100.0, 0.0, 0.0]]))
        out = tmp_path / "estimates.csv"
        args = [
            "estimate", "--spec", spec_file, "--method", "position",
            "-i", str(tips), "-o", str(out),
        ]
        assert main(args) == 3
        assert out.read_text().splitlines()[1] == "0,nan,nan,nan,nan"
        assert "sample 0:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "point, message",
        [
            ([1e200, 0.0, 0.0], "sample 0: tip [1e+200, 0.0, 0.0] is finite, but its squared norm overflows"),
            ([60.0, math.nan, 0.0], "sample 0: tip [60.0, nan, 0.0] has non-finite coordinates"),
        ],
        ids=["overflow", "non-finite"],
    )
    def test_position_names_why_a_tip_has_no_norm(self, tmp_path, spec_file, capsys, point, message):
        tips = tmp_path / "tips.csv"
        write_marker_table(tips, np.array([0.0]), np.array([point]))
        out = tmp_path / "estimates.csv"
        args = [
            "estimate", "--spec", spec_file, "--method", "position",
            "-i", str(tips), "-o", str(out),
        ]
        assert main(args) == 3
        assert out.read_text().splitlines()[1] == "0,nan,nan,nan,nan"
        assert capsys.readouterr().err == message + "\n"

    def test_stroke_round_trip(self, tmp_path, spec_file):
        strokes = tmp_path / "strokes.csv"
        strokes.write_text("dl_t_mm,T_N\n0,0\n2,0\n")
        out = tmp_path / "estimates.csv"
        code = main(
            [
                "estimate", "--spec", spec_file, "--method", "stroke",
                "--theta-deg", "30", "-i", str(strokes), "-o", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        row = [float(v) for v in lines[2].split(",")]
        assert row[2] == pytest.approx(3.138983758103423, rel=1e-9)
        assert row[5] == pytest.approx(np.radians(30.0), rel=1e-12)

    def test_stroke_nan_theta_exits_2(self, tmp_path, spec_file, capsys):
        strokes = tmp_path / "strokes.csv"
        strokes.write_text("dl_t_mm,T_N\n0,0\n2,0\n")
        out = tmp_path / "estimates.csv"
        argv = ["estimate", "--spec", spec_file, "--method", "stroke", "--theta-deg", "nan"]
        assert main([*argv, "-i", str(strokes), "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: roll angle theta must be finite, got nan\n"
        assert not out.exists()

    def test_stroke_on_a_bundle_marker_csv_gives_the_sweep_joints(self, tmp_path, spec_file):
        # Ramp strokes in steps of 0.25 mm print exactly, so the estimate
        # from the tip file's dl_t_mm,T_N columns repeats joints.csv.
        joints = tmp_path / "joints.csv"
        sweep = ["sweep", "--spec", spec_file, "--stroke-max", "4", "--steps", "17", "--theta-deg", "25"]
        assert main([*sweep, "--dataset-dir", str(tmp_path / "bundle"), "-o", str(joints)]) == 0
        out = tmp_path / "estimates.csv"
        estimate = ["estimate", "--spec", spec_file, "--method", "stroke", "--theta-deg", "25"]
        assert main([*estimate, "-i", str(tmp_path / "bundle" / "tip.csv"), "-o", str(out)]) == 0
        assert out.read_bytes() == joints.read_bytes()

    def test_stroke_on_a_quoted_marker_header(self, tmp_path, spec_file):
        # The readers parse the header as CSV, so the kind of file is told the same way.
        write_marker_table(tmp_path / "plain.csv", np.array([0.0, 1.0]), np.ones((2, 3)), np.array([1.0, 2.0]))
        lines = (tmp_path / "plain.csv").read_text().splitlines(keepends=True)
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('"eta","x_mm","y_mm","z_mm","dl_t_mm","T_N"\n' + "".join(lines[1:]))
        argv = ["estimate", "--spec", spec_file, "--method", "stroke", "-o"]
        assert main([*argv, str(tmp_path / "a.csv"), "-i", str(tmp_path / "plain.csv")]) == 0
        assert main([*argv, str(tmp_path / "b.csv"), "-i", str(quoted)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_stroke_on_a_crlf_marker_csv_reads_it_as_a_marker_file(self, tmp_path, spec_file):
        write_marker_table(tmp_path / "lf.csv", np.array([0.0, 1.0]), np.ones((2, 3)), np.array([1.0, 2.0]))
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes((tmp_path / "lf.csv").read_bytes().replace(b"\n", b"\r\n"))
        argv = ["estimate", "--spec", spec_file, "--method", "stroke", "-o"]
        assert main([*argv, str(tmp_path / "a.csv"), "-i", str(tmp_path / "lf.csv")]) == 0
        assert main([*argv, str(tmp_path / "b.csv"), "-i", str(crlf)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_stroke_on_a_marker_csv_without_actuation_exits_2(self, tmp_path, spec_file, capsys):
        markers = tmp_path / "markers.csv"
        write_marker_table(markers, np.array([0.0, 1.0]), np.ones((2, 3)))
        out = tmp_path / "estimates.csv"
        argv = ["estimate", "--spec", spec_file, "--method", "stroke", "-i", str(markers), "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {markers}: stroke-based estimation needs dl_t_mm/T_N columns\n"
        assert not out.exists()


class TestCompareCommand:
    def test_identical_files_give_zero(self, tmp_path, spec_file, capsys):
        tip_csv = tmp_path / "tip.csv"
        assert main(["ftl", "--spec", spec_file, "--stroke", "2.0", "-o", str(tip_csv)]) == 0
        capsys.readouterr()  # discard the ftl status line
        assert main(["compare", str(tip_csv), str(tip_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_de_mm"] == 0.0
        assert payload["rmse_mm"] == 0.0
        assert payload["n_samples"] == 101

    def test_per_sample_output(self, tmp_path, spec_file, capsys):
        tip_csv = tmp_path / "tip.csv"
        main(["ftl", "--spec", spec_file, "--stroke", "2.0", "-o", str(tip_csv)])
        per_sample = tmp_path / "d.csv"
        assert main(["compare", str(tip_csv), str(tip_csv), "--per-sample", str(per_sample)]) == 0
        assert per_sample.read_text().splitlines()[0] == "eta,d_e_mm"

    def test_per_sample_on_different_grids_uses_the_overlap(self, tmp_path, capsys):
        # a covers [0.2, 1], b covers [0, 0.7]; b sits 1 mm off a along y.
        eta_a = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        eta_b = np.array([0.0, 0.25, 0.5, 0.7])
        paths = []
        for name, eta, y in [("a", eta_a, 0.0), ("b", eta_b, 1.0)]:
            points = np.column_stack([10.0 * eta, np.full(eta.size, y), np.zeros(eta.size)])
            paths.append(str(tmp_path / f"{name}.csv"))
            fileio.write_tip_csv(paths[-1], TipTrajectory(eta=eta, points=points))
        per_sample = tmp_path / "d.csv"
        assert main(["compare", *paths, "--per-sample", str(per_sample)]) == 0
        assert json.loads(capsys.readouterr().out)["n_samples"] == 6
        lines = per_sample.read_text().splitlines()
        assert lines[0] == "eta,d_e_mm"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert table[:, 0].tolist() == [0.2, 0.25, 0.4, 0.5, 0.6, 0.7]
        assert np.allclose(table[:, 1], 1.0, rtol=0.0, atol=1e-12)


    def test_nan_row_on_equal_grids_exits_2(self, tmp_path, capsys):
        eta = np.array([0.0, 0.5, 1.0])
        points = np.arange(9.0).reshape(3, 3)
        fileio.write_tip_csv(tmp_path / "a.csv", TipTrajectory(eta=eta, points=points))
        (tmp_path / "b.csv").write_text("eta,x_mm,y_mm,z_mm\n0,0,1,2\n0.5,3,4,nan\n1,6,7,8\n")
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trajectory contains non-finite values\n"

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_header_only_file_exits_2(self, tmp_path, spec_file, capsys, empty_first):
        tip_csv = tmp_path / "tip.csv"
        main(["ftl", "--spec", spec_file, "--stroke", "2.0", "-o", str(tip_csv)])
        capsys.readouterr()
        empty = tmp_path / "empty.csv"
        empty.write_text("eta,x_mm,y_mm,z_mm\n")
        pair = [str(empty), str(tip_csv)] if empty_first else [str(tip_csv), str(empty)]
        assert main(["compare", *pair]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {empty}: no trajectory samples\n"

    def test_per_sample_on_equal_grids_is_the_pointwise_comparison(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        eta = np.sort(rng.uniform(0.0, 1.0, 23))
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        trials = [TipTrajectory(eta=eta, points=rng.normal(size=(23, 3))) for _ in paths]
        for path, trial in zip(paths, trials):
            fileio.write_tip_csv(path, trial)
        loaded = [fileio.read_tip_csv(path) for path in paths]
        expected = tmp_path / "expected.csv"
        pointwise = compare_point_sequences(loaded[0].points, loaded[1].points)
        fileio.write_comparison_csv(expected, loaded[0].eta, pointwise)
        per_sample = tmp_path / "d.csv"
        assert main(["compare", *paths, "--per-sample", str(per_sample)]) == 0
        assert capsys.readouterr().out == fileio.comparison_to_json(pointwise)
        assert per_sample.read_bytes() == expected.read_bytes()


class TestClearanceCommand:
    def test_reports_clearance(self, tmp_path, spec_file, capsys):
        curve_csv = tmp_path / "curve.csv"
        main(["shape", "--spec", spec_file, "--stroke", "0.0", "-o", str(curve_csv)])
        capsys.readouterr()  # discard the shape status line
        phantom = tmp_path / "phantom.json"
        phantom.write_text(
            json.dumps(
                {
                    "axis_point_mm": [0.0, 10.0, 0.0],
                    "axis_direction": [1.0, 0.0, 0.0],
                    "radius_mm": 4.0,
                }
            )
        )
        code = main(
            [
                "clearance", "--spec", spec_file, "--curve", str(curve_csv),
                "--phantom", str(phantom),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_clearance_mm"] == pytest.approx(10.0 - 4.0 - 0.953, abs=1e-6)
        assert payload["collides"] is False

    def test_bad_phantom_axis_exits_2(self, tmp_path, spec_file, capsys):
        curve_csv = tmp_path / "curve.csv"
        main(["shape", "--spec", spec_file, "--stroke", "0.0", "-o", str(curve_csv)])
        phantom = tmp_path / "phantom.json"
        phantom.write_text(
            json.dumps(
                {
                    "axis_point_mm": [0.0, 10.0, 0.0],
                    "axis_direction": [1.0, 1.0, 0.0],
                    "radius_mm": 4.0,
                }
            )
        )
        code = main(
            [
                "clearance", "--spec", spec_file, "--curve", str(curve_csv),
                "--phantom", str(phantom),
            ]
        )
        assert code == 2

    def test_curve_with_an_extra_column_exits_2(self, tmp_path, spec_file, capsys):
        curve_csv = tmp_path / "curve.csv"
        curve_csv.write_text("s_mm,x_mm,y_mm,z_mm,foo\n0,0,0,0,1\n1,1,0,0,1\n")
        phantom = tmp_path / "phantom.json"
        phantom.write_text(
            json.dumps({"axis_point_mm": [0, 10, 0], "axis_direction": [1, 0, 0], "radius_mm": 4})
        )
        code = main(
            ["clearance", "--spec", spec_file, "--curve", str(curve_csv), "--phantom", str(phantom)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {curve_csv}: unexpected columns foo after s_mm,x_mm,y_mm,z_mm\n"

    @pytest.mark.parametrize(
        "text",
        [
            "5",
            '{"axis_point_mm": [0, 10, 0], "axis_direction": [1, 0, 0], "radius_mm": "4"}',
            '{"axis_point_mm": [0, 10, 0], "axis_direction": [1, 0, 0], "radius_mm": [4]}',
            '{"axis_point_mm": [0, 10, 0], "axis_direction": [1, 0, 0], "radius_mm": null}',
            '{"axis_point_mm": "abc", "axis_direction": [1, 0, 0], "radius_mm": 4}',
        ],
        ids=["top-level-number", "string-radius", "list-radius", "null-radius", "string-point"],
    )
    def test_malformed_phantom_exits_2(self, tmp_path, spec_file, capsys, text):
        curve_csv = tmp_path / "curve.csv"
        curve_csv.write_text("s_mm,x_mm,y_mm,z_mm\n0,0,0,0\n1,1,0,0\n")
        phantom = tmp_path / "phantom.json"
        phantom.write_text(text)
        argv = ["clearance", "--spec", spec_file, "--curve", str(curve_csv), "--phantom", str(phantom)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {phantom}: ") and captured.err.count("\n") == 1

    def test_tube_radius_output_file_equals_stdout(self, tmp_path, capsys):
        curve_csv = tmp_path / "curve.csv"
        curve_csv.write_text("s_mm,x_mm,y_mm,z_mm\n0,0,0,0\n1,1,0,0\n")
        phantom = tmp_path / "phantom.json"
        phantom.write_text(
            json.dumps({"axis_point_mm": [0, 10, 0], "axis_direction": [1, 0, 0], "radius_mm": 4})
        )
        out = tmp_path / "clearance.json"
        argv = ["clearance", "--curve", str(curve_csv), "--phantom", str(phantom), "--tube-radius", "0.5"]
        assert main([*argv, "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert out.read_text() == stdout
        assert json.loads(stdout) == {"collides": False, "min_clearance_mm": 5.5}


class TestPlotCommand:
    def test_renders_svg(self, tmp_path, spec_file):
        curve_csv = tmp_path / "curve.csv"
        main(["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(curve_csv)])
        out = tmp_path / "plot.svg"
        assert main(["plot", str(curve_csv), "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert "(mm)" in text

    def test_quoted_backbone_header_plots_as_a_backbone(self, tmp_path, spec_file):
        curve_csv = tmp_path / "curve.csv"
        main(["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(curve_csv)])
        quoted = tmp_path / "quoted.csv"
        lines = curve_csv.read_text().splitlines(keepends=True)
        quoted.write_text('"s_mm","x_mm","y_mm","z_mm"\n' + "".join(lines[1:]))
        assert main(["plot", str(curve_csv), "-o", str(tmp_path / "a.svg")]) == 0
        assert main(["plot", str(quoted), "-o", str(tmp_path / "b.svg")]) == 0
        svg_a, svg_b = ((tmp_path / name).read_text() for name in ("a.svg", "b.svg"))
        assert svg_a == svg_b.replace(">quoted<", ">curve<")

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["CRLF", "CR"])
    def test_line_endings_plot_alike(self, tmp_path, spec_file, ending):
        # The legend names each curve by its file's stem, so both files are curve.csv.
        (tmp_path / "lf").mkdir()
        (tmp_path / "other").mkdir()
        lf, other = tmp_path / "lf" / "curve.csv", tmp_path / "other" / "curve.csv"
        main(["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(lf)])
        other.write_bytes(lf.read_bytes().replace(b"\n", ending))
        assert main(["plot", str(lf), "-o", str(tmp_path / "a.svg")]) == 0
        assert main(["plot", str(other), "-o", str(tmp_path / "b.svg")]) == 0
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_seven_curves_exit_2(self, tmp_path, spec_file, capsys):
        curve_csv = tmp_path / "curve.csv"
        assert main(["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(curve_csv)]) == 0
        capsys.readouterr()
        out = tmp_path / "x.svg"
        assert main(["plot", *[str(curve_csv)] * 7, "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: can plot at most 6 curves, one colour each, got 7\n"
        assert not out.exists()

    def test_header_only_trajectory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("eta,x_mm,y_mm,z_mm\n")
        out = tmp_path / "x.svg"
        assert main(["plot", str(empty), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: no trajectory samples\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "stem, shown", [("c\x01d", "c\\x01d"), (os.fsdecode(b"e\xff"), "e\\udcff")], ids=["control", "not-utf8"]
    )
    def test_unprintable_stem_plots_an_escaped_legend(self, tmp_path, spec_file, stem, shown):
        curve_csv = tmp_path / "curve.csv"
        assert main(["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(curve_csv)]) == 0
        curve_csv = curve_csv.rename(tmp_path / f"{stem}.csv")
        out = tmp_path / "plot.svg"
        assert main(["plot", str(curve_csv), "-o", str(out)]) == 0
        root = ElementTree.fromstring(out.read_bytes())
        assert [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")][-1] == shown

    def test_svg_is_deterministic(self, tmp_path, spec_file):
        curve_csv = tmp_path / "curve.csv"
        main(["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(curve_csv)])
        out_a = tmp_path / "a.svg"
        out_b = tmp_path / "b.svg"
        main(["plot", str(curve_csv), "-o", str(out_a)])
        main(["plot", str(curve_csv), "-o", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


class TestUnprintableOutputPaths:
    """A status line names a path holding a byte that is not UTF-8 escaped, so strict UTF-8 stdout takes it."""

    @staticmethod
    def _run(argv, written, shown):
        stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict", write_through=True)
        with contextlib.redirect_stdout(stream):
            assert main(argv) == 0
        assert all(path.exists() for path in written)
        out = stream.buffer.getvalue().decode("utf-8")
        assert all(str(path) in out for path in shown)

    def test_shape(self, tmp_path, spec_file):
        out = tmp_path / os.fsdecode(b"h\xff.csv")
        argv = ["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(out)]
        self._run(argv, [out], [tmp_path / "h\\udcff.csv"])

    def test_sweep(self, tmp_path, spec_file):
        out, bundle = tmp_path / os.fsdecode(b"j\xff.csv"), tmp_path / os.fsdecode(b"b\xff")
        argv = ["sweep", "--spec", spec_file, "--stroke-max", "2.0", "--steps", "3", "--dataset-dir", str(bundle)]
        shown = [tmp_path / "j\\udcff.csv", tmp_path / "b\\udcff"]
        self._run([*argv, "-o", str(out)], [out, bundle / "spec.json"], shown)

    def test_ftl(self, tmp_path, spec_file):
        out = tmp_path / os.fsdecode(b"t\xff.csv")
        argv = ["ftl", "--spec", spec_file, "--stroke", "2.0", "--eta-steps", "11", "-o", str(out)]
        self._run(argv, [out], [tmp_path / "t\\udcff.csv"])

    @pytest.mark.parametrize("method", ["stroke", "position"])
    def test_estimate(self, tmp_path, spec_file, method):
        log = tmp_path / "log.csv"
        if method == "stroke":
            log.write_text("dl_t_mm,T_N\n0,0\n2,0\n")
        else:
            write_marker_table(log, np.array([0.0, 1.0]), np.array([[60.9, 5.0, 1.0], [64.0, 0.0, 0.0]]))
        out = tmp_path / os.fsdecode(b"e\xff.csv")
        argv = ["estimate", "--spec", spec_file, "--method", method, "-i", str(log), "-o", str(out)]
        self._run(argv, [out], [tmp_path / "e\\udcff.csv"])

    def test_plot(self, tmp_path, spec_file):
        curve_csv = tmp_path / "curve.csv"
        assert main(["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(curve_csv)]) == 0
        out = tmp_path / os.fsdecode(b"p\xff.svg")
        self._run(["plot", str(curve_csv), "-o", str(out)], [out], [tmp_path / "p\\udcff.svg"])


class TestNonUtf8Files:
    """A byte that is not UTF-8 in any user file exits 2 with one line naming the file."""

    @staticmethod
    def _assert_one_error(capsys, path):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_curve_header_cell(self, tmp_path, capsys):
        curve_csv = tmp_path / "curve.csv"
        curve_csv.write_bytes(b"s_mm\xff,x_mm,y_mm,z_mm\n0,0,0,0\n1,1,0,0\n")
        assert main(["plot", str(curve_csv), "-o", str(tmp_path / "x.svg")]) == 2
        self._assert_one_error(capsys, curve_csv)

    def test_curve_row(self, tmp_path, spec_file, capsys):
        # Past the reader's first 8 KiB, so the header decodes and the rows do not.
        curve_csv = tmp_path / "curve.csv"
        rows = b"".join(b"%d,%d,0,0\n" % (i, i) for i in range(2000))
        curve_csv.write_bytes(b"s_mm,x_mm,y_mm,z_mm\n" + rows + b"2000,\xff,0,0\n")
        phantom = tmp_path / "phantom.json"
        phantom.write_text(
            json.dumps({"axis_point_mm": [0, 10, 0], "axis_direction": [1, 0, 0], "radius_mm": 4})
        )
        argv = ["clearance", "--spec", spec_file, "--curve", str(curve_csv), "--phantom", str(phantom)]
        assert main(argv) == 2
        self._assert_one_error(capsys, curve_csv)

    def test_spec_json(self, tmp_path, capsys):
        spec = tmp_path / "device.json"
        spec.write_bytes(b'{"tube": "\xff"}')
        assert main(["geometry", "--spec", str(spec)]) == 2
        self._assert_one_error(capsys, spec)


def _tip_csv(path, rows):
    """A tip CSV on eta = linspace(0, 1, n) with the given (n, 3) rows, exactly."""
    eta = [0.0] if len(rows) == 1 else np.linspace(0.0, 1.0, len(rows)).tolist()
    lines = [f"{e!r},{x!r},{y!r},{z!r}" for e, (x, y, z) in zip(eta, rows)]
    path.write_text("eta,x_mm,y_mm,z_mm\n" + "\n".join(lines) + "\n")
    return str(path)


def _curve_csv(path, rows):
    lines = [f"{float(k)!r},{x!r},{y!r},{z!r}" for k, (x, y, z) in enumerate(rows)]
    path.write_text("s_mm,x_mm,y_mm,z_mm\n" + "\n".join(lines) + "\n")
    return str(path)


def _phantom_json(path, point, direction, radius):
    document = {"axis_point_mm": point, "axis_direction": direction, "radius_mm": radius}
    path.write_text(json.dumps(document))
    return str(path)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestFloatRangeCurves:
    """Curves whose finite coordinates are large for their spread, or overflow when squared."""

    def test_plot_of_a_far_off_curve_finishes(self, tmp_path):
        # The tick loop used to spin forever here, growing its list; the child
        # gets a memory cap and a timeout so a regression fails instead of hanging.
        tip = _tip_csv(tmp_path / "far.csv", [(1e16, 0.0, z) for z in (0.0, 0.25, 0.5, 0.75, 1.0)])
        out = tmp_path / "far.svg"

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "helikin.cli", "plot", tip, "-o", str(out)],
            capture_output=True, text=True, timeout=30, env=env, preexec_fn=cap_memory,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert out.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "rows",
        [
            [(1e17, 0.0, z) for z in (0.0, 0.5, 1.0)],
            [(-1e308, 0.0, 0.0), (1e308, 0.0, 1.0)],
        ],
        ids=["1e17", "1e308"],
    )
    def test_plot_that_cannot_be_drawn_exits_2(self, tmp_path, capsys, rows):
        out = tmp_path / "x.svg"
        assert main(["plot", _tip_csv(tmp_path / "tip.csv", rows), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot draw the ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_clearance_that_overflows_exits_3(self, tmp_path, capsys):
        curve = _curve_csv(tmp_path / "curve.csv", [(1e200, 0.0, 0.0), (1e200, 1.0, 0.0)])
        phantom = _phantom_json(tmp_path / "phantom.json", [0, 0, 0], [0, 1, 0], 1.0)
        out = tmp_path / "clearance.json"
        argv = ["clearance", "--curve", curve, "--phantom", phantom, "--tube-radius", "0.5", "-o", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: cannot write non-finite min_clearance_mm as JSON\n"
        assert not out.exists()

    def test_compare_that_overflows_exits_3(self, tmp_path, capsys):
        a = _tip_csv(tmp_path / "a.csv", [(1e200, 0.0, 0.0)] * 2)
        b = _tip_csv(tmp_path / "b.csv", [(-1e200, 0.0, 0.0)] * 2)
        per_sample = tmp_path / "d.csv"
        assert main(["compare", a, b, "--per-sample", str(per_sample)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: cannot write non-finite max_de_mm, rmse_mm as JSON\n"
        assert not per_sample.exists()


_COORD = st.floats(-1e308, 1e308) | st.floats(-10.0, 10.0)


@st.composite
def _rows(draw, max_rows=5):
    """1 to max_rows finite points, often a large offset plus a small spread."""
    n = draw(st.integers(1, max_rows))
    if draw(st.booleans()):
        return [tuple(draw(_COORD) for _ in range(3)) for _ in range(n)]
    center = [draw(st.floats(-1e308, 1e308)) for _ in range(3)]
    return [tuple(c + draw(st.floats(-10.0, 10.0)) for c in center) for _ in range(n)]


class TestFloatRangeBoundary:
    """plot, clearance and compare on finite coordinates up to +-1e308.

    Every run exits 0, 2 or 3, never with a traceback; stdout holds strict
    JSON (no NaN or Infinity); a failed run writes exactly one stderr line.
    """

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            assert err.getvalue() == ""
        return code, out.getvalue()

    @given(curves=st.lists(_rows(), min_size=1, max_size=2), backbone=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_plot(self, curves, backbone):
        with tempfile.TemporaryDirectory() as tmp:
            write = _curve_csv if backbone else _tip_csv
            paths = [write(Path(tmp) / f"c{k}.csv", rows) for k, rows in enumerate(curves)]
            out = Path(tmp) / "plot.svg"
            code, stdout = self._run(["plot", *paths, "-o", str(out)])
            assert out.exists() == (code == 0)
            if code == 0:
                assert stdout == f"wrote {out}\n"

    @given(
        rows=_rows(),
        point=st.tuples(_COORD, _COORD, _COORD),
        direction=st.sampled_from([[1, 0, 0], [0, 1, 0], [0, 0, -1], [0.6, 0, 0.8]]),
        radius=st.floats(0.0, 1e308) | st.floats(0.0, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_clearance(self, rows, point, direction, radius):
        with tempfile.TemporaryDirectory() as tmp:
            curve = _curve_csv(Path(tmp) / "curve.csv", rows)
            phantom = _phantom_json(Path(tmp) / "phantom.json", list(point), direction, radius)
            argv = ["clearance", "--curve", curve, "--phantom", phantom, "--tube-radius", "0.5"]
            code, stdout = self._run(argv)
            if code == 0:
                assert set(_strict_json(stdout)) == {"min_clearance_mm", "collides"}

    @given(a=_rows(), b=_rows())
    @settings(max_examples=50, deadline=None)
    def test_compare(self, a, b):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [_tip_csv(Path(tmp) / f"{name}.csv", rows) for name, rows in (("a", a), ("b", b))]
            code, stdout = self._run(["compare", *paths])
            if code == 0:
                assert set(_strict_json(stdout)) == {"max_de_mm", "rmse_mm", "n_samples"}


class TestDemoCommand:
    def test_demo_is_deterministic_and_clear(self, tmp_path, capsys):
        dir_a = tmp_path / "demo_a"
        dir_b = tmp_path / "demo_b"
        assert main(["demo", "--outdir", str(dir_a)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clearance_positive_everywhere"] is True
        assert payload["min_clearance_mm"] > 0.0
        assert payload["ftl_max_distance_mm"] < 1e-9
        assert main(["demo", "--outdir", str(dir_b)]) == 0
        for name in sorted(p.name for p in dir_a.iterdir()):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(["demo", "--outdir", str(tmp_path / "d"), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: noise seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_exits_2_before_any_file(self, tmp_path, capsys, theta):
        assert main(["demo", "--outdir", str(tmp_path / "d"), "--theta-deg", theta]) == 2
        assert capsys.readouterr().err == f"error: roll angle theta must be finite, got {theta}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "flag, value, code",
        [("--stroke", "9.9", 3), ("--eta-steps", "1", 2), ("--phantom-radius", "-1", 2)],
    )
    def test_bad_argument_exits_before_any_file(self, tmp_path, capsys, flag, value, code):
        assert main(["demo", "--outdir", str(tmp_path / "d"), flag, value]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    def test_three_forward_kinematics_calls(self, tmp_path, monkeypatch, capsys):
        # ftl_run's two curves and the fidelity's tip-arc-length curve; the
        # backbone is ftl_run's body at eta = 1.
        calls = []
        fk = cli.forward_kinematics

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return fk(*args, **kwargs)

        monkeypatch.setattr(cli, "forward_kinematics", counted)
        monkeypatch.setattr(simulation, "forward_kinematics", counted)
        assert main(["demo", "--outdir", str(tmp_path / "d"), "--eta-steps", "11"]) == 0
        assert sorted(calls) == [11, 11, 129]


class TestNoiselessRunsDrawNothing:
    """A run with both noise sigmas at 0 never loads numpy.random."""

    # Runs cli.main, then prints every loaded module's name as stderr's last line.
    _WRAPPER = (
        "import sys; from helikin import cli; code = cli.main(sys.argv[1:]); "
        "print(*sorted(sys.modules), file=sys.stderr); sys.exit(code)"
    )

    def _modules_at_exit(self, tmp_path, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop(SPEC_PATH_ENV, None)
        result = subprocess.run(
            [sys.executable, "-c", self._WRAPPER, *argv],
            capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        return set(result.stderr.splitlines()[-1].split())

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["demo", "--outdir", "demo"], False),
            (["sweep", "--stroke-max", "3", "--dataset-dir", "bundle", "-o", "joints.csv"], False),
            (["sweep", "--stroke-max", "3", "--noise-sigma", "0.1", "-o", "joints.csv"], True),
        ],
        ids=["demo", "sweep", "sweep-noisy"],
    )
    def test_numpy_random_is_loaded_only_for_noise(self, tmp_path, argv, loaded):
        modules = self._modules_at_exit(tmp_path, argv)
        assert "helikin.simulation" in modules
        assert ("numpy.random" in modules) is loaded


class TestOutOfMemory:
    """A count too large to allocate exits 4 with one stderr line; no test allocates it."""

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("default_eta_grid", ["demo", "--eta-steps", "100000000000"]),
            ("default_eta_grid", ["ftl", "--stroke", "2", "--eta-steps", "100000000000"]),
            ("backbone_samples", ["shape", "--stroke", "2", "--samples", "100000000000"]),
        ],
        ids=["demo", "ftl", "shape"],
    )
    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array", ""])
    def test_exits_4_before_any_file(self, tmp_path, monkeypatch, capsys, target, argv, message):
        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, target, refuse)
        out = tmp_path / "out"
        flag = "--outdir" if argv[0] == "demo" else "-o"
        assert main([*argv, flag, str(out)]) == 4
        assert capsys.readouterr().err == f"out of memory: {message or 'allocation failed'}\n"
        assert not out.exists()


class TestHelpAndUnits:
    @pytest.mark.parametrize(
        "command",
        ["geometry", "shape", "sweep", "ftl", "estimate", "compare", "clearance", "plot", "demo"],
    )
    def test_every_subcommand_documents_units(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "mm" in capsys.readouterr().out

    def test_parser_builds(self):
        build_parser()
