import json

import numpy as np
import pytest

from helikin import fileio
from helikin.cli import SPEC_PATH_ENV, build_parser, main
from helikin.kinematics import TipTrajectory
from helikin.presets import default_tendon, default_tube


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
        payload["tube"]["remaining_half_angle"] = 180.0
        path = tmp_path / "flat_annulus.json"
        path.write_text(json.dumps(payload))
        assert main(["geometry", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert "cannot form a helix" in out

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


class TestEstimateCommand:
    def test_position_round_trip(self, tmp_path, spec_file):
        tip_csv = tmp_path / "tip.csv"
        joints_csv = tmp_path / "joints.csv"
        estimates_csv = tmp_path / "estimates.csv"
        assert main(["ftl", "--spec", spec_file, "--stroke", "2.0", "-o", str(tip_csv)]) == 0

        # drop eta = 0 (origin carries no shape information)
        trajectory = fileio.read_tip_csv(tip_csv)
        fileio.write_marker_csv(tmp_path / "tips.csv", trajectory.eta[1:], trajectory.points[1:])

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
        fileio.write_marker_csv(tips, np.array([0.0, 0.5, 1.0]), points)
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
        fileio.write_marker_csv(tips, np.array([0.0]), np.array([[100.0, 0.0, 0.0]]))
        out = tmp_path / "estimates.csv"
        args = [
            "estimate", "--spec", spec_file, "--method", "position",
            "-i", str(tips), "-o", str(out),
        ]
        assert main(args) == 3
        assert out.read_text().splitlines()[1] == "0,nan,nan,nan,nan"
        assert "sample 0:" in capsys.readouterr().err

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

    def test_svg_is_deterministic(self, tmp_path, spec_file):
        curve_csv = tmp_path / "curve.csv"
        main(["shape", "--spec", spec_file, "--stroke", "2.0", "-o", str(curve_csv)])
        out_a = tmp_path / "a.svg"
        out_b = tmp_path / "b.svg"
        main(["plot", str(curve_csv), "-o", str(out_a)])
        main(["plot", str(curve_csv), "-o", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


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
