import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helikin import fileio
from helikin.errors import ValidationError
from helikin.estimation import compare_point_sequences
from helikin.geometry import derive_geometry
from helikin.kinematics import BackboneCurve, TipTrajectory, forward_kinematics, joint_from_actuation
from helikin.presets import default_tendon, default_tube
from helikin.simulation import NoiseSpec, PhantomSpec, synthetic_sweep


class TestDeviceSpecJson:
    def test_round_trip(self, tube, tendon, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(fileio.dump_tube_spec(tube, tendon))
        loaded_tube, loaded_tendon = fileio.load_device_spec(path)
        assert loaded_tube == tube
        assert loaded_tendon == tendon

    def test_half_angle_stored_in_degrees(self, tube, tendon, tmp_path):
        payload = json.loads(fileio.dump_tube_spec(tube, tendon))
        assert payload["tube"]["remaining_half_angle"] == pytest.approx(63.0)

    def test_flat_layout_accepted(self, tube, tmp_path):
        payload = json.loads(fileio.dump_tube_spec(tube))["tube"]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(payload))
        loaded, loaded_tendon = fileio.load_device_spec(path)
        assert loaded == tube
        assert loaded_tendon is None

    def test_missing_field_names_the_field(self, tube, tmp_path):
        payload = json.loads(fileio.dump_tube_spec(tube))["tube"]
        del payload["bridge_length"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="bridge_length"):
            fileio.load_device_spec(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed"):
            fileio.load_device_spec(path)

    def test_invalid_values_rejected(self, tube, tmp_path):
        payload = json.loads(fileio.dump_tube_spec(tube))["tube"]
        payload["inner_radius"] = 2.0  # larger than outer
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            fileio.load_device_spec(path)


class TestGeometryJson:
    def test_five_fields_in_mm(self, geom):
        payload = json.loads(fileio.dump_derived_geometry(geom))
        assert set(payload) == {
            "notch_na_offset",
            "composite_na_offset",
            "na_length",
            "tendon_na_distance",
            "slack_tendon_length",
        }
        assert payload["na_length"] == pytest.approx(geom.na_length, rel=1e-12)

    def test_turn_count_stays_out_of_the_dump(self, tube):
        geom2 = derive_geometry(dataclasses.replace(tube, turn_count=2))
        payload = json.loads(fileio.dump_derived_geometry(geom2))
        assert "turn_count" not in payload and len(payload) == 5


class TestPhantomJson:
    def test_round_trip(self, tmp_path):
        phantom = PhantomSpec(
            axis_point=np.array([1.0, 2.0, 3.0]),
            axis_direction=np.array([0.0, 0.0, 1.0]),
            radius=4.0,
        )
        path = tmp_path / "phantom.json"
        path.write_text(fileio.dump_phantom_spec(phantom))
        loaded = fileio.load_phantom_spec(path)
        assert np.array_equal(loaded.axis_point, phantom.axis_point)
        assert np.array_equal(loaded.axis_direction, phantom.axis_direction)
        assert loaded.radius == phantom.radius

    def test_missing_field(self, tmp_path):
        path = tmp_path / "phantom.json"
        path.write_text(json.dumps({"radius_mm": 4.0}))
        with pytest.raises(ValidationError, match="axis_point_mm"):
            fileio.load_phantom_spec(path)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("axis_point_mm", [0.0, math.nan, 0.0]),
            ("axis_direction", [math.nan, 0.0, 0.0]),
            ("radius_mm", math.nan),
            ("radius_mm", math.inf),
        ],
    )
    def test_json_nan_and_infinity_rejected(self, tmp_path, field, value):
        payload = {"axis_point_mm": [0.0, 10.0, 0.0], "axis_direction": [1.0, 0.0, 0.0], "radius_mm": 4.0}
        payload[field] = value
        path = tmp_path / "phantom.json"
        path.write_text(json.dumps(payload))  # json writes NaN and Infinity
        with pytest.raises(ValidationError, match="finite"):
            fileio.load_phantom_spec(path)


class TestCurveCsv:
    def test_backbone_round_trip(self, tendon, geom, tmp_path):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom, roll=0.5)
        curve = forward_kinematics(joint, geom)
        path = tmp_path / "curve.csv"
        fileio.write_backbone_csv(path, curve)
        loaded = fileio.read_backbone_csv(path)
        assert np.allclose(loaded.s, curve.s, rtol=1e-11, atol=1e-11)
        assert np.allclose(loaded.points, curve.points, rtol=1e-11, atol=1e-11)

    def test_header_written(self, tmp_path):
        curve = BackboneCurve(s=np.array([0.0, 1.0]), points=np.zeros((2, 3)))
        path = tmp_path / "curve.csv"
        fileio.write_backbone_csv(path, curve)
        assert path.read_text().splitlines()[0] == "s_mm,x_mm,y_mm,z_mm"

    def test_nine_significant_digits_survive(self, tmp_path):
        s = np.array([0.0, 1.0 / 3.0])
        points = np.array([[0.0, 0.0, 0.0], [64.0644696, -0.123456789, 3.14159265]])
        path = tmp_path / "curve.csv"
        fileio.write_backbone_csv(path, BackboneCurve(s=s, points=points))
        loaded = fileio.read_backbone_csv(path)
        assert np.allclose(loaded.points, points, rtol=1e-11)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("a,b,c,d\n0,0,0,0\n")
        with pytest.raises(ValidationError, match="header"):
            fileio.read_backbone_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("s_mm,x_mm,y_mm,z_mm\n0,0,0\n")
        with pytest.raises(ValidationError):
            fileio.read_backbone_csv(path)


class TestTipCsv:
    def test_round_trip(self, tmp_path):
        trajectory = TipTrajectory(
            eta=np.linspace(0.0, 1.0, 11), points=np.random.default_rng(0).normal(size=(11, 3))
        )
        path = tmp_path / "tip.csv"
        fileio.write_tip_csv(path, trajectory)
        loaded = fileio.read_tip_csv(path)
        assert np.allclose(loaded.eta, trajectory.eta, rtol=1e-11)
        assert np.allclose(loaded.points, trajectory.points, rtol=1e-11)


class TestJointCsvAndStrokes:
    def test_joints_csv_headers_and_nan_rows(self, tendon, geom, tmp_path):
        joints = [
            joint_from_actuation(0.0, 0.0, tendon, geom),
            None,
            joint_from_actuation(2.0, 0.0, tendon, geom),
        ]
        path = tmp_path / "joints.csv"
        fileio.write_joints_csv(path, np.array([0.0, 9.0, 2.0]), np.zeros(3), joints)
        lines = path.read_text().splitlines()
        assert lines[0] == "dl_t_mm,T_N,R_mm,H_mm,phi_rad,theta_rad"
        assert "nan" in lines[2]
        assert len(lines) == 4

    def test_strokes_round_trip(self, tmp_path):
        path = tmp_path / "strokes.csv"
        path.write_text("dl_t_mm,T_N\n0,0\n1.5,0.25\n2,0\n")
        profile = fileio.read_strokes_csv(path)
        assert profile == [(0.0, 0.0), (1.5, 0.25), (2.0, 0.0)]

    def test_strokes_single_column(self, tmp_path):
        path = tmp_path / "strokes.csv"
        path.write_text("dl_t_mm\n0\n1\n")
        assert fileio.read_strokes_csv(path) == [(0.0, 0.0), (1.0, 0.0)]


class TestMarkerCsv:
    def test_round_trip_with_actuation(self, tmp_path):
        index = np.linspace(0.0, 1.0, 5)
        points = np.random.default_rng(1).normal(size=(5, 3))
        strokes = np.linspace(0.0, 2.0, 5)
        path = tmp_path / "marker.csv"
        fileio.write_marker_csv(path, index, points, strokes)
        data = fileio.read_marker_csv(path)
        assert np.allclose(data["points"], points, rtol=1e-11)
        assert np.allclose(data["strokes"], strokes, rtol=1e-11)
        assert np.allclose(data["tensions"], np.zeros(5))

    def test_round_trip_without_actuation(self, tmp_path):
        index = np.linspace(0.0, 1.0, 4)
        points = np.zeros((4, 3))
        path = tmp_path / "marker.csv"
        fileio.write_marker_csv(path, index, points)
        data = fileio.read_marker_csv(path)
        assert data["strokes"] is None
        assert path.read_text().splitlines()[0] == "eta,x_mm,y_mm,z_mm"


class TestCsvReaderSyntax:
    @pytest.mark.parametrize(
        "body, line, cause",
        [
            ("0,0,0,0\n1,1,1\n", 3, "expected 4 columns, got 3"),
            ("0,0,0,0\n1,abc,1,1\n", 3, "could not convert string to float: 'abc'"),
            ("0,0,0,0,\n", 2, "expected 4 columns, got 5"),
            ("0,0,0,0\n\n\n1,1,x,1\n", 5, "could not convert string to float: 'x'"),
            ("0,0,0,0\n\n1,1,1\n", 4, "expected 4 columns, got 3"),
            ("\n0,0,0,0,0\n", 3, "expected 4 columns, got 5"),
            ("0,0,0,0\n1,1,1,\n", 3, "could not convert string to float: ''"),
            ("0,0,0,0\n1,1,1,\"\"\n", 3, "could not convert string to float: ''"),
        ],
    )
    @pytest.mark.parametrize(
        "reader, header", [(fileio.read_backbone_csv, "s_mm"), (fileio.read_tip_csv, "eta")]
    )
    def test_bad_row_names_path_and_file_line(self, tmp_path, reader, header, body, line, cause):
        path = tmp_path / "curve.csv"
        path.write_text(f"{header},x_mm,y_mm,z_mm\n" + body)
        with pytest.raises(ValidationError) as info:
            reader(path)
        assert str(info.value) == f"{path}:{line}: {cause}"

    @pytest.mark.parametrize(
        "body, line, cause",
        [
            ("0,0\n1.5,abc\n", 3, "could not convert string to float: 'abc'"),
            ("0,0\n\n\n1.5, \n", 5, "could not convert string to float: ' '"),
        ],
    )
    def test_bad_stroke_row_names_path_and_file_line(self, tmp_path, body, line, cause):
        path = tmp_path / "strokes.csv"
        path.write_text("dl_t_mm,T_N\n" + body)
        with pytest.raises(ValidationError) as info:
            fileio.read_strokes_csv(path)
        assert str(info.value) == f"{path}:{line}: {cause}"

    def test_bad_marker_row_after_blank_lines(self, tmp_path):
        path = tmp_path / "marker.csv"
        path.write_text("eta,x_mm,y_mm,z_mm,dl_t_mm,T_N\n0,0,0,0,0,0\n\n1,1,1,1,1\n")
        with pytest.raises(ValidationError) as info:
            fileio.read_marker_csv(path)
        assert str(info.value) == f"{path}:4: expected 6 columns, got 5"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty CSV"):
            fileio.read_backbone_csv(path)

    def test_blank_lines_crlf_and_quoted_cells_accepted(self, tmp_path):
        path = tmp_path / "marker.csv"
        path.write_bytes(b'eta,x_mm,y_mm,z_mm\r\n\r\n0,"1.5",2,3\r\n\r\n1, 4 ,-5e-1,"6"\r\n\r\n')
        data = fileio.read_marker_csv(path)
        assert data["index"].tolist() == [0.0, 1.0]
        assert data["points"].tolist() == [[1.5, 2.0, 3.0], [4.0, -0.5, 6.0]]
        assert data["strokes"] is None

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
    def test_strokes_line_endings_accepted(self, tmp_path, eol):
        path = tmp_path / "strokes.csv"
        path.write_bytes(eol.join([b"dl_t_mm,T_N", b"0,0", b"", b'"1.5",0.25', b""]))
        assert fileio.read_strokes_csv(path) == [(0.0, 0.0), (1.5, 0.25)]

    @pytest.mark.parametrize("cell", ["1_0", "0x1p3", "\u0661"])
    def test_underscore_hex_and_non_ascii_digits_rejected(self, tmp_path, cell):
        path = tmp_path / "marker.csv"
        path.write_text(f"eta,x_mm,y_mm,z_mm\n0,0,0,0\n1,{cell},0,0\n")
        with pytest.raises(ValidationError) as info:
            fileio.read_marker_csv(path)
        assert str(info.value) == f"{path}:3: could not convert string to float: {cell!r}"

    def test_ragged_stroke_rows_rejected(self, tmp_path):
        path = tmp_path / "strokes.csv"
        path.write_text("dl_t_mm,T_N\n0,0\n1.5\n")
        with pytest.raises(ValidationError) as info:
            fileio.read_strokes_csv(path)
        assert str(info.value) == f"{path}:3: expected 2 columns, got 1"

    def test_non_finite_cells_parse_like_float(self, tmp_path):
        path = tmp_path / "marker.csv"
        path.write_text("eta,x_mm,y_mm,z_mm\n0,nan,inf,-inf\n1,-0,Infinity,-NaN\n")
        points = fileio.read_marker_csv(path)["points"]
        assert np.isnan(points[0, 0]) and points[0, 1] == math.inf and points[0, 2] == -math.inf
        assert math.copysign(1.0, points[1, 0]) == -1.0 and points[1, 1] == math.inf
        assert np.isnan(points[1, 2])


class TestHeaderOnlyCsv:
    def test_marker_reads_as_empty_arrays(self, tmp_path):
        path = tmp_path / "marker.csv"
        fileio.write_marker_csv(path, np.zeros(0), np.zeros((0, 3)), np.zeros(0), np.zeros(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = fileio.read_marker_csv(path)
        assert data["index"].shape == (0,)
        assert data["points"].shape == (0, 3)
        assert data["strokes"].shape == data["tensions"].shape == (0,)

    def test_marker_without_actuation_and_blank_body(self, tmp_path):
        path = tmp_path / "marker.csv"
        path.write_text("eta,x_mm,y_mm,z_mm\n\n\n")
        data = fileio.read_marker_csv(path)
        assert data["points"].shape == (0, 3)
        assert data["strokes"] is None

    @pytest.mark.parametrize(
        "reader, header, rows",
        [
            (fileio.read_backbone_csv, "s_mm,x_mm,y_mm,z_mm", "curve samples"),
            (fileio.read_tip_csv, "eta,x_mm,y_mm,z_mm", "trajectory samples"),
            (fileio.read_strokes_csv, "dl_t_mm,T_N", "actuation samples"),
        ],
    )
    def test_curve_tip_and_strokes_rejected(self, tmp_path, reader, header, rows):
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n")
        with pytest.raises(ValidationError) as info:
            reader(path)
        assert str(info.value) == f"{path}: no {rows}"

    def test_all_rejected_bundle_round_trip(self, tmp_path, tube, tendon, geom):
        dataset = synthetic_sweep(
            geom, tendon, [(9.0, 0.0), (math.nan, 0.0)], [33.2], NoiseSpec(seed=1), 0.0, tube
        )
        fileio.write_dataset_bundle(tmp_path / "bundle", dataset)
        assert (tmp_path / "bundle" / "joints.csv").read_text().splitlines()[1:] == [
            "9,0,nan,nan,nan,nan",
            "nan,0,nan,nan,nan,nan",
        ]
        for name in ("tip.csv", "marker_33p2.csv", "marker_33p2_truth.csv"):
            data = fileio.read_marker_csv(tmp_path / "bundle" / name)
            assert data["points"].shape == (0, 3)
            assert data["strokes"].shape == (0,)


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e300]


class TestTableWriterParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_matches_per_cell_format(self, tmp_path, seed, n):
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-30, 30, size=(n, 5))
        table.flat[rng.choice(table.size, size=min(table.size, 12), replace=False)] = rng.choice(
            _SPECIAL, size=min(table.size, 12)
        )
        header = ["a", "b", "c", "d", "e"]
        path = tmp_path / "table.csv"
        fileio.write_table_csv(path, header, list(table.T))
        rows = [",".join(format(v, ".12g") for v in row) for row in table.tolist()]
        expected = "".join(line + "\n" for line in [",".join(header)] + rows)
        assert path.read_text() == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4), min_size=1, max_size=8
        )
    )
    def test_round_trip_is_float_of_12g(self, rows):
        table = np.array(rows, dtype=float)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "marker.csv"
            fileio.write_marker_csv(path, table[:, 0], table[:, 1:])
            data = fileio.read_marker_csv(path)
        loaded = np.column_stack([data["index"], data["points"]])
        expected = np.array([[float(format(x, ".12g")) for x in row] for row in rows])
        assert loaded.tobytes() == expected.tobytes()


class TestComparisonOutputs:
    def test_json_fields(self):
        result = compare_point_sequences(np.zeros((2, 3)), np.ones((2, 3)))
        payload = json.loads(fileio.comparison_to_json(result))
        assert set(payload) == {"max_de_mm", "rmse_mm", "n_samples"}
        assert payload["n_samples"] == 2
        assert payload["max_de_mm"] == pytest.approx(math.sqrt(3.0))

    def test_per_sample_csv(self, tmp_path):
        result = compare_point_sequences(np.zeros((3, 3)), np.ones((3, 3)))
        path = tmp_path / "per_sample.csv"
        fileio.write_comparison_csv(path, np.array([0.0, 0.5, 1.0]), result)
        lines = path.read_text().splitlines()
        assert lines[0] == "eta,d_e_mm"
        assert len(lines) == 4


class TestDatasetBundle:
    def test_bundle_layout_and_determinism(self, tmp_path):
        tube = default_tube()
        tendon = default_tendon()
        geom = derive_geometry(tube)
        noise = NoiseSpec(position_sigma=0.3, stroke_sigma=0.05, seed=9)
        profile = [(float(v), 0.0) for v in np.linspace(0.0, 3.0, 7)]
        dataset = synthetic_sweep(geom, tendon, profile, [18.24, 63.61], noise, 0.2, tube)

        dir_a = tmp_path / "bundle_a"
        dir_b = tmp_path / "bundle_b"
        files_a = fileio.write_dataset_bundle(dir_a, dataset)
        files_b = fileio.write_dataset_bundle(dir_b, dataset)

        names = sorted(p.name for p in files_a)
        assert names == sorted(
            [
                "spec.json",
                "joints.csv",
                "tip.csv",
                "marker_18p24.csv",
                "marker_18p24_truth.csv",
                "marker_63p61.csv",
                "marker_63p61_truth.csv",
            ]
        )
        for a, b in zip(sorted(files_a), sorted(files_b)):
            assert a.read_bytes() == b.read_bytes()

    def test_bundle_files_feed_downstream_readers(self, tmp_path, tube, tendon, geom):
        profile = [(float(v), 0.0) for v in np.linspace(0.0, 3.0, 5)]
        dataset = synthetic_sweep(
            geom, tendon, profile, [33.2], NoiseSpec(seed=1), 0.0, tube
        )
        fileio.write_dataset_bundle(tmp_path / "bundle", dataset)
        tip = fileio.read_marker_csv(tmp_path / "bundle" / "tip.csv")
        assert tip["strokes"] is not None
        marker = fileio.read_marker_csv(tmp_path / "bundle" / "marker_33p2_truth.csv")
        assert marker["points"].shape == (5, 3)


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "file.txt"
    fileio.atomic_write_text(path, "one\n")
    fileio.atomic_write_text(path, "two\n")
    assert path.read_text() == "two\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]
