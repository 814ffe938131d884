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
from helikin.estimation import compare_point_sequences, stroke_based_estimate
from helikin.geometry import derive_geometry
from helikin.kinematics import (
    BackboneCurve,
    TipTrajectory,
    forward_kinematics,
    joint_from_actuation,
)
from helikin.presets import default_tendon, default_tube
from helikin.simulation import NoiseSpec, PhantomSpec, synthetic_sweep

from .oracles import write_marker_table


class TestDeviceSpecJson:
    def test_round_trip(self, tube, tendon, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(fileio.dump_tube_spec(tube, tendon))
        loaded_tube, loaded_tendon = fileio.load_device_spec(path)
        assert loaded_tube == tube
        assert loaded_tendon == tendon

    def test_numpy_fields_are_stored_and_dumped_as_float(self, tube, tendon):
        numpy_tube = dataclasses.replace(tube, outer_radius=np.float32(0.953), patterned_length=np.int64(64))
        numpy_tendon = dataclasses.replace(tendon, total_length=np.int64(475), elastic_modulus=np.float32(53.97))
        python_tube = dataclasses.replace(tube, outer_radius=float(np.float32(0.953)), patterned_length=64.0)
        python_tendon = dataclasses.replace(tendon, total_length=475.0, elastic_modulus=float(np.float32(53.97)))
        for spec in (numpy_tube, numpy_tendon):
            assert {type(v) for k, v in dataclasses.asdict(spec).items() if k != "turn_count"} == {float}
        assert fileio.dump_tube_spec(numpy_tube, numpy_tendon) == fileio.dump_tube_spec(python_tube, python_tendon)

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

    @pytest.mark.parametrize(
        "field, text",
        [("inner_radius", '"thin"'), ("outer_radius", '"0.953"'), ("bridge_length", "true"),
         ("outer_radius", "[1]"), ("remaining_half_angle", "null"), ("remaining_half_angle", '"63"'),
         ("patterned_length", "1" + "0" * 400)],
        ids=["string", "numeric-string", "true", "list", "null", "degrees-string", "401-digit"],
    )
    def test_wrong_field_type_rejected(self, tube, tendon, tmp_path, field, text):
        payload = json.loads(fileio.dump_tube_spec(tube, tendon))
        payload["tube"][field] = "VALUE"
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload).replace('"VALUE"', text))
        with pytest.raises(ValidationError, match=f"^{path}: bad tube field '{field}': "):
            fileio.load_device_spec(path)

    @pytest.mark.parametrize("layout", ["tube", "tendon"])
    def test_non_object_section_rejected(self, tube, tendon, tmp_path, layout):
        payload = json.loads(fileio.dump_tube_spec(tube, tendon))
        payload[layout] = [1, 2]
        path = tmp_path / "section.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"'{layout}' must be a JSON object"):
            fileio.load_device_spec(path)

    def test_tendon_fields_checked_like_the_tube(self, tube, tendon, tmp_path):
        payload = json.loads(fileio.dump_tube_spec(tube, tendon))
        payload["tendon"]["elastic_modulus"] = "stiff"
        path = tmp_path / "tendon.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="bad tendon field 'elastic_modulus': expected a number"):
            fileio.load_device_spec(path)
        del payload["tendon"]["total_length"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="tendon spec is missing required field 'total_length'"):
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


class TestRenderJson:
    def test_layout(self):
        assert fileio.render_json({"b": [1.5, 2], "a": True}) == (
            '{\n  "a": true,\n  "b": [\n    1.5,\n    2\n  ]\n}\n'
        )

    def test_every_dump_uses_it(self, tube, tendon, geom):
        document = json.loads(fileio.dump_tube_spec(tube, tendon))
        assert fileio.dump_tube_spec(tube, tendon) == fileio.render_json(document)
        derived = fileio.dump_derived_geometry(geom)
        assert derived == fileio.render_json(json.loads(derived))


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
        "text, message",
        [
            ("5", "expected a JSON object at the top level"),
            ('{"axis_point_mm": [0, 10, 0], "axis_direction": [1, 0, 0], "radius_mm": "4"}',
             "bad phantom field 'radius_mm': expected a number, got \"4\""),
            ('{"axis_point_mm": [0, 10, 0], "axis_direction": [1, 0, 0], "radius_mm": [4]}',
             r"bad phantom field 'radius_mm': expected a number, got \[4\]"),
            ('{"axis_point_mm": [0, 10, 0], "axis_direction": [1, 0, 0], "radius_mm": null}',
             "bad phantom field 'radius_mm': expected a number, got null"),
            ('{"axis_point_mm": "abc", "axis_direction": [1, 0, 0], "radius_mm": 4}',
             "bad phantom field 'axis_point_mm': expected a list of numbers"),
            ('{"axis_point_mm": ["0", "10", "0"], "axis_direction": [1, 0, 0], "radius_mm": 4}',
             "bad phantom field 'axis_point_mm': expected a number"),
            ('{"axis_point_mm": [0, 10, 0], "axis_direction": [true, false, false], "radius_mm": 4}',
             "bad phantom field 'axis_direction': expected a number, got true"),
            ('{"axis_point_mm": [0, 10, 0], "axis_direction": {"x": 1}, "radius_mm": 4}',
             "bad phantom field 'axis_direction': expected a list of numbers"),
        ],
        ids=["top-level-number", "string-radius", "list-radius", "null-radius", "string-point",
             "string-cells", "boolean-cells", "object-direction"],
    )
    def test_wrong_type_rejected(self, tmp_path, text, message):
        path = tmp_path / "phantom.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
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
        result = stroke_based_estimate([(0.0, 0.0), (9.0, 0.0), (2.0, 0.0)], geom, tendon, 0.0)
        path = tmp_path / "joints.csv"
        fileio.write_joints_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "dl_t_mm,T_N,R_mm,H_mm,phi_rad,theta_rad"
        assert lines[2] == "9,0,nan,nan,nan,nan"
        assert len(lines) == 4

    @pytest.mark.parametrize("rows", [0, 1, 37])
    @pytest.mark.parametrize("roll", [0.0, -2.0943951023931957])
    def test_joints_csv_matches_a_per_joint_state_reference(self, tendon, geom, tmp_path, rows, roll):
        # About a fifth of the strokes lie past the largest valid one.
        rng = np.random.default_rng(rows)
        strokes = rng.uniform(0.0, 9.0, rows)
        tensions = rng.uniform(0.0, 10.0, rows)
        result = stroke_based_estimate(zip(strokes, tensions), geom, tendon, roll)
        batch = result.batch
        assert rows < 37 or 0 < batch.ok.sum() < rows
        lines = ["dl_t_mm,T_N,R_mm,H_mm,phi_rad,theta_rad"]
        for stroke, tension, joint in zip(strokes, tensions, batch.joint_states(roll)):
            values = [math.nan] * 4 if joint is None else [
                joint.cylinder_radius, joint.cylinder_height, joint.deflection, joint.roll
            ]
            lines.append(",".join("%.12g" % v for v in [stroke, tension, *values]))
        path = tmp_path / "joints.csv"
        fileio.write_joints_csv(path, result)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

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
        write_marker_table(path, index, points, strokes)
        data = fileio.read_marker_csv(path)
        assert np.allclose(data["points"], points, rtol=1e-11)
        assert np.allclose(data["strokes"], strokes, rtol=1e-11)
        assert np.allclose(data["tensions"], np.zeros(5))

    def test_round_trip_without_actuation(self, tmp_path):
        index = np.linspace(0.0, 1.0, 4)
        points = np.zeros((4, 3))
        path = tmp_path / "marker.csv"
        write_marker_table(path, index, points)
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

    def test_tip_reader_takes_marker_columns_and_nothing_else(self, tmp_path):
        path = tmp_path / "tip.csv"
        path.write_text("eta,x_mm,y_mm,z_mm,dl_t_mm,T_N\n0,1,2,3,4,5\n")
        assert fileio.read_tip_csv(path).points.tolist() == [[1.0, 2.0, 3.0]]
        path.write_text("eta,x_mm,y_mm,z_mm,foo\n0,1,2,3,4\n")
        with pytest.raises(ValidationError, match="optional columns must be exactly dl_t_mm,T_N"):
            fileio.read_tip_csv(path)

    @pytest.mark.parametrize(
        "reader, header",
        [
            (fileio.read_backbone_csv, "s_mm,x_mm,y_mm,z_mm"),
            (fileio.read_marker_csv, "eta,x_mm,y_mm,z_mm"),
            (fileio.read_marker_csv, "eta,x_mm,y_mm,z_mm,dl_t_mm,T_N"),
            (fileio.read_tip_csv, "eta,x_mm,y_mm,z_mm,dl_t_mm,T_N"),
            (fileio.read_strokes_csv, "dl_t_mm"),
            (fileio.read_strokes_csv, "dl_t_mm,T_N"),
        ],
    )
    def test_column_past_the_header_rejected(self, tmp_path, reader, header):
        path = tmp_path / "table.csv"
        width = header.count(",") + 2
        path.write_text(f"{header},foo\n" + ",".join(["1"] * width) + "\n")
        with pytest.raises(ValidationError, match="unexpected columns .*foo after"):
            reader(path)

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
        write_marker_table(path, np.zeros(0), np.zeros((0, 3)), np.zeros(0), np.zeros(0))
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

    def test_percent_sign_in_header_written_as_is(self, tmp_path):
        path = tmp_path / "table.csv"
        fileio.write_table_csv(path, ["share_%", "%s"], [np.array([0.5]), np.array([2.0])])
        assert path.read_text() == "share_%,%s\n0.5,2\n"

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
            write_marker_table(path, table[:, 0], table[:, 1:])
            data = fileio.read_marker_csv(path)
        loaded = np.column_stack([data["index"], data["points"]])
        expected = np.array([[float(format(x, ".12g")) for x in row] for row in rows])
        assert loaded.tobytes() == expected.tobytes()


def _per_cell_text(columns, digits):
    """The reference table text: every cell through Python's own format."""
    rows = zip(*[np.asarray(c, dtype=float).tolist() for c in columns])
    return "".join(",".join(format(v, f".{digits}g") for v in row) + "\n" for row in rows)


def _kernel_text(columns, digits):
    return fileio._join_cells([fileio._cells(np.asarray(c, dtype=float), digits) for c in columns]).decode()


def _adversarial_values():
    values = [2.0**-k for k in range(1, 61)]  # exact binary ties of the decimal digits
    for p in range(-6, 14):
        x = float(10**p) if p >= 0 else 10.0**p
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    values += [1e-4, np.nextafter(1e-4, 0.0), 9999.99999999, 9999.999999995, np.nextafter(1e4, 0.0), 999.999999999]
    values += [9.9999999999995, 99.999999999999951, 0.00099999999999995, 9.99999999995, 0.5, 1.0 / 3.0]
    # Decimal ties in the fixed range: 11 and 13 significant digits ending in 5, all exact in binary.
    values += [1.0009765625, 5.0009765625, 123.0009765625, 4321.123046875, 0.1230009765625]
    values += [0.0, 5e-324, 2.2250738585072014e-308, 1e300, math.nan, math.inf]
    return np.array(values + [-v for v in values])


class TestCellKernel:
    """The CSV and SVG cell kernel against Python's per-cell ``format``."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda k: st.lists(st.tuples(*[st.floats()] * k), min_size=1, max_size=50)),
        st.sampled_from([12, 10]),
    )
    def test_matches_per_cell_format(self, rows, digits):
        columns = list(zip(*rows))
        assert _kernel_text(columns, digits) == _per_cell_text(columns, digits)

    @pytest.mark.parametrize("digits", [12, 10])
    def test_adversarial_table(self, digits):
        values = _adversarial_values()
        table = np.resize(values, (-(-len(values) // 4), 4))  # every value, wrapped into 4 columns
        assert _kernel_text(list(table.T), digits) == _per_cell_text(list(table.T), digits)

    @pytest.mark.parametrize("error", [1e-11, -1e-11])
    def test_a_log10_off_by_one_costs_no_byte(self, monkeypatch, error):
        # log10 pushed across a power of ten: the exponent it implies is one off for these values.
        exact_log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: exact_log10(a * (1.0 + error)))
        values = np.array([9.99999999997, 99.9999999997, 0.0999999999997, 1.00000000001, 10.0000000001, 1.0, 100.0])
        assert _kernel_text([values, -values], 12) == _per_cell_text([values, -values], 12)

    def test_fixed_notation_takes_the_digit_words(self):
        # Python's text sits left-aligned in a cell; the digit words right-align the integer part.
        values = np.array([1e-4, 0.5, 12.25, -1.5, 999.75])
        python_text = np.array([format(v, ".12g") for v in values.tolist()], "S20").view(np.uint32).reshape(-1, 5)
        assert (fileio._cells(values) != python_text).any(axis=1).all()


class TestTableWriterRejects:
    """A table the readers would refuse is refused when written, and no file is left."""

    @pytest.mark.parametrize(
        "header, columns, match",
        [
            pytest.param(["a", "b", "c"], [np.zeros(2), np.ones(2)], "3 names", id="header-longer"),
            pytest.param(["a", "b"], [np.zeros(2), np.ones(3)], r"\(2,\), \(3,\)", id="unequal-lengths"),
            pytest.param(["a", "b"], [np.zeros(2), np.ones((2, 2))], r"\(2, 2\)", id="2-D-column"),
            pytest.param([], [], "0 names", id="no-columns"),
        ],
    )
    def test_malformed_table(self, tmp_path, header, columns, match):
        path = tmp_path / "table.csv"
        with pytest.raises(ValidationError, match=match):
            fileio.write_table_csv(path, header, columns)
        assert list(tmp_path.iterdir()) == []

    def test_marker_points_of_two_columns(self, tmp_path):
        path = tmp_path / "marker.csv"
        with pytest.raises(ValidationError, match="4 names for columns of shapes"):
            write_marker_table(path, np.arange(3.0), np.ones((3, 2)))
        assert list(tmp_path.iterdir()) == []


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
    def test_numpy_roll_writes_a_bundle(self, tmp_path, tube, tendon, geom):
        dataset = synthetic_sweep(geom, tendon, [(1.0, 0.0)], [33.2], NoiseSpec(seed=1), np.float32(0.5), tube)
        assert type(dataset.roll) is float
        fileio.write_dataset_bundle(tmp_path / "bundle", dataset)
        assert json.loads((tmp_path / "bundle" / "spec.json").read_text())["theta_rad"] == 0.5

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

    @staticmethod
    def _reference_bundle(directory, dataset):
        """The CSV files of a bundle, each written through a public writer."""
        directory.mkdir()
        n, ok = dataset.n_samples, dataset.batch.ok
        index = np.zeros(1) if n == 1 else np.arange(n) / (n - 1)
        strokes, tensions = dataset.strokes, dataset.tensions
        fileio.write_joints_csv(directory / "joints.csv", dataset)
        write_marker_table(
            directory / "tip.csv", index[ok], dataset.tips_true[ok], strokes[ok], tensions[ok]
        )
        for s in dataset.marker_arclengths:
            tag = ("%.12g" % s).replace(".", "p")
            write_marker_table(
                directory / f"marker_{tag}.csv",
                index[ok], dataset.tracks_noisy[s][ok], dataset.strokes_noisy[ok], tensions[ok],
            )
            write_marker_table(
                directory / f"marker_{tag}_truth.csv",
                index[ok], dataset.tracks_true[s][ok], strokes[ok], tensions[ok],
            )

    # 9 mm is past the largest valid stroke, so rows 2 and 4 are rejected.
    _REJECTS_IN_THE_MIDDLE = [(0.0, 0.0), (1.5, 2.0), (9.0, 1.0), (2.5, 0.5), (math.nan, 0.0), (3.0, 9.5)]

    @pytest.mark.parametrize(
        "profile, markers, noisy",
        [
            pytest.param(_REJECTS_IN_THE_MIDDLE, [18.24, 63.61], True, id="noise-rejected-middle"),
            pytest.param(_REJECTS_IN_THE_MIDDLE, [18.24, 63.61], False, id="no-noise-rejected-middle"),
            pytest.param([(9.0, 0.0), (math.nan, 0.0), (12.0, 3.0)], [33.2], True, id="all-rejected"),
            pytest.param([(1.5, 2.0)], [33.2], True, id="one-sample"),
            pytest.param([(1.5, 2.0)], [18.24, 63.61], False, id="one-sample-no-noise"),
            pytest.param(None, [18.24, 63.61], True, id="random-200"),
        ],
    )
    def test_bundle_bytes_match_the_per_file_writers(
        self, tmp_path, tube, tendon, geom, profile, markers, noisy
    ):
        if profile is None:
            rng = np.random.default_rng(5)
            profile = list(zip(rng.uniform(0.0, 8.0, 200).tolist(), rng.uniform(0.0, 10.0, 200).tolist()))
        noise = NoiseSpec(position_sigma=0.3, stroke_sigma=0.05, seed=17) if noisy else NoiseSpec(seed=17)
        dataset = synthetic_sweep(geom, tendon, profile, markers, noise, -1.3, tube)
        files = fileio.write_dataset_bundle(tmp_path / "bundle", dataset)
        self._reference_bundle(tmp_path / "reference", dataset)
        csvs = [f for f in files if f.suffix == ".csv"]
        assert sorted(f.name for f in csvs) == sorted(f.name for f in (tmp_path / "reference").iterdir())
        for f in csvs:
            assert f.read_bytes() == (tmp_path / "reference" / f.name).read_bytes(), f.name
        ok = dataset.batch.ok
        if noisy and ok.any():
            assert not np.array_equal(dataset.strokes_noisy[ok], dataset.strokes[ok])

    @pytest.mark.parametrize("sigma", [np.float32(0.1), np.int64(1)], ids=["float32", "int64"])
    def test_numpy_scalar_sigmas_write_as_floats(self, tmp_path, tube, tendon, geom, sigma):
        profile = [(1.0, 0.0), (2.0, 0.5)]
        bundles = []
        for name, value in [("numpy", sigma), ("float", float(sigma))]:
            noise = NoiseSpec(position_sigma=value, stroke_sigma=value, seed=1)
            dataset = synthetic_sweep(geom, tendon, profile, [33.2], noise, 0.0, tube)
            bundles.append(fileio.write_dataset_bundle(tmp_path / name, dataset))
        for a, b in zip(*bundles):
            assert a.read_bytes() == b.read_bytes(), a.name
        noise = json.loads((tmp_path / "numpy" / "spec.json").read_text())["noise"]
        assert noise["position_sigma_mm"] == noise["stroke_sigma_mm"] == float(sigma)

    def test_markers_alike_at_12_digits_get_files_of_their_own(self, tmp_path, tube, tendon, geom):
        markers = [20.0, 20.000000000001, 40.0]
        profile = [(float(v), 0.0) for v in np.linspace(0.0, 3.0, 5)]
        dataset = synthetic_sweep(geom, tendon, profile, markers, NoiseSpec(seed=3), 0.0, tube)
        files = fileio.write_dataset_bundle(tmp_path / "bundle", dataset)
        assert len(set(files)) == len(files) == 9
        assert sorted(files) == sorted((tmp_path / "bundle").iterdir())
        for s, tag in zip(markers, ["20", "20p000000000001", "40"]):
            truth = fileio.read_marker_csv(tmp_path / "bundle" / f"marker_{tag}_truth.csv")
            assert np.allclose(truth["points"], dataset.tracks_true[s], rtol=1e-11, atol=0.0)

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
