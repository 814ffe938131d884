"""File formats: JSON specs and CSV curves/trajectories/joint sweeps.

All files use millimeters, newtons and radians, except the tube JSON where
the remaining half-angle is written in degrees (converted on load) and the
tendon JSON which keeps its customary m^2 / GPa units. Floats are written
with 12 significant digits so round-trips preserve values well beyond the
tolerances used anywhere in the package. Writes are atomic
(write-then-rename) so a crashed run never leaves a truncated file.

CSV tables are formatted with one ``%`` call per file and parsed with one
``np.loadtxt`` call, which reads a cell to the same float64 as ``float()``.
Readers accept blank lines, CRLF or CR line endings and quoted cells such
as ``"1.5"``; ``float()``'s underscore separators (``1_0``) are rejected.
Every row must have as many cells as the header; a bad row raises
ValidationError naming the path and its 1-based line in the file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from collections.abc import Iterable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .estimation import TrajectoryComparison
from .geometry import DerivedGeometry, TendonSpec, TubeSpec
from .kinematics import BackboneCurve, JointState, TipTrajectory
from .simulation import PhantomSpec, SyntheticDataset

__all__ = [
    "atomic_write_text",
    "load_device_spec",
    "dump_tube_spec",
    "dump_derived_geometry",
    "load_phantom_spec",
    "dump_phantom_spec",
    "write_table_csv",
    "write_backbone_csv",
    "read_backbone_csv",
    "write_tip_csv",
    "read_tip_csv",
    "write_joints_csv",
    "read_strokes_csv",
    "write_marker_csv",
    "read_marker_csv",
    "comparison_to_json",
    "write_comparison_csv",
    "write_dataset_bundle",
]

_FLOAT_FMT = "%.12g"

_TUBE_FIELDS = (
    "inner_radius",
    "outer_radius",
    "notch_axial_width",
    "notch_circumferential_extent",
    "bridge_length",
    "circumferential_offset",
    "patterned_length",
    "remaining_half_angle",
    "turn_count",
    "tendon_radius",
)
_TENDON_FIELDS = ("total_length", "cross_section_area", "elastic_modulus")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path via a temp file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_fields(payload: dict, fields: tuple[str, ...], what: str) -> None:
    for name in fields:
        if name not in payload:
            raise ValidationError(f"{what} is missing required field '{name}'")


def load_device_spec(path: str | Path) -> tuple[TubeSpec, TendonSpec | None]:
    """Load a tube (and optionally tendon) spec from JSON.

    The document either holds the tube fields at the top level or nests
    them under "tube" with an optional "tendon" sibling. The remaining
    half-angle is stored in degrees.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: expected a JSON object at the top level")

    tube_payload = payload.get("tube", payload)
    if not isinstance(tube_payload, dict):
        raise ValidationError(f"{path}: 'tube' must be a JSON object")
    _require_fields(tube_payload, _TUBE_FIELDS, "tube spec")
    values = {name: tube_payload[name] for name in _TUBE_FIELDS}
    try:
        values["remaining_half_angle"] = math.radians(float(values["remaining_half_angle"]))
        # The turn count goes to TubeSpec as read, which rejects 1.5 and
        # true instead of truncating them.
        tube = TubeSpec(**{k: float(v) if k != "turn_count" else v for k, v in values.items()})
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"{path}: bad tube field value: {exc}") from exc

    tendon = None
    if "tendon" in payload:
        tendon_payload = payload["tendon"]
        if not isinstance(tendon_payload, dict):
            raise ValidationError(f"{path}: 'tendon' must be a JSON object")
        _require_fields(tendon_payload, _TENDON_FIELDS, "tendon spec")
        try:
            tendon = TendonSpec(**{k: float(tendon_payload[k]) for k in _TENDON_FIELDS})
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"{path}: bad tendon field value: {exc}") from exc
    return tube, tendon


def dump_tube_spec(tube: TubeSpec, tendon: TendonSpec | None = None) -> str:
    """Serialize specs to the JSON layout accepted by :func:`load_device_spec`."""
    tube_payload = asdict(tube)
    tube_payload["remaining_half_angle"] = math.degrees(tube.remaining_half_angle)
    document: dict = {"tube": tube_payload}
    if tendon is not None:
        document["tendon"] = asdict(tendon)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def dump_derived_geometry(geom: DerivedGeometry) -> str:
    """DerivedGeometry's five mm fields as JSON.

    The dump stays at these five, named one by one, so the turn count (an
    input from the spec) stays out and the file keeps its bytes.
    """
    names = ("notch_na_offset", "composite_na_offset", "na_length", "tendon_na_distance", "slack_tendon_length")
    return json.dumps({k: float(getattr(geom, k)) for k in names}, indent=2, sort_keys=True) + "\n"


def load_phantom_spec(path: str | Path) -> PhantomSpec:
    """Phantom JSON: {"axis_point_mm": [x,y,z], "axis_direction": [x,y,z], "radius_mm": r}."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    _require_fields(payload, ("axis_point_mm", "axis_direction", "radius_mm"), "phantom spec")
    return PhantomSpec(
        axis_point=np.asarray(payload["axis_point_mm"], dtype=float),
        axis_direction=np.asarray(payload["axis_direction"], dtype=float),
        radius=float(payload["radius_mm"]),
    )


def dump_phantom_spec(phantom: PhantomSpec) -> str:
    return (
        json.dumps(
            {
                "axis_point_mm": [float(v) for v in phantom.axis_point],
                "axis_direction": [float(v) for v in phantom.axis_direction],
                "radius_mm": float(phantom.radius),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def _read_table(
    path: str | Path, expected_header: list[str], optional: int = 0, samples: str | None = None
) -> np.ndarray:
    """Read a CSV of floats as an (n, columns) array after checking its header.

    The header may omit the `optional` trailing columns. With `samples`, a
    file with no data rows is rejected as having "no <samples>".
    """
    with open(path) as handle:
        first = handle.readline()
        if not first:
            raise ValidationError(f"{path}: empty CSV")
        header = next(csv.reader([first]))
        required = expected_header[: len(expected_header) - optional]
        if header[: len(required)] != required:
            raise ValidationError(
                f"{path}: expected header starting with {','.join(required)}, "
                f"got {','.join(header)}"
            )
        if optional and header[len(required):] not in ([], expected_header[len(required):]):
            raise ValidationError(
                f"{path}: optional columns must be exactly "
                f"{','.join(expected_header[len(required):])}"
            )
        width = len(header)
        start = handle.tell()
        # np.loadtxt warns on a body of blank lines only; that is zero rows here.
        if all(line == "\n" for line in handle):
            if samples:
                raise ValidationError(f"{path}: no {samples}")
            return np.empty((0, width))
        handle.seek(start)
        try:
            data = _parse(handle)
            if data.shape[1] != width:
                raise ValueError(f"expected {width} columns, got {data.shape[1]}")
        except ValueError as exc:
            handle.seek(start)
            raise ValidationError(_bad_row(path, handle, width) or f"{path}: {exc}") from None
    return data


def _parse(lines: Iterable[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)


def _bad_row(path: str | Path, lines: Iterable[str], width: int) -> str | None:
    """Name the file line and the cause of the first row that does not parse."""
    for lineno, cells in enumerate(csv.reader(lines), start=2):
        if cells and len(cells) != width:
            return f"{path}:{lineno}: expected {width} columns, got {len(cells)}"
        for cell in cells:
            try:  # quoted, so a cell holding commas or quotes is judged alone
                _parse(['"' + cell.replace('"', '""') + '"'])
            except ValueError:
                return f"{path}:{lineno}: could not convert string to float: {cell!r}"
    return None


def write_table_csv(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns under a header, every cell as %.12g."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join([_FLOAT_FMT] * len(header)) + "\n"
    text = (row * len(table)) % tuple(table.ravel().tolist())
    atomic_write_text(path, ",".join(header) + "\n" + text)


def write_backbone_csv(path: str | Path, curve: BackboneCurve) -> None:
    write_table_csv(path, ["s_mm", "x_mm", "y_mm", "z_mm"], [curve.s, *curve.points.T])


def read_backbone_csv(path: str | Path) -> BackboneCurve:
    data = _read_table(path, ["s_mm", "x_mm", "y_mm", "z_mm"], samples="curve samples")
    return BackboneCurve(s=data[:, 0], points=data[:, 1:4])


def write_tip_csv(path: str | Path, trajectory: TipTrajectory) -> None:
    write_table_csv(path, ["eta", "x_mm", "y_mm", "z_mm"], [trajectory.eta, *trajectory.points.T])


def read_tip_csv(path: str | Path) -> TipTrajectory:
    data = _read_table(path, ["eta", "x_mm", "y_mm", "z_mm"], samples="trajectory samples")
    return TipTrajectory(eta=data[:, 0], points=data[:, 1:4])


def write_joints_csv(
    path: str | Path,
    strokes: np.ndarray,
    tensions: np.ndarray,
    joints: list[JointState | None],
) -> None:
    """Joint sweep CSV; failed samples serialize as nan joint columns."""
    failed = (math.nan,) * 4
    values = [
        failed if j is None else (j.cylinder_radius, j.cylinder_height, j.deflection, j.roll)
        for j in joints
    ]
    write_table_csv(
        path,
        ["dl_t_mm", "T_N", "R_mm", "H_mm", "phi_rad", "theta_rad"],
        [strokes, tensions, *np.array(values, dtype=float).reshape(-1, 4).T],
    )


def read_strokes_csv(path: str | Path) -> list[tuple[float, float]]:
    """Actuation profile CSV with header dl_t_mm[,T_N]; tension defaults to 0."""
    data = _read_table(path, ["dl_t_mm", "T_N"], optional=1, samples="actuation samples")
    tensions = data[:, 1] if data.shape[1] == 2 else np.zeros(len(data))
    return list(zip(data[:, 0].tolist(), tensions.tolist()))


def write_marker_csv(
    path: str | Path,
    index: np.ndarray,
    points: np.ndarray,
    strokes: np.ndarray | None = None,
    tensions: np.ndarray | None = None,
) -> None:
    header = ["eta", "x_mm", "y_mm", "z_mm"]
    columns = [index, *np.asarray(points, dtype=float).T]
    if strokes is not None:
        header += ["dl_t_mm", "T_N"]
        columns += [strokes, np.zeros_like(strokes, dtype=float) if tensions is None else tensions]
    write_table_csv(path, header, columns)


def read_marker_csv(path: str | Path) -> dict[str, np.ndarray | None]:
    """Marker/trajectory CSV -> dict with index, points and optional actuation."""
    data = _read_table(path, ["eta", "x_mm", "y_mm", "z_mm", "dl_t_mm", "T_N"], optional=2)
    has_actuation = data.shape[1] == 6
    return {
        "index": data[:, 0],
        "points": data[:, 1:4],
        "strokes": data[:, 4] if has_actuation else None,
        "tensions": data[:, 5] if has_actuation else None,
    }


def comparison_to_json(comparison: TrajectoryComparison) -> str:
    return (
        json.dumps(
            {
                "max_de_mm": float(comparison.max_distance),
                "rmse_mm": float(comparison.rmse),
                "n_samples": int(comparison.n_samples),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def write_comparison_csv(path: str | Path, index: np.ndarray, comparison: TrajectoryComparison) -> None:
    write_table_csv(path, ["eta", "d_e_mm"], [index, comparison.per_sample_distances])


def _marker_file_tag(arclength: float) -> str:
    return (_FLOAT_FMT % arclength).replace(".", "p").replace("-", "m")


def write_dataset_bundle(directory: str | Path, dataset: SyntheticDataset) -> list[Path]:
    """Write a synthetic dataset as a directory of spec + CSV files.

    Layout: spec.json, joints.csv, tip.csv, then per marker
    marker_<s>.csv (noisy) and marker_<s>_truth.csv (noiseless).
    Returns the list of files written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    spec_payload = json.loads(dump_tube_spec(dataset.tube))
    spec_payload["noise"] = {
        "position_sigma_mm": dataset.noise.position_sigma,
        "stroke_sigma_mm": dataset.noise.stroke_sigma,
        "seed": dataset.noise.seed,
    }
    spec_payload["theta_rad"] = dataset.roll
    spec_payload["marker_arclengths_mm"] = [float(s) for s in dataset.marker_arclengths]
    path = directory / "spec.json"
    atomic_write_text(path, json.dumps(spec_payload, indent=2, sort_keys=True) + "\n")
    written.append(path)

    path = directory / "joints.csv"
    write_joints_csv(path, dataset.strokes, dataset.tensions, list(dataset.joints))
    written.append(path)

    index = dataset.sample_index()
    ok = np.array([j is not None for j in dataset.joints])
    path = directory / "tip.csv"
    write_marker_csv(path, index[ok], dataset.tips_true[ok], dataset.strokes[ok], dataset.tensions[ok])
    written.append(path)

    for s in dataset.marker_arclengths:
        tag = _marker_file_tag(s)
        path = directory / f"marker_{tag}.csv"
        write_marker_csv(
            path, index[ok], dataset.tracks_noisy[s][ok], dataset.strokes_noisy[ok], dataset.tensions[ok]
        )
        written.append(path)
        path = directory / f"marker_{tag}_truth.csv"
        write_marker_csv(path, index[ok], dataset.tracks_true[s][ok], dataset.strokes[ok], dataset.tensions[ok])
        written.append(path)
    return written
