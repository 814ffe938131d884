"""File formats: JSON specs and CSV curves/trajectories/joint sweeps.

Every JSON text is rendered by :func:`render_json` (two-space indent,
sorted keys, final newline), which refuses a non-finite number. The tube,
tendon and phantom readers share one field reader: a spec that is no JSON
object, lacks a field, or holds a string, true/false or null where a
number or a list of numbers belongs raises ValidationError.

All files use millimeters, newtons and radians, except the tube JSON where
the remaining half-angle is written in degrees (converted on load) and the
tendon JSON which keeps its customary m^2 / GPa units. Floats are written
with 12 significant digits so round-trips preserve values well beyond the
tolerances used anywhere in the package. Writes are atomic
(write-then-rename) so a crashed run never leaves a truncated file.

CSV cells are formatted by one numpy kernel with the bytes of ``%.12g``
(see :func:`_cells`) and parsed with one ``np.loadtxt`` call, which reads a
cell to the same float64 as ``float()``. A dataset bundle formats the
columns that its tip and marker files share once for all of them.
Readers accept blank lines, CRLF or CR line endings and quoted cells such
as ``"1.5"``; ``float()``'s underscore separators (``1_0``) are rejected.
A header column past the format's own is rejected. Every row must have as
many cells as the header; a bad row raises ValidationError naming the
path and its 1-based line in the file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import DomainError, ValidationError
from .estimation import EstimateResult, TrajectoryComparison
from .geometry import DerivedGeometry, TendonSpec, TubeSpec
from .kinematics import BackboneCurve, TipTrajectory
from .simulation import PhantomSpec, SyntheticDataset

__all__ = [
    "render_json",
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
    "read_marker_csv",
    "comparison_to_json",
    "write_comparison_csv",
    "write_dataset_bundle",
]

_MARKER_HEADER = ["eta", "x_mm", "y_mm", "z_mm", "dl_t_mm", "T_N"]
_JOINTS_HEADER = ["dl_t_mm", "T_N", "R_mm", "H_mm", "phi_rad", "theta_rad"]


def _number(value) -> float:
    """A JSON number as a float; a string, true/false, null, list or object raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)


def _vector(value) -> np.ndarray:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {json.dumps(value)}")
    return np.array([_number(v) for v in value])


# Conversions on load other than _number, by JSON field. The tube JSON keeps
# the half-angle in degrees. The turn count goes to TubeSpec as read, which
# rejects 1.5 and true instead of truncating them.
_CONVERSIONS = {
    "remaining_half_angle": lambda degrees: math.radians(_number(degrees)),
    "turn_count": lambda count: count,
    "axis_point_mm": _vector,
    "axis_direction": _vector,
}


def render_json(document: dict) -> str:
    """The JSON text of every file and summary: two-space indent, sorted keys, final newline.

    JSON has no Infinity or NaN (RFC 8259, section 6), so a non-finite
    number raises DomainError instead of being written.
    """
    try:
        return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        names = sorted(k for k, v in document.items() if isinstance(v, float) and not math.isfinite(v))
        raise DomainError(f"cannot write non-finite {', '.join(names) or 'value'} as JSON") from None


def atomic_write_text(path: str | Path, text: str | bytes) -> None:
    """Write text, or bytes as they are, to path via a temp file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") if isinstance(text, str) else os.fdopen(fd, "wb") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _open_text(path: str | Path) -> Iterator:
    """Open a user file as UTF-8 text; a byte that does not decode raises ValidationError."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_json_object(path: str | Path) -> dict:
    try:
        with _open_text(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: expected a JSON object at the top level")
    return payload


def _read_fields(path: str | Path, payload, what: str, names: list[str]) -> dict:
    """Convert the fields ``names`` of a ``what`` spec's JSON object.

    Each goes through its _CONVERSIONS entry or _number; a payload that is
    no object, or a missing or mistyped field, raises ValidationError.
    """
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: '{what}' must be a JSON object")
    values = {}
    for name in names:
        if name not in payload:
            raise ValidationError(f"{what} spec is missing required field '{name}'")
        try:
            values[name] = _CONVERSIONS.get(name, _number)(payload[name])
        except (TypeError, OverflowError) as exc:  # OverflowError: an int past float range
            raise ValidationError(f"{path}: bad {what} field '{name}': {exc}") from None
    return values


def load_device_spec(path: str | Path) -> tuple[TubeSpec, TendonSpec | None]:
    """Load a tube (and optionally tendon) spec from JSON.

    The document either holds the tube fields at the top level or nests
    them under "tube" with an optional "tendon" sibling. The remaining
    half-angle is stored in degrees. The fields are those of the spec
    classes, as :func:`dump_tube_spec` writes them.
    """
    payload = _read_json_object(path)
    tube = TubeSpec(**_read_fields(path, payload.get("tube", payload), "tube", [f.name for f in fields(TubeSpec)]))
    if "tendon" not in payload:
        return tube, None
    return tube, TendonSpec(**_read_fields(path, payload["tendon"], "tendon", [f.name for f in fields(TendonSpec)]))


def _tube_document(tube: TubeSpec, tendon: TendonSpec | None = None) -> dict:
    tube_payload = asdict(tube)
    tube_payload["remaining_half_angle"] = math.degrees(tube.remaining_half_angle)
    document: dict = {"tube": tube_payload}
    if tendon is not None:
        document["tendon"] = asdict(tendon)
    return document


def dump_tube_spec(tube: TubeSpec, tendon: TendonSpec | None = None) -> str:
    """Serialize specs to the JSON layout accepted by :func:`load_device_spec`."""
    return render_json(_tube_document(tube, tendon))


def dump_derived_geometry(geom: DerivedGeometry) -> str:
    """DerivedGeometry's five mm fields as JSON.

    The dump stays at these five, named one by one, so the turn count (an
    input from the spec) stays out and the file keeps its bytes.
    """
    names = ("notch_na_offset", "composite_na_offset", "na_length", "tendon_na_distance", "slack_tendon_length")
    return render_json({k: float(getattr(geom, k)) for k in names})


def load_phantom_spec(path: str | Path) -> PhantomSpec:
    """Phantom JSON: {"axis_point_mm": [x,y,z], "axis_direction": [x,y,z], "radius_mm": r}."""
    names = ["axis_point_mm", "axis_direction", "radius_mm"]
    return PhantomSpec(*_read_fields(path, _read_json_object(path), "phantom", names).values())


def dump_phantom_spec(phantom: PhantomSpec) -> str:
    # PhantomSpec holds float64 arrays and a float, so these are Python floats.
    point, direction = phantom.axis_point.tolist(), phantom.axis_direction.tolist()
    return render_json({"axis_point_mm": point, "axis_direction": direction, "radius_mm": phantom.radius})


def _printable(text: str) -> str:
    """``text`` with each unprintable character, such as a control or a surrogate, escaped by ``unicode_escape``."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode() for c in text)


def _echo(cells: list[str]) -> str:
    """Header cells joined for an error message, with line breaks and other unprintables escaped."""
    return _printable(",".join(cells))


def _read_table(
    path: str | Path, expected_header: list[str], optional: int = 0, samples: str | None = None
) -> np.ndarray:
    """Read a CSV of floats as an (n, columns) array after checking its header.

    The header is `expected_header`, or `expected_header` without its
    `optional` trailing columns; any other column after the required ones
    is rejected. With `samples`, a file with no data rows is rejected as
    having "no <samples>".
    """
    with _open_text(path) as handle:
        first = handle.readline()
        if not first:
            raise ValidationError(f"{path}: empty CSV")
        header = next(csv.reader([first]))
        required = expected_header[: len(expected_header) - optional]
        if header[: len(required)] != required:
            raise ValidationError(
                f"{path}: expected header starting with {','.join(required)}, got {_echo(header)}"
            )
        extra, allowed = header[len(required):], expected_header[len(required):]
        if extra not in ([], allowed):
            raise ValidationError(
                f"{path}: unexpected columns {_echo(extra)} after {','.join(required)}"
                + (f"; optional columns must be exactly {','.join(allowed)}" if allowed else "")
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
        except UnicodeDecodeError:
            raise
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


_POW10 = np.array([float(10**k) for k in range(16)])  # each exact in float64
_CELL = np.dtype([("text", "V20"), ("end", np.uint8)])  # "-1.23456789012e-308" is 19 bytes


def _digit_words() -> list[np.ndarray]:
    """The cell kernel's NUL-padded 4-byte words, filled in place as uint8 (no large temporaries).

    ints: 0..9999 right-aligned, then -0..-999 at 10^4 + i; first: ".ddd" for 0..999; groups:
    "dddd" for 0..9999. The second halves of first and groups drop trailing zeros ("." too for 0).
    """
    groups = np.empty((2, 10, 10, 10, 10, 4), np.uint8)  # one axis per digit of 0..9999
    for place in range(4):
        groups[..., place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - place))
    groups[1, ..., 0, 3] = groups[1, ..., 0, 0, 2] = groups[1, :, 0, 0, 0, 1] = groups[1, 0, 0, 0, 0, 0] = 0
    first = groups[:, 0].copy()
    first[..., 0] = ord(".")
    first[1, 0, 0, 0, 0] = 0
    ints = np.empty((11, 10, 10, 10, 4), np.uint8)  # 0..9999, then -0..-999 at [10]
    ints[:10] = groups[0]
    ints[0, ..., 0] = ints[0, 0, ..., 1] = ints[0, 0, 0, :, 2] = 0
    ints[10] = ints[0]
    ints[10, 0, 0, :, 2] = ints[10, 0, 1:, :, 1] = ints[10, 1:, :, :, 0] = ord("-")
    return [t.view(np.uint32).ravel() for t in (ints, first, groups)]


_INT_WORDS, _FIRST_WORDS, _GROUP_WORDS = _digit_words()


def _cells(values: np.ndarray, digits: int = 12) -> np.ndarray:
    """A 1-D float array as (n, 5) uint32 words, each row ``'%.<digits>g' % v`` padded with NUL.

    P = digits runs from 4 to 12. Fixed notation with up to four integer
    digits (three when negative) comes from the digit words; every other
    cell (0, -0, NaN, +-inf, scientific notation, or refused below) is
    Python's ``%`` text. With X = floor(log10|v|), the exact power
    10^(P-1-X) (exponent 0..15), s = fl(|v| 10^(P-1-X)) and m = rint(s), a
    cell is accepted only if 10^(P-1) <= s, m < 10^P and |s - m| < 1/2 - 2^-12.
    As s < 2^40, s is within 2^-14 of the exact product, so m is the
    correctly rounded P-digit mantissa with no tie, and X is the exponent
    of the rounded value, as %g requires: an X one too small gives
    m >= 10^P, one too large gives s < 10^(P-1) unless v rounds up into
    the next decade, where that X is right. log10's rounding thus costs
    speed, never a byte. m splits exactly into the integer part (one word)
    and the 15-digit fraction (m mod 10^f) 10^(15-f), f = P-1-X (four
    words), whose trailing zeros, and the "." of a zero fraction, are NUL.
    """
    v = np.asarray(values, dtype=float)
    negative = np.signbit(v)
    s = np.abs(v)
    # Steps write into arrays they no longer need: at this size a fresh
    # temporary costs more in page faults than its arithmetic.
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(s))
        fast = (x >= -4) & (x + negative <= 3)
        e = np.where(fast, digits - 1 - x, 0.0).astype(np.intp)
        power = _POW10.take(e)
        m = np.rint(np.multiply(s, power, out=s))
        fast &= (s >= _POW10[digits - 1]) & (m < _POW10[digits])
        fast &= np.abs(np.subtract(s, m, out=x), out=x) < 0.5 - 2.0**-12
    np.copyto(m, 0.0, where=~fast)
    whole = np.floor(np.divide(m, power, out=s), out=s)
    np.subtract(m, np.multiply(whole, power, out=power), out=m)
    fraction = np.multiply(m, _POW10[::-1].take(e), out=m).astype(np.intp)
    # Floor division by a scalar takes numpy's fast path, which divmod lacks;
    # every value here is non-negative, so a - (a // d) * d is a mod d.
    high = np.floor_divide(fraction, 10**8, out=e)
    low = np.subtract(fraction, high * 10**8, out=fraction)
    g0, g2 = high // 10**4, low // 10**4
    g1 = np.subtract(high, g0 * 10**4, out=high)
    g3 = np.subtract(low, g2 * 10**4, out=low)
    # A group with no digit after it takes the stripped half of its table.
    low_zero = (g2 == 0) & (g3 == 0)
    np.add(g0, 1000, out=g0, where=low_zero & (g1 == 0))
    np.add(g1, 10**4, out=g1, where=low_zero)
    np.add(g2, 10**4, out=g2, where=g3 == 0)
    g3 += 10**4
    whole = whole.astype(np.intp)
    np.add(whole, 10**4, out=whole, where=negative)
    cells = np.empty((len(v), 5), np.uint32)
    for j, (table, index) in enumerate(zip([_INT_WORDS, _FIRST_WORDS] + [_GROUP_WORDS] * 3, [whole, g0, g1, g2, g3])):
        cells[:, j] = table[index]  # every index is in range by construction
    slow = np.flatnonzero(~fast)
    text = [f"%.{digits}g" % value for value in v[slow].tolist()]
    cells[slow] = np.array(text, dtype="S20").view(np.uint32).reshape(-1, 5)
    return cells


def _join_cells(columns: list[np.ndarray], ends: int | np.ndarray = ord("\n")) -> bytearray:
    """Equal-length columns of cells as ASCII text, row by row.

    A cell is followed by "," or, the last of its row, by `ends` (a code, or
    one per row); one translate drops the NUL padding.
    """
    buffer = bytearray(len(columns[0]) * len(columns) * _CELL.itemsize)
    slots = np.frombuffer(buffer, _CELL).reshape(-1, len(columns))
    for j, cells in enumerate(columns):
        slots["text"][:, j] = cells.view(_CELL["text"])[:, 0]
    slots["end"] = ord(",")
    slots["end"][:, -1] = ends
    return buffer.translate(None, b"\0")


def _csv_bytes(header: list[str], columns: list[np.ndarray]) -> bytearray:
    text = _join_cells(columns)
    text[:0] = (",".join(header) + "\n").encode()
    return text


def write_table_csv(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns under a header, every cell as %.12g.

    Anything but one 1-D column per header name, all of one length, raises ValidationError.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    shapes = [c.shape for c in columns]
    if not columns or len(header) != len(columns) or len(set(shapes)) > 1 or len(shapes[0]) != 1:
        raise ValidationError(
            f"{path}: a CSV table needs one 1-D column per header name, all of one length; "
            f"got {len(header)} names for columns of shapes {shapes}"
        )
    atomic_write_text(path, _csv_bytes(header, [_cells(c) for c in columns]))


def write_backbone_csv(path: str | Path, curve: BackboneCurve) -> None:
    write_table_csv(path, ["s_mm", "x_mm", "y_mm", "z_mm"], [curve.s, *curve.points.T])


def read_backbone_csv(path: str | Path) -> BackboneCurve:
    data = _read_table(path, ["s_mm", "x_mm", "y_mm", "z_mm"], samples="curve samples")
    return BackboneCurve(s=data[:, 0], points=data[:, 1:4])


def write_tip_csv(path: str | Path, trajectory: TipTrajectory) -> None:
    write_table_csv(path, ["eta", "x_mm", "y_mm", "z_mm"], [trajectory.eta, *trajectory.points.T])


def read_tip_csv(path: str | Path) -> TipTrajectory:
    """Tip or marker CSV as a trajectory; the optional dl_t_mm,T_N columns are not read."""
    data = _read_table(path, _MARKER_HEADER, optional=2, samples="trajectory samples")
    return TipTrajectory(eta=data[:, 0], points=data[:, 1:4])


def write_joints_csv(path: str | Path, log: EstimateResult) -> None:
    """Joint sweep CSV of an actuation log, such as an estimate or a synthetic dataset: one row per sample.

    A row the batch rejected keeps its stroke and tension; its R, H and phi
    are the batch's nan and its theta is written as nan too.
    """
    write_table_csv(path, _JOINTS_HEADER, _joints_columns(log))


def _joints_columns(log: EstimateResult) -> list[np.ndarray]:
    batch = log.batch
    theta = np.where(batch.ok, log.roll, math.nan)
    return [log.strokes, log.tensions, batch.cylinder_radius, batch.cylinder_height, batch.deflection, theta]


def read_strokes_csv(path: str | Path) -> list[tuple[float, float]]:
    """Actuation profile CSV with header dl_t_mm[,T_N]; tension defaults to 0."""
    data = _read_table(path, ["dl_t_mm", "T_N"], optional=1, samples="actuation samples")
    tensions = data[:, 1] if data.shape[1] == 2 else np.zeros(len(data))
    return list(zip(data[:, 0].tolist(), tensions.tolist()))


def read_marker_csv(path: str | Path) -> dict[str, np.ndarray | None]:
    """Marker/trajectory CSV -> dict with index, points and optional actuation."""
    data = _read_table(path, _MARKER_HEADER, optional=2)
    has_actuation = data.shape[1] == 6
    return {
        "index": data[:, 0],
        "points": data[:, 1:4],
        "strokes": data[:, 4] if has_actuation else None,
        "tensions": data[:, 5] if has_actuation else None,
    }


def comparison_to_json(comparison: TrajectoryComparison) -> str:
    return render_json(
        {
            "max_de_mm": float(comparison.max_distance),
            "rmse_mm": float(comparison.rmse),
            "n_samples": int(comparison.n_samples),
        }
    )


def write_comparison_csv(path: str | Path, index: np.ndarray, comparison: TrajectoryComparison) -> None:
    write_table_csv(path, ["eta", "d_e_mm"], [index, comparison.per_sample_distances])


def _distinct_tags(values, code: str, digits: int) -> list[str]:
    """Each of ``values`` as ``'%.<p><code>' % value``, at the least p >= ``digits`` that tells them apart."""
    while True:
        tags = [f"%.{digits}{code}" % value for value in values]
        if len(set(tags)) >= len(set(values)):
            return tags
        digits += 1


def write_dataset_bundle(directory: str | Path, dataset: SyntheticDataset) -> list[Path]:
    """Write a synthetic dataset as a directory of spec + CSV files.

    Layout: spec.json, joints.csv, tip.csv, then per marker
    marker_<s>.csv (noisy) and marker_<s>_truth.csv (noiseless), <s> as %.12g
    or finer where markers need it; eta is the sample index scaled to [0, 1].
    Returns the list of files written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    spec_payload = _tube_document(dataset.tube)
    spec_payload["noise"] = {
        "position_sigma_mm": dataset.noise.position_sigma,
        "stroke_sigma_mm": dataset.noise.stroke_sigma,
        "seed": dataset.noise.seed,
    }
    spec_payload["theta_rad"] = dataset.roll
    spec_payload["marker_arclengths_mm"] = [float(s) for s in dataset.marker_arclengths]
    path = directory / "spec.json"
    atomic_write_text(path, render_json(spec_payload))
    written.append(path)

    # joints.csv's stroke and tension cells at the accepted rows serve the other files.
    path = directory / "joints.csv"
    joints = [_cells(c) for c in _joints_columns(dataset)]
    atomic_write_text(path, _csv_bytes(_JOINTS_HEADER, joints))
    written.append(path)

    ok, n = dataset.batch.ok, dataset.n_samples
    index, noisy = (_cells(column[ok]) for column in (np.arange(n) / max(n - 1, 1), dataset.strokes_noisy))
    strokes, tensions = joints[0][ok], joints[1][ok]
    del joints  # the other columns' cells would outlive the marker files

    def write_markers(name: str, points: np.ndarray, strokes: np.ndarray) -> None:
        path = directory / name
        points = [_cells(column) for column in points[ok].T]
        atomic_write_text(path, _csv_bytes(_MARKER_HEADER, [index, *points, strokes, tensions]))
        written.append(path)

    write_markers("tip.csv", dataset.tips_true, strokes)
    for s, tag in zip(dataset.marker_arclengths, _distinct_tags(dataset.marker_arclengths, "g", 12)):
        tag = tag.replace(".", "p").replace("-", "m")
        write_markers(f"marker_{tag}.csv", dataset.tracks_noisy[s], noisy)
        write_markers(f"marker_{tag}_truth.csv", dataset.tracks_true[s], strokes)
    return written
