"""Actuation-to-shape mapping for the helically notched tube.

Pulling the tendon wraps the tube's neutral fiber around an imaginary
cylinder of radius R and height H; those two numbers, a deflection angle
phi and a roll angle theta fully describe the deployed shape. This module
maps tendon stroke and tension to (R, H, phi) and samples the deployed
tube centerline in the fixed frame. The turn count n comes from the
:class:`~helikin.geometry.DerivedGeometry`; the two functions here that
still accept a ``turn_count`` argument only check it against the geometry.

Frames:
    O_0 fixed frame at the outer-tube tip, X_0 along the outer tube.
    O_1 same origin, rolled by theta about X_0 so Y_1 faces the notches.
    helix frame: X along the imaginary-cylinder axis.

The curve sampled by :func:`forward_kinematics` is the tube centerline: a
helix of radius R - y_na about the cylinder axis, anchored at the origin.
At rest (R = y_na) it degenerates to a straight segment on the X_0 axis,
which is what the physical tube does. The neutral fiber is the same FK
helix at radius R instead of R - y_na; it keeps the fixed arc length l_na.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonPhysicalError, OverActuationError, ValidationError
from .geometry import DerivedGeometry, TendonSpec, _check_turn_count

__all__ = [
    "JointState",
    "JointBatch",
    "BackboneCurve",
    "TipTrajectory",
    "DEFAULT_BACKBONE_SAMPLES",
    "tendon_length_from_stroke",
    "cylinder_from_tendon_length",
    "deflection_angle",
    "tendon_length_from_cylinder",
    "joint_from_actuation",
    "joints_from_actuation",
    "actuation_failures",
    "rest_joint",
    "forward_kinematics",
    "backbone_samples",
    "cylinder_axis",
]

# 2^7 + 1 uniform samples: midpoints of a refined grid land on the next one.
DEFAULT_BACKBONE_SAMPLES = 129

_REL_SLOP = 1e-9  # tolerated relative overshoot of s at range ends


@dataclass(frozen=True)
class JointState:
    """Joint-space description of the deployed tube.

    Attributes:
        cylinder_radius: radius R of the imaginary cylinder, mm.
        cylinder_height: height H of the imaginary cylinder, mm.
        deflection: angle phi between the outer-tube axis and the cylinder
            axis, rad.
        roll: actuation angle theta about X_0 selecting the bending
            direction, rad. Always a commanded input, never inferred.
    """

    cylinder_radius: float
    cylinder_height: float
    deflection: float
    roll: float = 0.0

    def __post_init__(self):
        # Written as not (x > 0) so that NaN is rejected too.
        if not self.cylinder_radius > 0.0:
            raise ValidationError(f"cylinder_radius must be > 0, got {self.cylinder_radius}")
        if not self.cylinder_height > 0.0:
            raise ValidationError(f"cylinder_height must be > 0, got {self.cylinder_height}")

    def closure_residual(self, geom: DerivedGeometry) -> float:
        """Relative error of sqrt(H^2 + (2 pi n R)^2) against the fixed l_na."""
        length = math.hypot(
            self.cylinder_height, 2.0 * math.pi * geom.turn_count * self.cylinder_radius
        )
        return abs(length - geom.na_length) / geom.na_length


@dataclass(frozen=True)
class BackboneCurve:
    """Centerline samples in O_0: arc-length parameters (mm) and (N, 3) points."""

    s: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if s.ndim != 1 or pts.shape != (s.size, 3):
            raise ValidationError(
                f"need s of shape (N,) and points of shape (N, 3), got {s.shape} and {pts.shape}"
            )
        if not (np.isfinite(s).all() and np.isfinite(pts).all()):
            raise ValidationError("curve contains non-finite values")
        if not (s[1:] > s[:-1]).all():
            raise ValidationError("arc-length samples must be strictly increasing")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "points", pts)

    @classmethod
    def _trusted(cls, s: np.ndarray, points: np.ndarray) -> BackboneCurve:
        """Curve over float64 arrays the caller has already shown to be valid.

        Skips the shape, finiteness and order checks and keeps the arrays
        as given, so it is only for rows taken from validated curves in
        increasing arc-length order.
        """
        curve = object.__new__(cls)
        object.__setattr__(curve, "s", s)
        object.__setattr__(curve, "points", points)
        return curve

    def __len__(self) -> int:
        return self.s.size

    @property
    def tip(self) -> np.ndarray:
        return self.points[-1]

    def chord_length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1)))


@dataclass(frozen=True)
class TipTrajectory:
    """Tip positions over a progression grid: eta values and (N, 3) points in O_0."""

    eta: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if eta.ndim != 1 or pts.shape != (eta.size, 3):
            raise ValidationError(
                f"need eta of shape (N,) and points of shape (N, 3), got {eta.shape} and {pts.shape}"
            )
        if eta.size and np.any(np.diff(eta) <= 0.0):
            raise ValidationError("eta grid must be strictly increasing")
        if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(pts))):
            raise ValidationError("trajectory contains non-finite values")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.eta.size


def tendon_length_from_stroke(
    stroke: float,
    tension: float,
    tendon: TendonSpec,
    slack_length: float,
    geom: DerivedGeometry | None = None,
) -> float:
    """Deployed tendon length l_t = l_t0 - stroke + elongation, mm.

    The elastic elongation is tension * total_length / (A * E), with the
    area in m^2 and the modulus in GPa so that the result stays in mm.
    When ``geom`` is given, also rejects lengths beyond the geometric
    growth bound l_na + 2 pi n d_t-na, past which no real shape exists.
    """
    if not 0.0 <= stroke < math.inf:
        raise DomainError(f"tendon stroke must be finite and >= 0, got {stroke}")
    if not 0.0 <= tension < math.inf:
        raise DomainError(f"tendon tension must be finite and >= 0, got {tension}")
    elongation = tension * tendon.total_length / tendon.stiffness_n
    length = slack_length - stroke + elongation
    if length <= 0.0:
        raise DomainError(f"tendon length collapsed to {length} mm at stroke {stroke} mm")
    if geom is not None:
        bound = geom.na_length + 2.0 * math.pi * geom.turn_count * geom.tendon_na_distance
        if length >= bound:
            raise DomainError(
                f"tendon length {length:.6g} mm exceeds the growth bound {bound:.6g} mm"
            )
    return length


def cylinder_from_tendon_length(tendon_length: float, geom: DerivedGeometry) -> tuple[float, float]:
    """Imaginary-cylinder radius and height (mm) from the tendon length.

    The neutral fiber keeps its fixed length l_na at radius R while the
    tendon runs at radius R - d_t-na; eliminating the common height gives

        R = (l_na^2 - l_t^2) / (8 pi^2 n^2 d_t-na) + d_t-na / 2

    and H follows from the tendon helix. Raises
    :class:`OverActuationError` when the stroke is too large for a real
    height and :class:`NonPhysicalError` when R would be non-positive.
    """
    radius, height_sq = _radius_and_height_sq(tendon_length, geom)
    if radius <= 0.0:
        raise NonPhysicalError(
            f"non-physical cylinder radius {radius:.6g} mm for tendon length "
            f"{tendon_length:.6g} mm"
        )
    if height_sq <= 0.0:
        raise OverActuationError(
            f"over-actuated: tendon length {tendon_length:.6g} mm leaves no real "
            f"cylinder height (H^2 = {height_sq:.6g})"
        )
    return radius, math.sqrt(height_sq)


def _radius_and_height_sq(tendon_length, geom: DerivedGeometry):
    """R and H^2 from the tendon length, for a float or an array alike.

    Squares are written x * x: numpy evaluates ``array**2`` as x * x while
    Python's ``float**2`` calls pow, and the two differ in the last bit on
    about 0.1 % of inputs. One expression form keeps the scalar and the
    batch actuation maps bit-equal.
    """
    d = geom.tendon_na_distance
    two_pi_n = 2.0 * math.pi * geom.turn_count
    radius = (geom.na_length**2 - tendon_length * tendon_length) / (2.0 * two_pi_n**2 * d) + d / 2.0
    bent = two_pi_n * (radius - d)
    return radius, tendon_length * tendon_length - bent * bent


def deflection_angle(radius: float, height: float, geom: DerivedGeometry) -> float:
    """Angle of the deployed tube against the outer-tube axis, rad.

    atan2(2 pi n (R - y_na), H): the pitch angle of the tube-centerline
    helix, zero for the straight tube, signed if R ever dips below y_na.
    """
    if height <= 0.0:
        raise DomainError(f"cylinder height must be > 0, got {height}")
    return math.atan2(
        2.0 * math.pi * geom.turn_count * (radius - geom.composite_na_offset), height
    )


def tendon_length_from_cylinder(radius: float, height: float, geom: DerivedGeometry) -> float:
    """Tendon length implied by a cylinder state (inverse of the stroke map), mm."""
    return math.hypot(
        height, 2.0 * math.pi * geom.turn_count * (radius - geom.tendon_na_distance)
    )


def joint_from_actuation(
    stroke: float,
    tension: float,
    tendon: TendonSpec,
    geom: DerivedGeometry,
    roll: float = 0.0,
    turn_count: int | None = None,
) -> JointState:
    """Full actuation-to-joint map: stroke and tension to (R, H, phi, theta).

    n comes from ``geom``; a turn count that is given only has to match it.
    """
    _check_turn_count(geom, turn_count)
    length = tendon_length_from_stroke(stroke, tension, tendon, geom.slack_tendon_length, geom)
    radius, height = cylinder_from_tendon_length(length, geom)
    return JointState(radius, height, deflection_angle(radius, height, geom), roll)


class JointBatch(NamedTuple):
    """The actuation map over a batch of B samples; every field has shape (B,).

    ``ok`` is False on the rows :func:`joint_from_actuation` would reject;
    R, H and phi are nan there.
    """

    ok: np.ndarray
    cylinder_radius: np.ndarray
    cylinder_height: np.ndarray
    deflection: np.ndarray

    def joint_states(self, roll: float = 0.0) -> tuple[JointState | None, ...]:
        """One :class:`JointState` per row at roll ``roll``, None where rejected."""
        # Row by row rather than through tolist(), which would hold three
        # full lists of floats at once.
        return tuple(
            JointState(float(radius), float(height), float(phi), roll) if ok else None
            for ok, radius, height, phi in zip(
                self.ok, self.cylinder_radius, self.cylinder_height, self.deflection
            )
        )


def joints_from_actuation(
    strokes: np.ndarray,
    tensions: np.ndarray,
    tendon: TendonSpec,
    geom: DerivedGeometry,
) -> JointBatch:
    """Vectorised :func:`joint_from_actuation` over strokes and tensions of shape (B,).

    The scalar map's checks become one accept mask instead of an exception:
    finite, non-negative stroke and tension, a tendon length in
    (0, l_na + 2 pi n d_t-na), R > 0 and H^2 > 0. R and H are bit-equal to
    the scalar map's; phi comes from numpy's arctan2 and may differ from
    ``math.atan2`` in the last bit. :func:`actuation_failures` gives the
    scalar map's error for each rejected row.
    """
    strokes = np.asarray(strokes, dtype=float)
    tensions = np.asarray(tensions, dtype=float)
    if strokes.ndim != 1 or tensions.shape != strokes.shape:
        raise ValidationError(
            f"need strokes and tensions of one shape (B,), got {strokes.shape} and {tensions.shape}"
        )
    two_pi_n = 2.0 * math.pi * geom.turn_count
    bound = geom.na_length + two_pi_n * geom.tendon_na_distance
    # Non-finite inputs propagate as inf/nan until the mask drops them.
    with np.errstate(invalid="ignore", over="ignore"):
        # The expression of tendon_length_from_stroke, elementwise.
        length = geom.slack_tendon_length - strokes + tensions * tendon.total_length / tendon.stiffness_n
        radius, height_sq = _radius_and_height_sq(length, geom)
        ok = (
            (0.0 <= strokes) & (strokes < math.inf)
            & (0.0 <= tensions) & (tensions < math.inf)
            & (length > 0.0) & (length < bound)
            & (radius > 0.0) & (height_sq > 0.0)
        )
    radius = np.where(ok, radius, np.nan)
    height = np.sqrt(np.where(ok, height_sq, np.nan))
    phi = np.arctan2(two_pi_n * (radius - geom.composite_na_offset), height)
    return JointBatch(ok, radius, height, phi)


def actuation_failures(
    strokes,
    tensions,
    ok: np.ndarray,
    tendon: TendonSpec,
    geom: DerivedGeometry,
) -> tuple[tuple[int, str], ...]:
    """(index, message) for every row a :class:`JointBatch` rejected.

    Runs the scalar :func:`joint_from_actuation` on the rejected rows of
    ``strokes`` and ``tensions`` only, so each message is the one a
    per-sample loop would report.
    """
    failures = []
    for i in np.flatnonzero(~ok).tolist():
        try:
            joint_from_actuation(strokes[i], tensions[i], tendon, geom)
        except DomainError as exc:
            failures.append((i, str(exc)))
    return tuple(failures)


def rest_joint(geom: DerivedGeometry, roll: float = 0.0) -> JointState:
    """Joint state of the straight, unactuated tube (R = y_na, phi = 0)."""
    radius, height = cylinder_from_tendon_length(geom.slack_tendon_length, geom)
    return JointState(radius, height, deflection_angle(radius, height, geom), roll)


def _rot_y(angle: float) -> np.ndarray:
    """Rotation matrix about Y by ``angle`` (right-handed)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_x(angle: float) -> np.ndarray:
    """Rotation matrix about X by ``angle`` (right-handed)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def backbone_samples(na_length: float, count: int = DEFAULT_BACKBONE_SAMPLES) -> np.ndarray:
    """Uniform arc-length grid [0, l_na] with ``count`` samples."""
    if count < 2:
        raise ValidationError(f"need at least 2 samples, got {count}")
    return np.linspace(0.0, na_length, count)


def forward_kinematics(
    joint: JointState,
    geom: DerivedGeometry,
    samples: np.ndarray | None = None,
    turn_count: int | None = None,
) -> BackboneCurve:
    """Tube centerline in O_0 at the given joint state.

    The centerline winds at radius R - y_na about the imaginary-cylinder
    axis (the neutral fiber sits y_na further out); it is anchored at the
    origin of O_0 and parameterized by the neutral-fiber arc length
    ``samples`` in [0, l_na]. At rest the radius vanishes and every sample
    lies exactly on the X_0 axis. In the helix frame a sample is
    (s H / l_na, r - r cos a, r sin a), a = 2 pi n s / l_na, r = R - y_na,
    then tilted by -phi about Y and rolled by theta about X. n comes from
    ``geom``; a turn count that is given only has to match it.
    """
    _check_turn_count(geom, turn_count)
    if samples is None:
        samples = backbone_samples(geom.na_length)
    s = np.array(samples, dtype=float)  # a copy: clamping must not touch the caller's array
    if s.ndim != 1 or s.size == 0:
        raise ValidationError(f"samples must be a non-empty 1-D array, got shape {s.shape}")
    if (s[1:] < s[:-1]).any():
        raise ValidationError("samples must be sorted ascending")
    _clamp_sorted(s, geom.na_length)

    bend_radius = joint.cylinder_radius - geom.composite_na_offset
    angle = 2.0 * math.pi * geom.turn_count * s / geom.na_length
    helix = np.column_stack(
        [
            s * joint.cylinder_height / geom.na_length,
            -bend_radius * np.cos(angle),
            bend_radius * np.sin(angle),
        ]
    )
    helix[:, 1] += bend_radius
    transform = _rot_x(joint.roll) @ _rot_y(-joint.deflection)
    return BackboneCurve(s=s, points=helix @ transform.T)


def cylinder_axis(joint: JointState, geom: DerivedGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Imaginary-cylinder axis in O_0 as (point, unit direction).

    Every centerline point is at distance R - y_na from this line.
    """
    bend_radius = joint.cylinder_radius - geom.composite_na_offset
    point = _rot_x(joint.roll) @ np.array([0.0, bend_radius, 0.0])
    direction = _rot_x(joint.roll) @ _rot_y(-joint.deflection) @ np.array([1.0, 0.0, 0.0])
    return point, direction


def _clamp_sorted(values: np.ndarray, upper: float) -> None:
    """Check an ascending arc-length array against [0, upper] and clamp it in place.

    Overshoot within _REL_SLOP is forgiven at both ends. Sorted order
    means only the endpoints can leave [0, upper], so the range test is
    O(1); NaN, which defeats both the order and the range comparisons,
    takes one vectorised test. Values in the slop band are clamped, and an
    offending array raises DomainError naming its first bad value.
    """
    slop = _REL_SLOP * max(upper, 1.0)
    low, high = values[0], values[-1]
    if not (-slop <= low and high <= upper + slop) or np.isnan(values).any():
        for value in values:
            if not -slop <= value <= upper + slop:
                raise DomainError(f"arc length {value} outside [0, {upper}]")
    if low < 0.0:
        values[values < 0.0] = 0.0
    if high > upper:
        values[values > upper] = upper
