"""Actuation-to-shape mapping for the helically notched tube.

Pulling the tendon wraps the tube's neutral fiber around an imaginary
cylinder of radius R and height H; those two numbers, a deflection angle
phi and a roll angle theta fully describe the deployed shape. This module
maps tendon stroke and tension to (R, H, phi), samples the deployed tube
centerline in the fixed frame, and provides the progressive (follow the
leader) bookkeeping.

Frames:
    O_0 fixed frame at the outer-tube tip, X_0 along the outer tube.
    O_1 same origin, rolled by theta about X_0 so Y_1 faces the notches.
    helix frame: X along the imaginary-cylinder axis.

The curve sampled by :func:`forward_kinematics` is the tube centerline: a
helix of radius R - y_na about the cylinder axis, anchored at the origin.
At rest (R = y_na) it degenerates to a straight segment on the X_0 axis,
which is what the physical tube does. The neutral fiber itself sits at
radius R and keeps the fixed arc length l_na; it is available by calling
:func:`helix_point` with R directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPhysicalError, OverActuationError, ValidationError
from .geometry import DerivedGeometry, TendonSpec

__all__ = [
    "JointState",
    "ActuationState",
    "BackboneCurve",
    "TipTrajectory",
    "DEFAULT_BACKBONE_SAMPLES",
    "tendon_length_from_stroke",
    "cylinder_from_tendon_length",
    "deflection_angle",
    "tendon_length_from_cylinder",
    "joint_from_actuation",
    "rest_joint",
    "helix_point",
    "to_frame1",
    "to_frame0",
    "rot_x",
    "rot_y",
    "forward_kinematics",
    "backbone_samples",
    "cylinder_axis",
    "ftl_actuation",
    "ftl_tip",
]

# 2^7 + 1 uniform samples: midpoints of a refined grid land on the next one.
DEFAULT_BACKBONE_SAMPLES = 129

_REL_SLOP = 1e-9  # tolerated relative overshoot of s or eta at range ends


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

    def closure_residual(self, geom: DerivedGeometry, turn_count: int = 1) -> float:
        """Relative error of sqrt(H^2 + (2 pi n R)^2) against the fixed l_na."""
        length = math.hypot(
            self.cylinder_height, 2.0 * math.pi * turn_count * self.cylinder_radius
        )
        return abs(length - geom.na_length) / geom.na_length


@dataclass(frozen=True)
class ActuationState:
    """Actuation-space sample, including progressive-motion bookkeeping.

    tendon_stroke (mm) and tendon_tension (N) drive the bending;
    progression in [0, 1] is the fraction of the patterned length deployed
    beyond the outer tube. roller_input_angle = 2 pi n progression keeps
    the roll angle constant while deploying; exposed_length and
    progressive_tendon_length scale linearly with progression.
    """

    tendon_stroke: float
    tendon_tension: float
    progression: float
    roller_input_angle: float
    exposed_length: float
    progressive_tendon_length: float


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
    turn_count: int = 1,
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
        bound = geom.na_length + 2.0 * math.pi * turn_count * geom.tendon_na_distance
        if length >= bound:
            raise DomainError(
                f"tendon length {length:.6g} mm exceeds the growth bound {bound:.6g} mm"
            )
    return length


def cylinder_from_tendon_length(
    tendon_length: float, geom: DerivedGeometry, turn_count: int = 1
) -> tuple[float, float]:
    """Imaginary-cylinder radius and height (mm) from the tendon length.

    The neutral fiber keeps its fixed length l_na at radius R while the
    tendon runs at radius R - d_t-na; eliminating the common height gives

        R = (l_na^2 - l_t^2) / (8 pi^2 n^2 d_t-na) + d_t-na / 2

    and H follows from the tendon helix. Raises
    :class:`OverActuationError` when the stroke is too large for a real
    height and :class:`NonPhysicalError` when R would be non-positive.
    """
    d = geom.tendon_na_distance
    two_pi_n = 2.0 * math.pi * turn_count
    radius = (geom.na_length**2 - tendon_length**2) / (2.0 * two_pi_n**2 * d) + d / 2.0
    if radius <= 0.0:
        raise NonPhysicalError(
            f"non-physical cylinder radius {radius:.6g} mm for tendon length "
            f"{tendon_length:.6g} mm"
        )
    height_sq = tendon_length**2 - (two_pi_n * (radius - d)) ** 2
    if height_sq <= 0.0:
        raise OverActuationError(
            f"over-actuated: tendon length {tendon_length:.6g} mm leaves no real "
            f"cylinder height (H^2 = {height_sq:.6g})"
        )
    return radius, math.sqrt(height_sq)


def deflection_angle(
    radius: float, height: float, na_offset: float, turn_count: int = 1
) -> float:
    """Angle of the deployed tube against the outer-tube axis, rad.

    atan2(2 pi n (R - y_na), H): the pitch angle of the tube-centerline
    helix, zero for the straight tube, signed if R ever dips below y_na.
    """
    if height <= 0.0:
        raise DomainError(f"cylinder height must be > 0, got {height}")
    return math.atan2(2.0 * math.pi * turn_count * (radius - na_offset), height)


def tendon_length_from_cylinder(
    radius: float, height: float, geom: DerivedGeometry, turn_count: int = 1
) -> float:
    """Tendon length implied by a cylinder state (inverse of the stroke map), mm."""
    return math.hypot(
        height, 2.0 * math.pi * turn_count * (radius - geom.tendon_na_distance)
    )


def joint_from_actuation(
    stroke: float,
    tension: float,
    tendon: TendonSpec,
    geom: DerivedGeometry,
    roll: float = 0.0,
    turn_count: int = 1,
) -> JointState:
    """Full actuation-to-joint map: stroke and tension to (R, H, phi, theta)."""
    length = tendon_length_from_stroke(
        stroke, tension, tendon, geom.slack_tendon_length, geom, turn_count
    )
    radius, height = cylinder_from_tendon_length(length, geom, turn_count)
    phi = deflection_angle(radius, height, geom.composite_na_offset, turn_count)
    return JointState(radius, height, phi, roll)


def rest_joint(geom: DerivedGeometry, roll: float = 0.0, turn_count: int = 1) -> JointState:
    """Joint state of the straight, unactuated tube (R = y_na, phi = 0)."""
    radius, height = cylinder_from_tendon_length(geom.slack_tendon_length, geom, turn_count)
    phi = deflection_angle(radius, height, geom.composite_na_offset, turn_count)
    return JointState(radius, height, phi, roll)


def helix_point(
    s: float, radius: float, height: float, na_length: float, turn_count: int = 1
) -> np.ndarray:
    """Point of the radius-``radius`` helix at arc parameter ``s``, helix frame.

    Returns (s H / l_na, -R cos(2 pi n s / l_na), R sin(2 pi n s / l_na)).
    ``s`` must lie in [0, l_na].
    """
    s = _check_range(s, na_length, "arc length")
    angle = 2.0 * math.pi * turn_count * s / na_length
    return np.array(
        [s * height / na_length, -radius * math.cos(angle), radius * math.sin(angle)]
    )


def rot_y(angle: float) -> np.ndarray:
    """Rotation matrix about Y by ``angle`` (right-handed)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(angle: float) -> np.ndarray:
    """Rotation matrix about X by ``angle`` (right-handed)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def to_frame1(point: np.ndarray, radius: float, deflection: float) -> np.ndarray:
    """Helix-frame point into O_1: translate by +radius along Y, rotate -deflection about Y.

    Anchors the curve base at the origin and tilts the cylinder axis by the
    deflection angle.
    """
    return rot_y(-deflection) @ (np.asarray(point, dtype=float) + np.array([0.0, radius, 0.0]))


def to_frame0(point: np.ndarray, roll: float) -> np.ndarray:
    """O_1 point into the fixed frame O_0: rotation by ``roll`` about X."""
    return rot_x(roll) @ np.asarray(point, dtype=float)


def backbone_samples(na_length: float, count: int = DEFAULT_BACKBONE_SAMPLES) -> np.ndarray:
    """Uniform arc-length grid [0, l_na] with ``count`` samples."""
    if count < 2:
        raise ValidationError(f"need at least 2 samples, got {count}")
    return np.linspace(0.0, na_length, count)


def forward_kinematics(
    joint: JointState,
    geom: DerivedGeometry,
    samples: np.ndarray | None = None,
    turn_count: int = 1,
) -> BackboneCurve:
    """Tube centerline in O_0 at the given joint state.

    The centerline winds at radius R - y_na about the imaginary-cylinder
    axis (the neutral fiber sits y_na further out); it is anchored at the
    origin of O_0 and parameterized by the neutral-fiber arc length
    ``samples`` in [0, l_na]. At rest the radius vanishes and every sample
    lies exactly on the X_0 axis.
    """
    if samples is None:
        samples = backbone_samples(geom.na_length)
    s = np.array(samples, dtype=float)  # a copy: clamping must not touch the caller's array
    if s.ndim != 1 or s.size == 0:
        raise ValidationError(f"samples must be a non-empty 1-D array, got shape {s.shape}")
    if (s[1:] < s[:-1]).any():
        raise ValidationError("samples must be sorted ascending")
    _clamp_sorted(s, geom.na_length, "arc length")

    bend_radius = joint.cylinder_radius - geom.composite_na_offset
    angle = 2.0 * math.pi * turn_count * s / geom.na_length
    helix = np.column_stack(
        [
            s * joint.cylinder_height / geom.na_length,
            -bend_radius * np.cos(angle),
            bend_radius * np.sin(angle),
        ]
    )
    helix[:, 1] += bend_radius
    transform = rot_x(joint.roll) @ rot_y(-joint.deflection)
    return BackboneCurve(s=s, points=helix @ transform.T)


def cylinder_axis(joint: JointState, geom: DerivedGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Imaginary-cylinder axis in O_0 as (point, unit direction).

    Every centerline point is at distance R - y_na from this line.
    """
    bend_radius = joint.cylinder_radius - geom.composite_na_offset
    point = rot_x(joint.roll) @ np.array([0.0, bend_radius, 0.0])
    direction = rot_x(joint.roll) @ rot_y(-joint.deflection) @ np.array([1.0, 0.0, 0.0])
    return point, direction


def ftl_actuation(
    eta: float,
    joint: JointState,
    geom: DerivedGeometry,
    tension: float = 0.0,
    tendon: TendonSpec | None = None,
    turn_count: int = 1,
) -> ActuationState:
    """Actuation inputs that deploy fraction ``eta`` of the tube FTL-style.

    The joint state is held fixed; the roller input angle and both
    progressive lengths vary linearly with eta. The reported stroke follows
    the slack-length convention; pass ``tendon`` to account for elastic
    elongation when the tension is nonzero.
    """
    eta = _check_range(eta, 1.0, "progression")
    tendon_length = tendon_length_from_cylinder(
        joint.cylinder_radius, joint.cylinder_height, geom, turn_count
    )
    elongation = 0.0
    if tendon is not None and tension > 0.0:
        elongation = tension * tendon.total_length / tendon.stiffness_n
    stroke = geom.slack_tendon_length - tendon_length + elongation
    return ActuationState(
        tendon_stroke=stroke,
        tendon_tension=tension,
        progression=eta,
        roller_input_angle=2.0 * math.pi * turn_count * eta,
        exposed_length=eta * geom.na_length,
        progressive_tendon_length=eta * tendon_length,
    )


def ftl_tip(
    eta: float, joint: JointState, geom: DerivedGeometry, turn_count: int = 1
) -> np.ndarray:
    """Tip of the exposed tube at progression ``eta``, in O_0.

    Identical to the forward-kinematics point at s = eta * l_na: under a
    fixed joint state the tip retraces the final backbone, which is the
    follow-the-leader property.
    """
    eta = _check_range(eta, 1.0, "progression")
    curve = forward_kinematics(
        joint, geom, np.array([eta * geom.na_length]), turn_count
    )
    return curve.points[0]


def _clamp_sorted(values: np.ndarray, upper: float, label: str) -> None:
    """Vectorised :func:`_check_range` for an ascending array, in place.

    Sorted order means only the endpoints can leave [0, upper], so the
    range test is O(1); NaN, which defeats both the order and the range
    comparisons, takes one vectorised test. Values in the slop band are
    clamped, and an offending array raises the same error as the scalar
    check would for its first bad value.
    """
    slop = _REL_SLOP * max(upper, 1.0)
    low, high = values[0], values[-1]
    if not (-slop <= low and high <= upper + slop) or np.isnan(values).any():
        for value in values:
            _check_range(value, upper, label)
    if low < 0.0:
        values[values < 0.0] = 0.0
    if high > upper:
        values[values > upper] = upper


def _check_range(value: float, upper: float, label: str) -> float:
    """Validate value in [0, upper], forgiving float slop at both ends."""
    slop = _REL_SLOP * max(upper, 1.0)
    if not -slop <= value <= upper + slop:
        raise DomainError(f"{label} {value} outside [0, {upper}]")
    return min(max(value, 0.0), upper)
