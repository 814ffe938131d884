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

One private kernel, ``_centerline``, computes this map:
:func:`forward_kinematics` runs it on one joint state's floats and
``synthetic_sweep`` on arrays of joint states. It writes the helix columns
in place, from the cos and sin of the helix angle that ``_helix_trig``
alone computes. FK keeps one grid: the last one it accepted, under the key
(the float grid's bytes, l_na, n), with its clamped samples and their cos
and sin, read-only. A call on that key skips the grid checks and the trig;
any other grid replaces the entry once it passes the checks, so a tracker
whose marker arc lengths stay put pays for them once. Its frames come
from ``_frames``, the package's one rotation
construction, which writes out the nine entries of Rx(theta) @ Ry(-phi)
with no BLAS call, for a float phi (as Python floats) or an array of them;
:func:`cylinder_axis` calls it alone. FK looks at every point for a
non-finite value only when a scalar bound on s_max H / l_na and |R - y_na|
cannot rule one out.

:class:`JointState` is a slotted frozen dataclass. Its constructor checks
every field; :func:`joint_from_actuation`, whose map has already shown R
and H finite and > 0, checks only the roll and fills the slots directly,
and so does :meth:`JointBatch.joint_states` on the rows its mask accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonPhysicalError, OverActuationError, ValidationError
from .geometry import DerivedGeometry, TendonSpec, _check_turn_count, _finite_float

__all__ = [
    "JointState",
    "JointBatch",
    "BackboneCurve",
    "TipTrajectory",
    "DEFAULT_BACKBONE_SAMPLES",
    "tendon_length_from_stroke",
    "cylinder_from_tendon_length",
    "tendon_length_from_cylinder",
    "joint_from_actuation",
    "joints_from_actuation",
    "actuation_failures",
    "forward_kinematics",
    "backbone_samples",
    "cylinder_axis",
]

# 2^7 + 1 uniform samples: midpoints of a refined grid land on the next one.
DEFAULT_BACKBONE_SAMPLES = 129

_REL_SLOP = 1e-9  # tolerated relative overshoot of s at range ends
_FINITE_BOUND = 2.0**1021  # FK's points are finite if both terms of its reach stay below this


def _check_roll(roll: float) -> None:
    """Reject a roll angle theta that is no finite number, which no bending direction has.

    This runs on every tracker frame, so it is one ``math.isfinite`` and no
    type test: a bool roll passes, as it does in ``phantom_clearance``.
    """
    try:
        if math.isfinite(roll):
            return
    except (TypeError, OverflowError):  # a str or None, or an int past the float range
        pass
    raise ValidationError(f"roll angle theta must be finite, got {roll!r}")


def _check_count(count: int, what: str) -> None:
    """Reject a grid size that is no integer >= 2; bool is an int but no count, 3.0 a float."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValidationError(f"need an integer number of {what}, got {count!r}")
    if count < 2:
        raise ValidationError(f"need at least 2 {what}, got {count}")


@dataclass(frozen=True, slots=True)
class JointState:
    """Joint-space description of the deployed tube.

    Attributes:
        cylinder_radius: radius R of the imaginary cylinder, mm.
        cylinder_height: height H of the imaginary cylinder, mm.
        deflection: angle phi between the outer-tube axis and the cylinder
            axis, rad.
        roll: actuation angle theta about X_0 selecting the bending
            direction, rad. Always a commanded input, never inferred.

    The constructor stores each field as a float.
    """

    cylinder_radius: float
    cylinder_height: float
    deflection: float
    roll: float = 0.0

    def __post_init__(self):
        for name, bound in (("cylinder_radius", "> 0"), ("cylinder_height", "> 0"), ("deflection", ""), ("roll", "")):
            what = "roll angle theta" if name == "roll" else name
            object.__setattr__(self, name, _finite_float(getattr(self, name), what, bound))

    def closure_residual(self, geom: DerivedGeometry) -> float:
        """Relative error of sqrt(H^2 + (2 pi n R)^2) against the fixed l_na."""
        length = math.hypot(
            self.cylinder_height, 2.0 * math.pi * geom.turn_count * self.cylinder_radius
        )
        return abs(length - geom.na_length) / geom.na_length


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor of a slotted dataclass, in field order.

    A frozen dataclass guards its ``__setattr__``, not its slots, so these fill
    the fields of ``object.__new__(cls)`` without ``__init__`` or its checks.
    They are only for values the caller has already proven valid.
    """
    return tuple(getattr(cls, field.name).__set__ for field in fields(cls))


_SET_JOINT = _slot_setters(JointState)


def _joint_state(radius: float, height: float, deflection: float, roll: float) -> JointState:
    """A JointState built without ``__init__``'s checks: R and H must be finite and > 0, phi and theta finite."""
    set_radius, set_height, set_deflection, set_roll = _SET_JOINT
    joint = object.__new__(JointState)
    set_radius(joint, radius)
    set_height(joint, height)
    set_deflection(joint, deflection)
    set_roll(joint, roll)
    return joint


class _ValueRecord:
    """Equality and hash of a frozen dataclass by value, each array field by its shape, dtype and bytes.

    Subclasses pass ``eq=False``, so that the dataclass decorator keeps these methods.
    One opts out: ``simulation.SyntheticDataset``, an ``EstimateResult``, compares by identity.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        values = (getattr(self, field.name) for field in fields(self))
        return tuple((v.shape, v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _check_samples(sampled, name: str, kind: str, label: str) -> None:
    """Check a sampled curve's parameter ``name`` and points; store both as float64."""
    param = np.asarray(getattr(sampled, name), dtype=float)
    pts = np.asarray(sampled.points, dtype=float)
    if param.ndim != 1 or param.size == 0 or pts.shape != (param.size, 3):
        raise ValidationError(
            f"need {name} of shape (N,) and points of shape (N, 3), got {param.shape} and {pts.shape}"
        )
    if not (np.isfinite(param).all() and np.isfinite(pts).all()):
        raise ValidationError(f"{kind} contains non-finite values")
    if not (param[1:] > param[:-1]).all():
        raise ValidationError(f"{label} must be strictly increasing")
    object.__setattr__(sampled, name, param)
    object.__setattr__(sampled, "points", pts)


@dataclass(frozen=True, eq=False)
class BackboneCurve(_ValueRecord):
    """Centerline samples in O_0: N >= 1 arc-length parameters (mm) and (N, 3) points.

    An ftl_run body, built by :meth:`_ftl_bodies`, holds only ``_ftl``, its
    (deployment, index), until its ``s`` or ``points`` is first read; that
    read sets its own views of the rows its deployment gathers, and no other
    body's. Copies and pickles of a body are plain curves over the same rows.
    """

    s: np.ndarray
    points: np.ndarray

    # A class attribute, not a field: None on every curve but an ftl_run body.
    _ftl = None

    def __post_init__(self):
        _check_samples(self, "s", "curve", "arc-length samples")

    def __getstate__(self) -> dict:
        return {"s": self.s, "points": self.points}

    @classmethod
    def _trusted(cls, s: np.ndarray, points: np.ndarray) -> BackboneCurve:
        """Curve over float64 arrays the caller has already shown to be valid.

        Skips the shape, finiteness and order checks and keeps the arrays
        as given, so it is only for FK's own checked result.
        """
        curve = object.__new__(cls)
        object.__setattr__(curve, "s", s)
        object.__setattr__(curve, "points", points)
        return curve

    @classmethod
    def _ftl_bodies(cls, deployment, count: int) -> list[BackboneCurve]:
        """``count`` ftl_run bodies, body k holding only (deployment, k); see :class:`_BodyRows`."""
        new, assign = object.__new__, object.__setattr__
        bodies = list(map(new, repeat(cls, count)))
        for k, body in enumerate(bodies):
            assign(body, "_ftl", (deployment, k))
        return bodies

    def __len__(self) -> int:
        ftl = self._ftl
        return self.s.size if ftl is None else ftl[0].size(ftl[1])

    @property
    def tip(self) -> np.ndarray:
        return self.points[-1]

    def chord_length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1)))


class _BodyRows:
    """``s`` (index 0) or ``points`` (index 1) of an unread ftl_run body; every other curve's own arrays shadow it."""

    def __init__(self, index: int):
        self.index = index

    def __get__(self, curve, owner=None):
        if curve is None:
            return self
        rows = curve._ftl[0].body_rows(curve._ftl[1])
        object.__setattr__(curve, "s", rows[0])
        object.__setattr__(curve, "points", rows[1])
        return rows[self.index]


# Set after the decorator, which would take them for the fields' defaults.
BackboneCurve.s, BackboneCurve.points = _BodyRows(0), _BodyRows(1)


@dataclass(frozen=True, eq=False)
class TipTrajectory(_ValueRecord):
    """Tip positions over a progression grid: N >= 1 eta values and (N, 3) points in O_0."""

    eta: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        _check_samples(self, "eta", "trajectory", "eta grid")

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

    phi = atan2(2 pi n (R - y_na), H) is the pitch angle of the tube-centerline
    helix against the outer-tube axis: zero for the straight tube, signed if R
    ever dips below y_na. n comes from ``geom``; a turn count that is given
    only has to match it.
    """
    _check_turn_count(geom, turn_count)
    length = tendon_length_from_stroke(stroke, tension, tendon, geom.slack_tendon_length, geom)
    radius, height = cylinder_from_tendon_length(length, geom)
    _check_roll(roll)
    phi = math.atan2(2.0 * math.pi * geom.turn_count * (radius - geom.composite_na_offset), height)
    # The map has shown R and H finite and > 0, and phi is an atan2 of finite values.
    return _joint_state(radius, height, phi, roll)


class JointBatch(NamedTuple):
    """The actuation map over a batch of B samples; every field has shape (B,).

    ``ok`` is False on the rows :func:`joint_from_actuation` would reject;
    R, H and phi are nan there. The arrays are read-only: results that keep
    a batch hand them out as they are.
    """

    ok: np.ndarray
    cylinder_radius: np.ndarray
    cylinder_height: np.ndarray
    deflection: np.ndarray

    def joint_states(self, roll: float = 0.0) -> tuple[JointState | None, ...]:
        """One :class:`JointState` per row at roll ``roll``, None where rejected.

        A non-finite roll raises ValidationError unless every row is rejected.
        """
        if self.ok.any():
            _check_roll(roll)
        # The mask has proven R and H finite and > 0 and phi finite on every
        # accepted row. Row by row rather than through tolist(), which would
        # hold three full lists of floats at once.
        return tuple(
            _joint_state(float(radius), float(height), float(phi), roll) if ok else None
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
    ok.flags.writeable = radius.flags.writeable = height.flags.writeable = phi.flags.writeable = False
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


def backbone_samples(na_length: float, count: int = DEFAULT_BACKBONE_SAMPLES) -> np.ndarray:
    """Uniform arc-length grid [0, l_na] with ``count`` samples."""
    _check_count(count, "samples")
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

    The last grid accepted is kept, keyed by its bytes, l_na and n, so a
    call on the same grid skips the grid checks and cos a and sin a; the
    curve's ``s`` is always its own array.
    """
    _check_turn_count(geom, turn_count)
    if samples is None:
        samples = backbone_samples(geom.na_length)
    s, cos_a, sin_a = _sample_grid(samples, geom)
    bend_radius = joint.cylinder_radius - geom.composite_na_offset
    height = joint.cylinder_height
    points, _ = _centerline(bend_radius, height, joint.deflection, joint.roll, s, geom, (cos_a, sin_a))
    # A point is at most |x| + |y| + |z| <= s_max H / l_na + 3 |R - y_na| from the
    # origin, as no frame entry exceeds 1. Both terms below 2^1021 keep that sum
    # and every partial sum under 2^1023, so the points are finite without looking
    # at them; the bound is written so that NaN fails it.
    reach = float(s[-1]) * height / geom.na_length
    if not (reach < _FINITE_BOUND and abs(bend_radius) < _FINITE_BOUND) and not np.isfinite(points).all():
        raise ValidationError("curve contains non-finite values")
    return BackboneCurve._trusted(s, points)


# FK's last accepted grid: (key, clamped s or None where clamping changed
# nothing, cos a, sin a), the arrays read-only. Replaced whole on each miss,
# so it never holds more than one grid, and a reader sees one whole entry.
_last_grid = None


def _sample_grid(samples, geom: DerivedGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FK's checked arc-length grid, clamped to [0, l_na], and cos a and sin a on it.

    The last grid this accepted is kept under the key (bytes of the float
    grid, l_na, n), on which its range checks and its angles depend alone:
    a call with the same key skips both. A rejected grid is never kept, so
    it raises on every call. The grid returned is the caller's own array;
    the kept grid and both trig arrays are read-only.
    """
    global _last_grid
    s = np.array(samples, dtype=float)  # a copy: clamping must not touch the caller's array
    if s.ndim != 1 or s.size == 0:
        raise ValidationError(f"samples must be a non-empty 1-D array, got shape {s.shape}")
    key = (s.tobytes(), geom.na_length, geom.turn_count)
    entry = _last_grid
    if entry is not None and entry[0] == key:
        _, clamped, cos_a, sin_a = entry
        return (s if clamped is None else clamped.copy()), cos_a, sin_a
    # One strict comparison of neighbours rules out a decreasing pair, NaN and
    # equal samples at once; the slower tests run only where it fails. Counting
    # the rises costs less than .all() on a short grid.
    rising = np.count_nonzero(s[1:] > s[:-1]) == s.size - 1
    if not rising and (s[1:] < s[:-1]).any():
        raise ValidationError("samples must be sorted ascending")
    # Sorted, only the endpoints can leave [0, l_na]; overshoot within
    # _REL_SLOP is forgiven at both ends and clamped, which can make equal samples.
    upper, slop = geom.na_length, _REL_SLOP * max(geom.na_length, 1.0)
    low, high = s[0], s[-1]
    if not (-slop <= low and high <= upper + slop) or not rising and np.isnan(s).any():
        for value in s:
            if not -slop <= value <= upper + slop:
                raise DomainError(f"arc length {value} outside [0, {upper}]")
    if low < 0.0:
        s[s < 0.0] = 0.0
    if high > upper:
        s[s > upper] = upper
    if (not rising or low < 0.0 or high > upper) and (s[1:] == s[:-1]).any():
        raise ValidationError("arc-length samples must be strictly increasing")
    cos_a, sin_a = _helix_trig(s, geom)
    cos_a.setflags(write=False)
    sin_a.setflags(write=False)
    # Only an end that overshot changes the grid; else a hit's own copy is the grid.
    clamped = None
    if low < 0.0 or high > upper:
        clamped = s.copy()
        clamped.setflags(write=False)
    _last_grid = (key, clamped, cos_a, sin_a)
    return s, cos_a, sin_a


def _helix_trig(s: np.ndarray, geom: DerivedGeometry) -> tuple[np.ndarray, np.ndarray]:
    """cos a and sin a of the helix angle a = 2 pi n s / l_na at the arc lengths ``s``."""
    angle = 2.0 * math.pi * geom.turn_count * s / geom.na_length
    return np.cos(angle), np.sin(angle)


def cylinder_axis(joint: JointState, geom: DerivedGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Imaginary-cylinder axis in O_0 as (point, unit direction).

    Every centerline point is at distance R - y_na from this line, which
    runs along X through (0, R - y_na, 0) in the helix frame.
    """
    bend_radius = joint.cylinder_radius - geom.composite_na_offset
    frame = _frames(joint.deflection, joint.roll)
    return frame @ np.array([0.0, bend_radius, 0.0]), frame @ np.array([1.0, 0.0, 0.0])


def _centerline(bend_radius, height, deflection, roll: float, s: np.ndarray, geom: DerivedGeometry, trig=None):
    """The centerline map at one roll, at the k arc lengths ``s`` of shape (k,).

    R - y_na, H and phi are floats for one joint state, giving (k, 3) points
    and a (3, 3) frame, or arrays of shape (m,), giving (m, k, 3) and
    (m, 3, 3). ``trig`` is the (cos a, sin a) of :func:`_helix_trig` on ``s``,
    which FK passes from its grid cache; without it they are computed here.
    The helix is written column by column in place, and the points are
    ``helix @ frame.T``, one BLAS product per joint, so a joint's rows do not
    depend on the batch around it.
    """
    cos_a, sin_a = _helix_trig(s, geom) if trig is None else trig
    if isinstance(deflection, np.ndarray):  # joints along rows, samples along columns
        bend_radius, height = bend_radius[:, None], height[:, None]
        helix = np.empty((deflection.size, s.size, 3))
    else:
        helix = np.empty((s.size, 3))
    x, y, z = helix[..., 0], helix[..., 1], helix[..., 2]
    np.divide(np.multiply(s, height, out=x), geom.na_length, out=x)
    # -r * cos(a) + r bit for bit, one operation fewer
    np.subtract(bend_radius, np.multiply(bend_radius, cos_a, out=y), out=y)
    np.multiply(bend_radius, sin_a, out=z)
    frame = _frames(deflection, roll)
    return helix @ frame.swapaxes(-1, -2), frame


def _frames(deflection, roll: float) -> np.ndarray:
    """Rx(theta) @ Ry(-phi): the frame taking helix-frame vectors to O_0.

    A float phi gives one (3, 3) frame, phi of shape (m,) gives (m, 3, 3).
    The nine entries are written out, with no BLAS call, as a gemm of the
    two rotations gives them: each holds at most one product of non-zero
    factors, which gemm adds to the zero partial sum in one rounding (an
    FMA). So an entry is that product, signed even where it underflows to
    zero, or +0 where every product has a zero factor. For one frame the
    entries are Python floats, which round as numpy does.
    """
    cos_roll, sin_roll = math.cos(roll), math.sin(roll)
    cos_tilt, sin_tilt = np.cos(-deflection), np.sin(-deflection)
    shape = cos_tilt.shape
    if not shape:
        cos_tilt, sin_tilt = float(cos_tilt), float(sin_tilt)
    # a * b as |a| * (sign(a) * b + 0.0) is the product rounded once, but +0 for a zero b.
    entries = [  # each frame's entries in row-major order
        cos_tilt, 0.0, sin_tilt + 0.0,
        abs(sin_roll) * (math.copysign(1.0, sin_roll) * sin_tilt + 0.0),  # (-sin theta) * -sin(-phi)
        cos_roll, -sin_roll * cos_tilt,
        abs(cos_roll) * (math.copysign(1.0, -cos_roll) * sin_tilt + 0.0),  # cos theta * -sin(-phi)
        sin_roll + 0.0, cos_roll * cos_tilt,
    ]
    if sin_roll == 0.0:  # theta is +-0: a zero factor in both products
        entries[3] = entries[5] = 0.0
    if not shape:
        return np.array(entries).reshape(3, 3)
    frames = np.empty((9,) + shape)
    for row, entry in zip(frames, entries):
        row[...] = entry
    return frames.T.reshape(shape + (3, 3))
