"""Joint-state estimation and trajectory error metrics.

Two estimators mirror what is observable on the physical device:

* stroke-based: only tendon stroke and tension are known; run them through
  the actuation map to get (R, H, phi) per sample, kept with the log in
  the one log record, which a synthetic sweep's dataset extends.
* position-based: a measured tip position is known; its norm gives H and
  its angle against X_0 gives the ground-truth deflection, while the fixed
  neutral-fiber length closes the loop back to R and a model-predicted
  deflection for comparison.

The metrics are the ones used to score such estimates: maximum Euclidean
distance and RMSE between index-aligned point sequences, or between two
trials on the eta grid :func:`repeatability_compare` decides and returns.

:class:`PositionEstimate` and :class:`TrajectoryComparison` are slotted
frozen dataclasses. The estimator and the metrics fill their slots
directly rather than through ``__init__``, a sizeable share of a call on a
few points. A comparison's distances are read-only. Comparisons and
estimate results compare and hash by value; a synthetic dataset, an
estimate result too, by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridMismatchError, ValidationError
from .geometry import DerivedGeometry, TendonSpec, _check_turn_count
from .kinematics import (
    JointBatch,
    JointState,
    TipTrajectory,
    _ValueRecord,
    _check_roll,
    _slot_setters,
    actuation_failures,
    joints_from_actuation,
)

__all__ = [
    "EstimateResult",
    "TrajectoryComparison",
    "PositionEstimate",
    "stroke_based_estimate",
    "position_based_estimate",
    "max_euclidean_distance",
    "rmse",
    "compare_point_sequences",
    "repeatability_compare",
]


@dataclass(frozen=True, eq=False)
class EstimateResult(_ValueRecord):
    """Stroke-based joint estimates: the actuation map over a log, at one roll.

    ``strokes`` and ``tensions`` hold the log as float arrays. ``batch``
    holds R, H and phi per sample; a failed sample (e.g. an over-actuated
    stroke) is False in ``batch.ok`` and nan in the other fields, and
    ``failures`` pairs its index with the message.
    ``joint_series`` builds one JointState per sample (None where it failed)
    on its first read and keeps it. Results compare and hash by it and
    ``failures``. :func:`~helikin.simulation.synthetic_sweep` extends this
    record with its sweep channels as a ``SyntheticDataset``, which compares
    by identity instead.
    """

    strokes: np.ndarray
    tensions: np.ndarray
    batch: JointBatch
    roll: float
    failures: tuple[tuple[int, str], ...]

    @cached_property
    def joint_series(self) -> tuple[JointState | None, ...]:
        return self.batch.joint_states(self.roll)

    def _key(self) -> tuple:
        return self.joint_series, self.failures

    @property
    def per_sample_phi(self) -> np.ndarray:
        """Deflection phi per sample, rad; nan where the sample failed."""
        return self.batch.deflection


@dataclass(frozen=True, slots=True)
class PositionEstimate:
    """Output of the position-based method for a single tip point (mm/rad)."""

    cylinder_height: float
    phi_truth: float
    cylinder_radius: float
    phi_model: float


@dataclass(frozen=True, slots=True, eq=False)
class TrajectoryComparison(_ValueRecord):
    """Distance summary between two index-aligned point sequences, mm.

    ``per_sample_distances`` is a read-only float64 array, a copy of the one
    given, so it cannot drift from the maximum and the RMSE. Comparisons
    compare and hash by value, the distances by their shape, dtype and bytes.
    """

    max_distance: float
    rmse: float
    per_sample_distances: np.ndarray

    def __post_init__(self):
        distances = np.array(self.per_sample_distances, dtype=float)
        distances.flags.writeable = False
        object.__setattr__(self, "per_sample_distances", distances)

    @property
    def n_samples(self) -> int:
        return self.per_sample_distances.size


_SET_ESTIMATE = _slot_setters(PositionEstimate)
_SET_COMPARISON = _slot_setters(TrajectoryComparison)


def _position_estimate(height: float, phi_truth: float, radius: float, phi_model: float) -> PositionEstimate:
    """A PositionEstimate built without ``__init__``, which checks nothing and only costs time."""
    set_height, set_truth, set_radius, set_model = _SET_ESTIMATE
    estimate = object.__new__(PositionEstimate)
    set_height(estimate, height)
    set_truth(estimate, phi_truth)
    set_radius(estimate, radius)
    set_model(estimate, phi_model)
    return estimate


def _comparison(max_distance: float, root: float, distances: np.ndarray) -> TrajectoryComparison:
    """A TrajectoryComparison over a float64 array that nothing else holds, made read-only in place."""
    distances.flags.writeable = False
    set_max, set_rmse, set_distances = _SET_COMPARISON
    comparison = object.__new__(TrajectoryComparison)
    set_max(comparison, max_distance)
    set_rmse(comparison, root)
    set_distances(comparison, distances)
    return comparison


def stroke_based_estimate(
    actuation: list[tuple[float, float]],
    geom: DerivedGeometry,
    tendon: TendonSpec,
    roll: float,
    turn_count: int | None = None,
) -> EstimateResult:
    """Estimate joint states from (stroke, tension) samples.

    The roll angle theta is not observable from the tendon and must be
    supplied by the caller. All samples go through the batch actuation
    map (:func:`~helikin.kinematics.joints_from_actuation`) at once.
    Per-sample failures are collected instead of aborting the batch,
    since recorded stroke logs routinely contain samples outside the
    model's domain: a failed sample has joint None and phi nan, and
    ``failures`` pairs its index with the scalar map's error message.
    n comes from ``geom``; a turn count that is given only has to match it.
    A non-finite ``roll`` raises ValidationError.
    """
    _check_turn_count(geom, turn_count)
    _check_roll(roll)
    pairs = list(actuation)
    strokes = [p[0] for p in pairs]
    tensions = [p[1] for p in pairs]
    columns = np.array(strokes, dtype=float), np.array(tensions, dtype=float)
    batch = joints_from_actuation(*columns, tendon, geom)
    # The scalar map gets the logged values, so an int stroke's message shows an int.
    return EstimateResult(*columns, batch, float(roll), actuation_failures(strokes, tensions, batch.ok, tendon, geom))


def position_based_estimate(
    tip: np.ndarray, geom: DerivedGeometry, turn_count: int | None = None
) -> PositionEstimate:
    """Estimate the joint state from a measured tip position in O_0.

    The tip norm is the cylinder height and the angle between the tip and
    +X_0 is the ground-truth deflection. The fixed neutral-fiber length
    then yields the radius, and with it a model-predicted deflection whose
    agreement with the ground truth scores the model. n comes from
    ``geom``; a turn count that is given only has to match it.
    """
    _check_turn_count(geom, turn_count)
    tip = np.asarray(tip, dtype=float)
    if tip.shape != (3,):
        raise ValidationError(f"tip must have shape (3,), got {tip.shape}")
    # The ddot that np.linalg.norm calls on a (3,) array, so the bits match;
    # math.hypot and x*x+y*y+z*z round differently on some tips. That Python
    # sum, inf but silent on overflow, tells when ddot needs the errstate.
    x, y, z = tip.tolist()
    if x * x + y * y + z * z < 2.0**1023:
        height = math.sqrt(tip.dot(tip))
    else:
        with np.errstate(over="ignore"):
            height = math.sqrt(tip.dot(tip))
    if not math.isfinite(height):
        if np.isfinite(tip).all():
            raise DomainError(f"tip {tip.tolist()} is finite, but its squared norm overflows")
        raise DomainError(f"tip {tip.tolist()} has non-finite coordinates")
    if height == 0.0:
        raise DomainError("tip at the origin carries no shape information")
    if height > geom.na_length * (1.0 + 1e-12):
        raise DomainError(
            f"tip norm {height:.6g} mm exceeds the neutral-fiber length "
            f"{geom.na_length:.6g} mm; no real cylinder radius exists"
        )
    phi_truth = math.acos(min(max(x / height, -1.0), 1.0))
    radius_sq = geom.na_length**2 - height**2
    two_pi_n = 2.0 * math.pi * geom.turn_count
    radius = math.sqrt(max(radius_sq, 0.0)) / two_pi_n
    phi_model = math.atan2(two_pi_n * (radius - geom.composite_na_offset), height)
    return _position_estimate(height, phi_truth, radius, phi_model)


def max_euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest point-to-point distance between two aligned sequences, mm."""
    return compare_point_sequences(a, b).max_distance


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square point-to-point distance between aligned sequences, mm."""
    return compare_point_sequences(a, b).rmse


def compare_point_sequences(a: np.ndarray, b: np.ndarray) -> TrajectoryComparison:
    """Both metrics plus the per-sample distance profile, in one pass.

    Bit for bit, NaN included: ``d = np.linalg.norm(a - b, axis=1)``, ``np.max(d)``, ``np.sqrt(np.mean(d**2))``.

    Sequences of fewer than 8 points of 3 coordinates, such as a tracker
    frame's markers, are scored in Python floats, which skips numpy's
    per-call dispatch; every other shape takes numpy's reductions. numpy's
    ``add.reduce`` sums fewer than 8 terms strictly left to right, and so
    does the running ``total += d * d`` (builtin ``sum`` would not: it
    compensates from Python 3.12 on), so both paths give the same bits. A
    sum of squares that is not finite (NaN, inf or overflow) goes to numpy
    too, since Python's ``max`` passes over a NaN that is not first.
    Points with more than two axes raise ValidationError.
    """
    a, b = _point_rows(a), _point_rows(b)
    if a.shape != b.shape:
        raise GridMismatchError(f"point sequences differ in shape: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n < 1:
        raise GridMismatchError("point sequences must contain at least one sample")
    if n < 8 and a.shape[1:] == (3,):
        distances, total = [], 0.0
        for (ax, ay, az), (bx, by, bz) in zip(a.tolist(), b.tolist()):
            dx, dy, dz = ax - bx, ay - by, az - bz
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            distances.append(d)
            total += d * d
        if math.isfinite(total):
            return _comparison(max(distances), math.sqrt(total / n), np.array(distances))
    diff = a - b
    distances = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=1))
    squares = distances * distances
    root = math.sqrt(float(np.add.reduce(squares, axis=None)) / squares.size)
    return _comparison(float(np.maximum.reduce(distances)), root, distances)


def _point_rows(points) -> np.ndarray:
    """``points`` as float64 rows, one or two axes as ``np.atleast_2d`` gives them; more raise ValidationError."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 2:
        return points
    if points.ndim > 2:
        raise ValidationError(f"point sequences need one or two axes, got shape {points.shape}")
    return points.reshape(1, -1)


def repeatability_compare(trial_a: TipTrajectory, trial_b: TipTrajectory) -> tuple[np.ndarray, TrajectoryComparison]:
    """Compare two tip trajectories at matching progression values; return (grid, comparison).

    If the trials were sampled on different eta grids, both are linearly
    interpolated onto the union of their grids restricted to the
    overlapping eta range (keeping the comparison symmetric in its
    arguments); on equal grids that union is ``trial_a.eta`` itself. The
    k-th per-sample distance is at ``grid[k]``. Raises
    :class:`GridMismatchError` when the ranges do not intersect.
    """
    eta_a, eta_b = trial_a.eta, trial_b.eta
    if eta_a.shape == eta_b.shape and np.array_equal(eta_a, eta_b):
        return eta_a, compare_point_sequences(trial_a.points, trial_b.points)
    lo = max(eta_a[0], eta_b[0])
    hi = min(eta_a[-1], eta_b[-1])
    if lo > hi:
        raise GridMismatchError(
            f"eta ranges do not overlap: [{eta_a[0]}, {eta_a[-1]}] vs [{eta_b[0]}, {eta_b[-1]}]"
        )
    grid = np.union1d(eta_a, eta_b)
    grid = grid[(grid >= lo) & (grid <= hi)]

    def resample(trial: TipTrajectory) -> np.ndarray:
        return np.column_stack(
            [np.interp(grid, trial.eta, trial.points[:, k]) for k in range(3)]
        )

    return grid, compare_point_sequences(resample(trial_a), resample(trial_b))
