"""Joint-state estimation and trajectory error metrics.

Two estimators mirror what is observable on the physical device:

* stroke-based: only tendon stroke and tension are known; run them through
  the actuation map to get (R, H, phi) per sample.
* position-based: a measured tip position is known; its norm gives H and
  its angle against X_0 gives the ground-truth deflection, while the fixed
  neutral-fiber length closes the loop back to R and a model-predicted
  deflection for comparison.

The metrics are the ones used to score such estimates: maximum Euclidean
distance and RMSE between index-aligned point sequences.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError, ValidationError
from .geometry import DerivedGeometry, TendonSpec
from .kinematics import JointState, TipTrajectory, actuation_failures, joints_from_actuation

__all__ = [
    "Method",
    "MarkerTrack",
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


class Method(enum.Enum):
    STROKE_BASED = "stroke_based"
    POSITION_BASED = "position_based"


@dataclass(frozen=True)
class MarkerTrack:
    """Measured positions of one marker over a run.

    Attributes:
        arclength: marker location along the tube, mm of neutral-fiber arc.
        index: per-sample time index or progression value, shape (N,).
        points: marker positions in O_0, mm, shape (N, 3).
        strokes: optional tendon strokes aligned with the samples, mm.
        tensions: optional tendon tensions aligned with the samples, N.
    """

    arclength: float
    index: np.ndarray
    points: np.ndarray
    strokes: np.ndarray | None = None
    tensions: np.ndarray | None = None

    def __post_init__(self):
        index = np.asarray(self.index, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if index.ndim != 1 or points.shape != (index.size, 3):
            raise ValidationError(
                f"need index (N,) and points (N, 3), got {index.shape} and {points.shape}"
            )
        if not (np.all(np.isfinite(index)) and np.all(np.isfinite(points))):
            raise ValidationError("marker track contains non-finite values")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "points", points)
        for name in ("strokes", "tensions"):
            channel = getattr(self, name)
            if channel is None:
                continue
            channel = np.asarray(channel, dtype=float)
            if channel.shape != index.shape:
                raise ValidationError(
                    f"{name} must align one-to-one with points: "
                    f"{channel.shape} vs {index.shape}"
                )
            object.__setattr__(self, name, channel)

    def __len__(self) -> int:
        return self.index.size


@dataclass(frozen=True)
class EstimateResult:
    """Per-sample joint estimates from one method.

    joint_series holds None where a sample failed (e.g. over-actuated
    stroke); failures pairs each bad index with the error message.
    """

    method: Method
    joint_series: tuple[JointState | None, ...]
    per_sample_phi: tuple[float, ...]
    failures: tuple[tuple[int, str], ...] = field(default=())

    @property
    def ok_count(self) -> int:
        return sum(j is not None for j in self.joint_series)


@dataclass(frozen=True)
class PositionEstimate:
    """Output of the position-based method for a single tip point (mm/rad)."""

    cylinder_height: float
    phi_truth: float
    cylinder_radius: float
    phi_model: float


@dataclass(frozen=True)
class TrajectoryComparison:
    """Distance summary between two index-aligned point sequences, mm."""

    max_distance: float
    rmse: float
    per_sample_distances: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "per_sample_distances", np.asarray(self.per_sample_distances, dtype=float)
        )

    @property
    def n_samples(self) -> int:
        return self.per_sample_distances.size


def stroke_based_estimate(
    actuation: list[tuple[float, float]],
    geom: DerivedGeometry,
    tendon: TendonSpec,
    roll: float,
    turn_count: int = 1,
) -> EstimateResult:
    """Estimate joint states from (stroke, tension) samples.

    The roll angle theta is not observable from the tendon and must be
    supplied by the caller. All samples go through the batch actuation
    map (:func:`~helikin.kinematics.joints_from_actuation`) at once.
    Per-sample failures are collected instead of aborting the batch,
    since recorded stroke logs routinely contain samples outside the
    model's domain: a failed sample has joint None and phi nan, and
    ``failures`` pairs its index with the scalar map's error message.
    """
    pairs = list(actuation)
    strokes = [p[0] for p in pairs]
    tensions = [p[1] for p in pairs]
    batch = joints_from_actuation(strokes, tensions, tendon, geom, turn_count)
    joints = batch.joint_states(roll)
    return EstimateResult(
        method=Method.STROKE_BASED,
        joint_series=joints,
        per_sample_phi=tuple(math.nan if j is None else j.deflection for j in joints),
        failures=actuation_failures(strokes, tensions, batch.ok, tendon, geom, turn_count),
    )


def position_based_estimate(
    tip: np.ndarray, geom: DerivedGeometry, turn_count: int = 1
) -> PositionEstimate:
    """Estimate the joint state from a measured tip position in O_0.

    The tip norm is the cylinder height and the angle between the tip and
    +X_0 is the ground-truth deflection. The fixed neutral-fiber length
    then yields the radius, and with it a model-predicted deflection whose
    agreement with the ground truth scores the model.
    """
    tip = np.asarray(tip, dtype=float)
    if tip.shape != (3,):
        raise ValidationError(f"tip must have shape (3,), got {tip.shape}")
    height = float(np.linalg.norm(tip))
    if not math.isfinite(height):
        raise DomainError(f"tip {tip.tolist()} has non-finite coordinates")
    if height == 0.0:
        raise DomainError("tip at the origin carries no shape information")
    if height > geom.na_length * (1.0 + 1e-12):
        raise DomainError(
            f"tip norm {height:.6g} mm exceeds the neutral-fiber length "
            f"{geom.na_length:.6g} mm; no real cylinder radius exists"
        )
    phi_truth = math.acos(min(max(tip[0] / height, -1.0), 1.0))
    radius_sq = geom.na_length**2 - height**2
    radius = math.sqrt(max(radius_sq, 0.0)) / (2.0 * math.pi * turn_count)
    phi_model = math.atan2(
        2.0 * math.pi * turn_count * (radius - geom.composite_na_offset), height
    )
    return PositionEstimate(
        cylinder_height=height,
        phi_truth=phi_truth,
        cylinder_radius=radius,
        phi_model=phi_model,
    )


def _paired_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise GridMismatchError(f"point sequences differ in shape: {a.shape} vs {b.shape}")
    if a.shape[0] < 1:
        raise GridMismatchError("point sequences must contain at least one sample")
    return np.linalg.norm(a - b, axis=1)


def max_euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest point-to-point distance between two aligned sequences, mm."""
    return float(np.max(_paired_distances(a, b)))


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square point-to-point distance between aligned sequences, mm."""
    return float(np.sqrt(np.mean(_paired_distances(a, b) ** 2)))


def compare_point_sequences(a: np.ndarray, b: np.ndarray) -> TrajectoryComparison:
    """Both metrics plus the per-sample distance profile."""
    distances = _paired_distances(a, b)
    return TrajectoryComparison(
        max_distance=float(np.max(distances)),
        rmse=float(np.sqrt(np.mean(distances**2))),
        per_sample_distances=distances,
    )


def repeatability_compare(trial_a: TipTrajectory, trial_b: TipTrajectory) -> TrajectoryComparison:
    """Compare two tip trajectories at matching progression values.

    If the trials were sampled on different eta grids, both are linearly
    interpolated onto the union of their grids restricted to the
    overlapping eta range (keeping the comparison symmetric in its
    arguments). Raises :class:`GridMismatchError` when the ranges do not
    intersect.
    """
    if trial_a.eta.shape == trial_b.eta.shape and np.array_equal(trial_a.eta, trial_b.eta):
        return compare_point_sequences(trial_a.points, trial_b.points)

    lo = max(trial_a.eta[0], trial_b.eta[0])
    hi = min(trial_a.eta[-1], trial_b.eta[-1])
    if lo > hi:
        raise GridMismatchError(
            f"eta ranges do not overlap: [{trial_a.eta[0]}, {trial_a.eta[-1]}] vs "
            f"[{trial_b.eta[0]}, {trial_b.eta[-1]}]"
        )
    grid = np.union1d(trial_a.eta, trial_b.eta)
    grid = grid[(grid >= lo) & (grid <= hi)]

    def resample(trial: TipTrajectory) -> np.ndarray:
        return np.column_stack(
            [np.interp(grid, trial.eta, trial.points[:, k]) for k in range(3)]
        )

    return compare_point_sequences(resample(trial_a), resample(trial_b))
