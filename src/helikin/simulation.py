"""Synthetic experiments, FTL runs, fidelity scoring and clearance checks.

Everything here is deterministic given a seed. Noise streams are derived
per sample index from (seed, index), so datasets are reproducible even if
generation is ever partitioned across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError, ValidationError
from .estimation import TrajectoryComparison, compare_point_sequences
from .geometry import DerivedGeometry, TendonSpec, TubeSpec
from .kinematics import (
    DEFAULT_BACKBONE_SAMPLES,
    BackboneCurve,
    JointState,
    TipTrajectory,
    backbone_samples,
    cylinder_axis,
    forward_kinematics,
    joint_from_actuation,
)

__all__ = [
    "NoiseSpec",
    "PhantomSpec",
    "SyntheticDataset",
    "DEFAULT_ETA_STEPS",
    "default_eta_grid",
    "synthetic_sweep",
    "ftl_run",
    "ftl_fidelity",
    "phantom_clearance",
    "phantom_on_cylinder_axis",
]

DEFAULT_ETA_STEPS = 101


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian measurement noise: per-axis position sigma and stroke sigma (mm)."""

    position_sigma: float = 0.0
    stroke_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.position_sigma < 0.0 or self.stroke_sigma < 0.0:
            raise ValidationError("noise sigmas must be >= 0")

    def sample_rng(self, index: int) -> np.random.Generator:
        """Independent stream for one sample, stable under parallel generation."""
        return np.random.default_rng([self.seed, index])


@dataclass(frozen=True)
class PhantomSpec:
    """Infinite-cylinder obstacle: a point on its axis, unit direction, radius (mm).

    Radius 0 degenerates to a line obstacle, which is allowed.
    """

    axis_point: np.ndarray
    axis_direction: np.ndarray
    radius: float

    def __post_init__(self):
        point = np.asarray(self.axis_point, dtype=float)
        direction = np.asarray(self.axis_direction, dtype=float)
        if point.shape != (3,) or direction.shape != (3,):
            raise ValidationError("axis point and direction must have shape (3,)")
        if abs(np.linalg.norm(direction) - 1.0) > 1e-6:
            raise ValidationError(
                f"axis_direction must be a unit vector, |d| = {np.linalg.norm(direction):.9g}"
            )
        if self.radius < 0.0:
            raise ValidationError(f"phantom radius must be >= 0, got {self.radius}")
        object.__setattr__(self, "axis_point", point)
        object.__setattr__(self, "axis_direction", direction)


@dataclass(frozen=True)
class SyntheticDataset:
    """Forward-model dataset with ground truth retained alongside noisy channels.

    Samples where the actuation map failed carry None in joints; their
    indices and reasons are listed in failures.
    """

    tube: TubeSpec
    noise: NoiseSpec
    roll: float
    strokes: np.ndarray
    tensions: np.ndarray
    strokes_noisy: np.ndarray
    joints: tuple[JointState | None, ...]
    marker_arclengths: tuple[float, ...]
    tracks_true: dict[float, np.ndarray]
    tracks_noisy: dict[float, np.ndarray]
    tips_true: np.ndarray
    failures: tuple[tuple[int, str], ...] = field(default=())

    @property
    def n_samples(self) -> int:
        return self.strokes.size

    def sample_index(self) -> np.ndarray:
        """Normalized sample index in [0, 1], used as the file index column."""
        n = self.n_samples
        if n == 1:
            return np.zeros(1)
        return np.arange(n) / (n - 1)


def synthetic_sweep(
    geom: DerivedGeometry,
    tendon: TendonSpec,
    stroke_profile: list[tuple[float, float]],
    markers: list[float],
    noise: NoiseSpec,
    roll: float,
    tube: TubeSpec,
) -> SyntheticDataset:
    """Generate a full forward-model dataset for a stroke/tension profile.

    Marker tracks are forward-kinematics positions at the given arc
    lengths; the noiseless channel is always kept next to the noisy one.
    Kinematics failures are recorded per sample, with NaN rows in the
    tracks, so a profile that wanders out of the model's domain still
    produces an aligned dataset.
    """
    for s in markers:
        if not 0.0 <= s <= geom.na_length:
            raise ValidationError(
                f"marker arc length {s} outside [0, {geom.na_length}] mm"
            )
    n = len(stroke_profile)
    if n == 0:
        raise ValidationError("stroke profile must contain at least one sample")
    strokes = np.array([p[0] for p in stroke_profile], dtype=float)
    tensions = np.array([p[1] for p in stroke_profile], dtype=float)
    marker_s = np.asarray(sorted(markers), dtype=float)

    joints: list[JointState | None] = []
    failures: list[tuple[int, str]] = []
    tracks_true = {s: np.full((n, 3), np.nan) for s in marker_s}
    tracks_noisy = {s: np.full((n, 3), np.nan) for s in marker_s}
    tips_true = np.full((n, 3), np.nan)
    strokes_noisy = np.empty(n)

    for i in range(n):
        # One stream per sample; draw order is fixed: stroke first, then
        # one (x, y, z) triple per marker in ascending arc-length order.
        rng = noise.sample_rng(i)
        strokes_noisy[i] = strokes[i] + noise.stroke_sigma * rng.standard_normal()
        position_noise = noise.position_sigma * rng.standard_normal((marker_s.size, 3))
        try:
            joint = joint_from_actuation(
                strokes[i], tensions[i], tendon, geom, roll, tube.turn_count
            )
        except DomainError as exc:
            joints.append(None)
            failures.append((i, str(exc)))
            continue
        joints.append(joint)
        curve = forward_kinematics(joint, geom, marker_s, tube.turn_count)
        for k, s in enumerate(marker_s):
            tracks_true[s][i] = curve.points[k]
            tracks_noisy[s][i] = curve.points[k] + position_noise[k]
        tips_true[i] = forward_kinematics(
            joint, geom, np.array([geom.na_length]), tube.turn_count
        ).points[0]

    return SyntheticDataset(
        tube=tube,
        noise=noise,
        roll=roll,
        strokes=strokes,
        tensions=tensions,
        strokes_noisy=strokes_noisy,
        joints=tuple(joints),
        marker_arclengths=tuple(marker_s),
        tracks_true=tracks_true,
        tracks_noisy=tracks_noisy,
        tips_true=tips_true,
        failures=tuple(failures),
    )


def default_eta_grid(steps: int = DEFAULT_ETA_STEPS) -> np.ndarray:
    """Uniform progression grid on [0, 1] including both endpoints."""
    if steps < 2:
        raise ValidationError(f"need at least 2 eta steps, got {steps}")
    return np.linspace(0.0, 1.0, steps)


def ftl_run(
    joint: JointState,
    geom: DerivedGeometry,
    eta_grid: np.ndarray | None = None,
    turn_count: int = 1,
    body_samples: int | None = None,
) -> tuple[TipTrajectory, list[BackboneCurve]]:
    """Deploy the tube over an eta grid under a fixed joint state.

    Returns the tip trace and the exposed body at each eta. Bodies are
    sampled on a fixed master arc-length grid truncated at eta * l_na (the
    exact tip appended), so the body at a smaller eta is literally a prefix
    of the body at any larger one.

    Under a fixed joint state the tip at eta lies on the final backbone at
    s = eta * l_na, so forward kinematics runs exactly twice: once on the
    master grid and once on the tip arc lengths. Cost grows with body
    samples + eta steps, plus a small fixed cost per body. Bodies slice the
    shared master arrays, which are therefore read-only, as are the arrays
    of every body: writing into one body cannot corrupt another.
    """
    if eta_grid is None:
        eta_grid = default_eta_grid()
    grid = np.asarray(eta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValidationError("eta grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValidationError("eta grid must be strictly increasing")
    if grid[0] < -1e-12 or grid[-1] > 1.0 + 1e-12:
        raise DomainError(f"eta grid outside [0, 1]: [{grid[0]}, {grid[-1]}]")
    grid = np.clip(grid, 0.0, 1.0)

    count = DEFAULT_BACKBONE_SAMPLES if body_samples is None else body_samples
    master = backbone_samples(geom.na_length, count)
    full = forward_kinematics(joint, geom, master, turn_count)
    s_tips = grid * geom.na_length
    tip_curve = forward_kinematics(joint, geom, s_tips, turn_count)
    full.s.flags.writeable = full.points.flags.writeable = False

    # A body keeps the master samples with s <= s_tip (forgiving one part in
    # 1e15) and appends the tip unless its last kept sample already is it.
    # The master grid starts at 0 <= s_tip, so every body keeps a sample.
    kept = np.searchsorted(full.s, s_tips * (1.0 + 1e-15), side="right")
    last = kept - 1
    on_grid = full.s[last] >= s_tips
    tips = np.where(on_grid[:, None], full.points[last], tip_curve.points)

    bodies: list[BackboneCurve] = []
    for k, (m, exact) in enumerate(zip(kept.tolist(), on_grid.tolist())):
        s, points = full.s[:m], full.points[:m]
        if not exact:
            s = np.concatenate((s, tip_curve.s[k : k + 1]))
            points = np.concatenate((points, tip_curve.points[k : k + 1]))
            s.flags.writeable = points.flags.writeable = False
        bodies.append(BackboneCurve(s=s, points=points))
    return TipTrajectory(eta=grid, points=tips), bodies


def ftl_fidelity(tip: TipTrajectory, final_backbone: BackboneCurve) -> TrajectoryComparison:
    """Distance profile between a tip trace and the final body shape.

    The backbone must be sampled at s = eta * l_na for the tip's eta grid
    (pass the l_na-scaled grid to :func:`forward_kinematics`). For a
    model-generated run the profile is identically zero; feeding a
    perturbed or measured tip trace quantifies how far the motion strays
    from follow-the-leader behavior.
    """
    if len(tip) != len(final_backbone):
        raise GridMismatchError(
            f"tip trace has {len(tip)} samples but backbone has {len(final_backbone)}"
        )
    span = final_backbone.s[-1] if final_backbone.s[-1] > 0.0 else 1.0
    expected = tip.eta * final_backbone.s[-1]
    if not np.allclose(final_backbone.s, expected, atol=1e-9 * max(span, 1.0)):
        raise GridMismatchError(
            "backbone samples do not match s = eta * l_na for the tip's eta grid"
        )
    return compare_point_sequences(tip.points, final_backbone.points)


def phantom_clearance(
    curve: BackboneCurve, phantom: PhantomSpec, tube_outer_radius: float
) -> tuple[float, bool]:
    """Worst-case clearance between a tube centerline and a phantom cylinder.

    Returns (min clearance in mm, collides). The clearance at a sample is
    its distance to the phantom axis minus the phantom radius minus the
    tube's own outer radius, since the curve is a centerline. Negative
    clearance means contact.
    """
    if len(curve) == 0:
        raise ValidationError("clearance needs a non-empty curve")
    if tube_outer_radius < 0.0:
        raise ValidationError(f"tube_outer_radius must be >= 0, got {tube_outer_radius}")
    direction = np.asarray(phantom.axis_direction, dtype=float)
    norm = math.hypot(*direction.tolist())
    if abs(norm - 1.0) > 1e-6:
        raise DomainError(f"degenerate phantom axis: |direction| = {norm:.9g}")

    offsets = curve.points - phantom.axis_point
    along = offsets @ direction
    radial = offsets - along[:, None] * direction
    # sqrt is monotone and correctly rounded: the root of the least squared
    # distance is the least distance, bit for bit.
    nearest = math.sqrt((radial * radial).sum(axis=1).min())
    clearance = float(nearest - phantom.radius - tube_outer_radius)
    return clearance, clearance < 0.0


def phantom_on_cylinder_axis(
    joint: JointState, geom: DerivedGeometry, radius: float
) -> PhantomSpec:
    """Phantom whose axis coincides with the imaginary-cylinder axis."""
    point, direction = cylinder_axis(joint, geom)
    return PhantomSpec(axis_point=point, axis_direction=direction, radius=radius)
