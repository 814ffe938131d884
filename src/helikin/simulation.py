"""Synthetic experiments, FTL runs, fidelity scoring and clearance checks.

Everything here is deterministic given a seed. Noise streams are derived
per sample index from (seed, index): sample i draws from
``default_rng([seed, i])``, the stroke first, then the markers in
ascending arc length, so datasets are reproducible even if generation is
ever partitioned across workers. ``synthetic_sweep`` reproduces those
streams bit for bit without building one ``default_rng`` per sample: it
hashes every ``SeedSequence([seed, i])`` at once and sets each PCG64
state directly. It falls back to ``NoiseSpec.sample_rng`` for a seed or
index of 2**32 or more, or when the first or last sample disagrees with
``default_rng``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError, ValidationError
from .estimation import TrajectoryComparison, compare_point_sequences
from .geometry import DerivedGeometry, TendonSpec, TubeSpec, _check_turn_count
from .kinematics import (
    DEFAULT_BACKBONE_SAMPLES,
    BackboneCurve,
    JointBatch,
    JointState,
    TipTrajectory,
    actuation_failures,
    backbone_samples,
    cylinder_axis,
    forward_kinematics,
    joints_from_actuation,
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
        # not (x >= 0) rejects NaN too; isfinite rejects inf.
        for name in ("position_sigma", "stroke_sigma"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValidationError(f"noise {name} must be finite and >= 0, got {value}")
        # The seeds default_rng accepts; bool is an int but no seed.
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValidationError(f"noise seed must be an integer >= 0, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))

    def sample_rng(self, index: int) -> np.random.Generator:
        """Independent stream for one sample, stable under parallel generation."""
        return np.random.default_rng([self.seed, index])


@dataclass(frozen=True)
class PhantomSpec:
    """Infinite-cylinder obstacle: a point on its axis, unit direction, radius (mm).

    Radius 0 degenerates to a line obstacle, which is allowed. The spec
    keeps read-only float64 copies of the axis arrays, so it cannot change
    after validation and the caller's arrays stay their own.
    """

    axis_point: np.ndarray
    axis_direction: np.ndarray
    radius: float

    def __post_init__(self):
        point = np.array(self.axis_point, dtype=float)
        direction = np.array(self.axis_direction, dtype=float)
        if point.shape != (3,) or direction.shape != (3,):
            raise ValidationError("axis point and direction must have shape (3,)")
        if not (np.isfinite(point).all() and np.isfinite(direction).all()):
            raise ValidationError("phantom axis point and direction must be finite")
        if abs(np.linalg.norm(direction) - 1.0) > 1e-6:
            raise ValidationError(
                f"axis_direction must be a unit vector, |d| = {np.linalg.norm(direction):.9g}"
            )
        # not (r >= 0) rejects NaN too; isfinite rejects inf.
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ValidationError(f"phantom radius must be finite and >= 0, got {self.radius}")
        point.flags.writeable = direction.flags.writeable = False
        object.__setattr__(self, "axis_point", point)
        object.__setattr__(self, "axis_direction", direction)
        object.__setattr__(self, "radius", float(self.radius))


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

    The whole profile goes through the batch actuation map
    (:func:`~helikin.kinematics.joints_from_actuation`) at once, and the
    markers and the tip of every accepted sample are evaluated in one
    closed-form pass, written in place into the preallocated track
    arrays; they agree with :func:`forward_kinematics` to rounding. Noise
    comes from one ``default_rng([seed, i])`` stream per sample, drawn in
    a fixed order: the stroke first, then one (x, y, z) triple per marker
    in ascending arc-length order. The streams do not depend on the
    batching, so the noise is bit-identical to a per-sample loop.

    The sweep does not build those generators. It hashes
    ``SeedSequence([seed, i])`` for every i in one uint32 numpy pass,
    seeds PCG64 from each hash in Python ints, sets the state of one
    reused generator and draws the sample's whole row in one call. If
    the seed or an index does not fit one uint32 word, or the first or
    last sample differs from ``default_rng``, every row is drawn from
    :meth:`NoiseSpec.sample_rng` instead.

    Samples the actuation map rejects are recorded, not fatal: their
    joint is None, their track and tip rows are NaN, and ``failures``
    pairs each index with the scalar map's error message. A profile that
    wanders out of the model's domain still produces an aligned dataset.

    ``tube`` is stored with the dataset; its turn count must match ``geom``.
    """
    _check_turn_count(geom, tube.turn_count)
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

    # The noisy strokes and tracks are views of the draws' columns, scaled
    # and offset in place, so the draws take no memory beyond them.
    draws = _noise_draws(noise, n, 1 + 3 * marker_s.size)
    strokes_noisy = draws[:, 0]
    strokes_noisy *= noise.stroke_sigma
    strokes_noisy += strokes
    noisy = draws[:, 1:].reshape(n, marker_s.size, 3)

    batch = joints_from_actuation(strokes, tensions, tendon, geom)
    rows = np.flatnonzero(batch.ok)
    tracks_true = {s: np.full((n, 3), np.nan) for s in marker_s}
    tips_true = np.full((n, 3), np.nan)

    _centerline_points_into(
        batch,
        rows,
        roll,
        [*marker_s, geom.na_length],
        [*(tracks_true[s] for s in marker_s), tips_true],
        geom,
    )

    noisy *= noise.position_sigma
    noisy[~batch.ok] = np.nan
    tracks_noisy = {}
    for k, s in enumerate(marker_s):
        noisy[rows, k] += tracks_true[s][rows]
        tracks_noisy[s] = noisy[:, k]

    return SyntheticDataset(
        tube=tube,
        noise=noise,
        roll=roll,
        strokes=strokes,
        tensions=tensions,
        strokes_noisy=strokes_noisy,
        joints=batch.joint_states(roll),
        marker_arclengths=tuple(marker_s),
        tracks_true=tracks_true,
        tracks_noisy=tracks_noisy,
        tips_true=tips_true,
        failures=actuation_failures(strokes, tensions, batch.ok, tendon, geom),
    )


# SeedSequence's hash (O'Neill, "Developing a seed_seq Alternative",
# pcg-random.org, 2015, as numpy implements it) and the PCG64 LCG
# multiplier of its srandom (O'Neill, HMC-CS-2014-0905).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_words(seed: int, index: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for each i, as (n, 4) rows.

    The seed and every index must fit one uint32 word, so the entropy is
    the two words [seed, i] in a pool of 4. The hash constants do not
    depend on the data; the seed and zero-padding lanes stay (1,) arrays
    until mixing broadcasts them. uint32 arrays wrap as the C code does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    zero = np.zeros(1, np.uint32)
    pool = [hashmix(v) for v in (np.array([seed], np.uint32), index.astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    words = np.empty((index.size, 8), np.uint32)
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words[:, k] = value ^ value >> 16
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _pcg64_state(w0: int, w1: int, w2: int, w3: int) -> tuple[int, int]:
    """The (state, inc) that ``PCG64`` seeds from the words w0..w3: two LCG steps."""
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    return ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128, inc


def _noise_draws(noise: NoiseSpec, n: int, width: int) -> np.ndarray:
    """Row i is ``noise.sample_rng(i).standard_normal(width)``, bit for bit."""
    out = np.empty((n, width))
    if noise.seed < 2**32 and n <= 2**32:
        bitgen = np.random.PCG64(0)
        generator = np.random.Generator(bitgen)
        pcg = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        words = _seed_words(noise.seed, np.arange(n, dtype=np.uint32))
        for row, w in zip(out, words):
            pcg["state"], pcg["inc"] = _pcg64_state(*w.tolist())
            bitgen.state = state
            generator.standard_normal(out=row)
        if all(
            np.array_equal(out[i], noise.sample_rng(i).standard_normal(width)) for i in {0, n - 1}
        ):
            return out
    for i, row in enumerate(out):
        noise.sample_rng(i).standard_normal(out=row)
    return out


def _centerline_points_into(
    batch: JointBatch,
    rows: np.ndarray,
    roll: float,
    arclengths: list[float],
    outs: list[np.ndarray],
    geom: DerivedGeometry,
) -> None:
    """Write the centerline point at each arc length into ``outs[k][rows]``.

    This is :func:`forward_kinematics` in closed form for the accepted
    rows of a batch at once: the helix point, tilted by -phi about Y, then
    rolled by ``roll`` about X. It agrees with FK to rounding, and builds
    no per-sample transform.
    """
    bend_radius = batch.cylinder_radius[rows] - geom.composite_na_offset
    height = batch.cylinder_height[rows]
    cos_phi, sin_phi = np.cos(batch.deflection[rows]), np.sin(batch.deflection[rows])
    cos_roll, sin_roll = math.cos(roll), math.sin(roll)
    two_pi_n = 2.0 * math.pi * geom.turn_count
    for s, out in zip(arclengths, outs):
        angle = two_pi_n * s / geom.na_length
        hx = s * height / geom.na_length
        hy = bend_radius - bend_radius * math.cos(angle)
        hz = bend_radius * math.sin(angle)
        out[rows, 0] = cos_phi * hx - sin_phi * hz
        z1 = sin_phi * hx + cos_phi * hz
        out[rows, 1] = cos_roll * hy - sin_roll * z1
        out[rows, 2] = sin_roll * hy + cos_roll * z1


def default_eta_grid(steps: int = DEFAULT_ETA_STEPS) -> np.ndarray:
    """Uniform progression grid on [0, 1] including both endpoints."""
    if steps < 2:
        raise ValidationError(f"need at least 2 eta steps, got {steps}")
    return np.linspace(0.0, 1.0, steps)


def ftl_run(
    joint: JointState,
    geom: DerivedGeometry,
    eta_grid: np.ndarray | None = None,
    turn_count: int | None = None,
    body_samples: int | None = None,
) -> tuple[TipTrajectory, list[BackboneCurve]]:
    """Deploy the tube over an eta grid under a fixed joint state.

    Returns the tip trace and the exposed body at each eta. Bodies are
    sampled on a fixed master arc-length grid truncated at eta * l_na (the
    exact tip appended), so the body at a smaller eta is literally a prefix
    of the body at any larger one.

    Under a fixed joint state the tip at eta lies on the final backbone at
    s = eta * l_na, so forward kinematics runs exactly twice: once on the
    master grid and once on the tip arc lengths. One gather then copies
    every body's rows into a single buffer, and each body is a read-only
    slice of it, built without re-validation since its rows come from the
    two validated curves in increasing order. A deployment costs
    O(body samples + eta steps) array work plus a constant per body; the
    body rows themselves are one memory copy. Writing into one body cannot
    corrupt another.

    Each body also refers to what the deployment shares (the rows of both
    FK curves and every body's layout), so :func:`phantom_clearance` of a
    body costs O(1) after the first body cleared against a phantom.

    n comes from ``geom``; a turn count that is given only has to match it.
    """
    _check_turn_count(geom, turn_count)
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
    full = forward_kinematics(joint, geom, master)
    s_tips = grid * geom.na_length
    tip_curve = forward_kinematics(joint, geom, s_tips)

    # A body keeps the master samples with s <= s_tip (forgiving one part in
    # 1e15) and appends the tip unless its last kept sample already is it.
    # The master grid starts at 0 <= s_tip, so every body keeps a sample.
    kept = np.searchsorted(full.s, s_tips * (1.0 + 1e-15), side="right")
    on_grid = full.s[kept - 1] >= s_tips

    # Gather every body from [master rows; tip rows]: row r of body k is
    # master row r for r < kept[k], then tip row k unless on the grid.
    sizes = kept + ~on_grid
    ends = np.cumsum(sizes)
    rows = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
    rows[rows == np.repeat(kept, sizes)] = len(full) + np.flatnonzero(~on_grid)
    stacked = np.concatenate((full.points, tip_curve.points))
    s = np.concatenate((full.s, tip_curve.s))[rows]
    points = stacked[rows]
    stacked.flags.writeable = s.flags.writeable = points.flags.writeable = False

    deployment = _Deployment(stacked, len(full), kept, on_grid)
    bodies: list[BackboneCurve] = []
    start = 0
    for k, end in enumerate(ends.tolist()):
        body = BackboneCurve._trusted(s[start:end], points[start:end])
        object.__setattr__(body, "_ftl", (deployment, k))
        bodies.append(body)
        start = end
    return TipTrajectory(eta=grid, points=points[ends - 1]), bodies


class _Deployment:
    """What the bodies of one :func:`ftl_run` share.

    ``rows`` holds the master rows, then one tip row per body. Body k is
    master rows [0, kept[k]) plus, unless on_grid[k], tip row k. Per
    phantom, the least squared distance of every body to the phantom axis
    comes from one pass over these rows. It is kept for the last phantom
    only, which is how a deployment is cleared: every body against one
    phantom. A PhantomSpec cannot change after validation, so identity
    tells whether the kept result still holds. The rows go through the same
    ``_axis_distance_sq`` as a plain curve; the results match a per-body scan
    bit for bit only where gemv rounds a row the same at any position and
    row count (see :func:`phantom_clearance`).
    """

    __slots__ = ("rows", "masters", "kept", "on_grid", "_phantom", "_least_sq")

    def __init__(self, rows: np.ndarray, masters: int, kept: np.ndarray, on_grid: np.ndarray):
        self.rows, self.masters, self.kept, self.on_grid = rows, masters, kept, on_grid
        self._phantom: PhantomSpec | None = None
        self._least_sq = np.empty(0)

    def least_sq(self, phantom: PhantomSpec) -> np.ndarray:
        """Per body, its least squared distance to the phantom axis."""
        if phantom is not self._phantom:
            distance_sq = _axis_distance_sq(self.rows, phantom)
            # min is exact, so the prefix minimum over the master rows is each
            # body's own minimum over them, NaN propagation included.
            least = np.minimum.accumulate(distance_sq[: self.masters])[self.kept - 1]
            tip = distance_sq[self.masters :]
            self._least_sq = np.where(self.on_grid, least, np.minimum(least, tip))
            self._phantom = phantom
        return self._least_sq


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

    A curve costs O(samples). A body from :func:`ftl_run` costs O(1): the
    first body cleared against a phantom computes the distances of its
    deployment's master and tip rows once (O(body samples + eta steps)),
    and every body reads its own minimum from them. Both paths use the same
    arithmetic, so a body's clearance is bit-identical to that of a plain
    curve with the same rows. That equality assumes numpy's matrix-vector
    product rounds each row alike whatever its position and the row count,
    as the OpenBLAS gemv kernels of numpy 2.4.6 on x86-64 do; a BLAS whose
    leftover-row kernel rounds apart would move a body's clearance by about
    one ulp.
    """
    if len(curve) == 0:
        raise ValidationError("clearance needs a non-empty curve")
    if not (tube_outer_radius >= 0.0 and math.isfinite(tube_outer_radius)):
        raise ValidationError(
            f"tube_outer_radius must be finite and >= 0, got {tube_outer_radius}"
        )
    ftl = getattr(curve, "_ftl", None)
    # numpy multiplies a one-row operand through dot and longer ones through
    # gemv, which round apart, so a one-row body (eta = 0) is scanned as is.
    if ftl is None or len(curve) == 1:
        least = _axis_distance_sq(curve.points, phantom).min()
    else:
        deployment, k = ftl
        least = deployment.least_sq(phantom)[k]
    # sqrt is monotone and correctly rounded: the root of the least squared
    # distance is the least distance, bit for bit.
    clearance = float(math.sqrt(least) - phantom.radius - tube_outer_radius)
    return clearance, clearance < 0.0


def _axis_distance_sq(points: np.ndarray, phantom: PhantomSpec) -> np.ndarray:
    """Squared distance of each (N, 3) point to the phantom's axis line."""
    offsets = points - phantom.axis_point
    along = offsets @ phantom.axis_direction
    radial = offsets - along[:, None] * phantom.axis_direction
    return (radial * radial).sum(axis=1)


def phantom_on_cylinder_axis(
    joint: JointState, geom: DerivedGeometry, radius: float
) -> PhantomSpec:
    """Phantom whose axis coincides with the imaginary-cylinder axis."""
    point, direction = cylinder_axis(joint, geom)
    return PhantomSpec(axis_point=point, axis_direction=direction, radius=radius)
