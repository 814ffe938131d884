"""Synthetic experiments, FTL runs, fidelity scoring and clearance checks.

Everything here is deterministic given a seed. Noise streams are derived
per sample index from (seed, index): sample i draws from
``default_rng([seed, i])``, the stroke first, then the markers in
ascending arc length, so datasets are reproducible even if generation is
ever partitioned across workers. ``synthetic_sweep`` reproduces those
streams bit for bit without building one ``default_rng`` per sample. It
hashes every ``SeedSequence([seed, i])`` and seeds every PCG64 state in
one numpy pass, with 128-bit arithmetic on uint64 limbs. From 4096 rows
on it also steps all streams together and draws each normal on the
ziggurat's fast path, with numpy's tables recovered once per process by
probes through its public API. A row leaves that path for one reused
generator set to its state when any of its draws was rejected or drew
from a layer whose probes failed. Every row comes from
``NoiseSpec.sample_rng`` instead for a seed or index of 2**32 or more, or
when the first or last sample disagrees with ``default_rng``.

The sweep's marker tracks and tips come from the centerline kernel that
forward kinematics runs, and equal a batched FK call at the same arc
lengths bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, GridMismatchError, ValidationError
from .estimation import EstimateResult, TrajectoryComparison, compare_point_sequences, stroke_based_estimate
from .geometry import DerivedGeometry, TendonSpec, TubeSpec, _check_turn_count, _finite_float
from .kinematics import (
    DEFAULT_BACKBONE_SAMPLES,
    BackboneCurve,
    JointState,
    TipTrajectory,
    _ValueRecord,
    _centerline,
    _check_count,
    _check_roll,
    backbone_samples,
    cylinder_axis,
    forward_kinematics,
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
    """Gaussian measurement noise: per-axis position sigma and stroke sigma (mm), stored as floats."""

    position_sigma: float = 0.0
    stroke_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("position_sigma", "stroke_sigma"):
            object.__setattr__(self, name, _finite_float(getattr(self, name), f"noise {name}", ">= 0"))
        # The seeds default_rng accepts; bool is an int but no seed.
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValidationError(f"noise seed must be an integer >= 0, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))

    def sample_rng(self, index: int) -> np.random.Generator:
        """Independent stream for one sample, stable under parallel generation."""
        return np.random.default_rng([self.seed, index])


@dataclass(frozen=True, eq=False)
class PhantomSpec(_ValueRecord):
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
        radius = _finite_float(self.radius, "phantom radius", ">= 0")
        point.flags.writeable = direction.flags.writeable = False
        object.__setattr__(self, "axis_point", point)
        object.__setattr__(self, "axis_direction", direction)
        object.__setattr__(self, "radius", radius)


@dataclass(frozen=True, eq=False)
class SyntheticDataset(EstimateResult):
    """Forward-model dataset with ground truth retained alongside noisy channels.

    The actuation log and its map are the :class:`EstimateResult` that
    :func:`~helikin.estimation.stroke_based_estimate` builds from the
    profile: ``strokes``, ``tensions``, ``batch``, ``roll``, ``failures``,
    ``joint_series`` and ``per_sample_phi``. ``joints`` reads
    ``joint_series``. Datasets compare and hash by identity, not by value.
    """

    tube: TubeSpec
    noise: NoiseSpec
    strokes_noisy: np.ndarray
    marker_arclengths: tuple[float, ...]
    tracks_true: dict[float, np.ndarray]
    tracks_noisy: dict[float, np.ndarray]
    tips_true: np.ndarray

    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def joints(self) -> tuple[JointState | None, ...]:
        return self.joint_series

    @property
    def n_samples(self) -> int:
        return self.strokes.size


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

    The dataset's actuation log is the one
    :func:`~helikin.estimation.stroke_based_estimate` builds from the
    profile at ``roll``, the whole profile through the batch actuation map
    at once. The accepted samples go through FK's centerline kernel as one
    batch at the arc lengths [*markers, l_na], so a sample's tracks and tip
    equal one :func:`forward_kinematics` call at those arc lengths bit for
    bit.
    Marker arc lengths must be distinct; one may equal l_na. Noise
    comes from one ``default_rng([seed, i])`` stream per sample, drawn in
    a fixed order: the stroke first, then one (x, y, z) triple per marker
    in ascending arc-length order. The streams do not depend on the
    batching, so the noise is bit-identical to a per-sample loop.

    The sweep does not build those generators. It hashes
    ``SeedSequence([seed, i])`` for every i in one uint32 numpy pass and
    seeds every PCG64 (state, inc) from the hashes in one pass on uint64
    (hi, lo) limbs, the 128-bit products built from 32-bit partial
    products. With 4096 samples or more it then steps every stream's LCG
    once per column, takes the XSL-RR word and applies the fast path of
    numpy's ziggurat: ``x = ±rabs * wi[layer]``, accepted iff
    ``rabs < ki[layer]``. The wi and ki tables are probed through numpy's
    public API on the first such call in a process, and each ki entry
    holds only if its two boundary probes agree; a layer that fails gets
    ki = 0. A sample with a rejected draw or a draw from such a layer, and
    every sample of a smaller sweep, gets its state set on one reused
    generator, which draws its whole row in one call. If the seed or an
    index does not fit one uint32 word, or the first or last sample
    differs from ``default_rng``, every row is drawn from
    :meth:`NoiseSpec.sample_rng` instead.

    With both sigmas 0 the sweep draws nothing and never imports
    ``numpy.random``: the noisy channels are ``true + 0.0``, which equals
    ``0 * draw + true`` bit for bit except that a true -0.0, such as a
    logged -0.0 stroke, becomes +0.0. NaN rows keep their bytes.

    Samples the actuation map rejects are recorded, not fatal: their
    joint is None, their track and tip rows are NaN, and ``failures``
    pairs each index with the scalar map's error message on the logged
    values, as the estimate reports it. A profile that wanders out of the
    model's domain still produces an aligned dataset.

    ``tube`` is stored with the dataset; its turn count must match ``geom``.
    A non-finite ``roll`` raises ValidationError.
    """
    _check_turn_count(geom, tube.turn_count)
    _check_roll(roll)
    for s in markers:
        if not 0.0 <= s <= geom.na_length:
            raise ValidationError(f"marker arc length {s} outside [0, {geom.na_length}] mm")
    marker_s = np.asarray(sorted(markers), dtype=float)
    repeated = marker_s[1:][marker_s[1:] == marker_s[:-1]]
    if repeated.size:
        raise ValidationError(f"marker arc length {repeated[0]} mm given more than once")
    n = len(stroke_profile)
    if n == 0:
        raise ValidationError("stroke profile must contain at least one sample")
    log = stroke_based_estimate(stroke_profile, geom, tendon, roll)
    batch = log.batch
    rows = np.flatnonzero(batch.ok)
    # Per sample: the markers, then the tip; rows the map rejected stay NaN.
    centerline = np.full((n, marker_s.size + 1, 3), np.nan)
    centerline[rows], _ = _centerline(
        batch.cylinder_radius[rows] - geom.composite_na_offset, batch.cylinder_height[rows],
        batch.deflection[rows], roll, np.append(marker_s, geom.na_length), geom,
    )

    # The noisy strokes and tracks are views of the draws' columns, scaled
    # and offset in place, so the draws take no memory beyond them. With
    # both sigmas 0 the draws are zeros, and numpy.random is never loaded.
    width = 1 + 3 * marker_s.size
    draws = _noise_draws(noise, n, width) if noise.position_sigma or noise.stroke_sigma else np.zeros((n, width))
    strokes_noisy = draws[:, 0]
    strokes_noisy *= noise.stroke_sigma
    strokes_noisy += log.strokes
    noisy = draws[:, 1:].reshape(n, marker_s.size, 3)
    noisy *= noise.position_sigma
    noisy += centerline[:, :-1]

    return SyntheticDataset(
        log.strokes, log.tensions, log.batch, log.roll, log.failures,
        tube=tube,
        noise=noise,
        strokes_noisy=strokes_noisy,
        marker_arclengths=tuple(marker_s),
        tracks_true={s: centerline[:, k] for k, s in enumerate(marker_s)},
        tracks_noisy={s: noisy[:, k] for k, s in enumerate(marker_s)},
        tips_true=centerline[:, -1],
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
_MASK52 = (1 << 52) - 1
_MULT_HI, _MULT_LO = map(np.uint64, divmod(_PCG64_MULT, 1 << 64))
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)
# Rows from which a call draws on the ziggurat fast path. The once-per-process
# table probes cost 4-9 ms after a sweep has warmed numpy's generators, and
# a process's first sweep broke even at about 2 000 rows; 4096 leaves margin.
_TABLE_ROWS = 4096


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


def _pcg64_seed(
    words: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Per row of (n, 4) words w0..w3, the (state, inc) ``PCG64`` seeds from them.

    Each is a (hi, lo) pair of uint64 arrays. Seeding takes two LCG steps,
    from state 0 with initstate w0:w1 added in between.
    """
    w0, w1, w2, w3 = words.T
    inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
    lo = inc[1] + w1
    return _lcg_step(inc[0] + w0 + (lo < w1), lo, inc), inc


def _as_ints(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


def _settable_generator():
    """A ``Generator`` on ``PCG64`` and a function that sets its (state, inc) from ints."""
    bitgen = np.random.PCG64(0)
    pcg = {"state": 0, "inc": 0}
    whole = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    def set_state(state: int, inc: int) -> None:
        pcg["state"], pcg["inc"] = state, inc
        bitgen.state = whole

    return np.random.Generator(bitgen), set_state


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of each 128-bit product a * b, from 32-bit partial products."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    # Neither sum can pass 2**64 - 1: (2**32 - 1)**2 + 2 * (2**32 - 1) fits.
    low = a1 * b0 + (a0 * b0 >> 32)
    mid = a0 * b1 + (low & _MASK32)
    return a1 * b1 + (low >> 32) + (mid >> 32)


def _lcg_step(hi, lo, inc):
    """state * _PCG64_MULT + inc mod 2**128, on (hi, lo) limbs; uint64 arrays wrap."""
    lo_new = lo * _MULT_LO + inc[1]
    hi_new = _mul_hi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO + inc[0]
    return hi_new + (lo_new < inc[1]), lo_new


def _noise_draws(noise: NoiseSpec, n: int, width: int) -> np.ndarray:
    """Row i is ``noise.sample_rng(i).standard_normal(width)``, bit for bit."""
    out = np.empty((n, width))
    if noise.seed < 2**32 and n <= 2**32:
        state, inc = _pcg64_seed(_seed_words(noise.seed, np.arange(n, dtype=np.uint32)))
        slow = _ziggurat_draws(out, state, inc) if n >= _TABLE_ROWS else np.arange(n)
        generator, set_state = _settable_generator()
        states = _as_ints(state[0][slow], state[1][slow])
        incs = _as_ints(inc[0][slow], inc[1][slow])
        for i, row_state, row_inc in zip(slow.tolist(), states, incs):
            set_state(row_state, row_inc)
            generator.standard_normal(out=out[i])
        if all(
            np.array_equal(out[i], noise.sample_rng(i).standard_normal(width)) for i in {0, n - 1}
        ):
            return out
    for i, row in enumerate(out):
        noise.sample_rng(i).standard_normal(out=row)
    return out


def _ziggurat_draws(out: np.ndarray, state, inc) -> np.ndarray:
    """Fill every row of ``out`` whose draws all take the ziggurat's fast path; return the others.

    Column by column, the LCG steps every row's (hi, lo) state once, and
    XSL-RR of the new state is the row's next 64-bit word (O'Neill 2014).
    numpy's ``standard_normal`` takes layer ``w & 0xff``, sign bit 8 and
    the 52-bit ``rabs = w >> 9``, and returns ``±rabs * wi[layer]`` iff
    ``rabs < ki[layer]`` (Marsaglia & Tsang 2000). A row with any other
    draw consumed more words, so its whole row is left to the caller.
    """
    wi, ki = _ziggurat_tables()
    # Indexed by the layer and sign bits together. IEEE products are
    # symmetric in sign, so rabs * -wi is -(rabs * wi), zeros included.
    wi, ki = np.concatenate((wi, -wi)), np.tile(ki, 2)
    hi, lo = state
    fast = np.ones(len(out), bool)
    for column in out.T:
        hi, lo = _lcg_step(hi, lo, inc)
        word = hi ^ lo
        rotate = hi >> 58
        word = word >> rotate | word << (64 - rotate & 63)
        layer_sign = (word & 0x1FF).astype(np.intp)
        rabs = word >> 9 & _MASK52
        np.multiply(rabs, wi[layer_sign], out=column)
        fast &= rabs < ki[layer_sign]
    return np.flatnonzero(~fast)


def _ki_candidate(wi_below: float, wi: float) -> int:
    """floor(2**52 * wi[layer - 1] / wi[layer]): ki[layer] or one below it."""
    return int(2.0**52 * wi_below / wi)


@cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``standard_normal`` ziggurat tables (wi, ki), recovered through its public API.

    Each probe sets a ``PCG64`` state whose next word is a chosen
    (layer, rabs), draws one normal and reads the state back: the draw took
    the fast path iff the state advanced exactly one step. ``wi[layer]`` is
    the draw at rabs = 1. ``ki[layer]`` is the least rejected rabs: from
    :func:`_ki_candidate` where the layer below has a ``wi``, else by
    bisection, and it holds only if rabs = ki - 1 draws ``(ki - 1) *
    wi[layer]`` and rabs = ki is rejected. A layer that fails any probe
    (numpy's layer 1 always rejects) gets ki = 0, so every row drawing from
    it takes the per-row path. About 1 100 probes, once per process.
    """
    generator, set_state = _settable_generator()

    def fast_draw(layer: int, rabs: int) -> float | None:
        # With inc 1 the LCG steps this state to the word itself, whose high
        # half is 0, so XSL-RR neither mixes nor rotates it.
        word = layer | rabs << 9
        set_state((word - 1) * _PCG64_MULT_INV & _MASK128, 1)
        x = generator.standard_normal()
        return x if generator.bit_generator.state["state"]["state"] == word else None

    def least_rejected(layer: int) -> int:
        accepted, rejected = 1, 1 << 52
        while rejected - accepted > 1:
            mid = (accepted + rejected) // 2
            if fast_draw(layer, mid) is None:
                rejected = mid
            else:
                accepted = mid
        return rejected

    wi = np.array([fast_draw(layer, 1) or 0.0 for layer in range(256)])
    ki = np.zeros(256, np.uint64)
    for layer in np.flatnonzero(wi).tolist():
        below = wi[layer - 1] if layer else 0.0
        k = _ki_candidate(below, wi[layer]) if below else least_rejected(layer)
        if fast_draw(layer, k) is not None:
            k += 1
        if (
            0 < k < 1 << 52
            and fast_draw(layer, k - 1) == (k - 1) * wi[layer]
            and fast_draw(layer, k) is None
        ):
            ki[layer] = k
    return wi, ki


def default_eta_grid(steps: int = DEFAULT_ETA_STEPS) -> np.ndarray:
    """Uniform progression grid on [0, 1] including both endpoints."""
    _check_count(steps, "eta steps")
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
    master grid and once on the tip arc lengths. Each body is built without
    re-validation, since its rows come from validated curves in increasing
    order, and holds only its place in the deployment the bodies share (the
    rows of both FK curves and every body's layout). No body row is copied
    until some body's ``s`` or ``points`` is first read. That read copies
    every body's rows with one ``take`` per array into one buffer; each
    body's own first read makes its ``s`` and ``points`` read-only slices of
    it, so writing into one body cannot corrupt another. ``len()`` of a
    body and :func:`phantom_clearance`, which costs O(1) per body after the
    first body cleared against a phantom, do not copy.

    n comes from ``geom``; a turn count that is given only has to match it.
    """
    _check_turn_count(geom, turn_count)
    if eta_grid is None:
        eta_grid = default_eta_grid()
    grid = np.asarray(eta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValidationError("eta grid must be a non-empty 1-D array")
    # Both tests are written so that NaN fails them.
    if not (grid[1:] > grid[:-1]).all():
        raise ValidationError("eta grid must be strictly increasing")
    if not (-1e-12 <= grid[0] and grid[-1] <= 1.0 + 1e-12):
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
    off_grid = full.s[kept - 1] < s_tips
    stacked = np.concatenate((full.points, tip_curve.points))
    stacked.flags.writeable = False

    # Body k ends on tip row k if off the grid, else on master row kept[k] - 1.
    last = np.where(off_grid, len(full) + np.arange(grid.size), kept - 1)
    tip = TipTrajectory(eta=grid, points=stacked.take(last, axis=0))
    return tip, BackboneCurve._ftl_bodies(_Deployment(stacked, full.s, tip_curve.s, kept, off_grid), grid.size)


class _Deployment:
    """What the bodies of one :func:`ftl_run` share.

    ``rows`` holds the master rows, then one tip row per body. Body k is
    master rows [0, kept[k]) plus, if off_grid[k], tip row k.

    :meth:`gather` copies every body's rows, once, into one read-only
    buffer per array; :meth:`body_rows` gives body k its two views of them,
    which the body sets on itself on its first read. The deployment refers
    to no body, so dropping the bodies frees it.

    Per phantom, the least squared distance of every body to the phantom
    axis comes from one pass over ``rows``, gathered or not. It is kept for
    the last phantom only, which is how a deployment is cleared: every body
    against one phantom. A PhantomSpec cannot change after validation, so
    identity tells whether the kept result still holds. The rows go through
    the same ``_axis_distance_sq`` as a plain curve, which rounds each row
    alike at any position and row count, so the results match a per-body
    scan bit for bit.
    """

    __slots__ = (
        "rows", "masters", "kept", "off_grid", "_s_rows", "_gathered", "_sizes", "_phantom", "_least_sq",
        "__weakref__",
    )

    def __init__(
        self, rows: np.ndarray, master_s: np.ndarray, tip_s: np.ndarray, kept: np.ndarray, off_grid: np.ndarray
    ):
        self.rows, self.masters, self.kept, self.off_grid = rows, master_s.size, kept, off_grid
        self._s_rows = (master_s, tip_s)
        self._gathered: tuple | None = None
        self._sizes: list[int] | None = None
        self._phantom: PhantomSpec | None = None
        self._least_sq: list[float] = []

    def size(self, k: int) -> int:
        """Rows of body k, without gathering."""
        # Python ints: len() of 1001 bodies costs about 0.2 ms, against 0.9 ms
        # through numpy scalars.
        if self._sizes is None:
            self._sizes = (self.kept + self.off_grid).tolist()
        return self._sizes[k]

    def gather(self) -> None:
        """Copy every body's rows into one read-only buffer per array, with each body's start and end."""
        # Body k is rows [ends[k] - sizes[k], ends[k]) of the gathered buffers.
        sizes = self.kept + self.off_grid
        ends = np.cumsum(sizes)
        rows = np.arange(ends[-1])
        rows -= np.repeat(ends - sizes, sizes)
        rows[(ends - 1)[self.off_grid]] = self.masters + np.flatnonzero(self.off_grid)
        s = np.concatenate(self._s_rows).take(rows)
        points = self.rows.take(rows, axis=0)
        s.flags.writeable = points.flags.writeable = False
        # One assignment: a body read on another thread meanwhile finds all four or gathers again.
        self._gathered = s, points, (ends - sizes).tolist(), ends.tolist()

    def body_rows(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Body k's ``s`` and ``points``: its views of the gathered rows."""
        if self._gathered is None:
            self.gather()
        s, points, starts, ends = self._gathered
        return s[starts[k] : ends[k]], points[starts[k] : ends[k]]

    def least_sq(self, phantom: PhantomSpec) -> list[float]:
        """Per body, its least squared distance to the phantom axis, as floats cheap to index."""
        if phantom is not self._phantom:
            distance_sq = _axis_distance_sq(self.rows, phantom)
            # min is exact, so the prefix minimum over the master rows is each
            # body's own minimum over them, NaN propagation included.
            least = np.minimum.accumulate(distance_sq[: self.masters])[self.kept - 1]
            tips = np.minimum(least, distance_sq[self.masters :])
            self._least_sq = np.where(self.off_grid, tips, least).tolist()
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
    # np.allclose's test at its default rtol, less its NaN and inf handling:
    # both grids are finite, and expected, monotone in eta, is finite unless
    # one of its ends overflowed.
    tol = 1e-9 * max(span, 1.0) + 1e-5 * np.abs(expected)
    close = (np.abs(final_backbone.s - expected) <= tol).all()
    if not (close and math.isfinite(expected[0]) and math.isfinite(expected[-1])):
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

    A curve costs O(samples). A body from :func:`ftl_run` costs O(1) and
    does not copy its rows: the first body cleared against a phantom
    computes the distances of its deployment's master and tip rows once
    (O(body samples + eta steps)), and every body reads its own minimum
    from them. Both paths use the same elementwise arithmetic, so a body's
    clearance is bit-identical to that of a plain curve with the same rows,
    on any BLAS.
    """
    try:
        valid = tube_outer_radius >= 0.0 and math.isfinite(tube_outer_radius)
    except (TypeError, OverflowError):  # a str or None, or an int past the float range
        valid = False
    if not valid:
        raise ValidationError(f"tube_outer_radius must be finite and >= 0, got {tube_outer_radius!r}")
    ftl = curve._ftl
    if ftl is None:
        least = _axis_distance_sq(curve.points, phantom).min()
    else:
        deployment, k = ftl
        least = deployment.least_sq(phantom)[k]
    # sqrt is monotone and correctly rounded: the root of the least squared
    # distance is the least distance, bit for bit.
    clearance = math.sqrt(least) - phantom.radius - float(tube_outer_radius)
    return clearance, clearance < 0.0


def _axis_distance_sq(points: np.ndarray, phantom: PhantomSpec) -> np.ndarray:
    """Squared distance of each (N, 3) point to the phantom's axis line.

    Written out per coordinate in a fixed order, with no matrix product, so
    a row's result depends on that row alone: not on its position, the row
    count or the BLAS.
    """
    x, y, z = (points - phantom.axis_point).T
    dx, dy, dz = phantom.axis_direction.tolist()
    along = x * dx + y * dy + z * dz
    rx, ry, rz = x - along * dx, y - along * dy, z - along * dz
    return rx * rx + ry * ry + rz * rz


def phantom_on_cylinder_axis(
    joint: JointState, geom: DerivedGeometry, radius: float
) -> PhantomSpec:
    """Phantom whose axis coincides with the imaginary-cylinder axis."""
    point, direction = cylinder_axis(joint, geom)
    return PhantomSpec(axis_point=point, axis_direction=direction, radius=radius)
