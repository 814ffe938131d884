import copy
import dataclasses
import gc
import math
import pickle
import pydoc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helikin import kinematics, simulation
from helikin.errors import DomainError, GridMismatchError, ValidationError
from helikin.geometry import derive_geometry
from helikin.estimation import EstimateResult, position_based_estimate, rmse, stroke_based_estimate
from helikin.kinematics import (
    BackboneCurve,
    JointState,
    TipTrajectory,
    backbone_samples,
    cylinder_axis,
    forward_kinematics,
    joint_from_actuation,
)
from helikin.simulation import (
    NoiseSpec,
    PhantomSpec,
    default_eta_grid,
    ftl_fidelity,
    ftl_run,
    phantom_clearance,
    phantom_on_cylinder_axis,
    synthetic_sweep,
)

from .oracles import ftl_bodies_one_by_one, point_line_distance, random_rotation

BODY_SAMPLES = 129


def _profile(n=9, max_stroke=4.0, tension=0.0):
    return [(float(v), tension) for v in np.linspace(0.0, max_stroke, n)]


class TestSyntheticSweep:
    @pytest.mark.parametrize("roll", [math.nan, math.inf, -math.inf])
    def test_non_finite_roll_rejected(self, tube, tendon, geom, roll):
        with pytest.raises(ValidationError, match="roll angle theta must be finite"):
            synthetic_sweep(geom, tendon, _profile(), [33.20], NoiseSpec(), roll, tube)

    @pytest.mark.parametrize("markers, repeated", [([10.0, 10.0], 10.0), ([33.2, 10.0, 33.2], 33.2)])
    def test_duplicate_markers_rejected(self, tube, tendon, geom, markers, repeated):
        noise = NoiseSpec(position_sigma=0.1)
        with pytest.raises(ValidationError, match=f"marker arc length {repeated} mm given more than once"):
            synthetic_sweep(geom, tendon, _profile(), markers, noise, 0.0, tube)

    def test_same_seed_is_bit_identical(self, tube, tendon, geom):
        noise = NoiseSpec(position_sigma=0.5, stroke_sigma=0.1, seed=42)
        kwargs = dict(
            geom=geom, tendon=tendon, stroke_profile=_profile(),
            markers=[18.24, 33.20], noise=noise, roll=0.3, tube=tube,
        )
        one = synthetic_sweep(**kwargs)
        two = synthetic_sweep(**kwargs)
        assert np.array_equal(one.strokes_noisy, two.strokes_noisy)
        for s in one.marker_arclengths:
            assert np.array_equal(one.tracks_noisy[s], two.tracks_noisy[s])
            assert np.array_equal(one.tracks_true[s], two.tracks_true[s])

    def test_different_seeds_differ(self, tube, tendon, geom):
        kwargs = dict(
            geom=geom, tendon=tendon, stroke_profile=_profile(),
            markers=[33.20], roll=0.0, tube=tube,
        )
        one = synthetic_sweep(noise=NoiseSpec(position_sigma=0.5, seed=1), **kwargs)
        two = synthetic_sweep(noise=NoiseSpec(position_sigma=0.5, seed=2), **kwargs)
        s = one.marker_arclengths[0]
        assert not np.array_equal(one.tracks_noisy[s], two.tracks_noisy[s])
        assert np.array_equal(one.tracks_true[s], two.tracks_true[s])

    def test_zero_noise_round_trips_through_estimators(self, tube, tendon, geom):
        dataset = synthetic_sweep(
            geom, tendon, _profile() , [20.0, 40.0], NoiseSpec(seed=0), 0.45, tube
        )
        assert not dataset.failures

        result = stroke_based_estimate(
            list(zip(dataset.strokes, dataset.tensions)), geom, tendon, roll=0.45
        )
        for estimated, truth in zip(result.joint_series, dataset.joints):
            assert estimated.cylinder_radius == pytest.approx(
                truth.cylinder_radius, abs=1e-9
            )
            assert estimated.cylinder_height == pytest.approx(
                truth.cylinder_height, abs=1e-9
            )

        for tip, truth in zip(dataset.tips_true, dataset.joints):
            estimate = position_based_estimate(tip, geom)
            assert estimate.cylinder_height == pytest.approx(
                truth.cylinder_height, abs=1e-9
            )
            assert estimate.phi_truth == pytest.approx(truth.deflection, abs=1e-9)

    def test_failures_recorded_not_fatal(self, tube, tendon, geom):
        profile = [(0.0, 0.0), (9.0, 0.0), (2.0, 0.0)]
        dataset = synthetic_sweep(
            geom, tendon, profile, [33.2], NoiseSpec(seed=3), 0.0, tube
        )
        assert len(dataset.failures) == 1
        assert dataset.failures[0][0] == 1
        assert dataset.joints[1] is None
        assert np.all(np.isnan(dataset.tips_true[1]))
        assert np.all(np.isfinite(dataset.tips_true[2]))

    def test_failures_match_the_stroke_based_estimate(self, tube, tendon, geom):
        # One failure-message rule: a message shows the stroke as it was logged.
        profile = [(-1, 0), (math.nan, 0.0), (2.0, 0.0)]
        dataset = synthetic_sweep(geom, tendon, profile, [33.2], NoiseSpec(), 0.0, tube)
        assert dataset.failures == stroke_based_estimate(profile, geom, tendon, 0.0).failures
        assert [i for i, _ in dataset.failures] == [0, 1]
        assert dataset.failures[0][1].endswith("got -1")

    def test_dataset_is_the_estimate_of_its_profile(self, tube, tendon, geom):
        dataset = synthetic_sweep(geom, tendon, _profile(), [33.2], NoiseSpec(), 0.2, tube)
        assert isinstance(dataset, EstimateResult)
        assert dataset.joints is dataset.joint_series
        assert dataset.joint_series == stroke_based_estimate(_profile(), geom, tendon, 0.2).joint_series
        dataset_type = simulation.SyntheticDataset
        inherited = {field.name for field in dataclasses.fields(dataset_type)} - set(dataset_type.__annotations__)
        assert inherited == {field.name for field in dataclasses.fields(EstimateResult)}

    def test_joints_are_built_on_first_read_and_kept(self, tube, tendon, geom, monkeypatch):
        # Accepted rows are filled without the validating constructor.
        built, validated, fill = [], [], kinematics._joint_state
        monkeypatch.setattr(kinematics, "_joint_state", lambda *row: built.append(row) or fill(*row))
        monkeypatch.setattr(JointState, "__post_init__", validated.append)
        profile = [(0.0, 0.0), (9.0, 0.0), (2.0, 0.0)]
        dataset = synthetic_sweep(geom, tendon, profile, [33.2], NoiseSpec(seed=3), 0.7, tube)
        assert built == [] and dataset.batch.ok.tolist() == [True, False, True]
        joints = dataset.joints
        assert len(built) == 2 and joints[1] is None
        assert [j.roll for j in joints if j is not None] == [0.7, 0.7]
        assert dataset.joints is joints and len(built) == 2 and validated == []

    def test_marker_out_of_range_rejected(self, tube, tendon, geom):
        with pytest.raises(ValidationError):
            synthetic_sweep(
                geom, tendon, _profile(), [geom.na_length + 5.0], NoiseSpec(), 0.0, tube
            )

    def test_marker_error_names_the_exact_bound(self, tube, tendon, geom):
        # 64.0645 lies just past l_na = 64.06446963716715; a bound rounded
        # to six digits would read as the marker itself.
        assert 64.0645 > geom.na_length
        with pytest.raises(ValidationError, match=f"\\[0, {geom.na_length!r}\\]"):
            synthetic_sweep(geom, tendon, _profile(), [64.0645], NoiseSpec(), 0.0, tube)

    def test_position_noise_scales_with_sigma(self, tube, tendon, geom):
        deviations = []
        for sigma in (0.1, 0.5, 1.0):
            dataset = synthetic_sweep(
                geom, tendon, _profile(), [33.2],
                NoiseSpec(position_sigma=sigma, seed=11), 0.0, tube,
            )
            s = dataset.marker_arclengths[0]
            deviations.append(rmse(dataset.tracks_noisy[s], dataset.tracks_true[s]))
        assert deviations[0] < deviations[1] < deviations[2]


def _max_stroke(geom):
    """Largest valid stroke at zero tension: tendon length l_na - 2 pi n d_t-na."""
    return geom.slack_tendon_length - (
        geom.na_length - 2.0 * math.pi * geom.turn_count * geom.tendon_na_distance
    )


class TestSweepBatchPath:
    @pytest.mark.parametrize("tip_marker", [True, False])
    @pytest.mark.parametrize("turn_count", [1, 2, 3])
    def test_rows_match_scalar_kinematics(self, tube, tendon, turn_count, tip_marker):
        tube_n = dataclasses.replace(tube, turn_count=turn_count)
        geom_n = derive_geometry(tube_n)
        rng = np.random.default_rng(turn_count)
        strokes = rng.uniform(0.0, 1.05 * _max_stroke(geom_n), 120)
        tensions = rng.uniform(0.0, 10.0, 120)
        markers = ([geom_n.na_length] if tip_marker else []) + [10.0, 33.2, 0.0]
        dataset = synthetic_sweep(
            geom_n, tendon, list(zip(strokes.tolist(), tensions.tolist())), markers,
            NoiseSpec(position_sigma=0.5, stroke_sigma=0.05, seed=turn_count), 0.7, tube_n,
        )
        assert 0 < len(dataset.failures) < 120
        failures = dict(dataset.failures)
        for i, joint in enumerate(dataset.joints):
            try:
                scalar = joint_from_actuation(strokes[i], tensions[i], tendon, geom_n, 0.7)
            except DomainError as exc:
                assert joint is None and failures[i] == str(exc)
                assert np.isnan(dataset.tips_true[i]).all()
                continue
            assert (joint.cylinder_radius, joint.cylinder_height) == (
                scalar.cylinder_radius, scalar.cylinder_height,
            )
            assert joint.closure_residual(geom_n) < 1e-12
            # Bit for bit against one FK call at the sample's own joint (its
            # phi is numpy's arctan2) over the sweep's arc lengths, markers
            # then tip. A marker at l_na already is the tip, which FK samples
            # once: BLAS rounds a row alike whatever the row count.
            s = np.array(dataset.marker_arclengths)
            if not tip_marker:
                s = np.append(s, geom_n.na_length)
            points = forward_kinematics(joint, geom_n, s).points
            rows = [dataset.tracks_true[s_k][i] for s_k in dataset.marker_arclengths]
            assert np.array(rows).tobytes() == points[: len(rows)].tobytes()
            assert dataset.tips_true[i].tobytes() == points[-1].tobytes()

    def test_noise_is_the_documented_streams_bit_for_bit(self, tube, tendon, geom):
        noise = NoiseSpec(position_sigma=0.3, stroke_sigma=0.05, seed=2024)
        profile = _profile(n=25, max_stroke=8.0)  # the last few samples over-actuate
        dataset = synthetic_sweep(geom, tendon, profile, [50.0, 10.0, 33.2], noise, 0.2, tube)
        assert dataset.failures
        for i, (stroke, _) in enumerate(profile):
            rng = np.random.default_rng([2024, i])
            z_stroke = rng.standard_normal()
            z_markers = rng.standard_normal((3, 3))
            assert dataset.strokes_noisy[i] == stroke + 0.05 * z_stroke
            for k, s in enumerate(dataset.marker_arclengths):
                noisy, true = dataset.tracks_noisy[s][i], dataset.tracks_true[s][i]
                if dataset.joints[i] is None:
                    assert np.isnan(noisy).all() and np.isnan(true).all()
                else:
                    # noisy - true would round; the sum is what the sweep stores.
                    assert np.array_equal(noisy, true + 0.3 * z_markers[k])

    def test_every_sample_rejected(self, tube, tendon, geom):
        dataset = synthetic_sweep(
            geom, tendon, [(9.0, 0.0), (math.nan, 0.0)], [33.2], NoiseSpec(seed=1), 0.0, tube
        )
        assert dataset.joints == (None, None)
        assert [i for i, _ in dataset.failures] == [0, 1]
        assert np.isnan(dataset.tracks_noisy[33.2]).all()
        assert np.isnan(dataset.tips_true).all()


def _reference_draws(seed, n, markers):
    """One default_rng([seed, i]) per sample: the stroke, then (markers, 3)."""
    z_stroke = np.empty(n)
    z_markers = np.empty((n, markers, 3))
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        z_stroke[i] = rng.standard_normal()
        z_markers[i] = rng.standard_normal((markers, 3))
    return z_stroke, z_markers


@pytest.fixture()
def sample_rng_calls(monkeypatch):
    """The sample indices NoiseSpec.sample_rng is called with, in order."""
    calls = []
    sample_rng = NoiseSpec.sample_rng
    monkeypatch.setattr(
        NoiseSpec, "sample_rng", lambda self, i: calls.append(i) or sample_rng(self, i)
    )
    return calls


class TestNoiseStreams:
    """The sweep's batched seeding against one default_rng([seed, i]) per sample."""

    # Every centerline point at s = 0 is exactly 0, so that marker's noisy
    # track is its raw draws; the other is checked as the sum the sweep stores.
    MARKERS = [33.2, 0.0]

    def _assert_documented_draws(self, tube, tendon, geom, seed, n, z_stroke, z_markers):
        noise = NoiseSpec(position_sigma=1.0, stroke_sigma=1.0, seed=seed)
        dataset = synthetic_sweep(geom, tendon, [(0.0, 0.0)] * n, self.MARKERS, noise, 0.0, tube)
        assert np.array_equal(dataset.strokes_noisy, z_stroke[:n])
        for k, s in enumerate(dataset.marker_arclengths):
            truth = dataset.tracks_true[s]
            assert np.array_equal(dataset.tracks_noisy[s], truth + z_markers[:n, k])
        draws = simulation._noise_draws(noise, n, 1 + 3 * len(self.MARKERS))
        assert np.array_equal(draws[:, 0], z_stroke[:n])
        assert np.array_equal(draws[:, 1:], z_markers[:n].reshape(n, -1))

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1])
    def test_fast_path_is_bit_identical(self, tube, tendon, geom, seed, sample_rng_calls):
        z_stroke, z_markers = _reference_draws(seed, 10_000, len(self.MARKERS))
        for n in (1, 2, 10_000):
            sample_rng_calls.clear()
            self._assert_documented_draws(tube, tendon, geom, seed, n, z_stroke, z_markers)
            # Only the self-check of the first and last sample, per call.
            assert sorted(sample_rng_calls) == sorted(2 * [*{0, n - 1}])

    @pytest.mark.parametrize("seed", [2**32, 2**64])
    def test_seed_past_one_word_falls_back(self, tube, tendon, geom, seed, sample_rng_calls):
        z_stroke, z_markers = _reference_draws(seed, 5, len(self.MARKERS))
        self._assert_documented_draws(tube, tendon, geom, seed, 5, z_stroke, z_markers)
        assert sample_rng_calls == 2 * list(range(5))

    def test_wrong_hash_constant_fails_the_self_check(
        self, tube, tendon, geom, monkeypatch, sample_rng_calls
    ):
        monkeypatch.setattr(simulation, "_MULT_A", simulation._MULT_A ^ 1)
        seq = np.random.SeedSequence([7, 3])
        assert not np.array_equal(
            simulation._seed_words(7, np.array([3]))[0], seq.generate_state(4, np.uint64)
        )
        z_stroke, z_markers = _reference_draws(7, 50, len(self.MARKERS))
        self._assert_documented_draws(tube, tendon, geom, 7, 50, z_stroke, z_markers)
        # Each call: the failed check of sample 0, then every sample.
        assert sample_rng_calls == 2 * [0, *range(50)]

    @settings(max_examples=60, deadline=None)
    @given(
        profile=st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 9.0, math.nan]) | st.floats(0.0, 12.0),
                st.sampled_from([0.0, 2.5]) | st.floats(0.0, 10.0),
            ),
            min_size=1, max_size=12,
        ),
        fractions=st.sets(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=4),
        roll=st.sampled_from([0.0, -0.0, math.pi]) | st.floats(-7.0, 7.0),
        seed=st.integers(0, 2**64),
    )
    def test_zero_sigmas_draw_nothing(self, tube, tendon, geom, profile, fractions, roll, seed):
        # Over-actuated and NaN strokes give NaN rows; a -0.0 stroke's noisy value is +0.0.
        def no_draws(*args):
            raise AssertionError("a sweep with both sigmas 0 drew noise")

        markers = sorted({f * geom.na_length for f in fractions})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_noise_draws", no_draws)
            dataset = synthetic_sweep(geom, tendon, profile, markers, NoiseSpec(seed=seed), roll, tube)
        assert dataset.strokes_noisy.tobytes() == (dataset.strokes + 0.0).tobytes()
        for s in dataset.marker_arclengths:
            assert dataset.tracks_noisy[s].tobytes() == (dataset.tracks_true[s] + 0.0).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 2**32 - 1))
    def test_hash_and_pcg64_state_match_numpy(self, seed, index):
        words = simulation._seed_words(seed, np.array([index], dtype=np.uint32))[0]
        seq = np.random.SeedSequence([seed, index])
        assert np.array_equal(words, seq.generate_state(4, np.uint64))
        state = np.random.PCG64(seq).state["state"]
        seeded, inc = simulation._pcg64_seed(words[None])
        assert (simulation._as_ints(*seeded)[0], simulation._as_ints(*inc)[0]) == (state["state"], state["inc"])


@pytest.fixture()
def fresh_tables():
    """The ziggurat tables unbuilt before the test and dropped after it."""
    simulation._ziggurat_tables.cache_clear()
    yield simulation._ziggurat_tables
    simulation._ziggurat_tables.cache_clear()


class TestZigguratFastPath:
    """The sweep's vectorised PCG64 and ziggurat draws against one generator per sample."""

    @staticmethod
    def _reference(noise, n, width):
        return np.array([noise.sample_rng(i).standard_normal(width) for i in range(n)])

    @staticmethod
    def _fast_path(noise, n, width):
        """The draws of :func:`simulation._ziggurat_draws` and the rows it left to the per-row path."""
        words = simulation._seed_words(noise.seed, np.arange(n, dtype=np.uint32))
        state, inc = simulation._pcg64_seed(words)
        out = np.full((n, width), np.nan)
        return out, simulation._ziggurat_draws(out, state, inc)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(
            st.integers(1, 40),
            st.integers(simulation._TABLE_ROWS - 8, simulation._TABLE_ROWS + 8),
            st.integers(1, 3000),
        ),
        width=st.integers(1, 40),
    )
    def test_rows_match_sample_rng(self, seed, n, width):
        noise = NoiseSpec(seed=seed)
        reference = self._reference(noise, n, width)
        assert simulation._noise_draws(noise, n, width).tobytes() == reference.tobytes()
        # The fast path alone, without the first/last-row guard behind it.
        out, slow = self._fast_path(noise, n, width)
        fast = np.setdiff1d(np.arange(n), slow)
        assert out[fast].tobytes() == reference[fast].tobytes()

    def test_words_at_each_boundary(self):
        # Per layer and sign, the words with rabs = ki - 1 and ki, each crafted
        # as the first word of a stream with inc 1: the post-step state is the
        # word itself, so XSL-RR passes it through.
        wi, ki = simulation._ziggurat_tables()
        words = [
            layer | sign << 8 | rabs << 9
            for layer in range(256)
            for rabs in ([int(ki[layer]) - 1, int(ki[layer])] if ki[layer] else [1])
            for sign in (0, 1)
        ]
        states = [(w - 1) * simulation._PCG64_MULT_INV & simulation._MASK128 for w in words]
        limbs = np.array([divmod(state, 1 << 64) for state in states], np.uint64)
        ones = np.ones(len(words), np.uint64)
        out = np.empty((len(words), 1))
        slow = simulation._ziggurat_draws(out, (limbs[:, 0], limbs[:, 1]), (ones - 1, ones))
        bitgen = np.random.PCG64(0)
        generator = np.random.Generator(bitgen)
        for row, (word, state) in enumerate(zip(words, states)):
            pcg = {"state": state, "inc": 1}
            bitgen.state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
            x = generator.standard_normal()
            if bitgen.state["state"]["state"] == word:
                assert row not in slow
                assert out[row].tobytes() == np.float64(x).tobytes()
            else:
                assert row in slow

    def test_candidate_one_below_is_pinned(self, fresh_tables, monkeypatch):
        wi, ki = fresh_tables()
        layer, candidate = 100, simulation._ki_candidate
        monkeypatch.setattr(
            simulation,
            "_ki_candidate",
            lambda below, w: int(ki[layer]) - 1 if w == wi[layer] else candidate(below, w),
        )
        fresh_tables.cache_clear()
        assert np.array_equal(fresh_tables()[1], ki)

    # A candidate above ki would accept a rejected draw; one two below would
    # not, but then ki is not pinned either.
    @pytest.mark.parametrize("offset", [1, -2])
    def test_off_by_one_candidate_fails_its_probe(
        self, fresh_tables, monkeypatch, sample_rng_calls, offset
    ):
        wi, ki = fresh_tables()
        layer, candidate = 100, simulation._ki_candidate
        assert ki[layer] != 0
        noise, n, width = NoiseSpec(seed=99), simulation._TABLE_ROWS, 13
        _, slow = self._fast_path(noise, n, width)

        monkeypatch.setattr(
            simulation,
            "_ki_candidate",
            lambda below, w: int(ki[layer]) + offset if w == wi[layer] else candidate(below, w),
        )
        fresh_tables.cache_clear()
        wi_patched, ki_patched = fresh_tables()
        assert np.array_equal(wi_patched, wi)
        assert ki_patched[layer] == 0
        assert np.array_equal(np.delete(ki_patched, layer), np.delete(ki, layer))
        _, slow_patched = self._fast_path(noise, n, width)
        assert set(slow) < set(slow_patched)
        sample_rng_calls.clear()
        draws = simulation._noise_draws(noise, n, width)
        assert draws.tobytes() == self._reference(noise, n, width).tobytes()
        # The guard's two rows and the reference's n; no row fell back to sample_rng.
        assert sorted(sample_rng_calls) == sorted([0, n - 1, *range(n)])

    def test_small_sweep_builds_no_tables(self, fresh_tables, tube, tendon, geom):
        noise = NoiseSpec(position_sigma=0.1, stroke_sigma=0.1, seed=3)
        synthetic_sweep(geom, tendon, _profile(17), [10.0, 33.2], noise, 0.0, tube)
        simulation._noise_draws(noise, simulation._TABLE_ROWS - 1, 7)
        assert fresh_tables.cache_info().currsize == 0
        simulation._noise_draws(noise, simulation._TABLE_ROWS, 7)
        assert fresh_tables.cache_info().currsize == 1


class TestFtlRun:
    def test_endpoints_only_grid(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        tip, bodies = ftl_run(joint, geom, np.array([0.0, 1.0]))
        assert tip.points[0] == pytest.approx([0.0, 0.0, 0.0])
        full_tip = forward_kinematics(joint, geom, np.array([geom.na_length])).points[-1]
        assert tip.points[1] == pytest.approx(list(full_tip), abs=1e-12)
        assert len(bodies[0]) == 1
        assert bodies[1].s[-1] == pytest.approx(geom.na_length)

    def test_prefix_property(self, tendon, geom):
        joint = joint_from_actuation(3.0, 0.0, tendon, geom, roll=0.8)
        grid = default_eta_grid(11)[1:]  # skip 0 to have non-trivial bodies
        _, bodies = ftl_run(joint, geom, grid)
        final = bodies[-1]
        lookup = {float(s): p for s, p in zip(final.s, final.points)}
        for body in bodies[:-1]:
            for s, point in zip(body.s, body.points):
                if float(s) in lookup:
                    assert np.linalg.norm(point - lookup[float(s)]) < 1e-9

    @pytest.mark.parametrize(
        "grid",
        [
            [math.nan, 0.5, 1.0],
            [0.0, math.nan, 1.0],
            [0.0, 0.5, math.nan],
            [0.0, math.inf, 1.0],
            [0.0, -math.inf, 1.0],
            [math.inf, 0.5, 1.0],
        ],
    )
    def test_non_finite_grid_is_not_increasing(self, tendon, geom, grid):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        with pytest.raises(ValidationError, match="eta grid must be strictly increasing"):
            ftl_run(joint, geom, np.array(grid))

    @pytest.mark.parametrize("grid", [[math.nan], [-math.inf, 0.5], [0.0, math.inf]])
    def test_non_finite_grid_ends_are_out_of_range(self, tendon, geom, grid):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        with pytest.raises(DomainError, match=r"eta grid outside \[0, 1\]"):
            ftl_run(joint, geom, np.array(grid))

    def test_reversed_grid_same_geometry(self, tendon, geom):
        joint = joint_from_actuation(2.5, 0.0, tendon, geom)
        grid = default_eta_grid(21)
        tip_fwd, _ = ftl_run(joint, geom, grid)
        # retraction traverses the same states in the opposite order
        tip_rev_pts = tip_fwd.points[::-1]
        tip_rev = TipTrajectory(eta=grid, points=tip_rev_pts[::-1])
        assert np.array_equal(tip_rev.points, tip_fwd.points)

    def test_one_body_per_eta_step(self, tendon, geom):
        joint = joint_from_actuation(3.0, 0.0, tendon, geom, roll=0.4)
        for steps in (2, 7, 101, 1001):
            tip, bodies = ftl_run(joint, geom, default_eta_grid(steps))
            assert len(tip) == len(bodies) == steps

    def test_shared_rows_are_bit_identical_to_the_final_body(self, tendon, geom):
        joint = joint_from_actuation(3.0, 0.0, tendon, geom, roll=0.8)
        _, bodies = ftl_run(joint, geom, default_eta_grid(1001), body_samples=BODY_SAMPLES)
        final = bodies[-1]
        assert len(final) == BODY_SAMPLES
        master = np.linspace(0.0, geom.na_length, BODY_SAMPLES)
        for body in bodies:
            # Every row but the tip sits on the master grid.
            m = len(body) - 1
            assert np.array_equal(body.s[:m], master[:m])
            assert np.array_equal(body.points[:m], final.points[:m])

    def test_tip_rows_are_forward_kinematics_at_the_tip(self, tendon, geom):
        joint = joint_from_actuation(4.0, 0.0, tendon, geom, roll=2.0)
        grid = default_eta_grid(1001)
        s_tips = grid * geom.na_length
        tip, bodies = ftl_run(joint, geom, grid)
        at_tips = forward_kinematics(joint, geom, s_tips)
        master = forward_kinematics(joint, geom, backbone_samples(geom.na_length))
        lookup = {float(s): row for s, row in zip(master.s, master.points)}
        for k, body in enumerate(bodies):
            # The last sample is the tip, or a master sample within 1e-15 of it.
            assert body.s[-1] == pytest.approx(s_tips[k], rel=1e-15, abs=0.0)
            if body.s[-1] == s_tips[k]:
                assert np.array_equal(body.points[-1], at_tips.points[k])
            else:
                assert np.array_equal(body.points[-1], lookup[float(body.s[-1])])
            assert np.array_equal(tip.points[k], body.points[-1])

    def test_bodies_are_read_only(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        _, bodies = ftl_run(joint, geom, default_eta_grid(11))
        before = bodies[-1].points.copy()
        for body in (bodies[0], bodies[3], bodies[-1]):
            with pytest.raises(ValueError):
                body.points[0, 0] = 1.0
            with pytest.raises(ValueError):
                body.s[-1] = 0.0
        assert np.array_equal(bodies[-1].points, before)

    def test_two_turn_tube_prefix_and_fidelity(self, tube, tendon):
        tube2 = dataclasses.replace(tube, turn_count=2)
        geom2 = derive_geometry(tube2)
        joint = joint_from_actuation(1.5, 0.0, tendon, geom2, roll=0.7)
        assert joint.closure_residual(geom2) < 1e-12
        grid = default_eta_grid(201)
        tip, bodies = ftl_run(joint, geom2, grid)
        final = bodies[-1]
        for body in bodies:
            m = len(body) - 1
            assert np.array_equal(body.points[:m], final.points[:m])
        backbone = forward_kinematics(joint, geom2, grid * geom2.na_length)
        assert ftl_fidelity(tip, backbone).max_distance == 0.0
        # The tip trace stays on the imaginary cylinder at the centerline radius.
        point, direction = cylinder_axis(joint, geom2)
        distances = point_line_distance(tip.points, point, direction)
        bend_radius = joint.cylinder_radius - geom2.composite_na_offset
        assert np.allclose(distances, bend_radius, atol=1e-9)

    def test_grid_validation(self, geom, tendon):
        joint = joint_from_actuation(1.0, 0.0, tendon, geom)
        with pytest.raises(ValidationError):
            ftl_run(joint, geom, np.array([0.5, 0.2]))
        with pytest.raises(Exception):
            ftl_run(joint, geom, np.array([0.0, 1.4]))


class TestFtlFidelity:
    def test_model_run_is_exact(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom, roll=1.0)
        grid = default_eta_grid(101)
        tip, _ = ftl_run(joint, geom, grid)
        final = forward_kinematics(joint, geom, grid * geom.na_length)
        result = ftl_fidelity(tip, final)
        assert result.max_distance < 1e-9

    def test_roll_drift_breaks_fidelity_monotonically(self, tendon, geom):
        grid = default_eta_grid(51)
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        final = forward_kinematics(joint, geom, grid * geom.na_length)
        rmse_by_drift = []
        for drift in (0.01, 0.05, 0.1):
            tips = []
            for eta in grid:
                drifted = JointState(
                    joint.cylinder_radius,
                    joint.cylinder_height,
                    joint.deflection,
                    joint.roll + drift * eta,
                )
                tips.append(
                    forward_kinematics(
                        drifted, geom, np.array([eta * geom.na_length])
                    ).points[0]
                )
            result = ftl_fidelity(TipTrajectory(eta=grid, points=np.array(tips)), final)
            rmse_by_drift.append(result.rmse)
            profile = result.per_sample_distances
            assert profile[0] == pytest.approx(0.0, abs=1e-12)
            assert profile[-1] > 0.0
            assert np.all(np.diff(profile) > -1e-12)
        assert rmse_by_drift[0] < rmse_by_drift[1] < rmse_by_drift[2]

    def test_grid_mismatch_raises(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        grid = default_eta_grid(11)
        tip, _ = ftl_run(joint, geom, grid)
        wrong = forward_kinematics(joint, geom, default_eta_grid(21) * geom.na_length)
        with pytest.raises(GridMismatchError):
            ftl_fidelity(tip, wrong)

    @pytest.mark.parametrize("k", [0, 5, 10])
    @pytest.mark.parametrize("factor, inside", [(0.99, True), (1.01, False), (-0.99, True), (-1.01, False)])
    def test_grid_tolerance_is_allclose_at_its_default_rtol(self, k, factor, inside):
        eta = default_eta_grid(11)
        length = 64.0
        s = eta * length
        # np.allclose(s, eta * length, atol=1e-9 * length): atol + 1e-5 * |expected|
        s[k] += factor * (1e-9 * length + 1e-5 * s[k])
        points = np.column_stack([s, np.zeros(11), np.zeros(11)])
        tip = TipTrajectory(eta=eta, points=points)
        backbone = BackboneCurve(s=s, points=points)
        assert np.allclose(s, eta * length, atol=1e-9 * length) == inside
        if inside:
            assert ftl_fidelity(tip, backbone).max_distance == 0.0
        else:
            with pytest.raises(GridMismatchError, match=r"backbone samples do not match s = eta \* l_na"):
                ftl_fidelity(tip, backbone)


class TestPhantomClearance:
    @staticmethod
    def _straight_curve():
        s = np.linspace(0.0, 64.0, 65)
        return BackboneCurve(s=s, points=np.column_stack([s, np.zeros(65), np.zeros(65)]))

    def test_parallel_offset_axis(self):
        phantom = PhantomSpec(
            axis_point=np.array([0.0, 10.0, 0.0]),
            axis_direction=np.array([1.0, 0.0, 0.0]),
            radius=4.0,
        )
        clearance, collides = phantom_clearance(self._straight_curve(), phantom, 0.953)
        assert clearance == pytest.approx(10.0 - 4.0 - 0.953, rel=1e-12)
        assert not collides

    def test_surface_contact_costs_tube_radius(self):
        phantom = PhantomSpec(
            axis_point=np.array([0.0, 4.0, 0.0]),
            axis_direction=np.array([1.0, 0.0, 0.0]),
            radius=4.0,
        )
        clearance, collides = phantom_clearance(self._straight_curve(), phantom, 0.953)
        assert clearance == pytest.approx(-0.953, rel=1e-12)
        assert collides

    def test_zero_radius_line_obstacle(self):
        phantom = PhantomSpec(
            axis_point=np.array([0.0, 3.0, 4.0]),
            axis_direction=np.array([1.0, 0.0, 0.0]),
            radius=0.0,
        )
        clearance, collides = phantom_clearance(self._straight_curve(), phantom, 0.5)
        assert clearance == pytest.approx(5.0 - 0.5, rel=1e-12)
        assert not collides

    def test_matches_brute_force_distances(self, tendon, geom, rng):
        joint = joint_from_actuation(3.0, 0.0, tendon, geom, roll=0.5)
        curve = forward_kinematics(joint, geom)
        phantom = PhantomSpec(
            axis_point=rng.normal(size=3),
            axis_direction=np.array([0.0, 0.0, 1.0]),
            radius=2.0,
        )
        clearance, _ = phantom_clearance(curve, phantom, 0.953)
        expected = (
            np.min(point_line_distance(curve.points, phantom.axis_point, phantom.axis_direction))
            - 2.0
            - 0.953
        )
        assert clearance == pytest.approx(expected, rel=1e-12)

    def test_rigid_invariance(self, tendon, geom, rng):
        joint = joint_from_actuation(3.0, 0.0, tendon, geom)
        curve = forward_kinematics(joint, geom)
        phantom = phantom_on_cylinder_axis(joint, geom, 2.0)
        base, _ = phantom_clearance(curve, phantom, 0.953)
        for _ in range(5):
            rotation = random_rotation(rng)
            shift = rng.normal(scale=20.0, size=3)
            moved_curve = BackboneCurve(s=curve.s, points=curve.points @ rotation.T + shift)
            moved_phantom = PhantomSpec(
                axis_point=rotation @ phantom.axis_point + shift,
                axis_direction=rotation @ phantom.axis_direction,
                radius=phantom.radius,
            )
            moved, _ = phantom_clearance(moved_curve, moved_phantom, 0.953)
            assert moved == pytest.approx(base, abs=1e-9)

    def test_centerline_sits_at_constant_distance_from_cylinder_axis(self, tendon, geom):
        joint = joint_from_actuation(4.25, 0.0, tendon, geom, roll=0.9)
        curve = forward_kinematics(joint, geom)
        phantom = phantom_on_cylinder_axis(joint, geom, 4.0)
        distances = point_line_distance(curve.points, phantom.axis_point, phantom.axis_direction)
        bend_radius = joint.cylinder_radius - geom.composite_na_offset
        assert np.allclose(distances, bend_radius, atol=1e-9)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -0.1, "0.5", None, pytest.param(10**400, id="int-1e400")])
    def test_bad_tube_radius_rejected(self, radius):
        phantom = PhantomSpec(
            axis_point=np.array([0.0, 10.0, 0.0]),
            axis_direction=np.array([1.0, 0.0, 0.0]),
            radius=4.0,
        )
        with pytest.raises(ValidationError, match="tube_outer_radius must be finite and >= 0"):
            phantom_clearance(self._straight_curve(), phantom, radius)

    @pytest.mark.parametrize("radius", [np.float32(0.953), np.float64(0.953), 1])
    def test_tube_radius_is_taken_as_a_float(self, radius):
        # math.sqrt(2) - 0.3 - np.float32(0.1) would round the clearance to float32.
        phantom = PhantomSpec(np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.0, 0.0]), 0.3)
        clearance, collides = phantom_clearance(self._straight_curve(), phantom, radius)
        assert type(clearance) is float and type(collides) is bool
        assert clearance == math.sqrt(2.0) - 0.3 - float(radius)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValidationError):
            PhantomSpec(
                axis_point=np.zeros(3),
                axis_direction=np.array([1.0, 1.0, 0.0]),
                radius=1.0,
            )


class TestNoiseSpec:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(position_sigma=-0.1)

    @pytest.mark.parametrize("field", ["position_sigma", "stroke_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            NoiseSpec(**{field: value})

    @pytest.mark.parametrize("field", ["position_sigma", "stroke_sigma"])
    @pytest.mark.parametrize("value", ["0.1", None, True])
    def test_sigma_that_is_no_number_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"noise {field} must be finite and >= 0, got {value!r}"):
            NoiseSpec(**{field: value})

    @pytest.mark.parametrize("field", ["position_sigma", "stroke_sigma"])
    def test_sigma_past_the_float_range_rejected(self, field):
        with pytest.raises(ValidationError, match=f"noise {field} must be finite and >= 0"):
            NoiseSpec(**{field: 10**400})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            NoiseSpec(seed=seed)

    def test_numpy_integer_seed_is_stored_as_int(self):
        noise = NoiseSpec(seed=np.uint64(2**63))
        assert type(noise.seed) is int and noise.seed == 2**63

    @pytest.mark.parametrize("value", [np.float32(0.1), np.int64(1), 2])
    def test_sigmas_are_stored_as_float(self, value):
        noise = NoiseSpec(position_sigma=value, stroke_sigma=value)
        assert type(noise.position_sigma) is type(noise.stroke_sigma) is float
        assert noise.position_sigma == noise.stroke_sigma == float(value)

    def test_sample_streams_are_index_stable(self):
        noise = NoiseSpec(position_sigma=1.0, seed=5)
        draw_a = noise.sample_rng(7).standard_normal(4)
        draw_b = noise.sample_rng(7).standard_normal(4)
        draw_c = noise.sample_rng(8).standard_normal(4)
        assert np.array_equal(draw_a, draw_b)
        assert not np.array_equal(draw_a, draw_c)


class TestPhantomSpec:
    @staticmethod
    def _fields():
        return {
            "axis_point": np.array([1.0, 2.0, 3.0]),
            "axis_direction": np.array([0.0, 0.0, 1.0]),
            "radius": 2.0,
        }

    @pytest.mark.parametrize("field", ["axis_point", "axis_direction"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_rejected(self, field, value):
        fields = self._fields()
        fields[field][0] = value
        with pytest.raises(ValidationError, match="must be finite"):
            PhantomSpec(**fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "1", None, True, pytest.param(10**400, id="int-1e400")])
    def test_bad_radius_rejected(self, value):
        with pytest.raises(ValidationError, match="radius must be finite and >= 0"):
            PhantomSpec(**{**self._fields(), "radius": value})

    def test_keeps_read_only_float64_copies(self):
        fields = self._fields()
        phantom = PhantomSpec(**fields)
        for name in ("axis_point", "axis_direction"):
            stored = getattr(phantom, name)
            assert stored.dtype == np.float64
            assert not np.shares_memory(stored, fields[name])
            with pytest.raises(ValueError):
                stored[0] = 5.0
            fields[name][0] = 7.0  # the caller's array stays writeable
        assert np.array_equal(phantom.axis_point, [1.0, 2.0, 3.0])
        assert np.array_equal(phantom.axis_direction, [0.0, 0.0, 1.0])

    def test_lists_and_int_radius_are_converted(self):
        phantom = PhantomSpec(axis_point=[0, 1, 2], axis_direction=[0, 1, 0], radius=3)
        assert phantom.axis_point.dtype == np.float64
        assert type(phantom.radius) is float


def _bits(result):
    clearance, collides = result
    return clearance.hex(), collides


class TestAxisDistanceRows:
    """Each row of ``_axis_distance_sq`` depends on that row alone, on any BLAS."""

    @given(
        rows=st.integers(1, 300),
        scale=st.sampled_from([1e-3, 1.0, 1e3]) | st.floats(1e-3, 1e3),
        shift=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_alone_and_shifted(self, rows, scale, shift, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(scale=scale, size=(rows, 3))
        direction = rng.normal(size=3)
        phantom = PhantomSpec(
            rng.normal(scale=scale, size=3), direction / np.linalg.norm(direction), scale
        )
        batch = simulation._axis_distance_sq(points, phantom)
        padded = np.concatenate((rng.normal(scale=scale, size=(shift, 3)), points))
        assert simulation._axis_distance_sq(padded, phantom)[shift:].tobytes() == batch.tobytes()
        for i, row in enumerate(points):
            assert simulation._axis_distance_sq(row[None], phantom).tobytes() == batch[i : i + 1].tobytes()


class TestFtlBodyClearance:
    """Clearance of an ftl_run body equals that of a plain curve with its rows, bit for bit.

    The distance helper rounds each row alike at any position and row count
    (see ``TestAxisDistanceRows``), so this holds on any BLAS.
    """

    GRIDS = {
        "one": np.array([0.37]),
        "7": default_eta_grid(7),
        "101": default_eta_grid(101),
        "1001": default_eta_grid(1001),
        # Every tip lands on a master sample: arc length k * l_na / 128.
        "on_master": np.arange(BODY_SAMPLES) / (BODY_SAMPLES - 1),
    }

    @pytest.mark.parametrize("grid_name", list(GRIDS))
    @pytest.mark.parametrize("turn_count", [1, 2, 3])
    def test_bodies_match_plain_curves(self, tube, tendon, turn_count, grid_name):
        geom_n = derive_geometry(dataclasses.replace(tube, turn_count=turn_count))
        stroke = 0.6 * _max_stroke(geom_n)
        joint = joint_from_actuation(stroke, 0.0, tendon, geom_n, 0.8)
        grid = self.GRIDS[grid_name]
        _, bodies = ftl_run(joint, geom_n, grid, body_samples=BODY_SAMPLES)
        assert len(bodies) == grid.size

        master_s = backbone_samples(geom_n.na_length, BODY_SAMPLES)
        on_grid = sum(body.s[-1] in master_s for body in bodies)
        if grid_name == "on_master":
            assert on_grid == grid.size
        plain = []
        for body in bodies:
            assert not (body.s.flags.writeable or body.points.flags.writeable)
            plain.append(BackboneCurve(s=body.s.copy(), points=body.points.copy()))

        rng = np.random.default_rng(turn_count)
        direction = rng.normal(size=3)
        phantoms = [
            phantom_on_cylinder_axis(joint, geom_n, 4.0),
            PhantomSpec(rng.normal(scale=20.0, size=3), direction / np.linalg.norm(direction), 1.5),
        ]
        # Alternate the two phantoms over the same bodies, twice.
        for phantom in phantoms * 2:
            for body, curve in zip(bodies, plain):
                assert _bits(phantom_clearance(body, phantom, 0.953)) == _bits(
                    phantom_clearance(curve, phantom, 0.953)
                )

    def test_off_axis_phantoms_at_eta_zero(self, tendon, geom):
        # The one-row body at eta = 0 reads the shared pass and still rounds
        # like a one-row curve.
        joint = joint_from_actuation(3.0, 0.0, tendon, geom, 0.4)
        _, bodies = ftl_run(joint, geom, default_eta_grid(3))
        first = BackboneCurve(s=bodies[0].s.copy(), points=bodies[0].points.copy())
        rng = np.random.default_rng(5)
        for _ in range(200):
            direction = rng.normal(size=3)
            phantom = PhantomSpec(rng.normal(scale=10.0, size=3), direction / np.linalg.norm(direction), 1.0)
            assert _bits(phantom_clearance(bodies[0], phantom, 0.5)) == _bits(
                phantom_clearance(first, phantom, 0.5)
            )

    def test_forward_kinematics_runs_twice(self, tendon, geom, monkeypatch):
        samples = []
        fk = simulation.forward_kinematics

        def counting(joint, geom, s):
            samples.append(len(s))
            return fk(joint, geom, s)

        monkeypatch.setattr(simulation, "forward_kinematics", counting)
        joint = joint_from_actuation(4.25, 0.0, tendon, geom, 0.9)
        ftl_run(joint, geom, default_eta_grid(1001), body_samples=BODY_SAMPLES)
        assert samples == [BODY_SAMPLES, 1001]

    def test_distance_rows_per_phantom(self, tendon, geom, monkeypatch):
        rows = []
        helper = simulation._axis_distance_sq

        def counting(points, phantom):
            rows.append(len(points))
            return helper(points, phantom)

        monkeypatch.setattr(simulation, "_axis_distance_sq", counting)
        joint = joint_from_actuation(4.25, 0.0, tendon, geom, 0.9)
        phantom = phantom_on_cylinder_axis(joint, geom, 4.0)
        grid = default_eta_grid(1001)
        _, bodies = ftl_run(joint, geom, grid, body_samples=BODY_SAMPLES)
        assert sum(map(len, bodies)) == 65561
        for body in bodies:
            phantom_clearance(body, phantom, 0.953)
        # Every body, the one-row body at eta = 0 included, reads one pass
        # over the master rows and one tip row per body.
        assert rows == [BODY_SAMPLES + grid.size]
        rows.clear()
        for body in bodies[1:]:
            phantom_clearance(body, phantom, 0.953)
        assert rows == []

        _, bodies = ftl_run(joint, geom, grid[1:], body_samples=BODY_SAMPLES)
        for body in bodies:
            phantom_clearance(body, phantom, 0.953)
        assert rows == [BODY_SAMPLES + grid.size - 1]

    @pytest.mark.parametrize("turn_count", [1, 2, 3])
    def test_on_axis_clearance_closed_form(self, tube, tendon, turn_count):
        geom_n = derive_geometry(dataclasses.replace(tube, turn_count=turn_count))
        for fraction in (0.2, 0.6, 0.95):
            stroke = fraction * _max_stroke(geom_n)
            joint = joint_from_actuation(stroke, 0.0, tendon, geom_n, 0.4)
            phantom = phantom_on_cylinder_axis(joint, geom_n, 2.0)
            # R - y_na - r_phantom - r_outer
            expected = joint.cylinder_radius - geom_n.composite_na_offset - 2.0 - tube.outer_radius
            curve = forward_kinematics(joint, geom_n)
            _, bodies = ftl_run(joint, geom_n, default_eta_grid(51))
            for body in [curve, *bodies]:
                clearance, collides = phantom_clearance(body, phantom, tube.outer_radius)
                assert clearance == pytest.approx(expected, abs=1e-9)
                assert collides == (clearance < 0.0)


@st.composite
def _deployments(draw):
    """(grid, body samples, turn count, stroke fraction, roll) for one ftl_run.

    The grid is strictly increasing in [0, 1] with 1 to 1200 values: uniform
    draws, etas that land on master samples, and 0 and 1 when drawn.
    """
    body_samples = draw(st.integers(2, 300))
    size = draw(st.integers(1, 1198))
    on_master = draw(st.integers(0, size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ends = [end for end in (0.0, 1.0) if draw(st.booleans())]
    grid = np.unique(np.concatenate([
        rng.uniform(0.0, 1.0, size - on_master),
        rng.choice(np.linspace(0.0, 1.0, body_samples), on_master),
        ends,
    ]))
    fraction = draw(st.floats(0.0, 0.95))
    roll = draw(st.floats(0.0, 2.0 * math.pi))
    return grid, body_samples, draw(st.sampled_from([1, 2])), fraction, roll


class TestFtlGather:
    """Every body of ftl_run equals one built alone from the two FK curves, byte for byte."""

    @given(case=_deployments())
    @settings(max_examples=150, deadline=None)
    def test_bodies_match_the_per_body_oracle(self, tube, tendon, case):
        grid, body_samples, turn_count, fraction, roll = case
        geom_n = derive_geometry(dataclasses.replace(tube, turn_count=turn_count))
        joint = joint_from_actuation(fraction * _max_stroke(geom_n), 0.0, tendon, geom_n, roll)
        tip, bodies = ftl_run(joint, geom_n, grid, body_samples=body_samples)

        master = forward_kinematics(joint, geom_n, backbone_samples(geom_n.na_length, body_samples))
        tips = forward_kinematics(joint, geom_n, grid * geom_n.na_length)
        expected = ftl_bodies_one_by_one(master, tips)
        assert len(bodies) == len(expected) == grid.size
        for k, (body, (s, points)) in enumerate(zip(bodies, expected)):
            assert type(body) is BackboneCurve
            assert not (body.s.flags.writeable or body.points.flags.writeable)
            assert body.s.shape == s.shape and body.s.tobytes() == s.tobytes()
            assert body.points.shape == points.shape and body.points.tobytes() == points.tobytes()
            assert tip.points[k].tobytes() == body.points[-1].tobytes()
        # The first and last bodies are views of one buffer per array.
        assert bodies[0].s.base is bodies[-1].s.base is not None
        assert bodies[0].points.base is bodies[-1].points.base is not None

    def test_no_body_is_validated(self, tendon, geom, monkeypatch):
        checked, trusted = [], []
        check, make = kinematics._check_samples, BackboneCurve._trusted.__func__

        def counting_check(sampled, *args):
            checked.append(type(sampled))
            return check(sampled, *args)

        def counting_trusted(cls, s, points):
            trusted.append(len(s))
            return make(cls, s, points)

        monkeypatch.setattr(kinematics, "_check_samples", counting_check)
        monkeypatch.setattr(BackboneCurve, "_trusted", classmethod(counting_trusted))
        joint = joint_from_actuation(4.25, 0.0, tendon, geom, 0.9)
        _, bodies = ftl_run(joint, geom, default_eta_grid(1001), body_samples=BODY_SAMPLES)
        # The tip trace is checked once; both FK curves are trusted; no body is either.
        assert checked == [TipTrajectory]
        assert trusted == [BODY_SAMPLES, 1001]
        assert len(bodies) == 1001


@pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), True, "3"])
def test_grid_sizes_that_are_no_integer_are_rejected(tendon, geom, count):
    with pytest.raises(ValidationError, match="need an integer number of eta steps"):
        default_eta_grid(count)
    joint = joint_from_actuation(2.0, 0.0, tendon, geom)
    with pytest.raises(ValidationError, match="need an integer number of samples"):
        ftl_run(joint, geom, default_eta_grid(5), body_samples=count)


@pytest.mark.parametrize("count", [3, np.int64(3), np.uint16(3)])
def test_grid_sizes_take_python_and_numpy_integers(tendon, geom, count):
    assert default_eta_grid(count).tolist() == [0.0, 0.5, 1.0]
    joint = joint_from_actuation(2.0, 0.0, tendon, geom)
    _, bodies = ftl_run(joint, geom, np.array([1.0]), body_samples=count)
    assert bodies[0].s.tolist() == backbone_samples(geom.na_length, 3).tolist()


class TestLazyBodies:
    """ftl_run copies no body row until some body's s or points is first read, then all at once."""

    @pytest.fixture()
    def deployment(self, tendon, geom):
        # 257 eta steps on 129 master samples: every other tip lies on the master grid.
        joint = joint_from_actuation(4.25, 0.0, tendon, geom, 0.9)
        grid = default_eta_grid(257)
        master = forward_kinematics(joint, geom, backbone_samples(geom.na_length, BODY_SAMPLES))
        tips = forward_kinematics(joint, geom, grid * geom.na_length)
        expected = ftl_bodies_one_by_one(master, tips)
        _, bodies = ftl_run(joint, geom, grid, body_samples=BODY_SAMPLES)
        phantom = phantom_on_cylinder_axis(joint, geom, 4.0)
        return bodies, expected, phantom

    @pytest.fixture()
    def gathers(self, monkeypatch):
        calls, gather = [], simulation._Deployment.gather
        monkeypatch.setattr(simulation._Deployment, "gather", lambda dep: calls.append(dep) or gather(dep))
        return calls

    @staticmethod
    def _assert_bytes(curve, s, points):
        assert curve.s.tobytes() == s.tobytes() and curve.points.tobytes() == points.tobytes()
        assert curve.s.shape == s.shape and curve.points.shape == points.shape

    def test_clearance_and_len_do_not_gather(self, deployment, gathers, tube):
        bodies, expected, phantom = deployment
        cleared = [phantom_clearance(body, phantom, tube.outer_radius) for body in bodies]
        assert [len(body) for body in bodies] == [s.size for s, _ in expected]
        assert gathers == [] and all("s" not in vars(body) for body in bodies)
        for result, (s, points) in zip(cleared, expected):
            assert _bits(result) == _bits(phantom_clearance(BackboneCurve(s, points), phantom, tube.outer_radius))

    def test_first_read_gathers_every_body_once(self, deployment, gathers):
        bodies, expected, _ = deployment
        bodies[100].points
        assert len(gathers) == 1 and {"s", "points"} <= vars(bodies[100]).keys()
        assert [k for k, body in enumerate(bodies) if {"s", "points"} & vars(body).keys()] == [100]
        for body, (s, points) in zip(bodies, expected):
            self._assert_bytes(body, s, points)
            body.tip, body.chord_length()
        assert len(gathers) == 1

    @pytest.mark.parametrize("order", ["reversed", "points first"])
    def test_read_order_does_not_change_the_bytes(self, deployment, order):
        bodies, expected, _ = deployment
        pairs = list(zip(bodies, expected))
        if order == "reversed":
            pairs.reverse()
            for body, _ in pairs:
                body.s
        else:
            for body, _ in pairs:
                body.points
        for body, (s, points) in pairs:
            self._assert_bytes(body, s, points)
            assert not (body.s.flags.writeable or body.points.flags.writeable)

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize(
        "duplicate",
        [
            copy.copy,
            copy.deepcopy,
            lambda body: pickle.loads(pickle.dumps(body)),
            dataclasses.replace,
        ],
        ids=["copy", "deepcopy", "pickle", "replace"],
    )
    def test_copies_are_plain_curves_with_the_same_rows(self, deployment, tube, read_first, duplicate):
        bodies, expected, phantom = deployment
        body, (s, points) = bodies[-2], expected[-2]
        if read_first:
            body.s
        twin = duplicate(body)
        assert type(twin) is BackboneCurve and twin._ftl is None
        self._assert_bytes(twin, s, points)
        self._assert_bytes(body, s, points)
        assert len(twin) == len(body) == s.size
        assert phantom_clearance(twin, phantom, tube.outer_radius) == phantom_clearance(
            body, phantom, tube.outer_radius
        )

    @pytest.mark.parametrize("read_first", [False, True])
    def test_repr_is_a_plain_curves(self, deployment, read_first):
        bodies, expected, _ = deployment
        if read_first:
            bodies[7].points
        assert repr(bodies[7]) == repr(BackboneCurve(*expected[7]))

    def test_missing_attributes_raise_the_standard_error(self, deployment, tendon, geom):
        bodies, _, _ = deployment
        curve = forward_kinematics(joint_from_actuation(0.0, 0.0, tendon, geom), geom)
        for target in (curve, bodies[3]):
            with pytest.raises(AttributeError) as caught:
                getattr(target, "x")
            assert str(caught.value) == "'BackboneCurve' object has no attribute 'x'"
            assert caught.value.name == "x" and caught.value.obj is target
            assert getattr(target, "x", None) is None and not hasattr(target, "__setstate__")
        assert "s" not in vars(bodies[3])

    def test_the_deployment_refers_to_no_body(self, deployment):
        bodies, _, _ = deployment
        assert all(weakref.getweakrefcount(body) == 0 for body in bodies)
        bodies[-1].points
        assert all(weakref.getweakrefcount(body) == 0 for body in bodies)

    def test_a_body_reads_its_rows_after_its_siblings_are_dropped(self, deployment):
        bodies, expected, _ = deployment
        body, (s, points), sibling = bodies[40], expected[40], weakref.ref(bodies[41])
        del bodies[:]
        assert sibling() is None
        self._assert_bytes(body, s, points)

    def test_the_class_reads_like_a_plain_dataclass(self):
        assert BackboneCurve.s is vars(BackboneCurve)["s"] and BackboneCurve.points is vars(BackboneCurve)["points"]
        assert "class BackboneCurve" in pydoc.render_doc(BackboneCurve)
        assert [(f.name, f.default) for f in dataclasses.fields(BackboneCurve)] == [
            ("s", dataclasses.MISSING),
            ("points", dataclasses.MISSING),
        ]
        with pytest.raises(TypeError, match="missing 2 required positional arguments: 's' and 'points'"):
            BackboneCurve()

    @pytest.mark.parametrize("read_first", [False, True])
    def test_dropping_the_bodies_frees_the_deployment(self, tendon, geom, read_first):
        joint = joint_from_actuation(4.25, 0.0, tendon, geom, 0.9)
        _, bodies = ftl_run(joint, geom, default_eta_grid(257), body_samples=BODY_SAMPLES)
        if read_first:
            bodies[0].s
        shared = weakref.ref(bodies[0]._ftl[0])
        # No reference cycle either: the deployment goes with its last body,
        # before any collection could find it.
        gc.disable()
        try:
            del bodies
            assert shared() is None
        finally:
            gc.enable()


class TestTurnCountCheck:
    def test_ftl_run_checks_turn_count(self, tube, tendon):
        geom2 = derive_geometry(dataclasses.replace(tube, turn_count=2))
        joint = joint_from_actuation(1.5, 0.0, tendon, geom2)
        grid = default_eta_grid(11)
        tip, _ = ftl_run(joint, geom2, grid)
        assert np.array_equal(ftl_run(joint, geom2, grid, 2, BODY_SAMPLES)[0].points, tip.points)
        with pytest.raises(ValidationError):
            ftl_run(joint, geom2, grid, 1)

    def test_sweep_rejects_a_tube_of_another_turn_count(self, tube, tendon, geom):
        tube2 = dataclasses.replace(tube, turn_count=2)
        with pytest.raises(ValidationError, match="turn count 2 differs from the geometry's 1"):
            synthetic_sweep(geom, tendon, _profile(), [33.2], NoiseSpec(), 0.0, tube2)


def _flip_last_bit(array: np.ndarray) -> np.ndarray:
    """A float64 copy of ``array`` with the lowest bit of its last element flipped."""
    flipped = np.array(array, dtype=float)
    flipped.reshape(-1).view(np.uint64)[-1] ^= np.uint64(1)
    return flipped


class TestRecordEquality:
    """Records holding arrays compare and hash by value, each array by its shape, dtype and bytes."""

    @pytest.fixture()
    def records(self, tendon, geom):
        joint = joint_from_actuation(3.0, 0.0, tendon, geom, 0.4)

        def build():
            tip, _ = ftl_run(joint, geom, default_eta_grid(11))
            return forward_kinematics(joint, geom), tip, phantom_on_cylinder_axis(joint, geom, 4.0)

        return build(), build()

    def test_equal_records_compare_and_hash_equal(self, records):
        for one, two in zip(*records):
            assert one is not two and one == two and hash(one) == hash(two)
            assert {one, two} == {one} and len({one, two}) == 1

    def test_one_flipped_bit_makes_records_unequal(self, records):
        curve, tip, phantom = records[0]
        flipped = [
            BackboneCurve(curve.s, _flip_last_bit(curve.points)),
            TipTrajectory(_flip_last_bit(tip.eta), tip.points),
            PhantomSpec(phantom.axis_point, _flip_last_bit(phantom.axis_direction), phantom.radius),
        ]
        for record, other in zip(records[0], flipped):
            assert record != other and not record == other and len({record, other}) == 2
        assert curve != TipTrajectory(curve.s, curve.points) and curve != "curve"

    def test_lazy_body_equals_a_plain_curve_over_its_rows(self, tendon, geom, monkeypatch):
        calls, gather = [], simulation._Deployment.gather
        monkeypatch.setattr(simulation._Deployment, "gather", lambda dep: calls.append(dep) or gather(dep))
        joint = joint_from_actuation(4.25, 0.0, tendon, geom, 0.9)
        grid = default_eta_grid(21)
        master = forward_kinematics(joint, geom, backbone_samples(geom.na_length, BODY_SAMPLES))
        expected = ftl_bodies_one_by_one(master, forward_kinematics(joint, geom, grid * geom.na_length))
        _, bodies = ftl_run(joint, geom, grid, body_samples=BODY_SAMPLES)
        for body, (s, points) in zip(bodies, expected):
            plain = BackboneCurve(s, points)
            assert body == plain and plain == body and hash(body) == hash(plain)
        assert len(calls) == 1
        assert bodies[-1] == master and bodies[0] != master

    def test_estimate_results_compare_and_hash_by_value(self, tendon, geom):
        log = [(0.0, 0.0), (9.5, 0.0), (2.0, 0.0)]
        one, two = (stroke_based_estimate(log, geom, tendon, 0.4) for _ in range(2))
        assert one is not two and one == two and hash(one) == hash(two)
        assert {one, two} == {one} and len({one, two}) == 1
        (index, message), = one.failures
        flipped = message[:-1] + chr(ord(message[-1]) ^ 1)
        others = [
            stroke_based_estimate(log, geom, tendon, 0.5),
            dataclasses.replace(one, failures=((index, flipped),)),
        ]
        for other in others:
            assert one != other and not one == other and len({one, other}) == 2
        assert one != "result" and not one == "result"

    def test_datasets_compare_by_identity(self, tube, tendon, geom):
        def sweep():
            return synthetic_sweep(geom, tendon, [(0.0, 0.0), (1.0, 0.0)], [20.0, 40.0], NoiseSpec(), 0.0, tube)

        ds = sweep()
        assert ds == ds and hash(ds) == hash(ds) and ds != sweep()
