import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helikin import simulation
from helikin.errors import DomainError, GridMismatchError, ValidationError
from helikin.geometry import derive_geometry
from helikin.estimation import position_based_estimate, rmse, stroke_based_estimate
from helikin.kinematics import (
    BackboneCurve,
    JointState,
    TipTrajectory,
    backbone_samples,
    cylinder_axis,
    forward_kinematics,
    _rot_x,
    _rot_y,
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

from .oracles import point_line_distance

BODY_SAMPLES = 129


def _profile(n=9, max_stroke=4.0, tension=0.0):
    return [(float(v), tension) for v in np.linspace(0.0, max_stroke, n)]


class TestSyntheticSweep:
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
    @pytest.mark.parametrize("turn_count", [1, 2, 3])
    def test_rows_match_scalar_kinematics(self, tube, tendon, turn_count):
        tube_n = dataclasses.replace(tube, turn_count=turn_count)
        geom_n = derive_geometry(tube_n)
        rng = np.random.default_rng(turn_count)
        strokes = rng.uniform(0.0, 1.05 * _max_stroke(geom_n), 120)
        tensions = rng.uniform(0.0, 10.0, 120)
        markers = [geom_n.na_length, 10.0, 33.2, 0.0]
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
            s = np.array(dataset.marker_arclengths)
            points = forward_kinematics(scalar, geom_n, s).points
            tip = forward_kinematics(scalar, geom_n, s[-1:]).points[0]
            rows = np.array([dataset.tracks_true[s_k][i] for s_k in s])
            assert np.abs(rows - points).max() <= 1e-12
            assert np.abs(dataset.tips_true[i] - tip).max() <= 1e-12

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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 2**32 - 1))
    def test_hash_and_pcg64_state_match_numpy(self, seed, index):
        words = simulation._seed_words(seed, np.array([index], dtype=np.uint32))[0]
        seq = np.random.SeedSequence([seed, index])
        assert np.array_equal(words, seq.generate_state(4, np.uint64))
        state = np.random.PCG64(seq).state["state"]
        assert simulation._pcg64_state(*words.tolist()) == (state["state"], state["inc"])


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
            rotation = _rot_x(rng.uniform(-math.pi, math.pi)) @ _rot_y(
                rng.uniform(-math.pi, math.pi)
            )
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

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -0.1])
    def test_bad_tube_radius_rejected(self, radius):
        phantom = PhantomSpec(
            axis_point=np.array([0.0, 10.0, 0.0]),
            axis_direction=np.array([1.0, 0.0, 0.0]),
            radius=4.0,
        )
        with pytest.raises(ValidationError, match="tube_outer_radius must be finite and >= 0"):
            phantom_clearance(self._straight_curve(), phantom, radius)

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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            NoiseSpec(seed=seed)

    def test_numpy_integer_seed_is_stored_as_int(self):
        noise = NoiseSpec(seed=np.uint64(2**63))
        assert type(noise.seed) is int and noise.seed == 2**63

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
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


class TestFtlBodyClearance:
    """Clearance of an ftl_run body equals that of a plain curve with its rows, bit for bit.

    The equality assumes numpy's matrix-vector product rounds each row alike
    whatever its position and the row count, as the OpenBLAS gemv kernels of
    numpy 2.4.6 on x86-64 do; on a BLAS whose leftover-row kernel rounds
    apart these tests would fail by about one ulp on correct results.
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
        # The one-row body at eta = 0 rounds like a one-row curve.
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
        # The one-row body at eta = 0 is scanned on its own; every other body
        # reads one pass over the master rows and one tip row per body.
        assert rows == [1, BODY_SAMPLES + grid.size]
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
