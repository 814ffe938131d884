import dataclasses
import math

import numpy as np
import pytest

from helikin.errors import GridMismatchError, ValidationError
from helikin.geometry import derive_geometry
from helikin.estimation import position_based_estimate, rmse, stroke_based_estimate
from helikin.kinematics import (
    BackboneCurve,
    JointState,
    TipTrajectory,
    backbone_samples,
    cylinder_axis,
    forward_kinematics,
    joint_from_actuation,
    rot_x,
    rot_y,
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
        joint = joint_from_actuation(1.5, 0.0, tendon, geom2, roll=0.7, turn_count=2)
        assert joint.closure_residual(geom2, turn_count=2) < 1e-12
        grid = default_eta_grid(201)
        tip, bodies = ftl_run(joint, geom2, grid, turn_count=2)
        final = bodies[-1]
        for body in bodies:
            m = len(body) - 1
            assert np.array_equal(body.points[:m], final.points[:m])
        backbone = forward_kinematics(joint, geom2, grid * geom2.na_length, turn_count=2)
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
            rotation = rot_x(rng.uniform(-math.pi, math.pi)) @ rot_y(
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

    def test_sample_streams_are_index_stable(self):
        noise = NoiseSpec(position_sigma=1.0, seed=5)
        draw_a = noise.sample_rng(7).standard_normal(4)
        draw_b = noise.sample_rng(7).standard_normal(4)
        draw_c = noise.sample_rng(8).standard_normal(4)
        assert np.array_equal(draw_a, draw_b)
        assert not np.array_equal(draw_a, draw_c)
