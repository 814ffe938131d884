import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helikin.errors import DomainError, GridMismatchError, ValidationError
from helikin.estimation import (
    Method,
    compare_point_sequences,
    max_euclidean_distance,
    position_based_estimate,
    repeatability_compare,
    rmse,
    stroke_based_estimate,
)
from helikin.geometry import derive_geometry
from helikin.kinematics import (
    TipTrajectory,
    forward_kinematics,
    joint_from_actuation,
    tendon_length_from_cylinder,
)

R_AT_2MM = 3.138983758103423
H_AT_2MM = 60.95298822973639
PHI_AT_2MM = 0.2696983773706072


def _joints_from_radii(radii, geom):
    """Ground-truth joints built from Eq.-closure, not from strokes."""
    joints = []
    for radius in radii:
        height = math.sqrt(geom.na_length**2 - (2.0 * math.pi * radius) ** 2)
        phi = math.atan2(2.0 * math.pi * (radius - geom.composite_na_offset), height)
        joints.append((radius, height, phi))
    return joints


class TestStrokeBasedEstimate:
    def test_round_trip_from_synthesized_strokes(self, tendon, geom):
        # generate strokes backwards from known cylinder states, then
        # check the estimator reproduces those states
        truth = _joints_from_radii(np.linspace(0.6, 9.0, 25), geom)
        profile = []
        for radius, height, _ in truth:
            tendon_length = tendon_length_from_cylinder(radius, height, geom)
            profile.append((geom.slack_tendon_length - tendon_length, 0.0))
        result = stroke_based_estimate(profile, geom, tendon, roll=0.25)
        assert result.method is Method.STROKE_BASED
        assert not result.failures
        for joint, (radius, height, phi) in zip(result.joint_series, truth):
            assert joint.cylinder_radius == pytest.approx(radius, abs=1e-9)
            assert joint.cylinder_height == pytest.approx(height, abs=1e-9)
            assert joint.deflection == pytest.approx(phi, abs=1e-9)
            assert joint.roll == 0.25

    def test_rest_sample(self, tube, tendon, geom):
        result = stroke_based_estimate([(0.0, 0.0)], geom, tendon, roll=0.0)
        joint = result.joint_series[0]
        assert joint.cylinder_radius == pytest.approx(geom.composite_na_offset, rel=1e-9)
        assert joint.cylinder_height == pytest.approx(tube.patterned_length, rel=1e-9)
        assert abs(joint.deflection) < 1e-12

    def test_reference_two_mm_sample(self, tendon, geom):
        result = stroke_based_estimate([(2.0, 0.0)], geom, tendon, roll=0.0)
        joint = result.joint_series[0]
        assert joint.cylinder_radius == pytest.approx(R_AT_2MM, rel=1e-12)
        assert joint.cylinder_height == pytest.approx(H_AT_2MM, rel=1e-12)
        assert joint.deflection == pytest.approx(PHI_AT_2MM, rel=1e-12)

    def test_batch_survives_bad_samples(self, tendon, geom):
        result = stroke_based_estimate(
            [(0.0, 0.0), (9.5, 0.0), (2.0, 0.0)], geom, tendon, roll=0.0
        )
        assert result.joint_series[1] is None
        assert math.isnan(result.per_sample_phi[1])
        assert result.ok_count == 2
        assert result.failures[0][0] == 1
        assert "over-actuated" in result.failures[0][1]

    def test_failures_carry_the_scalar_messages(self, tendon, geom):
        # ints stay ints in the messages, as a per-sample loop reports them
        actuation = [(9, 0), (1.0, math.nan), (-1, 0.0), (2.0, 0.0), (math.inf, 0.0)]
        result = stroke_based_estimate(iter(actuation), geom, tendon, roll=0.1)
        expected = []
        for i, (stroke, tension) in enumerate(actuation):
            try:
                joint_from_actuation(stroke, tension, tendon, geom)
            except DomainError as exc:
                expected.append((i, str(exc)))
        assert list(result.failures) == expected
        assert [j is None for j in result.joint_series] == [True, True, True, False, True]
        assert result.per_sample_phi[3] == result.joint_series[3].deflection

    def test_empty_log(self, tendon, geom):
        result = stroke_based_estimate([], geom, tendon, roll=0.0)
        assert result.joint_series == () and result.failures == ()


class TestPositionBasedEstimate:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tip_rejected(self, geom, bad):
        with pytest.raises(DomainError, match="non-finite"):
            position_based_estimate(np.array([60.0, bad, 0.0]), geom)

    def test_straight_tube_tip(self, tube, geom):
        estimate = position_based_estimate(np.array([64.0, 0.0, 0.0]), geom)
        assert estimate.cylinder_height == pytest.approx(64.0)
        assert estimate.phi_truth == pytest.approx(0.0, abs=1e-12)
        assert estimate.cylinder_radius == pytest.approx(geom.composite_na_offset, rel=1e-9)
        assert estimate.phi_model == pytest.approx(0.0, abs=1e-9)

    def test_tip_at_na_length_pins_zero_radius(self, geom):
        # the largest admissible tip norm corresponds to R = 0; the model
        # deflection then reflects the neutral-axis offset, not zero
        estimate = position_based_estimate(np.array([geom.na_length, 0.0, 0.0]), geom)
        assert estimate.cylinder_height == pytest.approx(geom.na_length)
        assert estimate.phi_truth == 0.0
        assert estimate.cylinder_radius == pytest.approx(0.0, abs=1e-9)
        expected = math.atan2(
            -2.0 * math.pi * geom.composite_na_offset, geom.na_length
        )
        assert estimate.phi_model == pytest.approx(expected, rel=1e-12)

    def test_round_trip_from_forward_kinematics(self, tendon, geom):
        for stroke in np.linspace(0.3, 6.5, 17):
            for roll in (0.0, 1.1, -2.3):
                joint = joint_from_actuation(float(stroke), 0.0, tendon, geom, roll=roll)
                tip = forward_kinematics(joint, geom, np.array([geom.na_length])).points[-1]
                estimate = position_based_estimate(tip, geom)
                assert estimate.cylinder_height == pytest.approx(
                    joint.cylinder_height, abs=1e-9
                )
                assert estimate.phi_truth == pytest.approx(joint.deflection, abs=1e-9)
                assert estimate.cylinder_radius == pytest.approx(
                    joint.cylinder_radius, abs=1e-9
                )
                assert estimate.phi_model == pytest.approx(joint.deflection, abs=1e-9)

    def test_model_consistent_tip_closes(self, geom):
        height, phi = H_AT_2MM, PHI_AT_2MM
        for roll in (0.0, 0.8, 2.9):
            tip = np.array(
                [
                    height * math.cos(phi),
                    height * math.sin(phi) * math.cos(roll),
                    height * math.sin(phi) * math.sin(roll),
                ]
            )
            estimate = position_based_estimate(tip, geom)
            assert estimate.cylinder_height == pytest.approx(height, rel=1e-12)
            assert estimate.phi_truth == pytest.approx(phi, abs=1e-12)
            assert estimate.cylinder_radius == pytest.approx(R_AT_2MM, abs=1e-9)
            assert estimate.phi_model == pytest.approx(phi, abs=1e-9)

    def test_mismatch_grows_with_perturbation(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        tip = forward_kinematics(joint, geom, np.array([geom.na_length])).points[-1]
        gaps = []
        for scale in (0.0, 0.5, 1.0, 2.0):
            estimate = position_based_estimate(tip + np.array([0.0, scale, 0.0]), geom)
            gaps.append(abs(estimate.phi_model - estimate.phi_truth))
        assert gaps[0] < 1e-9
        assert gaps == sorted(gaps)

    def test_rejects_out_of_reach_tips(self, geom):
        with pytest.raises(DomainError):
            position_based_estimate(np.array([geom.na_length + 1.0, 0.0, 0.0]), geom)
        with pytest.raises(DomainError):
            position_based_estimate(np.zeros(3), geom)


class TestMetrics:
    def test_identical_sequences(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        assert max_euclidean_distance(points, points) == 0.0
        assert rmse(points, points) == 0.0

    def test_pythagorean_pair(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[3.0, 4.0, 0.0]])
        assert max_euclidean_distance(a, b) == 5.0
        assert rmse(a, b) == 5.0

    def test_two_sample_case(self):
        # brute force: distances are 1 and 2
        a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
        assert max_euclidean_distance(a, b) == 2.0
        assert rmse(a, b) == pytest.approx(math.sqrt(2.5))

    def test_hand_distance_pair_rmse(self):
        # per-sample distances 3 and 4 -> sqrt((9 + 16) / 2)
        a = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        b = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        assert rmse(a, b) == pytest.approx(math.sqrt(12.5))
        assert max_euclidean_distance(a, b) == 4.0

    def test_length_mismatch_raises(self):
        with pytest.raises(GridMismatchError):
            max_euclidean_distance(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(GridMismatchError):
            rmse(np.zeros((0, 3)), np.zeros((0, 3)))

    @given(
        data=st.lists(
            st.tuples(
                st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
                st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, data):
        a = np.array([row[:3] for row in data])
        b = np.array([row[3:] for row in data])
        d_max = max_euclidean_distance(a, b)
        root = rmse(a, b)
        assert d_max >= 0.0 and root >= 0.0
        assert root <= d_max + 1e-12
        assert max_euclidean_distance(b, a) == d_max
        assert rmse(b, a) == root
        if np.array_equal(a, b):
            assert d_max == 0.0
        elif d_max == 0.0:
            assert np.allclose(a, b)

    @given(scale=st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_metrics_scale_linearly(self, scale):
        a = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0], [5.0, 5.0, 5.0]])
        b = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [4.0, 6.0, 5.0]])
        assert max_euclidean_distance(scale * a, scale * b) == pytest.approx(
            scale * max_euclidean_distance(a, b), rel=1e-12, abs=1e-12
        )
        assert rmse(scale * a, scale * b) == pytest.approx(
            scale * rmse(a, b), rel=1e-12, abs=1e-12
        )


class TestRepeatabilityCompare:
    @staticmethod
    def _linear_trajectory(eta):
        eta = np.asarray(eta, dtype=float)
        points = np.column_stack([60.0 * eta, 5.0 * eta, -2.0 * eta])
        return TipTrajectory(eta=eta, points=points)

    def test_identical_trials(self):
        trial = self._linear_trajectory(np.linspace(0.0, 1.0, 21))
        result = repeatability_compare(trial, trial)
        assert result.max_distance == 0.0
        assert result.rmse == 0.0
        assert result.n_samples == 21

    def test_constant_offset(self):
        eta = np.linspace(0.0, 1.0, 21)
        trial = self._linear_trajectory(eta)
        shifted = TipTrajectory(eta=eta, points=trial.points + np.array([0.0, 0.0, 1.0]))
        result = repeatability_compare(trial, shifted)
        assert result.max_distance == pytest.approx(1.0)
        assert result.rmse == pytest.approx(1.0)

    def test_resampling_is_exact_for_linear_trajectories(self):
        trial_a = self._linear_trajectory(np.linspace(0.0, 1.0, 11))
        trial_b = self._linear_trajectory(np.linspace(0.05, 0.95, 31))
        result = repeatability_compare(trial_a, trial_b)
        assert result.max_distance < 1e-12

    def test_symmetry_with_mismatched_grids(self):
        rng = np.random.default_rng(7)
        eta_a = np.linspace(0.0, 1.0, 13)
        eta_b = np.linspace(0.1, 0.9, 9)
        trial_a = TipTrajectory(eta=eta_a, points=rng.normal(size=(13, 3)))
        trial_b = TipTrajectory(eta=eta_b, points=rng.normal(size=(9, 3)))
        ab = repeatability_compare(trial_a, trial_b)
        ba = repeatability_compare(trial_b, trial_a)
        assert ab.max_distance == ba.max_distance
        assert ab.rmse == ba.rmse

    def test_disjoint_ranges_raise(self):
        trial_a = self._linear_trajectory(np.linspace(0.0, 0.4, 5))
        trial_b = self._linear_trajectory(np.linspace(0.6, 1.0, 5))
        with pytest.raises(GridMismatchError):
            repeatability_compare(trial_a, trial_b)

    def test_noisy_trials_match_monte_carlo_band(self):
        # Oracle: rmse between two trials with i.i.d. per-axis N(0, sigma^2)
        # noise concentrates at sqrt(6) sigma. Estimate mean and spread by
        # Monte-Carlo, then check one pipeline draw falls inside the band.
        sigma = 0.5
        n_pts = 101
        oracle_rng = np.random.default_rng(123)
        samples = np.empty(10_000)
        for k in range(samples.size):
            diff = oracle_rng.normal(scale=sigma, size=(n_pts, 3)) - oracle_rng.normal(
                scale=sigma, size=(n_pts, 3)
            )
            samples[k] = np.sqrt(np.mean(np.sum(diff**2, axis=1)))
        mc_mean, mc_std = samples.mean(), samples.std()
        assert mc_mean == pytest.approx(math.sqrt(6.0) * sigma, rel=0.02)

        eta = np.linspace(0.0, 1.0, n_pts)
        base = self._linear_trajectory(eta).points
        trial_rng = np.random.default_rng(99)
        trial_a = TipTrajectory(eta=eta, points=base + trial_rng.normal(scale=sigma, size=base.shape))
        trial_b = TipTrajectory(eta=eta, points=base + trial_rng.normal(scale=sigma, size=base.shape))
        result = repeatability_compare(trial_a, trial_b)
        assert abs(result.rmse - mc_mean) < 5.0 * mc_std


def test_compare_point_sequences_profile():
    a = np.zeros((3, 3))
    b = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    result = compare_point_sequences(a, b)
    assert result.per_sample_distances == pytest.approx([1.0, 2.0, 2.0])
    assert result.max_distance == 2.0
    assert result.rmse == pytest.approx(math.sqrt(3.0))


def test_estimators_read_the_turn_count_from_the_geometry(tube, tendon):
    geom2 = derive_geometry(dataclasses.replace(tube, turn_count=2))
    joint = joint_from_actuation(1.5, 0.0, tendon, geom2)
    result = stroke_based_estimate([(1.5, 0.0)], geom2, tendon, 0.0)
    assert result.joint_series[0] == joint
    assert stroke_based_estimate([(1.5, 0.0)], geom2, tendon, 0.0, 2) == result
    tip = forward_kinematics(joint, geom2, [geom2.na_length]).points[-1]
    estimate = position_based_estimate(tip, geom2)
    assert estimate.cylinder_radius == pytest.approx(joint.cylinder_radius, rel=1e-9)
    assert position_based_estimate(tip, geom2, 2) == estimate
    with pytest.raises(ValidationError):
        stroke_based_estimate([(1.5, 0.0)], geom2, tendon, 0.0, 1)
    with pytest.raises(ValidationError):
        position_based_estimate(tip, geom2, 1)
