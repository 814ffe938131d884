import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helikin import estimation, kinematics
from helikin.errors import DomainError, GridMismatchError, ValidationError
from helikin.estimation import (
    PositionEstimate,
    TrajectoryComparison,
    compare_point_sequences,
    max_euclidean_distance,
    position_based_estimate,
    repeatability_compare,
    rmse,
    stroke_based_estimate,
)
from helikin.geometry import derive_geometry
from helikin.kinematics import (
    JointState,
    TipTrajectory,
    backbone_samples,
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
    @pytest.mark.parametrize("roll", [math.nan, math.inf])
    def test_non_finite_roll_rejected(self, tendon, geom, roll):
        with pytest.raises(ValidationError, match="roll angle theta must be finite"):
            stroke_based_estimate([(1.0, 0.0), (2.0, 0.0)], geom, tendon, roll)

    def test_round_trip_from_synthesized_strokes(self, tendon, geom):
        # generate strokes backwards from known cylinder states, then
        # check the estimator reproduces those states
        truth = _joints_from_radii(np.linspace(0.6, 9.0, 25), geom)
        profile = []
        for radius, height, _ in truth:
            tendon_length = tendon_length_from_cylinder(radius, height, geom)
            profile.append((geom.slack_tendon_length - tendon_length, 0.0))
        result = stroke_based_estimate(profile, geom, tendon, roll=0.25)
        assert result.roll == 0.25 and len(result.failures) == 0
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
        assert len(result.failures) == 1
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

    def test_results_compare_and_hash_by_value(self, tendon, geom):
        log = [(0.0, 0.0), (9.5, 0.0), (2.0, 0.0)]
        one, two = (stroke_based_estimate(log, geom, tendon, 0.2) for _ in range(2))
        assert one == two and hash(one) == hash(two)
        assert one != stroke_based_estimate(log, geom, tendon, 0.3)

    def test_joint_series_is_built_on_first_read_and_kept(self, tendon, geom, monkeypatch):
        # Accepted rows are filled without the validating constructor.
        built, validated, fill = [], [], kinematics._joint_state
        monkeypatch.setattr(kinematics, "_joint_state", lambda *row: built.append(row) or fill(*row))
        monkeypatch.setattr(JointState, "__post_init__", validated.append)
        result = stroke_based_estimate([(0.0, 0.0), (9.5, 0.0), (2.0, 0.0)], geom, tendon, roll=0.3)
        assert built == [] and len(result.failures) == 1
        assert math.isnan(result.per_sample_phi[1])
        assert not result.per_sample_phi.flags.writeable
        assert built == []
        series = result.joint_series
        assert len(built) == 2 and series[1] is None
        assert [j.roll for j in series if j is not None] == [0.3, 0.3]
        assert result.joint_series is series and len(built) == 2 and validated == []


class TestPositionBasedEstimate:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tip_rejected(self, geom, bad):
        with pytest.raises(DomainError, match="non-finite"):
            position_based_estimate(np.array([60.0, bad, 0.0]), geom)

    @pytest.mark.parametrize("tip", [[1e200, 0.0, 0.0], [0.0, -1.5e154, 1e154], [1.7e308, 1.7e308, 0.0]])
    def test_overflowing_norm_is_named(self, geom, tip):
        with pytest.raises(DomainError, match=r"is finite, but its squared norm overflows$"):
            position_based_estimate(np.array(tip), geom)

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

    @staticmethod
    def _reference(tip, geom):
        """The estimate with the height taken from np.linalg.norm."""
        tip = np.asarray(tip, dtype=float)
        height = float(np.linalg.norm(tip))
        phi_truth = math.acos(min(max(tip[0] / height, -1.0), 1.0))
        two_pi_n = 2.0 * math.pi * geom.turn_count
        radius = math.sqrt(max(geom.na_length**2 - height**2, 0.0)) / two_pi_n
        phi_model = math.atan2(two_pi_n * (radius - geom.composite_na_offset), height)
        return (height, phi_truth, radius, phi_model)

    def _assert_bit_equal(self, tip, geom):
        got = dataclasses.astuple(position_based_estimate(tip, geom))
        assert all(type(v) is float for v in got)
        assert got == self._reference(tip, geom)

    # Each coordinate within L / sqrt(3) keeps the tip norm within L; the
    # filter keeps it away from the origin, where the square underflows.
    @settings(max_examples=500, deadline=None)
    @given(
        st.tuples(*[st.floats(-0.577, 0.577)] * 3).filter(lambda f: max(map(abs, f)) > 1e-6),
        st.sampled_from([1.0, 1e-3, 1e-9]),
    )
    def test_bit_equal_to_the_norm_reference(self, geom, fractions, scale):
        self._assert_bit_equal(np.array(fractions) * scale * geom.na_length, geom)

    @pytest.mark.parametrize(
        "tip",
        [
            np.array([[40.5, -1.0, 20.25, -1.0, -10.125, -1.0]])[0, ::2],
            np.array([[40.5, 7.0], [20.25, 7.0], [-10.125, 7.0]])[:, 0],
            [40.5, 20.25, -10.125],
            np.array([40, 20, -10]),
        ],
        ids=["strided-row", "column", "list", "int-array"],
    )
    def test_bit_equal_for_views_lists_and_ints(self, geom, tip):
        self._assert_bit_equal(tip, geom)


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

    @pytest.mark.parametrize("shape", [(2, 3, 3), (1, 1, 4, 3)])
    def test_more_than_two_axes_raise(self, shape):
        with pytest.raises(ValidationError, match=re.escape(f"point sequences need one or two axes, got shape {shape}")):
            compare_point_sequences(np.ones(shape), np.zeros(shape))

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


def _metrics_by_former_formula(a, b):
    """Distances, maximum and RMSE as the package computed them before the one-pass score."""
    distances = np.linalg.norm(a - b, axis=1)
    return distances, float(np.max(distances)), float(np.sqrt(np.mean(distances**2)))


class TestOnePassMetrics:
    """compare_point_sequences, max_euclidean_distance and rmse keep the former formulas' bits."""

    @given(
        rows=st.sampled_from([1, 2, 7, 8, 9, 128, 129, 10_000]) | st.integers(1, 10_000),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        cells=st.lists(
            st.tuples(
                st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 5),
                st.sampled_from([math.nan, math.inf, -math.inf]),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_bits_equal_former_formula(self, rows, log_scale, seed, cells):
        pairs = np.random.default_rng(seed).normal(size=(rows, 6)) * 10.0**log_scale
        for where, column, value in cells:
            pairs[int(where * rows), column] = value
        a, b = pairs[:, :3], pairs[:, 3:]
        with np.errstate(invalid="ignore"):  # inf - inf
            distances, d_max, root = _metrics_by_former_formula(a, b)
            got = compare_point_sequences(a, b)
            fields = np.array([max_euclidean_distance(a, b), rmse(a, b)])
        assert got.per_sample_distances.tobytes() == distances.tobytes()
        assert np.array([got.max_distance, got.rmse]).tobytes() == np.array([d_max, root]).tobytes()
        assert fields.tobytes() == np.array([d_max, root]).tobytes()


def _assert_former_bits(a, b):
    """compare_point_sequences(a, b) keeps the former formula's bits on the inputs' point rows."""
    rows_a, rows_b = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (a, b))
    distances, d_max, root = _metrics_by_former_formula(rows_a, rows_b)
    got = compare_point_sequences(a, b)
    assert got.per_sample_distances.tobytes() == distances.tobytes()
    assert got.per_sample_distances.shape == distances.shape
    assert np.array([got.max_distance, got.rmse]).tobytes() == np.array([d_max, root]).tobytes()
    assert type(got.max_distance) is type(got.rmse) is float
    return got


class TestSmallSequences:
    """Fewer than 8 points of 3 coordinates are scored in Python floats, with the former formula's bits."""

    @pytest.mark.parametrize("rows", [1, 2, 4, 7, 8, 9])
    def test_bits_equal_former_formula_at_the_boundary(self, rows):
        # At 8 rows numpy's sum is pairwise, and differs from a left-to-right sum on about 40 % of inputs.
        rng = np.random.default_rng(rows)
        for scale in (1e-3, 1.0, 1e3, 1e150):
            for _ in range(100):
                a, b = rng.normal(size=(2, rows, 3)) * scale
                _assert_former_bits(a, b)

    @pytest.mark.parametrize("rows", [1, 7, 8])
    def test_numpy_reduces_only_from_eight_rows(self, rows, monkeypatch):
        a, b = np.random.default_rng(rows).normal(size=(2, rows, 3))
        expected = compare_point_sequences(a, b)
        # Only the conversions are left: any numpy reduction raises AttributeError.
        monkeypatch.setattr(estimation, "np", SimpleNamespace(asarray=np.asarray, array=np.array))
        if rows < 8:
            assert compare_point_sequences(a, b) == expected
        else:
            with pytest.raises(AttributeError):
                compare_point_sequences(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.arange(10.0).reshape(5, 2), np.ones((5, 2))),  # (n, 2)
            (np.arange(12.0).reshape(3, 4) / 7.0, np.ones((3, 4))),  # (n, 4)
            (np.arange(3.0) / 3.0, np.ones(3)),  # one point
            (0.1, 0.7),  # a scalar is one sample of one coordinate
            ([[0, 0, 0], [1, 2, 2]], [[3, 4, 0], [0, 0, 0]]),  # lists of ints
            ([[0.1, 0.2, 0.3]] * 7, [[0.3, 0.2, 0.1]] * 7),
        ],
        ids=["n-by-2", "n-by-4", "one-point", "scalar", "int-lists", "float-lists"],
    )
    def test_other_shapes_and_lists(self, a, b):
        _assert_former_bits(a, b)

    @pytest.mark.parametrize("row", [1, 3, 6])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_after_the_first_row(self, row, value):
        a, b = np.random.default_rng(row).normal(size=(2, 7, 3))
        a[row, 1] = value
        got = _assert_former_bits(a, b)
        # Python's max passes over a NaN that is not first; numpy's keeps it.
        assert math.isnan(got.max_distance) if math.isnan(value) else got.max_distance == math.inf

    def test_inf_minus_inf_is_nan(self):
        a, b = np.zeros((4, 3)), np.zeros((4, 3))
        a[2, 0] = b[2, 0] = math.inf
        with np.errstate(invalid="ignore"):
            got = _assert_former_bits(a, b)
        assert math.isnan(got.max_distance) and math.isnan(got.rmse)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[1e200, 0.0, 0.0], [1.0, 2.0, 3.0]], np.zeros((2, 3))),  # a square overflows
            ([[1e154, 0.0, 0.0], [0.0, 1e154, 0.0]], np.zeros((2, 3))),  # each square is finite, their sum is not
            ([[1.7e308, 0.0, 0.0], [0.0, 0.0, 0.0]], [[-1.7e308, 0.0, 0.0], [1.0, 0.0, 0.0]]),  # a difference
        ],
        ids=["square", "sum", "difference"],
    )
    def test_overflowing_rows_keep_the_former_bits(self, a, b):
        with np.errstate(over="ignore"):
            got = _assert_former_bits(np.array(a), np.array(b))
        assert got.rmse == math.inf

    @pytest.mark.parametrize("rows", [1, 4, 7])
    def test_distances_are_read_only_float64(self, rows):
        a, b = np.random.default_rng(rows).normal(size=(2, rows, 3))
        distances = compare_point_sequences(a, b).per_sample_distances
        assert distances.dtype == np.float64 and distances.shape == (rows,)
        with pytest.raises(ValueError, match="read-only"):
            distances[0] = 0.0


class TestRepeatabilityCompare:
    @staticmethod
    def _linear_trajectory(eta):
        eta = np.asarray(eta, dtype=float)
        points = np.column_stack([60.0 * eta, 5.0 * eta, -2.0 * eta])
        return TipTrajectory(eta=eta, points=points)

    def test_identical_trials(self):
        trial = self._linear_trajectory(np.linspace(0.0, 1.0, 21))
        _, result = repeatability_compare(trial, trial)
        assert result.max_distance == 0.0
        assert result.rmse == 0.0
        assert result.n_samples == 21

    def test_constant_offset(self):
        eta = np.linspace(0.0, 1.0, 21)
        trial = self._linear_trajectory(eta)
        shifted = TipTrajectory(eta=eta, points=trial.points + np.array([0.0, 0.0, 1.0]))
        _, result = repeatability_compare(trial, shifted)
        assert result.max_distance == pytest.approx(1.0)
        assert result.rmse == pytest.approx(1.0)

    def test_equal_grids_are_the_returned_grid(self):
        trial = self._linear_trajectory(np.linspace(0.0, 1.0, 21))
        grid, result = repeatability_compare(trial, trial)
        assert grid is trial.eta and result.n_samples == grid.size

    def test_resampling_is_exact_for_linear_trajectories(self):
        trial_a = self._linear_trajectory(np.linspace(0.0, 1.0, 11))
        trial_b = self._linear_trajectory(np.linspace(0.05, 0.95, 31))
        grid, result = repeatability_compare(trial_a, trial_b)
        assert result.max_distance < 1e-12
        assert np.array_equal(grid, np.union1d(trial_a.eta[1:-1], trial_b.eta))
        assert result.n_samples == grid.size

    def test_symmetry_with_mismatched_grids(self):
        rng = np.random.default_rng(7)
        eta_a = np.linspace(0.0, 1.0, 13)
        eta_b = np.linspace(0.1, 0.9, 9)
        trial_a = TipTrajectory(eta=eta_a, points=rng.normal(size=(13, 3)))
        trial_b = TipTrajectory(eta=eta_b, points=rng.normal(size=(9, 3)))
        _, ab = repeatability_compare(trial_a, trial_b)
        _, ba = repeatability_compare(trial_b, trial_a)
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
        _, result = repeatability_compare(trial_a, trial_b)
        assert abs(result.rmse - mc_mean) < 5.0 * mc_std


def test_compare_point_sequences_profile():
    a = np.zeros((3, 3))
    b = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    result = compare_point_sequences(a, b)
    assert result.per_sample_distances == pytest.approx([1.0, 2.0, 2.0])
    assert result.max_distance == 2.0
    assert result.rmse == pytest.approx(math.sqrt(3.0))


def test_comparisons_compare_and_hash_by_value():
    a = np.zeros((3, 3))
    b = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    one, two = compare_point_sequences(a, b), compare_point_sequences(a, b)
    assert one == two and hash(one) == hash(two)
    assert one != compare_point_sequences(a, b[::-1]) and one != "comparison"
    assert {one, two} == {one}
    with pytest.raises(ValueError, match="read-only"):
        one.per_sample_distances[0] = 0.0
    # The public constructor keeps a read-only copy and leaves the caller's array writable.
    given = np.array([1.0, 2.0, 2.0])
    built = TrajectoryComparison(one.max_distance, one.rmse, given)
    assert built == one and hash(built) == hash(one)
    assert given.flags.writeable and not built.per_sample_distances.flags.writeable
    assert not np.shares_memory(given, built.per_sample_distances)


@pytest.mark.parametrize("a, b", [(1.0, 3.0), ([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])])
def test_comparison_takes_a_point_or_a_scalar_as_one_sample(a, b):
    result = compare_point_sequences(a, b)
    assert result.n_samples == 1 and result.max_distance == result.rmse == 2.0


class TestTrustedRecords:
    """The estimators build their records without ``__init__``; they must be the checked ones."""

    @staticmethod
    def _assert_same_record(fast, cls):
        values = dataclasses.astuple(fast)
        public = cls(*values)
        assert fast == public and hash(fast) == hash(public) and repr(fast) == repr(public)
        for got, want in zip(values, dataclasses.astuple(public)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert type(fast) is cls and not hasattr(fast, "__dict__")
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fast, field.name, 1.0)

    @given(
        fraction=st.just(0.0) | st.floats(0.0, 0.999),
        roll=st.sampled_from([0.0, -0.0, math.pi]) | st.floats(allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_fast_path_records_match_the_public_constructors(self, tendon, geom, fraction, roll, seed):
        stroke = fraction * (geom.slack_tendon_length - geom.na_length + 2.0 * math.pi * geom.turn_count
                             * geom.tendon_na_distance)
        joint = joint_from_actuation(stroke, 0.0, tendon, geom, roll)
        curve = forward_kinematics(joint, geom, backbone_samples(geom.na_length, 5))
        markers = curve.points[:4] + np.random.default_rng(seed).normal(0.0, 0.1, (4, 3))
        self._assert_same_record(joint, JointState)
        self._assert_same_record(position_based_estimate(curve.tip, geom), PositionEstimate)
        self._assert_same_record(compare_point_sequences(curve.points[:4], markers), TrajectoryComparison)

    @pytest.mark.parametrize("roll", [math.nan, math.inf, -math.inf])
    def test_actuation_map_still_checks_the_roll(self, tendon, geom, roll):
        with pytest.raises(ValidationError, match="roll angle theta must be finite"):
            joint_from_actuation(2.0, 0.0, tendon, geom, roll)


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
