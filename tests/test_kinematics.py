import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helikin import kinematics
from helikin.errors import DomainError, NonPhysicalError, OverActuationError, ValidationError
from helikin.geometry import TendonSpec, derive_geometry
from helikin.kinematics import (
    _REL_SLOP,
    _centerline,
    BackboneCurve,
    JointState,
    TipTrajectory,
    actuation_failures,
    backbone_samples,
    cylinder_axis,
    cylinder_from_tendon_length,
    forward_kinematics,
    joint_from_actuation,
    joints_from_actuation,
    tendon_length_from_cylinder,
    tendon_length_from_stroke,
)
from helikin.presets import default_tendon, default_tube
from helikin.simulation import ftl_run

from .oracles import centerline_two_rotations, point_line_distance, solve_cylinder_rootfind

# Frozen via the root-find oracle below (full-precision pipeline values;
# rounded intermediates reproduce the commonly quoted 3.139 / 60.953 / 0.270).
R_AT_2MM = 3.138983758103423
H_AT_2MM = 60.95298822973639
PHI_AT_2MM = 0.2696983773706072
ELONGATION_5N = 0.0387717438061119

MAX_VALID_STROKE = 7.6  # beyond ~7.6001 mm the reference tube over-actuates


class TestTendonLengthFromStroke:
    def test_rest_state(self, tendon, geom):
        length = tendon_length_from_stroke(0.0, 0.0, tendon, geom.slack_tendon_length)
        assert length == geom.slack_tendon_length

    def test_elastic_elongation(self, tendon, geom):
        length = tendon_length_from_stroke(0.0, 5.0, tendon, geom.slack_tendon_length)
        assert length - geom.slack_tendon_length == pytest.approx(ELONGATION_5N, rel=1e-12)
        assert length - geom.slack_tendon_length == pytest.approx(0.0388, abs=5e-5)

    def test_plain_subtraction(self, tendon, geom):
        length = tendon_length_from_stroke(2.0, 0.0, tendon, geom.slack_tendon_length)
        assert length == pytest.approx(geom.slack_tendon_length - 2.0, rel=1e-15)

    def test_rejects_negative_inputs(self, tendon, geom):
        with pytest.raises(DomainError):
            tendon_length_from_stroke(-0.1, 0.0, tendon, geom.slack_tendon_length)
        with pytest.raises(DomainError):
            tendon_length_from_stroke(0.0, -1.0, tendon, geom.slack_tendon_length)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_inputs(self, tendon, geom, value):
        with pytest.raises(DomainError, match="stroke"):
            tendon_length_from_stroke(value, 0.0, tendon, geom.slack_tendon_length)
        with pytest.raises(DomainError, match="tension"):
            tendon_length_from_stroke(0.0, value, tendon, geom.slack_tendon_length)

    def test_non_finite_stroke_never_reaches_a_joint(self, tendon, geom):
        with pytest.raises(DomainError):
            joint_from_actuation(math.nan, 0.0, tendon, geom)
        with pytest.raises(DomainError):
            joint_from_actuation(1.0, math.nan, tendon, geom)

    def test_rejects_collapsed_length(self, tendon, geom):
        with pytest.raises(DomainError):
            tendon_length_from_stroke(70.0, 0.0, tendon, geom.slack_tendon_length)

    def test_rejects_growth_beyond_bound(self, tendon, geom):
        huge_elongation = 1e4  # newtons, absurd on purpose
        with pytest.raises(DomainError):
            tendon_length_from_stroke(
                0.0, huge_elongation, tendon, geom.slack_tendon_length, geom
            )


class TestCylinderFromTendonLength:
    def test_rest_is_straight(self, tube, geom):
        radius, height = cylinder_from_tendon_length(geom.slack_tendon_length, geom)
        assert radius == pytest.approx(geom.composite_na_offset, rel=1e-9)
        assert height == pytest.approx(tube.patterned_length, rel=1e-9)

    def test_two_mm_stroke_against_rootfind_oracle(self, geom):
        tendon_length = geom.slack_tendon_length - 2.0
        radius, height = cylinder_from_tendon_length(tendon_length, geom)
        oracle_r, oracle_h = solve_cylinder_rootfind(
            tendon_length, geom.na_length, geom.tendon_na_distance
        )
        assert radius == pytest.approx(oracle_r, abs=1e-10)
        assert height == pytest.approx(oracle_h, abs=1e-9)
        assert radius == pytest.approx(R_AT_2MM, rel=1e-12)
        assert height == pytest.approx(H_AT_2MM, rel=1e-12)

    def test_tendon_at_na_length_gives_half_distance_radius(self, geom):
        radius, _ = cylinder_from_tendon_length(geom.na_length, geom)
        assert radius == pytest.approx(geom.tendon_na_distance / 2.0, rel=1e-12)

    def test_over_actuation_raises(self, tendon, geom):
        length = tendon_length_from_stroke(7.7, 0.0, tendon, geom.slack_tendon_length)
        with pytest.raises(OverActuationError):
            cylinder_from_tendon_length(length, geom)

    def test_excess_slack_raises_non_physical(self, geom):
        with pytest.raises(NonPhysicalError):
            cylinder_from_tendon_length(geom.slack_tendon_length + 2.0, geom)

    @given(stroke=st.floats(0.0, MAX_VALID_STROKE))
    @settings(max_examples=300, deadline=None)
    def test_closure_holds_for_any_valid_stroke(self, stroke):
        from helikin.geometry import derive_geometry
        from helikin.presets import default_tube

        geom = derive_geometry(default_tube())
        tendon_length = geom.slack_tendon_length - stroke
        radius, height = cylinder_from_tendon_length(tendon_length, geom)
        closure = math.hypot(height, 2.0 * math.pi * radius)
        assert abs(closure - geom.na_length) < 1e-9 * geom.na_length

    def test_stroke_round_trip(self, tendon, geom):
        for stroke in np.linspace(0.0, MAX_VALID_STROKE, 37):
            length = tendon_length_from_stroke(
                float(stroke), 0.0, tendon, geom.slack_tendon_length
            )
            radius, height = cylinder_from_tendon_length(length, geom)
            recovered = geom.slack_tendon_length - tendon_length_from_cylinder(
                radius, height, geom
            )
            assert abs(recovered - stroke) < 1e-9


class TestDeflection:
    """phi of the actuation map: the pitch angle of the tube-centerline helix."""

    def test_straight_configuration(self, tendon, geom):
        joint = joint_from_actuation(0.0, 0.0, tendon, geom)
        assert abs(joint.deflection) < 1e-12

    def test_two_mm_stroke_value(self, tendon, geom):
        phi = joint_from_actuation(2.0, 0.0, tendon, geom).deflection
        assert phi == pytest.approx(PHI_AT_2MM, rel=1e-12)
        assert math.degrees(phi) == pytest.approx(15.45, abs=0.01)

    @pytest.mark.parametrize("turn_count", [1, 2, 3])
    def test_phi_is_the_atan2_of_the_map_output(self, turn_count):
        tendon, geom = _turns_device(turn_count)
        for stroke in np.linspace(0.0, 0.99 * _max_stroke(tendon, geom), 9).tolist():
            joint = joint_from_actuation(stroke, 0.5, tendon, geom)
            pitch = 2.0 * math.pi * turn_count * (joint.cylinder_radius - geom.composite_na_offset)
            assert joint.deflection == math.atan2(pitch, joint.cylinder_height)


class TestHelixFrame:
    """FK against the closed-form helix: base, turns, phi = 0 translation, deflection plane, roll."""

    RADIUS, HEIGHT = 3.0, 60.0

    def _points(self, geom, s, deflection=0.0, roll=0.0):
        joint = JointState(self.RADIUS, self.HEIGHT, deflection, roll)
        return forward_kinematics(joint, geom, np.asarray(s, dtype=float)).points

    def test_base_at_origin(self, geom):
        for phi, roll in [(0.0, 0.0), (0.3, 0.0), (0.3, 1.9)]:
            assert self._points(geom, [0.0], phi, roll)[0] == pytest.approx([0.0] * 3, abs=1e-15)

    def test_half_turn(self, geom):
        bend = self.RADIUS - geom.composite_na_offset
        point = self._points(geom, [geom.na_length / 2.0])[0]
        assert point == pytest.approx([self.HEIGHT / 2.0, 2.0 * bend, 0.0], abs=1e-12)

    def test_full_turn(self, geom):
        point = self._points(geom, [geom.na_length])[0]
        assert point == pytest.approx([self.HEIGHT, 0.0, 0.0], abs=1e-12)

    def test_zero_deflection_is_pure_translation(self, geom):
        s = backbone_samples(geom.na_length, 33)
        bend = self.RADIUS - geom.composite_na_offset
        angle = 2.0 * math.pi * s / geom.na_length
        helix = np.column_stack(
            [s * self.HEIGHT / geom.na_length, -bend * np.cos(angle), bend * np.sin(angle)]
        )
        assert np.allclose(self._points(geom, s), helix + [0.0, bend, 0.0], rtol=0.0, atol=1e-12)

    def test_tip_lies_in_deflection_plane(self, geom):
        # (H, -r, 0) -> (H cos phi, 0, H sin phi): at roll 0 the tip stays in
        # the X-Z plane, at distance H from the origin.
        phi = 0.27
        point = self._points(geom, [geom.na_length], phi)[0]
        assert point == pytest.approx(
            [self.HEIGHT * math.cos(phi), 0.0, self.HEIGHT * math.sin(phi)], abs=1e-12
        )

    def test_roll_half_turn_negates_y_and_z(self, geom):
        s = backbone_samples(geom.na_length, 17)
        base = self._points(geom, s, 0.3)
        assert np.allclose(self._points(geom, s, 0.3, math.pi), base * [1.0, -1.0, -1.0], atol=1e-12)

    @given(roll=st.floats(-7, 7))
    @settings(max_examples=50, deadline=None)
    def test_roll_preserves_norms(self, geom, roll):
        s = backbone_samples(geom.na_length, 9)
        norms = np.linalg.norm(self._points(geom, s, 0.3, roll), axis=1)
        assert np.allclose(norms, np.linalg.norm(self._points(geom, s, 0.3), axis=1), atol=1e-9)

    def test_range_error(self, geom):
        with pytest.raises(DomainError):
            self._points(geom, [geom.na_length + 1.0])
        with pytest.raises(DomainError):
            self._points(geom, [-1.0])


class TestForwardKinematics:
    def test_rest_backbone_lies_on_axis(self, tendon, geom):
        curve = forward_kinematics(joint_from_actuation(0.0, 0.0, tendon, geom), geom)
        off_axis = np.linalg.norm(curve.points[:, 1:], axis=1)
        assert np.max(off_axis) < 1e-6
        assert curve.points[-1, 0] == pytest.approx(64.0, rel=1e-9)

    def test_base_is_origin(self, tendon, geom):
        joint = joint_from_actuation(3.0, 0.0, tendon, geom, roll=1.1)
        curve = forward_kinematics(joint, geom, np.array([0.0]))
        assert curve.points[0] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    def test_tip_norm_equals_cylinder_height(self, geom):
        joint = JointState(R_AT_2MM, H_AT_2MM, PHI_AT_2MM, roll=0.7)
        curve = forward_kinematics(joint, geom, np.array([geom.na_length]))
        assert np.linalg.norm(curve.points[-1]) == pytest.approx(H_AT_2MM, rel=1e-12)

    def test_tip_angle_equals_deflection(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom, roll=-1.3)
        tip = forward_kinematics(joint, geom, np.array([geom.na_length])).points[-1]
        angle = math.atan2(np.linalg.norm(tip[1:]), tip[0])
        assert angle == pytest.approx(joint.deflection, rel=1e-12)

    def test_point_norms_invariant_under_roll(self, tendon, geom):
        samples = backbone_samples(geom.na_length, 33)
        norms = []
        for roll in (0.0, 0.9, 2.4, -1.7):
            joint = joint_from_actuation(2.0, 0.0, tendon, geom, roll=roll)
            curve = forward_kinematics(joint, geom, samples)
            norms.append(np.linalg.norm(curve.points, axis=1))
        for other in norms[1:]:
            assert np.allclose(other, norms[0], rtol=1e-12, atol=1e-12)

    def test_default_sampling_density(self, tendon, geom):
        curve = forward_kinematics(joint_from_actuation(0.0, 0.0, tendon, geom), geom)
        assert len(curve) == 129

    def test_chord_sums_converge_to_centerline_length(self, tendon, geom):
        # chord length converges to the centerline helix length (radius
        # R - y_na), which approaches l_na only for gentle bends
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        bend_radius = joint.cylinder_radius - geom.composite_na_offset
        expected = math.hypot(joint.cylinder_height, 2.0 * math.pi * bend_radius)
        coarse = forward_kinematics(joint, geom, backbone_samples(geom.na_length, 129))
        fine = forward_kinematics(joint, geom, backbone_samples(geom.na_length, 4097))
        assert abs(fine.chord_length() - expected) < abs(coarse.chord_length() - expected)
        assert fine.chord_length() == pytest.approx(expected, rel=1e-6)

    def test_every_point_sits_on_the_cylinder(self, tendon, geom):
        joint = joint_from_actuation(3.5, 0.0, tendon, geom, roll=0.4)
        curve = forward_kinematics(joint, geom)
        point, direction = cylinder_axis(joint, geom)
        distances = point_line_distance(curve.points, point, direction)
        bend_radius = joint.cylinder_radius - geom.composite_na_offset
        assert np.allclose(distances, bend_radius, atol=1e-9)

    def test_cylinder_axis_builds_no_helix(self, tendon, geom, monkeypatch):
        joint = joint_from_actuation(3.0, 0.0, tendon, geom, 0.7)
        expected = cylinder_axis(joint, geom)

        def no_helix(*args):
            raise AssertionError("cylinder_axis ran the centerline kernel")

        monkeypatch.setattr(kinematics, "_centerline", no_helix)
        point, direction = cylinder_axis(joint, geom)
        assert point.tobytes() == expected[0].tobytes()
        assert direction.tobytes() == expected[1].tobytes()

    def test_rejects_unsorted_or_out_of_range_samples(self, tendon, geom):
        joint = joint_from_actuation(0.0, 0.0, tendon, geom)
        with pytest.raises(Exception):
            forward_kinematics(joint, geom, np.array([2.0, 1.0]))
        with pytest.raises(DomainError):
            forward_kinematics(joint, geom, np.array([geom.na_length + 1.0]))


@pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), True, False, "3", None])
def test_backbone_samples_reject_a_count_that_is_no_integer(geom, count):
    with pytest.raises(ValidationError, match="need an integer number of samples"):
        backbone_samples(geom.na_length, count)


@pytest.mark.parametrize("count", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_backbone_samples_take_python_and_numpy_integers(geom, count):
    assert backbone_samples(geom.na_length, count).tolist() == [0.0, geom.na_length / 2.0, geom.na_length]


@pytest.mark.parametrize("count", [1, 0, -3, np.int64(1)])
def test_backbone_samples_need_two(geom, count):
    with pytest.raises(ValidationError, match="need at least 2 samples"):
        backbone_samples(geom.na_length, count)


class TestForwardKinematicsBoundaries:
    """Range and order checks on the arc-length samples."""

    @staticmethod
    def _joint(tendon, geom):
        return joint_from_actuation(3.0, 0.0, tendon, geom, roll=0.5)

    def test_interior_nan_raises(self, tendon, geom):
        samples = np.array([0.0, 10.0, math.nan, 30.0])
        with pytest.raises(DomainError, match="arc length nan"):
            forward_kinematics(self._joint(tendon, geom), geom, samples)

    def test_samples_within_slop_clamp_to_the_ends(self, tendon, geom):
        length = geom.na_length
        slop = 0.5 * _REL_SLOP * length
        samples = np.array([-slop, 1.0, length + slop])
        curve = forward_kinematics(self._joint(tendon, geom), geom, samples)
        assert curve.s[0] == 0.0
        assert curve.s[-1] == length
        exact = forward_kinematics(self._joint(tendon, geom), geom, np.array([0.0, 1.0, length]))
        assert np.array_equal(curve.points, exact.points)

    @pytest.mark.parametrize("end", ["low", "high"])
    def test_value_past_the_slop_is_named(self, tendon, geom, end):
        length = geom.na_length
        slop = 2.0 * _REL_SLOP * length
        bad = -slop if end == "low" else length + slop
        samples = np.array([bad, 1.0]) if end == "low" else np.array([1.0, bad])
        with pytest.raises(DomainError, match=re.escape(f"arc length {bad} outside")):
            forward_kinematics(self._joint(tendon, geom), geom, samples)

    def test_returned_samples_do_not_alias_the_input(self, tendon, geom):
        samples = np.linspace(0.0, geom.na_length, 9)
        curve = forward_kinematics(self._joint(tendon, geom), geom, samples)
        assert not np.shares_memory(curve.s, samples)
        curve.s[0] = 5.0
        assert samples[0] == 0.0

    @pytest.mark.parametrize("case", ["interior", "clamped-high", "clamped-low"])
    def test_equal_samples_rejected(self, tendon, geom, case):
        # The clamped cases are strictly increasing until the slop band clamps them onto one end.
        length, slop = geom.na_length, 0.5 * _REL_SLOP * geom.na_length
        samples = {
            "interior": [0.0, 10.0, 10.0, 20.0],
            "clamped-high": [1.0, length, length + slop],
            "clamped-low": [-slop, 0.0, 1.0],
        }[case]
        with pytest.raises(ValidationError, match="arc-length samples must be strictly increasing"):
            forward_kinematics(self._joint(tendon, geom), geom, samples)

    def test_overflowing_points_rejected(self, geom):
        joint = JointState(geom.composite_na_offset + 1.0, 1e308, 0.3, 0.2)
        # R - y_na = 1e308 reaches 2e308 across the axis; a half turn on one sample.
        wide = JointState(geom.composite_na_offset + 1e308, 10.0, 0.3, 0.2)
        half_turn = np.array([geom.na_length / (2.0 * geom.turn_count)])
        with np.errstate(over="ignore", invalid="ignore"):
            for curve_joint, samples in (
                (joint, None),
                (joint, np.array([geom.na_length])),  # s H overflows on a 1-sample grid
                (wide, None),
                (wide, half_turn),
            ):
                with pytest.raises(ValidationError, match="curve contains non-finite values"):
                    forward_kinematics(curve_joint, geom, samples)
        # Past the scalar bound the points themselves decide: at s = 0 they are finite.
        start = forward_kinematics(wide, geom, np.array([0.0]))
        assert start.points.tobytes() == np.zeros((1, 3)).tobytes()
        # Equal samples are named before the points are computed.
        samples = np.array([0.0, geom.na_length, geom.na_length])
        with pytest.raises(ValidationError, match="arc-length samples must be strictly increasing"):
            forward_kinematics(joint, geom, samples)

    @pytest.mark.parametrize(
        "samples, error, message",
        [
            (np.zeros((2, 2)), ValidationError, "samples must be a non-empty 1-D array, got shape (2, 2)"),
            (np.empty(0), ValidationError, "samples must be a non-empty 1-D array, got shape (0,)"),
            ([0.0, 20.0, 10.0], ValidationError, "samples must be sorted ascending"),
            ([math.nan, 10.0, 20.0], DomainError, "arc length nan outside [0, {upper}]"),
            ([0.0, 10.0, math.nan], DomainError, "arc length nan outside [0, {upper}]"),
        ],
        ids=["2-d", "empty", "descending", "nan-first", "nan-last"],
    )
    def test_error_table(self, tendon, geom, samples, error, message):
        with pytest.raises(error) as raised:
            forward_kinematics(self._joint(tendon, geom), geom, samples)
        assert str(raised.value) == message.format(upper=geom.na_length)

    def test_curve_rejects_nan_and_unsorted_samples(self):
        points = np.zeros((3, 3))
        with pytest.raises(ValidationError):
            BackboneCurve(s=np.array([0.0, math.nan, 2.0]), points=points)
        with pytest.raises(ValidationError):
            BackboneCurve(s=np.array([0.0, 2.0, 1.0]), points=points)
        with pytest.raises(ValidationError):
            BackboneCurve(s=np.array([0.0, 1.0, 1.0]), points=points)
        with pytest.raises(ValidationError):
            BackboneCurve(s=np.array([0.0, 1.0, 2.0]), points=np.array([[0.0, 0.0, math.nan]] * 3))

    def test_empty_curves_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("need s of shape (N,)")):
            BackboneCurve(s=np.empty(0), points=np.empty((0, 3)))
        with pytest.raises(ValidationError, match=re.escape("need eta of shape (N,)")):
            TipTrajectory(eta=np.empty(0), points=np.empty((0, 3)))

    def test_curve_and_trajectory_share_their_checks(self):
        # Shape, then finiteness, then strict order: a NaN parameter is named
        # as non-finite by both classes.
        points = np.zeros((3, 3))
        for cls, name, kind, label in (
            (BackboneCurve, "s", "curve", "arc-length samples"),
            (TipTrajectory, "eta", "trajectory", "eta grid"),
        ):
            with pytest.raises(ValidationError, match=re.escape(f"need {name} of shape (N,)")):
                cls(np.zeros(2), points)
            with pytest.raises(ValidationError, match=f"{kind} contains non-finite values"):
                cls(np.array([0.0, math.nan, 0.5]), points)
            with pytest.raises(ValidationError, match=f"{kind} contains non-finite values"):
                cls(np.array([0.5, 0.25, math.inf]), points)
            with pytest.raises(ValidationError, match=f"{label} must be strictly increasing"):
                cls(np.array([0.0, 0.5, 0.5]), points)
            single = cls(np.array([1]), np.array([[1, 2, 3]]))
            assert getattr(single, name).dtype == single.points.dtype == np.float64


def _fresh(joint, geom, samples):
    """FK on an empty grid cache, so that it checks the grid and takes its trig anew."""
    kinematics._last_grid = None
    return forward_kinematics(joint, geom, samples)


def _assert_same_curve(curve, fresh):
    assert curve.s.tobytes() == fresh.s.tobytes()
    assert curve.points.tobytes() == fresh.points.tobytes()


class TestGridCache:
    """FK keeps its last accepted grid; a call on the same grid gives what a fresh call does."""

    @staticmethod
    def _joint(tendon, geom):
        return joint_from_actuation(3.0, 0.0, tendon, geom, roll=0.5)

    def test_writes_into_the_callers_array_are_seen(self, tendon, geom):
        joint = self._joint(tendon, geom)
        samples = np.linspace(0.0, geom.na_length, 9)
        forward_kinematics(joint, geom, samples)
        samples[3] += 0.5
        curve = forward_kinematics(joint, geom, samples)
        assert curve.s[3] == samples[3]
        _assert_same_curve(curve, _fresh(joint, geom, samples))
        samples[3] = samples[2]
        with pytest.raises(ValidationError, match="arc-length samples must be strictly increasing"):
            forward_kinematics(joint, geom, samples)

    def test_writes_into_a_returned_curve_do_not_reach_the_next_call(self, tendon, geom):
        joint = self._joint(tendon, geom)
        samples = np.linspace(0.0, geom.na_length, 9)
        first = forward_kinematics(joint, geom, samples)
        second = forward_kinematics(joint, geom, samples)  # a hit
        assert not np.shares_memory(first.s, second.s)
        first.s[0] = second.s[1] = 5.0
        curve = forward_kinematics(joint, geom, samples)
        assert curve.s.tobytes() == samples.tobytes()
        _assert_same_curve(curve, _fresh(joint, geom, samples))

    def test_clamped_grid_is_the_same_on_a_hit(self, tendon, geom):
        joint = self._joint(tendon, geom)
        length = geom.na_length
        slop = 0.5 * _REL_SLOP * length
        samples = np.array([-slop, 1.0, length + slop])
        miss = _fresh(joint, geom, samples)
        assert miss.s.tolist() == [0.0, 1.0, length]
        hit = forward_kinematics(joint, geom, samples)
        _assert_same_curve(hit, miss)
        expected = (miss.s.tobytes(), miss.points.tobytes())
        miss.s[0] = hit.s[0] = 7.0
        again = forward_kinematics(joint, geom, samples)
        assert (again.s.tobytes(), again.points.tobytes()) == expected
        assert not any(array.flags.writeable for array in kinematics._last_grid[1:])

    @pytest.mark.parametrize(
        "samples, error",
        [
            ([0.0, 20.0, 10.0], ValidationError),
            ([0.0, math.nan, 20.0], DomainError),
            ([0.0, 1e6], DomainError),
            ([0.0, 10.0, 10.0], ValidationError),
        ],
        ids=["descending", "nan", "beyond", "equal"],
    )
    def test_rejected_grid_raises_on_every_call(self, tendon, geom, samples, error):
        joint = self._joint(tendon, geom)
        messages = []
        for _ in range(2):
            with pytest.raises(error) as raised:
                forward_kinematics(joint, geom, samples)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_geometries_with_one_grid_never_share_an_entry(self):
        (tendon, geom2), (_, geom3) = _turns_device(2), _turns_device(3)
        # Keys that differ in n alone, and in l_na alone.
        geom2_as_3 = dataclasses.replace(geom2, turn_count=3)
        geom2_long = dataclasses.replace(geom2, na_length=geom3.na_length)
        samples = np.linspace(0.0, min(geom2.na_length, geom3.na_length), 7)
        joints = {g: joint_from_actuation(1.5, 0.0, tendon, g, 0.3) for g in (geom2, geom3)}
        joints[geom2_as_3] = joints[geom2_long] = joints[geom2]
        calls = [geom2, geom3, geom3, geom2, geom2_as_3, geom2, geom2_as_3, geom2_long, geom2, geom2_long]
        curves = [forward_kinematics(joints[g], g, samples) for g in calls]
        for g, curve in zip(calls, curves):
            _assert_same_curve(curve, _fresh(joints[g], g, samples))

    @given(
        fraction=st.floats(0.0, 0.999),
        roll=st.floats(-math.pi, math.pi),
        count=st.sampled_from([1, 2, 5, 129]) | st.integers(1, 300),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_hit_equals_miss(self, fraction, roll, count, grid, seed):
        tendon, geom = default_tendon(), derive_geometry(default_tube())
        joint = joint_from_actuation(fraction * _max_stroke(tendon, geom), 0.0, tendon, geom, roll)
        if grid and count > 1:
            s = backbone_samples(geom.na_length, count)
        else:
            s = np.unique(np.random.default_rng(seed).uniform(0.0, geom.na_length, count))
        miss = _fresh(joint, geom, s)
        _assert_same_curve(forward_kinematics(joint, geom, s), miss)


# sha256 of FK's points over 5 strokes x 5 rolls, by sample count. Recorded with
# numpy 2.4.6 and OpenBLAS on x86-64, like the demo digests. One sample makes
# the product a (1, 3) @ (3, 3), which BLAS runs as a gemv with its own rounding.
FK_DIGESTS = {
    1: "27d74780e504bb593b9f42fa03b9dd2ad7143e23fb36ab80ad747a3d1487e1fc",
    5: "45321f62a857bf335f12f8ae8e6657e5239dd8a903f168261c952f02e17f0cc0",
    129: "f3c1a52b12f8dcc4fce8b83f593c2899c8d31d50feecfdda3e92d76792402bf9",
    1001: "31b6755967ac02440dc49cf361b0996e1abf4335d22dc87dff5870ac5e079df1",
}


@pytest.mark.parametrize("count", sorted(FK_DIGESTS))
def test_forward_kinematics_keeps_its_bytes(tendon, geom, count):
    s = np.array([geom.na_length]) if count == 1 else backbone_samples(geom.na_length, count)
    digest = hashlib.sha256()
    for stroke in (0.0, 0.8, 2.0, 4.5, 7.5):
        for roll in (0.0, -0.0, 0.7, -2.3, 3.0):
            joint = joint_from_actuation(stroke, 0.0, tendon, geom, roll)
            digest.update(forward_kinematics(joint, geom, s).points.tobytes())
    assert digest.hexdigest() == FK_DIGESTS[count]


class TestCenterlineBits:
    """FK and the cylinder axis, bit for bit against the two-rotation formula."""

    @pytest.mark.parametrize("turn_count", [1, 2, 3])
    @given(
        fraction=st.just(0.0) | st.floats(0.0, 0.999),  # 0 with no tension is the rest joint
        tension=st.just(0.0) | st.floats(0.0, 5.0),
        roll=st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2.0]) | st.floats(-math.pi, math.pi),
        count=st.sampled_from([1, 2, 5, 129]) | st.integers(1, 300),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        zero_phi=st.sampled_from([None, 0.0, -0.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_forward_kinematics_and_axis_match_formula(
        self, turn_count, fraction, tension, roll, count, grid, seed, zero_phi
    ):
        tendon, geom = _turns_device(turn_count)
        stroke = fraction * _max_stroke(tendon, geom)
        joint = joint_from_actuation(stroke, tension, tendon, geom, roll)
        if zero_phi is not None:  # the actuation map never gives a phi of exactly +-0
            joint = dataclasses.replace(joint, deflection=zero_phi)
        if grid and count > 1:
            s = backbone_samples(geom.na_length, count)
        else:
            s = np.unique(np.random.default_rng(seed).uniform(0.0, geom.na_length, count))
        points, transform, point, direction = centerline_two_rotations(joint, geom, s)
        assert forward_kinematics(joint, geom, s).points.tobytes() == points.tobytes()
        # The kernel's frame itself, signed zeros included.
        bend_radius = joint.cylinder_radius - geom.composite_na_offset
        columns = [np.array([v]) for v in (bend_radius, joint.cylinder_height, joint.deflection)]
        _, (frame,) = _centerline(*columns, joint.roll, s, geom)
        assert frame.tobytes() == transform.tobytes()
        axis_point, axis_direction = cylinder_axis(joint, geom)
        assert axis_point.tobytes() == point.tobytes()
        assert axis_direction.tobytes() == direction.tobytes()


def _frames_by_gemm(deflection, roll):
    """The frames as one gemm each: a roll matrix times a stack of tilts by -phi."""
    cos_roll, sin_roll = math.cos(roll), math.sin(roll)
    rolled = np.array([[1.0, 0.0, 0.0], [0.0, cos_roll, -sin_roll], [0.0, sin_roll, cos_roll]])
    tilt = np.zeros((9, deflection.size))  # row i is entry i of every flattened tilt matrix
    tilt[0] = tilt[8] = np.cos(-deflection)
    tilt[2] = np.sin(-deflection)
    tilt[4] = 1.0
    tilt[6] = -tilt[2]
    return rolled @ tilt.T.reshape(deflection.size, 3, 3)


class TestFramesBits:
    """The written-out frames carry the gemm's bytes, signed zeros and underflowed products included.

    The reference rounds through this platform's BLAS, like the demo digests.
    """

    angles = st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2.0]) | st.floats(allow_nan=False, allow_infinity=False)

    @given(roll=angles, phis=st.lists(angles, min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_frames_match_gemm(self, roll, phis):
        expected = _frames_by_gemm(np.array(phis), roll)
        assert kinematics._frames(np.array(phis), roll).tobytes() == expected.tobytes()
        frame = kinematics._frames(phis[0], roll)  # a float phi: the batch of one
        assert frame.shape == (3, 3) and frame.tobytes() == expected[0].tobytes()


class TestFtlTipTrace:
    def test_tip_trace_coincides_with_backbone(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom, roll=0.9)
        grid = np.linspace(0.0, 1.0, 101)
        tip, _ = ftl_run(joint, geom, grid)
        curve = forward_kinematics(joint, geom, grid * geom.na_length)
        assert np.max(np.linalg.norm(tip.points - curve.points, axis=1)) < 1e-9

    def test_tip_at_zero_is_origin(self, tendon, geom):
        for joint in (joint_from_actuation(0.0, 0.0, tendon, geom), joint_from_actuation(2.0, 0.0, tendon, geom, roll=0.9)):
            tip, _ = ftl_run(joint, geom, np.array([0.0, 1.0]))
            assert tip.points[0] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    def test_tip_at_one_is_full_tip(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        full = forward_kinematics(joint, geom, np.array([geom.na_length])).points[-1]
        tip, _ = ftl_run(joint, geom, np.array([0.0, 1.0]))
        assert tip.points[-1] == pytest.approx(list(full), abs=1e-12)

    @pytest.mark.parametrize("grid", [[-0.2, 0.5], [0.5, 1.5]])
    def test_progression_range_error(self, tendon, geom, grid):
        with pytest.raises(DomainError):
            ftl_run(joint_from_actuation(0.0, 0.0, tendon, geom), geom, np.array(grid))


class TestJointState:
    def test_closure_residual_of_actuation_map_output(self, tendon, geom):
        joint = joint_from_actuation(1.3, 2.0, tendon, geom)
        assert joint.closure_residual(geom) < 1e-9

    @pytest.mark.parametrize("radius, height", [(math.nan, 10.0), (1.0, math.nan)])
    def test_rejects_nan_dimensions(self, radius, height):
        with pytest.raises(ValidationError):
            JointState(radius, height, 0.0)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(Exception):
            JointState(0.0, 10.0, 0.0)
        with pytest.raises(Exception):
            JointState(1.0, -5.0, 0.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.inf, 10.0, 0.0), "cylinder_radius must be finite"),
            ((1.0, math.inf, 0.0), "cylinder_height must be finite"),
            ((1.0, 10.0, math.nan), "deflection must be finite"),
            ((1.0, 10.0, -math.inf), "deflection must be finite"),
            ((1.0, 10.0, 0.0, math.nan), "roll angle theta must be finite"),
            ((1.0, 10.0, 0.0, math.inf), "roll angle theta must be finite"),
            (("1", 10.0, 0.0), "cylinder_radius must be finite"),
            ((True, 10.0, 0.0), "cylinder_radius must be finite"),
            pytest.param((10**400, 1.0, 0.0), "cylinder_radius must be finite", id="radius-int-1e400"),
            ((1.0, None, 0.0), "cylinder_height must be finite"),
            pytest.param((1.0, 10**400, 0.0), "cylinder_height must be finite", id="height-int-1e400"),
            ((1.0, 10.0, "0"), "deflection must be finite"),
            ((1.0, 10.0, True), "deflection must be finite"),
            ((1.0, 10.0, 0.0, None), "roll angle theta must be finite"),
            ((1.0, 10.0, 0.0, True), "roll angle theta must be finite"),
            pytest.param((1.0, 10.0, 0.0, 10**400), "roll angle theta must be finite", id="roll-int-1e400"),
        ],
    )
    def test_rejects_non_finite_fields(self, args, message):
        with pytest.raises(ValidationError, match=message):
            JointState(*args)

    @pytest.mark.parametrize("roll", [math.nan, math.inf, "0", None, pytest.param(10**400, id="int-1e400")])
    def test_actuation_map_rejects_a_non_finite_roll(self, tendon, geom, roll):
        with pytest.raises(ValidationError, match="roll angle theta must be finite"):
            joint_from_actuation(2.0, 0.0, tendon, geom, roll)

    def test_fields_are_stored_as_float(self):
        joint = JointState(np.float32(1.5), np.int64(10), np.float64(0.25), 1)
        assert [type(v) for v in (joint.cylinder_radius, joint.cylinder_height, joint.deflection, joint.roll)] == [float] * 4
        assert joint == JointState(1.5, 10.0, 0.25, 1.0)


# 100x the default tendon's compliance (0.78 mm/N): within 10 N its
# elongation reaches both R = 0 and the growth bound.
SOFT_TENDON = TendonSpec(total_length=475.0, cross_section_area=1.135e-8, elastic_modulus=53.97)


def _max_stroke(tendon, geom):
    """Stroke at H^2 = 0 and zero tension: tendon length l_na - 2 pi n d_t-na."""
    return geom.slack_tendon_length - (
        geom.na_length - 2.0 * math.pi * geom.turn_count * geom.tendon_na_distance
    )


def _scalar_outcome(stroke, tension, tendon, geom):
    try:
        return joint_from_actuation(stroke, tension, tendon, geom)
    except DomainError as exc:
        return exc


def _adjacent_floats(lo, hi, flips):
    """Bisect floats to a pair (a, nextafter(a)) with flips(a) false and flips(next) true."""
    assert not flips(lo) and flips(hi)
    while math.nextafter(lo, math.inf) < hi:
        mid = lo + (hi - lo) / 2.0
        lo, hi = (mid, hi) if not flips(mid) else (lo, mid)
    return lo, hi


def _assert_batch_matches_scalar(strokes, tensions, tendon, geom):
    """Same rejected set and messages, R and H bit-equal, phi within 2 ulp.

    Each error class words its message differently, so equal messages
    mean equal classes.
    """
    batch = joints_from_actuation(strokes, tensions, tendon, geom)
    failures = dict(actuation_failures(strokes, tensions, batch.ok, tendon, geom))
    assert len(failures) == int((~batch.ok).sum())
    for i, (stroke, tension) in enumerate(zip(strokes, tensions)):
        outcome = _scalar_outcome(stroke, tension, tendon, geom)
        radius, height = batch.cylinder_radius[i], batch.cylinder_height[i]
        phi = batch.deflection[i]
        if isinstance(outcome, DomainError):
            assert not batch.ok[i]
            assert failures[i] == str(outcome)
            assert np.isnan([radius, height, phi]).all()
        else:
            assert batch.ok[i] and i not in failures
            assert (radius, height) == (outcome.cylinder_radius, outcome.cylinder_height)
            assert abs(phi - outcome.deflection) <= 2.0 * np.spacing(abs(outcome.deflection))


class TestJointBatch:
    def test_domain_boundaries_match_scalar(self, tendon, geom):
        def error(stroke, tension, tendon):
            outcome = _scalar_outcome(stroke, tension, tendon, geom)
            return outcome if isinstance(outcome, DomainError) else None

        # H^2 = 0: the last accepted stroke and the first over-actuated one.
        smax = _max_stroke(tendon, geom)
        h_pair = _adjacent_floats(smax - 1e-6, smax + 1e-6, lambda s: error(s, 0.0, tendon))
        assert isinstance(error(h_pair[1], 0.0, tendon), OverActuationError)
        # A soft tendon's elongation reaches R = 0, then the growth bound.
        r_pair = _adjacent_floats(0.0, 10.0, lambda t: error(0.0, t, SOFT_TENDON))
        assert isinstance(error(0.0, r_pair[1], SOFT_TENDON), NonPhysicalError)
        g_pair = _adjacent_floats(
            r_pair[1], 10.0, lambda t: "growth bound" in str(error(0.0, t, SOFT_TENDON))
        )
        _assert_batch_matches_scalar([*h_pair, 0.0, 2.0], [0.0, 0.0, 0.0, 5.0], tendon, geom)
        _assert_batch_matches_scalar([0.0] * 4, [*r_pair, *g_pair], SOFT_TENDON, geom)

    @given(
        samples=st.lists(
            st.tuples(st.floats(0.0, 1.05), st.floats(0.0, 10.0)), min_size=1, max_size=40
        ),
        soft=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_batch_equals_scalar(self, tendon, geom, samples, soft):
        # Strokes as a fraction of the largest valid stroke at zero tension.
        tendon = SOFT_TENDON if soft else tendon
        smax = _max_stroke(tendon, geom)
        strokes = [fraction * smax for fraction, _ in samples]
        tensions = [tension for _, tension in samples]
        _assert_batch_matches_scalar(strokes, tensions, tendon, geom)

    def test_non_finite_and_negative_inputs_rejected_like_scalar(self, tendon, geom):
        strokes = [math.nan, math.inf, -math.inf, -0.1, 1.0, 1.0, 1.0, 2.0]
        tensions = [0.0, 0.0, 0.0, 0.0, math.nan, math.inf, -1.0, 0.0]
        batch = joints_from_actuation(strokes, tensions, tendon, geom)
        assert batch.ok.tolist() == [False] * 7 + [True]
        _assert_batch_matches_scalar(strokes, tensions, tendon, geom)

    def test_joint_states_carry_roll_and_none_for_rejected(self, tendon, geom):
        batch = joints_from_actuation([2.0, 9.0], [0.0, 0.0], tendon, geom)
        joint, rejected = batch.joint_states(roll=0.4)
        assert rejected is None
        scalar = joint_from_actuation(2.0, 0.0, tendon, geom, roll=0.4)
        assert joint.cylinder_radius == scalar.cylinder_radius
        assert joint.cylinder_height == scalar.cylinder_height
        assert joint.deflection == pytest.approx(scalar.deflection, rel=1e-15)
        assert joint.roll == 0.4
        assert type(joint.cylinder_radius) is float

    @given(
        fractions=st.lists(st.floats(0.0, 1.05), min_size=1, max_size=20),
        roll=st.sampled_from([0.0, -0.0, math.pi]) | st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_joint_states_match_the_public_constructor(self, tendon, geom, fractions, roll):
        batch = joints_from_actuation([f * _max_stroke(tendon, geom) for f in fractions],
                                      [0.0] * len(fractions), tendon, geom)
        for ok, joint, *row in zip(batch.ok, batch.joint_states(roll), *batch[1:]):
            if not ok:
                assert joint is None
                continue
            public = JointState(*map(float, row), roll)
            assert joint == public and hash(joint) == hash(public) and repr(joint) == repr(public)
            assert type(joint) is JointState and not hasattr(joint, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                joint.roll = 0.0

    @pytest.mark.parametrize("roll", [math.nan, math.inf, -math.inf])
    def test_joint_states_check_the_roll_only_when_a_row_is_accepted(self, tendon, geom, roll):
        with pytest.raises(ValidationError, match="roll angle theta must be finite"):
            joints_from_actuation([2.0, 9.0], [0.0, 0.0], tendon, geom).joint_states(roll)
        assert joints_from_actuation([9.0, -1.0], [0.0, 0.0], tendon, geom).joint_states(roll) == (None, None)
        assert joints_from_actuation([], [], tendon, geom).joint_states(roll) == ()

    def test_shape_mismatch_rejected(self, tendon, geom):
        with pytest.raises(ValidationError):
            joints_from_actuation([1.0, 2.0], [0.0], tendon, geom)
        with pytest.raises(ValidationError):
            joints_from_actuation([[1.0]], [[0.0]], tendon, geom)


def _turns_device(turn_count):
    """Reference tendon and the reference tube patterned with ``turn_count`` turns."""
    return default_tendon(), derive_geometry(dataclasses.replace(default_tube(), turn_count=turn_count))


class TestBeyondOneTurn:
    """Kinematics of tubes patterned with more than one helical turn."""

    @pytest.mark.parametrize("turn_count", [1, 2, 3])
    @given(fraction=st.floats(0.0, 0.999), tension=st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_actuation_cylinder_tendon_round_trip(self, turn_count, fraction, tension):
        tendon, geom = _turns_device(turn_count)
        stroke = fraction * _max_stroke(tendon, geom)
        length = tendon_length_from_stroke(stroke, tension, tendon, geom.slack_tendon_length, geom)
        joint = joint_from_actuation(stroke, tension, tendon, geom)
        back = tendon_length_from_cylinder(joint.cylinder_radius, joint.cylinder_height, geom)
        assert abs(back - length) < 1e-9
        assert joint.closure_residual(geom) < 1e-12

    @pytest.mark.parametrize("turn_count", [1, 2, 3])
    @given(fractions=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)))
    @settings(max_examples=100, deadline=None)
    def test_phi_monotone_in_stroke(self, turn_count, fractions):
        tendon, geom = _turns_device(turn_count)
        low, high = sorted(f * _max_stroke(tendon, geom) for f in fractions)
        phi_low = joint_from_actuation(low, 0.0, tendon, geom).deflection
        phi_high = joint_from_actuation(high, 0.0, tendon, geom).deflection
        assert phi_low <= phi_high < math.pi / 2.0

    def test_two_turn_geometry_needs_no_turn_count(self):
        tendon, geom2 = _turns_device(2)
        assert geom2.turn_count == 2
        joint = joint_from_actuation(1.5, 0.0, tendon, geom2)
        assert joint.closure_residual(geom2) < 1e-12
        assert joint_from_actuation(1.5, 0.0, tendon, geom2, 0.0, 2) == joint
        with pytest.raises(ValidationError, match="turn count 1 differs from the geometry's 2"):
            joint_from_actuation(1.5, 0.0, tendon, geom2, 0.0, 1)

    def test_forward_kinematics_checks_turn_count(self):
        tendon, geom2 = _turns_device(2)
        joint = joint_from_actuation(1.5, 0.0, tendon, geom2)
        s = backbone_samples(geom2.na_length, 9)
        curve = forward_kinematics(joint, geom2, s)
        assert np.array_equal(forward_kinematics(joint, geom2, s, 2).points, curve.points)
        with pytest.raises(ValidationError):
            forward_kinematics(joint, geom2, s, 1)
        # Two turns: at s = l_na / 2 the centerline completes its first turn,
        # back on the line through the origin along the cylinder axis.
        half = forward_kinematics(joint, geom2, np.array([geom2.na_length / 2.0]))
        _, direction = cylinder_axis(joint, geom2)
        assert half.points[0] == pytest.approx(joint.cylinder_height / 2.0 * direction, abs=1e-12)
