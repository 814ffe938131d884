import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helikin.errors import DomainError, NonPhysicalError, OverActuationError, ValidationError
from helikin.kinematics import (
    _REL_SLOP,
    BackboneCurve,
    JointState,
    backbone_samples,
    cylinder_axis,
    cylinder_from_tendon_length,
    deflection_angle,
    forward_kinematics,
    ftl_actuation,
    ftl_tip,
    helix_point,
    joint_from_actuation,
    rest_joint,
    tendon_length_from_cylinder,
    tendon_length_from_stroke,
    to_frame0,
    to_frame1,
)

from .oracles import point_line_distance, solve_cylinder_rootfind

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


class TestDeflectionAngle:
    def test_straight_configuration(self, geom):
        assert deflection_angle(geom.composite_na_offset, 64.0, geom.composite_na_offset) == 0.0

    def test_two_mm_stroke_value(self, geom):
        phi = deflection_angle(R_AT_2MM, H_AT_2MM, geom.composite_na_offset)
        assert phi == pytest.approx(PHI_AT_2MM, rel=1e-12)
        assert math.degrees(phi) == pytest.approx(15.45, abs=0.01)

    def test_limit_approaches_quarter_turn(self, geom):
        assert deflection_angle(1e9, 10.0, geom.composite_na_offset) == pytest.approx(
            math.pi / 2.0, abs=1e-6
        )

    def test_rejects_nonpositive_height(self, geom):
        with pytest.raises(DomainError):
            deflection_angle(1.0, 0.0, geom.composite_na_offset)


class TestFramePrimitives:
    def test_helix_point_base(self):
        point = helix_point(0.0, 3.0, 60.0, 64.0)
        assert point == pytest.approx([0.0, -3.0, 0.0])

    def test_helix_point_half_turn(self):
        point = helix_point(32.0, 3.0, 60.0, 64.0)
        assert point == pytest.approx([30.0, 3.0, 0.0], abs=1e-12)

    def test_helix_point_full_turn(self):
        point = helix_point(64.0, 3.0, 60.0, 64.0)
        assert point == pytest.approx([60.0, -3.0, 0.0], abs=1e-12)

    def test_helix_point_range_error(self):
        with pytest.raises(DomainError):
            helix_point(65.0, 3.0, 60.0, 64.0)
        with pytest.raises(DomainError):
            helix_point(-1.0, 3.0, 60.0, 64.0)

    def test_to_frame1_base_lands_at_origin(self):
        assert to_frame1(np.array([0.0, -3.0, 0.0]), 3.0, 0.3) == pytest.approx(
            [0.0, 0.0, 0.0], abs=1e-15
        )

    def test_to_frame1_zero_deflection_is_pure_translation(self):
        point = to_frame1(np.array([1.0, 2.0, 3.0]), 5.0, 0.0)
        assert point == pytest.approx([1.0, 7.0, 3.0])

    def test_to_frame1_tip_lies_in_deflection_plane(self):
        # (H, -R, 0) -> (H cos phi, 0, H sin phi): the tip stays in the
        # X-Z plane of the roll-free frame, at distance H from the origin
        height, radius, phi = 60.0, 3.0, 0.27
        point = to_frame1(np.array([height, -radius, 0.0]), radius, phi)
        assert point == pytest.approx(
            [height * math.cos(phi), 0.0, height * math.sin(phi)], abs=1e-12
        )

    def test_to_frame0_identity_and_half_turn(self):
        point = np.array([1.0, 2.0, 3.0])
        assert to_frame0(point, 0.0) == pytest.approx([1.0, 2.0, 3.0])
        assert to_frame0(point, math.pi) == pytest.approx([1.0, -2.0, -3.0], abs=1e-12)

    @given(
        x=st.floats(-10, 10),
        y=st.floats(-10, 10),
        z=st.floats(-10, 10),
        roll=st.floats(-7, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_to_frame0_preserves_norm(self, x, y, z, roll):
        point = np.array([x, y, z])
        assert np.linalg.norm(to_frame0(point, roll)) == pytest.approx(
            np.linalg.norm(point), abs=1e-9
        )


class TestForwardKinematics:
    def test_rest_backbone_lies_on_axis(self, geom):
        curve = forward_kinematics(rest_joint(geom), geom)
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

    def test_default_sampling_density(self, geom):
        curve = forward_kinematics(rest_joint(geom), geom)
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

    def test_rejects_unsorted_or_out_of_range_samples(self, geom):
        joint = rest_joint(geom)
        with pytest.raises(Exception):
            forward_kinematics(joint, geom, np.array([2.0, 1.0]))
        with pytest.raises(DomainError):
            forward_kinematics(joint, geom, np.array([geom.na_length + 1.0]))


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


class TestProgression:
    def test_zero_progression(self, geom):
        state = ftl_actuation(0.0, rest_joint(geom), geom)
        assert state.roller_input_angle == 0.0
        assert state.exposed_length == 0.0
        assert state.progressive_tendon_length == 0.0

    def test_full_progression(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        state = ftl_actuation(1.0, joint, geom)
        assert state.roller_input_angle == pytest.approx(2.0 * math.pi)
        assert state.exposed_length == pytest.approx(geom.na_length)
        expected_lt = tendon_length_from_cylinder(
            joint.cylinder_radius, joint.cylinder_height, geom
        )
        assert state.progressive_tendon_length == pytest.approx(expected_lt, rel=1e-12)
        assert state.tendon_stroke == pytest.approx(2.0, abs=1e-9)

    def test_half_progression_exposes_half_length(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        state = ftl_actuation(0.5, joint, geom)
        assert state.exposed_length == pytest.approx(32.0322348, abs=1e-6)

    def test_progression_range_error(self, geom):
        with pytest.raises(DomainError):
            ftl_actuation(1.5, rest_joint(geom), geom)
        with pytest.raises(DomainError):
            ftl_tip(-0.2, rest_joint(geom), geom)

    def test_tip_trace_coincides_with_backbone(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom, roll=0.9)
        grid = np.linspace(0.0, 1.0, 101)
        trace = np.array([ftl_tip(e, joint, geom) for e in grid])
        curve = forward_kinematics(joint, geom, grid * geom.na_length)
        assert np.max(np.linalg.norm(trace - curve.points, axis=1)) < 1e-9

    def test_tip_at_zero_is_origin(self, geom):
        assert ftl_tip(0.0, rest_joint(geom), geom) == pytest.approx([0.0, 0.0, 0.0])

    def test_tip_at_one_is_full_tip(self, tendon, geom):
        joint = joint_from_actuation(2.0, 0.0, tendon, geom)
        full = forward_kinematics(joint, geom, np.array([geom.na_length])).points[-1]
        assert ftl_tip(1.0, joint, geom) == pytest.approx(list(full), abs=1e-12)


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
