import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helikin.errors import DomainError, ValidationError
from helikin.geometry import (
    TendonSpec,
    TubeSpec,
    composite_neutral_axis_offset,
    derive_geometry,
    neutral_axis_length,
    notch_neutral_axis_offset,
    pattern_consistency,
    slack_tendon_length,
    tendon_neutral_axis_distance,
)
from helikin.kinematics import cylinder_from_tendon_length
from helikin.presets import compact_prototype_tube, default_tube

from .oracles import helix_arclength_chords, midpoint_notch_offset

# Frozen from the quadrature / chord-sum / zero-stroke oracles in this file.
Y_NOTCH_EXPECTED = 0.7316983150467443
Y_NA_EXPECTED = 0.45731144690421516
L_NA_EXPECTED = 64.06446963716715
D_T_NA_EXPECTED = 1.1933114469042152
L_T0_EXPECTED = 64.16685515827163
L_T0_TWO_TURNS = 64.66483745908931


class TestNotchOffset:
    def test_reference_tube_matches_published_value(self, tube):
        offset = notch_neutral_axis_offset(
            tube.inner_radius, tube.outer_radius, tube.remaining_half_angle
        )
        assert offset == pytest.approx(0.7318, abs=5e-4)
        assert offset == pytest.approx(Y_NOTCH_EXPECTED, rel=1e-12)

    def test_full_annulus_is_symmetric(self):
        assert notch_neutral_axis_offset(0.851, 0.953, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_solid_rod_half_sector(self):
        # quadrature oracle pins 4/(3 pi) for r in [0, 1], psi in [-90, 90] deg
        oracle = midpoint_notch_offset(0.0, 1.0, math.pi / 2.0)
        value = notch_neutral_axis_offset(0.0, 1.0, math.pi / 2.0)
        assert value == pytest.approx(oracle, rel=1e-6)
        assert value == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-12)

    def test_matches_quadrature_on_randomized_geometries(self, rng):
        for _ in range(100):
            inner = rng.uniform(0.05, 2.0)
            outer = inner + rng.uniform(0.02, 2.0)
            half_angle = rng.uniform(0.15, 2.75)
            closed = notch_neutral_axis_offset(inner, outer, half_angle)
            quad = midpoint_notch_offset(inner, outer, half_angle)
            assert closed == pytest.approx(quad, rel=1e-6)

    @given(
        inner=st.floats(0.05, 2.0),
        thickness=st.floats(0.02, 2.0),
        lo=st.floats(0.1, 2.9),
        shrink=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_offset_grows_as_half_angle_shrinks(self, inner, thickness, lo, shrink):
        hi = min(lo + shrink, math.pi - 1e-6)
        outer = inner + thickness
        assert notch_neutral_axis_offset(inner, outer, lo) > notch_neutral_axis_offset(
            inner, outer, hi
        )

    def test_rejects_bad_domains(self):
        with pytest.raises(DomainError):
            notch_neutral_axis_offset(1.0, 0.9, 1.0)
        with pytest.raises(DomainError):
            notch_neutral_axis_offset(0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            notch_neutral_axis_offset(0.5, 1.0, 3.2)


class TestCompositeOffset:
    def test_reference_tube(self):
        assert composite_neutral_axis_offset(Y_NOTCH_EXPECTED, 0.5, 0.3) == pytest.approx(
            0.4574, abs=5e-4
        )

    def test_no_bridge_returns_notch_offset(self):
        assert composite_neutral_axis_offset(0.71, 0.4, 0.0) == 0.71

    def test_equal_widths_halve_the_offset(self):
        assert composite_neutral_axis_offset(0.71, 0.35, 0.35) == pytest.approx(0.355)

    def test_rejects_zero_notch_width(self):
        with pytest.raises(DomainError):
            composite_neutral_axis_offset(0.7, 0.0, 0.3)

    @given(
        offset=st.floats(0.01, 2.0),
        width=st.floats(0.01, 2.0),
        bridge=st.floats(0.001, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_composite_strictly_between_zero_and_notch(self, offset, width, bridge):
        composite = composite_neutral_axis_offset(offset, width, bridge)
        assert 0.0 < composite < offset


class TestNeutralAxisLength:
    def test_reference_value_against_chord_sums(self):
        expected = helix_arclength_chords(64.0, 0.4574)
        value = neutral_axis_length(64.0, 0.4574)
        assert value == pytest.approx(expected, rel=1e-9)
        assert value == pytest.approx(64.0645, abs=5e-4)

    def test_zero_offset_is_straight(self):
        assert neutral_axis_length(64.0, 0.0, 3) == 64.0

    def test_two_turns_against_chord_sums(self):
        expected = helix_arclength_chords(64.0, 0.4574, turns=2)
        value = neutral_axis_length(64.0, 0.4574, 2)
        assert value == pytest.approx(expected, rel=1e-9)
        assert value == pytest.approx(64.2575899848, rel=1e-10)


class TestTendonDistance:
    def test_reference_tube(self):
        assert tendon_neutral_axis_distance(0.4574, 0.851, 0.115) == pytest.approx(1.1934)

    def test_degenerate_tendon_filling_lumen(self):
        with pytest.raises(DomainError):
            tendon_neutral_axis_distance(0.0, 1.0, 1.0)

    def test_direct_sum(self):
        assert tendon_neutral_axis_distance(0.5, 1.0, 0.1) == pytest.approx(1.4)


class TestSlackTendonLength:
    def test_zero_stroke_yields_straight_tube(self, tube, geom):
        # the defining property: feeding the slack length through the
        # cylinder map must return exactly the rest geometry
        radius, height = cylinder_from_tendon_length(geom.slack_tendon_length, geom)
        assert radius == pytest.approx(geom.composite_na_offset, rel=1e-9)
        assert height == pytest.approx(tube.patterned_length, rel=1e-9)
        assert geom.slack_tendon_length == pytest.approx(L_T0_EXPECTED, rel=1e-12)

    def test_axial_tendon_collapses_to_patterned_length(self, tube):
        spec = TubeSpec(
            inner_radius=tube.inner_radius,
            outer_radius=tube.outer_radius,
            notch_axial_width=tube.notch_axial_width,
            notch_circumferential_extent=tube.notch_circumferential_extent,
            bridge_length=tube.bridge_length,
            circumferential_offset=tube.circumferential_offset,
            patterned_length=tube.patterned_length,
            remaining_half_angle=tube.remaining_half_angle,
            turn_count=tube.turn_count,
            tendon_radius=tube.inner_radius - 1e-15,
        )
        assert slack_tendon_length(spec) == pytest.approx(tube.patterned_length)

    def test_two_turns_zero_stroke_oracle(self, tube):
        spec = TubeSpec(
            inner_radius=tube.inner_radius,
            outer_radius=tube.outer_radius,
            notch_axial_width=tube.notch_axial_width,
            notch_circumferential_extent=tube.notch_circumferential_extent,
            bridge_length=tube.bridge_length,
            circumferential_offset=tube.circumferential_offset,
            patterned_length=tube.patterned_length,
            remaining_half_angle=tube.remaining_half_angle,
            turn_count=2,
            tendon_radius=tube.tendon_radius,
        )
        geom2 = derive_geometry(spec)
        assert geom2.slack_tendon_length == pytest.approx(L_T0_TWO_TURNS, rel=1e-12)
        radius, height = cylinder_from_tendon_length(geom2.slack_tendon_length, geom2)
        assert radius == pytest.approx(geom2.composite_na_offset, rel=1e-9)
        assert height == pytest.approx(spec.patterned_length, rel=1e-9)


class TestDeriveGeometry:
    def test_reference_tube_all_fields(self, geom):
        assert geom.notch_na_offset == pytest.approx(Y_NOTCH_EXPECTED, rel=1e-12)
        assert geom.composite_na_offset == pytest.approx(Y_NA_EXPECTED, rel=1e-12)
        assert geom.na_length == pytest.approx(L_NA_EXPECTED, rel=1e-12)
        assert geom.tendon_na_distance == pytest.approx(D_T_NA_EXPECTED, rel=1e-12)
        assert geom.slack_tendon_length == pytest.approx(L_T0_EXPECTED, rel=1e-12)

    def test_field_ordering_invariants(self, geom, tube):
        assert 0.0 < geom.composite_na_offset < geom.notch_na_offset < tube.outer_radius
        assert geom.na_length >= tube.patterned_length
        assert geom.slack_tendon_length >= tube.patterned_length
        assert geom.tendon_na_distance == pytest.approx(
            geom.composite_na_offset + tube.inner_radius - tube.tendon_radius
        )

    def test_compact_prototype_derives_cleanly(self):
        geom = derive_geometry(compact_prototype_tube())
        assert geom.composite_na_offset > 0.0
        assert geom.na_length > 75.4


class TestPatternConsistency:
    def test_reference_tube_closes_one_turn(self, tube):
        report = pattern_consistency(tube)
        assert report.notch_count == pytest.approx(80.0)
        assert report.closure_ratio == pytest.approx(
            80.0 * 0.075 / (2.0 * math.pi * 0.953), rel=1e-12
        )
        assert abs(report.closure_ratio - 1.0) < 0.02
        assert math.degrees(report.half_angle_residual) < 0.1
        assert report.consistent

    def test_zero_offset_is_flagged_serpentine(self, tube):
        spec = TubeSpec(
            inner_radius=tube.inner_radius,
            outer_radius=tube.outer_radius,
            notch_axial_width=tube.notch_axial_width,
            notch_circumferential_extent=tube.notch_circumferential_extent,
            bridge_length=tube.bridge_length,
            circumferential_offset=0.0,
            patterned_length=tube.patterned_length,
            remaining_half_angle=tube.remaining_half_angle,
            turn_count=tube.turn_count,
            tendon_radius=tube.tendon_radius,
        )
        report = pattern_consistency(spec)
        assert report.closure_ratio == 0.0
        assert not report.consistent

    def test_noninteger_notch_count_is_flagged(self, tube):
        spec = TubeSpec(
            inner_radius=tube.inner_radius,
            outer_radius=tube.outer_radius,
            notch_axial_width=0.51,
            notch_circumferential_extent=tube.notch_circumferential_extent,
            bridge_length=tube.bridge_length,
            circumferential_offset=tube.circumferential_offset,
            patterned_length=tube.patterned_length,
            remaining_half_angle=tube.remaining_half_angle,
            turn_count=tube.turn_count,
            tendon_radius=tube.tendon_radius,
        )
        report = pattern_consistency(spec)
        assert report.notch_count != round(report.notch_count)
        assert any("integer" in flag for flag in report.flags)


class TestTubeSpecValidation:
    def test_default_is_valid(self):
        default_tube()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("inner_radius", 0.0),
            ("inner_radius", 1.0),  # >= outer
            ("outer_radius", 0.5),  # <= inner
            ("notch_axial_width", 0.0),
            ("patterned_length", -1.0),
            ("remaining_half_angle", 0.0),
            ("remaining_half_angle", 3.2),
            ("turn_count", 0),
            ("tendon_radius", 0.9),  # >= inner radius
            # NaN fails every comparison; inf is caught by isfinite.
            ("inner_radius", math.nan),
            ("outer_radius", math.nan),
            ("outer_radius", math.inf),
            ("notch_axial_width", math.nan),
            ("notch_circumferential_extent", math.inf),
            ("bridge_length", math.nan),
            ("bridge_length", math.inf),
            ("circumferential_offset", math.nan),
            ("patterned_length", math.nan),
            ("patterned_length", math.inf),
            ("remaining_half_angle", math.nan),
            ("turn_count", math.nan),
            ("turn_count", math.inf),
            # A count must not truncate: 1.5 is no count, and neither is True.
            ("turn_count", 1.5),
            ("turn_count", True),
            ("turn_count", "2"),
            ("tendon_radius", math.nan),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        values = dict(
            inner_radius=0.851,
            outer_radius=0.953,
            notch_axial_width=0.5,
            notch_circumferential_extent=3.892,
            bridge_length=0.3,
            circumferential_offset=0.075,
            patterned_length=64.0,
            remaining_half_angle=math.radians(63.0),
            turn_count=1,
            tendon_radius=0.115,
        )
        values[field] = value
        with pytest.raises(ValidationError):
            TubeSpec(**values)


class TestTendonSpecValidation:
    @pytest.mark.parametrize("field", ["total_length", "cross_section_area", "elastic_modulus"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_fields(self, field, value):
        values = dict(total_length=475.0, cross_section_area=1.135e-6, elastic_modulus=53.97)
        values[field] = value
        with pytest.raises(ValidationError, match=field):
            TendonSpec(**values)

    @pytest.mark.parametrize("value", [2, 2.0])
    def test_integral_turn_count_stored_as_int(self, tube, value):
        spec = dataclasses.replace(tube, turn_count=value)
        assert spec.turn_count == 2 and type(spec.turn_count) is int
        geom = derive_geometry(spec)
        assert geom.turn_count == 2 and type(geom.turn_count) is int
