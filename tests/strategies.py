"""Hypothesis strategies shared by the property tests."""

import math

from hypothesis import strategies as st

from helikin.geometry import TubeSpec


@st.composite
def tube_specs(draw):
    """Valid ``TubeSpec``s over the dimensions the kinematics is built for.

    Inner radius 0.2-5 mm, wall 2-60 % and tendon radius 2-50 % of the
    inner radius, patterned length 5-300 mm, 1-3 turns. The bridge is
    either 0 or at least 0.01 mm: a bridge far below the notch width would
    let w + d round to w.
    """
    inner = draw(st.floats(0.2, 5.0))
    return TubeSpec(
        inner_radius=inner,
        outer_radius=inner * (1.0 + draw(st.floats(0.02, 0.6))),
        notch_axial_width=draw(st.floats(0.05, 3.0)),
        notch_circumferential_extent=draw(st.floats(0.01, 10.0)),
        bridge_length=draw(st.just(0.0) | st.floats(0.01, 3.0)),
        circumferential_offset=draw(st.floats(0.0, 1.0)),
        patterned_length=draw(st.floats(5.0, 300.0)),
        remaining_half_angle=draw(st.floats(0.05, math.pi, exclude_max=True)),
        turn_count=draw(st.integers(1, 3)),
        tendon_radius=inner * draw(st.floats(0.02, 0.5)),
    )
