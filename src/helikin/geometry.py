"""Configuration-independent geometry of a helically notched tube.

A quasi-helical pattern of rectangular notches is machined into the distal
portion of a superelastic tube. Cutting away most of each cross section
shifts the bending neutral axis off the tube's central axis, so the neutral
fiber of the resting tube is itself a shallow helix. Everything derived
here depends only on the as-machined dimensions, never on actuation.

Units: millimeters and radians everywhere inside the package. The only
exceptions are the tendon cross-section area (m^2) and elastic modulus
(GPa), which keep their customary units and are converted where used.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DomainError, ValidationError

__all__ = [
    "TubeSpec",
    "TendonSpec",
    "DerivedGeometry",
    "PatternReport",
    "notch_neutral_axis_offset",
    "composite_neutral_axis_offset",
    "neutral_axis_length",
    "tendon_neutral_axis_distance",
    "slack_tendon_length",
    "derive_geometry",
    "pattern_consistency",
]


@dataclass(frozen=True)
class TubeSpec:
    """As-machined dimensions of the notched inner tube.

    Attributes:
        inner_radius: tube inner radius, mm.
        outer_radius: tube outer radius, mm.
        notch_axial_width: axial extent of one rectangular notch, mm.
        notch_circumferential_extent: circumferential notch extent, mm of
            arc measured at the outer radius.
        bridge_length: axial length of uncut material between notches, mm.
        circumferential_offset: circumferential shift between consecutive
            notches, mm (this is what makes the pattern helical).
        patterned_length: axial length of the machined region, mm.
        remaining_half_angle: half-angle of the uncut wall arc in a notched
            cross section, rad.
        turn_count: number of helical turns the pattern completes; an
            integral float such as 2.0 is stored as the int 2.
        tendon_radius: radius of the actuation tendon, mm.
    """

    inner_radius: float
    outer_radius: float
    notch_axial_width: float
    notch_circumferential_extent: float
    bridge_length: float
    circumferential_offset: float
    patterned_length: float
    remaining_half_angle: float
    turn_count: int = 1
    tendon_radius: float = 0.0

    def __post_init__(self):
        # Guards read not (x > 0) and not (x >= 0), which NaN fails too;
        # isfinite rejects inf.
        if not (0.0 < self.inner_radius < self.outer_radius and math.isfinite(self.outer_radius)):
            raise ValidationError(
                f"need 0 < inner_radius < outer_radius, both finite, got "
                f"{self.inner_radius} and {self.outer_radius}"
            )
        positive = {
            "notch_axial_width": self.notch_axial_width,
            "notch_circumferential_extent": self.notch_circumferential_extent,
            "patterned_length": self.patterned_length,
            "tendon_radius": self.tendon_radius,
        }
        for name, value in positive.items():
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be finite and > 0, got {value}")
        for name in ("bridge_length", "circumferential_offset"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        # pi itself is tolerated: a full annulus means zero offset, which the
        # geometry pipeline reports with a warning instead of rejecting.
        if not 0.0 < self.remaining_half_angle <= math.pi:
            raise ValidationError(
                f"remaining_half_angle must lie in (0, pi], got {self.remaining_half_angle}"
            )
        # bool is an int but no count; 1.5 or inf must not truncate to a count.
        n = self.turn_count
        if isinstance(n, bool) or not isinstance(n, numbers.Real) or not (
            n >= 1 and float(n).is_integer()
        ):
            raise ValidationError(f"turn_count must be an integer >= 1, got {n!r}")
        object.__setattr__(self, "turn_count", int(n))
        if self.tendon_radius >= self.inner_radius:
            raise ValidationError(
                f"tendon_radius ({self.tendon_radius}) must be smaller than "
                f"inner_radius ({self.inner_radius})"
            )


@dataclass(frozen=True)
class TendonSpec:
    """Actuation tendon: full routed length (mm), cross section (m^2), modulus (GPa)."""

    total_length: float
    cross_section_area: float
    elastic_modulus: float

    def __post_init__(self):
        for name in ("total_length", "cross_section_area", "elastic_modulus"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be finite and > 0, got {value}")

    @property
    def stiffness_n(self) -> float:
        """Axial stiffness A*E in newtons (area m^2 times modulus in Pa)."""
        return self.cross_section_area * self.elastic_modulus * 1e9


@dataclass(frozen=True)
class DerivedGeometry:
    """Constants computed once from a :class:`TubeSpec`.

    Lengths in mm:
        notch_na_offset: neutral-axis offset of a notched cross section.
        composite_na_offset: width-averaged offset over notch plus bridge.
        na_length: arc length of the helical neutral fiber.
        tendon_na_distance: fixed distance between tendon and neutral axis.
        slack_tendon_length: tendon length routed through the patterned
            region when the tube is straight and the tendon untensioned.

    turn_count: the spec's helical turn count n, copied so that the
        geometry alone fixes every kinematic map; functions that take a
        DerivedGeometry read n from it.
    """

    notch_na_offset: float
    composite_na_offset: float
    na_length: float
    tendon_na_distance: float
    slack_tendon_length: float
    turn_count: int


def _check_turn_count(geom: DerivedGeometry, given: int | None) -> None:
    """Reject a turn count that is given and differs from the geometry's, which fixes n."""
    if given is not None and given != geom.turn_count:
        raise ValidationError(f"turn count {given!r} differs from the geometry's {geom.turn_count}")


def notch_neutral_axis_offset(
    inner_radius: float, outer_radius: float, half_angle: float
) -> float:
    """Neutral-axis offset of a single notched cross section, mm.

    The remaining wall is the annular sector r in [inner_radius,
    outer_radius], angle in [-half_angle, +half_angle]. The offset is its
    area centroid along the symmetry direction:

        ( integral r^2 cos(psi) dpsi dr ) / ( integral r dpsi dr )

    which evaluates in closed form to
    (2/3) sin(psi_max) (Ro^3 - Ri^3) / (psi_max (Ro^2 - Ri^2)).
    inner_radius 0 (solid rod sector) is allowed.
    """
    if not 0.0 <= inner_radius < outer_radius:
        raise DomainError(
            f"need 0 <= inner_radius < outer_radius, got {inner_radius} and {outer_radius}"
        )
    if not 0.0 < half_angle <= math.pi:
        raise DomainError(f"half_angle outside (0, pi]: {half_angle}")
    return (
        (2.0 / 3.0)
        * math.sin(half_angle)
        * (outer_radius**3 - inner_radius**3)
        / (half_angle * (outer_radius**2 - inner_radius**2))
    )


def composite_neutral_axis_offset(notch_offset: float, notch_width: float, bridge_length: float) -> float:
    """Axial-width-weighted average of notch and bridge offsets, mm.

    The bridge is a full annulus, so its own offset is exactly zero; the
    composite is notch_offset * w / (w + d).
    """
    if notch_width <= 0.0:
        raise DomainError(f"notch_width must be > 0, got {notch_width}")
    if bridge_length < 0.0:
        raise DomainError(f"bridge_length must be >= 0, got {bridge_length}")
    if bridge_length == 0.0:
        return notch_offset
    return notch_offset * notch_width / (notch_width + bridge_length)


def neutral_axis_length(patterned_length: float, na_offset: float, turn_count: int = 1) -> float:
    """Arc length of the helical neutral fiber, mm.

    A helix of axial length ``l`` winding ``n`` full turns at radius
    ``y`` has length sqrt(l^2 + (2 pi n y)^2).
    """
    if patterned_length <= 0.0:
        raise DomainError(f"patterned_length must be > 0, got {patterned_length}")
    if na_offset < 0.0:
        raise DomainError(f"na_offset must be >= 0, got {na_offset}")
    if turn_count < 1:
        raise DomainError(f"turn_count must be >= 1, got {turn_count}")
    return math.hypot(patterned_length, 2.0 * math.pi * turn_count * na_offset)


def tendon_neutral_axis_distance(na_offset: float, inner_radius: float, tendon_radius: float) -> float:
    """Distance between the tendon centerline and the neutral axis, mm.

    The tendon hugs the inner wall on the notched side while the neutral
    axis sits on the uncut side, so the two are separated by
    na_offset + inner_radius - tendon_radius.
    """
    if tendon_radius >= inner_radius:
        raise DomainError(
            f"tendon_radius ({tendon_radius}) must be smaller than inner_radius ({inner_radius})"
        )
    distance = na_offset + inner_radius - tendon_radius
    if distance <= 0.0:
        raise DomainError(f"tendon/neutral-axis distance must be positive, got {distance}")
    return distance


def slack_tendon_length(spec: TubeSpec) -> float:
    """Tendon length through the patterned region at rest, mm.

    Defined as the length of the helical path the tendon occupies when the
    tube is straight: radius inner_radius - tendon_radius about the tube
    axis, axial length patterned_length, turn_count turns. Under this
    convention zero stroke at zero tension maps back to the straight tube.
    """
    return math.hypot(
        spec.patterned_length,
        2.0 * math.pi * spec.turn_count * (spec.inner_radius - spec.tendon_radius),
    )


def derive_geometry(spec: TubeSpec) -> DerivedGeometry:
    """Compute all derived constants for a tube specification."""
    y_notch = notch_neutral_axis_offset(
        spec.inner_radius, spec.outer_radius, spec.remaining_half_angle
    )
    y_na = composite_neutral_axis_offset(y_notch, spec.notch_axial_width, spec.bridge_length)
    return DerivedGeometry(
        notch_na_offset=y_notch,
        composite_na_offset=y_na,
        na_length=neutral_axis_length(spec.patterned_length, y_na, spec.turn_count),
        tendon_na_distance=tendon_neutral_axis_distance(
            y_na, spec.inner_radius, spec.tendon_radius
        ),
        slack_tendon_length=slack_tendon_length(spec),
        turn_count=spec.turn_count,
    )


# Diagnostic thresholds for pattern_consistency.
CLOSURE_RATIO_TOLERANCE = 0.02      # relative deviation of closure ratio from the turn count
HALF_ANGLE_TOLERANCE_RAD = math.radians(1.0)
NOTCH_COUNT_INTEGER_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PatternReport:
    """Self-consistency diagnostics of the machined notch pattern.

    Attributes:
        notch_count: patterned_length / (notch width + bridge), ideally integer.
        closure_ratio: total circumferential drift of the pattern divided by
            the outer circumference; equals turn_count for a closed helix.
        half_angle_residual: |remaining_half_angle - (2 pi - h/Ro)/2|, rad.
        flags: human-readable descriptions of anything suspicious.
    """

    notch_count: float
    closure_ratio: float
    half_angle_residual: float
    flags: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.flags


def pattern_consistency(spec: TubeSpec) -> PatternReport:
    """Check that the notch pattern closes into the declared helix.

    Purely diagnostic: inconsistencies are reported, never raised.
    """
    pitch = spec.notch_axial_width + spec.bridge_length
    notch_count = spec.patterned_length / pitch
    closure_ratio = notch_count * spec.circumferential_offset / (2.0 * math.pi * spec.outer_radius)
    implied_half_angle = (2.0 * math.pi - spec.notch_circumferential_extent / spec.outer_radius) / 2.0
    residual = abs(spec.remaining_half_angle - implied_half_angle)

    flags = []
    if abs(notch_count - round(notch_count)) > NOTCH_COUNT_INTEGER_TOLERANCE:
        flags.append(
            f"notch count {notch_count:.6g} is not an integer; "
            f"pitch {pitch:.6g} mm does not divide the patterned length"
        )
    turns = spec.turn_count
    if abs(closure_ratio - turns) > CLOSURE_RATIO_TOLERANCE * turns:
        flags.append(
            f"closure ratio {closure_ratio:.4f} deviates from turn count "
            f"{turns} by more than {CLOSURE_RATIO_TOLERANCE:.0%}"
        )
    if residual > HALF_ANGLE_TOLERANCE_RAD:
        flags.append(
            f"remaining half-angle differs from the value implied by the "
            f"circumferential extent by {math.degrees(residual):.3f} deg"
        )
    return PatternReport(
        notch_count=notch_count,
        closure_ratio=closure_ratio,
        half_angle_residual=residual,
        flags=tuple(flags),
    )
