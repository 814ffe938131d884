"""Configuration-independent geometry of a helically notched tube.

A quasi-helical pattern of rectangular notches is machined into the distal
portion of a superelastic tube. Cutting away most of each cross section
shifts the bending neutral axis off the tube's central axis, so the neutral
fiber of the resting tube is itself a shallow helix. Everything derived
here depends only on the as-machined dimensions, never on actuation.

``TubeSpec`` is the one place that checks those dimensions, and
``derive_geometry`` the one place that turns them into the model's
constants: the notch and composite neutral-axis offsets y_notch and y_na,
the neutral-fiber length l_na, the tendon/neutral-axis distance d_t-na and
the slack tendon length l_t0 (formulas in ``derive_geometry``).

``_finite_float`` is the package's one rule for the numbers a record is
built from: a finite real number, no bool, optionally > 0 or >= 0, stored
as a float, or ValidationError with the value's repr. ``TubeSpec``,
``TendonSpec``, ``kinematics.JointState``, ``simulation.NoiseSpec`` and
``simulation.PhantomSpec`` route every float field through it; only the
relations between fields (r_t < r_i < r_o, half-angle < pi) are checked
apart. Two checks keep their own code: ``simulation.phantom_clearance``
tests its tube radius inline, since a deployment clears every one of its
bodies and a helper call would land on each of them, and
``fileio._number`` reads JSON, where the message names the file and the
field.

Units: millimeters and radians everywhere inside the package. The only
exceptions are the tendon cross-section area (m^2) and elastic modulus
(GPa), which keep their customary units and are converted where used.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from .errors import DomainError, ValidationError

__all__ = [
    "TubeSpec",
    "TendonSpec",
    "DerivedGeometry",
    "PatternReport",
    "notch_neutral_axis_offset",
    "derive_geometry",
    "pattern_consistency",
]


def _finite_float(value, what: str, bound: str = "") -> float:
    """``value`` as a float if it is a finite real number, not a bool, and ``bound`` holds.

    ``bound`` is "" (none), "> 0" or ">= 0". Anything else raises
    ValidationError naming ``what`` and the value's repr; an int past the
    float range counts as not finite. The number fields of TubeSpec,
    TendonSpec, JointState, NoiseSpec and PhantomSpec all pass through
    here, so a str, None, True or 10**400 fails alike in each of them.
    """
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if math.isfinite(number) and {"": True, "> 0": number > 0.0, ">= 0": number >= 0.0}[bound]:
        return number
    raise ValidationError(f"{what} must be finite{bound and ' and ' + bound}, got {value!r}")


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
        turn_count: number of helical turns the pattern completes, at
            most 2**53; an integral float such as 2.0 is stored as the int 2.
        tendon_radius: radius of the actuation tendon, mm.

    Every field but the turn count is stored as a float.
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
        for name in (field.name for field in fields(self) if field.name != "turn_count"):
            bound = ">= 0" if name in ("bridge_length", "circumferential_offset") else "> 0"
            object.__setattr__(self, name, _finite_float(getattr(self, name), name, bound))
        if not self.inner_radius < self.outer_radius:
            raise ValidationError(
                f"need inner_radius < outer_radius, got {self.inner_radius} and {self.outer_radius}"
            )
        # pi is a full annulus: its neutral axis is the tube axis, so the straight
        # tube is a cylinder of radius R = y_na = 0, which no joint state has.
        if not self.remaining_half_angle < math.pi:
            raise ValidationError(
                f"remaining_half_angle must lie in (0, pi), got {self.remaining_half_angle}"
            )
        # bool is an int but no count; 1.5 or inf must not truncate to a count.
        # Past 2**53 a float skips integers; 1e200 turns overflow the helix
        # arithmetic, and a 400-digit int overflows float() itself.
        n = self.turn_count
        if isinstance(n, bool) or not isinstance(n, numbers.Real) or not (
            1 <= n <= 2**53 and float(n).is_integer()
        ):
            raise ValidationError(f"turn_count must be an integer >= 1 and <= 2**53, got {n!r}")
        object.__setattr__(self, "turn_count", int(n))
        if self.tendon_radius >= self.inner_radius:
            raise ValidationError(
                f"tendon_radius ({self.tendon_radius}) must be smaller than "
                f"inner_radius ({self.inner_radius})"
            )


@dataclass(frozen=True)
class TendonSpec:
    """Actuation tendon: full routed length (mm), cross section (m^2), modulus (GPa), stored as floats."""

    total_length: float
    cross_section_area: float
    elastic_modulus: float

    def __post_init__(self):
        for name in ("total_length", "cross_section_area", "elastic_modulus"):
            object.__setattr__(self, name, _finite_float(getattr(self, name), name, "> 0"))

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


def derive_geometry(spec: TubeSpec) -> DerivedGeometry:
    """Compute all derived constants for a tube specification.

    The spec has already checked its dimensions (w > 0, d >= 0, l > 0,
    n >= 1, 0 < r_t < r_i < r_o, half-angle in (0, pi)), so y_na > 0 and
    d_t-na > 0 follow and nothing here checks again. With w the notch
    width, d the bridge, l the patterned length, n the turn count, r_i,
    r_o and r_t the inner, outer and tendon radii:

    - notch offset y_notch = :func:`notch_neutral_axis_offset` (r_i, r_o,
      remaining half-angle), the centroid of the notched cross section;
    - composite offset y_na = y_notch * w / (w + d), or y_notch itself
      when d = 0: the bridge is a full annulus whose own offset is zero;
    - neutral-axis length l_na = sqrt(l^2 + (2 pi n y_na)^2), the length
      of a helix of n turns at radius y_na over the axial length l;
    - tendon/neutral-axis distance d_t-na = y_na + r_i - r_t: the tendon
      hugs the inner wall on the notched side, the neutral axis sits on
      the uncut side;
    - slack tendon length l_t0 = sqrt(l^2 + (2 pi n (r_i - r_t))^2), the
      tendon's helical path in the straight tube, so that zero stroke at
      zero tension maps back to the straight tube.
    """
    y_notch = notch_neutral_axis_offset(
        spec.inner_radius, spec.outer_radius, spec.remaining_half_angle
    )
    width, bridge = spec.notch_axial_width, spec.bridge_length
    # y * w / w is not always y, so no bridge keeps y_notch itself.
    y_na = y_notch if bridge == 0.0 else y_notch * width / (width + bridge)
    two_pi_n = 2.0 * math.pi * spec.turn_count
    return DerivedGeometry(
        notch_na_offset=y_notch,
        composite_na_offset=y_na,
        na_length=math.hypot(spec.patterned_length, two_pi_n * y_na),
        tendon_na_distance=y_na + spec.inner_radius - spec.tendon_radius,
        slack_tendon_length=math.hypot(
            spec.patterned_length, two_pi_n * (spec.inner_radius - spec.tendon_radius)
        ),
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
