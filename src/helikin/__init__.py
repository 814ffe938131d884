"""Geometric toolkit for a helically notched tendon-driven continuum robot.

The model in one breath: a quasi-helical notch pattern moves the tube's
neutral axis off center, so pulling a single tendon wraps the tube around
an imaginary cylinder; radius and height of that cylinder, plus a
deflection and a roll angle, fully determine the deployed shape, and
translating the tube out of its stiff sheath while rotating it
synchronously yields follow-the-leader deployment along a fixed helix.

Subpackages by pipeline stage: :mod:`~helikin.geometry` (machined-pattern
constants), :mod:`~helikin.kinematics` (actuation to 3-D shape),
:mod:`~helikin.estimation` (joint-state estimators and error metrics),
:mod:`~helikin.simulation` (synthetic experiments, FTL fidelity,
clearance), :mod:`~helikin.cli` (file-based command-line front end).
"""

from .errors import (
    DomainError,
    GridMismatchError,
    HelikinError,
    NonPhysicalError,
    OverActuationError,
    ValidationError,
)
from .estimation import (
    EstimateResult,
    Method,
    PositionEstimate,
    TrajectoryComparison,
    compare_point_sequences,
    max_euclidean_distance,
    position_based_estimate,
    repeatability_compare,
    rmse,
    stroke_based_estimate,
)
from .geometry import (
    DerivedGeometry,
    PatternReport,
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
from .kinematics import (
    BackboneCurve,
    JointState,
    TipTrajectory,
    backbone_samples,
    cylinder_from_tendon_length,
    deflection_angle,
    forward_kinematics,
    joint_from_actuation,
    rest_joint,
    tendon_length_from_cylinder,
    tendon_length_from_stroke,
)
from .simulation import (
    NoiseSpec,
    PhantomSpec,
    SyntheticDataset,
    default_eta_grid,
    ftl_fidelity,
    ftl_run,
    phantom_clearance,
    phantom_on_cylinder_axis,
    synthetic_sweep,
)

__version__ = "0.1.0"
