"""Geometric toolkit for a helically notched tendon-driven continuum robot.

The model in one breath: a quasi-helical notch pattern moves the tube's
neutral axis off center, so pulling a single tendon wraps the tube around
an imaginary cylinder; radius and height of that cylinder, plus a
deflection and a roll angle, fully determine the deployed shape, and
translating the tube out of its stiff sheath while rotating it
synchronously yields follow-the-leader deployment along a fixed helix.

Modules by pipeline stage: :mod:`~helikin.geometry` (machined-pattern
constants), :mod:`~helikin.kinematics` (actuation to 3-D shape),
:mod:`~helikin.estimation` (joint-state estimators and error metrics),
:mod:`~helikin.simulation` (synthetic experiments, FTL fidelity,
clearance). Around them: :mod:`~helikin.presets` (the reference device),
:mod:`~helikin.errors` (exception classes), :mod:`~helikin.fileio` (JSON
and CSV formats), :mod:`~helikin.svgplot` (SVG plots) and
:mod:`~helikin.cli` (file-based command-line front end). Import each name
from its module, whose ``__all__`` lists its public names: the package
re-exports none, and importing it loads no submodule and no numpy.
"""

__version__ = "0.1.0"
