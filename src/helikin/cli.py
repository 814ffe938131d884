"""Command-line interface.

Every stage of the pipeline is exposed as a subcommand with file-based
I/O. Units everywhere: lengths in mm, tensions in N; angles are given in
degrees on the command line and converted to radians internally.

Exit codes: 0 success, 2 validation failure (bad spec/file/arguments, or a
curve ``plot`` cannot draw), 3 numerical failure (e.g. over-actuated stroke,
or a JSON summary that would not be finite), 4 I/O failure or out of memory.
numpy's overflow warnings stay off: an error line is the one report a
failed run writes, and a non-finite summary is refused where it is written.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio, presets, svgplot
from .errors import DomainError, GridMismatchError, ValidationError
from .estimation import position_based_estimate, repeatability_compare, stroke_based_estimate
from .geometry import DerivedGeometry, TendonSpec, TubeSpec, derive_geometry, pattern_consistency
from .kinematics import DEFAULT_BACKBONE_SAMPLES, JointState, backbone_samples, forward_kinematics, joint_from_actuation
from .simulation import (
    DEFAULT_ETA_STEPS,
    NoiseSpec,
    default_eta_grid,
    ftl_fidelity,
    ftl_run,
    phantom_clearance,
    phantom_on_cylinder_axis,
    synthetic_sweep,
)

SPEC_PATH_ENV = "HELIKIN_TUBE_SPEC"

_UNITS_NOTE = "Units: lengths mm, tensions N, angles deg on the command line (rad in files)."


def _load_specs(path: str | None) -> tuple[TubeSpec, TendonSpec]:
    """Resolve the tube/tendon specs: --spec flag, env var, else bundled."""
    if path is None:
        path = os.environ.get(SPEC_PATH_ENV)
    if path is None:
        return presets.default_tube(), presets.default_tendon()
    tube, tendon = fileio.load_device_spec(path)
    return tube, tendon if tendon is not None else presets.default_tendon()


def _stroke_profile(args: argparse.Namespace) -> list[tuple[float, float]]:
    if args.strokes is not None:
        return fileio.read_strokes_csv(args.strokes)
    if args.stroke_max is None:
        raise ValidationError("provide either --strokes CSV or --stroke-max")
    if args.steps < 2:
        raise ValidationError(f"--steps must be >= 2, got {args.steps}")
    for option, value in (("--stroke-max", args.stroke_max), ("--tension", args.tension)):
        if not math.isfinite(value):
            raise ValidationError(f"{option} must be finite, got {value}")
    ramp = np.linspace(0.0, args.stroke_max, args.steps)
    return [(float(v), args.tension) for v in ramp]


def cmd_geometry(args: argparse.Namespace) -> int:
    tube, _ = _load_specs(args.spec)
    geom = derive_geometry(tube)
    report = pattern_consistency(tube)

    lines = [
        "derived geometry (mm):",
        f"  notch neutral-axis offset   {geom.notch_na_offset:.6f}",
        f"  composite neutral-axis offset {geom.composite_na_offset:.6f}",
        f"  neutral-axis length         {geom.na_length:.6f}",
        f"  tendon/neutral-axis distance {geom.tendon_na_distance:.6f}",
        f"  slack tendon length         {geom.slack_tendon_length:.6f}",
        "pattern diagnostics:",
        f"  notch count                 {report.notch_count:.6g}",
        f"  circumferential closure     {report.closure_ratio:.6g} (turns: {tube.turn_count})",
        f"  half-angle residual         {math.degrees(report.half_angle_residual):.6g} deg",
    ]
    for flag in report.flags:
        lines.append(f"  warning: {flag}")
    if geom.notch_na_offset < 1e-12:
        lines.append("  warning: neutral-axis offset is zero; tube cannot form a helix")
    print("\n".join(lines))
    if args.output:
        fileio.atomic_write_text(args.output, fileio.dump_derived_geometry(geom))
    return 0


def cmd_shape(args: argparse.Namespace) -> int:
    tube, tendon = _load_specs(args.spec)
    geom = derive_geometry(tube)
    joint = joint_from_actuation(args.stroke, args.tension, tendon, geom, math.radians(args.theta_deg))
    curve = forward_kinematics(joint, geom, backbone_samples(geom.na_length, args.samples))
    fileio.write_backbone_csv(args.output, curve)
    print(
        f"R = {joint.cylinder_radius:.6f} mm, H = {joint.cylinder_height:.6f} mm, "
        f"phi = {joint.deflection:.6f} rad; wrote {len(curve)} samples to {fileio._printable(args.output)}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    tube, tendon = _load_specs(args.spec)
    geom = derive_geometry(tube)
    profile = _stroke_profile(args)
    markers = list(presets.MARKER_ARCLENGTHS_MM)
    if args.markers is not None:
        markers = []
        for cell in args.markers.split(","):
            try:
                markers.append(float(cell))
            except ValueError:
                raise ValidationError(f"--markers: not an arc length: {cell!r}") from None
    noise = NoiseSpec(
        position_sigma=args.noise_sigma, stroke_sigma=args.stroke_sigma, seed=args.seed
    )
    dataset = synthetic_sweep(
        geom, tendon, profile, markers, noise, math.radians(args.theta_deg), tube
    )
    if args.dataset_dir:
        written = fileio.write_dataset_bundle(args.dataset_dir, dataset)
        print(f"wrote {len(written)} dataset files to {fileio._printable(args.dataset_dir)}")
    fileio.write_joints_csv(args.output, dataset)
    for index, message in dataset.failures:
        print(f"sample {index}: {message}", file=sys.stderr)
    print(
        f"swept {dataset.n_samples} samples "
        f"({dataset.n_samples - len(dataset.failures)} ok) -> {fileio._printable(args.output)}"
    )
    return 0


def _ftl_stage(joint: JointState, geom: DerivedGeometry, grid: np.ndarray, tip_path: str | Path) -> tuple:
    """Deploy over an eta grid, write the tip CSV and return (tip, bodies, fidelity)."""
    tip, bodies = ftl_run(joint, geom, grid)
    fileio.write_tip_csv(tip_path, tip)
    return tip, bodies, ftl_fidelity(tip, forward_kinematics(joint, geom, grid * geom.na_length))


def cmd_ftl(args: argparse.Namespace) -> int:
    tube, tendon = _load_specs(args.spec)
    geom = derive_geometry(tube)
    joint = joint_from_actuation(args.stroke, args.tension, tendon, geom, math.radians(args.theta_deg))
    grid = default_eta_grid(args.eta_steps)
    _, bodies, fidelity = _ftl_stage(joint, geom, grid, args.output)
    if args.bodies_dir:
        directory = Path(args.bodies_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for tag, body in zip(fileio._distinct_tags(grid, "f", 4), bodies):
            fileio.write_backbone_csv(directory / f"body_eta_{tag}.csv", body)
    print(
        f"FTL run over {len(grid)} eta steps; tip-vs-body max distance "
        f"{fidelity.max_distance:.3e} mm -> {fileio._printable(args.output)}"
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    tube, tendon = _load_specs(args.spec)
    geom = derive_geometry(tube)
    if args.method == "stroke":
        if _first_cell(args.input) == "eta":
            data = fileio.read_marker_csv(args.input)
            if data["strokes"] is None:
                raise ValidationError(
                    f"{args.input}: stroke-based estimation needs dl_t_mm/T_N columns"
                )
            profile = list(zip(data["strokes"], data["tensions"]))
        else:
            profile = fileio.read_strokes_csv(args.input)
        result = stroke_based_estimate(profile, geom, tendon, math.radians(args.theta_deg))
        fileio.write_joints_csv(args.output, result)
        for index, message in result.failures:
            print(f"sample {index}: {message}", file=sys.stderr)
        n = len(profile)
        print(f"stroke-based estimates: {n - len(result.failures)}/{n} ok -> {fileio._printable(args.output)}")
        return 0

    data = fileio.read_marker_csv(args.input)
    # Like the stroke path: a failed sample becomes a nan row.
    values = np.full((len(data["index"]), 4), math.nan)
    failures = []
    for i, point in enumerate(data["points"]):
        try:
            est = position_based_estimate(point, geom)
        except DomainError as exc:
            failures.append((i, str(exc)))
        else:
            values[i] = (est.cylinder_height, est.phi_truth, est.cylinder_radius, est.phi_model)
    fileio.write_table_csv(
        args.output, ["eta", "H_mm", "phi_truth_rad", "R_mm", "phi_model_rad"], [data["index"], *values.T]
    )
    for index, message in failures:
        print(f"sample {index}: {message}", file=sys.stderr)
    n = len(data["index"])
    print(f"position-based estimates: {n - len(failures)}/{n} ok -> {fileio._printable(args.output)}")
    return 3 if n and len(failures) == n else 0


def _first_cell(path: str) -> str:
    """The first header cell of a CSV, which tells its kind, parsed as the readers parse it."""
    with fileio._open_text(path) as handle:
        return (next(csv.reader([handle.readline()])) or [""])[0]


def cmd_compare(args: argparse.Namespace) -> int:
    trial_a = fileio.read_tip_csv(args.trajectory_a)
    trial_b = fileio.read_tip_csv(args.trajectory_b)
    grid, comparison = repeatability_compare(trial_a, trial_b)
    sys.stdout.write(fileio.comparison_to_json(comparison))
    if args.per_sample:
        fileio.write_comparison_csv(args.per_sample, grid, comparison)
    return 0


def cmd_clearance(args: argparse.Namespace) -> int:
    curve = fileio.read_backbone_csv(args.curve)
    phantom = fileio.load_phantom_spec(args.phantom)
    if args.tube_radius is not None:
        tube_radius = args.tube_radius
    else:
        tube, _ = _load_specs(args.spec)
        tube_radius = tube.outer_radius
    clearance, collides = phantom_clearance(curve, phantom, tube_radius)
    text = fileio.render_json({"min_clearance_mm": clearance, "collides": collides})
    sys.stdout.write(text)
    if args.output:
        fileio.atomic_write_text(args.output, text)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    curves = []
    names = []
    for path in args.curves:
        if _first_cell(path) == "s_mm":
            curves.append(fileio.read_backbone_csv(path).points)
        else:
            curves.append(fileio.read_tip_csv(path).points)
        names.append(Path(path).stem)
    fileio.atomic_write_text(args.output, svgplot.render_curves_svg(curves, names))
    print(f"wrote {fileio._printable(args.output)}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    # Every argument is checked before the first file is written.
    noise = NoiseSpec(seed=args.seed)
    tube, tendon = _load_specs(args.spec)
    geom = derive_geometry(tube)
    theta = math.radians(args.theta_deg)
    joint = joint_from_actuation(args.stroke, 0.0, tendon, geom, theta)
    grid = default_eta_grid(args.eta_steps)
    phantom = phantom_on_cylinder_axis(joint, geom, args.phantom_radius)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    # stage 1: geometry
    fileio.atomic_write_text(outdir / "derived_geometry.json", fileio.dump_derived_geometry(geom))
    report = pattern_consistency(tube)

    # stage 2: stroke sweep up to the demo stroke
    profile = [(float(v), 0.0) for v in np.linspace(0.0, args.stroke, 17)]
    dataset = synthetic_sweep(
        geom, tendon, profile, list(presets.MARKER_ARCLENGTHS_MM), noise, theta, tube
    )
    fileio.write_joints_csv(outdir / "joints.csv", dataset)

    # stage 3: FTL run at the final stroke; the body at eta = 1 is the
    # deployed shape on ftl_run's 129-sample master grid.
    tip, bodies, fidelity = _ftl_stage(joint, geom, grid, outdir / "tip.csv")
    backbone = bodies[-1]
    fileio.write_backbone_csv(outdir / "backbone.csv", backbone)
    svg = svgplot.render_curves_svg([backbone.points, tip.points], ["backbone", "tip trace"])
    fileio.atomic_write_text(outdir / "shape.svg", svg)

    # stage 4: clearance against a phantom on the imaginary-cylinder axis
    fileio.atomic_write_text(outdir / "phantom.json", fileio.dump_phantom_spec(phantom))
    clearances = np.array(
        [phantom_clearance(body, phantom, tube.outer_radius)[0] for body in bodies]
    )
    fileio.write_table_csv(outdir / "clearance.csv", ["eta", "clearance_mm"], [grid, clearances])

    summary = {
        "stroke_mm": args.stroke,
        "theta_deg": args.theta_deg,
        "cylinder_radius_mm": joint.cylinder_radius,
        "cylinder_height_mm": joint.cylinder_height,
        "deflection_rad": joint.deflection,
        "ftl_max_distance_mm": fidelity.max_distance,
        "pattern_consistent": report.consistent,
        "phantom_radius_mm": args.phantom_radius,
        "min_clearance_mm": float(np.min(clearances)),
        "clearance_positive_everywhere": bool(np.all(clearances > 0.0)),
    }
    text = fileio.render_json(summary)
    fileio.atomic_write_text(outdir / "demo.json", text)
    sys.stdout.write(text)
    return 0


def _command(sub, name: str, func, help: str, description: str = _UNITS_NOTE, spec: bool = True):
    """Add subcommand ``name`` running ``func``, with the --spec option unless ``spec`` is False."""
    parser = sub.add_parser(name, help=help, description=description)
    if spec:
        parser.add_argument(
            "--spec",
            help=f"tube/tendon spec JSON; defaults to ${SPEC_PATH_ENV} or the bundled device",
        )
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helikin",
        description="Helical tendon-driven continuum robot toolkit. " + _UNITS_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "geometry", cmd_geometry, "derive neutral-axis constants")
    p.add_argument("-o", "--output", help="write derived-geometry JSON here (mm)")

    p = _command(sub, "shape", cmd_shape, "backbone curve for one actuation")
    p.add_argument("--stroke", type=float, required=True, help="tendon stroke, mm")
    p.add_argument("--tension", type=float, default=0.0, help="tendon tension, N")
    p.add_argument("--theta-deg", type=float, default=0.0, help="roll angle theta, deg")
    p.add_argument(
        "--samples", type=int, default=DEFAULT_BACKBONE_SAMPLES, help="arc-length samples"
    )
    p.add_argument("-o", "--output", required=True, help="backbone CSV (s_mm,x_mm,y_mm,z_mm)")

    p = _command(sub, "sweep", cmd_sweep, "joint states over a stroke profile")
    p.add_argument("--strokes", help="actuation CSV (dl_t_mm[,T_N])")
    p.add_argument("--stroke-max", type=float, help="linear ramp 0..stroke-max, mm")
    p.add_argument("--steps", type=int, default=17, help="samples in the ramp")
    p.add_argument("--tension", type=float, default=0.0, help="tension for the ramp, N")
    p.add_argument("--theta-deg", type=float, default=0.0, help="roll angle theta, deg")
    p.add_argument("--markers", help="comma-separated marker arc lengths, mm")
    p.add_argument("--noise-sigma", type=float, default=0.0, help="position noise sigma, mm")
    p.add_argument("--stroke-sigma", type=float, default=0.0, help="stroke noise sigma, mm")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--dataset-dir", help="also write the full dataset bundle here")
    p.add_argument("-o", "--output", required=True, help="joint CSV (dl_t_mm,T_N,R_mm,H_mm,phi_rad,theta_rad)")

    p = _command(sub, "ftl", cmd_ftl, "follow-the-leader deployment run")
    p.add_argument("--stroke", type=float, required=True, help="tendon stroke, mm")
    p.add_argument("--tension", type=float, default=0.0, help="tendon tension, N")
    p.add_argument("--theta-deg", type=float, default=0.0, help="roll angle theta, deg")
    p.add_argument("--eta-steps", type=int, default=DEFAULT_ETA_STEPS, help="progression steps")
    p.add_argument("--bodies-dir", help="write each exposed backbone CSV here")
    p.add_argument("-o", "--output", required=True, help="tip CSV (eta,x_mm,y_mm,z_mm)")

    p = _command(sub, "estimate", cmd_estimate, "joint-state estimation from logs")
    p.add_argument(
        "--method", choices=["stroke", "position"], required=True, help="estimation method"
    )
    p.add_argument("--theta-deg", type=float, default=0.0, help="roll angle theta, deg (stroke method)")
    p.add_argument("-i", "--input", required=True, help="input CSV (see README for formats)")
    p.add_argument("-o", "--output", required=True, help="output CSV")

    p = _command(sub, "compare", cmd_compare, "trajectory error metrics", spec=False)
    p.add_argument("trajectory_a", help="first trajectory CSV (eta,x_mm,y_mm,z_mm)")
    p.add_argument("trajectory_b", help="second trajectory CSV (eta,x_mm,y_mm,z_mm)")
    p.add_argument("--per-sample", help="write per-sample distance CSV here (mm)")

    p = _command(sub, "clearance", cmd_clearance, "curve-to-phantom clearance")
    p.add_argument("--curve", required=True, help="backbone CSV (s_mm,x_mm,y_mm,z_mm)")
    p.add_argument("--phantom", required=True, help="phantom JSON (axis_point_mm, axis_direction, radius_mm)")
    p.add_argument("--tube-radius", type=float, help="tube outer radius, mm (default: from spec)")
    p.add_argument("-o", "--output", help="also write the clearance JSON here")

    p = _command(sub, "plot", cmd_plot, "render curves to SVG", spec=False)
    p.add_argument("curves", nargs="+", help="curve CSVs (backbone or trajectory)")
    p.add_argument("-o", "--output", required=True, help="output SVG path")

    stages = "geometry -> sweep -> FTL -> clearance against a phantom on the imaginary-cylinder axis. "
    p = _command(sub, "demo", cmd_demo, "full pipeline on the bundled device spec", stages + _UNITS_NOTE)
    p.add_argument("--outdir", default="helikin_demo", help="output directory")
    p.add_argument("--stroke", type=float, default=4.25, help="deployment stroke, mm")
    p.add_argument("--theta-deg", type=float, default=0.0, help="roll angle theta, deg")
    p.add_argument("--eta-steps", type=int, default=DEFAULT_ETA_STEPS, help="progression steps")
    p.add_argument("--phantom-radius", type=float, default=4.0, help="phantom radius, mm")
    p.add_argument("--seed", type=int, default=0, help="noise seed (demo data is noiseless)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValidationError, GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
