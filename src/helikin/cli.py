"""Command-line interface.

Every stage of the pipeline is exposed as a subcommand with file-based
I/O. Units everywhere: lengths in mm, tensions in N; angles are given in
degrees on the command line and converted to radians internally.

Exit codes: 0 success, 2 validation failure (bad spec/file/arguments),
3 numerical failure (e.g. over-actuated stroke), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio, presets, svgplot
from .errors import DomainError, GridMismatchError, ValidationError
from .estimation import (
    _overlap_grid,
    compare_point_sequences,
    position_based_estimate,
    repeatability_compare,
    stroke_based_estimate,
)
from .geometry import TendonSpec, TubeSpec, derive_geometry, pattern_consistency
from .kinematics import (
    DEFAULT_BACKBONE_SAMPLES,
    TipTrajectory,
    backbone_samples,
    forward_kinematics,
    joint_from_actuation,
)
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
        f"phi = {joint.deflection:.6f} rad; wrote {len(curve)} samples to {args.output}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    tube, tendon = _load_specs(args.spec)
    geom = derive_geometry(tube)
    profile = _stroke_profile(args)
    markers = (
        [float(v) for v in args.markers.split(",")]
        if args.markers
        else list(presets.MARKER_ARCLENGTHS_MM)
    )
    noise = NoiseSpec(
        position_sigma=args.noise_sigma, stroke_sigma=args.stroke_sigma, seed=args.seed
    )
    dataset = synthetic_sweep(
        geom, tendon, profile, markers, noise, math.radians(args.theta_deg), tube
    )
    if args.dataset_dir:
        written = fileio.write_dataset_bundle(args.dataset_dir, dataset)
        print(f"wrote {len(written)} dataset files to {args.dataset_dir}")
    fileio.write_joints_csv(args.output, dataset.strokes, dataset.tensions, list(dataset.joints))
    for index, message in dataset.failures:
        print(f"sample {index}: {message}", file=sys.stderr)
    print(
        f"swept {dataset.n_samples} samples "
        f"({dataset.n_samples - len(dataset.failures)} ok) -> {args.output}"
    )
    return 0


def cmd_ftl(args: argparse.Namespace) -> int:
    tube, tendon = _load_specs(args.spec)
    geom = derive_geometry(tube)
    joint = joint_from_actuation(args.stroke, args.tension, tendon, geom, math.radians(args.theta_deg))
    grid = default_eta_grid(args.eta_steps)
    tip, bodies = ftl_run(joint, geom, grid)
    fileio.write_tip_csv(args.output, tip)
    if args.bodies_dir:
        directory = Path(args.bodies_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for eta, body in zip(grid, bodies):
            fileio.write_backbone_csv(directory / f"body_eta_{eta:.4f}.csv", body)
    final = forward_kinematics(joint, geom, grid * geom.na_length)
    fidelity = ftl_fidelity(tip, final)
    print(
        f"FTL run over {len(grid)} eta steps; tip-vs-body max distance "
        f"{fidelity.max_distance:.3e} mm -> {args.output}"
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    tube, tendon = _load_specs(args.spec)
    geom = derive_geometry(tube)
    if args.method == "stroke":
        if _has_marker_header(args.input):
            data = fileio.read_marker_csv(args.input)
            if data["strokes"] is None:
                raise ValidationError(
                    f"{args.input}: stroke-based estimation needs dl_t_mm/T_N columns"
                )
            profile = list(zip(data["strokes"], data["tensions"]))
        else:
            profile = fileio.read_strokes_csv(args.input)
        result = stroke_based_estimate(profile, geom, tendon, math.radians(args.theta_deg))
        strokes = np.array([p[0] for p in profile])
        tensions = np.array([p[1] for p in profile])
        fileio.write_joints_csv(args.output, strokes, tensions, list(result.joint_series))
        for index, message in result.failures:
            print(f"sample {index}: {message}", file=sys.stderr)
        print(
            f"stroke-based estimates: {result.ok_count}/{len(result.joint_series)} ok "
            f"-> {args.output}"
        )
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
    print(f"position-based estimates: {n - len(failures)}/{n} ok -> {args.output}")
    return 3 if n and len(failures) == n else 0


def _has_marker_header(path: str) -> bool:
    with open(path, newline="") as handle:
        first = handle.readline().strip()
    return first.startswith("eta,")


def cmd_compare(args: argparse.Namespace) -> int:
    a = fileio.read_marker_csv(args.trajectory_a)
    b = fileio.read_marker_csv(args.trajectory_b)
    if a["index"].shape == b["index"].shape and np.array_equal(a["index"], b["index"]):
        comparison = compare_point_sequences(a["points"], b["points"])
        index = a["index"]
    else:
        trial_a = TipTrajectory(eta=a["index"], points=a["points"])
        trial_b = TipTrajectory(eta=b["index"], points=b["points"])
        comparison = repeatability_compare(trial_a, trial_b)
        index = _overlap_grid(trial_a.eta, trial_b.eta)
    sys.stdout.write(fileio.comparison_to_json(comparison))
    if args.per_sample:
        fileio.write_comparison_csv(args.per_sample, index, comparison)
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
    payload = {"min_clearance_mm": clearance, "collides": collides}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.output:
        fileio.atomic_write_text(args.output, text)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    curves = []
    names = []
    for path in args.curves:
        with open(path, newline="") as handle:
            header = handle.readline().strip()
        if header.startswith("s_mm"):
            curves.append(fileio.read_backbone_csv(path).points)
        else:
            curves.append(fileio.read_marker_csv(path)["points"])
        names.append(Path(path).stem)
    svgplot.write_curves_svg(args.output, curves, names)
    print(f"wrote {args.output}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    noise = NoiseSpec(seed=args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tube, tendon = _load_specs(args.spec)
    geom = derive_geometry(tube)
    theta = math.radians(args.theta_deg)

    # stage 1: geometry
    fileio.atomic_write_text(outdir / "derived_geometry.json", fileio.dump_derived_geometry(geom))
    report = pattern_consistency(tube)

    # stage 2: stroke sweep up to the demo stroke
    profile = [(float(v), 0.0) for v in np.linspace(0.0, args.stroke, 17)]
    dataset = synthetic_sweep(
        geom, tendon, profile, list(presets.MARKER_ARCLENGTHS_MM), noise, theta, tube
    )
    fileio.write_joints_csv(
        outdir / "joints.csv", dataset.strokes, dataset.tensions, list(dataset.joints)
    )

    # stage 3: deployed shape and FTL run at the final stroke
    joint = joint_from_actuation(args.stroke, 0.0, tendon, geom, theta)
    backbone = forward_kinematics(joint, geom, backbone_samples(geom.na_length, DEFAULT_BACKBONE_SAMPLES))
    fileio.write_backbone_csv(outdir / "backbone.csv", backbone)
    grid = default_eta_grid(args.eta_steps)
    tip, bodies = ftl_run(joint, geom, grid)
    fileio.write_tip_csv(outdir / "tip.csv", tip)
    final = forward_kinematics(joint, geom, grid * geom.na_length)
    fidelity = ftl_fidelity(tip, final)
    svgplot.write_curves_svg(
        outdir / "shape.svg", [backbone.points, tip.points], ["backbone", "tip trace"]
    )

    # stage 4: clearance against a phantom on the imaginary-cylinder axis
    phantom = phantom_on_cylinder_axis(joint, geom, args.phantom_radius)
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
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    fileio.atomic_write_text(outdir / "demo.json", text)
    sys.stdout.write(text)
    return 0


def _add_spec_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec",
        help=f"tube/tendon spec JSON; defaults to ${SPEC_PATH_ENV} or the bundled device",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helikin",
        description="Helical tendon-driven continuum robot toolkit. " + _UNITS_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "geometry", help="derive neutral-axis constants", description=_UNITS_NOTE
    )
    _add_spec_option(p)
    p.add_argument("-o", "--output", help="write derived-geometry JSON here (mm)")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser(
        "shape", help="backbone curve for one actuation", description=_UNITS_NOTE
    )
    _add_spec_option(p)
    p.add_argument("--stroke", type=float, required=True, help="tendon stroke, mm")
    p.add_argument("--tension", type=float, default=0.0, help="tendon tension, N")
    p.add_argument("--theta-deg", type=float, default=0.0, help="roll angle theta, deg")
    p.add_argument(
        "--samples", type=int, default=DEFAULT_BACKBONE_SAMPLES, help="arc-length samples"
    )
    p.add_argument("-o", "--output", required=True, help="backbone CSV (s_mm,x_mm,y_mm,z_mm)")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser(
        "sweep", help="joint states over a stroke profile", description=_UNITS_NOTE
    )
    _add_spec_option(p)
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
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "ftl", help="follow-the-leader deployment run", description=_UNITS_NOTE
    )
    _add_spec_option(p)
    p.add_argument("--stroke", type=float, required=True, help="tendon stroke, mm")
    p.add_argument("--tension", type=float, default=0.0, help="tendon tension, N")
    p.add_argument("--theta-deg", type=float, default=0.0, help="roll angle theta, deg")
    p.add_argument("--eta-steps", type=int, default=DEFAULT_ETA_STEPS, help="progression steps")
    p.add_argument("--bodies-dir", help="write each exposed backbone CSV here")
    p.add_argument("-o", "--output", required=True, help="tip CSV (eta,x_mm,y_mm,z_mm)")
    p.set_defaults(func=cmd_ftl)

    p = sub.add_parser(
        "estimate", help="joint-state estimation from logs", description=_UNITS_NOTE
    )
    _add_spec_option(p)
    p.add_argument(
        "--method", choices=["stroke", "position"], required=True, help="estimation method"
    )
    p.add_argument("--theta-deg", type=float, default=0.0, help="roll angle theta, deg (stroke method)")
    p.add_argument("-i", "--input", required=True, help="input CSV (see README for formats)")
    p.add_argument("-o", "--output", required=True, help="output CSV")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "compare", help="trajectory error metrics", description=_UNITS_NOTE
    )
    p.add_argument("trajectory_a", help="first trajectory CSV (eta,x_mm,y_mm,z_mm)")
    p.add_argument("trajectory_b", help="second trajectory CSV (eta,x_mm,y_mm,z_mm)")
    p.add_argument("--per-sample", help="write per-sample distance CSV here (mm)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "clearance", help="curve-to-phantom clearance", description=_UNITS_NOTE
    )
    _add_spec_option(p)
    p.add_argument("--curve", required=True, help="backbone CSV (s_mm,x_mm,y_mm,z_mm)")
    p.add_argument("--phantom", required=True, help="phantom JSON (axis_point_mm, axis_direction, radius_mm)")
    p.add_argument("--tube-radius", type=float, help="tube outer radius, mm (default: from spec)")
    p.add_argument("-o", "--output", help="also write the clearance JSON here")
    p.set_defaults(func=cmd_clearance)

    p = sub.add_parser(
        "plot", help="render curves to SVG", description=_UNITS_NOTE
    )
    p.add_argument("curves", nargs="+", help="curve CSVs (backbone or trajectory)")
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser(
        "demo",
        help="full pipeline on the bundled device spec",
        description="geometry -> sweep -> FTL -> clearance against a phantom on the "
        "imaginary-cylinder axis. " + _UNITS_NOTE,
    )
    _add_spec_option(p)
    p.add_argument("--outdir", default="helikin_demo", help="output directory")
    p.add_argument("--stroke", type=float, default=4.25, help="deployment stroke, mm")
    p.add_argument("--theta-deg", type=float, default=0.0, help="roll angle theta, deg")
    p.add_argument("--eta-steps", type=int, default=DEFAULT_ETA_STEPS, help="progression steps")
    p.add_argument("--phantom-radius", type=float, default=4.0, help="phantom radius, mm")
    p.add_argument("--seed", type=int, default=0, help="noise seed (demo data is noiseless)")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
