"""What each per-layer metric of BENCHMARK.json should move.

``MOVES`` maps every per-layer metric to the end-to-end figures it should
move, on the workloads that exercise it, using the figures' names as each
workload prints them (``op_per_ref.mean`` on ``ftl_deploy`` is the mean
of the deployments ``ftl.deploy_ms.*`` reports over
``reference_loop_ms.mean``, and so on). A faster
layer saves at most its share of the op it runs in, since every op is
serial work on one thread.
"""

MOVES = {
    "geometry.derive_geometry.us_per_call": "setup_s on every workload",
    "kinematics.joint_from_actuation.us_per_call": "control.frame_us.* on control_loop",
    "kinematics.forward_kinematics.points": "control.frame_us.* on control_loop, ftl.deploy_ms.* on ftl_deploy",
    "kinematics.forward_kinematics.ns_per_point": "control.frame_us.* on control_loop, ftl.deploy_ms.* on ftl_deploy",
    "simulation.synthetic_sweep.us_per_sample": "dataset.samples_per_s on dataset",
    "simulation.synthetic_sweep.rejected_share": "dataset.samples_per_s on dataset",
    "simulation.ftl_run.busy_ms": "ftl.deploy_ms.* on ftl_deploy",
    "simulation.ftl_run.body_points": "ftl.deploy_ms.* on ftl_deploy",
    "simulation.ftl_run.distinct_point_share": "ftl.deploy_ms.* on ftl_deploy",
    "simulation.ftl_fidelity.busy_ms": "ftl.deploy_ms.* on ftl_deploy",
    "simulation.phantom_clearance.calls": "ftl.deploy_ms.* on ftl_deploy",
    "simulation.phantom_clearance.busy_ms": "ftl.deploy_ms.* on ftl_deploy",
    "svgplot.render_curves_svg.busy_ms": "ftl.deploy_ms.* on ftl_deploy",
    "estimation.stroke_based_estimate.us_per_sample": "dataset.samples_per_s on dataset",
    "estimation.position_based_estimate.us_per_call": "dataset.samples_per_s on dataset, control.frame_us.* on control_loop",
    "estimation.compare_point_sequences.busy_ms": "dataset.samples_per_s on dataset, control.frame_us.* on control_loop",
    "fileio.write_dataset_bundle.busy_ms": "dataset.samples_per_s on dataset",
    "fileio.write_dataset_bundle.bytes": "dataset.samples_per_s on dataset",
    "fileio.read_marker_csv.busy_ms": "dataset.samples_per_s on dataset",
    "fileio.read_marker_csv.bytes": "dataset.samples_per_s on dataset",
    "cli.import_ms": "cli.startup_ms.p50 and cli.demo_ms.* on cli",
    "cli.main.demo_ms": "cli.demo_ms.* on cli; the gap to cli.demo_ms.p50 is start-up",
    "trace.overhead_share": "none: the traced op median over the untraced one, minus 1",
}

# Per-layer metrics derived from call inputs or outputs rather than timed.
COMPUTED = {
    "kinematics.forward_kinematics.points",
    "simulation.synthetic_sweep.rejected_share",
    "simulation.ftl_run.body_points",
    "simulation.ftl_run.distinct_point_share",
    "fileio.write_dataset_bundle.bytes",
    "fileio.read_marker_csv.bytes",
}
