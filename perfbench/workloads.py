"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next op starts only
after the previous one has finished and been checked. A workload makes
every input from its seed, runs one op through the helikin functions it
names in ``calls``, and checks the op's outputs against the closed-form
reference in :mod:`reference`, outside the timed region.

Op kinds: ``dataset`` runs one ``pass``, ``ftl_deploy`` one ``deploy``,
``control_loop`` one ``frame`` and ``cli`` alternates a ``help`` and a
``demo`` child process. The first kind listed in ``kinds`` is the one the
end-to-end latency metric reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import helikin
from helikin import cli, estimation, fileio, kinematics, presets, simulation, svgplot
from helikin.geometry import derive_geometry

import reference
import tracing

MARKERS = tuple(float(s) for s in presets.MARKER_ARCLENGTHS_MM)


class Context:
    """The bundled device, its derived geometry and its closed-form twin."""

    def __init__(self):
        self.tube = presets.default_tube()
        self.tendon = presets.default_tendon()
        self.geom = derive_geometry(self.tube)
        self.device = reference.Device.from_specs(self.tube, self.tendon)
        self.turns = self.tube.turn_count

    def check_geometry(self) -> list[str]:
        dev, geom = self.device, self.geom
        got = [geom.composite_na_offset, geom.na_length, geom.tendon_na_distance, geom.slack_tendon_length]
        want = [dev.na_offset, dev.na_length, dev.tendon_na, dev.slack_length]
        return _errors(reference.mismatch("derived geometry", got, want, dev.na_length))


def _errors(*messages) -> list[str]:
    return [m for m in messages if m]


def _joint_array(joints) -> np.ndarray:
    return np.array([(j.cylinder_radius, j.cylinder_height, j.deflection) for j in joints]).reshape(-1, 3)


def _file_bytes(args, out):
    return {"bytes": sum(Path(p).stat().st_size for p in out)}


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    kinds: tuple[str, ...] = ()
    setup_repeats = 5         # set-ups whose median is setup_s
    calls: dict = {}
    # Named figures: prefix -> (op kind, unit, factor from ms, tail
    # percentile). A tail is reported at that percentile only when at least
    # 10 samples lie beyond it, else at the highest percentile that has.
    latencies: dict = {}
    # (name, work items per op) of a throughput figure over the median op.
    throughput: tuple | None = None

    def __init__(self, ctx: Context, seed: int, tmp: Path):
        self.ctx = ctx
        self.tmp = tmp
        self.rng = np.random.default_rng([seed % 2**63, sum(map(ord, self.name))])
        self.plain = tracing.plain(self.calls)

    def next_input(self) -> SimpleNamespace:
        raise NotImplementedError

    def op(self, api, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def cleanup(self, inp) -> None:
        """Remove what an op left on disk."""

    def probes(self, tracer: tracing.Tracer) -> dict[str, float]:
        """Per-layer measurements taken outside the ops, in the traced run only."""
        api = tracer.bind({"geometry.derive_geometry": (derive_geometry, None)})
        with tracer.root("probe"):
            for _ in range(1000):
                api.derive_geometry(self.ctx.tube)
        durations = tracer.durations("geometry.derive_geometry")
        return {"geometry.derive_geometry.us_per_call": float(np.median(durations)) / 1e3}


class Dataset(Workload):
    """Synthetic dataset over 10^4 strokes, written, read back and scored."""

    name = "dataset"
    kinds = ("pass",)
    samples = 10_000
    setup_repeats = 3
    throughput = ("dataset.samples_per_s", samples)
    position_sigma = 0.5      # mm per axis
    stroke_sigma = 0.05       # mm
    max_tension = 10.0        # N
    calls = {
        "simulation.synthetic_sweep": (
            simulation.synthetic_sweep,
            lambda a, out: {"samples": out.n_samples, "rejected": len(out.failures)},
        ),
        "fileio.write_dataset_bundle": (fileio.write_dataset_bundle, _file_bytes),
        "fileio.read_marker_csv": (fileio.read_marker_csv, lambda a, out: _file_bytes(a, a[:1])),
        "estimation.stroke_based_estimate": (
            estimation.stroke_based_estimate,
            lambda a, out: {"samples": len(out.joint_series)},
        ),
        "estimation.position_based_estimate": (estimation.position_based_estimate, None),
        "estimation.compare_point_sequences": (estimation.compare_point_sequences, None),
    }

    def __init__(self, ctx, seed, tmp):
        super().__init__(ctx, seed, tmp)
        # 5 % beyond the largest valid stroke at 0 N, so about 5 % of the
        # samples are over-actuated and take the per-sample failure path.
        self.stroke_max = 1.05 * ctx.device.max_stroke(0.0)
        self.passes = 0

    def next_input(self):
        n, rng = self.samples, self.rng
        strokes = rng.uniform(0.0, self.stroke_max, n)
        tensions = rng.uniform(0.0, self.max_tension, n)
        noise = simulation.NoiseSpec(
            position_sigma=self.position_sigma,
            stroke_sigma=self.stroke_sigma,
            seed=int(rng.integers(2**31)),
        )
        self.passes += 1
        return SimpleNamespace(
            kind="pass",
            strokes=strokes,
            tensions=tensions,
            profile=list(zip(strokes.tolist(), tensions.tolist())),
            noise=noise,
            roll=float(rng.uniform(0.0, 2.0 * math.pi)),
            outdir=self.tmp / f"dataset-{self.passes}",
        )

    def op(self, api, inp):
        ctx = self.ctx
        dataset = api.synthetic_sweep(
            ctx.geom, ctx.tendon, inp.profile, list(MARKERS), inp.noise, inp.roll, ctx.tube
        )
        files = api.write_dataset_bundle(inp.outdir, dataset)
        # Layout: spec.json, joints.csv, tip.csv, then (noisy, truth) per marker.
        tip = api.read_marker_csv(files[2])
        tracks = [(api.read_marker_csv(n), api.read_marker_csv(t)) for n, t in zip(files[3::2], files[4::2])]
        strokes = api.stroke_based_estimate(inp.profile, ctx.geom, ctx.tendon, inp.roll, ctx.turns)
        positions = [api.position_based_estimate(p, ctx.geom, ctx.turns) for p in tip["points"]]
        scores = [api.compare_point_sequences(noisy["points"], true["points"]) for noisy, true in tracks]
        return SimpleNamespace(
            dataset=dataset, tip=tip, tracks=tracks, strokes=strokes, positions=positions, scores=scores
        )

    def check(self, inp, out):
        dev, n = self.ctx.device, self.samples
        scale = dev.na_length
        valid, radius, height, phi = dev.joints(inp.strokes, inp.tensions)
        ok = np.flatnonzero(valid)
        rejected = set(np.flatnonzero(~valid).tolist())
        ds = out.dataset
        errors = []
        if {i for i, _ in ds.failures} != rejected:
            errors.append("synthetic_sweep rejected set differs from H^2 > 0 and the growth bound")
        if {i for i, _ in out.strokes.failures} != rejected:
            errors.append("stroke_based_estimate rejected set differs from the reference")
        if errors:
            return errors
        roll = inp.roll
        s_all = np.array(MARKERS + (dev.na_length,))
        true_pts = dev.points(radius[ok], height[ok], phi[ok], roll, s_all)

        # Redraw the documented noise streams: stroke first, then one
        # (x, y, z) per marker in ascending arc-length order.
        z_stroke = np.empty(n)
        z_pos = np.empty((n, len(MARKERS), 3))
        for i in range(n):
            rng = np.random.default_rng([inp.noise.seed, i])
            z_stroke[i] = rng.standard_normal()
            z_pos[i] = rng.standard_normal((len(MARKERS), 3))
        strokes_noisy = inp.strokes + inp.noise.stroke_sigma * z_stroke
        noisy_pts = true_pts[:, :4] + inp.noise.position_sigma * z_pos[ok]

        joints = [ds.joints[i] for i in ok]
        rh = np.column_stack([radius[ok], height[ok]])
        errors += _errors(
            reference.mismatch("sweep R, H", _joint_array(joints)[:, :2], rh, scale),
            reference.mismatch("sweep phi", _joint_array(joints)[:, 2], phi[ok]),
            reference.mismatch("sweep roll", [j.roll for j in joints], np.full(ok.size, roll)),
            reference.mismatch("sweep tips", ds.tips_true[ok], true_pts[:, 4], scale),
            reference.mismatch("noisy strokes", ds.strokes_noisy, strokes_noisy, scale),
        )
        for k, s in enumerate(MARKERS):
            track_true, track_noisy = ds.tracks_true[s], ds.tracks_noisy[s]
            if not np.isnan(track_true[~valid]).all():
                errors.append(f"marker {s}: rejected samples are not nan")
            errors += _errors(
                reference.mismatch(f"marker {s} truth", track_true[ok], true_pts[:, k], scale),
                reference.mismatch(f"marker {s} noisy", track_noisy[ok], noisy_pts[:, k], scale),
            )

        index = ok / (n - 1)
        tip = out.tip
        errors += _errors(
            reference.mismatch("tip.csv index", tip["index"], index),
            reference.mismatch("tip.csv points", tip["points"], true_pts[:, 4], scale),
            reference.mismatch("tip.csv strokes", tip["strokes"], inp.strokes[ok], scale),
            reference.mismatch("tip.csv tensions", tip["tensions"], inp.tensions[ok], scale),
        )
        for k, (noisy, true) in enumerate(out.tracks):
            errors += _errors(
                reference.mismatch(f"marker {k} csv noisy", noisy["points"], noisy_pts[:, k], scale),
                reference.mismatch(f"marker {k} csv strokes", noisy["strokes"], strokes_noisy[ok], scale),
                reference.mismatch(f"marker {k} csv truth", true["points"], true_pts[:, k], scale),
            )
            want = reference.distances(noisy["points"], true["points"])
            got = (out.scores[k].max_distance, out.scores[k].rmse)
            errors += _errors(reference.mismatch(f"marker {k} max d_E, rmse", got, want, scale))

        est_joints = [out.strokes.joint_series[i] for i in ok]
        errors += _errors(
            reference.mismatch("stroke estimate R, H", _joint_array(est_joints)[:, :2], rh, scale),
            reference.mismatch("stroke estimate phi", np.array(out.strokes.per_sample_phi)[ok], phi[ok]),
        )
        got = np.array([(p.cylinder_height, p.phi_truth, p.cylinder_radius, p.phi_model) for p in out.positions])
        want = dev.position_estimate(tip["points"])
        errors += _errors(
            reference.mismatch("position estimate H, R", got[:, [0, 2]], want[:, [0, 2]], scale),
            reference.mismatch("position estimate phi", got[:, [1, 3]], want[:, [1, 3]]),
        )
        return errors

    def cleanup(self, inp):
        shutil.rmtree(inp.outdir, ignore_errors=True)


class FtlDeploy(Workload):
    """One planned follow-the-leader deployment: demo stages 3 and 4 at 1001 eta steps."""

    name = "ftl_deploy"
    kinds = ("deploy",)
    latencies = {"ftl.deploy_ms": ("deploy", "ms", 1.0, 90)}
    eta_steps = 1001
    body_samples = 129
    stroke_range = (0.5, 7.4)     # mm, inside the valid domain at 0 N
    phantom_radius = 4.0          # mm, as in the demo
    calls = {
        "kinematics.joint_from_actuation": (kinematics.joint_from_actuation, None),
        "kinematics.forward_kinematics": (kinematics.forward_kinematics, lambda a, out: {"points": len(out)}),
        "simulation.ftl_run": (
            simulation.ftl_run,
            # Distinct points: the master grid plus one tip per eta step.
            lambda a, out: {"body_points": sum(map(len, out[1])), "distinct_points": a[4] + len(out[0])},
        ),
        "simulation.ftl_fidelity": (simulation.ftl_fidelity, None),
        "simulation.phantom_on_cylinder_axis": (simulation.phantom_on_cylinder_axis, None),
        "simulation.phantom_clearance": (simulation.phantom_clearance, None),
        "svgplot.render_curves_svg": (svgplot.render_curves_svg, None),
    }

    def __init__(self, ctx, seed, tmp):
        super().__init__(ctx, seed, tmp)
        self.eta = np.linspace(0.0, 1.0, self.eta_steps)
        self.master = np.linspace(0.0, ctx.geom.na_length, self.body_samples)
        self.tip_s = self.eta * ctx.geom.na_length

    def next_input(self):
        return SimpleNamespace(
            kind="deploy",
            stroke=float(self.rng.uniform(*self.stroke_range)),
            roll=float(self.rng.uniform(0.0, 2.0 * math.pi)),
        )

    def op(self, api, inp):
        ctx = self.ctx
        joint = api.joint_from_actuation(inp.stroke, 0.0, ctx.tendon, ctx.geom, inp.roll, ctx.turns)
        backbone = api.forward_kinematics(joint, ctx.geom, self.master, ctx.turns)
        tip, bodies = api.ftl_run(joint, ctx.geom, self.eta, ctx.turns, self.body_samples)
        final = api.forward_kinematics(joint, ctx.geom, self.tip_s, ctx.turns)
        fidelity = api.ftl_fidelity(tip, final)
        phantom = api.phantom_on_cylinder_axis(joint, ctx.geom, self.phantom_radius)
        clearances = [api.phantom_clearance(body, phantom, ctx.tube.outer_radius) for body in bodies]
        svg = api.render_curves_svg([backbone.points, tip.points], ["backbone", "tip trace"])
        return SimpleNamespace(
            joint=joint, backbone=backbone, tip=tip, bodies=bodies, final=final,
            fidelity=fidelity, clearances=clearances, svg=svg,
        )

    def check(self, inp, out):
        dev = self.ctx.device
        scale = dev.na_length
        valid, radius, height, phi = dev.joints([inp.stroke], [0.0])
        if not valid[0]:
            return ["reference rejects a stroke inside the workload's domain"]
        r, h, p = radius[0], height[0], phi[0]
        joint = out.joint
        tips = dev.points(r, h, p, inp.roll, self.tip_s)
        errors = _errors(
            reference.mismatch("joint R, H", [joint.cylinder_radius, joint.cylinder_height], [r, h], scale),
            reference.mismatch("joint phi", joint.deflection, p),
            reference.mismatch("backbone", out.backbone.points, dev.points(r, h, p, inp.roll, self.master), scale),
            reference.mismatch("tip trace", out.tip.points, tips, scale),
            reference.mismatch("final backbone", out.final.points, tips, scale),
            reference.mismatch(
                "ftl fidelity", [out.fidelity.max_distance, out.fidelity.rmse], [0.0, 0.0], scale
            ),
        )
        bodies = out.bodies
        if len(bodies) != self.eta_steps:
            return errors + [f"{len(bodies)} bodies for {self.eta_steps} eta steps"]
        all_s = np.concatenate([b.s for b in bodies])
        all_points = np.concatenate([b.points for b in bodies])
        errors += _errors(
            reference.mismatch("body tips", [b.s[-1] for b in bodies], self.tip_s, scale),
            reference.mismatch("body points", all_points, dev.points(r, h, p, inp.roll, all_s), scale),
        )
        for k in range(len(bodies) - 1):
            a, b = bodies[k], bodies[k + 1]
            m = len(a) - 1  # all but the tip, which is appended off the master grid
            prefix = a.s[:m]
            if len(b) <= m or not (np.array_equal(prefix, b.s[:m]) and np.array_equal(prefix, self.master[:m])):
                errors.append(f"body {k} is not a prefix of body {k + 1}")
                break
            message = reference.mismatch(f"body {k} prefix points", a.points[:m], b.points[:m], scale)
            if message:
                errors.append(message)
                break
        want = dev.clearance(r, self.phantom_radius)
        errors += _errors(
            reference.mismatch("clearances", [c for c, _ in out.clearances], np.full(len(bodies), want), scale)
        )
        if any(collides != (want < 0.0) for _, collides in out.clearances):
            errors.append("collision flag disagrees with the clearance sign")
        if not (out.svg.startswith("<svg") and out.svg.endswith("</svg>\n")):
            errors.append("render_curves_svg did not return an SVG document")
        return errors


class ControlLoop(Workload):
    """One tracker frame at a time: actuation map, FK, position estimate, marker score."""

    name = "control_loop"
    kinds = ("frame",)
    latencies = {"control.frame_us": ("frame", "us", 1e3, 99)}
    stroke_range = (0.5, 7.4)     # mm, the random walk reflects off both ends
    stroke_step = 0.05            # mm, sigma of one random-walk step
    marker_sigma = 0.1            # mm, tracker noise per axis
    block = 1024                  # frames generated and referenced at once
    calls = {
        "kinematics.joint_from_actuation": (kinematics.joint_from_actuation, None),
        "kinematics.forward_kinematics": (kinematics.forward_kinematics, lambda a, out: {"points": len(out)}),
        "estimation.position_based_estimate": (estimation.position_based_estimate, None),
        "estimation.compare_point_sequences": (estimation.compare_point_sequences, None),
    }

    def __init__(self, ctx, seed, tmp):
        super().__init__(ctx, seed, tmp)
        self.s = np.array(MARKERS + (ctx.geom.na_length,))
        self.stroke = float(self.rng.uniform(*self.stroke_range))
        # Check layout: R, H, phi, 5 points, H, phi_truth, R, phi_model,
        # max d_E, rmse. Lengths against the device scale, angles against 1 rad.
        self.tol = np.full(24, ctx.device.na_length * reference.REL_TOL)
        self.tol[[2, 19, 21]] = reference.REL_TOL
        self.queue: list[SimpleNamespace] = []

    def _refill(self):
        dev, rng, b = self.ctx.device, self.rng, self.block
        lo, hi = self.stroke_range
        strokes = np.empty(b)
        stroke = self.stroke
        for i, step in enumerate(rng.normal(0.0, self.stroke_step, b)):
            stroke += step
            stroke = lo + abs(stroke - lo)
            stroke = hi - abs(hi - stroke)
            strokes[i] = stroke
        self.stroke = stroke
        rolls = rng.uniform(0.0, 2.0 * math.pi, b)
        valid, radius, height, phi = dev.joints(strokes, np.zeros(b))
        if not valid.all():
            raise RuntimeError("random walk left the model's domain")
        points = dev.points(radius, height, phi, rolls, self.s)
        markers = points[:, :4] + rng.normal(0.0, self.marker_sigma, (b, 4, 3))
        tips = points[:, 4]
        estimate = dev.position_estimate(tips)
        for i in range(b):
            want = np.concatenate(
                [[radius[i], height[i], phi[i]], points[i].ravel(), estimate[i],
                 reference.distances(points[i, :4], markers[i])]
            )
            self.queue.append(SimpleNamespace(
                kind="frame", stroke=float(strokes[i]), roll=float(rolls[i]),
                markers=markers[i], tip=tips[i], want=want,
            ))
        self.queue.reverse()

    def next_input(self):
        if not self.queue:
            self._refill()
        return self.queue.pop()

    def op(self, api, inp):
        ctx = self.ctx
        joint = api.joint_from_actuation(inp.stroke, 0.0, ctx.tendon, ctx.geom, inp.roll, ctx.turns)
        curve = api.forward_kinematics(joint, ctx.geom, self.s, ctx.turns)
        estimate = api.position_based_estimate(inp.tip, ctx.geom, ctx.turns)
        score = api.compare_point_sequences(curve.points[:4], inp.markers)
        return joint, curve, estimate, score

    def check(self, inp, out):
        joint, curve, est, score = out
        got = np.concatenate([
            [joint.cylinder_radius, joint.cylinder_height, joint.deflection], curve.points.ravel(),
            [est.cylinder_height, est.phi_truth, est.cylinder_radius, est.phi_model],
            [score.max_distance, score.rmse],
        ])
        if got.shape == inp.want.shape and np.all(np.abs(got - inp.want) <= self.tol):
            return []
        return [f"frame differs from the reference at stroke {inp.stroke!r}, roll {inp.roll!r}"]


class Cli(Workload):
    """Alternating `helikin --help` and `helikin demo` child processes."""

    name = "cli"
    kinds = ("demo", "help")
    latencies = {"cli.startup_ms": ("help", "ms", 1.0, None), "cli.demo_ms": ("demo", "ms", 1.0, 90)}
    timeout_s = 60.0
    calls = {"cli.main": (cli.main, None)}

    def __init__(self, ctx, seed, tmp):
        super().__init__(ctx, seed, tmp)
        self.count = 0
        self.help_text: bytes | None = None
        self.demo_digest: str | None = None
        env = dict(os.environ)
        src = str(Path(helikin.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["TMPDIR"] = str(tmp)
        self.env = env

    def next_input(self):
        self.count += 1
        kind = "demo" if self.count % 2 else "help"
        seed = int(self.rng.integers(2**31))
        outdir = self.tmp / f"demo-{self.count}"
        argv = ["--help"] if kind == "help" else ["demo", "--outdir", str(outdir), "--seed", str(seed)]
        return SimpleNamespace(kind=kind, argv=argv, outdir=outdir)

    def run_child(self, args):
        return subprocess.run(
            [sys.executable, *args], env=self.env, capture_output=True, timeout=self.timeout_s
        )

    def op(self, api, inp):
        return self.run_child(["-m", "helikin.cli", *inp.argv])

    def check(self, inp, out):
        if out.returncode != 0:
            return [f"{inp.kind} exited {out.returncode}: {out.stderr.decode(errors='replace')[-300:]}"]
        if inp.kind == "help":
            if self.help_text is None:
                self.help_text = out.stdout
            return [] if out.stdout == self.help_text else ["--help output changed between invocations"]
        digest = _tree_digest(inp.outdir)
        if self.demo_digest is None:
            self.demo_digest = digest
        errors = []
        if digest != self.demo_digest:
            errors.append("demo outputs differ between invocations")
        if out.stdout != (inp.outdir / "demo.json").read_bytes():
            errors.append("demo stdout differs from demo.json")
        return errors

    def cleanup(self, inp):
        shutil.rmtree(inp.outdir, ignore_errors=True)

    def probes(self, tracer):
        """Import-only children, and warmed in-process `main(["demo", ...])` calls."""
        values = super().probes(tracer)
        code = "import time; t = time.perf_counter(); import helikin.cli; print(time.perf_counter() - t)"
        imports = []
        for _ in range(5):
            done = self.run_child(["-c", code])
            done.check_returncode()
            imports.append(float(done.stdout) * 1e3)
        api = tracer.bind(self.calls)
        outdir = self.tmp / "demo-in-process"
        for k in range(6):
            with tracer.root("probe"), contextlib.redirect_stdout(io.StringIO()):
                status = api.main(["demo", "--outdir", str(outdir), "--seed", str(k)])
            if status != 0:
                raise RuntimeError(f"in-process demo exited {status}")
        shutil.rmtree(outdir, ignore_errors=True)
        # The first in-process demo is the warm-up.
        demo_ms = [ns / 1e6 for ns in tracer.durations("cli.main")[1:]]
        values["cli.import_ms"] = float(np.median(imports))
        values["cli.main.demo_ms"] = float(np.median(demo_ms))
        return values


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


WORKLOADS = {w.name: w for w in (Dataset, FtlDeploy, ControlLoop, Cli)}
