#!/usr/bin/env python3
"""Benchmark of the helikin kernel: end-to-end and per-layer metrics.

Run from the root of a source checkout; the package is imported from
``src/``:

    python3 perfbench/run.py --workload ftl_deploy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One run sets up (import, ``derive_geometry`` and one warm-up op, repeated
in fresh child processes for a median ``setup_s``), then runs the
workload's ops back to back for ``--seconds`` on one thread, checking
every op against the closed-form reference outside the timed region. It
prints a report and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics BENCHMARK.json lists:
end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``.

With ``--trace 1`` ops alternate between untraced and traced; traced ops
record a span per call into helikin, the per-layer metrics come from
those, and the gap between the two halves' medians is the tracing
overhead. ``--workload all`` runs every workload in turn, each in its own
child process, and prints every named figure. Reports, span CSVs and
temporary files go to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Only the standard library is imported at module level: importing numpy
# and helikin is part of the timed set-up.
import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("dataset", "ftl_deploy", "control_loop", "cli")
CHILD_TIMEOUT_S = 170
REF_SHARE = 0.05           # share of the measured time spent timing the reference loop


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now.

    The reference loop then runs on the CPU the ops and the ``cli``
    children run on, so it slows down when they do.
    """
    try:
        with open("/proc/self/stat") as handle:
            # Field 39, counted after the parenthesised command name: the last CPU.
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed_setup(name: str, seed: int, tmp: Path):
    """Import, derive the geometry and run one warm-up op; returns (seconds, workload, input, output)."""
    start = time.perf_counter()
    import helikin
    import workloads

    if not Path(helikin.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"helikin imported from {helikin.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name](workloads.Context(), seed, tmp)
    inp = workload.next_input()
    out = workload.op(workload.plain, inp)
    return time.perf_counter() - start, workload, inp, out


def setup_in_child(args) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


def reference_loop(n: int = 250) -> float:
    """A fixed loop of about 2 ms whose time tracks the machine's current speed.

    It is not helikin code. Like helikin and the ``cli`` children, it
    spends its time partly in plain Python and partly in numpy calls on a
    few elements; a busy host slows the second down more than the first.
    """
    import numpy

    x = numpy.linspace(0.0, 1.0, 8)
    total = 0.0
    for k in range(n):
        total += float(numpy.sin(x * k).sum())
        for i in range(60):
            total += i * 0.5
    return total


def measure(workload, seconds: float, tracer, traced_api):
    """Run ops until ``seconds`` have passed.

    Returns the durations in ns of the ops that passed, by (kind, traced),
    (kind, ns, errors) for each op that failed, and the durations of
    ``reference_loop``, timed between ops for ``REF_SHARE`` of the time.
    Durations are kept in flat arrays so the harness's own memory barely
    grows with the op count.
    """
    durations = defaultdict(lambda: array("q"))
    failures = []
    reference = array("q")
    reference_ns = 0
    seen = Counter()
    began = time.perf_counter_ns()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        while not reference or reference_ns < REF_SHARE * (time.perf_counter_ns() - began):
            start = time.perf_counter_ns()
            reference_loop()
            reference.append(time.perf_counter_ns() - start)
            reference_ns += reference[-1]
        inp = workload.next_input()
        # In a traced run every other op of each kind is traced.
        traced = tracer is not None and seen[inp.kind] % 2 == 1
        seen[inp.kind] += 1
        start = time.perf_counter_ns()
        try:
            if traced:
                with tracer.root("op"):
                    out = workload.op(traced_api, inp)
            else:
                out = workload.op(workload.plain, inp)
        except Exception as exc:  # an op that raises is counted failed, and the run goes on
            ns = time.perf_counter_ns() - start
            errors = [f"{type(exc).__name__}: {exc}"]
        else:
            ns = time.perf_counter_ns() - start
            errors = workload.check(inp, out)
        workload.cleanup(inp)
        if errors:
            failures.append((inp.kind, ns, errors))
        else:
            durations[inp.kind, traced].append(ns)
    return durations, failures, reference


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def latency(values_ms, tail):
    """Median and tail of one op kind; the tail keeps at least 10 samples beyond it."""
    figures = {"p50": {"value": percentile(values_ms, 50), "samples": len(values_ms)}}
    if tail is not None and len(values_ms) > 10:
        level = min(float(tail), 100.0 * (1.0 - 10.0 / len(values_ms)))
        figures[f"p{tail}"] = {
            "value": percentile(values_ms, level), "percentile": round(level, 2), "samples": len(values_ms)
        }
    return figures


def end_to_end(workload, durations, failures, reference, setup_samples) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics and the workload's named figures, from untraced ops.

    The bounded latency is the mean op over the mean ``reference_loop``
    timed between the ops. On a few cores of a shared host the machine's
    speed swings by up to 2x in phases of seconds to minutes, so medians in
    ms of the same code differ by 20-50 % between runs. The reference loop
    slows down with the ops, so their ratio moves far less. It is a ratio of
    means because a run split between slow and fast phases puts its median
    in one phase or the other, while its mean moves in proportion to the
    time spent in each. The medians in ms stay among the named figures.
    """
    by_kind = {kind: [ns / 1e6 for ns in durations[kind, False]] for kind in workload.kinds}
    # If every op failed, the latency still has to be a number: use them all.
    primary = by_kind[workload.kinds[0]] or [ns / 1e6 for k, ns, _ in failures if k == workload.kinds[0]]
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    reference_ms = statistics.fmean(reference) / 1e6
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_per_ref.mean": statistics.fmean(primary) / reference_ms,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    ops = sum(map(len, durations.values())) + len(failures)
    named = {
        "setup_s": {"value": metrics["setup_s"], "unit": "s", "samples": setup_samples},
        "reference_loop_ms.mean": {"value": reference_ms, "unit": "ms", "samples": len(reference)},
        "failed_ops_share": {"value": len(failures) / ops, "unit": "share", "samples": ops},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"], "unit": "MB"},
    }
    if workload.throughput:
        name, items = workload.throughput
        named[name] = {"value": 1e3 * items / percentile(primary, 50), "unit": "1/s", "samples": len(primary)}
    for prefix, (kind, unit, factor, tail) in workload.latencies.items():
        if by_kind[kind]:
            for label, figure in latency(by_kind[kind], tail).items():
                named[f"{prefix}.{label}"] = {**figure, "value": figure["value"] * factor, "unit": unit}
    return metrics, named


def per_layer(workload, tracer, durations, probe_values) -> tuple[dict, dict]:
    """The BENCHMARK.json per-layer metrics and the per-function table of the traced ops."""
    table = tracer.calls_under("op")
    roots = tracer.roots("op")
    ops = max(len(roots), 1)
    counts = tracer.counts

    def row(name):
        return table.get(name, {"calls": 0, "failed": 0, "busy_ns": 0})

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def busy_ms(name):
        return row(name)["busy_ns"] / 1e6 / ops

    def us_per(name, count=None):
        return ratio(row(name)["busy_ns"] / 1e3, counts[name, count] if count else row(name)["calls"])

    fk, sweep, ftl = "kinematics.forward_kinematics", "simulation.synthetic_sweep", "simulation.ftl_run"
    plain, traced = durations[workload.kinds[0], False], durations[workload.kinds[0], True]
    values = {
        "kinematics.joint_from_actuation.us_per_call": us_per("kinematics.joint_from_actuation"),
        "kinematics.forward_kinematics.points": counts[fk, "points"] / ops,
        "kinematics.forward_kinematics.ns_per_point": 1e3 * us_per(fk, "points"),
        "simulation.synthetic_sweep.us_per_sample": us_per(sweep, "samples"),
        "simulation.synthetic_sweep.rejected_share": ratio(counts[sweep, "rejected"], counts[sweep, "samples"]),
        "simulation.ftl_run.busy_ms": busy_ms(ftl),
        "simulation.ftl_run.body_points": counts[ftl, "body_points"] / ops,
        "simulation.ftl_run.distinct_point_share": ratio(counts[ftl, "distinct_points"], counts[ftl, "body_points"]),
        "simulation.ftl_fidelity.busy_ms": busy_ms("simulation.ftl_fidelity"),
        "simulation.phantom_clearance.calls": row("simulation.phantom_clearance")["calls"] / ops,
        "simulation.phantom_clearance.busy_ms": busy_ms("simulation.phantom_clearance"),
        "svgplot.render_curves_svg.busy_ms": busy_ms("svgplot.render_curves_svg"),
        "estimation.stroke_based_estimate.us_per_sample": us_per("estimation.stroke_based_estimate", "samples"),
        "estimation.position_based_estimate.us_per_call": us_per("estimation.position_based_estimate"),
        "estimation.compare_point_sequences.busy_ms": busy_ms("estimation.compare_point_sequences"),
        "fileio.write_dataset_bundle.busy_ms": busy_ms("fileio.write_dataset_bundle"),
        "fileio.write_dataset_bundle.bytes": counts["fileio.write_dataset_bundle", "bytes"] / ops,
        "fileio.read_marker_csv.busy_ms": busy_ms("fileio.read_marker_csv"),
        "fileio.read_marker_csv.bytes": counts["fileio.read_marker_csv", "bytes"] / ops,
        "cli.import_ms": 0.0,
        "cli.main.demo_ms": 0.0,
        "trace.overhead_share": ratio(percentile(traced, 50), percentile(plain, 50)) - 1.0
        if plain and traced else 0.0,
    }
    values.update(probe_values)

    op_ns = sum(roots.values())
    functions = {
        name: {
            "calls_per_op": r["calls"] / ops,
            "busy_ms_per_op": r["busy_ns"] / 1e6 / ops,
            "share_of_op": ratio(r["busy_ns"], op_ns),
            "failed": r["failed"],
        }
        for name, r in sorted(table.items())
    }
    glue_ns = op_ns - sum(r["busy_ns"] for r in table.values())
    functions["(op self time: glue, or the child process on cli)"] = {
        "calls_per_op": 0, "busy_ms_per_op": glue_ns / 1e6 / ops, "share_of_op": ratio(glue_ns, op_ns), "failed": 0,
    }
    return values, {"traced_ops": len(roots), "functions": functions}


def run(args, tmp: Path) -> int:
    import catalog
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s, workload, inp, out = timed_setup(args.workload, args.seed, tmp)
    # The warm-up op and the derived geometry are checked too; a mismatch
    # counts the warm-up as a failed op.
    warmup_errors = workload.ctx.check_geometry() + workload.check(inp, out)
    workload.cleanup(inp)
    setup_samples = [setup_s] + [setup_in_child(args) for _ in range(workload.setup_repeats - 1)]

    tracer = tracing.Tracer() if args.trace else None
    traced_api = tracer.bind(workload.calls) if tracer else None
    probe_values = workload.probes(tracer) if tracer else {}
    durations, failures, reference = measure(workload, args.seconds, tracer, traced_api)

    metrics, named = end_to_end(workload, durations, failures, reference, setup_samples)
    if args.trace:
        metrics, layers = per_layer(workload, tracer, durations, probe_values)
        listed = spec["per_layer"]
    else:
        layers = None
        listed = spec["end_to_end"]

    errors = warmup_errors + [e for _, _, op_errors in failures for e in op_errors]
    failed = bool(warmup_errors) + len(failures)
    result = {
        "correct": failed == 0,
        "attempted": 1 + sum(map(len, durations.values())) + len(failures),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    env = environment(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"environment": env, "result": result, "named": named, "layers": layers, "errors": errors[:20]}
    if tracer:
        tracer.write_csv(OUT / f"{stem}-spans.csv")
        report["moves"] = {m["name"]: catalog.MOVES[m["name"]] for m in listed}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    print_report(env, named, layers, result, listed, errors)
    print(json.dumps(result))
    return 0


def print_report(env, named, layers, result, listed, errors) -> None:
    import catalog

    print(f"# helikin benchmark  workload={env['workload']} seed={env['seed']} "
          f"seconds={env['seconds']} trace={env['trace']}")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"pinned to CPUs {env['cpus_used']}, BLAS/OpenMP threads 1")
    for name, figure in named.items():
        extra = ""
        if "percentile" in figure:
            extra = f"  (p{figure['percentile']:g} of {figure['samples']} samples)"
        elif isinstance(figure.get("samples"), int):
            extra = f"  ({figure['samples']} samples)"
        print(f"  {name:<44} {figure['value']:>14.6g} {figure['unit']}{extra}")
    if layers:
        print(f"per function, over {layers['traced_ops']} traced ops "
              "(a faster layer saves at most its share of the op):")
        for name, f in layers["functions"].items():
            print(f"  {name:<44} {f['calls_per_op']:>10.6g} calls/op {f['busy_ms_per_op']:>12.6g} ms/op "
                  f"{100 * f['share_of_op']:>6.2f} %  failed {f['failed']}")
    print("metrics:")
    for m in listed:
        value = result["metrics"][m["name"]]["value"]
        label = "  computed" if m["name"] in catalog.COMPUTED else ""
        moves = f"  -> {catalog.MOVES[m['name']]}" if layers else ""
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}{label}{moves}")
    for message in errors[:5]:
        print(f"  check failed: {message}")


def run_all(args) -> int:
    """Each workload in its own child process; then every named figure."""
    rows, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        report = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        figures = report["named"] if not args.trace else result["metrics"]
        rows.update({f"{name}/{key}": {"value": f["value"], "unit": f["unit"]} for key, f in figures.items()})
    print("# all workloads")
    for key, figure in rows.items():
        print(f"  {key:<58} {figure['value']:>14.6g} {figure['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": rows}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "helikin" / "__init__.py").is_file():
        print(f"error: no helikin package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.setup_probe:
        pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            seconds, workload, inp, _ = timed_setup(args.workload, args.seed, tmp)
            workload.cleanup(inp)
            print(seconds)
            return 0
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
