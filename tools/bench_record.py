#!/usr/bin/env python3
"""Record perfbench runs as BENCH_<pr>.json files, and compare two such files.

    python3 tools/bench_record.py --seeds 601,602,603,604,605,606,607,608,609,610 \
        ../parent:BENCH_5.json .:BENCH_6.json
    python3 tools/bench_record.py --workloads dataset --seeds 1,5,9 .:BENCH_6.json
    python3 tools/bench_record.py --diff BENCH_5.json BENCH_6.json

Each CHECKOUT:OUT argument names a source checkout, whose own
``perfbench/run.py --trace 0`` runs for BENCHMARK.json's run_seconds,
and the file its runs are written to. Recording needs ``--seeds``; a gain
claim needs ten or more. For each workload and seed every checkout runs
once, and the order of the checkouts rotates from seed to seed, so that a
slow phase of the machine falls on every side alike. A file holds, per workload and
end-to-end metric, the median, quartiles, IQR and n of the runs and every
run's value by seed; the bounds from BENCHMARK.json; the Python, numpy,
CPU count and pinned CPUs the runs reported; and the BLAS numpy was built
against, as the checkout's interpreter reports it. The demo digests and
the body-clearance bit-equality tests assume OpenBLAS gemv rounding, so a
different BLAS is worth knowing about before reading a diff.

``--diff A B`` notes any difference in Python, numpy, BLAS or CPU, prints
B / A of each metric's median and flags a ratio past its bound. Over the seeds both files ran it also prints how many pairs B
won, and whether the medians differ by more than A's IQR. It exits 1 if a
ratio is past its bound. Only the standard library is used.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dataset", "ftl_deploy", "control_loop", "cli")
BLAS_QUERY = (
    "import numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(blas['name'], blas['version'])"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", metavar="CHECKOUT:OUT")
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated")
    parser.add_argument("--seeds", help="comma-separated; required to record")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two BENCH files")
    args = parser.parse_args(argv)
    if not args.diff and not args.targets:
        parser.error("give CHECKOUT:OUT targets or --diff A B")
    args.workloads = args.workloads.split(",")
    if not set(args.workloads) <= set(WORKLOADS):
        parser.error(f"--workloads: choose from {', '.join(WORKLOADS)}")
    if args.targets:
        if args.seeds is None:
            parser.error("recording needs --seeds")
        try:
            args.seeds = [int(seed) for seed in args.seeds.split(",")]
        except ValueError:
            parser.error(f"--seeds: not a comma-separated list of integers: {args.seeds!r}")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One run's final JSON line and the environment its report recorded."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return result, json.loads(report.read_text())["environment"]


def commit_of(checkout: Path) -> str | None:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=checkout).returncode != 0
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty else "")


def blas_of(checkout: Path) -> str:
    """Name and version of the BLAS numpy uses in the interpreter that runs the checkout."""
    done = subprocess.run([sys.executable, "-c", BLAS_QUERY], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def record(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    targets = []
    for target in args.targets:
        checkout, sep, out = target.rpartition(":")
        if not sep:
            raise SystemExit(f"error: {target!r} is not CHECKOUT:OUT")
        targets.append((Path(checkout).resolve(), Path(out)))
    runs = {out: {w: [] for w in args.workloads} for _, out in targets}
    envs = {out: [] for _, out in targets}
    for workload in args.workloads:
        for k, seed in enumerate(args.seeds):
            for checkout, out in targets[k % len(targets):] + targets[:k % len(targets)]:
                result, env = run_once(checkout, workload, seed, seconds)
                runs[out][workload].append((seed, result))
                envs[out].append(env)
                values = {m: v["value"] for m, v in result["metrics"].items()}
                print(f"{out.name} {workload} seed {seed}: correct={result['correct']} {values}", flush=True)

    for checkout, out in targets:
        env = envs[out]
        match = re.fullmatch(r"BENCH_(\d+)\.json", out.name)
        payload = {
            "pr": int(match.group(1)) if match else None,
            "commit": commit_of(checkout),
            "command": f"perfbench/run.py --trace 0 --seconds {seconds:g}",
            "seeds": args.seeds,
            "environment": {
                **{key: sorted({str(e[key]) for e in env}) for key in ("python", "numpy", "nproc", "cpu")},
                "pinned_cpus": sorted({cpu for e in env for cpu in e["cpus_used"] or []}),
                "threads": env[0]["threads"],
                "blas": blas_of(checkout),
            },
            "bounds": {m["name"]: {k: m[k] for k in ("unit", "better", "bound")} for m in spec["end_to_end"]},
            "workloads": {},
        }
        for workload, seeded in runs[out].items():
            metrics = {}
            for m in spec["end_to_end"]:
                by_seed = {str(seed): result["metrics"][m["name"]]["value"] for seed, result in seeded}
                metrics[m["name"]] = {**summary(list(by_seed.values())), "unit": m["unit"], "by_seed": by_seed}
            payload["workloads"][workload] = {
                "correct": all(result["correct"] for _, result in seeded),
                "attempted": sum(result["attempted"] for _, result in seeded),
                "failed": sum(result["failed"] for _, result in seeded),
                "metrics": metrics,
            }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


def diff(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("python", "numpy", "blas", "cpu"):
        env_a, env_b = (f["environment"].get(key, "not recorded") for f in (a, b))
        if env_a != env_b:
            print(f"note: {key} differs: {env_a} vs {env_b}")
    flagged = 0
    print(f"{'workload':<13} {'metric':<16} {'A median':>12} {'B median':>12} {'B/A':>8}  pairs B won")
    for workload in [w for w in a["workloads"] if w in b["workloads"]]:
        for name, bound in a["bounds"].items():
            ma, mb = a["workloads"][workload]["metrics"][name], b["workloads"][workload]["metrics"][name]
            ratio = mb["median"] / ma["median"] if ma["median"] else float("inf")
            lower = bound["better"] == "lower"
            past = ratio > 1.0 + bound["bound"] if lower else ratio < 1.0 - bound["bound"]
            seeds = [s for s in ma["by_seed"] if s in mb["by_seed"]]
            won = sum((mb["by_seed"][s] < ma["by_seed"][s]) == lower and mb["by_seed"][s] != ma["by_seed"][s]
                      for s in seeds)
            notes = []
            if abs(mb["median"] - ma["median"]) > ma["iqr"]:
                notes.append("medians apart by more than A's IQR")
            if past:
                notes.append(f"PAST BOUND {bound['bound']:g}")
                flagged += 1
            print(f"{workload:<13} {name:<16} {ma['median']:>12.6g} {mb['median']:>12.6g} {ratio:>8.4f}  "
                  f"{won}/{len(seeds)}  {'; '.join(notes)}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return diff(*args.diff) if args.diff else record(args)


if __name__ == "__main__":
    sys.exit(main())
