"""``tools/bench_record.py --diff`` on hand-made BENCH files."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BOUNDS = {
    "setup_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "op_per_ref.mean": {"unit": "ratio", "better": "lower", "bound": 0.25},
}


def _bench(op_median=10.0, correct=True, attempted=100, failed=0):
    def metric(median):
        by_seed = {"1": median, "2": median}
        return {"median": median, "q1": median, "q3": median, "iqr": 0.0, "n": 2, "by_seed": by_seed}

    return {
        "environment": {"python": ["3.11.7"], "numpy": ["2.4.6"], "blas": "openblas", "cpu": ["x"]},
        "bounds": copy.deepcopy(BOUNDS),
        "workloads": {
            "cli": {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {"setup_s": metric(0.4), "op_per_ref.mean": metric(op_median)},
            }
        },
    }


def _diff(tmp_path, a, b):
    paths = []
    for name, payload in (("BENCH_1.json", a), ("BENCH_2.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(payload))
    return bench_record.main(["--diff", *map(str, paths)])


def test_equal_files_pass(tmp_path, capsys):
    assert _diff(tmp_path, _bench(), _bench()) == 0
    out = capsys.readouterr().out
    assert "cli           correct                  True         True\n" in out
    assert "0/100 vs 0/100" in out


def test_incorrect_b_fails(tmp_path, capsys):
    assert _diff(tmp_path, _bench(), _bench(correct=False)) == 1
    assert "B INCORRECT" in capsys.readouterr().out


@pytest.mark.parametrize(
    "a, b, code",
    [
        ((100, 0), (100, 1), 1),  # B fails where A did not
        ((100, 1), (200, 3), 1),  # 1.5 % against 1 %
        ((100, 2), (400, 4), 0),  # more failures, but a smaller share
        ((100, 1), (100, 0), 0),
    ],
)
def test_failed_share_compared(tmp_path, capsys, a, b, code):
    bench_a = _bench(attempted=a[0], failed=a[1])
    bench_b = _bench(attempted=b[0], failed=b[1])
    assert _diff(tmp_path, bench_a, bench_b) == code
    assert ("B FAILS A LARGER SHARE" in capsys.readouterr().out) == bool(code)


@pytest.mark.parametrize("attempted, ratio", [(136, "1.3600"), (50, "0.5000"), (100, "1.0000")])
def test_ops_ratio_on_the_failed_share_line(tmp_path, capsys, attempted, ratio):
    assert _diff(tmp_path, _bench(attempted=100), _bench(attempted=attempted)) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if " failed share " in line)
    assert f"0/100 vs 0/{attempted}, ops B/A {ratio}" in line


def test_workload_missing_from_b_fails(tmp_path, capsys):
    a, b = _bench(), _bench()
    a["workloads"]["dataset"] = copy.deepcopy(a["workloads"]["cli"])
    assert _diff(tmp_path, a, b) == 1
    out = capsys.readouterr().out
    assert "dataset       MISSING FROM B\n" in out
    assert "cli           op_per_ref.mean" in out
    # A workload only B ran is compared with nothing and flags nothing.
    assert _diff(tmp_path, b, a) == 0
    assert "MISSING" not in capsys.readouterr().out


def test_incorrect_a_alone_passes(tmp_path):
    assert _diff(tmp_path, _bench(correct=False), _bench()) == 0


def test_ratio_past_bound_still_fails(tmp_path, capsys):
    assert _diff(tmp_path, _bench(op_median=10.0), _bench(op_median=13.0)) == 1
    assert "PAST BOUND 0.25" in capsys.readouterr().out


def _named(samples_per_s, startup_ms):
    def figure(value, unit):
        return {"median": value, "q1": value, "q3": value, "iqr": 0.0, "n": 2, "unit": unit,
                "by_seed": {"1": value, "2": value}}

    return {
        "dataset.samples_per_s": figure(samples_per_s, "1/s"),
        "cli.startup_ms.p50": figure(startup_ms, "ms"),
    }


def test_named_figures_printed_but_not_gated(tmp_path, capsys):
    a, b = _bench(), _bench()
    a["workloads"]["cli"]["named"] = _named(1000.0, 300.0)
    b["workloads"]["cli"]["named"] = _named(10.0, 3000.0)
    assert _diff(tmp_path, a, b) == 0
    out = capsys.readouterr().out
    apart = "medians apart by more than A's IQR"
    assert (
        "cli           cli.startup_ms.p50              300         3000  10.0000  "
        f"0/2 lower, ms, not gated; {apart}\n"
    ) in out
    assert (
        "cli           dataset.samples_per_s          1000           10   0.0100  "
        f"2/2 lower, 1/s, not gated; {apart}\n"
    ) in out


def test_file_without_named_figures_is_skipped(tmp_path, capsys):
    b = _bench()
    b["workloads"]["cli"]["named"] = _named(1000.0, 300.0)
    assert _diff(tmp_path, _bench(), b) == 0
    assert _diff(tmp_path, b, _bench()) == 0
    assert "not gated" not in capsys.readouterr().out


def test_record_keeps_named_figures(tmp_path, monkeypatch):
    def run_once(checkout, workload, seed, seconds):
        value = float(seed)
        result = {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": value} for name in ("setup_s", "op_per_ref.mean", "peak_rss_mb")},
        }
        named = {
            "setup_s": {"value": value, "unit": "s"},
            "peak_rss_mb": {"value": value, "unit": "MB"},
            "cli.startup_ms.p50": {"value": 100.0 * value, "unit": "ms", "samples": 9},
        }
        env = {"python": "3", "numpy": "2", "nproc": 2, "cpu": "x", "cpus_used": None, "threads": {}}
        return result, {"environment": env, "named": named}

    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record, "blas_of", lambda checkout: "openblas")
    out = tmp_path / "BENCH_9.json"
    assert bench_record.main(["--workloads", "cli", "--seeds", "1,2,3", f"{tmp_path}:{out}"]) == 0
    cli = json.loads(out.read_text())["workloads"]["cli"]
    # Bounded metrics are kept once, among the metrics.
    assert list(cli["named"]) == ["cli.startup_ms.p50"]
    assert cli["named"]["cli.startup_ms.p50"] == {
        "median": 200.0, "q1": 150.0, "q3": 250.0, "iqr": 100.0, "n": 3, "unit": "ms",
        "by_seed": {"1": 100.0, "2": 200.0, "3": 300.0},
    }


def _layer(value, better="lower"):
    return {"median": value, "q1": value, "q3": value, "iqr": 0.0, "n": 2, "unit": "us", "better": better,
            "by_seed": {"1": value, "2": value}}


def test_per_layer_metrics_printed_but_not_gated(tmp_path, capsys):
    a, b = _bench(), _bench()
    a["workloads"]["cli"]["per_layer"] = {"kinematics.joint_from_actuation.us_per_call": _layer(2.0),
                                          "simulation.ftl_run.distinct_point_share": _layer(0.5, "higher")}
    b["workloads"]["cli"]["per_layer"] = {"kinematics.joint_from_actuation.us_per_call": _layer(20.0),
                                          "simulation.ftl_run.distinct_point_share": _layer(0.6, "higher")}
    assert _diff(tmp_path, a, b) == 0
    out = capsys.readouterr().out
    assert (
        "cli           kinematics.joint_from_actuation.us_per_call            2           20  10.0000  "
        "0/2 lower, per layer, us, not gated; medians apart by more than A's IQR\n"
    ) in out
    assert "simulation.ftl_run.distinct_point_share          0.5          0.6   1.2000  2/2 higher, per layer" in out


def test_file_without_per_layer_metrics_is_skipped(tmp_path, capsys):
    b = _bench()
    b["workloads"]["cli"]["per_layer"] = {"kinematics.joint_from_actuation.us_per_call": _layer(2.0)}
    assert _diff(tmp_path, _bench(), b) == 0
    assert _diff(tmp_path, b, _bench()) == 0
    assert "per layer" not in capsys.readouterr().out


@pytest.mark.parametrize("per_layer", [False, True])
def test_record_keeps_per_layer_metrics_on_request(tmp_path, monkeypatch, per_layer):
    traces = []

    def run_once(checkout, workload, seed, seconds, trace=0):
        traces.append(trace)
        value = float(seed)
        if trace:
            metrics = {
                "kinematics.forward_kinematics.ns_per_point": {"value": 10.0 * value, "unit": "ns"},
                "simulation.ftl_run.busy_ms": {"value": 0.0, "unit": "ms"},  # never reached: left out
            }
        else:
            metrics = {name: {"value": value} for name in ("setup_s", "op_per_ref.mean", "peak_rss_mb")}
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
        env = {"python": "3", "numpy": "2", "nproc": 2, "cpu": "x", "cpus_used": None, "threads": {}}
        return result, {"environment": env, "named": {}}

    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record, "blas_of", lambda checkout: "openblas")
    spec = {
        "run_seconds": 1,
        "end_to_end": [{"name": n, "unit": "x", "better": "lower", "bound": 0.1}
                       for n in ("setup_s", "op_per_ref.mean", "peak_rss_mb")],
        "per_layer": [{"name": "kinematics.forward_kinematics.ns_per_point", "unit": "ns", "better": "lower"},
                      {"name": "simulation.ftl_run.busy_ms", "unit": "ms", "better": "lower"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    out = tmp_path / "BENCH_9.json"
    argv = ["--workloads", "control_loop", "--seeds", "1,2,3", f"{tmp_path}:{out}"]
    assert bench_record.main(argv + ["--per-layer"] * per_layer) == 0
    loop = json.loads(out.read_text())["workloads"]["control_loop"]
    assert traces == ([0, 1] * 3 if per_layer else [0] * 3)
    if not per_layer:
        assert "per_layer" not in loop
        return
    assert loop["per_layer"] == {
        "kinematics.forward_kinematics.ns_per_point": {
            "median": 20.0, "q1": 15.0, "q3": 25.0, "iqr": 10.0, "n": 3, "unit": "ns", "better": "lower",
            "by_seed": {"1": 10.0, "2": 20.0, "3": 30.0},
        },
    }


def _runs(*values):
    return {**bench_record.summary(list(values)), "by_seed": {str(k): v for k, v in enumerate(values, 1)}}


@pytest.mark.parametrize(
    "b, code, notes",
    [
        # A's IQR (0.15) is 43 % of its median (0.35), wider than the 25 % bound.
        ((0.25, 0.3, 0.35, 0.45), 0, "unresolved: A's IQR is 43 % of its median"),
        ((0.5, 0.6, 0.7, 0.8), 1, "unresolved: A's IQR is 43 % of its median; PAST BOUND 0.25\n"),
        ((0.1, 0.12, 0.15, 0.19), 0, "medians apart by more than A's IQR\n"),  # every B run beats every A run
    ],
    ids=["ratio within the bound", "ratio past the bound", "every B run better"],
)
def test_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys, b, code, notes):
    bench_a, bench_b = _bench(), _bench()
    bench_a["workloads"]["cli"]["metrics"]["setup_s"] = _runs(0.2, 0.3, 0.4, 0.5)
    bench_b["workloads"]["cli"]["metrics"]["setup_s"] = _runs(*b)
    assert _diff(tmp_path, bench_a, bench_b) == code
    line = next(line for line in capsys.readouterr().out.splitlines(keepends=True) if " setup_s " in line)
    assert notes in line


def test_spread_inside_the_bound_is_not_marked(tmp_path, capsys):
    bench_a, bench_b = _bench(), _bench()
    bench_a["workloads"]["cli"]["metrics"]["setup_s"] = _runs(0.40, 0.41, 0.43, 0.44)
    bench_b["workloads"]["cli"]["metrics"]["setup_s"] = _runs(0.39, 0.42, 0.45, 0.46)
    assert _diff(tmp_path, bench_a, bench_b) == 0
    assert "unresolved" not in capsys.readouterr().out
