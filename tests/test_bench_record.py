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


def test_incorrect_a_alone_passes(tmp_path):
    assert _diff(tmp_path, _bench(correct=False), _bench()) == 0


def test_ratio_past_bound_still_fails(tmp_path, capsys):
    assert _diff(tmp_path, _bench(op_median=10.0), _bench(op_median=13.0)) == 1
    assert "PAST BOUND 0.25" in capsys.readouterr().out
