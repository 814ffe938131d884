"""The benchmark's in-process workloads run one op each against this tree and pass their own checks.

perfbench reads record fields such as ``SyntheticDataset.failures`` and
``joints`` and ``EstimateResult.joint_series`` and ``per_sample_phi``; a
rename there fails here rather than in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["dataset", "ftl_deploy", "control_loop"])
def test_one_op_passes_its_check(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](workloads.Context(), 1, tmp_path)
    inp = workload.next_input()
    out = workload.op(workload.plain, inp)
    try:
        assert workload.check(inp, out) == []
    finally:
        workload.cleanup(inp)
