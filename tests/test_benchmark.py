"""The benchmark's output checks, in process and with no timing.

For each (workload, seed) pair below, the workload of ``perfbench/worker.py``
is set up as the worker sets it up, its warm-up operation is checked, then
enough operations to reach every mode are checked against
``perfbench/expected.json``, and ``finish()``, the whole-run checks, fails
none of them. ``separated_fits`` also fits every one of its 140 panels in
``finish()``; each Firth fit must converge.
"""

import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (workload, seed, operations after the warm-up): 2 ratio modes for a cold
#: report, 12 ratio/coef/format modes for a warm one, 3 panels x 3 formats
#: for a large panel, and one op for the separated fits, whose ``finish``
#: fits the rest.
RUNS = [
    ("cold_report", 1, 2),
    ("warm_report", 1, 12),
    ("separated_fits", 1, 1),
    ("separated_fits", 501, 1),
    ("separated_fits", 502, 1),
    ("large_panel", 1, 9),
    ("large_panel", 2, 9),
    ("large_panel", 3, 9),
]


@pytest.mark.parametrize("name, seed, ops", RUNS, ids=[f"{n}-{s}" for n, s, _ in RUNS])
def test_every_benchmark_output_passes_its_check(perfbench, name, seed, ops, tmp_path,
                                                 monkeypatch):
    worker = perfbench("worker")
    # A cold op starts ``python -m retailrisk.cli`` from the checkout.
    monkeypatch.setattr(worker, "ROOT", ROOT)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    workload = worker.WORKLOADS[name](seed, tmp_path)
    assert workload.check(-1, workload.op(-1)), "warm-up"
    assert [i for i in range(ops) if not workload.check(i, workload.op(i))] == []
    assert workload.finish() == set()
    if name == "separated_fits":
        assert workload.notes["final_model_unconverged_panels"] == 0
