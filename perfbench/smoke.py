"""Smoke test of the benchmark itself on a few systems of a small grid.

    python3 -m pytest -q perfbench/smoke.py

The file is not named ``test_*.py``, so the package's own test run does not
collect it.
"""
import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import run  # noqa: E402
from recycg import core, recycle  # noqa: E402

SMALL = {"grid": (16, 16), "count": 4}


@pytest.fixture
def small_bench(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(bench, "run_workload",
                        functools.partial(bench.run_workload, **SMALL))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(small_bench, capsys, trace, section):
    status = run.main(["--workload", "srks-cluster", "--seed", "3",
                       "--seconds", "0.05", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    result = json.loads(lines[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]


def test_residual_check_rejects_perturbed_x():
    workload = bench.WORKLOADS["trks-grow"]
    seq = bench.solve_sequence(bench.generate(3, **SMALL), workload)
    assert bench.failed_solves(seq, workload, SMALL["count"]) == 0
    solve = seq.solves[-1]
    assert bench.residual_ok(solve, workload.tol)
    solve.x = solve.x + 1e-3 * np.linalg.norm(solve.x) / np.sqrt(solve.A.n)
    assert not bench.residual_ok(solve, workload.tol)
    assert bench.failed_solves(seq, workload, SMALL["count"]) == 1
    seq.solves.pop(0)
    assert bench.failed_solves(seq, workload, SMALL["count"]) == 2


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_self_times_add_up_to_parent_spans(name):
    originals = (recycle.apcg_solve, core.SparseSpdMatrix.__matmul__)
    seq = bench.solve_sequence(bench.generate(3, **SMALL), bench.WORKLOADS[name],
                               bench.Tracer())
    assert (recycle.apcg_solve, core.SparseSpdMatrix.__matmul__) == originals

    spans = seq.tracer.spans
    own = seq.tracer.self_seconds()
    assert min(own) >= -1e-9
    root = spans[0]
    assert root.name == "recycle.run_sequence" and root.parent is None
    # self times of the span tree plus the aggregated kernels add up to the root
    kernels = sum(agg[1] for s in spans for agg in s.kernels.values())
    assert kernels > 0
    assert sum(own) + kernels == pytest.approx(root.seconds, rel=1e-9, abs=1e-12)
    for span in spans[1:]:
        parent = spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
    steps = [s for s in spans if s.name == "recycle.step"]
    assert [s.k for s in steps] == list(range(SMALL["count"]))
    assert [s.n_c_before for s in steps] == seq.history["n_c_before"]
