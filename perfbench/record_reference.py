"""Record the seed-0 srks-cluster history that ``run.py`` compares against.

    python3 perfbench/record_reference.py

The pilot fixture's SRKS rows do not reproduce on every machine, so this
workload keeps its own reference, recorded with OpenBLAS pinned to one thread
and stored beside the machine context it was recorded on.
"""
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import bench

    workload = bench.WORKLOADS["srks-cluster"]
    run = bench.solve_sequence(bench.generate(0), workload)
    if bench.failed_solves(run, workload, bench.COUNT):
        raise RuntimeError("reference run has failed solves")
    bench.SRKS_REFERENCE.write_text(json.dumps({
        "workload": "srks-cluster",
        "context": bench.machine_context(0),
        "history": run.history,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
