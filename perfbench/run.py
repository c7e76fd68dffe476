"""Run one workload of the recycg sequence benchmark.

    python3 perfbench/run.py --workload cg-plain --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints the end-to-end
metrics named in ``BENCHMARK.json``, with ``--trace 1`` the per-layer ones,
each on its own line with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full result
(machine context, histories, spans of a traced run) is written to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.  The process pins
OpenBLAS to one thread.
"""
import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("BENCHMARK.json", "src/recycg/__init__.py",
            "tests/fixtures/benchmark_pilot.json")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a recycg checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    # must be set before numpy loads OpenBLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    args = parse_args(argv, sorted(bench.WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = bench.run_workload(args.workload, args.seed, args.seconds, args.trace)
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))

    print(f"context: {json.dumps(result['context'])}")
    print(f"run_sequence seconds: {result['sequence_seconds']}, "
          f"step samples: {result['step_samples']}, "
          f"set-up samples: {len(result['setup_seconds'])}")
    print(f"history matches seed-0 reference: {result['history_matches_reference']}")
    for m in declared:
        print(f"{m['name']:32s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
