#!/usr/bin/env python3
"""Run the benchmark's workloads and write BENCH_<tag>.json at the repo root.

Example:
    python3 scripts/bench_tag.py --tag pr7

Every workload named in BENCHMARK.json runs twice through
``benchmarks/run.py``, for the run length BENCHMARK.json sets and with the
fixed seed SEED: untraced for the end-to-end metrics, then traced for the
per-layer ones. The file holds both sets, the op counts and test
accuracies of the runs and the environment record, so that files of two
tags compare metric by metric.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def run_benchmark(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The full record of one ``benchmarks/run.py`` run."""
    subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def collect(tag: str, workloads, seed: int, seconds: float, run=run_benchmark) -> dict:
    out = {"tag": tag, "seed": seed, "seconds": seconds, "environment": None, "workloads": {}}
    for workload in workloads:
        untraced, traced = run(workload, seed, seconds, 0), run(workload, seed, seconds, 1)
        out["environment"] = out["environment"] or untraced["environment"]
        out["workloads"][workload] = {
            "ops_attempted": untraced["attempted"] + traced["attempted"],
            "ops_failed": untraced["failed"] + traced["failed"],
            "test_accuracy": untraced["test_accuracy"] + traced["test_accuracy"],
            "end_to_end": untraced["metrics"], "per_layer": traced["metrics"]}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="written to BENCH_<tag>.json")
    args = parser.parse_args(argv)

    record = collect(args.tag, [w["name"] for w in bench["workloads"]], SEED,
                     bench["run_seconds"])
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    failed = sum(w["ops_failed"] for w in record["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
