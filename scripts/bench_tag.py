#!/usr/bin/env python3
"""Run the benchmark's workloads and write BENCH_<tag>.json at the repo root.

Example:
    python3 scripts/bench_tag.py --tag pr8 --against BENCH_pr7.json

Every workload named in BENCHMARK.json runs twice through
``benchmarks/run.py``, for the run length BENCHMARK.json sets and with the
fixed seed SEED: untraced for the end-to-end metrics, then traced for the
per-layer ones. The file holds both sets, the op counts and test
accuracies of the runs and the environment record, so that files of two
tags compare metric by metric.

``--against BENCH_<prev>.json`` then prints, per workload, each
end-to-end metric of the new file over the previous one.
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


def compare(record: dict, previous: dict, end_to_end: list[dict]) -> list[str]:
    """One line per workload and end-to-end metric: previous, new, new/previous."""
    lines = []
    for workload, new in record["workloads"].items():
        old = previous["workloads"].get(workload)
        lines.append(f"{workload} ({record['tag']} / {previous['tag']}):")
        for spec in end_to_end:
            name = spec["name"]
            a = (old or {}).get("end_to_end", {}).get(name, {}).get("value")
            b = new["end_to_end"].get(name, {}).get("value")
            if a is None or b is None:
                lines.append(f"  {name}: missing in {'previous' if a is None else 'new'} file")
                continue
            ratio = f"{b / a:.3f}x" if a else "n/a"
            lines.append(f"  {name}: {a:.4g} -> {b:.4g} {spec['unit']}  {ratio} "
                         f"({spec['better']} is better)")
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="written to BENCH_<tag>.json")
    parser.add_argument("--against", type=Path,
                        help="a previous BENCH_<tag>.json: print each end-to-end ratio")
    args = parser.parse_args(argv)
    # read before the runs, so that a bad path fails at once
    previous = json.loads(args.against.read_text()) if args.against else None

    record = collect(args.tag, [w["name"] for w in bench["workloads"]], SEED,
                     bench["run_seconds"])
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    if previous:
        print("\n".join(compare(record, previous, bench["end_to_end"])))
    failed = sum(w["ops_failed"] for w in record["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
