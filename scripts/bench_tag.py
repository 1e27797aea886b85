#!/usr/bin/env python3
"""Run the benchmark's workloads and write BENCH_<tag>.json at the repo root.

Examples:
    python3 scripts/bench_tag.py --tag pr8
    python3 scripts/bench_tag.py --tag pr9 --parent HEAD~1 --pairs 10

Every workload named in BENCHMARK.json runs twice through
``benchmarks/run.py``, for the run length BENCHMARK.json sets and with the
fixed seed SEED: untraced for the end-to-end metrics, then traced for the
per-layer ones. The file holds both sets, the op counts and test
accuracies of the runs and the environment record, so that files of two
tags compare metric by metric.

``--parent <rev> --pairs N`` also compares this checkout with a commit
on every workload. The commit is exported with ``git archive`` into
``.bench_work/``. Pair i runs both trees untraced with seed SEED + i, the
parent first in even pairs and this checkout first in odd ones, so that a
drift of the machine weighs on both sides alike. Per end-to-end metric it
prints each side's median and quartiles, the change/parent ratio of the
medians, the median and quartiles of the pairs' own change/parent ratios,
the pairs in which the change is better, whether the medians' gap is a
gain wider than the parent's IQR, and whether the change is worse than the
metric's bound; it stores them under ``pairs``. The pairs' ratios compare
runs on one dataset each, where the parent's IQR spans all the seeds.
"""

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, root=ROOT) -> dict:
    """The full record of one ``benchmarks/run.py`` run of the tree at ``root``."""
    subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    path = root / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
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


def export_tree(rev: str) -> Path:
    """The files of commit ``rev``, exported once with ``git archive`` into
    ``.bench_work/tree-<sha>``."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest = ROOT / ".bench_work" / f"tree-{sha}"
    if not dest.is_dir():
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        partial = dest.with_name(dest.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        # extraction filters came with Python 3.10.12 and 3.11.4
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(partial, **safe)
        partial.rename(dest)
    return dest


def quartiles(values: list) -> tuple:
    """(Q1, median, Q3), interpolated linearly between the sorted values."""
    s = sorted(values)

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        return s[lo] + (s[min(lo + 1, len(s) - 1)] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def pair_figures(parent_runs: list, change_runs: list, end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, over the pairs in which both runs report it:
    each side's values, median and quartiles, the change/parent ratio of the
    medians, each pair's change/parent ratio with their median and quartiles
    (``pair_ratio``), the pairs in which the change is better, and two
    verdicts.

    ``beyond_iqr``: the change's median is better than the parent's by more
    than the parent's IQR (``parent_iqr``, Q3 - Q1). ``past_bound``: the
    change's median is worse than the parent's by more than the metric's
    ``bound``, read as a share of the parent's median (a bound of 0.25 on a
    parent median of 40 allows up to 50 where lower is better, and down to
    30 where higher is better)."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for a, b in zip(parent_runs, change_runs)
                 if name in a["metrics"] and name in b["metrics"]]
        if not pairs:
            continue
        parent_values, change_values = zip(*pairs)
        sides = {}
        for side, values in (("parent", parent_values), ("change", change_values),
                             ("pair_ratio", [b / a for a, b in pairs])):
            q1, median, q3 = quartiles(values)
            sides[side] = {"values": list(values), "median": median, "q1": q1, "q3": q3}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent, change = sides["parent"]["median"], sides["change"]["median"]
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = {**sides, "unit": spec["unit"], "better": spec["better"],
                     "ratio": change / parent,
                     "wins": sum(sign * (b - a) > 0 for a, b in pairs), "pairs": len(pairs),
                     "parent_iqr": iqr, "beyond_iqr": sign * (change - parent) > iqr,
                     "past_bound": sign * (parent - change) > spec["bound"] * parent}
    return out


def run_pairs(workloads, parent_root: Path, pairs: int, seconds: float,
              end_to_end: list[dict], run=run_benchmark) -> dict:
    """Alternated untraced runs of ``parent_root`` and this checkout, ``pairs``
    per workload; pair i runs seed SEED + i, the parent first when i is even."""
    out = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            order = [("parent", parent_root), ("change", ROOT)]
            for side, root in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run(workload, SEED + i, seconds, 0, root=root))
        out[workload] = {
            "seeds": [SEED + i for i in range(pairs)],
            "ops_failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "metrics": pair_figures(runs["parent"], runs["change"], end_to_end)}
    return out


def _cell(figures: dict, unit: str) -> str:
    """'median [Q1, Q3]' of one side's figures, seconds in ms, rates in
    thousands and ratios to three places."""
    def fmt(value):
        if unit == "s":
            return f"{value * 1e3:.1f} ms"
        if unit == "ratio":
            return f"{value:.3f}"
        return f"{value / 1e3:.1f}k" if unit == "rows/s" else f"{value:.1f}"

    return f"{fmt(figures['median'])} [{fmt(figures['q1'])}, {fmt(figures['q3'])}]"


def pair_table(pairs: dict) -> list[str]:
    """The figures of :func:`run_pairs` as the lines of a Markdown table."""
    lines = ["| workload | metric | parent median [Q1, Q3] | change median [Q1, Q3] "
             "| change / parent | pair ratios median [Q1, Q3] | change better "
             "| gain beyond parent IQR | past bound |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for workload, record in pairs.items():
        for name, m in record["metrics"].items():
            lines.append(f"| {workload} | `{name}` | {_cell(m['parent'], m['unit'])} | "
                         f"{_cell(m['change'], m['unit'])} | {m['ratio']:.3f} | "
                         f"{_cell(m['pair_ratio'], 'ratio')} | "
                         f"{m['wins']} of {m['pairs']} | "
                         f"{'yes' if m['beyond_iqr'] else 'no'} | "
                         f"{'yes' if m['past_bound'] else 'no'} |")
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="written to BENCH_<tag>.json")
    parser.add_argument("--parent", help="a commit to compare with in alternated pairs")
    parser.add_argument("--pairs", type=int, help="pairs of runs per workload (with --parent)")
    args = parser.parse_args(argv)
    if (args.parent is None) != (args.pairs is None):
        parser.error("--parent and --pairs go together")
    if args.pairs is not None and args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # export before the runs, so that a bad commit fails at once
    parent_root = export_tree(args.parent) if args.parent else None

    workloads = [w["name"] for w in bench["workloads"]]
    record = collect(args.tag, workloads, SEED, bench["run_seconds"])
    if parent_root:
        record["pairs"] = {"parent": args.parent, "parent_tree": parent_root.name,
                           "workloads": run_pairs(workloads, parent_root, args.pairs,
                                                  bench["run_seconds"], bench["end_to_end"])}
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    failed = sum(w["ops_failed"] for w in record["workloads"].values())
    if parent_root:
        print("\n".join(pair_table(record["pairs"]["workloads"])))
        failed += sum(sum(w["ops_failed"].values())
                      for w in record["pairs"]["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
