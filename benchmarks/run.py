"""Closed-loop benchmark of the gamlp pipeline: one caller, one call in flight.

    python3 benchmarks/run.py --workload fullbatch-jk --seed 1 --seconds 20 --trace 0

Generates the workload's dataset from ``--seed`` (not timed), then repeats
passes of the public API in the order ``gamlp preprocess``, ``train`` and
``eval`` call it -- load_dataset, preprocess, load_stacks, fit, predict --
until ``--seconds`` have passed and at least ``MIN_PASSES`` are done. Each
call is one op; it fails if it raises or fails its correctness check.

``--trace 0`` reports the end-to-end metrics (trimmed means over passes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead. Either
way the last stdout line is one JSON object; the full record (environment,
workload shape, samples and, when traced, every span) goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
import tracemalloc
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    gen: dict      # arguments of gen.generate
    config: dict   # TrainConfig fields
    floor: float   # minimum test accuracy


WORKLOADS = {
    # dense NN path: fit dominates, graph layers nearly idle
    "fullbatch-jk": Workload(
        gen=dict(n=6000, classes=8, dim=128, edges=30000, lines=36000),
        config=dict(hops=10, hidden=256, attention="jk", batch_size=0, epochs=5,
                    lr=0.01),
        floor=0.6),
    # ingest, propagation and cache dominate; all-node predict sets the RSS peak
    "ingest-large": Workload(
        gen=dict(n=40000, classes=10, dim=64, edges=160000, lines=200000,
                 heavy_tail=True, feature_sep=1.5, train_frac=0.15, val_frac=0.05),
        config=dict(hops=5, hidden=128, attention="jk", batch_size=2048, epochs=3,
                    lr=0.01),
        floor=0.6),
    # small batches: per-call overhead, row gathers, O(K^2) recursive loop, deep spmm
    "minibatch-recursive": Workload(
        gen=dict(n=15000, classes=8, dim=64, edges=75000, lines=90000),
        config=dict(hops=16, hidden=128, attention="recursive", batch_size=256,
                    epochs=1, lr=0.01),
        floor=0.7),
}

END_TO_END_UNITS = {"setup_s": "s", "preprocess_s": "s", "load_stacks_s": "s",
                    "train_rows_per_s": "rows/s", "predict_rows_per_s": "rows/s",
                    "peak_rss_mb": "MB"}


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)  # metric -> seconds per call
    test_accuracy: list = field(default_factory=list)


def pin_threads() -> int:
    """Pin BLAS pools to the usable CPU count; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def keep_freed_memory() -> bool:
    """Have glibc keep freed memory for reuse instead of returning it to the kernel.

    By default glibc raises its mmap threshold as large blocks are freed
    and trims the heap top, so whether a pass re-faults its stack-sized
    arrays depends on the allocation history, and the page-fault cost
    itself drifts on a virtual machine: ``load_stacks`` alternated between
    two levels 50% apart. With a fixed 32 MiB threshold and no trimming,
    every pass after the first reuses already-mapped pages.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 * 2**20)
                and libc.mallopt(m_trim_threshold, 2**30))


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(threads: int, keeps_freed: bool) -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(), "blas_threads": threads, "nproc": os.cpu_count(),
            "malloc_keeps_freed_memory": keeps_freed,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0],
            "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20}


def _op(ops: Ops, metric: str, call, check, peaks=None, stage=None):
    """Time one call; returns its result, or None when it raised or failed its check."""
    ops.attempted += 1
    if peaks is not None:
        tracemalloc.start()
    try:
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ops.failed += 1
        return None
    finally:
        if peaks is not None:
            peaks[stage] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    problem = check(result)
    if problem:
        print(f"{metric}: check failed: {problem}", file=sys.stderr)
        ops.failed += 1
        return None
    ops.samples.setdefault(metric, []).append(elapsed)
    return result


def run_pass(workload: Workload, config, dataset_dir: Path, stats: dict, ops: Ops,
             peaks=None) -> bool:
    """load_dataset -> preprocess -> load_stacks -> fit -> predict, each one op.

    ``peaks`` (traced passes only) receives the tracemalloc peak of each
    stage after load_dataset. Returns False as soon as an op fails.
    """
    import numpy as np

    from gamlp import data, model, pipeline

    def check_dataset(ds):
        got = (ds.n, ds.graph.nnz, ds.num_classes, ds.splits.train.size)
        want = (stats["n"], stats["nnz"], stats["classes"], stats["train"])
        return None if got == want else f"(n, nnz, classes, train) = {got}, expected {want}"

    ds = _op(ops, "setup_s", lambda: data.load_dataset(dataset_dir), check_dataset)
    if ds is None:
        return False

    def check_written(paths):
        missing = [p for p in paths if not Path(p).is_file()]
        return None if len(paths) == 2 and not missing else f"cache files {paths}"

    if _op(ops, "preprocess_s", lambda: pipeline.preprocess(ds, config), check_written,
           peaks, "pipeline.preprocess") is None:
        return False

    def check_stacks(stacks):
        fs, ls = stacks
        got = (fs.n, fs.steps, fs.dim, ls.steps)
        want = (ds.n, config.hops, ds.features.shape[1], config.effective_label_hops)
        return None if got == want else f"(n, K, f, L) = {got}, expected {want}"

    # force=False: a fingerprint mismatch raises and fails the op
    stacks = _op(ops, "load_stacks_s", lambda: pipeline.load_stacks(ds, config, force=False),
                 check_stacks, peaks, "pipeline.load_stacks")
    if stacks is None:
        return False

    def check_fit(result):
        losses = [r["train_loss"] for r in result.log]
        if len(losses) != config.epochs or not np.all(np.isfinite(losses)):
            return f"train losses {losses}"
        return None

    fitted = _op(ops, "fit_s", lambda: model.fit(*stacks, ds.labels, ds.splits, config,
                                                 num_classes=ds.num_classes),
                 check_fit, peaks, "model.fit")
    if fitted is None:
        return False

    def check_predict(pred):
        if pred.shape != (ds.n,):
            return f"prediction shape {pred.shape}"
        acc = model.evaluate_accuracy(pred, ds.labels, ds.splits.test)
        ops.test_accuracy.append(acc)
        return None if acc >= workload.floor else f"test accuracy {acc:.4f} < {workload.floor}"

    return _op(ops, "predict_s", lambda: model.predict(fitted.model, *stacks),
               check_predict, peaks, "model.predict") is not None


def trimmed_mean(seconds: list) -> float:
    """Mean of the calls left after dropping the fastest and the slowest.

    The machine's speed can switch between a fast and a slow level for tens
    of seconds at a time; a median then jumps between the two levels from
    run to run, while this mean follows the share of slow time smoothly and
    still ignores one outlier on either side.
    """
    kept = sorted(seconds)[1:-1] if len(seconds) > 2 else seconds
    return sum(kept) / len(kept)


def end_to_end(ops: Ops, config, stats: dict) -> dict:
    s = {metric: trimmed_mean(seconds) for metric, seconds in ops.samples.items()}
    values = {"setup_s": s["setup_s"], "preprocess_s": s["preprocess_s"],
              "load_stacks_s": s["load_stacks_s"],
              "train_rows_per_s": config.epochs * stats["train"] / s["fit_s"],
              "predict_rows_per_s": stats["n"] / s["predict_s"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def pass_seconds(ops: Ops, first: int) -> float:
    """Wall time of the ops of one pass, whose samples start at index ``first``."""
    return sum(v[first] for v in ops.samples.values())


def measure(workload: Workload, config, dataset_dir: Path, stats: dict, seconds: float,
            trace: bool):
    """Repeat passes for ``seconds``.

    Returns the untraced and traced ops, the per-layer metrics and recorder
    of each traced pass, and the wall time of every pass.
    """
    import tracing

    untraced, traced = Ops(), Ops()
    layer_passes, recorders = [], []
    walls = {"untraced": [], "traced": []}
    start = time.perf_counter()
    while True:
        use_trace = trace and len(walls["untraced"]) > len(walls["traced"])
        ops = traced if use_trace else untraced
        first = len(ops.samples.get("predict_s", []))
        if use_trace:
            recorder, peaks = tracing.Recorder(), {}
            with tracing.instrument(recorder):
                ok = run_pass(workload, config, dataset_dir, stats, ops, peaks)
            recorders.append(recorder)
            if ok:
                layer_passes.append(tracing.per_layer_metrics(tracing.summarize(recorder),
                                                               peaks))
        else:
            ok = run_pass(workload, config, dataset_dir, stats, ops)
        if ok:
            walls["traced" if use_trace else "untraced"].append(pass_seconds(ops, first))
        gc.collect()
        done = sum(map(len, walls.values()))
        if not ok or (done >= (2 if trace else MIN_PASSES)
                      and time.perf_counter() - start >= seconds):
            break
    return untraced, traced, layer_passes, recorders, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gamlp" / "__init__.py").is_file():
        print(f"{ROOT / 'src' / 'gamlp'}: package sources not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    threads = pin_threads()
    keeps_freed = keep_freed_memory()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import gen
    import gamlp
    from gamlp import data, model, pipeline  # noqa: F401  (loads every traced layer)
    from gamlp.config import TrainConfig

    if Path(gamlp.__file__).resolve().parent != ROOT / "src" / "gamlp":
        print(f"imported gamlp from {gamlp.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        stats = gen.generate(run_dir / "data", seed=args.seed, **workload.gen)
        config = TrainConfig(dataset_dir=str(run_dir / "data"), cache_dir=str(run_dir / "cache"),
                             patience=workload.config["epochs"], seed=args.seed,
                             **workload.config).validate()
        untraced, traced, layer_passes, recorders, walls = measure(
            workload, config, run_dir / "data", stats, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    import tracing

    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    metrics = {}
    if failed == 0:
        if args.trace:
            layer = tracing.median_metrics(layer_passes)
            layer["trace.overhead_s"] = median(walls["traced"]) - median(walls["untraced"])
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        else:
            metrics = end_to_end(untraced, config, stats)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(threads, keeps_freed), "shape": stats,
              "config": config.to_dict(), "attempted": attempted, "failed": failed,
              "samples": {"untraced": untraced.samples, "traced": traced.samples},
              "test_accuracy": untraced.test_accuracy + traced.test_accuracy,
              "pass_walls": walls, "metrics": metrics,
              "spans": [r.spans for r in recorders]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(f"# {args.workload} seed {args.seed}: n={stats['n']} nnz={stats['nnz']} "
          f"classes={stats['classes']} degree quantiles {stats['degree_quantiles']}")
    print(f"# environment {json.dumps(record['environment'])}; record {out.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"ops_attempted {attempted}\nops_failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(".flops"):
        return "flop_computed"
    if metric.endswith("spmm.bytes"):
        return "byte_computed"
    if metric.endswith(".bytes"):
        return "byte"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
