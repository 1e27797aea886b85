"""Command-line pipeline driver.

Subcommands: preprocess, train, eval, sweep, ablate, export-attention,
inspect. Once its arguments parse, a failing command prints one line,
``gamlp: error: ...``, and exits 1; a run over cached stacks that fails on
a non-finite value names the cache file and node at fault, as the model
raises it.
Thread-count control (--threads, or the GAMLP_THREADS environment
variable) sets the BLAS pools and the propagation (spmm) threads. The BLAS
pools read it only when the numerics libraries load, so the heavy imports
happen inside the handlers.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, parse_config, thread_count


def _set_threads(threads) -> None:
    """Export ``threads`` (the parsed --threads; None: GAMLP_THREADS) to the
    thread variables, before any handler loads the numerics libraries.
    Raises ValueError unless it is a positive integer."""
    threads = os.environ.get("GAMLP_THREADS") if threads is None else str(threads)
    if threads:
        thread_count(threads)
        for var in ("GAMLP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            os.environ[var] = threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamlp",
        description="Precomputed graph propagation + node-adaptive attention classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--cache-dir", default=None, help="override the config cache_dir")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (overrides GAMLP_THREADS)")

    p = sub.add_parser("preprocess", help="build and persist the propagation caches")
    common(p)

    p = sub.add_parser("train", help="fit the model from the caches")
    common(p)
    p.add_argument("--checkpoint", default=None, help="checkpoint output path")
    p.add_argument("--out", default=None, help="training-log JSONL path")
    p.add_argument("--force", action="store_true",
                   help="use caches even if their fingerprint mismatches")

    p = sub.add_parser("eval", help="report split accuracies for a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("sweep", help="depth / edge-sparsity / label-sparsity sweeps")
    common(p)
    p.add_argument("--kind", required=True, choices=["depth", "edge", "label"])
    p.add_argument("--levels", required=True,
                   help="comma-separated levels (depths, fractions or label counts)")
    p.add_argument("--methods", default="gamlp_jk,sgc",
                   help="comma-separated method names")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out", default="report", help="report path prefix")

    p = sub.add_parser("ablate", help="run one ablation family")
    common(p)
    p.add_argument("--which", required=True,
                   choices=["label_use", "reference_vector", "alpha_scheme"])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out", default="ablation", help="report path prefix")

    p = sub.add_parser("export-attention", help="write attention-weight CSV tables")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="attention", help="output path prefix")
    p.add_argument("--buckets", default="1-4,5-8,9-12",
                   help="degree buckets, e.g. 1-4,5-8,9-12")

    p = sub.add_parser("inspect", help="print a propagation cache's shape and fingerprint")
    p.add_argument("cache", help="a features_*.npy or labels_*.npy cache file")
    p.set_defaults(threads=None)
    return parser


def _load(args):
    from .data import load_dataset

    config = parse_config(args.config)
    for flag, key in (("--cache-dir", "cache_dir"), ("--seed", "seed")):
        if getattr(args, key) is not None:
            try:
                config = config.replace(**{key: getattr(args, key)})
            except ConfigError as e:
                raise ConfigError(f"{flag}: {e}") from None
    dataset = load_dataset(config.dataset_dir)
    return config, dataset


def _cmd_preprocess(args) -> int:
    from .pipeline import preprocess

    config, dataset = _load(args)
    for path in preprocess(dataset, config):
        print(f"wrote {path}")
    return 0


def _cmd_train(args) -> int:
    from .model import evaluate_accuracy, fit, labeled_ids, predict, save_checkpoint
    from .pipeline import load_stacks

    config, dataset = _load(args)
    feature_stack, label_stack = load_stacks(dataset, config, force=args.force)
    ckpt = args.checkpoint or os.path.join(config.cache_dir, "checkpoint.gmck")
    log_path = args.out or ckpt + ".log.jsonl"
    result = fit(feature_stack, label_stack, dataset.labels, dataset.splits, config,
                 num_classes=dataset.num_classes, log_path=log_path)
    pred = predict(result.model, feature_stack, label_stack)
    save_checkpoint(ckpt, result.model, feature_stack, label_stack)
    labels, splits = dataset.labels, dataset.splits
    val = (f"{result.best_val_acc:.4f} (epoch {result.best_epoch})"
           if labeled_ids(splits.val, labels).size else "n/a (0 nodes)")
    test = (f"{evaluate_accuracy(pred, labels, splits.test):.4f}"
            if labeled_ids(splits.test, labels).size else "n/a (0 nodes)")
    print(f"best val accuracy {val}, test accuracy {test}")
    print(f"wrote {ckpt} and {log_path}")
    return 0


def _restore(args):
    """(dataset, model, feature stack, label stack) of ``args.checkpoint``."""
    from .model import restore_model
    from .pipeline import load_stacks

    if not os.path.exists(args.checkpoint):
        raise FileNotFoundError(f"checkpoint {args.checkpoint} not found; "
                                "run 'gamlp train' first")
    config, dataset = _load(args)
    feature_stack, label_stack = load_stacks(dataset, config)
    model = restore_model(args.checkpoint, config, feature_stack, label_stack)
    return dataset, model, feature_stack, label_stack


def _cmd_eval(args) -> int:
    from .model import evaluate_accuracy, labeled_ids, predict

    dataset, model, feature_stack, label_stack = _restore(args)
    pred = predict(model, feature_stack, label_stack)
    for part in ("train", "val", "test"):
        split = labeled_ids(getattr(dataset.splits, part), dataset.labels)
        if split.size == 0:
            print(f"{part} accuracy n/a (0 nodes)")
            continue
        acc = evaluate_accuracy(pred, dataset.labels, split)
        print(f"{part} accuracy {acc:.4f} ({split.size} nodes)")
    return 0


def _cmd_sweep(args) -> int:
    from .experiments import (method_config, run_depth_sweep, run_sparsity_sweep,
                              write_report)

    levels = _parse_levels(args.levels, float if args.kind == "edge" else int)
    config, dataset = _load(args)
    methods = {name: method_config(config, name.strip())
               for name in args.methods.split(",") if name.strip()}
    base_seed = config.seed
    if args.kind == "depth":
        report = run_depth_sweep(dataset, levels, methods, n_runs=args.runs,
                                 base_seed=base_seed)
    else:
        report = run_sparsity_sweep(dataset, args.kind, levels, methods,
                                    n_runs=args.runs, base_seed=base_seed)
    csv_path, json_path = write_report(report, args.out)
    for row in report["summary"]:
        print(f"{row['method']:>12} {row['setting']:>10} "
              f"{row['mean']:.4f} +- {row['std']:.4f} ({row['n_runs']} runs)")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_ablate(args) -> int:
    from .experiments import run_ablation, write_report

    config, dataset = _load(args)
    report = run_ablation(dataset, args.which, config, n_runs=args.runs,
                          base_seed=config.seed)
    csv_path, json_path = write_report(report, args.out)
    for row in report["summary"]:
        print(f"{row['method']:>16} {row['mean']:.4f} +- {row['std']:.4f} "
              f"({row['n_runs']} runs)")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _parse_levels(spec: str, number):
    levels = []
    for part in spec.split(","):
        try:
            levels.append(number(part.strip()))
        except ValueError:
            raise ValueError(f"--levels: bad level {part!r} in {spec!r}; "
                             f"expected comma-separated {number.__name__}s") from None
    return levels


def _parse_buckets(spec: str):
    buckets = []
    for part in spec.split(","):
        lo, sep, hi = part.strip().partition("-")
        if not (sep and lo.isdigit() and hi.isdigit() and int(lo) <= int(hi)):
            raise ValueError(f"--buckets: bad degree bucket {part!r} in {spec!r}; "
                             "expected lo-hi with integers lo <= hi")
        buckets.append((int(lo), int(hi)))
    return buckets


def _cmd_export_attention(args) -> int:
    from .model import export_attention, write_attention_csv

    buckets = _parse_buckets(args.buckets)
    dataset, model, feature_stack, label_stack = _restore(args)
    per_node, per_bucket = export_attention(model, feature_stack, label_stack,
                                            dataset.graph.degrees(), buckets)
    node_path = f"{args.out}_nodes.csv"
    bucket_path = f"{args.out}_buckets.csv"
    write_attention_csv(per_node, per_bucket, node_path, bucket_path,
                        feature_stack.steps)
    print(f"wrote {node_path} and {bucket_path}")
    return 0


def _cmd_inspect(args) -> int:
    from .propagation import cache_info

    header = cache_info(args.cache)
    print(f"stack        {header.shape} float32, {header.nbytes} bytes")
    print(f"fingerprint  {header.fingerprint.hex()}")
    print(f"file         {header.file_size} bytes")
    return 0


_HANDLERS = {
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "ablate": _cmd_ablate,
    "export-attention": _cmd_export_attention,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)  # loads no numpy
    try:
        _set_threads(args.threads)
        if getattr(args, "runs", 1) < 1:  # sweep's and ablate's, before any load
            raise ValueError(f"--runs: got {args.runs}; expected at least 1 run")
        return _HANDLERS[args.command](args)
    except Exception as e:  # one-line diagnostic, nonzero exit
        print(f"gamlp: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
