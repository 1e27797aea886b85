"""Experiment drivers: method comparison tables, sparsity and depth sweeps,
and ablations.

Every driver returns a report dict with per-run rows, per-setting
summaries (mean/std over seeds) and the fully resolved configs, and can
be written out as CSV (one row per method x setting x seed) plus a JSON
summary. All randomness is derived from explicit seeds recorded in the
report; perturbation seeds are shared across methods so that every
method sees exactly the same sparsified inputs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import Dataset, drop_edges, sample_labels_per_class
from .model import evaluate_accuracy, predict
from .pipeline import build_stacks, stack_recipes, train_on_dataset
from .propagation import atomic_write

METHOD_OVERRIDES = {
    "gamlp_jk": dict(combiner="attention", attention="jk"),
    "gamlp_r": dict(combiner="attention", attention="recursive"),
    "sgc": dict(combiner="sgc", num_layers=1, use_labels=False),
    "s2gc": dict(combiner="s2gc", num_layers=1, use_labels=False),
    "gbp": dict(combiner="gbp", use_labels=False),
    "sign": dict(combiner="sign", use_labels=False),
}


def method_config(base: TrainConfig, method: str) -> TrainConfig:
    if method not in METHOD_OVERRIDES:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(METHOD_OVERRIDES)}")
    return base.replace(**METHOD_OVERRIDES[method])


class _StackCache:
    """Memoizes in-memory stacks per (dataset object, stack recipes).

    The residual scheme and ``zero_self_label`` are not part of the key:
    they shape only the train-time inputs derived from the label steps.
    """

    def __init__(self):
        self._store = {}

    def get(self, dataset: Dataset, config: TrainConfig):
        key = (id(dataset), *stack_recipes(config))
        if key not in self._store:
            self._store[key] = build_stacks(dataset, config)
        return self._store[key]


def _run_method(dataset: Dataset, config: TrainConfig, seeds, setting: str,
                method: str, stacks) -> list[dict]:
    rows = []
    for seed in seeds:
        cfg = config.replace(seed=seed)
        result = train_on_dataset(dataset, cfg, stacks=stacks)
        feature_stack, label_stack = stacks
        pred = predict(result.model, feature_stack, label_stack)
        rows.append({
            "method": method,
            "setting": setting,
            "seed": seed,
            "val_acc": result.best_val_acc,
            "test_acc": evaluate_accuracy(pred, dataset.labels, dataset.splits.test),
            "epochs_run": len(result.log),
        })
    return rows


def _summarize(rows: list[dict]) -> list[dict]:
    summary = []
    seen = []
    for row in rows:
        key = (row["method"], row["setting"])
        if key not in seen:
            seen.append(key)
    for method, setting in seen:
        accs = [r["test_acc"] for r in rows
                if r["method"] == method and r["setting"] == setting]
        summary.append({
            "method": method,
            "setting": setting,
            "mean": float(np.mean(accs)),
            "std": float(np.std(accs)),
            "n_runs": len(accs),
        })
    return summary


def _report(rows, configs, seeds) -> dict:
    return {
        "rows": rows,
        "summary": _summarize(rows),
        "configs": {name: cfg.to_dict() for name, cfg in configs.items()},
        "seeds": list(seeds),
    }


def run_baseline_table(dataset: Dataset, configs: dict[str, TrainConfig],
                       n_runs: int, base_seed: int = 0) -> dict:
    """Mean/std test accuracy per method over n_runs seeds."""
    seeds = [base_seed + i for i in range(n_runs)]
    cache = _StackCache()
    rows = []
    for method, config in configs.items():
        stacks = cache.get(dataset, config)
        rows.extend(_run_method(dataset, config, seeds, "base", method, stacks))
    return _report(rows, configs, seeds)


def run_depth_sweep(dataset: Dataset, depths, configs: dict[str, TrainConfig],
                    n_runs: int = 1, base_seed: int = 0) -> dict:
    """Test accuracy per propagation depth; depth sets K (and L)."""
    seeds = [base_seed + i for i in range(n_runs)]
    cache = _StackCache()
    rows = []
    resolved = {}
    for depth in depths:
        for method, config in configs.items():
            cfg = config.replace(hops=depth,
                                 label_hops=depth if config.use_labels else -1)
            resolved[f"{method}@depth{depth}"] = cfg
            stacks = cache.get(dataset, cfg)
            rows.extend(_run_method(dataset, cfg, seeds, f"depth{depth}", method, stacks))
    return _report(rows, resolved, seeds)


def run_sparsity_sweep(dataset: Dataset, kind: str, levels,
                       configs: dict[str, TrainConfig], n_runs: int,
                       base_seed: int = 0, perturb_seed: int = 7) -> dict:
    """Accuracy curves under edge removal or per-class label budgets.

    kind "edge": levels are removal fractions in [0, 1).
    kind "label": levels are per-class training-label counts.
    The perturbation at each level is sampled once and shared by all
    methods.
    """
    if kind not in ("edge", "label"):
        raise ValueError("sparsity kind must be 'edge' or 'label'")
    seeds = [base_seed + i for i in range(n_runs)]
    rows = []
    resolved = {}
    for idx, level in enumerate(levels):
        level_seed = perturb_seed + 1000 * idx
        if kind == "edge":
            perturbed = drop_edges(dataset, float(level), level_seed) if level else dataset
            setting = f"edge{level:g}"
        else:
            perturbed = sample_labels_per_class(dataset, int(level), level_seed)
            setting = f"label{level}"
        cache = _StackCache()
        for method, config in configs.items():
            resolved[f"{method}@{setting}"] = config
            stacks = cache.get(perturbed, config)
            rows.extend(_run_method(perturbed, config, seeds, setting, method, stacks))
    report = _report(rows, resolved, seeds)
    report["perturb_seed"] = perturb_seed
    return report


ABLATIONS = {
    "label_use": {
        "full": {},
        "no_label": dict(use_labels=False),
        "plain_label": dict(label_mode="plain"),
        "uniform": dict(label_mode="uniform"),
    },
    "reference_vector": {
        "full": dict(attention="jk", reference="jk"),
        "origin_feature": dict(attention="jk", reference="origin_feature"),
        "normal_noise": dict(attention="jk", reference="normal_noise"),
        "no_reference": dict(attention="jk", reference="no_reference"),
    },
    "alpha_scheme": {
        "cosine": dict(residual_scheme="cosine"),
        "linear": dict(residual_scheme="linear"),
        "fixed": dict(residual_scheme="fixed", fixed_alpha=0.7),
    },
}


def run_ablation(dataset: Dataset, which: str, base_config: TrainConfig,
                 n_runs: int, base_seed: int = 0) -> dict:
    """Per-variant accuracy table for one ablation family."""
    if which not in ABLATIONS:
        raise ValueError(f"unknown ablation {which!r}; choose from {sorted(ABLATIONS)}")
    seeds = [base_seed + i for i in range(n_runs)]
    cache = _StackCache()
    rows = []
    resolved = {}
    for variant, overrides in ABLATIONS[which].items():
        cfg = base_config.replace(**overrides)
        resolved[variant] = cfg
        stacks = cache.get(dataset, cfg)
        rows.extend(_run_method(dataset, cfg, seeds, which, variant, stacks))
    return _report(rows, resolved, seeds)


def write_report(report: dict, out_prefix) -> tuple[Path, Path]:
    """Write <prefix>.csv (per-run rows) and <prefix>.json (summary + configs)."""
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out_prefix.with_suffix(".csv")
    json_path = out_prefix.with_suffix(".json")
    fields = ["method", "setting", "seed", "val_acc", "test_acc", "epochs_run"]
    with atomic_write(csv_path, "x", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(report["rows"])
    with atomic_write(json_path, "x", encoding="utf-8") as f:
        json.dump({k: v for k, v in report.items() if k != "rows"}, f, indent=2)
    return csv_path, json_path
