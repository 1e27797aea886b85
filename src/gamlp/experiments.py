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

PERTURB_SEED = 7  # the sparsity sweep's first level seed; each later level adds 1000

METHOD_OVERRIDES = {
    "gamlp_jk": dict(attention="jk"),
    "gamlp_r": dict(attention="recursive"),
    "sgc": dict(attention="sgc", num_layers=1, use_labels=False),
    "s2gc": dict(attention="s2gc", num_layers=1, use_labels=False),
    "gbp": dict(attention="gbp", use_labels=False),
    "sign": dict(attention="sign", use_labels=False),
}


def method_config(base: TrainConfig, method: str) -> TrainConfig:
    if method not in METHOD_OVERRIDES:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(METHOD_OVERRIDES)}")
    return base.replace(**METHOD_OVERRIDES[method])


def _run(cases, n_runs: int, base_seed: int) -> dict:
    """Train every ``(config name, setting, method, dataset, config)`` case
    over ``n_runs`` seeds and report the rows, per-(method, setting)
    summaries, the resolved configs by name and the seeds.

    Stacks are built once per dataset and stack recipe; the residual scheme
    and label mode shape only the train-time label inputs. They are
    dropped when a case on another dataset starts, and that dataset is held
    while they are kept, so memory stays bounded by one dataset's stacks.
    """
    seeds = [base_seed + i for i in range(n_runs)]
    rows, configs, accs = [], {}, {}
    dataset, cache = None, {}
    for name, setting, method, ds, config in cases:
        if ds is not dataset:
            dataset, cache = ds, {}
        recipes = stack_recipes(config)
        if recipes not in cache:
            cache[recipes] = build_stacks(ds, config)
        stacks = cache[recipes]
        configs[name] = config.to_dict()
        for seed in seeds:
            result = train_on_dataset(ds, config.replace(seed=seed), stacks=stacks)
            test_acc = evaluate_accuracy(predict(result.model, *stacks), ds.labels,
                                         ds.splits.test)
            rows.append({"method": method, "setting": setting, "seed": seed,
                         "val_acc": result.best_val_acc, "test_acc": test_acc,
                         "epochs_run": len(result.log)})
            accs.setdefault((method, setting), []).append(test_acc)
    summary = [{"method": method, "setting": setting, "mean": float(np.mean(a)),
                "std": float(np.std(a)), "n_runs": len(a)}
               for (method, setting), a in accs.items()]
    return {"rows": rows, "summary": summary, "configs": configs, "seeds": seeds}


def run_baseline_table(dataset: Dataset, configs: dict[str, TrainConfig],
                       n_runs: int, base_seed: int) -> dict:
    """Mean/std test accuracy per method over n_runs seeds."""
    return _run([(method, "base", method, dataset, config)
                 for method, config in configs.items()], n_runs, base_seed)


def run_depth_sweep(dataset: Dataset, depths, configs: dict[str, TrainConfig],
                    n_runs: int, base_seed: int) -> dict:
    """Test accuracy per propagation depth; depth sets K (and L)."""
    return _run([(f"{method}@depth{depth}", f"depth{depth}", method, dataset,
                  config.replace(hops=depth, label_hops=depth if config.use_labels else -1))
                 for depth in depths for method, config in configs.items()],
                n_runs, base_seed)


def run_sparsity_sweep(dataset: Dataset, kind: str, levels,
                       configs: dict[str, TrainConfig], n_runs: int,
                       base_seed: int) -> dict:
    """Accuracy curves under edge removal or per-class label budgets.

    kind "edge": levels are removal fractions in [0, 1).
    kind "label": levels are per-class training-label counts.
    The perturbation at each level is sampled once, from its seed
    PERTURB_SEED + 1000 · level index, and shared by all methods; the report
    records PERTURB_SEED as ``perturb_seed``.
    """
    if kind not in ("edge", "label"):
        raise ValueError("sparsity kind must be 'edge' or 'label'")

    def cases():  # one perturbed dataset at a time
        for idx, level in enumerate(levels):
            level_seed = PERTURB_SEED + 1000 * idx
            if kind == "edge":
                perturbed = drop_edges(dataset, float(level), level_seed) if level else dataset
                setting = f"edge{level:g}"
            else:
                perturbed = sample_labels_per_class(dataset, int(level), level_seed)
                setting = f"label{level}"
            for method, config in configs.items():
                yield f"{method}@{setting}", setting, method, perturbed, config

    report = _run(cases(), n_runs, base_seed)
    report["perturb_seed"] = PERTURB_SEED
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
                 n_runs: int, base_seed: int) -> dict:
    """Per-variant accuracy table for one ablation family."""
    if which not in ABLATIONS:
        raise ValueError(f"unknown ablation {which!r}; choose from {sorted(ABLATIONS)}")
    return _run([(variant, which, variant, dataset, base_config.replace(**overrides))
                 for variant, overrides in ABLATIONS[which].items()], n_runs, base_seed)


def write_report(report: dict, out_prefix) -> tuple[Path, Path]:
    """Write <prefix>.csv (per-run rows) and <prefix>.json (summary + configs)."""
    out_prefix = Path(out_prefix)
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
