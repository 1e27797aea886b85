"""End-to-end wiring: dataset -> operator -> stacks -> cache -> model.

The propagation caches are the hand-off point between the one-off graph
preprocessing and the row-wise training stage; cache files are named by
the parameters that shape their contents and validated by fingerprint
against the dataset they are loaded for. :func:`stack_recipes` is the one
place that decides which stacks a config uses and what shapes them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import Dataset
from .graph import add_self_loops, normalize
from .model import FitResult, fit
from .propagation import (build_label_seed, cache_read, cache_write, propagate_features,
                          propagate_labels, stack_fingerprint)


class MissingCacheError(Exception):
    """Raised when train/eval runs before preprocess."""


def stack_recipes(config: TrainConfig) -> tuple:
    """``(kind, steps, r)`` of each stack ``config`` uses: the features', then,
    with ``use_labels`` on, the labels' (r is r_mode; -1 hops follow the features')."""
    recipes = (("features", config.hops, config.r_mode),)
    if config.use_labels:
        recipes += (("labels", config.effective_label_hops, config.r_mode),)
    return recipes


def _seed(dataset: Dataset, kind: str) -> np.ndarray:
    """The matrix that a stack of ``kind`` propagates from."""
    if kind == "features":
        return dataset.features
    return build_label_seed(dataset.labels, dataset.splits.train, dataset.n,
                            dataset.num_classes)


def _pair(stacks: list):
    """(feature stack, label stack or None) from stacks in recipe order."""
    return stacks[0], stacks[1] if len(stacks) > 1 else None


def build_stacks(dataset: Dataset, config: TrainConfig, dtype=np.float64):
    """Propagate each stack in ``dtype``, the dtype it stores."""
    stacks = []
    for kind, steps, r in stack_recipes(config):
        op = normalize(dataset.graph, r)
        propagate = propagate_features if kind == "features" else propagate_labels
        stacks.append(propagate(op, _seed(dataset, kind), steps, dtype=dtype))
    return _pair(stacks)


def cache_paths(config: TrainConfig) -> list[Path]:
    """The ``.npy`` cache of each stack ``config`` uses, in stack order."""
    base = Path(config.cache_dir)
    letter = {"features": "K", "labels": "L"}
    return [base / f"{kind}_{letter[kind]}{steps}_r{r:g}.npy"
            for kind, steps, r in stack_recipes(config)]


def preprocess(dataset: Dataset, config: TrainConfig):
    """Build the stacks once and persist them; returns the ``.npy`` paths written.

    The stacks are built straight in float32, the dtype the caches store:
    each seed is rounded once and every hop runs in float32.
    """
    paths = cache_paths(config)
    for stack, path in zip(build_stacks(dataset, config, np.float32), paths):
        cache_write(stack, path)
    return paths


def load_stacks(dataset: Dataset, config: TrainConfig, force: bool = False):
    """Read cached stacks, validating their fingerprints against ``dataset``
    and float32 hops."""
    paths = cache_paths(config)
    for path in paths:
        if not path.exists():
            raise MissingCacheError(
                f"propagation cache {path} not found; run 'gamlp preprocess' first")
    # normalize keeps the self-looped structure, which is all the digest hashes
    looped = add_self_loops(dataset.graph)
    stacks = []
    for path, (kind, steps, r) in zip(paths, stack_recipes(config)):
        expect = stack_fingerprint(looped, _seed(dataset, kind), steps, r, np.float32)
        stacks.append(cache_read(path, expect_fingerprint=expect, force=force))
    return _pair(stacks)


def train_on_dataset(dataset: Dataset, config: TrainConfig,
                     stacks=None, log_path=None) -> FitResult:
    """Convenience wrapper: build (or reuse) in-memory stacks and fit."""
    feature_stack, label_stack = stacks if stacks is not None else build_stacks(dataset, config)
    return fit(feature_stack, label_stack, dataset.labels, dataset.splits, config,
               num_classes=dataset.num_classes, log_path=log_path)
