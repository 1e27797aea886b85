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
from .model import FitResult, fit, predict
from .nn import NonFiniteError
from .propagation import (CacheFormatError, build_label_seed, cache_read, cache_write,
                          propagate_features, propagate_labels, stack_fingerprint)


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


def check_cache_values(config: TrainConfig, stacks, model=None) -> None:
    """Raise CacheFormatError naming the cache entry that a failed run over the
    cached ``stacks`` (feature stack, label stack or None, read from
    :func:`cache_paths` of ``config``) traces back to.

    The fingerprint hashes what shaped a cache, not its values, and loads
    stay lazy maps; so this scans every value, and only once a run over the
    stacks has failed on a non-finite one. It names the first non-finite
    value in step order. With every value finite, and given the ``model``
    whose eval-mode run failed, it names the first node that the model maps
    to a non-finite value, with that node's largest cached magnitude and its
    step. Otherwise it returns, and the run's own error stands.
    """
    named = list(zip(cache_paths(config), stacks))
    for path, stack in named:
        for step, mat in enumerate(stack.mats):
            bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
            if bad.size:
                raise CacheFormatError(f"{path}: step {step}, node {bad[0]} holds a "
                                       "non-finite value; rerun gamlp preprocess") from None
    node = None if model is None else _first_failing_node(model, *stacks)
    if node is None:
        return
    # the node's rows of every step, as (largest magnitude, step, path)
    mag, step, path = max(((float(np.abs(row).max(initial=0.0)), step, path)
                           for path, stack in named
                           for step, row in enumerate(stack.mats[:, node])),
                          key=lambda entry: entry[0])  # the first of equal maxima
    raise CacheFormatError(f"{path}: node {node} makes the model's output non-finite; its "
                           f"largest cached magnitude is {mag:.3g}, at step {step}; check "
                           "the input scaling or rerun gamlp preprocess") from None


def _first_failing_node(model, feature_stack, label_stack) -> int | None:
    """The first node whose eval-mode forward under ``model`` raises
    NonFiniteError, or None. Rows are independent in eval mode, so a
    bisection finds it in about one forward of every node."""
    def fails(lo: int, hi: int) -> bool:
        try:
            predict(model, feature_stack, label_stack, np.arange(lo, hi))
        except NonFiniteError:
            return True
        return False

    lo, hi = 0, feature_stack.n  # if a node fails, the first one lies in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fails(lo, mid):
            hi = mid
        else:
            lo = mid
    return lo if fails(lo, hi) else None


def train_on_dataset(dataset: Dataset, config: TrainConfig,
                     stacks=None, log_path=None) -> FitResult:
    """Convenience wrapper: build (or reuse) in-memory stacks and fit."""
    feature_stack, label_stack = stacks if stacks is not None else build_stacks(dataset, config)
    return fit(feature_stack, label_stack, dataset.labels, dataset.splits, config,
               num_classes=dataset.num_classes, log_path=log_path)
