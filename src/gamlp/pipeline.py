"""End-to-end wiring: dataset -> operator -> stacks -> cache -> model.

The propagation caches are the hand-off point between the one-off graph
preprocessing and the row-wise training stage; cache files are named by
the parameters that shape their contents and validated by fingerprint
against the dataset they are loaded for.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import Dataset
from .graph import add_self_loops, normalize
from .model import FitResult, fit
from .propagation import (FeatureStack, LabelStack, build_label_seed, cache_read,
                          cache_write, propagate_features, propagate_labels,
                          stack_fingerprint)


class MissingCacheError(Exception):
    """Raised when train/eval runs before preprocess."""


def build_feature_stack(dataset: Dataset, config: TrainConfig,
                        dtype=np.float64) -> FeatureStack:
    op = normalize(add_self_loops(dataset.graph), config.r_mode)
    return propagate_features(op, dataset.features, config.hops, dtype=dtype)


def build_label_stack(dataset: Dataset, config: TrainConfig,
                      dtype=np.float64) -> LabelStack:
    op = normalize(add_self_loops(dataset.graph), config.effective_label_r_mode)
    y0 = build_label_seed(dataset.labels, dataset.splits.train, dataset.n,
                          dataset.num_classes)
    return propagate_labels(op, y0, config.effective_label_hops, dtype=dtype)


def build_stacks(dataset: Dataset, config: TrainConfig, dtype=np.float64):
    """Propagate both stacks in float64, storing them as ``dtype``."""
    feature_stack = build_feature_stack(dataset, config, dtype)
    label_stack = build_label_stack(dataset, config, dtype) if config.use_labels else None
    return feature_stack, label_stack


def cache_paths(config: TrainConfig, cache_dir=None):
    base = Path(cache_dir if cache_dir is not None else config.cache_dir)
    feat = base / f"features_K{config.hops}_r{config.r_mode:g}.npy"
    label = base / (f"labels_L{config.effective_label_hops}"
                    f"_r{config.effective_label_r_mode:g}.npy")
    return feat, label


def preprocess(dataset: Dataset, config: TrainConfig, cache_dir=None):
    """Build the stacks once and persist them; returns the ``.npy`` paths written.

    The stacks are built straight in float32, the dtype the caches store;
    the files equal those written from float64 stacks byte for byte.
    """
    feat_path, label_path = cache_paths(config, cache_dir)
    feat_path.parent.mkdir(parents=True, exist_ok=True)
    feature_stack, label_stack = build_stacks(dataset, config, np.float32)
    cache_write(feature_stack, feat_path)
    written = [feat_path]
    if label_stack is not None:
        cache_write(label_stack, label_path)
        written.append(label_path)
    return written


def load_stacks(dataset: Dataset, config: TrainConfig, cache_dir=None,
                force: bool = False):
    """Read cached stacks, validating their fingerprints against ``dataset``."""
    feat_path, label_path = cache_paths(config, cache_dir)
    if not feat_path.exists() or (config.use_labels and not label_path.exists()):
        missing = feat_path if not feat_path.exists() else label_path
        raise MissingCacheError(
            f"propagation cache {missing} not found; run 'gamlp preprocess' first")
    # normalize keeps the self-looped structure, which is all the digest hashes
    looped = add_self_loops(dataset.graph)
    expect = stack_fingerprint(looped, dataset.features, config.hops, config.r_mode)
    feature_stack = cache_read(feat_path, expect_fingerprint=expect, force=force)
    label_stack = None
    if config.use_labels:
        y0 = build_label_seed(dataset.labels, dataset.splits.train, dataset.n,
                              dataset.num_classes)
        expect = stack_fingerprint(looped, y0, config.effective_label_hops,
                                   config.effective_label_r_mode)
        label_stack = cache_read(label_path, expect_fingerprint=expect, force=force)
    return feature_stack, label_stack


def train_on_dataset(dataset: Dataset, config: TrainConfig,
                     stacks=None, log_path=None) -> FitResult:
    """Convenience wrapper: build (or reuse) in-memory stacks and fit."""
    feature_stack, label_stack = stacks if stacks is not None else build_stacks(dataset, config)
    return fit(feature_stack, label_stack, dataset.labels, dataset.splits, config,
               num_classes=dataset.num_classes, log_path=log_path)
