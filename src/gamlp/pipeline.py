"""End-to-end wiring: dataset -> operator -> stacks -> cache -> model.

The propagation caches are the hand-off point between the one-off graph
preprocessing and the row-wise training stage; cache files are named by
the parameters that shape their contents and validated by fingerprint
against the dataset they are loaded for.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import Dataset
from .graph import add_self_loops, normalize
from .model import FitResult, fit
from .propagation import (FeatureStack, FingerprintMismatch, LabelStack, ResidualScheme,
                          apply_last_residual, build_label_seed, cache_read, cache_write,
                          propagate_features, propagate_labels, stack_fingerprint,
                          zero_seed_rows)


class MissingCacheError(Exception):
    """Raised when train/eval runs before preprocess."""


def residual_scheme(config: TrainConfig) -> ResidualScheme:
    return ResidualScheme(config.residual_scheme, config.fixed_alpha)


def build_feature_stack(dataset: Dataset, config: TrainConfig) -> FeatureStack:
    op = normalize(add_self_loops(dataset.graph), config.r_mode)
    return propagate_features(op, dataset.features, config.hops)


def build_label_stack(dataset: Dataset, config: TrainConfig) -> LabelStack:
    op = normalize(add_self_loops(dataset.graph), config.effective_label_r_mode)
    y0 = build_label_seed(dataset.labels, dataset.splits.train, dataset.n,
                          dataset.num_classes)
    stack = propagate_labels(op, y0, config.effective_label_hops, residual_scheme(config))
    if config.zero_self_label:
        zero_seed_rows(stack, dataset.splits.train)
    return apply_last_residual(stack)


def build_stacks(dataset: Dataset, config: TrainConfig):
    feature_stack = build_feature_stack(dataset, config)
    label_stack = build_label_stack(dataset, config) if config.use_labels else None
    return feature_stack, label_stack


def cache_paths(config: TrainConfig, cache_dir=None):
    base = Path(cache_dir if cache_dir is not None else config.cache_dir)
    feat = base / f"features_K{config.hops}_r{config.r_mode:g}.gmlp"
    zeroed = "_zeroed" if config.zero_self_label else ""
    label = base / (f"labels_L{config.effective_label_hops}"
                    f"_r{config.effective_label_r_mode:g}"
                    f"_{config.residual_scheme}{zeroed}.gmlp")
    return feat, label


def preprocess(dataset: Dataset, config: TrainConfig, cache_dir=None):
    """Build the stacks once and persist them; returns the written paths."""
    feat_path, label_path = cache_paths(config, cache_dir)
    feat_path.parent.mkdir(parents=True, exist_ok=True)
    feature_stack, label_stack = build_stacks(dataset, config)
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
    op = normalize(add_self_loops(dataset.graph), config.r_mode)
    expect = stack_fingerprint(op, dataset.features, config.hops, config.r_mode)
    feature_stack = cache_read(feat_path, expect_fingerprint=expect, force=force)
    label_stack = None
    if config.use_labels:
        label_op = (op if config.effective_label_r_mode == config.r_mode
                    else normalize(add_self_loops(dataset.graph),
                                   config.effective_label_r_mode))
        y0 = build_label_seed(dataset.labels, dataset.splits.train, dataset.n,
                              dataset.num_classes)
        expect = stack_fingerprint(label_op, y0, config.effective_label_hops,
                                   config.effective_label_r_mode)
        label_stack = cache_read(label_path, expect_fingerprint=expect, force=force)
        _check_scheme(label_stack, residual_scheme(config), label_path, force)
    return feature_stack, label_stack


def _check_scheme(stack: LabelStack, scheme: ResidualScheme, path, force: bool) -> None:
    """Refuse a label cache smoothed with other weights than ``scheme`` gives.

    The label fingerprint covers only the raw propagation, and the file name
    leaves out ``fixed_alpha``, so this is the check that catches a cache
    built under another residual scheme. Kinds that yield the same weights
    for the stack's depth are interchangeable.
    """
    if np.array_equal(stack.scheme.alphas(stack.steps), scheme.alphas(stack.steps)):
        return
    message = (f"{path}: label cache was smoothed with {stack.scheme}, the config asks "
               f"for {scheme}")
    if not force:
        raise FingerprintMismatch(
            f"{message}; rerun preprocess or pass force=True to use it anyway")
    warnings.warn(f"{message}; using the cache anyway")


def train_on_dataset(dataset: Dataset, config: TrainConfig,
                     stacks=None, log_path=None) -> FitResult:
    """Convenience wrapper: build (or reuse) in-memory stacks and fit."""
    feature_stack, label_stack = stacks if stacks is not None else build_stacks(dataset, config)
    return fit(feature_stack, label_stack, dataset.labels, dataset.splits, config,
               num_classes=dataset.num_classes, log_path=log_path)
