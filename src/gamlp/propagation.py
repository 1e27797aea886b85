"""Precomputed feature and label propagation stacks plus their disk cache.

Propagation is the one graph-touching step of the whole pipeline: the
stacks  [X^(0) ... X^(K)]  and  [Y^(0) ... Y^(L)]  are computed once,
smoothed (labels only) and written to a binary cache. Training afterwards
treats nodes as independent rows and never sees the graph again.

All propagation arithmetic runs in double precision; cache files store
matrices as little-endian float32 (reads upcast back to float64, so a
second round trip is the identity).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import CsrGraph, PropagationOperator, spmm

MAX_STEPS = 128

_MAGIC = b"GMLP"
_VERSION = 1
_HEADER = struct.Struct("<4sIBQQIBBd32s")  # magic, version, kind, n, dim, steps,
                                           # r-mode, scheme-kind, fixed_alpha, fingerprint
_KIND_FEATURE = 0
_KIND_LABEL = 1
_R_CODES = {0.0: 0, 0.5: 1, 1.0: 2}
_R_FROM_CODE = {v: k for k, v in _R_CODES.items()}
_SCHEME_CODES = {"cosine": 0, "linear": 1, "fixed": 2}
_SCHEME_FROM_CODE = {v: k for k, v in _SCHEME_CODES.items()}


class CacheFormatError(Exception):
    """Bad magic/version or a truncated cache file."""


class FingerprintMismatch(Exception):
    """Cache was built from a different graph/input/step count."""


@dataclass(frozen=True)
class ResidualScheme:
    """Weight schedule alpha_l blending each Y^(l) with the deepest Y^(L)."""

    kind: str = "cosine"
    fixed_alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _SCHEME_CODES:
            raise ValueError(f"unknown residual scheme {self.kind!r}")
        if self.kind == "fixed" and not 0.0 <= self.fixed_alpha <= 1.0:
            raise ValueError("fixed_alpha must lie in [0, 1]")

    def alphas(self, steps: int) -> np.ndarray:
        """alpha_0 ... alpha_L. For L = 0 the blend is a no-op (alpha = 0)."""
        if steps == 0:
            return np.zeros(1)
        l = np.arange(steps + 1, dtype=np.float64)
        if self.kind == "cosine":
            a = np.cos(math.pi * l / (2.0 * steps))
            a[-1] = 0.0  # cos(pi/2) exactly
            return a
        if self.kind == "linear":
            return (steps - l) / steps
        return np.full(steps + 1, self.fixed_alpha)


@dataclass
class FeatureStack:
    """Ordered propagated feature matrices [X^(0) ... X^(K)], float64."""

    mats: list[np.ndarray]
    mode: float
    fingerprint: bytes

    @property
    def steps(self) -> int:
        return len(self.mats) - 1

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    @property
    def dim(self) -> int:
        return self.mats[0].shape[1]


@dataclass
class LabelStack:
    """Propagated label matrices plus their last-residual smoothed versions."""

    mats: list[np.ndarray]
    mode: float
    fingerprint: bytes
    scheme: ResidualScheme = field(default_factory=ResidualScheme)
    smoothed: list[np.ndarray] | None = None

    @property
    def steps(self) -> int:
        return len(self.mats) - 1

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    @property
    def dim(self) -> int:
        return self.mats[0].shape[1]


def stack_fingerprint(graph_or_op, x0: np.ndarray, steps: int, r: float) -> bytes:
    """32-byte digest of (graph structure, seed matrix, step count, r mode).

    The seed matrix is hashed in its float32 representation so that a
    cache written to disk validates against the features it was built
    from after they round-trip through the float32 feature file format.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<QId", graph_or_op.n, steps, float(r)))
    h.update(np.ascontiguousarray(graph_or_op.row_offsets, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(graph_or_op.col_indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(x0, dtype=np.float32).tobytes())
    return h.digest()


def _propagate(op: PropagationOperator, x0: np.ndarray, steps: int,
               max_steps: int) -> list[np.ndarray]:
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if steps > max_steps:
        raise ValueError(f"step count {steps} exceeds supported maximum {max_steps}")
    if x0.ndim != 2 or x0.shape[0] != op.n:
        raise ValueError(f"seed matrix shape {x0.shape} does not match n={op.n}")
    mats = [np.array(x0, dtype=np.float64)]
    for _ in range(steps):
        mats.append(spmm(op, mats[-1]))
    return mats


def propagate_features(op: PropagationOperator, x0: np.ndarray, steps: int,
                       max_steps: int = MAX_STEPS) -> FeatureStack:
    """Iteratively apply the operator: X^(k) = A_hat X^(k-1), k = 1..K."""
    mats = _propagate(op, x0, steps, max_steps)
    return FeatureStack(mats=mats, mode=op.mode,
                        fingerprint=stack_fingerprint(op, x0, steps, op.mode))


def build_label_seed(labels, train_ids, n: int, num_classes: int) -> np.ndarray:
    """One-hot rows for training nodes, zero rows everywhere else.

    ``labels`` maps node id to class (dict or full-length array with -1
    for unlabeled). Validation and test labels never enter the seed.
    """
    y0 = np.zeros((n, num_classes), dtype=np.float64)
    for i in np.asarray(train_ids, dtype=np.int64):
        c = labels.get(int(i), -1) if isinstance(labels, dict) else int(labels[i])
        if c < 0 or c >= num_classes:
            raise ValueError(f"train node {i} has no valid label (got {c})")
        y0[i, c] = 1.0
    return y0


def propagate_labels(op: PropagationOperator, y0: np.ndarray, steps: int,
                     scheme: ResidualScheme | None = None,
                     max_steps: int = MAX_STEPS) -> LabelStack:
    """Iteratively apply the operator to the label seed (smoothing not applied)."""
    mats = _propagate(op, y0, steps, max_steps)
    return LabelStack(mats=mats, mode=op.mode,
                      fingerprint=stack_fingerprint(op, y0, steps, op.mode),
                      scheme=scheme or ResidualScheme())


def zero_seed_rows(stack: LabelStack, train_ids) -> LabelStack:
    """Ablation switch: hide each training node's own seed row.

    Zeroes the training rows of the step-0 matrix after propagation, so
    the model never sees a node's raw label directly while the propagated
    steps keep their information. Apply before the last-residual blend.
    """
    first = stack.mats[0].copy()
    first[np.asarray(train_ids, dtype=np.int64)] = 0.0
    stack.mats[0] = first
    return stack


def apply_last_residual(stack: LabelStack, scheme: ResidualScheme | None = None) -> LabelStack:
    """Fill the smoothed matrices: Y_hat^(l) = (1 - a_l) Y^(l) + a_l Y^(L).

    The blend is applied uniformly for l = 0..L; under the cosine schedule
    a_0 = 1, so the smoothed step-0 matrix equals Y^(L) and the raw seed
    labels never reach the model directly.
    """
    if scheme is not None:
        stack.scheme = scheme
    a = stack.scheme.alphas(stack.steps)
    last = stack.mats[-1]
    stack.smoothed = [(1.0 - a[l]) * stack.mats[l] + a[l] * last
                      for l in range(stack.steps + 1)]
    return stack


def cache_write(stack: FeatureStack | LabelStack, path) -> None:
    """Write a stack to its binary cache file (matrices truncated to f32).

    The file is replaced atomically: readers see the old file or the whole
    new one, never a partial write.
    """
    is_label = isinstance(stack, LabelStack)
    if is_label and stack.smoothed is None:
        raise ValueError("label stack must be smoothed before caching")
    scheme_code = _SCHEME_CODES[stack.scheme.kind] if is_label else 0
    fixed_alpha = stack.scheme.fixed_alpha if is_label else 0.0
    header = _HEADER.pack(_MAGIC, _VERSION, _KIND_LABEL if is_label else _KIND_FEATURE,
                          stack.n, stack.dim, stack.steps, _R_CODES[stack.mode],
                          scheme_code, fixed_alpha, stack.fingerprint)
    # write beside the target and rename over it, so a failed or interrupted
    # write leaves the previous cache file intact
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(header)
            for m in stack.mats:
                f.write(np.ascontiguousarray(m, dtype="<f4").tobytes())
            if is_label:
                for m in stack.smoothed:
                    f.write(np.ascontiguousarray(m, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cache_read(path, expect_fingerprint: bytes | None = None,
               force: bool = False) -> FeatureStack | LabelStack:
    """Read a stack back; refuses fingerprint mismatches unless forced."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
        raise CacheFormatError(f"{path}: not a propagation cache (bad magic)")
    (_, version, kind, n, dim, steps, r_code, scheme_code,
     fixed_alpha, fingerprint) = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise CacheFormatError(f"{path}: unsupported cache version {version}")
    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        if not force:
            raise FingerprintMismatch(
                f"{path}: cache fingerprint does not match the current graph/input; "
                "rerun preprocess or pass force=True to use it anyway")
        warnings.warn(f"{path}: using cache despite a fingerprint mismatch")
    n_mats = (steps + 1) * (2 if kind == _KIND_LABEL else 1)
    expected = _HEADER.size + n_mats * n * dim * 4
    if len(raw) != expected:
        raise CacheFormatError(
            f"{path}: truncated or oversized cache ({len(raw)} bytes, expected {expected})")
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    mats = [flat[i * n * dim:(i + 1) * n * dim].reshape(n, dim).astype(np.float64)
            for i in range(n_mats)]
    mode = _R_FROM_CODE[r_code]
    if kind == _KIND_FEATURE:
        return FeatureStack(mats=mats, mode=mode, fingerprint=fingerprint)
    scheme = ResidualScheme(kind=_SCHEME_FROM_CODE[scheme_code], fixed_alpha=fixed_alpha)
    return LabelStack(mats=mats[:steps + 1], mode=mode, fingerprint=fingerprint,
                      scheme=scheme, smoothed=mats[steps + 1:])
