"""Precomputed feature and label propagation stacks plus their disk cache.

Propagation is the one graph-touching step of the whole pipeline: the
stacks  [X^(0) ... X^(K)]  and  [Y^(0) ... Y^(L)]  are computed once and
written to a binary cache. Training afterwards treats nodes as independent
rows and never sees the graph again.

The last-residual label smoothing is not stored. It is a per-row blend of
the cached label steps, so :func:`apply_last_residual` recomputes it from
the training config's scheme each time the model takes its inputs;
changing the scheme needs no new preprocess, and no cache can hold a
blend of another scheme.

A stack is one C-contiguous array of shape (S+1, n, d), step-major:
``mats[k]`` is the n x d matrix of step k, and one gather along axis 1
takes the rows of a node set from every step. Step-major is also the
cache file order, so each step is written and read as one contiguous block.

All propagation arithmetic runs in double precision, so a stack built in
memory is float64. Cache files store matrices as little-endian float32,
and a stack read from a cache keeps them as float32 (a second round trip
is the identity); a model computes in the dtype of the stacks it is
fitted on.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import uuid
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import CsrGraph, PropagationOperator, spmm

MAX_STEPS = 128

_MAGIC = b"GMLP"
_VERSION = 2
_HEADER = struct.Struct("<4sIBQQIB32s")  # magic, version, kind, n, dim, steps,
                                         # r-mode, fingerprint
_KIND_FEATURE = 0
_KIND_LABEL = 1
_R_CODES = {0.0: 0, 0.5: 1, 1.0: 2}
_R_FROM_CODE = {v: k for k, v in _R_CODES.items()}


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
        if self.kind not in ("cosine", "linear", "fixed"):
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
class _Stack:
    """``mats``: float64 when propagated in memory, float32 when read from a cache."""

    mats: np.ndarray
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
class FeatureStack(_Stack):
    """Propagated features [X^(0) ... X^(K)] as one (K+1, n, f) array."""


@dataclass
class LabelStack(_Stack):
    """Propagated labels [Y^(0) ... Y^(L)] as one (L+1, n, c) array.

    Only the raw propagation is kept; the smoothed inputs are derived from
    ``mats`` by :func:`apply_last_residual`.
    """


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
               max_steps: int) -> np.ndarray:
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if steps > max_steps:
        raise ValueError(f"step count {steps} exceeds supported maximum {max_steps}")
    if x0.ndim != 2 or x0.shape[0] != op.n:
        raise ValueError(f"seed matrix shape {x0.shape} does not match n={op.n}")
    mats = np.empty((steps + 1, *x0.shape))
    mats[0] = x0
    for k in range(1, steps + 1):
        mats[k] = spmm(op, mats[k - 1])
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
    train_ids = np.asarray(train_ids, dtype=np.int64)
    if isinstance(labels, dict):
        classes = np.array([labels.get(int(i), -1) for i in train_ids], dtype=np.int64)
    else:
        classes = np.asarray(labels)[train_ids].astype(np.int64)
    bad = np.flatnonzero((classes < 0) | (classes >= num_classes))
    if bad.size:
        i = bad[0]
        raise ValueError(f"train node {train_ids[i]} has no valid label (got {classes[i]})")
    y0[train_ids, classes] = 1.0
    return y0


def propagate_labels(op: PropagationOperator, y0: np.ndarray, steps: int,
                     max_steps: int = MAX_STEPS) -> LabelStack:
    """Iteratively apply the operator to the label seed (smoothing not applied)."""
    mats = _propagate(op, y0, steps, max_steps)
    return LabelStack(mats=mats, mode=op.mode,
                      fingerprint=stack_fingerprint(op, y0, steps, op.mode))


def apply_last_residual(mats: np.ndarray, scheme: ResidualScheme) -> np.ndarray:
    """Smoothed labels Y_hat^(l) = (1 - a_l) Y^(l) + a_l Y^(L) of an (L+1, n, c) stack.

    The blend is applied uniformly for l = 0..L; under the cosine schedule
    a_0 = 1, so the smoothed step-0 matrix equals Y^(L) and the raw seed
    labels never reach the model directly. The result is written into one
    new array of the stack's dtype, step by step, with no stack-sized
    temporary; it equals the broadcast ``(1 - a) * mats + a * mats[-1]``
    bit for bit.
    """
    a = scheme.alphas(len(mats) - 1).astype(mats.dtype, copy=False)
    out = np.multiply(mats, (1.0 - a)[:, None, None])
    for l, a_l in enumerate(a):
        out[l] += a_l * mats[-1]
    return out


@contextmanager
def atomic_write(path, mode: str = "xb", **open_kwargs):
    """Open a new file beside ``path``; rename it over ``path`` on success.

    ``mode`` and ``open_kwargs`` go to ``open`` for the temporary file, which
    must not exist yet (hence an exclusive "x" mode). Readers see the old
    file or the whole new one, never a partial write: if the body raises
    or is interrupted, the temporary is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cache_write(stack: FeatureStack | LabelStack, path) -> None:
    """Write a stack to its binary cache file (matrices truncated to f32), atomically."""
    kind = _KIND_LABEL if isinstance(stack, LabelStack) else _KIND_FEATURE
    header = _HEADER.pack(_MAGIC, _VERSION, kind, stack.n, stack.dim, stack.steps,
                          _R_CODES[stack.mode], stack.fingerprint)
    with atomic_write(path) as f:
        f.write(header)
        for m in stack.mats:
            f.write(np.ascontiguousarray(m, dtype="<f4"))


def cache_read(path, expect_fingerprint: bytes | None = None,
               force: bool = False) -> FeatureStack | LabelStack:
    """Read a stack back; refuses fingerprint mismatches unless forced."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != _MAGIC:
            raise CacheFormatError(f"{path}: not a propagation cache (bad magic)")
        _, version, kind, n, dim, steps, r_code, fingerprint = _HEADER.unpack(head)
        if version != _VERSION:
            raise CacheFormatError(
                f"{path}: cache format version {version} is not supported (expected "
                f"{_VERSION}); rerun gamlp preprocess")
        if expect_fingerprint is not None and fingerprint != expect_fingerprint:
            if not force:
                raise FingerprintMismatch(
                    f"{path}: cache fingerprint does not match the current graph/input; "
                    "rerun preprocess or pass force=True to use it anyway")
            warnings.warn(f"{path}: using cache despite a fingerprint mismatch")
        expected = _HEADER.size + (steps + 1) * n * dim * 4
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise CacheFormatError(
                f"{path}: truncated or oversized cache ({size} bytes, expected {expected})")
        mats = np.empty((steps + 1, n, dim), dtype=np.float32)
        for k, m in enumerate(mats):
            # each step is copied into its slot straight from the file's
            # pages, one step mapped at a time, with no read buffer
            if os.fstat(f.fileno()).st_size != expected:
                raise CacheFormatError(f"{path}: file shrank while it was read")
            m[...] = np.memmap(f, dtype="<f4", mode="r", shape=(n, dim),
                               offset=_HEADER.size + k * n * dim * 4)
    cls = LabelStack if kind == _KIND_LABEL else FeatureStack
    return cls(mats=mats, mode=_R_FROM_CODE[r_code], fingerprint=fingerprint)
