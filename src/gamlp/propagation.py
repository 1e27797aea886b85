"""Precomputed feature and label propagation stacks plus their disk cache.

Propagation is the one graph-touching step of the whole pipeline: the
stacks  [X^(0) ... X^(K)]  and  [Y^(0) ... Y^(L)]  are computed once and
written to a ``.npy`` cache. Training afterwards treats nodes as
independent rows and never sees the graph again.

The last-residual label smoothing is not stored. It is a per-row blend of
the cached label steps, so :func:`apply_last_residual` recomputes it from
the training config's scheme each time the model takes its inputs;
changing the scheme needs no new preprocess, and no cache can hold a
blend of another scheme.

A stack is one C-contiguous array of shape (S+1, n, d), step-major:
``mats[k]`` is the n x d matrix of step k, and one gather along axis 1
takes the rows of a node set from every step. Step-major is also the
cache file order, so the whole stack is written as one block, and read
back as one read-only map of the file.

Each hop is computed in the dtype the stack stores, which the caller
picks. Stacks built in memory for experiments and tests are float64 by
default, while ``pipeline.preprocess`` builds float32 stacks, the dtype
of the cache files: the seed is rounded once and every hop runs in
float32. The fingerprint hashes that dtype, so a stack of
float64 hops rounded to float32 never validates as a float32-hop cache.
Cache files store the stack as little-endian float32, and a stack read
from a cache keeps it as float32 (a second round trip is the identity); a
model computes in the dtype of the stacks it is fitted on.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import struct
import uuid
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import MAX_HOPS, RESIDUAL_KINDS
from .graph import PropagationOperator, spmm


class CacheFormatError(Exception):
    """A cache file is missing, malformed or truncated."""


class FingerprintMismatch(Exception):
    """Cache was built from a different graph, seed, step count, r or hop dtype."""


@dataclass(frozen=True)
class ResidualScheme:
    """Weight schedule alpha_l blending each Y^(l) with the deepest Y^(L)."""

    kind: str = "cosine"
    fixed_alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in RESIDUAL_KINDS:
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
class Stack:
    """One propagated stack, [X^(0) ... X^(K)] or [Y^(0) ... Y^(L)], as one
    (S+1, n, d) array; ``mats`` has the dtype its builder asked for.

    That is float64 by default, float32 in ``preprocess``, and float32 when
    the stack is read from a cache, where ``mats`` is a read-only map of
    the file. A label stack keeps only the raw
    propagation; the smoothed inputs are derived from ``mats`` by
    :func:`apply_last_residual`.
    """

    mats: np.ndarray
    fingerprint: bytes  # hashes the dtype the hops ran in, too

    @property
    def steps(self) -> int:
        return len(self.mats) - 1

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    @property
    def dim(self) -> int:
        return self.mats[0].shape[1]


def stack_fingerprint(graph_or_op, x0: np.ndarray, steps: int, r: float, dtype) -> bytes:
    """32-byte digest of (graph structure, seed matrix, step count, r mode,
    hop dtype).

    SHA-256 over the ``<QIdc`` header (n, steps, r, the numpy type char of
    ``dtype``: ``f`` or ``d``), the row offsets and column indices as int64
    and the seed matrix as float32, each passed as a C-contiguous array
    without a copy. The float32 seed lets a cache written to disk validate
    against the features it was built from after they round-trip through
    the float32 feature file format.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<QIdc", graph_or_op.n, steps, float(r),
                         np.dtype(dtype).char.encode()))
    h.update(np.ascontiguousarray(graph_or_op.row_offsets, dtype=np.int64))
    h.update(np.ascontiguousarray(graph_or_op.col_indices, dtype=np.int64))
    h.update(np.ascontiguousarray(x0, dtype=np.float32))
    return h.digest()


def _propagate(op: PropagationOperator, x0: np.ndarray, steps: int, dtype) -> np.ndarray:
    """The (steps+1, n, d) stack of ``dtype``; every hop is computed in ``dtype``.

    The seed is cast into slot 0, rounded once, and the operator's values
    once per stack; each hop k is then one :func:`spmm` from slot k-1
    straight into slot k, with no buffer or copy between them.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if steps > MAX_HOPS:
        raise ValueError(f"step count {steps} exceeds supported maximum {MAX_HOPS}")
    if x0.ndim != 2 or x0.shape[0] != op.n:
        raise ValueError(f"seed matrix shape {x0.shape} does not match n={op.n}")
    mats = np.empty((steps + 1, *x0.shape), dtype=dtype)
    mats[0] = x0
    op = replace(op, values=op.values.astype(dtype, copy=False))
    for k in range(1, steps + 1):
        spmm(op, mats[k - 1], out=mats[k])
    return mats


def propagate_features(op: PropagationOperator, x0: np.ndarray, steps: int,
                       dtype=np.float64) -> Stack:
    """Iteratively apply the operator: X^(k) = A_hat X^(k-1), k = 1..K.

    ``dtype`` is the dtype the stack stores and each hop runs in.
    """
    mats = _propagate(op, x0, steps, dtype)
    return Stack(mats=mats, fingerprint=stack_fingerprint(op, x0, steps, op.mode, dtype))


def build_label_seed(labels, train_ids, n: int, num_classes: int) -> np.ndarray:
    """One-hot rows for training nodes, zero rows everywhere else.

    ``labels`` is the full-length class array, -1 where unlabeled.
    Validation and test labels never enter the seed.
    """
    y0 = np.zeros((n, num_classes), dtype=np.float64)
    train_ids = np.asarray(train_ids, dtype=np.int64)
    classes = np.asarray(labels)[train_ids].astype(np.int64)
    bad = np.flatnonzero((classes < 0) | (classes >= num_classes))
    if bad.size:
        i = bad[0]
        raise ValueError(f"train node {train_ids[i]} has no valid label (got {classes[i]})")
    y0[train_ids, classes] = 1.0
    return y0


def propagate_labels(op: PropagationOperator, y0: np.ndarray, steps: int,
                     dtype=np.float64) -> Stack:
    """Iteratively apply the operator to the label seed (smoothing not applied).

    ``dtype`` is the dtype the stack stores and each hop runs in.
    """
    mats = _propagate(op, y0, steps, dtype)
    return Stack(mats=mats, fingerprint=stack_fingerprint(op, y0, steps, op.mode, dtype))


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

    ``path``'s directory is created if it is missing. ``mode`` and
    ``open_kwargs`` go to ``open`` for the temporary file, which must not
    exist yet (hence an exclusive "x" mode). Readers see the old file or
    the whole new one, never a partial write: if the body raises or is
    interrupted, the temporary is removed and ``path`` is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cache_write(stack: Stack, path) -> None:
    """Write the stack to ``path`` as two ``.npy`` records, the float32 stack and
    then its 32-byte fingerprint as uint8, through one :func:`atomic_write`.
    ``np.load(path)`` reads the stack."""
    with atomic_write(path) as f:
        np.save(f, np.ascontiguousarray(stack.mats, dtype="<f4"))
        np.save(f, np.frombuffer(stack.fingerprint, dtype=np.uint8))


@dataclass(frozen=True)
class CacheHeader:
    """What the two record headers and the fingerprint bytes of a cache say."""

    shape: tuple           # the (S+1, n, d) stack's, stored as C-order <f4
    offset: int            # where the stack's data starts
    file_size: int
    fingerprint: bytes

    @property
    def nbytes(self) -> int:
        return 4 * math.prod(self.shape)


def _read_header(f) -> CacheHeader:
    """Check the open cache ``f`` without reading the stack's data: its header,
    that the file holds all of its data, and the fingerprint record after it.
    Raises ValueError naming the first malformed part."""
    size = os.fstat(f.fileno()).st_size
    version = np.lib.format.read_magic(f)
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"unsupported .npy format version {version[0]}.{version[1]}")
    read = (np.lib.format.read_array_header_1_0 if version == (1, 0)
            else np.lib.format.read_array_header_2_0)
    shape, fortran_order, dtype = read(f)
    if len(shape) != 3 or dtype != np.dtype("<f4"):
        raise ValueError(f"expected a 3-d float32 array, found {dtype} of shape {shape}")
    if fortran_order:
        raise ValueError("expected a C-order stack, found Fortran order")
    offset, count = f.tell(), math.prod(shape)
    end = offset + 4 * count
    if end > size:  # numpy's words, as np.load reports the same cut
        raise ValueError(f"Failed to read all data for array. Expected {shape} = {count} "
                         f"elements, could only read {(size - offset) // 4} elements. "
                         "(file seems not fully written?)")
    if end == size:
        raise ValueError("no fingerprint record after the stack")
    f.seek(end)
    fingerprint = np.lib.format.read_array(f, allow_pickle=False)
    if fingerprint.dtype != np.uint8 or fingerprint.shape != (32,):
        raise ValueError(f"expected a 32-byte uint8 fingerprint, found "
                         f"{fingerprint.dtype} of shape {fingerprint.shape}")
    # read_array stops after the element count its header gives
    if f.tell() != size:
        raise ValueError(f"{size - f.tell()} bytes after the array data")
    return CacheHeader(shape, offset, size, fingerprint.tobytes())


@contextmanager
def _open_cache(path):
    """The open cache file and its checked :class:`CacheHeader`; a ValueError
    or OSError in the check or the body is a one-line :class:`CacheFormatError`."""
    try:
        with open(path, "rb") as f:
            yield f, _read_header(f)
    except (ValueError, OSError) as e:
        raise CacheFormatError(f"{path}: {e}; rerun gamlp preprocess") from None


def cache_info(path) -> CacheHeader:
    """The checked header of the cache at ``path``; reads no stack data."""
    with _open_cache(path) as (_, header):
        return header


def cache_read(path, expect_fingerprint: bytes | None = None,
               force: bool = False) -> Stack:
    """The cached stack as a read-only map of the file. Any malformed part is
    refused with a one-line :class:`CacheFormatError`, and a fingerprint
    mismatch unless forced, before anything is mapped. The map comes from
    the descriptor that was checked, so a cache replaced meanwhile still
    yields one write's stack and fingerprint."""
    with _open_cache(path) as (f, header):
        if expect_fingerprint is not None and header.fingerprint != expect_fingerprint:
            if not force:
                raise FingerprintMismatch(
                    f"{path}: cache fingerprint does not match the current graph, "
                    "seed, steps, r or hop dtype; rerun gamlp preprocess")
            warnings.warn(f"{path}: using cache despite a fingerprint mismatch")
        data = mmap.mmap(f.fileno(), header.offset + header.nbytes, access=mmap.ACCESS_READ)
    mats = np.frombuffer(data, dtype="<f4", count=math.prod(header.shape),
                         offset=header.offset).reshape(header.shape)
    return Stack(mats=mats, fingerprint=header.fingerprint)
