"""Sparse graph structure and the normalized propagation operator.

The graph is stored in compressed sparse row form (row offsets + sorted
column indices) with whatever self loops its edges hold. :func:`normalize`
adds the missing ones and follows A_hat = D^(r-1) (A + I) D^(-r), where
A + I has every diagonal entry 1 and D is its degree matrix:

* r = 0.5  symmetric normalization (values symmetric in i, j)
* r = 0    row-stochastic (every row sums to 1)
* r = 1    column-stochastic (every column sums to 1)

Graphs and operators are immutable after construction and safe to share
across workers.

Construction is O(m log m) in the number of edge entries m. Each entry
(i, j) is encoded as the int64 key i*n + j, so sorting the keys orders the
entries by row and then by column; duplicates are then adjacent and one
comparison with the neighbouring key drops them (:func:`unique_sorted`).
``np.unique`` gives the same output, but on integer input numpy 2.x takes
a hash-based path that is tens of times slower than a sort on these key
arrays, so graph construction never calls it. :func:`add_self_loops`
merges the missing diagonal entries into the already sorted CSR arrays in
O(n + m) instead of sorting again.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import thread_count

VALID_MODES = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class CsrGraph:
    """Symmetric unweighted adjacency in CSR form.

    Invariants: row_offsets[0] == 0, row_offsets[n] == nnz, column ids
    sorted ascending within each row, no duplicates, structure symmetric.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    def degrees(self) -> np.ndarray:
        """Per-node degree = number of stored entries in the row."""
        return np.diff(self.row_offsets).astype(np.int64)


@dataclass(frozen=True)
class PropagationOperator:
    """CSR matrix holding the normalized adjacency values for one r mode."""

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    mode: float

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d array; the same output as ``np.unique``."""
    values = np.sort(values)
    if values.size > 1:
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return values


def _from_keys(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique entry keys (i*n + j) -> (row_offsets, col_indices)."""
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=row_offsets[1:])
    return row_offsets, (keys % n).astype(np.int64)


def build_graph(edges, n: int) -> CsrGraph:
    """Build a deduplicated symmetric CSR graph from an edge list.

    ``edges`` is any sequence of (u, v) id pairs; duplicates and both
    orientations are tolerated. Pre-existing self loops are kept as a
    single entry; :func:`normalize` adds the missing ones.
    """
    if n <= 0:
        raise ValueError("node count must be positive")
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= n):
        bad = e[(e < 0) | (e >= n)].flat[0]
        raise ValueError(f"edge endpoint {bad} outside [0, {n})")
    keys = np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]])
    row_offsets, cols = _from_keys(unique_sorted(keys), n)
    return CsrGraph(n=n, row_offsets=row_offsets, col_indices=cols)


def add_self_loops(g: CsrGraph) -> CsrGraph:
    """Return a graph where every row contains its own id exactly once.

    Rows that already hold their diagonal entry are copied unchanged; in
    every other row the entries right of the diagonal move one place up
    and the diagonal is written into the gap, so columns stay sorted.
    """
    n = g.n
    deg = g.degrees()
    rows = np.repeat(np.arange(n), deg)
    cols = g.col_indices
    lacks = np.ones(n, dtype=bool)
    lacks[rows[rows == cols]] = False
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg + lacks, out=row_offsets[1:])
    new_cols = np.empty(row_offsets[-1], dtype=np.int64)
    within_row = np.arange(cols.size) - g.row_offsets[rows]
    new_cols[row_offsets[rows] + within_row + (lacks[rows] & (cols > rows))] = cols
    missing = np.flatnonzero(lacks)
    left_of_diag = np.bincount(rows[cols < rows], minlength=n)
    new_cols[row_offsets[missing] + left_of_diag[missing]] = missing
    return CsrGraph(n=n, row_offsets=row_offsets, col_indices=new_cols)


def normalize(g: CsrGraph, r: float) -> PropagationOperator:
    """Normalize a graph, with its missing self loops added, into an operator.

    The operator's entries are those of ``add_self_loops(g)``; entry (i, j)
    gets value d_i^(r-1) * d_j^(-r) with d the self-looped degrees, so r in
    {0, 0.5, 1} yields the row-stochastic, symmetric and column-stochastic
    operators respectively.
    """
    if r not in VALID_MODES:
        raise ValueError(f"r must be one of {VALID_MODES}, got {r}")
    g = add_self_loops(g)
    d = g.degrees().astype(np.float64)
    assert d.min(initial=1.0) >= 1.0, "zero degree impossible after self loops"
    rows = np.repeat(np.arange(g.n), g.degrees())
    values = d[rows] ** (r - 1.0) * d[g.col_indices] ** (-r)
    return PropagationOperator(n=g.n, row_offsets=g.row_offsets,
                               col_indices=g.col_indices, values=values, mode=float(r))


def spmm_threads() -> int:
    """Row blocks per :func:`spmm`: ``GAMLP_THREADS`` if set, else the usable CPUs."""
    value = os.environ.get("GAMLP_THREADS")
    if not value:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return thread_count(value)


# Output bytes of one spmm chunk: the largest temporary a pool thread
# allocates, and the least output worth a thread of its own. Pool threads
# allocate from their own malloc arenas, which keep what they free;
# block-sized temporaries there raised peak RSS by 5 MB on a 40k-node graph.
_CHUNK_BYTES = 2**22
_pool: tuple[int, ThreadPoolExecutor | None] = (0, None)


def _executor(threads: int) -> ThreadPoolExecutor:
    """The process-wide spmm pool, recreated only when the thread count changes."""
    global _pool
    if _pool[0] != threads:
        if _pool[1] is not None:
            _pool[1].shutdown(wait=False)
        _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="gamlp-spmm"))
    return _pool[1]


def row_blocks(row_offsets: np.ndarray, parts: int) -> np.ndarray:
    """Bounds of at most ``parts`` nonempty row blocks holding about equal nnz."""
    n, nnz = row_offsets.size - 1, int(row_offsets[-1])
    cuts = np.searchsorted(row_offsets, nnz * np.arange(1, parts) / parts)
    return unique_sorted(np.concatenate(([0], np.minimum(cuts, n), [n])))


def spmm(op: PropagationOperator, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sparse operator times dense matrix, computed in the dtype of the
    operator's values (float32 or float64); ``x`` is read in that dtype.

    The rows are cut into one block per thread (:func:`spmm_threads`), by
    equal nnz rather than equal row count, but into no more blocks than
    the output has chunks of ``_CHUNK_BYTES``. The last block's product
    runs in the calling thread and every other block's in a pool thread
    (scipy releases the GIL); each writes its own rows of ``out``, one
    chunk of rows at a time. Every row sums the same terms in the same
    order as one scipy product of the whole operator, so the result is
    bit-identical to it at any thread count. ``out`` must be a C-contiguous
    (n, d) array of the operator's dtype that does not overlap ``x``; it is
    filled and returned.
    """
    import scipy.sparse as sp  # on first use: only propagation loads scipy

    if x.ndim != 2 or x.shape[0] != op.n:
        raise ValueError(f"matrix has {x.shape} rows/cols, operator expects {op.n} rows")
    indptr, indices, values = op.row_offsets, op.col_indices, op.values
    shape = (op.n, x.shape[1])
    if out.shape != shape or out.dtype != values.dtype or not out.flags.c_contiguous:
        raise ValueError(f"spmm out must be a C-contiguous {values.dtype} array (the "
                         f"operator's dtype) of shape {shape}, got a "
                         f"{'' if out.flags.c_contiguous else 'non-contiguous '}"
                         f"{out.dtype} array of shape {out.shape}")
    elif np.shares_memory(out, x):
        raise ValueError("spmm out must not overlap its input matrix")
    x = np.ascontiguousarray(x, dtype=values.dtype)
    rows = max(1, _CHUNK_BYTES // (out.itemsize * max(1, x.shape[1])))

    def product(lo: int, hi: int) -> None:
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            s, e = indptr[a], indptr[b]
            chunk = sp.csr_matrix((values[s:e], indices[s:e], indptr[a:b + 1] - s),
                                  shape=(b - a, op.n))
            out[a:b] = chunk @ x

    threads = spmm_threads()
    bounds = row_blocks(indptr, max(1, min(threads, -(-out.nbytes // _CHUNK_BYTES))))
    pool = _executor(threads)
    futures = [pool.submit(product, lo, hi) for lo, hi in zip(bounds[:-2], bounds[1:-1])]
    try:
        product(bounds[-2], bounds[-1])
    finally:
        for f in futures:
            f.result()
    return out
