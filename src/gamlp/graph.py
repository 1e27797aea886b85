"""Sparse graph structure and the normalized propagation operator.

The graph is stored in compressed sparse row form (row offsets + sorted
column indices). Normalization follows A_hat = D^(r-1) (A + I) D^(-r)
where D is the degree matrix of the self-looped adjacency:

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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    has_self_loops: bool

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    def degrees(self) -> np.ndarray:
        """Per-node degree = number of stored entries in the row."""
        return np.diff(self.row_offsets).astype(np.int64)

    def neighbors(self, i: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[i]:self.row_offsets[i + 1]]

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 adjacency, for oracles and small-graph debugging."""
        a = np.zeros((self.n, self.n), dtype=np.float64)
        rows = np.repeat(np.arange(self.n), self.degrees())
        a[rows, self.col_indices] = 1.0
        return a


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

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets), shape=(self.n, self.n)
        )

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()


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


def build_graph(edges, n: int, symmetrize: bool = True) -> CsrGraph:
    """Build a deduplicated symmetric CSR graph from an edge list.

    ``edges`` is any sequence of (u, v) id pairs; duplicates and both
    orientations are tolerated. Pre-existing self loops are kept as a
    single entry but the graph is only flagged as self-looped once every
    node has one (see :func:`add_self_loops`).
    """
    if n <= 0:
        raise ValueError("node count must be positive")
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= n):
        bad = e[(e < 0) | (e >= n)].flat[0]
        raise ValueError(f"edge endpoint {bad} outside [0, {n})")
    keys = e[:, 0] * n + e[:, 1]
    if symmetrize:
        keys = np.concatenate([keys, e[:, 1] * n + e[:, 0]])
    row_offsets, cols = _from_keys(unique_sorted(keys), n)
    has_loops = bool(n > 0 and _all_rows_have_loop(row_offsets, cols, n))
    return CsrGraph(n=n, row_offsets=row_offsets, col_indices=cols,
                    has_self_loops=has_loops)


def _all_rows_have_loop(row_offsets: np.ndarray, cols: np.ndarray, n: int) -> bool:
    rows = np.repeat(np.arange(n), np.diff(row_offsets))
    return int(np.count_nonzero(rows == cols)) == n


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
    return CsrGraph(n=n, row_offsets=row_offsets, col_indices=new_cols,
                    has_self_loops=True)


def normalize(g: CsrGraph, r: float) -> PropagationOperator:
    """Normalize a self-looped graph into a propagation operator.

    Entry (i, j) gets value d_i^(r-1) * d_j^(-r) with d the self-looped
    degrees, so r in {0, 0.5, 1} yields the row-stochastic, symmetric and
    column-stochastic operators respectively.
    """
    if not g.has_self_loops:
        raise ValueError("normalize requires self loops; call add_self_loops first")
    if r not in VALID_MODES:
        raise ValueError(f"r must be one of {VALID_MODES}, got {r}")
    d = g.degrees().astype(np.float64)
    assert d.min(initial=1.0) >= 1.0, "zero degree impossible after self loops"
    rows = np.repeat(np.arange(g.n), g.degrees())
    values = d[rows] ** (r - 1.0) * d[g.col_indices] ** (-r)
    return PropagationOperator(n=g.n, row_offsets=g.row_offsets,
                               col_indices=g.col_indices, values=values, mode=float(r))


def spmm(op: PropagationOperator, x: np.ndarray) -> np.ndarray:
    """Sparse operator times dense matrix, exact in double precision."""
    if x.ndim != 2 or x.shape[0] != op.n:
        raise ValueError(f"matrix has {x.shape} rows/cols, operator expects {op.n} rows")
    return op.to_scipy() @ np.ascontiguousarray(x, dtype=np.float64)
