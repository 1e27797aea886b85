import dataclasses
import itertools
import os

import numpy as np
import pytest

from gamlp import graph
from gamlp.graph import (PropagationOperator, add_self_loops, build_graph, normalize,
                         row_blocks, spmm, spmm_threads, unique_sorted)

from conftest import dense_adjacency, dense_ahat, neighbors, random_graph, to_scipy


def test_single_edge_symmetry():
    g = build_graph([(0, 1)], 2)
    assert list(neighbors(g, 0)) == [1]
    assert list(neighbors(g, 1)) == [0]


def test_path_degrees():
    g = build_graph([(0, 1), (1, 2)], 3)
    assert g.degrees().tolist() == [1, 2, 1]


def test_duplicate_edges_collapse():
    g = build_graph([(0, 1), (0, 1), (1, 0)], 2)
    assert g.nnz == 2  # one undirected edge, both orientations stored once


def test_build_rejects_bad_ids():
    with pytest.raises(ValueError):
        build_graph([(0, 5)], 3)
    with pytest.raises(ValueError):
        build_graph([], 0)


def test_add_self_loops_single_edge():
    g = add_self_loops(build_graph([(0, 1)], 2))
    assert g.degrees().tolist() == [2, 2]
    assert [neighbors(g, i).tolist() for i in range(2)] == [[0, 1], [0, 1]]


def test_add_self_loops_edgeless():
    g = add_self_loops(build_graph([], 3))
    assert g.degrees().tolist() == [1, 1, 1]
    assert np.array_equal(dense_adjacency(g), np.eye(3))


def test_add_self_loops_idempotent_on_existing_loop():
    g = add_self_loops(build_graph([(0, 1), (1, 1)], 2))
    row1 = neighbors(g, 1)
    assert np.count_nonzero(row1 == 1) == 1


def test_normalize_two_node_symmetric(path3):
    g = add_self_loops(build_graph([(0, 1)], 2))
    op = normalize(g, 0.5)
    assert np.allclose(to_scipy(op).toarray(), 0.5)


def test_normalize_path_value(path3):
    # frozen from the dense D^(-1/2) (A+I) D^(-1/2) computation: 1/sqrt(6)
    op = normalize(path3, 0.5)
    assert to_scipy(op).toarray()[0, 1] == pytest.approx(0.4082482904638631, abs=1e-12)


def test_normalize_row_stochastic(path3):
    op = normalize(path3, 0.0)
    assert np.allclose(to_scipy(op).toarray().sum(axis=1), 1.0, atol=1e-12)


def _partly_looped(rng, n=20, p=0.2):
    """Random graph where about half of the nodes carry a raw self loop."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    loops = np.flatnonzero(rng.random(n) < 0.5)
    edges = np.concatenate([np.stack([iu[keep], ju[keep]], axis=1),
                            np.stack([loops, loops], axis=1)])
    g = build_graph(edges, n)
    assert 0 < loops.size < n
    return g


def test_normalize_adds_self_loops(path3):
    rng = np.random.default_rng(6)
    raw, partly = random_graph(rng, 20), _partly_looped(rng)
    for g in (path3, raw, partly, add_self_loops(raw)):
        looped = add_self_loops(g)
        for r in (0.0, 0.5, 1.0):
            got, want = normalize(g, r), normalize(looped, r)
            for name in ("row_offsets", "col_indices", "values"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
    with pytest.raises(ValueError):
        normalize(add_self_loops(path3), 0.3)


def test_spmm_row_stochastic_fixed_point():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 12, 0.3)
    op = normalize(g, 0.0)
    ones = np.ones((12, 2))
    assert np.allclose(spmm(op, ones), ones, atol=1e-12)


def test_spmm_identity_on_edgeless():
    op = normalize(build_graph([], 4), 0.5)
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert np.array_equal(spmm(op, x), x)


def test_spmm_one_hot_matches_dense(path3):
    op = normalize(path3, 0.5)
    e0 = np.zeros((3, 1))
    e0[0, 0] = 1.0
    assert np.allclose(spmm(op, e0), dense_ahat(path3, 0.5) @ e0, atol=1e-14)


def test_spmm_shape_mismatch(path3):
    with pytest.raises(ValueError):
        spmm(normalize(path3, 0.5), np.ones((4, 2)))


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_spmm_matches_dense_product_random(r):
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        g = random_graph(rng, n, 0.2)
        op = normalize(g, r)
        x = rng.standard_normal((n, 4))
        want = dense_ahat(g, r) @ x
        got = spmm(op, x)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
    # a raw self loop and an added one are the same diagonal entry of 1
    for _ in range(10):
        g = _partly_looped(rng, int(rng.integers(4, 30)), 0.25)
        x = rng.standard_normal((g.n, 4))
        want = dense_ahat(g, r) @ x
        got = spmm(normalize(g, r), x)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_r1_column_sums():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 30)), 0.25)
        cols = to_scipy(normalize(g, 1.0)).toarray().sum(axis=0)
        assert np.allclose(cols, 1.0, atol=1e-12)


def test_symmetric_mode_values():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 30)), 0.25)
        dense = to_scipy(normalize(g, 0.5)).toarray()
        assert np.allclose(dense, dense.T, atol=0)


def test_operator_values_positive():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 15, 0.3)
    for r in (0.0, 0.5, 1.0):
        assert normalize(g, r).values.min() > 0


# ---------------------------------------------------------------------------
# Reference construction: the np.unique-based build and self-loop code the
# sort-based versions replaced. Their CSR arrays must match it bit for bit,
# since operator values, stacks, fingerprints and cache bytes derive from them.
# ---------------------------------------------------------------------------


def _reference_from_keys(keys, n):
    rows = keys // n
    cols = keys % n
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_offsets, rows + 1, 1)
    np.cumsum(row_offsets, out=row_offsets)
    return row_offsets, cols.astype(np.int64)


def reference_build(edges, n):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size:
        e = np.concatenate([e, e[:, ::-1]], axis=0)
    keys = np.unique(e[:, 0] * n + e[:, 1]) if e.size else np.empty(0, dtype=np.int64)
    return _reference_from_keys(keys, n)


def reference_add_self_loops(row_offsets, cols, n):
    rows = np.repeat(np.arange(n), np.diff(row_offsets))
    diag = np.arange(n, dtype=np.int64) * (n + 1)
    return _reference_from_keys(np.unique(np.concatenate([rows * n + cols, diag])), n)


def assert_matches_reference(edges, n):
    g = build_graph(edges, n)
    offsets, cols = reference_build(edges, n)
    assert np.array_equal(g.row_offsets, offsets) and g.row_offsets.dtype == np.int64
    assert np.array_equal(g.col_indices, cols) and g.col_indices.dtype == np.int64
    looped = add_self_loops(g)
    offsets, cols = reference_add_self_loops(offsets, cols, n)
    assert np.array_equal(looped.row_offsets, offsets) and looped.row_offsets.dtype == np.int64
    assert np.array_equal(looped.col_indices, cols) and looped.col_indices.dtype == np.int64


def test_build_matches_reference_with_duplicates_and_both_orientations():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        # up to twice as many lines as node pairs: heavy duplication
        e = rng.integers(0, n, size=(int(rng.integers(0, 2 * n * n + 1)), 2))
        e = np.concatenate([e, e[: e.shape[0] // 3, ::-1]])  # reversed repeats
        assert_matches_reference(e[rng.permutation(e.shape[0])], n)


def test_build_matches_reference_with_existing_self_loops():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        e = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        loops = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        e = np.concatenate([e, np.stack([loops, loops], axis=1)])
        assert_matches_reference(e[rng.permutation(e.shape[0])], n)
    # every node already looped: add_self_loops must leave the arrays as they are
    full = np.stack([np.arange(6), np.arange(6)], axis=1)
    g = build_graph(np.concatenate([full, [[0, 5], [2, 3]]]), 6)
    assert all(i in neighbors(g, i) for i in range(6))
    looped = add_self_loops(g)
    assert np.array_equal(looped.row_offsets, g.row_offsets)
    assert np.array_equal(looped.col_indices, g.col_indices)


def test_build_matches_reference_on_sparse_and_degenerate_graphs():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(50, 300))
        # far fewer edges than nodes: most nodes isolated
        assert_matches_reference(rng.integers(0, n, size=(int(rng.integers(1, 10)), 2)), n)
    for n in (1, 2, 7):
        assert_matches_reference(np.empty((0, 2), dtype=np.int64), n)
        assert_matches_reference([], n)
    assert_matches_reference([(0, 0)], 1)
    assert_matches_reference([(0, 0), (0, 0)], 1)
    assert add_self_loops(build_graph([], 1)).col_indices.tolist() == [0]


def test_unique_sorted_matches_np_unique():
    rng = np.random.default_rng(14)
    for size in (0, 1, 2, 5, 1000):
        values = rng.integers(-20, 20, size=size)
        assert np.array_equal(unique_sorted(values), np.unique(values))


def _operator(dense):
    """Operator holding the nonzeros of ``dense`` as they are (rows may be empty)."""
    rows, cols = np.nonzero(dense)
    row_offsets = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=row_offsets[1:])
    return PropagationOperator(n=dense.shape[0], row_offsets=row_offsets,
                               col_indices=cols.astype(np.int64),
                               values=dense[rows, cols], mode=0.5)


def _hub_operator(rng, n):
    # row 0 holds a full row, most other rows one entry, every fifth row none
    dense = np.zeros((n, n))
    dense[0] = rng.random(n) + 0.5
    for i in range(1, n):
        if i % 5:
            dense[i, rng.integers(n)] = rng.random() + 0.5
    return _operator(dense)


def test_row_blocks_cut_by_nnz():
    # the hub row holds 90 of 100 entries: it is a block on its own
    hub = np.array([0, 90, 92, 94, 96, 98, 100])
    assert row_blocks(hub, 2).tolist() == [0, 1, 6]
    assert row_blocks(np.arange(0, 61, 10), 3).tolist() == [0, 2, 4, 6]
    # fewer rows than parts: never an empty block
    assert row_blocks(np.array([0, 1, 2]), 8).tolist() == [0, 1, 2]
    assert row_blocks(np.array([0, 0, 0]), 4).tolist() == [0, 2]
    assert row_blocks(hub, 1).tolist() == [0, 6]


def _as_dtype(op, dtype):
    """``op`` with its values cast to ``dtype``, the dtype spmm computes in."""
    return dataclasses.replace(op, values=op.values.astype(dtype))


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
@pytest.mark.parametrize("with_out", [False, True])
@pytest.mark.parametrize("chunk_bytes", [None, 8])
def test_parallel_spmm_is_bit_identical_to_scipy(monkeypatch, threads, with_out,
                                                  chunk_bytes):
    monkeypatch.setenv("GAMLP_THREADS", str(threads))
    if chunk_bytes is not None:  # one row per chunk: these small outputs use the pool
        monkeypatch.setattr(graph, "_CHUNK_BYTES", chunk_bytes)
    assert spmm_threads() == threads
    rng = np.random.default_rng(21)
    cases = [
        normalize(build_graph([(0, 1)], 2), 0.5),        # fewer nodes than threads
        normalize(build_graph([], 1), 0.0),
        _operator(np.diag([0.0, 2.0, 0.0, 0.0, 3.0, 0.0])),  # empty rows
        _operator(np.zeros((5, 5))),                          # no entries at all
        _hub_operator(rng, 60),                               # one row holds most nnz
        normalize(random_graph(rng, 300, 0.05), 0.5),
    ]
    # a float32 operator computes in float32, like scipy's float32 product
    for op, dtype in itertools.product(cases, (np.float64, np.float32)):
        op = _as_dtype(op, dtype)
        for d in (1, 7):
            x = rng.standard_normal((op.n, d)).astype(dtype)
            want = to_scipy(op) @ x
            assert want.dtype == dtype
            out = np.full((op.n, d), np.nan, dtype) if with_out else None
            got = spmm(op, x, out=out)
            assert got.dtype == dtype and np.array_equal(got, want)
            if with_out:
                assert got is out


def test_spmm_reads_a_strided_or_float32_input_as_float64(monkeypatch):
    monkeypatch.setenv("GAMLP_THREADS", "3")
    monkeypatch.setattr(graph, "_CHUNK_BYTES", 8)
    op = _hub_operator(np.random.default_rng(22), 40)
    x = np.random.default_rng(23).standard_normal((40, 6))
    want = to_scipy(op) @ x[:, ::2]
    assert np.array_equal(spmm(op, x[:, ::2]), want)
    x32 = x.astype(np.float32)
    assert np.array_equal(spmm(op, x32), to_scipy(op) @ x32.astype(np.float64))


def test_spmm_of_a_float32_operator_reads_a_float64_input_as_float32(monkeypatch):
    monkeypatch.setenv("GAMLP_THREADS", "3")
    monkeypatch.setattr(graph, "_CHUNK_BYTES", 8)
    op = _as_dtype(_hub_operator(np.random.default_rng(22), 40), np.float32)
    x = np.random.default_rng(23).standard_normal((40, 6))[:, ::2]
    got = spmm(op, x)
    assert got.dtype == np.float32
    assert np.array_equal(got, to_scipy(op) @ x.astype(np.float32))


@pytest.mark.parametrize("make_out, message", [
    (lambda x: np.empty((x.shape[0] + 1, x.shape[1])), "shape"),
    (lambda x: np.empty((x.shape[0], x.shape[1] + 1)), "shape"),
    (lambda x: np.empty(x.shape, dtype=np.float32), "float64"),
    (lambda x: np.empty(x.shape, order="F"), "C-contiguous"),
    (lambda x: np.empty((x.shape[0], 2 * x.shape[1]))[:, ::2], "C-contiguous"),
    (lambda x: x, "overlap"),
])
def test_spmm_out_contract(make_out, message):
    op = normalize(random_graph(np.random.default_rng(24), 10, 0.3), 0.5)
    x = np.random.default_rng(25).standard_normal((10, 3))
    with pytest.raises(ValueError, match=message) as exc:
        spmm(op, x, out=make_out(x))
    assert "\n" not in str(exc.value)


def test_spmm_out_of_another_dtype_is_refused_naming_the_operator_dtype():
    op = normalize(random_graph(np.random.default_rng(24), 10, 0.3), 0.5)
    x = np.random.default_rng(25).standard_normal((10, 3))
    for op_dtype, out_dtype in ((np.float32, np.float64), (np.float64, np.float32)):
        with pytest.raises(ValueError) as exc:
            spmm(_as_dtype(op, op_dtype), x, out=np.empty(x.shape, out_dtype))
        assert str(exc.value).startswith(
            f"spmm out must be a C-contiguous {np.dtype(op_dtype)} array (the operator's dtype)")
        assert f"got a {np.dtype(out_dtype)} array" in str(exc.value)


def test_spmm_out_must_not_overlap_a_view_of_its_input():
    op = normalize(random_graph(np.random.default_rng(26), 10, 0.3), 0.5)
    buf = np.random.default_rng(27).standard_normal((11, 3))
    with pytest.raises(ValueError, match="overlap"):
        spmm(op, buf[:10], out=buf[1:])
    # disjoint slots of one array are fine
    stack = np.random.default_rng(28).standard_normal((2, 10, 3))
    spmm(op, stack[0], out=stack[1])
    assert np.array_equal(stack[1], to_scipy(op) @ stack[0])


def test_spmm_threads_defaults_to_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("GAMLP_THREADS", raising=False)
    assert spmm_threads() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
def test_spmm_threads_rejects_a_bad_value(monkeypatch, value):
    monkeypatch.setenv("GAMLP_THREADS", value)
    with pytest.raises(ValueError, match="GAMLP_THREADS"):
        spmm_threads()
