import numpy as np
import pytest

from gamlp.graph import add_self_loops, build_graph, normalize, spmm, unique_sorted

from conftest import dense_ahat, operator_for, random_graph


def test_single_edge_symmetry():
    g = build_graph([(0, 1)], 2)
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]


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
    assert g.has_self_loops


def test_add_self_loops_edgeless():
    g = add_self_loops(build_graph([], 3))
    assert g.degrees().tolist() == [1, 1, 1]
    assert np.array_equal(g.to_dense(), np.eye(3))


def test_add_self_loops_idempotent_on_existing_loop():
    g = add_self_loops(build_graph([(0, 1), (1, 1)], 2))
    row1 = g.neighbors(1)
    assert np.count_nonzero(row1 == 1) == 1


def test_normalize_two_node_symmetric(path3):
    g = add_self_loops(build_graph([(0, 1)], 2))
    op = normalize(g, 0.5)
    assert np.allclose(op.to_dense(), 0.5)


def test_normalize_path_value(path3):
    # frozen from the dense D^(-1/2) (A+I) D^(-1/2) computation: 1/sqrt(6)
    op = operator_for(path3, 0.5)
    assert op.to_dense()[0, 1] == pytest.approx(0.4082482904638631, abs=1e-12)


def test_normalize_row_stochastic(path3):
    op = operator_for(path3, 0.0)
    assert np.allclose(op.to_dense().sum(axis=1), 1.0, atol=1e-12)


def test_normalize_requires_loops(path3):
    with pytest.raises(ValueError):
        normalize(path3, 0.5)
    with pytest.raises(ValueError):
        normalize(add_self_loops(path3), 0.3)


def test_spmm_row_stochastic_fixed_point():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 12, 0.3)
    op = operator_for(g, 0.0)
    ones = np.ones((12, 2))
    assert np.allclose(spmm(op, ones), ones, atol=1e-12)


def test_spmm_identity_on_edgeless():
    op = operator_for(build_graph([], 4), 0.5)
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert np.array_equal(spmm(op, x), x)


def test_spmm_one_hot_matches_dense(path3):
    op = operator_for(path3, 0.5)
    e0 = np.zeros((3, 1))
    e0[0, 0] = 1.0
    assert np.allclose(spmm(op, e0), dense_ahat(path3, 0.5) @ e0, atol=1e-14)


def test_spmm_shape_mismatch(path3):
    with pytest.raises(ValueError):
        spmm(operator_for(path3, 0.5), np.ones((4, 2)))


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_spmm_matches_dense_product_random(r):
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        g = random_graph(rng, n, 0.2)
        op = operator_for(g, r)
        x = rng.standard_normal((n, 4))
        want = dense_ahat(g, r) @ x
        got = spmm(op, x)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_r1_column_sums():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 30)), 0.25)
        cols = operator_for(g, 1.0).to_dense().sum(axis=0)
        assert np.allclose(cols, 1.0, atol=1e-12)


def test_symmetric_mode_values():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 30)), 0.25)
        dense = operator_for(g, 0.5).to_dense()
        assert np.allclose(dense, dense.T, atol=0)


def test_operator_values_positive():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 15, 0.3)
    for r in (0.0, 0.5, 1.0):
        assert operator_for(g, r).values.min() > 0


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


def reference_build(edges, n, symmetrize=True):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if symmetrize and e.size:
        e = np.concatenate([e, e[:, ::-1]], axis=0)
    keys = np.unique(e[:, 0] * n + e[:, 1]) if e.size else np.empty(0, dtype=np.int64)
    return _reference_from_keys(keys, n)


def reference_add_self_loops(row_offsets, cols, n):
    rows = np.repeat(np.arange(n), np.diff(row_offsets))
    diag = np.arange(n, dtype=np.int64) * (n + 1)
    return _reference_from_keys(np.unique(np.concatenate([rows * n + cols, diag])), n)


def assert_matches_reference(edges, n, symmetrize=True):
    g = build_graph(edges, n, symmetrize=symmetrize)
    offsets, cols = reference_build(edges, n, symmetrize)
    assert np.array_equal(g.row_offsets, offsets) and g.row_offsets.dtype == np.int64
    assert np.array_equal(g.col_indices, cols) and g.col_indices.dtype == np.int64
    looped = add_self_loops(g)
    offsets, cols = reference_add_self_loops(offsets, cols, n)
    assert np.array_equal(looped.row_offsets, offsets) and looped.row_offsets.dtype == np.int64
    assert np.array_equal(looped.col_indices, cols) and looped.col_indices.dtype == np.int64
    assert looped.has_self_loops


@pytest.mark.parametrize("symmetrize", [True, False])
def test_build_matches_reference_with_duplicates_and_both_orientations(symmetrize):
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        # up to twice as many lines as node pairs: heavy duplication
        e = rng.integers(0, n, size=(int(rng.integers(0, 2 * n * n + 1)), 2))
        e = np.concatenate([e, e[: e.shape[0] // 3, ::-1]])  # reversed repeats
        assert_matches_reference(e[rng.permutation(e.shape[0])], n, symmetrize)


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
    assert g.has_self_loops
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
    assert_matches_reference([(0, 0), (0, 0)], 1, symmetrize=False)
    assert add_self_loops(build_graph([], 1)).col_indices.tolist() == [0]


def test_unique_sorted_matches_np_unique():
    rng = np.random.default_rng(14)
    for size in (0, 1, 2, 5, 1000):
        values = rng.integers(-20, 20, size=size)
        assert np.array_equal(unique_sorted(values), np.unique(values))
