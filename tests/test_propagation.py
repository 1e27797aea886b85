import struct

import numpy as np
import pytest

from gamlp.graph import add_self_loops, build_graph, normalize
from gamlp.propagation import (CacheFormatError, FeatureStack, FingerprintMismatch,
                               LabelStack, ResidualScheme, apply_last_residual,
                               build_label_seed, cache_read, cache_write,
                               propagate_features, propagate_labels, stack_fingerprint)

from conftest import dense_ahat, operator_for, random_graph


def test_zero_steps_is_input(path3):
    x = np.random.default_rng(0).standard_normal((3, 2))
    stack = propagate_features(operator_for(path3, 0.5), x, 0)
    assert len(stack.mats) == 1
    assert np.array_equal(stack.mats[0], x)


def test_row_stochastic_preserves_ones(path3):
    stack = propagate_features(operator_for(path3, 0.0), np.ones((3, 1)), 6)
    for m in stack.mats:
        assert np.allclose(m, 1.0, atol=1e-12)


def test_two_step_matches_dense(path3):
    x = np.random.default_rng(1).standard_normal((3, 2))
    stack = propagate_features(operator_for(path3, 0.5), x, 2)
    a = dense_ahat(path3, 0.5)
    assert np.allclose(stack.mats[2], a @ (a @ x), atol=1e-14)


def test_iterative_equals_matrix_power_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        k = int(rng.integers(0, 9))
        r = float(rng.choice([0.0, 0.5, 1.0]))
        g = random_graph(rng, n, 0.2)
        x = rng.standard_normal((n, 3))
        stack = propagate_features(operator_for(g, r), x, k)
        a = dense_ahat(g, r)
        want = np.linalg.matrix_power(a, k) @ x
        err = np.linalg.norm(stack.mats[k] - want) / max(1.0, np.linalg.norm(want))
        assert err <= 1e-10


def test_step_limits(path3):
    op = operator_for(path3, 0.5)
    with pytest.raises(ValueError):
        propagate_features(op, np.ones((3, 1)), -1)
    with pytest.raises(ValueError):
        propagate_features(op, np.ones((3, 1)), 129)
    with pytest.raises(ValueError):
        propagate_features(op, np.ones((4, 1)), 1)


def test_label_seed_rows():
    y = build_label_seed({0: 2}, [0], n=2, num_classes=3)
    assert y.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]


def test_label_seed_empty_train():
    y = build_label_seed({}, [], n=4, num_classes=2)
    assert not y.any()


def test_label_seed_full_train():
    labels = np.array([0, 1, 1, 0])
    y = build_label_seed(labels, np.arange(4), n=4, num_classes=2)
    assert np.allclose(y.sum(axis=1), 1.0)


def test_label_seed_missing_label():
    with pytest.raises(ValueError):
        build_label_seed({0: 1}, [0, 1], n=2, num_classes=2)
    # the first bad node in training order is named, for array labels too
    labels = np.array([0, -1, 5, 1])
    with pytest.raises(ValueError, match=r"^train node 2 has no valid label \(got 5\)$"):
        build_label_seed(labels, [0, 2, 1], n=4, num_classes=3)
    with pytest.raises(ValueError, match=r"^train node 1 has no valid label \(got -1\)$"):
        build_label_seed(labels, [3, 1, 2], n=4, num_classes=3)


def test_label_propagation_zero_steps(path3):
    y0 = build_label_seed({0: 0}, [0], n=3, num_classes=2)
    stack = propagate_labels(operator_for(path3, 0.0), y0, 0)
    assert len(stack.mats) == 1
    assert np.array_equal(stack.mats[0], y0)


def test_label_row_sums_stay_probabilistic():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 20, 0.2)
    labels = rng.integers(0, 3, size=20)
    train = rng.choice(20, size=8, replace=False)
    y0 = build_label_seed(labels, train, n=20, num_classes=3)
    stack = propagate_labels(operator_for(g, 0.0), y0, 5)
    for m in stack.mats:
        sums = m.sum(axis=1)
        assert sums.min() >= -1e-12 and sums.max() <= 1.0 + 1e-12


def test_two_node_label_step_matches_dense():
    g = build_graph([(0, 1)], 2)
    y0 = build_label_seed({0: 1}, [0], n=2, num_classes=2)
    stack = propagate_labels(operator_for(g, 0.5), y0, 1)
    assert np.allclose(stack.mats[1], dense_ahat(g, 0.5) @ y0, atol=1e-14)


def test_cosine_alphas_l4():
    # analytic cos(pi l / 8)
    a = ResidualScheme("cosine").alphas(4)
    want = [1.0, 0.9238795325112867, 0.7071067811865476, 0.3826834323650898, 0.0]
    assert np.allclose(a, want, atol=1e-12)
    assert a[0] == 1.0 and a[-1] == 0.0


def test_cosine_alphas_strictly_decreasing():
    for steps in range(1, 20):
        a = ResidualScheme("cosine").alphas(steps)
        assert np.all(np.diff(a) < 0)


def test_linear_and_fixed_alphas():
    assert np.allclose(ResidualScheme("linear").alphas(4), [1.0, 0.75, 0.5, 0.25, 0.0])
    assert np.allclose(ResidualScheme("fixed", 0.7).alphas(3), 0.7)
    with pytest.raises(ValueError):
        ResidualScheme("fixed", 1.5)
    with pytest.raises(ValueError):
        ResidualScheme("geometric")


def _label_stack(rng, n=12, steps=4, r=0.5):
    g = random_graph(rng, n, 0.3)
    labels = rng.integers(0, 3, size=n)
    train = rng.choice(n, size=n // 3, replace=False)
    y0 = build_label_seed(labels, train, n=n, num_classes=3)
    return propagate_labels(operator_for(g, r), y0, steps), train


def test_last_residual_deepest_is_exact():
    stack, _ = _label_stack(np.random.default_rng(2))
    smoothed = apply_last_residual(stack.mats, ResidualScheme())
    assert np.array_equal(smoothed[-1], stack.mats[-1])


def test_last_residual_step0_equals_deepest_under_cosine():
    stack, _ = _label_stack(np.random.default_rng(3))
    smoothed = apply_last_residual(stack.mats, ResidualScheme())
    assert np.array_equal(smoothed[0], stack.mats[-1])


def test_fixed_alpha_blend():
    stack, _ = _label_stack(np.random.default_rng(4))
    smoothed = apply_last_residual(stack.mats, ResidualScheme("fixed", 0.7))
    for l in range(stack.steps + 1):
        want = 0.3 * stack.mats[l] + 0.7 * stack.mats[-1]
        assert np.allclose(smoothed[l], want, atol=1e-15)


@pytest.mark.parametrize("scheme", [ResidualScheme("cosine"), ResidualScheme("linear"),
                                    ResidualScheme("fixed", 0.7), ResidualScheme("fixed", 0.2)],
                         ids=["cosine", "linear", "fixed0.7", "fixed0.2"])
@pytest.mark.parametrize("steps", [0, 1, 5])
def test_last_residual_equals_broadcast_blend(scheme, steps):
    # the step-by-step blend into one output gives the broadcast's bits
    mats = np.random.default_rng(steps).random((steps + 1, 9, 4))
    before = mats.copy()
    a = scheme.alphas(steps)[:, None, None]
    smoothed = apply_last_residual(mats, scheme)
    assert np.array_equal(smoothed, (1.0 - a) * mats + a * mats[-1])
    assert smoothed.flags.c_contiguous and smoothed is not mats
    assert np.array_equal(mats, before)


def test_over_smoothing_shrinks_row_spread():
    # dense diagnostic: on a connected graph the symmetric operator drives
    # unit-normalized rows together as k grows
    rng = np.random.default_rng(8)
    g = random_graph(rng, 30, 0.15)
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph
    n_comp, _ = csgraph.connected_components(sp.csr_matrix(
        (np.ones(g.nnz), g.col_indices, g.row_offsets), shape=(30, 30)))
    assert n_comp == 1, "fixture must be connected"
    a = dense_ahat(g, 0.5)
    x = rng.standard_normal((30, 5))

    def max_pairwise(mat):
        rows = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        diff = rows[:, None, :] - rows[None, :, :]
        return np.sqrt((diff ** 2).sum(-1)).max()

    at_1 = max_pairwise(a @ x)
    at_100 = max_pairwise(np.linalg.matrix_power(a, 100) @ x)
    assert at_100 < at_1


# ---------------------------------------------------------------------------
# cache round trips
# ---------------------------------------------------------------------------


def _feature_stack(rng, n=10, steps=3):
    g = random_graph(rng, n, 0.3)
    x = rng.standard_normal((n, 4)).astype(np.float32).astype(np.float64)
    return propagate_features(operator_for(g, 0.5), x, steps)


def test_cache_round_trip_features(tmp_path):
    stack = _feature_stack(np.random.default_rng(0))
    path = tmp_path / "f.gmlp"
    cache_write(stack, path)
    loaded = cache_read(path)
    # values survive as their float32 representation; a second trip is exact
    path2 = tmp_path / "f2.gmlp"
    cache_write(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    again = cache_read(path2)
    for a, b in zip(loaded.mats, again.mats):
        assert np.array_equal(a, b)
    assert loaded.mode == stack.mode
    assert loaded.fingerprint == stack.fingerprint
    assert loaded.steps == stack.steps


def test_fingerprint_of_looped_graph_equals_operator_fingerprint():
    # normalize keeps the self-looped structure, the only graph input the digest hashes
    rng = np.random.default_rng(6)
    g = random_graph(rng, 15, 0.3)
    x = rng.standard_normal((15, 3))
    looped = add_self_loops(g)
    for r in (0.0, 0.5, 1.0):
        assert (stack_fingerprint(looped, x, 4, r)
                == stack_fingerprint(normalize(looped, r), x, 4, r))


def test_stacks_are_one_contiguous_array(tmp_path):
    rng = np.random.default_rng(7)
    features = _feature_stack(rng, n=10, steps=3)
    labels, _ = _label_stack(rng, n=12, steps=4)
    for stack in (features, labels):
        path = tmp_path / "s.gmlp"
        cache_write(stack, path)
        loaded = cache_read(path)
        # propagation computes in float64; a cache read keeps the stored float32
        arrays = [(stack.mats, np.float64), (loaded.mats, np.float32)]
        if isinstance(stack, LabelStack):
            arrays.append((apply_last_residual(loaded.mats, ResidualScheme()), np.float32))
        for a, dtype in arrays:
            assert isinstance(a, np.ndarray) and a.dtype == dtype
            assert a.shape == (stack.steps + 1, stack.n, stack.dim)
            assert a.flags.c_contiguous


def test_cache_round_trip_labels(tmp_path):
    stack, _ = _label_stack(np.random.default_rng(1))
    path = tmp_path / "l.gmlp"
    cache_write(stack, path)
    # a 62-byte header (magic, version, kind, n, c, L, r mode, fingerprint)
    # and the raw steps only: no smoothed copy is stored
    assert path.stat().st_size == 62 + (stack.steps + 1) * stack.n * stack.dim * 4
    loaded = cache_read(path)
    assert isinstance(loaded, LabelStack)
    for a, b in zip(loaded.mats, stack.mats):
        assert np.allclose(a, b, atol=1e-7)
    path2 = tmp_path / "l2.gmlp"
    cache_write(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cache_of_format_version_1_asks_for_a_new_preprocess(tmp_path):
    # version 1 also stored the residual scheme and the smoothed matrices
    n, c, steps = 4, 3, 2
    header = struct.pack("<4sIBQQIBBd32s", b"GMLP", 1, 1, n, c, steps, 0, 2, 0.7,
                         b"\0" * 32)
    path = tmp_path / "old.gmlp"
    path.write_bytes(header + np.zeros(2 * (steps + 1) * n * c, dtype="<f4").tobytes())
    with pytest.raises(CacheFormatError) as err:
        cache_read(path)
    message = str(err.value)
    assert "\n" not in message
    assert message.startswith(f"{path}: ") and "version 1" in message
    assert message.endswith("rerun gamlp preprocess")


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.gmlp"
    path.write_bytes(b"NOPE" + b"\0" * 100)
    with pytest.raises(CacheFormatError):
        cache_read(path)


def test_cache_rejects_truncation(tmp_path):
    stack = _feature_stack(np.random.default_rng(3))
    path = tmp_path / "t.gmlp"
    cache_write(stack, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 13])
    with pytest.raises(CacheFormatError):
        cache_read(path)


def test_cache_cut_short_while_read_is_refused(tmp_path, monkeypatch):
    stack = _feature_stack(np.random.default_rng(3))
    path = tmp_path / "t.gmlp"
    cache_write(stack, path)
    memmap = np.memmap

    def map_then_truncate(*args, **kwargs):
        # copy the step out, so that no mapping outlives the truncation
        step = np.array(memmap(*args, **kwargs))
        with open(path, "r+b") as f:
            f.truncate(path.stat().st_size - 13)
        return step

    monkeypatch.setattr(np, "memmap", map_then_truncate)
    with pytest.raises(CacheFormatError, match="shrank"):
        cache_read(path)


def test_cache_fingerprint_guard(tmp_path):
    stack = _feature_stack(np.random.default_rng(4))
    path = tmp_path / "fp.gmlp"
    cache_write(stack, path)
    with pytest.raises(FingerprintMismatch):
        cache_read(path, expect_fingerprint=b"\0" * 32)
    with pytest.warns(UserWarning, match="fingerprint"):
        loaded = cache_read(path, expect_fingerprint=b"\0" * 32, force=True)
    assert loaded.steps == stack.steps
    loaded = cache_read(path, expect_fingerprint=stack.fingerprint)
    assert loaded.steps == stack.steps


class _FailingMatrix:
    """Stands in for a stack matrix; converting it to an array raises."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def test_cache_write_failure_keeps_previous_file(tmp_path):
    stack = _feature_stack(np.random.default_rng(5))
    path = tmp_path / "f.gmlp"
    cache_write(stack, path)
    before = path.read_bytes()
    # header and first matrix reach the file before the second one fails
    broken = FeatureStack(mats=[stack.mats[0] + 1.0, _FailingMatrix()], mode=stack.mode,
                          fingerprint=b"\1" * 32)
    with pytest.raises(OSError, match="no space"):
        cache_write(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f.gmlp"]
    assert cache_read(path, expect_fingerprint=stack.fingerprint).steps == stack.steps
