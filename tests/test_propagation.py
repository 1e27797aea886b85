import gc
import hashlib
import io
import json
import mmap
import struct
from unittest import mock

import numpy as np
import pytest

from gamlp.graph import add_self_loops, build_graph, normalize
from gamlp.propagation import (CacheFormatError, FingerprintMismatch, ResidualScheme, Stack,
                               apply_last_residual, build_label_seed, cache_info,
                               cache_read, cache_write, propagate_features,
                               propagate_labels, stack_fingerprint)

from conftest import dense_ahat, random_graph, to_scipy


def test_zero_steps_is_input(path3):
    x = np.random.default_rng(0).standard_normal((3, 2))
    stack = propagate_features(normalize(path3, 0.5), x, 0, np.float64)
    assert len(stack.mats) == 1
    assert np.array_equal(stack.mats[0], x)


def test_row_stochastic_preserves_ones(path3):
    stack = propagate_features(normalize(path3, 0.0), np.ones((3, 1)), 6, np.float64)
    for m in stack.mats:
        assert np.allclose(m, 1.0, atol=1e-12)


def test_two_step_matches_dense(path3):
    x = np.random.default_rng(1).standard_normal((3, 2))
    stack = propagate_features(normalize(path3, 0.5), x, 2, np.float64)
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
        stack = propagate_features(normalize(g, r), x, k, np.float64)
        a = dense_ahat(g, r)
        want = np.linalg.matrix_power(a, k) @ x
        err = np.linalg.norm(stack.mats[k] - want) / max(1.0, np.linalg.norm(want))
        assert err <= 1e-10


def test_step_limits(path3):
    op = normalize(path3, 0.5)
    with pytest.raises(ValueError):
        propagate_features(op, np.ones((3, 1)), -1, np.float64)
    with pytest.raises(ValueError):
        propagate_features(op, np.ones((3, 1)), 129, np.float64)
    with pytest.raises(ValueError):
        propagate_features(op, np.ones((4, 1)), 1, np.float64)


def test_label_seed_rows():
    y = build_label_seed(np.array([2, -1]), [0], n=2, num_classes=3)
    assert y.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]


def test_label_seed_empty_train():
    y = build_label_seed(np.full(4, -1), [], n=4, num_classes=2)
    assert not y.any()


def test_label_seed_full_train():
    labels = np.array([0, 1, 1, 0])
    y = build_label_seed(labels, np.arange(4), n=4, num_classes=2)
    assert np.allclose(y.sum(axis=1), 1.0)


def test_label_seed_missing_label():
    with pytest.raises(ValueError):
        build_label_seed(np.array([1, -1]), [0, 1], n=2, num_classes=2)
    # the first bad node in training order is named
    labels = np.array([0, -1, 5, 1])
    with pytest.raises(ValueError, match=r"^train node 2 has no valid label \(got 5\)$"):
        build_label_seed(labels, [0, 2, 1], n=4, num_classes=3)
    with pytest.raises(ValueError, match=r"^train node 1 has no valid label \(got -1\)$"):
        build_label_seed(labels, [3, 1, 2], n=4, num_classes=3)


def test_label_propagation_zero_steps(path3):
    y0 = build_label_seed(np.array([0, -1, -1]), [0], n=3, num_classes=2)
    stack = propagate_labels(normalize(path3, 0.0), y0, 0, np.float64)
    assert len(stack.mats) == 1
    assert np.array_equal(stack.mats[0], y0)


def test_label_row_sums_stay_probabilistic():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 20, 0.2)
    labels = rng.integers(0, 3, size=20)
    train = rng.choice(20, size=8, replace=False)
    y0 = build_label_seed(labels, train, n=20, num_classes=3)
    stack = propagate_labels(normalize(g, 0.0), y0, 5, np.float64)
    for m in stack.mats:
        sums = m.sum(axis=1)
        assert sums.min() >= -1e-12 and sums.max() <= 1.0 + 1e-12


def test_two_node_label_step_matches_dense():
    g = build_graph([(0, 1)], 2)
    y0 = build_label_seed(np.array([1, -1]), [0], n=2, num_classes=2)
    stack = propagate_labels(normalize(g, 0.5), y0, 1, np.float64)
    assert np.allclose(stack.mats[1], dense_ahat(g, 0.5) @ y0, atol=1e-14)


def test_cosine_alphas_l4():
    # analytic cos(pi l / 8)
    a = ResidualScheme("cosine", 0.0).alphas(4)
    want = [1.0, 0.9238795325112867, 0.7071067811865476, 0.3826834323650898, 0.0]
    assert np.allclose(a, want, atol=1e-12)
    assert a[0] == 1.0 and a[-1] == 0.0


def test_cosine_alphas_strictly_decreasing():
    for steps in range(1, 20):
        a = ResidualScheme("cosine", 0.0).alphas(steps)
        assert np.all(np.diff(a) < 0)


def test_linear_and_fixed_alphas():
    assert np.allclose(ResidualScheme("linear", 0.0).alphas(4), [1.0, 0.75, 0.5, 0.25, 0.0])
    assert np.allclose(ResidualScheme("fixed", 0.7).alphas(3), 0.7)
    with pytest.raises(ValueError):
        ResidualScheme("fixed", 1.5)
    with pytest.raises(ValueError):
        ResidualScheme("geometric", 0.0)


def _label_stack(rng, n=12, steps=4, r=0.5, dtype=np.float64):
    g = random_graph(rng, n, 0.3)
    labels = rng.integers(0, 3, size=n)
    train = rng.choice(n, size=n // 3, replace=False)
    y0 = build_label_seed(labels, train, n=n, num_classes=3)
    return propagate_labels(normalize(g, r), y0, steps, dtype), train


def test_last_residual_deepest_is_exact():
    stack, _ = _label_stack(np.random.default_rng(2))
    smoothed = apply_last_residual(stack.mats, ResidualScheme("cosine", 0.0))
    assert np.array_equal(smoothed[-1], stack.mats[-1])


def test_last_residual_step0_equals_deepest_under_cosine():
    stack, _ = _label_stack(np.random.default_rng(3))
    smoothed = apply_last_residual(stack.mats, ResidualScheme("cosine", 0.0))
    assert np.array_equal(smoothed[0], stack.mats[-1])


def test_fixed_alpha_blend():
    stack, _ = _label_stack(np.random.default_rng(4))
    smoothed = apply_last_residual(stack.mats, ResidualScheme("fixed", 0.7))
    for l in range(stack.steps + 1):
        want = 0.3 * stack.mats[l] + 0.7 * stack.mats[-1]
        assert np.allclose(smoothed[l], want, atol=1e-15)


@pytest.mark.parametrize("scheme", [ResidualScheme("cosine", 0.0), ResidualScheme("linear", 0.0),
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


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_each_hop_is_one_scipy_product_in_the_stack_dtype(r, dtype):
    # slot 0 is the seed rounded once; slot k is the operator, its values in
    # the stack dtype, times slot k-1, bit for bit
    rng = np.random.default_rng(11)
    op = normalize(random_graph(rng, 60, 0.1), r)
    x = rng.standard_normal((60, 5))
    mats = propagate_features(op, x, 6, dtype).mats
    assert mats.dtype == dtype and np.array_equal(mats[0], x.astype(dtype))
    a = to_scipy(op).astype(dtype)
    for k in range(1, 7):
        assert np.array_equal(mats[k], a @ mats[k - 1])


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_float32_hops_stay_within_a_rounding_bound_of_float64_hops(r):
    # every hop of the float32 stack is within (k+1) * 2^-22 of the float64
    # one in relative Frobenius norm: one rounding of the seed plus one per hop
    rng = np.random.default_rng(10)
    g = random_graph(rng, 500, 0.02)
    labels = rng.integers(0, 5, size=500)
    seeds = (rng.standard_normal((500, 8)),
             build_label_seed(labels, rng.choice(500, 100, replace=False), 500, 5))
    op = normalize(g, r)
    for propagate, seed in zip((propagate_features, propagate_labels), seeds):
        f32, f64 = (propagate(op, seed, 16, dtype).mats for dtype in (np.float32, np.float64))
        assert f32.dtype == np.float32 and f64.dtype == np.float64
        for k in range(17):
            err = np.linalg.norm(f32[k] - f64[k]) / np.linalg.norm(f64[k])
            assert err <= (k + 1) * 2.0**-22, (k, err)


def _feature_stack(rng, n=10, steps=3):
    """A float32 stack, the only dtype a cache stores."""
    g = random_graph(rng, n, 0.3)
    x = rng.standard_normal((n, 4)).astype(np.float32)
    return propagate_features(normalize(g, 0.5), x, steps, np.float32)


def _npy(array) -> bytes:
    """The bytes ``np.save`` writes for ``array``."""
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def test_cache_round_trip_features(tmp_path):
    stack = _feature_stack(np.random.default_rng(0))
    path = tmp_path / "f.npy"
    cache_write(stack, path)
    # one file: the float32 stack record, then the fingerprint as uint8 (32,)
    stored = stack.mats.astype("<f4")
    assert path.read_bytes() == (_npy(stored)
                                 + _npy(np.frombuffer(stack.fingerprint, np.uint8)))
    # np.load reads the stack record, whole or mapped
    assert np.array_equal(np.load(path), stored)
    assert np.array_equal(np.load(path, mmap_mode="r"), stored)
    loaded = cache_read(path, stack.fingerprint, force=False)
    # values survive as their float32 representation; a second trip is exact
    path2 = tmp_path / "f2.npy"
    cache_write(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    again = cache_read(path2, stack.fingerprint, force=False)
    for a, b in zip(loaded.mats, again.mats):
        assert np.array_equal(a, b)
    assert loaded.fingerprint == stack.fingerprint
    assert loaded.steps == stack.steps


def test_fingerprint_of_looped_graph_equals_operator_fingerprint():
    # normalize keeps the self-looped structure, the only graph input the digest hashes
    rng = np.random.default_rng(6)
    g = random_graph(rng, 15, 0.3)
    x = rng.standard_normal((15, 3))
    looped = add_self_loops(g)
    for r in (0.0, 0.5, 1.0):
        for dtype in (np.float32, np.float64):
            assert (stack_fingerprint(looped, x, 4, r, dtype)
                    == stack_fingerprint(normalize(g, r), x, 4, r, dtype))
        # the hop dtype is part of the digest
        assert (stack_fingerprint(looped, x, 4, r, np.float32)
                != stack_fingerprint(looped, x, 4, r, np.float64))


def test_fingerprint_hashes_the_documented_layout():
    # SHA-256 over the <QIdc header (n, steps, r, hop dtype char), int64
    # offsets, int64 columns, float32 seed
    rng = np.random.default_rng(8)
    op = normalize(random_graph(rng, 25, 0.2), 0.5)
    x = rng.standard_normal((25, 12))
    for seed, steps, r, dtype, char in ((x, 0, 0.0, np.float64, b"d"),
                                        (x, 3, 0.5, np.float32, b"f"),
                                        (x[:, ::3], 7, 1.0, np.float64, b"d")):
        h = hashlib.sha256(struct.pack("<QIdc", 25, steps, r, char))
        h.update(op.row_offsets.astype(np.int64).tobytes())
        h.update(op.col_indices.astype(np.int64).tobytes())
        h.update(seed.astype(np.float32).tobytes())
        assert stack_fingerprint(op, seed, steps, r, dtype) == h.digest()
    for dtype in (np.float64, np.float32):
        assert (propagate_features(op, x, 3, dtype).fingerprint
                == stack_fingerprint(op, x, 3, 0.5, dtype))


def test_stacks_are_one_contiguous_array(tmp_path):
    rng = np.random.default_rng(7)
    features = _feature_stack(rng, n=10, steps=3)
    labels, _ = _label_stack(rng, n=12, steps=4, dtype=np.float32)
    for stack, is_label in ((features, False), (labels, True)):
        path = tmp_path / "s.npy"
        cache_write(stack, path)
        loaded = cache_read(path, stack.fingerprint, force=False)
        arrays = [(stack.mats, np.float32), (loaded.mats, np.float32)]
        if is_label:
            smoothed = apply_last_residual(loaded.mats, ResidualScheme("cosine", 0.0))
            arrays.append((smoothed, np.float32))
        for a, dtype in arrays:
            assert isinstance(a, np.ndarray) and a.dtype == dtype
            assert a.shape == (stack.steps + 1, stack.n, stack.dim)
            assert a.flags.c_contiguous


def test_cache_round_trip_labels(tmp_path):
    stack, _ = _label_stack(np.random.default_rng(1), dtype=np.float32)
    path = tmp_path / "l.npy"
    cache_write(stack, path)
    # the 128-byte npy header and the raw steps only, then the 160-byte
    # fingerprint record: no smoothed copy is stored
    assert path.stat().st_size == 128 + (stack.steps + 1) * stack.n * stack.dim * 4 + 160
    loaded = cache_read(path, stack.fingerprint, force=False)
    assert loaded.fingerprint == stack.fingerprint
    for a, b in zip(loaded.mats, stack.mats):
        assert np.allclose(a, b, atol=1e-7)
    path2 = tmp_path / "l2.npy"
    cache_write(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def _refused(path) -> str:
    """The one-line message ``cache_read`` refuses ``path`` with, before it maps
    anything: a map past the end of the file would fault, not raise. The file
    is checked before its fingerprint is compared, so any expected one will do."""
    with mock.patch.object(mmap, "mmap", side_effect=AssertionError("mapped")), \
            pytest.raises(CacheFormatError) as err:
        cache_read(path, bytes(32), force=False)
    message = str(err.value)
    assert "\n" not in message
    assert message.startswith(f"{path}: ") and message.endswith("rerun gamlp preprocess")
    return message


def test_cache_in_the_former_format_asks_for_a_new_preprocess(tmp_path):
    # a lone stack .npy whose fingerprint sat in a <stem>.json sidecar
    stack = _feature_stack(np.random.default_rng(2))
    path = tmp_path / "f.npy"
    np.save(path, stack.mats.astype("<f4"))
    assert "no fingerprint record after the stack" in _refused(path)
    (tmp_path / "f.json").write_text(json.dumps(
        {"kind": "features", "fingerprint": stack.fingerprint.hex()}))
    assert "no fingerprint record after the stack" in _refused(path)
    # a stray cache of the format before that is no .npy file at all
    old = tmp_path / "features_K3_r0.5.gmlp"
    old.write_bytes(b"GMLP" + bytes(58 + 4 * 12))
    assert "magic string" in _refused(old)


_FINGERPRINT = np.arange(32, dtype=np.uint8)


@pytest.mark.parametrize("after, problem", [
    (_npy(_FINGERPRINT.astype(np.float32)), "expected a 32-byte uint8 fingerprint"),
    (_npy(_FINGERPRINT[:31]), "expected a 32-byte uint8 fingerprint"),
    (_npy(_FINGERPRINT.reshape(4, 8)), "expected a 32-byte uint8 fingerprint"),
    (_npy(_FINGERPRINT)[:-13], "Failed to read all data"),
    (b"", "no fingerprint record after the stack")],
    ids=["float", "short", "2d", "cut", "missing"])
def test_cache_rejects_a_malformed_fingerprint_record(tmp_path, after, problem):
    path = tmp_path / "f.npy"
    path.write_bytes(_npy(np.zeros((2, 3, 4), "<f4")) + after)
    assert problem in _refused(path)


@pytest.mark.parametrize("payload", [b"", b"NOPE" + b"\0" * 100, b"\x93NUMPY\x01\x00"],
                         ids=["empty", "not_npy", "header_cut"])
def test_cache_rejects_non_npy_bytes(tmp_path, payload):
    cache_write(_feature_stack(np.random.default_rng(2)), tmp_path / "f.npy")
    (tmp_path / "f.npy").write_bytes(payload)
    _refused(tmp_path / "f.npy")


@pytest.mark.parametrize("array", [np.zeros((2, 3), np.float32), np.zeros((1, 2, 3)),
                                   np.zeros((1, 2, 3), ">f4")],
                         ids=["2d", "float64", "big_endian"])
def test_cache_rejects_another_array(tmp_path, array):
    cache_write(_feature_stack(np.random.default_rng(2)), tmp_path / "f.npy")
    np.save(tmp_path / "f.npy", array)
    assert "3-d float32" in _refused(tmp_path / "f.npy")


def test_cache_rejects_truncation(tmp_path):
    stack = _feature_stack(np.random.default_rng(3))
    path = tmp_path / "t.npy"
    cache_write(stack, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])  # a cut inside the stack's data
    assert "Failed to read all data" in _refused(path)


@pytest.mark.parametrize("cut, problem", [
    (1, "Failed to read all data"), (4, "Failed to read all data"),
    (0, "no fingerprint record after the stack")],
    ids=["one_byte_short", "one_value_short", "at_the_stack_end"])
def test_cache_cut_at_the_end_of_the_stack_is_refused(tmp_path, cut, problem):
    stack = _feature_stack(np.random.default_rng(3))
    path = tmp_path / "t.npy"
    cache_write(stack, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:128 + stack.mats.size * 4 - cut])
    assert problem in _refused(path)


def test_cache_rejects_bytes_after_the_data(tmp_path):
    path = tmp_path / "t.npy"
    cache_write(_feature_stack(np.random.default_rng(3)), path)
    with open(path, "ab") as f:
        f.write(bytes(100))
    assert "100 bytes after the array data" in _refused(path)


def test_cache_replaced_while_read_yields_one_write(tmp_path, monkeypatch):
    # a preprocess that replaces the cache while its fingerprint record is
    # read, after the stack's header and before the map: the checked
    # descriptor maps the old file, and the next read gets the new one
    rng = np.random.default_rng(3)
    stack, other = _feature_stack(rng), _feature_stack(rng)
    path = tmp_path / "t.npy"
    cache_write(stack, path)
    read_array = np.lib.format.read_array

    def read_then_replace(*args, **kwargs):
        array = read_array(*args, **kwargs)
        cache_write(other, path)
        return array

    monkeypatch.setattr(np.lib.format, "read_array", read_then_replace)
    loaded = cache_read(path, stack.fingerprint, force=False)
    monkeypatch.undo()
    assert loaded.fingerprint == stack.fingerprint != other.fingerprint
    assert np.array_equal(loaded.mats, stack.mats.astype(np.float32))
    assert cache_read(path, other.fingerprint, force=False).fingerprint == other.fingerprint


def test_cache_read_maps_a_read_only_stack(tmp_path):
    stack = _feature_stack(np.random.default_rng(4))
    path = tmp_path / "m.npy"
    cache_write(stack, path)
    mats = cache_read(path, stack.fingerprint, force=False).mats
    assert type(mats) is np.ndarray and mats.dtype == np.float32
    assert mats.flags.c_contiguous and not mats.flags.writeable
    assert np.array_equal(mats, stack.mats.astype(np.float32))
    with pytest.raises(ValueError, match="read-only"):
        mats[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        mats[1] += 1.0
    with pytest.raises(ValueError):
        mats.setflags(write=True)
    # views and gathers of the map work as on any array
    assert np.array_equal(np.take(mats, [3, 1], axis=1), stack.mats[:, [3, 1]].astype("<f4"))
    assert not mats[:, 2:5].flags.writeable


def test_mapped_stack_outlives_its_file_and_stack(tmp_path):
    stack = _feature_stack(np.random.default_rng(5))
    path = tmp_path / "m.npy"
    cache_write(stack, path)
    loaded = cache_read(path, stack.fingerprint, force=False)
    mats = loaded.mats
    del loaded
    gc.collect()
    cache_write(_feature_stack(np.random.default_rng(6)), path)  # renamed over it
    path.unlink()
    assert not path.exists()
    assert np.array_equal(mats, stack.mats.astype(np.float32))


def test_cache_info_reads_the_headers(tmp_path):
    stack = _feature_stack(np.random.default_rng(7))
    path = tmp_path / "i.npy"
    cache_write(stack, path)
    info = cache_info(path)
    assert info.shape == stack.mats.shape and info.offset == 128
    assert info.nbytes == stack.mats.size * 4
    assert info.file_size == path.stat().st_size == 128 + info.nbytes + 160
    assert info.fingerprint == stack.fingerprint
    # the same checks refuse the same files
    path.write_bytes(path.read_bytes()[:200])
    with pytest.raises(CacheFormatError, match="Failed to read all data"):
        cache_info(path)


def test_cache_of_a_fortran_order_stack_is_written_in_c_order(tmp_path):
    stack = _feature_stack(np.random.default_rng(8))
    path = tmp_path / "f.npy"
    cache_write(stack, path)
    fortran = tmp_path / "fortran.npy"
    cache_write(Stack(np.asfortranarray(stack.mats), stack.fingerprint), fortran)
    assert fortran.read_bytes() == path.read_bytes()
    # a Fortran-order record that np.save wrote is refused, not mapped wrong
    with open(fortran, "wb") as f:
        np.save(f, np.asfortranarray(stack.mats.astype("<f4")))
        np.save(f, np.frombuffer(stack.fingerprint, np.uint8))
    assert "C-order" in _refused(fortran)


def test_cache_fingerprint_guard(tmp_path):
    stack = _feature_stack(np.random.default_rng(4))
    path = tmp_path / "fp.npy"
    cache_write(stack, path)
    with mock.patch.object(mmap, "mmap", side_effect=AssertionError("mapped")), \
            pytest.raises(FingerprintMismatch):
        cache_read(path, expect_fingerprint=b"\0" * 32, force=False)
    with pytest.warns(UserWarning, match="fingerprint"):
        loaded = cache_read(path, expect_fingerprint=b"\0" * 32, force=True)
    assert loaded.steps == stack.steps
    loaded = cache_read(path, expect_fingerprint=stack.fingerprint, force=False)
    assert loaded.steps == stack.steps


class _FailingMatrix:
    """Stands in for a float32 stack; converting it to an array raises."""

    dtype = np.dtype(np.float32)

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def test_cache_write_failure_keeps_previous_file(tmp_path):
    stack = _feature_stack(np.random.default_rng(5))
    path = tmp_path / "f.npy"
    cache_write(stack, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["f.npy"]
    # the temporary exists when the array fails to convert
    broken = Stack(mats=_FailingMatrix(), fingerprint=b"\1" * 32)
    with pytest.raises(OSError, match="no space"):
        cache_write(broken, path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    loaded = cache_read(path, expect_fingerprint=stack.fingerprint, force=False)
    assert loaded.steps == stack.steps


@pytest.mark.parametrize("dtype", [np.float64, np.float16])
def test_cache_write_refuses_a_stack_that_is_not_float32(tmp_path, dtype):
    # its fingerprint would name hops of another dtype, so no load could accept it
    stack = _feature_stack(np.random.default_rng(6))
    other = Stack(stack.mats.astype(dtype), stack.fingerprint)
    with pytest.raises(ValueError) as err:
        cache_write(other, tmp_path / "cache" / "f.npy")
    assert str(err.value) == (f"a cache stores float32 stacks, not {np.dtype(dtype)}; "
                              "propagate in float32")
    assert not (tmp_path / "cache").exists()
