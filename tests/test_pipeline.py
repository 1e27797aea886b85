import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from gamlp.config import TrainConfig
from gamlp.data import Dataset, Splits, generate_sbm, load_dataset, save_dataset
from gamlp.graph import add_self_loops, build_graph
from gamlp.model import _stack_inputs, evaluate_accuracy, fit, predict
from gamlp.pipeline import (MissingCacheError, build_stacks, cache_paths, load_stacks,
                            preprocess, stack_recipes)
from gamlp.propagation import FingerprintMismatch, ResidualScheme, cache_write

from conftest import ALL


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm([15, 15], 0.3, 0.05, 4, 2.0, seed=3, name="sbm")


def _config(cache_dir, **overrides):
    return TrainConfig(cache_dir=str(cache_dir), hops=3, **overrides).validate()


@pytest.fixture(scope="module")
def fixed_07_cache(sbm, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("cache")
    preprocess(sbm, _config(cache_dir, residual_scheme="fixed", fixed_alpha=0.7))
    return cache_dir


@pytest.mark.parametrize("label_mode", ["smoothed", "plain", "uniform"])
@pytest.mark.parametrize("scheme, fixed_alpha", [("cosine", 0.7), ("linear", 0.7),
                                                 ("fixed", 0.7), ("fixed", 0.2)])
def test_one_preprocess_serves_every_residual_scheme(sbm, fixed_07_cache, scheme,
                                                     fixed_alpha, label_mode):
    # the cache holds only the raw label propagation; the smoothing follows
    # the config it is loaded with
    config = _config(fixed_07_cache, residual_scheme=scheme, fixed_alpha=fixed_alpha,
                     label_mode=label_mode)
    feature_stack, label_stack = build_stacks(sbm, config)
    y = label_stack.mats
    a = ResidualScheme(scheme, fixed_alpha).alphas(label_stack.steps)[:, None, None]
    label_inputs = {"plain": y, "smoothed": (1.0 - a) * y + a * y[-1],
                    "uniform": (1.0 - a) * y + a / label_stack.dim}[label_mode]
    built = (feature_stack.mats, label_inputs)
    cached = _stack_inputs(*load_stacks(sbm, config), config, ALL)
    for got, want in zip(cached, built):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("attention, batch_size", [("jk", 0), ("recursive", 4)])
def test_the_benchmark_call_forms_run(sbm, tmp_path, attention, batch_size):
    # benchmarks/run.py makes exactly these calls, with these argument forms;
    # a signature change that breaks one fails here too
    save_dataset(sbm, tmp_path / "data")
    ds = load_dataset(tmp_path / "data")
    config = TrainConfig(dataset_dir=str(tmp_path / "data"), cache_dir=str(tmp_path / "cache"),
                         patience=2, seed=7, hops=3, hidden=8, attention=attention,
                         batch_size=batch_size, epochs=2, lr=0.01).validate()
    paths = preprocess(ds, config)
    assert len(paths) == 2 and all(p.is_file() for p in paths)
    stacks = load_stacks(ds, config, force=False)
    assert [s.steps for s in stacks] == [3, 3]
    fitted = fit(*stacks, ds.labels, ds.splits, config, num_classes=ds.num_classes)
    assert len(fitted.log) == config.epochs
    pred = predict(fitted.model, *stacks)
    assert pred.shape == (ds.n,)
    assert 0.0 <= evaluate_accuracy(pred, ds.labels, ds.splits.test) <= 1.0


def test_load_stacks_validates_a_label_cache_of_another_r_mode(sbm, tmp_path):
    # both digests hash the one self-looped graph with the config's r
    config = _config(tmp_path, r_mode=0.0)
    preprocess(sbm, config)
    feature_stack, label_stack = load_stacks(sbm, config)
    built_features, built_labels = build_stacks(sbm, config, np.float32)
    assert feature_stack.fingerprint == built_features.fingerprint
    assert label_stack.fingerprint == built_labels.fingerprint
    assert label_stack.fingerprint != build_stacks(
        sbm, config.replace(r_mode=0.5), np.float32)[1].fingerprint


def test_cache_names_follow_the_stack_recipes(sbm, tmp_path):
    config = _config(tmp_path, label_hops=2, r_mode=0.0)
    assert stack_recipes(config) == (("features", 3, 0.0), ("labels", 2, 0.0))
    assert [p.name for p in cache_paths(config)] == ["features_K3_r0.npy",
                                                     "labels_L2_r0.npy"]
    assert [p.name for p in preprocess(sbm, config)] == ["features_K3_r0.npy",
                                                         "labels_L2_r0.npy"]
    # -1 label hops follow the feature stack's; r is always r_mode
    assert [p.name for p in cache_paths(_config(tmp_path, r_mode=1.0))] == [
        "features_K3_r1.npy", "labels_L3_r1.npy"]


def test_feature_file_loads_as_float32_and_propagates_like_float64(sbm, tmp_path):
    # no float64 copy of features.bin: the float64 stack widens the seed into
    # its first slot, so it equals the stack of the widened features bit for bit
    save_dataset(sbm, tmp_path / "ds")
    ds = load_dataset(tmp_path / "ds")
    raw = (tmp_path / "ds" / "features.bin").read_bytes()[20:]
    assert ds.features.dtype == np.float32
    assert ds.features.tobytes() == raw
    wide = dataclasses.replace(ds, features=ds.features.astype(np.float64))
    config = _config(tmp_path / "cache")
    for got, want in zip(build_stacks(ds, config), build_stacks(wide, config)):
        assert got.mats.dtype == np.float64
        assert got.mats.tobytes() == want.mats.tobytes()
        assert got.fingerprint == want.fingerprint


def test_without_labels_only_the_feature_cache_is_used(sbm, tmp_path):
    config = _config(tmp_path / "cache", use_labels=False)
    assert stack_recipes(config) == (("features", 3, 0.5),)
    assert cache_paths(config) == [tmp_path / "cache" / "features_K3_r0.5.npy"]
    assert preprocess(sbm, config) == cache_paths(config)
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["features_K3_r0.5.npy"]
    feature_stack, label_stack = load_stacks(sbm, config)
    assert (feature_stack.steps, label_stack) == (3, None)
    assert build_stacks(sbm, config)[1] is None
    # the label cache of the same hops and r is never looked for
    with pytest.raises(MissingCacheError, match="labels_L3_r0.5.npy"):
        load_stacks(sbm, config.replace(use_labels=True))


def test_preprocess_writes_exactly_the_two_npy_caches(sbm, tmp_path):
    # the benchmark checks that preprocess returns exactly the two cache paths
    config = _config(tmp_path / "cache")
    written = preprocess(sbm, config)
    assert written == list(cache_paths(config))
    assert [p.suffix for p in written] == [".npy", ".npy"]
    assert sorted((tmp_path / "cache").iterdir()) == sorted(written)
    feature_stack, label_stack = load_stacks(sbm, config)
    assert (feature_stack.steps, label_stack.steps) == (3, config.effective_label_hops)
    assert feature_stack.mats.dtype == label_stack.mats.dtype == np.float32


def test_load_stacks_maps_the_preprocessed_stacks(sbm, tmp_path):
    # read-only maps of the files, bit-equal to the float32 stacks preprocess wrote
    config = _config(tmp_path, label_hops=2)
    preprocess(sbm, config)
    for got, want in zip(load_stacks(sbm, config), build_stacks(sbm, config, np.float32)):
        assert not got.mats.flags.writeable
        assert np.array_equal(got.mats, want.mats) and got.fingerprint == want.fingerprint
        with pytest.raises(ValueError, match="read-only"):
            got.mats[0] *= 2.0


def test_load_stacks_peak_stays_bounded_for_a_large_stack(tmp_path):
    # a 21 MiB feature stack: the map allocates nothing; the peak left is the
    # fingerprint's float32 copy of the seed (1/(K+1) of the stack, 256 KB
    # here), the label seed and the self-looped graph
    n, dim, hops = 2000, 32, 84
    rng = np.random.default_rng(0)
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    labels = rng.integers(0, 4, n)
    ids = rng.permutation(n)
    dataset = Dataset(build_graph(ring, n), rng.standard_normal((n, dim)), labels,
                      Splits(ids[:200], ids[200:300], ids[300:]), 4).validate()
    config = TrainConfig(cache_dir=str(tmp_path), hops=hops, label_hops=2).validate()
    preprocess(dataset, config)
    tracemalloc.start()
    try:
        feature_stack, label_stack = load_stacks(dataset, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feature_stack.mats.nbytes >= 20 * 2**20
    assert peak < 2**20, f"load_stacks peak {peak} bytes"


def test_load_stacks_refuses_a_feature_cache_at_the_label_cache_path(sbm, tmp_path):
    # the recipe, not the file, decides the kind; the label seed's fingerprint
    # tells the feature stack apart
    config = _config(tmp_path)
    features, labels = preprocess(sbm, config)
    labels.write_bytes(features.read_bytes())
    with pytest.raises(FingerprintMismatch, match=labels.name):
        load_stacks(sbm, config)


@pytest.mark.parametrize("overrides", [{}, {"label_hops": 0, "r_mode": 1.0}])
def test_preprocess_writes_the_float64_stacks_rounded_once(sbm, tmp_path, overrides):
    # named for its former contract: preprocess now runs every hop in float32,
    # and its files equal cache_write of the float32 in-memory stacks byte for byte
    config = _config(tmp_path / "pre", **overrides)
    written = preprocess(sbm, config)
    f32 = build_stacks(sbm, config, np.float32)
    expected = cache_paths(config.replace(cache_dir=str(tmp_path / "f32")))
    for stack, path in zip(f32, expected):
        cache_write(stack, path)
    assert [p.read_bytes() for p in written] == [p.read_bytes() for p in expected]
    # the float64 stacks hash another hop dtype, so their caches are refused
    for got, want in zip(f32, build_stacks(sbm, config)):
        assert got.mats.dtype == np.float32 and want.mats.dtype == np.float64
        assert np.allclose(got.mats, want.mats, rtol=1e-5, atol=1e-6)
        assert got.fingerprint != want.fingerprint


def test_features_csv_and_bin_give_byte_identical_caches(sbm, tmp_path):
    # features.csv loads as float64 and features.bin as float32; the seed is
    # rounded to float32 once, before the first hop, so the caches agree
    save_dataset(sbm, tmp_path / "bin")
    save_dataset(sbm, tmp_path / "csv")
    (tmp_path / "csv" / "features.bin").unlink()
    np.savetxt(tmp_path / "csv" / "features.csv", sbm.features, fmt="%.17g", delimiter=",")
    caches = []
    for name in ("bin", "csv"):
        ds = load_dataset(tmp_path / name)
        config = _config(tmp_path / f"cache_{name}")
        caches.append([p.read_bytes() for p in preprocess(ds, config)])
    assert load_dataset(tmp_path / "csv").features.dtype == np.float64
    assert caches[0] == caches[1]


def test_a_cache_of_the_old_fingerprint_layout_is_refused_in_one_line(sbm, tmp_path):
    # a cache written before the hop dtype was hashed: float64 hops rounded
    # once, under a digest whose <QId header has no dtype byte
    config = _config(tmp_path)
    features_path = cache_paths(config)[0]
    stack = build_stacks(sbm, config)[0]
    h = hashlib.sha256(struct.pack("<QId", sbm.n, config.hops, config.r_mode))
    looped = add_self_loops(sbm.graph)
    for a in (looped.row_offsets, looped.col_indices):
        h.update(a.astype(np.int64).tobytes())
    h.update(sbm.features.astype(np.float32).tobytes())
    preprocess(sbm, config)
    with open(features_path, "wb") as f:  # the two records cache_write wrote then
        np.save(f, stack.mats.astype("<f4"))
        np.save(f, np.frombuffer(h.digest(), dtype=np.uint8))
    with pytest.raises(FingerprintMismatch) as exc:
        load_stacks(sbm, config)
    message = str(exc.value)
    assert "\n" not in message and str(features_path) in message
    assert message.endswith("rerun gamlp preprocess")
