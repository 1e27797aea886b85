"""Tests of the benchmark's own code: python3 -m pytest benchmarks/tests -q"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import gen  # noqa: E402
import tracing  # noqa: E402
from gamlp import data, graph, model, pipeline, propagation  # noqa: E402
from gamlp.config import TrainConfig  # noqa: E402

TINY = dict(n=240, classes=3, dim=8, edges=700, lines=900, heavy_tail=True,
            feature_sep=2.0)


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    first = gen.generate(tmp_path / "a", seed=7, **TINY)
    second = gen.generate(tmp_path / "b", seed=7, **TINY)
    other = gen.generate(tmp_path / "c", seed=8, **TINY)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    # the loader's dedupe of duplicate and reversed lines lands on the same nnz
    for stats, name in ((first, "a"), (other, "c")):
        ds = data.load_dataset(tmp_path / name)
        assert (ds.n, ds.graph.nnz, ds.num_classes) == (stats["n"], stats["nnz"],
                                                        stats["classes"])
        assert stats["nnz"] == 2 * TINY["edges"]
    lines = (tmp_path / "a" / "edges.tsv").read_text().splitlines()
    assert len(lines) == TINY["lines"]


def test_self_time_subtracts_covered_child_time():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["a.child", 2.0, 3.0, 1],
             ["b", 5.0, 6.5, 0],
             ["a", 7.0, 8.0, 0]]
    assert np.allclose(tracing.self_times(spans), [4.5, 2.0, 1.0, 1.5, 1.0])
    recorder = tracing.Recorder()
    recorder.spans = spans
    summary = tracing.summarize(recorder)
    assert summary["calls"]["a"] == 2
    assert np.isclose(summary["self_s"]["a"], 3.0)
    assert np.isclose(summary["self_s"]["root"], 4.5)


def test_recorder_nests_spans_by_parent():
    recorder = tracing.Recorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    assert [(name, parent) for name, _, _, parent in recorder.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(end >= start for _, start, end, _ in recorder.spans)


def _pipeline_predictions(dataset_dir: Path, config: TrainConfig) -> np.ndarray:
    ds = data.load_dataset(dataset_dir)
    pipeline.preprocess(ds, config)
    stacks = pipeline.load_stacks(ds, config)
    fitted = model.fit(*stacks, ds.labels, ds.splits, config, num_classes=ds.num_classes)
    return model.predict(fitted.model, *stacks)


def test_tracing_changes_no_result(tmp_path):
    gen.generate(tmp_path / "data", seed=3, **TINY)
    config = TrainConfig(dataset_dir=str(tmp_path / "data"), cache_dir=str(tmp_path / "cache"),
                         hops=3, hidden=16, epochs=3, patience=3, batch_size=64,
                         seed=3).validate()
    original_spmm = propagation.spmm
    untraced = _pipeline_predictions(tmp_path / "data", config)
    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        assert propagation.spmm is not original_spmm
        traced = _pipeline_predictions(tmp_path / "data", config)
    assert np.array_equal(untraced, traced)
    assert propagation.spmm is original_spmm and graph.spmm is original_spmm

    layer = tracing.per_layer_metrics(tracing.summarize(recorder), {})
    # one feature and one label stack of 3 hops each
    assert layer["graph.spmm.calls"] == 6
    assert layer["graph.add_self_loops.calls"] == 3
    assert layer["nn.Adam.step.calls"] == 3 * 2  # 3 epochs x ceil(72 / 64) batches
    assert layer["data.load_dataset.edge_lines"] == TINY["lines"]
    assert layer["model.JkAttention.forward.calls"] > 0
    assert layer["propagation.cache_read.bytes"] == layer["propagation.cache_write.bytes"]
    assert all(value >= 0 for value in layer.values())
