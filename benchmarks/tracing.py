"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when it started, or -1. Spans stay in memory and are
written out once the run ends. Layer functions are wrapped from outside
the package, at every name a caller looks them up by, so the program
itself carries no tracing code.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Recorder:
    """Spans plus counters keyed by span name."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += int(amount)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(recorder: Recorder) -> dict:
    """Per span name: call count and summed self time, plus the counters."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counts": dict(recorder.counts)}
    for (name, *_), self_s in zip(recorder.spans, self_times(recorder.spans)):
        out["calls"][name] += 1
        out["self_s"][name] += self_s
    return out


def _spmm_counts(rec, args, result):
    op, x = args[0], args[1]
    rec.count("graph.spmm.flops", 2 * op.nnz * x.shape[1])
    rec.count("graph.spmm.bytes", op.values.nbytes + op.col_indices.nbytes
              + op.row_offsets.nbytes + x.shape[0] * x.shape[1] * 8 + result.nbytes)


def _edge_line_count(rec, args, result):
    with open(os.path.join(args[0], "edges.tsv"), "rb") as f:
        rec.count("data.load_dataset.edge_lines", f.read().count(b"\n"))


def _file_bytes(counter, path_arg):
    def count(rec, args, result):
        rec.count(counter, os.path.getsize(args[path_arg]))
    return count


def _dropout_elements(rec, args, result):
    if result[1] is not None:
        rec.count("nn.dropout.elements", args[0].size)


def _forward_name(args, kwargs):
    training = kwargs.get("training", args[4] if len(args) > 4 else False)
    return "model.GamlpModel.forward." + ("train" if training else "eval")


def _targets():
    """(owner, attribute, span name, counter) for every traced layer call."""
    from gamlp import data, graph, model, nn, pipeline, propagation

    functions = [
        (data, "load_dataset", "data.load_dataset", _edge_line_count),
        (graph, "build_graph", "graph.build_graph", None),
        (graph, "add_self_loops", "graph.add_self_loops", None),
        (graph, "normalize", "graph.normalize", None),
        (graph, "spmm", "graph.spmm", _spmm_counts),
        (propagation, "propagate_features", "propagation.propagate_features", None),
        (propagation, "propagate_labels", "propagation.propagate_labels", None),
        (propagation, "apply_last_residual", "propagation.apply_last_residual", None),
        (propagation, "stack_fingerprint", "propagation.stack_fingerprint", None),
        (propagation, "cache_write", "propagation.cache_write",
         _file_bytes("propagation.cache_write.bytes", 1)),
        (propagation, "cache_read", "propagation.cache_read",
         _file_bytes("propagation.cache_read.bytes", 0)),
        (pipeline, "preprocess", "pipeline.preprocess", None),
        (pipeline, "load_stacks", "pipeline.load_stacks", None),
        (model, "fit", "model.fit", None),
        (model, "predict", "model.predict", None),
        (model, "slice_mats", "model.slice_mats", None),
        (nn, "dropout", "nn.dropout", _dropout_elements),
        (nn, "cross_entropy", "nn.cross_entropy", None),
    ]
    modules = [m for name, m in sys.modules.items()
               if name == "gamlp" or name.startswith("gamlp.")]
    targets = []
    for home, attr, span_name, counter in functions:
        original = getattr(home, attr)
        # wrap every module-level name bound to the function, since callers
        # resolve it through their own module's globals
        targets += [(m, name, span_name, counter) for m in modules
                    for name, value in vars(m).items() if value is original]
    methods = [
        (model.GamlpModel, "forward", _forward_name),
        (model.GamlpModel, "backward", "model.GamlpModel.backward"),
        (model.JkAttention, "forward", "model.JkAttention.forward"),
        (model.JkAttention, "backward", "model.JkAttention.backward"),
        (model.RecursiveAttention, "forward", "model.RecursiveAttention.forward"),
        (model.RecursiveAttention, "backward", "model.RecursiveAttention.backward"),
        (nn.Mlp, "forward", "nn.Mlp.forward"),
        (nn.Mlp, "backward", "nn.Mlp.backward"),
        (nn.Adam, "step", "nn.Adam.step"),
    ]
    targets += [(cls, attr, span_name, None) for cls, attr, span_name in methods]
    return targets


def _wrap(recorder: Recorder, fn, span_name, counter):
    def traced(*args, **kwargs):
        name = span_name(args, kwargs) if callable(span_name) else span_name
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(recorder, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def instrument(recorder: Recorder):
    """Route every traced layer call through ``recorder`` until exit."""
    saved = []
    try:
        for owner, attr, span_name, counter in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, original, span_name, counter))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_layer_metrics(summary: dict, stage_peaks: dict) -> dict:
    """Map one traced pass onto the per-layer metric names."""
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    m = {}

    def seconds(metric, span):
        m[metric] = self_s.get(span, 0.0)

    for span in ("data.load_dataset", "graph.build_graph", "graph.add_self_loops",
                 "graph.normalize", "graph.spmm", "propagation.propagate_features",
                 "propagation.propagate_labels", "propagation.apply_last_residual",
                 "propagation.stack_fingerprint", "propagation.cache_write",
                 "propagation.cache_read", "model.slice_mats", "model.predict",
                 "nn.dropout", "nn.Mlp.forward", "nn.Mlp.backward", "nn.cross_entropy",
                 "nn.Adam.step", "model.GamlpModel.backward"):
        seconds(f"{span}.s", span)
    for span in ("pipeline.preprocess", "pipeline.load_stacks", "model.fit"):
        seconds(f"{span}.self_s", span)
    seconds("model.GamlpModel.forward.train_s", "model.GamlpModel.forward.train")
    seconds("model.GamlpModel.forward.eval_s", "model.GamlpModel.forward.eval")
    for direction in ("forward", "backward"):
        m[f"model.attention.{direction}.s"] = sum(
            self_s.get(f"model.{cls}.{direction}", 0.0)
            for cls in ("JkAttention", "RecursiveAttention"))
    for span in ("graph.add_self_loops", "graph.normalize", "graph.spmm",
                 "propagation.stack_fingerprint", "model.slice_mats", "nn.dropout",
                 "nn.Adam.step", "model.JkAttention.forward",
                 "model.RecursiveAttention.forward"):
        m[f"{span}.calls"] = calls.get(span, 0)
    for counter in ("data.load_dataset.edge_lines", "graph.spmm.flops", "graph.spmm.bytes",
                    "propagation.cache_write.bytes", "propagation.cache_read.bytes",
                    "nn.dropout.elements"):
        m[counter] = counts.get(counter, 0)
    for stage, peak in stage_peaks.items():
        m[f"{stage}.peak_alloc_mb"] = peak / 2**20
    return m


def median_metrics(passes: list[dict]) -> dict:
    """Median over traced passes; a value equal in every pass (counts) is kept as is."""
    out = {}
    for k in passes[0]:
        values = [p[k] for p in passes]
        out[k] = values[0] if len(set(values)) == 1 else float(np.median(values))
    return out
