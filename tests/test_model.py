import dataclasses
import json
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import gamlp.model
from gamlp.config import TrainConfig
from gamlp.data import generate_sbm
from gamlp.model import (BaselineCombiner, CheckpointFormatError, CheckpointMismatch,
                         GamlpModel, JkAttention, RecursiveAttention, _combine, _scores,
                         _stack_blocks, _stack_inputs, _StackLinear, baseline_combine,
                         evaluate_accuracy, export_attention, fit, predict, restore_model,
                         save_checkpoint, slice_mats)
from gamlp.nn import (Activation, Linear, Mlp, cross_entropy, dropout, dropout_backward,
                      softmax_backward, softmax_rows)
from gamlp.pipeline import build_stacks
from gamlp.propagation import ResidualScheme, Stack, apply_last_residual

from conftest import grad_check


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def _leaky(x, a=0.2):
    return x if x >= 0 else a * x


def _softmax(scores):
    e = [math.exp(v - max(scores)) for v in scores]
    total = sum(e)
    return [v / total for v in e]


def recursive_oracle(mats, s, act):
    """Per-node scalar walk through the recursive protocol."""
    n, d = mats[0].shape
    h = np.zeros((n, d))
    w_out = np.zeros((n, len(mats)))
    for i in range(n):
        xs = [m[i] for m in mats]
        run = xs[0].copy()
        for l in range(1, len(xs)):
            scores = [act(float(np.concatenate([xs[k], run]) @ s)) for k in range(l)]
            w = _softmax(scores)
            run = sum(w[k] * xs[k] for k in range(l))
        scores = [act(float(np.concatenate([xs[k], run]) @ s)) for k in range(len(xs))]
        w = _softmax(scores)
        h[i] = sum(w[k] * xs[k] for k in range(len(xs)))
        w_out[i] = w
    return h, w_out


def jk_oracle(mats, comb):
    """Dense reimplementation of the JK pipeline from the combiner's weights."""
    n, d = mats[0].shape
    layers = comb.encoder.layers
    e = np.hstack(mats[1:])
    for i, layer in enumerate(layers):
        e = e @ layer.w.value + layer.b.value
        if i < len(layers) - 1:
            e = comb.activation.forward(e)
    s = comb.s.value
    sa, sb = s[:d], s[d:]
    out = np.zeros((n, d))
    weights = np.zeros((n, len(mats)))
    for i in range(n):
        scores = [comb.activation.forward(np.array([mats[k][i] @ sa + e[i] @ sb]))[0]
                  for k in range(len(mats))]
        w = _softmax(scores)
        weights[i] = w
        out[i] = sum(w[k] * mats[k][i] for k in range(len(mats)))
    return out, weights


def _random_mats(rng, n, d, steps):
    return [rng.standard_normal((n, d)) for _ in range(steps + 1)]


# ---------------------------------------------------------------------------
# reference combiners: the per-step list implementations the stack-array
# combiners replaced, one dropout draw and one product per step
# ---------------------------------------------------------------------------


class ListRecursiveAttention(RecursiveAttention):
    def forward(self, mats, rows=None, training=False, rng=None):
        sa, sb = self.s.value[:self.dim], self.s.value[self.dim:]
        xd = [dropout(m, self.attention_dropout, rng, training)[0] for m in mats]
        xa = [d @ sa for d in xd]
        levels = []
        r = mats[0]
        for l in range(1, len(mats)):
            rd, r_mask = dropout(r, self.attention_dropout, rng, training)
            rb = rd @ sb
            pre = np.stack([xa[k] + rb for k in range(l)], axis=1)
            w = softmax_rows(self.activation.forward(pre))
            levels.append((pre, w, rd, r_mask))
            r = sum(w[:, k:k + 1] * mats[k] for k in range(l))
        rd, r_mask = dropout(r, self.attention_dropout, rng, training)
        rb = rd @ sb
        pre = np.stack([xa[k] + rb for k in range(len(mats))], axis=1)
        w = softmax_rows(self.activation.forward(pre))
        h = sum(w[:, k:k + 1] * mats[k] for k in range(len(mats)))
        self._cache = (mats, xd, levels, (pre, w, rd, r_mask))
        return h, w

    def _score_backward(self, d_w, pre, w, rd, r_mask, xd, sb):
        d_pre = self.activation.backward(softmax_backward(d_w, w), pre)
        for k in range(d_pre.shape[1]):
            self.s.grad[:self.dim] += xd[k].T @ d_pre[:, k]
        row_sum = d_pre.sum(axis=1, keepdims=True)
        self.s.grad[self.dim:] += rd.T @ row_sum[:, 0]
        return dropout_backward(row_sum * sb, r_mask, self.attention_dropout)

    def backward(self, d_h):
        mats, xd, levels, final = self._cache
        sb = self.s.value[self.dim:]
        d_w = np.stack([(d_h * m).sum(axis=1) for m in mats], axis=1)
        d_r = self._score_backward(d_w, *final, xd, sb)
        for l in range(len(levels), 0, -1):
            d_w = np.stack([(d_r * mats[k]).sum(axis=1) for k in range(l)], axis=1)
            d_r = self._score_backward(d_w, *levels[l - 1], xd, sb)


class ListStackLinear(_StackLinear):
    def forward(self, xs):
        self._x = xs
        dim = xs[0].shape[1]
        return self.b.value + sum(xs[k] @ self.w.value[k * dim:(k + 1) * dim]
                                  for k in range(len(xs)))

    def backward(self, d_out):
        dim = self._x[0].shape[1]
        self.b.grad += d_out.sum(axis=0)
        for k in range(len(self._x)):
            self.w.grad[k * dim:(k + 1) * dim] += self._x[k].T @ d_out


class ListJkAttention(JkAttention):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.encoder is not None:
            self.encoder.layers[0].__class__ = ListStackLinear

    def forward(self, mats, rows=None, training=False, rng=None):
        sa, sb = self.s.value[:self.dim], self.s.value[self.dim:]
        xd = [dropout(m, self.attention_dropout, rng, training)[0] for m in mats]
        ref = self._reference(mats, rows, training, rng)
        if ref is not None:
            rd, r_mask = dropout(ref, self.attention_dropout, rng, training)
            ref_score = rd @ sb
        else:
            rd, r_mask, ref_score = None, None, 0.0
        pre = np.stack([xd[k] @ sa + ref_score for k in range(len(mats))], axis=1)
        w = softmax_rows(self.activation.forward(pre))
        h = sum(w[:, k:k + 1] * mats[k] for k in range(len(mats)))
        self._cache = (mats, xd, pre, w, rd, r_mask)
        return h, w

    def backward(self, d_h):
        mats, xd, pre, w, rd, r_mask = self._cache
        dim = self.dim
        d_w = np.stack([(d_h * m).sum(axis=1) for m in mats], axis=1)
        d_pre = self.activation.backward(softmax_backward(d_w, w), pre)
        for k in range(len(mats)):
            self.s.grad[:dim] += xd[k].T @ d_pre[:, k]
        if rd is not None:
            row_sum = d_pre.sum(axis=1, keepdims=True)
            self.s.grad[dim:] += rd.T @ row_sum[:, 0]
            if self.reference == "jk" and self.encoder is not None:
                d_ref = dropout_backward(row_sum * self.s.value[dim:], r_mask,
                                         self.attention_dropout)
                self.encoder.backward(d_ref)


def _assert_matches_list_reference(cls, ref_cls, n, d, hops, rate=0.5, training=True,
                                   **kwargs):
    """Array combiner vs its list reference on a stack of ``hops`` + 1 steps.

    By default both train with dropout 0.5 and equal seeds, so they must
    also draw the same masks from the generator.
    """
    data_rng = np.random.default_rng(100 + hops)
    mats = _random_mats(data_rng, n, d, hops)
    d_h = data_rng.standard_normal((n, d))
    comb = cls(np.random.default_rng(1), attention_dropout=rate, **kwargs)
    ref = ref_cls(np.random.default_rng(1), attention_dropout=rate, **kwargs)
    for p, q in zip(comb.params, ref.params):
        p.value[...] = q.value[...] = data_rng.standard_normal(p.value.shape) * 0.5
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    h, w = comb.forward(np.stack(mats), rows=np.arange(n), training=training, rng=rng)
    want_h, want_w = ref.forward(mats, rows=np.arange(n), training=training, rng=ref_rng)
    assert np.abs(h - want_h).max() <= 1e-12
    assert np.abs(w - want_w).max() <= 1e-12
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    comb.backward(d_h)
    ref.backward(d_h)
    for p, q in zip(comb.params, ref.params):
        assert p.name == q.name
        assert np.abs(p.grad - q.grad).max() <= 1e-12, p.name


@pytest.mark.parametrize("kind", ["sigmoid", "leaky_relu"])
@pytest.mark.parametrize("steps", [0, 1, 7])
def test_recursive_matches_list_reference(kind, steps):
    _assert_matches_list_reference(RecursiveAttention, ListRecursiveAttention, 23, 5, steps,
                                   dim=5, activation=Activation(kind, 0.2))


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("steps", [0, 1, 4, 16])
def test_mask_free_recursive_matches_list_reference(steps, training):
    # no dropout on the running combination: rounds are scored from the
    # per-step projections, and backward rebuilds the combinations
    _assert_matches_list_reference(RecursiveAttention, ListRecursiveAttention, 23, 5, steps,
                                   rate=0.0, training=training, dim=5,
                                   activation=Activation("leaky_relu", 0.2))


@pytest.mark.parametrize("steps", [0, 1, 4, 16])
def test_recursive_builds_one_combination_without_a_mask(monkeypatch, steps):
    combined = []

    def spy(w, mats):
        combined.append(w.shape[1])
        return _combine(w, mats)

    monkeypatch.setattr(gamlp.model, "_combine", spy)
    mats = np.stack(_random_mats(np.random.default_rng(15), 9, 4, steps))
    act = Activation("leaky_relu", 0.2)
    for rate, training in [(0.5, False), (0.0, True)]:
        combined.clear()
        RecursiveAttention(np.random.default_rng(0), 4, act, rate).forward(
            mats, training=training, rng=np.random.default_rng(1))
        assert combined == [steps + 1]
    combined.clear()
    RecursiveAttention(np.random.default_rng(0), 4, act, 0.5).forward(
        mats, training=True, rng=np.random.default_rng(1))
    assert combined == list(range(1, steps + 2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scores_of_a_row_block_view_equal_those_of_its_copy(dtype):
    rng = np.random.default_rng(16)
    mats = rng.standard_normal((17, 300, 64)).astype(dtype)
    s = rng.standard_normal(64).astype(dtype)
    view = slice_mats(mats, slice(100, 260))
    assert not view.flags.c_contiguous
    assert np.array_equal(_scores(view, s), _scores(np.ascontiguousarray(view), s))


@pytest.mark.parametrize("reference", ["jk", "origin_feature", "no_reference"])
@pytest.mark.parametrize("steps,depth", [(0, 2), (1, 1), (6, 3)])
def test_jk_matches_list_reference(reference, steps, depth):
    _assert_matches_list_reference(JkAttention, ListJkAttention, 23, 5, steps, steps=steps,
                                   dim=5, hidden=7, depth=depth,
                                   activation=Activation("leaky_relu", 0.2),
                                   reference=reference, mlp_dropout=0.5)


# ---------------------------------------------------------------------------
# recursive attention
# ---------------------------------------------------------------------------


def test_recursive_zero_steps():
    rng = np.random.default_rng(0)
    mats = _random_mats(rng, 5, 3, 0)
    comb = RecursiveAttention(rng, 3, Activation("sigmoid"))
    h, w = comb.forward(mats)
    assert np.array_equal(h, mats[0])
    assert np.array_equal(w, np.ones((5, 1)))


def test_recursive_identical_steps_give_uniform_weights():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 4))
    mats = [x.copy() for _ in range(4)]
    comb = RecursiveAttention(rng, 4, Activation("sigmoid"))
    comb.s.value[:] = rng.standard_normal(8)
    h, w = comb.forward(mats)
    assert np.allclose(w, 0.25, atol=1e-12)
    assert np.allclose(h, x, atol=1e-12)


def test_recursive_matches_scripted_oracle_path_graph():
    from gamlp.propagation import propagate_features
    from gamlp.graph import build_graph, normalize

    rng = np.random.default_rng(2)
    g = build_graph([(0, 1), (1, 2)], 3)
    stack = propagate_features(normalize(g, 0.5), rng.standard_normal((3, 4)), 2)
    comb = RecursiveAttention(rng, 4, Activation("sigmoid"))
    comb.s.value[:] = rng.standard_normal(8) * 0.7
    h, w = comb.forward(stack.mats)
    want_h, want_w = recursive_oracle(stack.mats, comb.s.value, _sigmoid)
    assert np.allclose(h, want_h, atol=1e-12)
    assert np.allclose(w, want_w, atol=1e-12)


@pytest.mark.parametrize("kind,fn", [("sigmoid", _sigmoid), ("leaky_relu", _leaky)])
def test_recursive_matches_oracle_random(kind, fn):
    rng = np.random.default_rng(3)
    for _ in range(5):
        n, d, steps = 8, 3, int(rng.integers(1, 5))
        mats = _random_mats(rng, n, d, steps)
        comb = RecursiveAttention(rng, d, Activation(kind, 0.2))
        comb.s.value[:] = rng.standard_normal(2 * d)
        h, w = comb.forward(mats)
        want_h, want_w = recursive_oracle(mats, comb.s.value, fn)
        assert np.allclose(h, want_h, atol=1e-10)
        assert np.allclose(w, want_w, atol=1e-10)


# ---------------------------------------------------------------------------
# jk attention
# ---------------------------------------------------------------------------


def test_jk_zero_scores_give_uniform_weights():
    rng = np.random.default_rng(4)
    mats = _random_mats(rng, 7, 3, 3)
    comb = JkAttention(rng, 3, 3, hidden=5, depth=2, activation=Activation("sigmoid"))
    # zero scoring vector: uniform regardless of the encoder output
    h, w = comb.forward(mats)
    assert np.allclose(w, 0.25, atol=1e-12)


def test_jk_zero_steps():
    rng = np.random.default_rng(5)
    mats = _random_mats(rng, 4, 3, 0)
    comb = JkAttention(rng, 0, 3, hidden=5, depth=2, activation=Activation("sigmoid"))
    h, w = comb.forward(mats)
    assert np.array_equal(h, mats[0])
    assert np.array_equal(w, np.ones((4, 1)))
    assert comb.encoder is None  # empty concatenation -> zero reference


def test_jk_matches_dense_oracle():
    rng = np.random.default_rng(6)
    mats = _random_mats(rng, 10, 4, 3)
    comb = JkAttention(rng, 3, 4, hidden=6, depth=3, activation=Activation("leaky_relu", 0.2))
    comb.s.value[:] = rng.standard_normal(comb.s.value.size) * 0.5
    h, w = comb.forward(mats)
    want_h, want_w = jk_oracle(mats, comb)
    assert np.allclose(h, want_h, atol=1e-10)
    assert np.allclose(w, want_w, atol=1e-10)


@pytest.mark.parametrize("steps", [1, 3, 16])
def test_stack_linear_matches_linear_over_the_concatenation(steps):
    rng = np.random.default_rng(20 + steps)
    xs = rng.standard_normal((steps, 11, 4))
    d_out = rng.standard_normal((11, 6))
    dense = Linear(np.random.default_rng(1), steps * 4, 6, "enc.0")
    dense.b.value[:] = rng.standard_normal(6)
    first = Linear(np.random.default_rng(1), steps * 4, 6, "enc.0")
    layer = _StackLinear(first)
    assert layer.w is first.w and layer.b is first.b
    layer.b.value[:] = dense.b.value
    assert np.abs(layer.forward(xs) - dense.forward(np.hstack(xs))).max() <= 1e-12
    assert layer.backward(d_out) is None  # the stack is data
    dense.backward(d_out)
    for p, q in zip(layer.params, dense.params):
        assert p.name == q.name
        assert np.abs(p.grad - q.grad).max() <= 1e-12, p.name


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_jk_encoder_is_an_mlp_over_the_concatenated_steps(depth):
    steps, d, hidden = 4, 3, 5
    act = Activation("leaky_relu", 0.2)
    comb = JkAttention(np.random.default_rng(1), steps, d, hidden, depth, act,
                       mlp_dropout=0.5)
    assert [p.name for p in comb.params] == ["jk.s"] + [f"jk.enc.{i}.{p}" for i in range(depth)
                                                        for p in "wb"]
    mlp = Mlp(np.random.default_rng(1), steps * d, hidden, hidden, depth, act, 0.5,
              name="jk.enc")
    for p, q in zip(comb.encoder.params, mlp.params):
        assert p.name == q.name and np.array_equal(p.value, q.value)
    xs = np.random.default_rng(2).standard_normal((steps, 9, d))
    rng, mlp_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = comb.encoder.forward(xs, True, rng)
    assert np.abs(got - mlp.forward(np.hstack(xs), True, mlp_rng)).max() <= 1e-12
    assert rng.bit_generator.state == mlp_rng.bit_generator.state


def test_jk_reference_modes():
    rng = np.random.default_rng(7)
    mats = _random_mats(rng, 6, 3, 2)
    for ref, s_len in [("origin_feature", 6), ("normal_noise", 3 + 5), ("no_reference", 3)]:
        comb = JkAttention(rng, 2, 3, hidden=5, depth=2, activation=Activation("sigmoid"),
                           reference=ref, n_nodes=6)
        assert comb.s.value.size == s_len
        comb.s.value[:] = rng.standard_normal(s_len)
        h, w = comb.forward(mats, rows=np.arange(6))
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-10)
        # deterministic across calls (noise buffer is fixed at construction)
        h2, w2 = comb.forward(mats, rows=np.arange(6))
        assert np.array_equal(w, w2)


def test_attention_weight_simplex_property():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n, d = int(rng.integers(2, 15)), int(rng.integers(1, 5))
        steps = int(rng.integers(0, 5))
        mats = _random_mats(rng, n, d, steps)
        for comb in (RecursiveAttention(rng, d, Activation("sigmoid")),
                     JkAttention(rng, steps, d, 4, 2, Activation("leaky_relu", 0.2))):
            for p in comb.params:
                p.value[:] = rng.standard_normal(p.value.shape)
            _, w = comb.forward(mats)
            assert w.min() >= 0
            assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-10


def test_attention_score_shift_invariance():
    rng = np.random.default_rng(9)
    mats = _random_mats(rng, 6, 3, 3)
    comb = RecursiveAttention(rng, 3, Activation("sigmoid"))
    comb.s.value[:] = rng.standard_normal(6)
    _, w = comb.forward(mats)
    pre, w_cached, _, _ = comb._cache[2][-1]
    scores = comb.activation.forward(pre)
    assert np.allclose(softmax_rows(scores + 123.0), w, atol=1e-12)


def test_slice_mats_gathers_rows_of_every_step():
    stack = np.random.default_rng(13).standard_normal((4, 9, 3))
    rows = np.array([5, 0, 5, 8])
    got = slice_mats(stack, rows)
    assert np.array_equal(got, np.stack([m[rows] for m in stack]))
    assert got.flags.c_contiguous  # still step-major
    assert slice_mats(stack, None) is stack
    view = slice_mats(stack, slice(2, 6))
    assert view.base is stack and np.array_equal(view, stack[:, 2:6])
    assert slice_mats(None, rows) is None


# ---------------------------------------------------------------------------
# baseline combiners
# ---------------------------------------------------------------------------


def test_baseline_sgc_is_last_step():
    rng = np.random.default_rng(10)
    mats = _random_mats(rng, 5, 3, 4)
    assert baseline_combine(mats, "sgc") is mats[-1]


def test_baseline_gbp_weights():
    mats = [np.full((1, 1), 1.0), np.full((1, 1), 1.0), np.full((1, 1), 1.0)]
    # analytic geometric weights for GBP_BETA = 0.5: (0.5, 0.25, 0.125)
    out = baseline_combine(mats, "gbp")
    assert out[0, 0] == pytest.approx(0.875)
    ones = [np.eye(2) for _ in range(3)]
    assert np.allclose(baseline_combine(ones, "gbp"), 0.875 * np.eye(2))


def test_baseline_s2gc_average():
    rng = np.random.default_rng(11)
    mats = _random_mats(rng, 4, 2, 1)
    assert np.allclose(baseline_combine(mats, "s2gc"), (mats[0] + mats[1]) / 2)


def test_baseline_sign_concatenates():
    rng = np.random.default_rng(12)
    mats = _random_mats(rng, 4, 2, 2)
    out = baseline_combine(mats, "sign")
    assert out.shape == (4, 6)
    assert np.array_equal(out[:, 2:4], mats[1])


def test_baseline_rejects_bad_args():
    mats = [np.ones((2, 2))]
    with pytest.raises(ValueError):
        baseline_combine(mats, "magic")
    with pytest.raises(ValueError):
        BaselineCombiner("magic")


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------


def _toy_setup(seed=0, **overrides):
    ds = generate_sbm([15, 15], 0.35, 0.03, 5, 2.0, seed=seed)
    base = dict(dataset_dir="unused", hops=3, hidden=8, num_layers=2,
                label_num_layers=2, jk_layers=2, epochs=50, patience=50,
                lr=0.01, input_dropout=0.0, attention_dropout=0.0, dropout=0.0,
                seed=seed)
    base.update(overrides)
    cfg = TrainConfig(**base).validate()
    fs, ls = build_stacks(ds, cfg)
    return ds, cfg, fs, ls


def _cast(stacks, dtype):
    """``stacks`` with their mats in ``dtype``; float32 is what a cache read gives."""
    return tuple(None if s is None else dataclasses.replace(s, mats=s.mats.astype(dtype))
                 for s in stacks)


def _smoothed(cfg, ls):
    return apply_last_residual(ls.mats, ResidualScheme(cfg.residual_scheme, cfg.fixed_alpha))


def test_branches_keep_the_checkpoint_layout_of_sign():
    ds, cfg, fs, ls = _toy_setup(combiner="sign", label_hops=2)
    model = GamlpModel(cfg, ds.n, fs.dim, ds.num_classes, fs.steps, ls.steps,
                       np.random.default_rng(0))
    shapes = {p.name: p.value.shape for p in model.params}
    assert shapes["feat_mlp.0.w"] == ((fs.steps + 1) * fs.dim, cfg.hidden)
    assert shapes["label_mlp.0.w"] == ((ls.steps + 1) * ds.num_classes, cfg.hidden)


def _branch_names(branch, combiner_names, depth):
    return combiner_names + [f"{branch}_mlp.{i}.{p}" for i in range(depth) for p in "wb"]


@pytest.mark.parametrize("attention", ["jk", "recursive"])
def test_branches_keep_the_checkpoint_layout_and_draws(attention):
    ds, cfg, fs, ls = _toy_setup(attention=attention, label_hops=2, label_num_layers=3)
    model = GamlpModel(cfg, ds.n, fs.dim, ds.num_classes, fs.steps, ls.steps,
                       np.random.default_rng(0))
    enc = [f"enc.{i}.{p}" for i in range(cfg.jk_layers) for p in "wb"]
    feat = ["feat.s"] + ([f"feat.{e}" for e in enc] if attention == "jk" else [])
    label = ["label.s"] + ([f"label.{e}" for e in enc] if attention == "jk" else [])
    assert [p.name for p in model.params] == (_branch_names("feat", feat, cfg.num_layers)
                                              + _branch_names("label", label, 3))
    # the draws: feature combiner, feature MLP, label combiner, label MLP
    rng, act = np.random.default_rng(0), Activation(cfg.activation)
    parts = []
    for steps, dim, name, depth in ((fs.steps, fs.dim, "feat", cfg.num_layers),
                                    (ls.steps, ds.num_classes, "label", 3)):
        if attention == "jk":
            parts.append(JkAttention(rng, steps, dim, cfg.hidden, cfg.jk_layers, act,
                                     name=name))
        else:
            parts.append(RecursiveAttention(rng, dim, act, name=name))
        parts.append(Mlp(rng, dim, cfg.hidden, ds.num_classes, depth, act, name=f"{name}_mlp"))
    want = [p for part in parts for p in part.params]
    assert [p.name for p in want] == [p.name for p in model.params]
    for got, ref in zip(model.params, want):
        assert np.array_equal(got.value, ref.value), got.name


def test_model_zero_params_give_uniform_softmax():
    ds, cfg, fs, ls = _toy_setup()
    rng = np.random.default_rng(2)
    model = GamlpModel(cfg, ds.n, fs.dim, ds.num_classes, fs.steps, ls.steps, rng)
    for p in model.params:
        p.value[...] = 0.0
    logits = model.forward(fs.mats, _smoothed(cfg, ls))
    assert not logits.any()
    assert np.allclose(softmax_rows(logits), 1.0 / ds.num_classes)


@pytest.mark.parametrize("kind", ["jk", "recursive"])
def test_full_model_gradient_check(kind):
    ds, cfg, fs, ls = _toy_setup(attention=kind, hidden=6)
    rng = np.random.default_rng(3)
    model = GamlpModel(cfg, ds.n, fs.dim, ds.num_classes, fs.steps, ls.steps, rng)
    for p in model.params:
        if p.value.ndim == 1 and p.name.endswith(".s"):
            p.value[:] = np.random.default_rng(4).standard_normal(p.value.size) * 0.4
    rows = np.arange(10)
    fm = [m[rows] for m in fs.mats]
    lm = [m[rows] for m in _smoothed(cfg, ls)]
    onehot = np.eye(ds.num_classes)[ds.labels[rows]]
    mask = np.arange(10)

    def loss_fn():
        return cross_entropy(model.forward(fm, lm, rows=rows), onehot, mask)[0]

    _, d = cross_entropy(model.forward(fm, lm, rows=rows), onehot, mask)
    model.zero_grad()
    model.backward(d)
    assert grad_check(loss_fn, model.params, h=1e-4, max_coords=30) <= 1e-4


def test_model_requires_label_stack_when_label_branch_on():
    ds, cfg, fs, ls = _toy_setup()
    model = GamlpModel(cfg, ds.n, fs.dim, ds.num_classes, fs.steps, ls.steps,
                       np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.forward(fs.mats, None)


def test_predict_breaks_ties_toward_lowest_class():
    ds, cfg, fs, ls = _toy_setup()
    model = GamlpModel(cfg, ds.n, fs.dim, ds.num_classes, fs.steps, ls.steps,
                       np.random.default_rng(5))
    for p in model.params:
        p.value[...] = 0.0
    pred = predict(model, fs, ls)
    assert np.array_equal(pred, np.zeros(ds.n, dtype=np.int64))


def test_evaluate_accuracy_counts():
    pred = np.array([0, 1, 1, 0])
    truth = np.array([0, 1, 0, 1])
    assert evaluate_accuracy(pred, truth, np.arange(4)) == 0.5
    assert evaluate_accuracy(pred, truth, np.array([0, 1])) == 1.0
    with pytest.raises(ValueError):
        evaluate_accuracy(pred, truth, np.array([], dtype=int))


def test_evaluate_accuracy_scores_only_labeled_nodes():
    # node 2 is unlabeled (-1): no prediction can be right or wrong there
    pred, truth = np.array([0, 1, 0, 0]), np.array([0, 1, -1, 0])
    assert evaluate_accuracy(pred, truth, np.array([3, 2])) == 1.0
    with pytest.raises(ValueError, match="no labeled node"):
        evaluate_accuracy(pred, truth, np.array([2]))


def test_evaluate_accuracy_matches_manual_tally():
    rng = np.random.default_rng(6)
    pred = rng.integers(0, 3, size=10)
    truth = rng.integers(0, 3, size=10)
    split = np.array([0, 2, 4, 6, 8])
    manual = sum(1 for i in split if pred[i] == truth[i]) / len(split)
    assert evaluate_accuracy(pred, truth, split) == manual


# ---------------------------------------------------------------------------
# attention export
# ---------------------------------------------------------------------------


def test_export_attention_rows_and_buckets():
    ds, cfg, fs, ls = _toy_setup()
    model = GamlpModel(cfg, ds.n, fs.dim, ds.num_classes, fs.steps, ls.steps,
                       np.random.default_rng(7))
    model.feature_combiner.s.value[:] = np.random.default_rng(8).standard_normal(
        model.feature_combiner.s.value.size)
    degrees = ds.graph.degrees()
    per_node, per_bucket = export_attention(model, fs, ls, degrees,
                                            [(1, 4), (5, 8), (9, 12)])
    assert len(per_node) == ds.n
    for row in per_node:
        assert sum(row[2:]) == pytest.approx(1.0, abs=1e-6)
    # a degree-5 node must land in the middle bucket
    five = next((i for i in range(ds.n) if degrees[i] == 5), None)
    if five is not None:
        labels = [row[0] for row in per_bucket]
        assert "5-8" in labels


def test_export_attention_uniform_for_zero_scores():
    ds, cfg, fs, ls = _toy_setup()
    model = GamlpModel(cfg, ds.n, fs.dim, ds.num_classes, fs.steps, ls.steps,
                       np.random.default_rng(9))
    # zero scoring vector: every step equally weighted, relative weights all 1
    per_node, per_bucket = export_attention(model, fs, ls, ds.graph.degrees(),
                                            [(0, 100)])
    assert np.allclose([row[2:] for row in per_bucket], 1.0)


def test_export_attention_rejects_baseline():
    ds, cfg, fs, ls = _toy_setup(combiner="sgc", use_labels=False)
    model = GamlpModel(cfg, ds.n, fs.dim, ds.num_classes, fs.steps, 0,
                       np.random.default_rng(10))
    with pytest.raises(ValueError):
        export_attention(model, fs, None, ds.graph.degrees(), [(1, 4)])


# ---------------------------------------------------------------------------
# row blocks: predict, the validation pass and export run ROW_BLOCK rows at a time
# ---------------------------------------------------------------------------


BLOCK_CASES = {"recursive": dict(attention="recursive"),
               "jk": dict(reference="jk"),
               "origin_feature": dict(reference="origin_feature"),
               "normal_noise": dict(reference="normal_noise"),
               "no_reference": dict(reference="no_reference"),
               "sign": dict(combiner="sign")}


def _block_outputs(monkeypatch, block, ds, cfg, fs, ls, model, rows):
    """Everything that runs in row blocks, with ROW_BLOCK set to ``block``."""
    monkeypatch.setattr(gamlp.model, "ROW_BLOCK", block)
    result = fit(fs, ls, ds.labels, ds.splits, cfg, num_classes=ds.num_classes)
    out = {"log": result.log, "best_epoch": result.best_epoch,
           "pred": predict(model, fs, ls), "pred_rows": predict(model, fs, ls, rows),
           "logits": np.concatenate([l for l, _ in _stack_blocks(model, fs, ls, None)]),
           "logits_rows": np.concatenate([l for l, _ in _stack_blocks(model, fs, ls, rows)])}
    if model.feature_combiner.has_weights:
        out["attention"] = export_attention(model, fs, ls, ds.graph.degrees(),
                                            [(0, 3), (4, 6), (7, 100)])
    return out


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_row_blocks_match_one_block(monkeypatch, case):
    # float64, as propagated in memory; float32 is covered below
    ds, cfg, fs, ls = _toy_setup(epochs=8, patience=8, **BLOCK_CASES[case])
    # a fitted model: every scoring vector, the noise one included, is nonzero
    model = fit(fs, ls, ds.labels, ds.splits, cfg, num_classes=ds.num_classes).model
    # unsorted, repeated, and not aligned with the 4-row blocks
    rows = np.random.default_rng(3).permutation(ds.n)[:17]
    rows[5] = rows[11]
    # 30 nodes in 8 blocks, the 6 validation rows in 2
    small = _block_outputs(monkeypatch, 4, ds, cfg, fs, ls, model, rows)
    whole = _block_outputs(monkeypatch, ds.n, ds, cfg, fs, ls, model, rows)
    assert small["log"] == whole["log"] and small["best_epoch"] == whole["best_epoch"]
    for key in ("pred", "pred_rows"):
        assert np.array_equal(small[key], whole[key])
    assert np.allclose(small["logits"], whole["logits"], rtol=0.0, atol=1e-12)
    assert np.allclose(small["logits_rows"], whole["logits_rows"], rtol=0.0, atol=1e-12)
    assert np.allclose(small["logits_rows"], whole["logits"][rows], rtol=0.0, atol=1e-12)
    assert small.get("attention") == whole.get("attention")


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_float32_row_blocks_agree_within_float32_resolution(monkeypatch, case):
    # a float32 GEMM may round a row differently with the row count of its
    # block, so blocked float32 logits agree with one block only to a few ulp
    ds, cfg, *stacks = _toy_setup(epochs=8, patience=8, **BLOCK_CASES[case])
    fs, ls = _cast(stacks, np.float32)
    model = fit(fs, ls, ds.labels, ds.splits, cfg, num_classes=ds.num_classes).model
    rows = np.random.default_rng(3).permutation(ds.n)[:17]
    small = _block_outputs(monkeypatch, 4, ds, cfg, fs, ls, model, rows)
    whole = _block_outputs(monkeypatch, ds.n, ds, cfg, fs, ls, model, rows)
    assert whole["logits"].dtype == np.float32
    # training runs in one batch, not in row blocks
    assert [r["train_loss"] for r in small["log"]] == [r["train_loss"] for r in whole["log"]]
    tol = 64 * np.finfo(np.float32).eps * np.abs(whole["logits"]).max()
    assert np.allclose(small["logits"], whole["logits"], rtol=0.0, atol=tol)
    assert np.allclose(small["logits_rows"], whole["logits"][rows], rtol=0.0, atol=tol)
    # an argmax can change only where the top two logits lie within 2 tol
    top2 = np.sort(whole["logits"], axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 2 * tol
    assert clear.mean() > 0.9
    assert np.array_equal(small["pred"][clear], whole["pred"][clear])
    assert np.array_equal(small["pred_rows"][clear[rows]], whole["pred"][rows][clear[rows]])


def test_every_row_block_passes_its_global_row_ids(monkeypatch):
    ds, cfg, fs, ls = _toy_setup(epochs=3, patience=3, reference="normal_noise")
    monkeypatch.setattr(gamlp.model, "ROW_BLOCK", 4)
    seen = []
    forward = GamlpModel.forward

    def spy(self, *args, rows=None, training=False, **kwargs):
        if not training:
            seen.append(np.arange(ds.n)[rows])
        return forward(self, *args, rows=rows, training=training, **kwargs)

    monkeypatch.setattr(GamlpModel, "forward", spy)
    model = fit(fs, ls, ds.labels, ds.splits, cfg, num_classes=ds.num_classes).model
    assert np.array_equal(np.concatenate(seen), np.tile(ds.splits.val, 3))
    rows = np.array([9, 2, 2, 28, 0, 13, 7])
    for call_rows, want in ((None, np.arange(ds.n)), (rows, rows)):
        seen.clear()
        predict(model, fs, ls, call_rows)
        assert np.array_equal(np.concatenate(seen), want)
    seen.clear()
    export_attention(model, fs, ls, ds.graph.degrees(), [(0, 100)])
    assert np.array_equal(np.concatenate(seen), np.arange(ds.n))


def test_predict_memory_does_not_grow_with_the_stacks():
    # 20k rows are about ten blocks; one all-row temporary of either stack,
    # such as blending every label row, would exceed the bound on its own
    n, dim, steps = 20000, 16, 7
    rng = np.random.default_rng(4)
    fs = Stack(mats=rng.standard_normal((steps + 1, n, dim)), fingerprint=bytes(32))
    ls = Stack(mats=rng.random((steps + 1, n, dim)), fingerprint=bytes(32))
    cfg = TrainConfig(dataset_dir="unused", hops=steps, hidden=8, reference="normal_noise",
                      label_mode="smoothed").validate()
    model = GamlpModel(cfg, n, dim, dim, steps, steps, rng)
    tracemalloc.start()
    try:
        pred = predict(model, fs, ls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pred.shape == (n,)
    assert peak < fs.mats.nbytes


# ---------------------------------------------------------------------------
# train-time label inputs
# ---------------------------------------------------------------------------


SCHEMES = {"cosine": dict(residual_scheme="cosine"),
           "linear": dict(residual_scheme="linear"),
           "fixed0.7": dict(residual_scheme="fixed", fixed_alpha=0.7)}


@pytest.mark.parametrize("float32", [False, True])  # True: the dtype a cache read gives
@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("label_mode", ["plain", "smoothed", "uniform"])
def test_stack_inputs_of_rows_equal_the_sliced_inputs(label_mode, scheme, float32):
    ds, cfg, fs, ls = _toy_setup(label_mode=label_mode, **SCHEMES[scheme])
    if float32:
        fs, ls = _cast((fs, ls), np.float32)
    feats_before, labels_before = fs.mats.copy(), ls.mats.copy()
    whole = _stack_inputs(fs, ls, cfg)
    rows = np.array([17, 3, 3, 29, 0, 11])
    for sel in (rows, slice(5, 23)):
        got = _stack_inputs(fs, ls, cfg, sel)
        for g, w in zip(got, whole):
            assert np.array_equal(g, w[:, sel])
    assert np.array_equal(fs.mats, feats_before)
    assert np.array_equal(ls.mats, labels_before)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _fitted(tmp_path, dtype=np.float64, **overrides):
    ds, cfg, *stacks = _toy_setup(epochs=5, patience=5, **overrides)
    fs, ls = _cast(stacks, dtype)
    result = fit(fs, ls, ds.labels, ds.splits, cfg, num_classes=ds.num_classes)
    path = tmp_path / "checkpoint.gmck"
    save_checkpoint(path, result.model, fs, ls)
    return cfg, fs, ls, result, path


def test_checkpoint_holds_params_config_and_fingerprints(tmp_path):
    cfg, fs, ls, result, path = _fitted(tmp_path, reference="normal_noise")
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.gmck"]
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    names = [p.name for p in result.model.params]
    assert set(arrays) == ({f"param/{n}" for n in names}
                           | {"config", "fingerprint/features", "fingerprint/labels"})
    assert json.loads(str(arrays["config"])) == cfg.to_dict()
    assert arrays["fingerprint/features"].dtype == np.uint8
    assert arrays["fingerprint/features"].tobytes() == fs.fingerprint
    assert arrays["fingerprint/labels"].tobytes() == ls.fingerprint


def test_checkpoint_without_labels_or_adam(tmp_path):
    cfg, fs, _, _, path = _fitted(tmp_path, use_labels=False)
    with np.load(path, allow_pickle=False) as npz:
        assert not [n for n in npz.files if n.startswith("adam/") or "labels" in n]
    model = restore_model(path, cfg, fs, None)
    assert model.label_combiner is None


def test_checkpoint_with_adam_state_still_restores(tmp_path):
    # checkpoints written before the optimizer state was dropped also hold
    # adam/t, adam/m/<name> and adam/v/<name>; restoring ignores them
    cfg, fs, ls, result, path = _fitted(tmp_path, reference="normal_noise")
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["adam/t"] = np.array(7)
    for p in result.model.params:
        arrays[f"adam/m/{p.name}"] = np.full_like(p.value, 0.5)
        arrays[f"adam/v/{p.name}"] = np.full_like(p.value, 0.25)
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    model = restore_model(path, cfg, fs, ls)
    for p, q in zip(model.params, result.model.params):
        assert np.array_equal(p.value, q.value)
    inputs = _stack_inputs(fs, ls, cfg)
    assert np.array_equal(model.forward(*inputs), result.model.forward(*inputs))


def test_restore_model_reproduces_normal_noise_logits(tmp_path):
    cfg, fs, ls, result, path = _fitted(tmp_path, reference="normal_noise",
                                        label_mode="plain")
    model = restore_model(path, cfg, fs, ls)
    inputs = _stack_inputs(fs, ls, cfg)
    assert np.array_equal(model.forward(*inputs), result.model.forward(*inputs))


@pytest.mark.parametrize("key,value", [("seed", 5), ("label_mode", "smoothed"),
                                       ("residual_scheme", "linear")])
def test_restore_model_refuses_another_config(tmp_path, key, value):
    cfg, fs, ls, _, path = _fitted(tmp_path, reference="normal_noise",
                                   label_mode="plain")
    with pytest.raises(CheckpointMismatch, match=key) as err:
        restore_model(path, cfg.replace(**{key: value}), fs, ls)
    assert str(path) in str(err.value) and repr(value) in str(err.value)


@pytest.mark.parametrize("trained, given", [(np.float32, np.float32),
                                            (np.float64, np.float64),
                                            (np.float64, np.float32),
                                            (np.float32, np.float64)])
def test_restore_model_computes_in_the_checkpoint_dtype(tmp_path, trained, given):
    # a model restores only over stacks of its parameters' dtype, and then
    # evaluates exactly as it was trained
    cfg, fs, ls, result, path = _fitted(tmp_path, trained, reference="normal_noise")
    with np.load(path, allow_pickle=False) as npz:
        assert {npz[n].dtype for n in npz.files if n.startswith("param/")} \
            == {np.dtype(trained)}
    other = _cast((fs, ls), given)
    if trained != given:
        with pytest.raises(CheckpointFormatError) as err:
            restore_model(path, cfg, *other)
        assert str(err.value) == (
            f"{path}: checkpoint parameter 'feat.s' has dtype {np.dtype(trained)}, model "
            f"expects {np.dtype(given)}; run 'gamlp train' again")
        return
    model = restore_model(path, cfg, *other)
    assert model.dtype == trained and model.label_combiner.noise.dtype == trained
    for p, q in zip(model.params, result.model.params):
        assert p.value.dtype == trained and np.array_equal(p.value, q.value)
    for (got, _), (want, _) in zip(_stack_blocks(model, *other, None),
                                   _stack_blocks(result.model, *other, None)):
        assert got.dtype == trained and np.array_equal(got, want)


def test_restore_model_names_a_key_the_checkpoint_predates(tmp_path):
    cfg, fs, ls, _, path = _fitted(tmp_path)
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    stored = json.loads(str(arrays["config"]))
    del stored["label_mode"]
    arrays["config"] = np.array(json.dumps(stored))
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(CheckpointMismatch) as err:
        restore_model(path, cfg, fs, ls)
    assert str(err.value) == (f"{path}: written before the config key 'label_mode' "
                              "existed; run 'gamlp train' again")


def test_restore_model_names_a_key_that_no_longer_exists(tmp_path):
    cfg, fs, ls, _, path = _fitted(tmp_path)
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    stored = json.loads(str(arrays["config"]))
    stored["optimizer"] = "adam"
    arrays["config"] = np.array(json.dumps(stored))
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(CheckpointMismatch) as err:
        restore_model(path, cfg, fs, ls)
    assert str(err.value) == (f"{path}: written with the removed config key 'optimizer'; "
                              "run 'gamlp train' again")
    # as is one that holds the zero_self_label key, removed since
    stored.pop("optimizer")
    stored["zero_self_label"] = False
    arrays["config"] = np.array(json.dumps(stored))
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(CheckpointMismatch, match="removed config key 'zero_self_label'"):
        restore_model(path, cfg, fs, ls)
    # and so is every checkpoint written before beta and leaky_slope were removed
    stored.pop("zero_self_label")
    for key, value in (("beta", 1.0), ("leaky_slope", 0.2)):
        arrays["config"] = np.array(json.dumps({**stored, key: value}))
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        with pytest.raises(CheckpointMismatch) as err:
            restore_model(path, cfg, fs, ls)
        assert str(err.value) == (f"{path}: written with the removed config key "
                                  f"{key!r}; run 'gamlp train' again")


def test_restore_model_ignores_the_directories(tmp_path):
    cfg, fs, ls, _, path = _fitted(tmp_path)
    restore_model(path, cfg.replace(dataset_dir="moved", cache_dir="elsewhere"), fs, ls)


def test_restore_model_refuses_another_label_stack(tmp_path):
    cfg, fs, ls, _, path = _fitted(tmp_path)
    other = Stack(mats=ls.mats, fingerprint=bytes(32))
    with pytest.raises(CheckpointMismatch, match="fingerprint/labels differs"):
        restore_model(path, cfg, fs, other)


def test_garbage_checkpoint_files_give_one_line_error(tmp_path):
    cfg, fs, ls, _, path = _fitted(tmp_path)
    blob = path.read_bytes()
    old = tmp_path / "old.gmck"
    old.write_bytes(b"GMCK" + struct.pack("<IBI", 1, 0, 0))  # a GMCK version-1 header
    truncated = tmp_path / "truncated.gmck"
    truncated.write_bytes(blob[:len(blob) // 2])
    empty = tmp_path / "empty.gmck"
    empty.write_bytes(b"")
    for bad in (old, truncated, empty):
        with pytest.raises(CheckpointFormatError) as err:
            restore_model(bad, cfg, fs, ls)
        assert str(err.value) == (f"{bad}: not a gamlp checkpoint (older GMCK files "
                                  "need a new 'gamlp train')")


def _rewrite(path, edit):
    """Apply ``edit`` to the arrays of the checkpoint at ``path``, in place."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    edit(arrays)
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def _old_jk_layout(arrays):
    """The encoder names before the JK encoder became an ``Mlp``: the layers
    after the first were ``<branch>.enc.rest.<i>``."""
    for name in [n for n in arrays if n.startswith("param/feat.enc.1.")]:
        arrays[name.replace("enc.1.", "enc.rest.0.")] = arrays.pop(name)


def _narrowed_encoder(arrays):
    arrays["param/feat.enc.1.w"] = arrays["param/feat.enc.1.w"][:, :-1]


@pytest.mark.parametrize("edit,problem", [
    (_old_jk_layout, "checkpoint missing parameter 'feat.enc.1.w'"),
    (_narrowed_encoder, "checkpoint parameter 'feat.enc.1.w' has shape (8, 7), "
                          "model expects (8, 8)")])
def test_restore_model_names_the_file_of_parameters_that_do_not_fit(tmp_path, edit, problem):
    cfg, fs, ls, _, path = _fitted(tmp_path)
    _rewrite(path, edit)
    with pytest.raises(CheckpointFormatError) as err:
        restore_model(path, cfg, fs, ls)
    assert str(err.value) == f"{path}: {problem}; run 'gamlp train' again"


class _FailingMatrix:
    """Stands in for a parameter value; converting it to an array raises."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def test_checkpoint_write_failure_keeps_previous_file(tmp_path):
    cfg, fs, ls, result, path = _fitted(tmp_path)
    before = path.read_bytes()
    # the first parameters reach the file before the last one fails
    broken = SimpleNamespace(
        params=[*result.model.params, SimpleNamespace(name="x", value=_FailingMatrix())],
        config=cfg)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, broken, fs, ls)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.gmck"]
    restore_model(path, cfg, fs, ls)
