"""Node-adaptive combiners, baseline combiners, and the two-branch model.

A combiner turns the propagated stack [X^(0) ... X^(S)] into one matrix H
by weighting each node's steps individually:

* recursive attention scores every step against the running weighted
  combination of the steps before it, refreshing all weights at each
  round and reading out with a softmax over the full range at the end;
* jumping-knowledge attention scores every step against a reference
  embedding produced by an MLP over the concatenated propagated features
  X^(1) .. X^(S) (empty concatenation at S = 0 gives a zero reference).

The combined feature and label representations pass through separate MLPs
whose outputs are summed to give the logits. Everything downstream of the
stacks is row-wise, so training slices node rows freely (full batch or
mini-batch), and inference runs over fixed blocks of ROW_BLOCK rows.

A checkpoint stores the fitted parameters together with the resolved
config and the fingerprints of the stacks they were fitted on, and
:func:`restore_model` refuses to rebuild the model under anything else.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .nn import (Activation, Adam, Linear, Mlp, NonFiniteError, ParamTensor, cross_entropy,
                 dropout, dropout_backward, softmax_backward, softmax_rows)
from .propagation import ResidualScheme, Stack, apply_last_residual, atomic_write


class TrainingDiverged(Exception):
    """Loss became non-finite; training aborted."""


ROW_BLOCK = 2048  # rows per eval-mode forward of predict, fit's validation and export
GBP_BETA = 0.5    # the gbp baseline's step weights are beta (1 - beta)^l


def slice_mats(mats: np.ndarray | None, rows) -> np.ndarray | None:
    """Rows of every step of an (S+1, n, d) stack: all (``rows`` None), a view
    (a slice) or one step-major gather (an index array). ``np.take`` keeps a
    gather C-contiguous; ``mats[:, rows]`` would lay it out node-major.
    """
    if mats is None or rows is None:
        return mats
    return mats[:, rows] if isinstance(rows, slice) else np.take(mats, rows, axis=1)


def _scores(xd: np.ndarray, s: np.ndarray) -> np.ndarray:
    """rows x (S+1) dot products of every step's rows with ``s``.

    One GEMV per step, reading each step in place, so a row-block view
    ``mats[:, lo:hi]`` is never copied. The result is column-major.
    """
    return (xd @ s).T


def _combine(w: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_k w[:, k, None] * mats[k] over the first w.shape[1] steps.

    One matmul batched over rows; it reads the step-major stack in place
    (einsum "rk,krf->rf" gives the same sums but ran slower).
    """
    return (w[:, None, :] @ mats[:w.shape[1]].transpose(1, 0, 2))[:, 0]


def _weight_grad(d: np.ndarray, mats: np.ndarray, steps: int) -> np.ndarray:
    """d_w[r, k] = d[r] . mats[k, r] for k < steps: _combine's gradient wrt w."""
    return (mats[:steps].transpose(1, 0, 2) @ d[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# Combiners
# ---------------------------------------------------------------------------


class RecursiveAttention:
    """Per-node step weights scored against the running combination.

    The running combination starts at X^(0) with weight 1. At round
    l = 1..S the scores of steps 0..l-1 are refreshed against the
    previous combination and re-softmaxed, and the combination is
    recomputed. The returned H uses a final softmax over all S+1 steps.
    Only the scoring vector is trainable; the stack itself is data.

    When no dropout mask is drawn on the running combination (eval mode,
    or ``attention_dropout`` 0), its score is r . s_b = sum_k w_k (X^(k) . s_b),
    so every round is scored from the per-step projections X^(k) . s_b and
    only the final combination is built: O(S*n*d + S^2*n) per forward
    instead of O(S^2*n*d). Training with dropout draws a mask on each
    round's combination and builds all S+1 of them.
    """

    has_weights = True

    def __init__(self, rng: np.random.Generator, dim: int, activation: Activation,
                 attention_dropout: float = 0.0, name: str = "att"):
        self.dim = dim
        self.activation = activation
        self.attention_dropout = attention_dropout
        # zero init: uniform attention at epoch 0
        self.s = ParamTensor(f"{name}.s", np.zeros(2 * dim))
        self._cache = None

    @property
    def params(self) -> list[ParamTensor]:
        return [self.s]

    def forward(self, mats: np.ndarray, rows=None, training: bool = False,
                rng: np.random.Generator | None = None):
        mats = np.asarray(mats)
        if mats.shape[2] != self.dim:
            raise ValueError(f"stack dim {mats.shape[2]} != scoring dim {self.dim}")
        sa, sb = self.s.value[:self.dim], self.s.value[self.dim:]
        xd, _ = dropout(mats, self.attention_dropout, rng, training)
        xa = _scores(xd, sa)
        masked = training and self.attention_dropout > 0.0
        xb = None if masked else _scores(mats, sb)
        rounds = []
        r = mats[0]
        for l in range(1, len(mats) + 1):
            if masked:
                rd, r_mask = dropout(r, self.attention_dropout, rng, training)
                rb = rd @ sb
            else:  # backward rebuilds rd from the previous round's weights
                rd, r_mask = None, None
                rb = xb[:, 0] if l == 1 else (w * xb[:, :l - 1]).sum(axis=1)
            pre = xa[:, :l] + rb[:, None]
            w = softmax_rows(self.activation.forward(pre))
            rounds.append((pre, w, rd, r_mask))
            if masked or l == len(mats):
                r = _combine(w, mats)
        self._cache = (mats, xd, rounds)
        return r, w

    def backward(self, d_h: np.ndarray) -> None:
        mats, xd, rounds = self._cache
        dim = self.dim
        sb = self.s.value[dim:]
        # the scores of every round share xd, so their gradients wrt sa are
        # summed per (row, step) and contracted with xd once
        d_pre_sum = np.zeros((xd.shape[1], len(mats)), dtype=xd.dtype)
        d_r = d_h
        for i in range(len(rounds) - 1, -1, -1):
            pre, w, rd, r_mask = rounds[i]
            if rd is None:
                rd = mats[0] if i == 0 else _combine(rounds[i - 1][1], mats)
            d_act = softmax_backward(_weight_grad(d_r, mats, w.shape[1]), w)
            d_pre = self.activation.backward(d_act, pre)  # rows x steps of this round
            d_pre_sum[:, :d_pre.shape[1]] += d_pre
            row_sum = d_pre.sum(axis=1)
            self.s.grad[dim:] += rd.T @ row_sum
            d_r = dropout_backward(row_sum[:, None] * sb, r_mask, self.attention_dropout)
        self.s.grad[:dim] += np.tensordot(d_pre_sum.T, xd, axes=2)
        # the round-0 combination is X^(0); nothing trainable upstream


class _StackLinear(Linear):
    """The JK encoder's first layer, applied to the step-major stack.

    The concatenation X^(1) || ... || X^(S) is never materialized: the
    layer computes sum_k X^(k) W_k, accumulated in place, reading each
    step where it lies in the stack. That keeps deep stacks (S up to 128)
    affordable and copies no (rows, S*f) matrix. The stack is data, so
    backward returns no input gradient.
    """

    def __init__(self, layer: Linear):
        self.w, self.b = layer.w, layer.b
        self._x = None

    def forward(self, xs: np.ndarray) -> np.ndarray:
        self._x = xs
        w = self.w.value.reshape(len(xs), -1, self.w.value.shape[1])
        z = xs[0] @ w[0]
        for k in range(1, len(xs)):
            z += xs[k] @ w[k]
        z += self.b.value
        return z

    def backward(self, d_out: np.ndarray) -> None:
        self.b.grad += d_out.sum(axis=0)
        self.w.grad += (self._x.transpose(0, 2, 1) @ d_out).reshape(self.w.value.shape)


class JkAttention:
    """Per-node step weights scored against a reference embedding.

    ``reference`` selects what each step is compared with: the encoder
    output (default), the raw step-0 features, a fixed per-node Gaussian
    buffer, or nothing at all.
    """

    has_weights = True

    def __init__(self, rng: np.random.Generator, steps: int, dim: int, hidden: int,
                 depth: int, activation: Activation, attention_dropout: float = 0.0,
                 reference: str = "jk", n_nodes: int | None = None, name: str = "jk",
                 mlp_dropout: float = 0.0):
        self.steps, self.dim, self.hidden = steps, dim, hidden
        self.activation = activation
        self.attention_dropout = attention_dropout
        self.reference = reference
        self.encoder = None
        self.noise = None
        if reference == "jk":
            ref_dim = hidden
            if steps > 0:
                self.encoder = Mlp(rng, steps * dim, hidden, hidden, depth, activation,
                                   mlp_dropout, name=f"{name}.enc")
                self.encoder.layers[0] = _StackLinear(self.encoder.layers[0])
        elif reference == "origin_feature":
            ref_dim = dim
        elif reference == "normal_noise":
            ref_dim = hidden
            if n_nodes is None:
                raise ValueError("normal_noise reference needs the node count")
            self.noise = rng.standard_normal((n_nodes, hidden))
        elif reference == "no_reference":
            ref_dim = 0
        else:
            raise ValueError(f"unknown reference mode {reference!r}")
        self.s = ParamTensor(f"{name}.s", np.zeros(dim + ref_dim))
        self._cache = None

    @property
    def params(self) -> list[ParamTensor]:
        out = [self.s]
        if self.encoder is not None:
            out += self.encoder.params
        return out

    def _reference(self, mats, rows, training, rng):
        n_rows = mats[0].shape[0]
        if self.reference == "jk":
            if self.encoder is None:
                return np.zeros((n_rows, self.hidden), dtype=mats[0].dtype)
            return self.encoder.forward(mats[1:], training, rng)
        if self.reference == "origin_feature":
            return mats[0]
        if self.reference == "normal_noise":
            idx = np.arange(n_rows) if rows is None else rows
            return self.noise[idx]
        return None

    def forward(self, mats: np.ndarray, rows=None, training: bool = False,
                rng: np.random.Generator | None = None):
        mats = np.asarray(mats)
        if mats.shape[2] != self.dim:
            raise ValueError(f"stack dim {mats.shape[2]} != scoring dim {self.dim}")
        if self.encoder is not None and len(mats) - 1 != self.steps:
            raise ValueError(f"stack has {len(mats) - 1} steps, encoder expects {self.steps}")
        sa, sb = self.s.value[:self.dim], self.s.value[self.dim:]
        xd, _ = dropout(mats, self.attention_dropout, rng, training)
        ref = self._reference(mats, rows, training, rng)
        pre = _scores(xd, sa)
        rd, r_mask = None, None
        if ref is not None:
            rd, r_mask = dropout(ref, self.attention_dropout, rng, training)
            pre += (rd @ sb)[:, None]
        w = softmax_rows(self.activation.forward(pre))
        h = _combine(w, mats)
        self._cache = (mats, xd, pre, w, rd, r_mask)
        return h, w

    def backward(self, d_h: np.ndarray) -> None:
        mats, xd, pre, w, rd, r_mask = self._cache
        dim = self.dim
        d_act = softmax_backward(_weight_grad(d_h, mats, len(mats)), w)
        d_pre = self.activation.backward(d_act, pre)
        self.s.grad[:dim] += np.tensordot(d_pre.T, xd, axes=2)
        if rd is not None:
            row_sum = d_pre.sum(axis=1, keepdims=True)
            self.s.grad[dim:] += rd.T @ row_sum[:, 0]
            if self.reference == "jk" and self.encoder is not None:
                d_ref = dropout_backward(row_sum * self.s.value[dim:], r_mask,
                                         self.attention_dropout)
                self.encoder.backward(d_ref)


class BaselineCombiner:
    """Layer-wise baselines: fixed (non-learned) combination weights."""

    has_weights = False

    def __init__(self, mode: str):
        if mode not in ("sgc", "s2gc", "gbp", "sign"):
            raise ValueError(f"unknown baseline combiner {mode!r}")
        self.mode = mode

    @property
    def params(self) -> list[ParamTensor]:
        return []

    def forward(self, mats, rows=None, training=False, rng=None):
        return baseline_combine(mats, self.mode), None

    def backward(self, d_h: np.ndarray) -> None:
        pass

    def output_dim(self, steps: int, dim: int) -> int:
        return (steps + 1) * dim if self.mode == "sign" else dim


def baseline_combine(mats: np.ndarray, mode: str) -> np.ndarray:
    """Combine a stack with one of the fixed layer-wise schemes.

    sgc: last step only. s2gc: uniform average. gbp: geometric decay
    GBP_BETA (1 - GBP_BETA)^l. sign: column-wise concatenation (per-step
    linear transforms live in the downstream MLP).
    """
    if mode == "sgc":
        return mats[-1]
    if mode == "s2gc":
        return np.mean(mats, axis=0)
    if mode == "gbp":
        w = GBP_BETA * (1.0 - GBP_BETA) ** np.arange(len(mats))
        return np.tensordot(w.astype(mats[0].dtype, copy=False), mats, axes=1)
    if mode == "sign":
        return np.concatenate(mats, axis=1)
    raise ValueError(f"unknown baseline combiner {mode!r}")


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------


class GamlpModel:
    """Two-branch classifier over precomputed feature and label stacks,
    computing in ``dtype`` (float32 or float64)."""

    def __init__(self, config: TrainConfig, n_nodes: int, feat_dim: int,
                 num_classes: int, feat_steps: int, label_steps: int,
                 rng: np.random.Generator, dtype=np.float64):
        self.config = config
        act = Activation(config.activation)

        def branch(steps: int, dim: int, name: str, depth: int):
            """(combiner, MLP) of one branch; the combiner draws first."""
            out = dim
            if config.combiner != "attention":
                combiner = BaselineCombiner(config.combiner)
                out = combiner.output_dim(steps, dim)
            elif config.attention == "recursive":
                combiner = RecursiveAttention(rng, dim, act, config.attention_dropout, name)
            else:
                combiner = JkAttention(rng, steps, dim, config.hidden, config.jk_layers, act,
                                       config.attention_dropout, config.reference, n_nodes,
                                       name, mlp_dropout=config.dropout)
            return combiner, Mlp(rng, out, config.hidden, num_classes, depth, act,
                                 config.dropout, name=f"{name}_mlp")

        self.feature_combiner, self.feature_mlp = branch(feat_steps, feat_dim, "feat",
                                                         config.num_layers)
        self.label_combiner = self.label_mlp = None
        if config.use_labels:
            self.label_combiner, self.label_mlp = branch(label_steps, num_classes, "label",
                                                         config.label_num_layers)
        # every initial value is drawn in float64 and then cast, so both
        # dtypes start from the same draws
        self.dtype = np.dtype(dtype)
        for p in self.params:
            p.value = p.value.astype(self.dtype, copy=False)
            p.grad = np.zeros_like(p.value)
        for combiner in (self.feature_combiner, self.label_combiner):
            if getattr(combiner, "noise", None) is not None:
                combiner.noise = combiner.noise.astype(self.dtype, copy=False)

    @property
    def params(self) -> list[ParamTensor]:
        out = self.feature_combiner.params + self.feature_mlp.params
        if self.label_combiner is not None:
            out += self.label_combiner.params + self.label_mlp.params
        return out

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def forward(self, feat_mats: np.ndarray, label_mats: np.ndarray | None,
                rows=None, training: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        cfg = self.config
        x_in, _ = dropout(np.asarray(feat_mats), cfg.input_dropout, rng, training)
        h_x, self.feature_weights = self.feature_combiner.forward(x_in, rows, training, rng)
        logits = self.feature_mlp.forward(h_x, training, rng)
        if self.label_combiner is not None:
            if label_mats is None:
                raise ValueError("model was built with a label branch but got no label stack")
            y_in, _ = dropout(np.asarray(label_mats), cfg.input_dropout, rng, training)
            h_y, _ = self.label_combiner.forward(y_in, rows, training, rng)
            logits = logits + self.label_mlp.forward(h_y, training, rng)
        return logits

    def backward(self, d_logits: np.ndarray) -> None:
        self.feature_combiner.backward(self.feature_mlp.backward(d_logits))
        if self.label_combiner is not None:
            self.label_combiner.backward(self.label_mlp.backward(d_logits))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    model: GamlpModel
    log: list[dict]
    best_val_acc: float
    best_epoch: int


def _stack_inputs(feature_stack: Stack, label_stack: Stack | None,
                  config: TrainConfig, rows=None):
    """Model inputs of ``rows`` (see :func:`slice_mats`) in the stacks' dtype; the
    row-wise label blend of ``config`` runs on the raw rows once they are taken."""
    label_mats = None
    if config.use_labels:
        if label_stack is None:
            raise ValueError("config.use_labels is on but no label stack was given")
        # the cache holds the raw propagation; the smoothing follows this config
        label_mats = slice_mats(label_stack.mats, rows)
        scheme = ResidualScheme(config.residual_scheme, config.fixed_alpha)
        if config.label_mode == "uniform":
            # blend each raw step with the uniform class distribution instead
            # of the deepest step
            a = scheme.alphas(label_stack.steps).astype(label_mats.dtype)[:, None, None]
            label_mats = (1.0 - a) * label_mats + a / label_stack.dim
        elif config.label_mode == "smoothed":
            label_mats = apply_last_residual(label_mats, scheme)
    return slice_mats(feature_stack.mats, rows), label_mats


def _stack_blocks(model: GamlpModel, feature_stack: Stack,
                  label_stack: Stack | None, rows: np.ndarray | None):
    """Yield the eval-mode logits and feature weights of ``rows`` of the stacks
    (None: every node, as views), ROW_BLOCK rows at a time."""
    n_rows = feature_stack.n if rows is None else len(rows)
    for lo in range(0, max(n_rows, 1), ROW_BLOCK):  # no rows: one empty block
        ids = slice(lo, lo + ROW_BLOCK) if rows is None else rows[lo:lo + ROW_BLOCK]
        feats, label_mats = _stack_inputs(feature_stack, label_stack, model.config, ids)
        yield model.forward(feats, label_mats, rows=ids, training=False), model.feature_weights


def _new_model(config: TrainConfig, feature_stack: Stack,
               label_stack: Stack | None, num_classes: int):
    """The model ``fit`` starts from, and the generator it goes on drawing from.

    The model computes in the stacks' dtype: float32 over stacks read from a
    cache, float64 over stacks propagated in memory. Raises ValueError when
    the label stack has another dtype than the feature stack.
    :func:`restore_model` rebuilds a model through the same seeded draws, so
    a ``normal_noise`` reference buffer comes back exactly without being stored.
    """
    dtype = feature_stack.mats.dtype
    if label_stack is not None and label_stack.mats.dtype != dtype:
        raise ValueError(f"the feature stack is {dtype} but the label stack is "
                         f"{label_stack.mats.dtype}; build both stacks in one dtype")
    rng = np.random.default_rng(config.seed)
    return GamlpModel(config, feature_stack.n, feature_stack.dim, num_classes,
                      feature_stack.steps, 0 if label_stack is None else label_stack.steps,
                      rng, dtype), rng


def fit(feature_stack: Stack, label_stack: Stack | None,
        labels: np.ndarray, splits, config: TrainConfig,
        num_classes: int | None = None, log_path=None) -> FitResult:
    """Train with early stopping on validation accuracy.

    ``splits`` needs .train/.val attributes, such as a :class:`~gamlp.data.Splits`.
    Each training batch takes its rows' inputs through :func:`_stack_inputs`,
    and each epoch validates through :func:`predict` over the labeled val rows.
    The model computes in the stacks' dtype. Returns the parameters
    of the best validation epoch. Raises TrainingDiverged on a non-finite
    loss or layer output, in training or in the validation pass.
    """
    train_ids = np.asarray(splits.train, dtype=np.int64)
    if train_ids.size == 0:
        raise ValueError("training split is empty")
    labels = np.asarray(labels, dtype=np.int64)
    val_ids = labeled_ids(splits.val, labels)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    n = feature_stack.n
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds node count {n}")

    model, rng = _new_model(config, feature_stack, label_stack, num_classes)
    adam = Adam(model.params, lr=config.lr, weight_decay=config.weight_decay)

    onehot = np.zeros((train_ids.size, num_classes), dtype=model.dtype)
    onehot[np.arange(train_ids.size), labels[train_ids]] = 1.0

    def diverged(what: str) -> TrainingDiverged:  # reads the running epoch
        return TrainingDiverged(f"{what} at epoch {epoch} (lr={config.lr}); reduce the "
                                "learning rate or check the input scaling")

    log: list[dict] = []
    best_val, best_epoch, best_values = -np.inf, 0, None
    if log_path:
        Path(log_path).parent.mkdir(parents=True, exist_ok=True)
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, config.epochs + 1):
            if config.batch_size == 0:
                batches = [np.arange(train_ids.size)]
            else:
                perm = rng.permutation(train_ids.size)
                batches = [perm[i:i + config.batch_size]
                           for i in range(0, train_ids.size, config.batch_size)]
            total_loss, total_rows = 0.0, 0
            for batch in batches:
                model.zero_grad()
                ids = train_ids[batch]
                feats, label_mats = _stack_inputs(feature_stack, label_stack, config, ids)
                try:
                    logits = model.forward(feats, label_mats, rows=ids, training=True, rng=rng)
                    loss, d_logits = cross_entropy(logits, onehot[batch], np.arange(batch.size))
                except NonFiniteError as e:
                    raise diverged(str(e)) from None
                if not np.isfinite(loss):
                    raise diverged("non-finite loss")
                model.backward(d_logits)
                adam.step()
                total_loss += loss * batch.size
                total_rows += batch.size
            train_loss = total_loss / total_rows

            if val_ids.size:
                try:
                    val_pred = predict(model, feature_stack, label_stack, val_ids)
                except NonFiniteError as e:
                    raise diverged(f"{e} in the validation pass") from None
                val_acc = float(np.mean(val_pred == labels[val_ids]))
            else:
                val_acc = float("nan")

            if val_ids.size and val_acc > best_val:
                best_val, best_epoch = val_acc, epoch
                best_values = [p.value.copy() for p in model.params]
            record = {"epoch": epoch, "train_loss": train_loss, "val_acc": val_acc,
                      "best_val_acc": best_val if val_ids.size else float("nan"),
                      "lr": config.lr}
            log.append(record)
            if log_file:
                log_file.write(json.dumps(record) + "\n")
            if val_ids.size and epoch - best_epoch >= config.patience:
                break
    finally:
        if log_file:
            log_file.close()
    if best_values is not None:
        for p, v in zip(model.params, best_values):
            p.value[...] = v
    return FitResult(model=model, log=log,
                     best_val_acc=best_val if val_ids.size else float("nan"),
                     best_epoch=best_epoch)


def predict(model: GamlpModel, feature_stack: Stack,
            label_stack: Stack | None, rows: np.ndarray | None = None) -> np.ndarray:
    """Argmax class ids of ``rows`` (default: every node); ties go to the lowest id."""
    return np.concatenate([np.argmax(logits, axis=1) for logits, _ in
                           _stack_blocks(model, feature_stack, label_stack, rows)])


def labeled_ids(split, truth) -> np.ndarray:
    """The ids of ``split`` whose class in ``truth`` is known (not -1)."""
    split = np.asarray(split, dtype=np.int64)
    return split[np.asarray(truth)[split] >= 0]


def evaluate_accuracy(pred: np.ndarray, truth: np.ndarray, split: np.ndarray) -> float:
    """Share of ``split``'s labeled nodes whose prediction is their class."""
    split = labeled_ids(split, truth)
    if split.size == 0:
        raise ValueError("cannot evaluate accuracy on a split with no labeled node")
    return float(np.mean(pred[split] == np.asarray(truth)[split]))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


class CheckpointFormatError(Exception):
    """Not a checkpoint file, or parameters that do not fit the model."""


class CheckpointMismatch(Exception):
    """Config or stacks differ from the ones the checkpoint was fitted with."""


def _fingerprints(config: TrainConfig, feature_stack: Stack,
                  label_stack: Stack | None) -> dict[str, np.ndarray]:
    stacks = {"features": feature_stack, "labels": label_stack if config.use_labels else None}
    return {f"fingerprint/{name}": np.frombuffer(stack.fingerprint, dtype=np.uint8)
            for name, stack in stacks.items() if stack is not None}


def save_checkpoint(path, model: GamlpModel, feature_stack: Stack,
                    label_stack: Stack | None) -> None:
    """Write one np.savez file, replacing ``path`` atomically. It holds

    * ``param/<name>``: every parameter of ``model``;
    * ``config``: the model's resolved config, a 0-d JSON string;
    * ``fingerprint/features`` and, with labels on, ``fingerprint/labels``:
      uint8 digests of the stacks the model was fitted on.
    """
    arrays = {f"param/{p.name}": p.value for p in model.params}
    arrays["config"] = np.array(json.dumps(model.config.to_dict()))
    arrays.update(_fingerprints(model.config, feature_stack, label_stack))
    # np.savez appends ".npz" to a path, but not to a file it is handed
    with atomic_write(path) as f:
        np.savez(f, **arrays)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(stored config, every other entry by name) of a checkpoint file."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        config = json.loads(str(arrays.pop("config")))
    except (ValueError, OSError, EOFError, zipfile.BadZipFile, KeyError):
        raise CheckpointFormatError(
            f"{path}: not a gamlp checkpoint (older GMCK files need a new "
            "'gamlp train')") from None
    return config, arrays


def restore_params(params: list[ParamTensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpointed ``param/<name>`` entries into a parameter list."""
    for p in params:
        value = arrays.get(f"param/{p.name}")
        if value is None:
            raise CheckpointFormatError(f"checkpoint missing parameter {p.name!r}")
        if value.shape != p.value.shape:
            raise CheckpointFormatError(
                f"checkpoint parameter {p.name!r} has shape {value.shape}, "
                f"model expects {p.value.shape}")
        if value.dtype != p.value.dtype:
            raise CheckpointFormatError(f"checkpoint parameter {p.name!r} has dtype "
                                        f"{value.dtype}, model expects {p.value.dtype}")
        p.value[...] = value


def restore_model(path, config: TrainConfig, feature_stack: Stack,
                  label_stack: Stack | None) -> GamlpModel:
    """Rebuild the model saved at ``path`` over the given stacks.

    Refuses a ``config`` that differs from the stored one on any key but
    the dataset and cache directories, and stacks whose fingerprints differ
    from the ones the model was fitted on. The model computes in the stacks'
    dtype, and parameters stored in another dtype are refused.
    """
    stored, arrays = load_checkpoint(path)
    now = config.to_dict()
    for key in dict.fromkeys([*stored, *now]):
        if key in ("dataset_dir", "cache_dir") or stored.get(key) == now.get(key):
            continue
        if key not in stored:
            raise CheckpointMismatch(
                f"{path}: written before the config key {key!r} existed; "
                "run 'gamlp train' again")
        if key not in now:
            raise CheckpointMismatch(f"{path}: written with the removed config key {key!r}; "
                                     "run 'gamlp train' again")
        raise CheckpointMismatch(
            f"{path}: trained with {key} = {stored[key]!r}, but the config "
            f"gives {now.get(key)!r}; evaluate with the training config and seed")
    for name, fingerprint in _fingerprints(config, feature_stack, label_stack).items():
        if not np.array_equal(arrays.get(name), fingerprint):
            raise CheckpointMismatch(
                f"{path}: {name} differs from the stack the model was trained on; "
                "the data changed since training, so train again")
    out_bias = arrays.get(f"param/feat_mlp.{config.num_layers - 1}.b")  # one per class
    if out_bias is None:
        raise CheckpointFormatError(f"{path}: checkpoint missing its output layer")
    model, _ = _new_model(config, feature_stack, label_stack, out_bias.size)
    try:
        restore_params(model.params, arrays)
    except CheckpointFormatError as e:  # e.g. written under older parameter names
        raise CheckpointFormatError(f"{path}: {e}; run 'gamlp train' again") from None
    return model


# ---------------------------------------------------------------------------
# Attention interpretability export
# ---------------------------------------------------------------------------


def export_attention(model: GamlpModel, feature_stack: Stack,
                     label_stack: Stack | None, degrees: np.ndarray,
                     buckets: list[tuple[int, int]]):
    """Per-node attention weights plus degree-bucket averages.

    Returns (per_node, per_bucket): per_node rows are
    [node id, degree, w(0) ... w(K)]; per_bucket rows are
    ["lo-hi", count, relative weights] where each bucket's averaged
    weight vector is scaled by its own maximum.
    """
    if not model.feature_combiner.has_weights:
        raise ValueError("baseline combiner has no attention weights to export")
    weights = np.concatenate([w for _, w in _stack_blocks(model, feature_stack, label_stack,
                                                           None)])
    degrees = np.asarray(degrees)
    per_node = [[int(i), int(degrees[i])] + [float(v) for v in weights[i]]
                for i in range(weights.shape[0])]
    per_bucket = []
    for lo, hi in buckets:
        sel = (degrees >= lo) & (degrees <= hi)
        if not np.any(sel):
            continue
        avg = weights[sel].mean(axis=0)
        rel = avg / avg.max()
        per_bucket.append([f"{lo}-{hi}", int(sel.sum())] + [float(v) for v in rel])
    return per_node, per_bucket


def write_attention_csv(per_node, per_bucket, node_path, bucket_path, steps: int) -> None:
    import csv

    with atomic_write(node_path, "x", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["node", "degree"] + [f"w{k}" for k in range(steps + 1)])
        writer.writerows(per_node)
    with atomic_write(bucket_path, "x", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["degree_range", "count"] + [f"w{k}" for k in range(steps + 1)])
        writer.writerows(per_bucket)
