"""Node-adaptive combiners, baseline combiners, and the two-branch model.

A combiner turns the propagated stack [X^(0) ... X^(S)] into one matrix H
by weighting each node's steps individually:

* recursive attention scores every step against the running weighted
  combination of the steps before it, refreshing all weights at each
  round and reading out with a softmax over the full range at the end;
* jumping-knowledge attention scores every step against a reference
  embedding produced by an MLP over the concatenated propagated features
  X^(1) .. X^(S) (empty concatenation at S = 0 gives a zero reference).

The combined feature and label representations pass through separate
MLPs whose outputs are summed (the label branch scaled by beta) to give
the logits. Everything downstream of the precomputed stacks is row-wise,
so training slices node rows freely (full batch or mini-batch).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .nn import (Activation, Adam, Mlp, NonFiniteError, ParamTensor, Sgd,
                 cross_entropy, dropout, glorot_uniform, softmax_backward,
                 softmax_rows)
from .propagation import FeatureStack, LabelStack


class TrainingDiverged(Exception):
    """Loss became non-finite; training aborted."""


def slice_mats(mats: list[np.ndarray], rows: np.ndarray | None) -> list[np.ndarray]:
    if rows is None:
        return list(mats)
    return [m[rows] for m in mats]


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

    def forward(self, mats: list[np.ndarray], rows=None, training: bool = False,
                rng: np.random.Generator | None = None):
        if mats[0].shape[1] != self.dim:
            raise ValueError(f"stack dim {mats[0].shape[1]} != scoring dim {self.dim}")
        sa, sb = self.s.value[:self.dim], self.s.value[self.dim:]
        xd = []
        for m in mats:
            d, _ = dropout(m, self.attention_dropout, rng, training)
            xd.append(d)
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
        """Shared softmax->activation->dot-product backward for one round.

        Returns the gradient wrt the (undropped) reference matrix and
        accumulates the scoring-vector gradient.
        """
        d_act = softmax_backward(d_w, w)
        d_pre = self.activation.backward(d_act, pre)  # rows x k
        dim = self.dim
        d_sa = np.zeros(dim)
        for k in range(d_pre.shape[1]):
            d_sa += xd[k].T @ d_pre[:, k]
        row_sum = d_pre.sum(axis=1, keepdims=True)
        d_sb = rd.T @ row_sum[:, 0]
        self.s.grad[:dim] += d_sa
        self.s.grad[dim:] += d_sb
        d_r = row_sum * sb
        if r_mask is not None:
            d_r = d_r * r_mask
        return d_r

    def backward(self, d_h: np.ndarray) -> None:
        mats, xd, levels, final = self._cache
        sb = self.s.value[self.dim:]
        pre, w, rd, r_mask = final
        d_w = np.stack([(d_h * mats[k]).sum(axis=1) for k in range(len(mats))], axis=1)
        d_r = self._score_backward(d_w, pre, w, rd, r_mask, xd, sb)
        for l in range(len(levels), 0, -1):
            pre, w, rd, r_mask = levels[l - 1]
            d_w = np.stack([(d_r * mats[k]).sum(axis=1) for k in range(l)], axis=1)
            d_r = self._score_backward(d_w, pre, w, rd, r_mask, xd, sb)
        # the round-0 combination is X^(0); nothing trainable upstream


class _JkEncoder:
    """MLP over the concatenated stack, first layer applied blockwise.

    The concatenation X^(1) || ... || X^(S) is never materialized: the
    first linear layer is evaluated as a sum of per-step products, which
    keeps deep stacks (S up to 128) affordable.
    """

    def __init__(self, rng: np.random.Generator, steps: int, dim: int, hidden: int,
                 depth: int, activation: Activation, dropout_rate: float, name: str):
        self.steps, self.dim, self.hidden = steps, dim, hidden
        self.activation = activation
        self.dropout_rate = dropout_rate
        self.w1 = ParamTensor(f"{name}.0.w", glorot_uniform(rng, steps * dim, hidden))
        self.b1 = ParamTensor(f"{name}.0.b", np.zeros(hidden))
        self.rest = (Mlp(rng, hidden, hidden, hidden, depth - 1, activation,
                         dropout_rate, name=f"{name}.rest") if depth > 1 else None)
        self._cache = None

    @property
    def params(self) -> list[ParamTensor]:
        out = [self.w1, self.b1]
        if self.rest is not None:
            out += self.rest.params
        return out

    def forward(self, xs: list[np.ndarray], training: bool,
                rng: np.random.Generator | None) -> np.ndarray:
        z = self.b1.value + sum(
            xs[k] @ self.w1.value[k * self.dim:(k + 1) * self.dim] for k in range(self.steps))
        if self.rest is None:
            self._cache = (xs, None, None)
            return z
        a = self.activation.forward(z)
        a_drop, mask = dropout(a, self.dropout_rate, rng, training)
        out = self.rest.forward(a_drop, training, rng)
        self._cache = (xs, z, mask)
        return out

    def backward(self, d_out: np.ndarray) -> None:
        xs, z, mask = self._cache
        d_z = d_out
        if self.rest is not None:
            d_z = self.rest.backward(d_out)
            if mask is not None:
                d_z = d_z * mask
            d_z = self.activation.backward(d_z, z)
        self.b1.grad += d_z.sum(axis=0)
        for k in range(self.steps):
            self.w1.grad[k * self.dim:(k + 1) * self.dim] += xs[k].T @ d_z


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
                self.encoder = _JkEncoder(rng, steps, dim, hidden, depth, activation,
                                          mlp_dropout, name=f"{name}.enc")
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
        self.ref_dim = ref_dim
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
                return np.zeros((n_rows, self.hidden))
            return self.encoder.forward(mats[1:], training, rng)
        if self.reference == "origin_feature":
            return mats[0]
        if self.reference == "normal_noise":
            idx = np.arange(n_rows) if rows is None else rows
            return self.noise[idx]
        return None

    def forward(self, mats: list[np.ndarray], rows=None, training: bool = False,
                rng: np.random.Generator | None = None):
        if mats[0].shape[1] != self.dim:
            raise ValueError(f"stack dim {mats[0].shape[1]} != scoring dim {self.dim}")
        if self.encoder is not None and len(mats) - 1 != self.steps:
            raise ValueError(f"stack has {len(mats) - 1} steps, encoder expects {self.steps}")
        sa, sb = self.s.value[:self.dim], self.s.value[self.dim:]
        xd = []
        for m in mats:
            d, _ = dropout(m, self.attention_dropout, rng, training)
            xd.append(d)
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

    def backward(self, d_h: np.ndarray) -> None:
        mats, xd, pre, w, rd, r_mask = self._cache
        dim = self.dim
        d_w = np.stack([(d_h * mats[k]).sum(axis=1) for k in range(len(mats))], axis=1)
        d_act = softmax_backward(d_w, w)
        d_pre = self.activation.backward(d_act, pre)
        for k in range(len(mats)):
            self.s.grad[:dim] += xd[k].T @ d_pre[:, k]
        if rd is not None:
            row_sum = d_pre.sum(axis=1, keepdims=True)
            self.s.grad[dim:] += rd.T @ row_sum[:, 0]
            if self.reference == "jk" and self.encoder is not None:
                d_ref = row_sum * self.s.value[dim:]
                if r_mask is not None:
                    d_ref = d_ref * r_mask
                self.encoder.backward(d_ref)


class BaselineCombiner:
    """Layer-wise baselines: fixed (non-learned) combination weights."""

    has_weights = False

    def __init__(self, mode: str, gbp_beta: float = 0.5):
        if mode not in ("sgc", "s2gc", "gbp", "sign"):
            raise ValueError(f"unknown baseline combiner {mode!r}")
        if mode == "gbp" and not 0.0 < gbp_beta < 1.0:
            raise ValueError("gbp decay must lie in (0, 1)")
        self.mode = mode
        self.gbp_beta = gbp_beta

    @property
    def params(self) -> list[ParamTensor]:
        return []

    def forward(self, mats, rows=None, training=False, rng=None):
        return baseline_combine(mats, self.mode, self.gbp_beta), None

    def backward(self, d_h: np.ndarray) -> None:
        pass

    def output_dim(self, steps: int, dim: int) -> int:
        return (steps + 1) * dim if self.mode == "sign" else dim


def baseline_combine(mats: list[np.ndarray], mode: str, gbp_beta: float = 0.5) -> np.ndarray:
    """Combine a stack with one of the fixed layer-wise schemes.

    sgc: last step only. s2gc: uniform average. gbp: geometric decay
    beta (1 - beta)^l. sign: column-wise concatenation (per-step linear
    transforms live in the downstream MLP).
    """
    if mode == "sgc":
        return mats[-1]
    if mode == "s2gc":
        return sum(mats) / len(mats)
    if mode == "gbp":
        if not 0.0 < gbp_beta < 1.0:
            raise ValueError("gbp decay must lie in (0, 1)")
        return sum(gbp_beta * (1.0 - gbp_beta) ** l * m for l, m in enumerate(mats))
    if mode == "sign":
        return np.concatenate(mats, axis=1)
    raise ValueError(f"unknown baseline combiner {mode!r}")


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------


class GamlpModel:
    """Two-branch classifier over precomputed feature and label stacks."""

    def __init__(self, config: TrainConfig, n_nodes: int, feat_dim: int,
                 num_classes: int, feat_steps: int, label_steps: int,
                 rng: np.random.Generator):
        self.config = config
        self.num_classes = num_classes
        act = Activation(config.activation, config.leaky_slope)
        self.activation = act

        def make_combiner(steps: int, dim: int, name: str):
            if config.combiner != "attention":
                return BaselineCombiner(config.combiner, config.gbp_beta)
            if config.attention == "recursive":
                return RecursiveAttention(rng, dim, act, config.attention_dropout, name)
            return JkAttention(rng, steps, dim, config.hidden, config.jk_layers, act,
                               config.attention_dropout, config.reference, n_nodes, name,
                               mlp_dropout=config.dropout)

        self.feature_combiner = make_combiner(feat_steps, feat_dim, "feat")
        feat_out = feat_dim
        if isinstance(self.feature_combiner, BaselineCombiner):
            feat_out = self.feature_combiner.output_dim(feat_steps, feat_dim)
        self.feature_mlp = Mlp(rng, feat_out, config.hidden, num_classes,
                               config.num_layers, act, config.dropout, name="feat_mlp")
        self.label_combiner = None
        self.label_mlp = None
        if config.use_labels:
            self.label_combiner = make_combiner(label_steps, num_classes, "label")
            label_out = num_classes
            if isinstance(self.label_combiner, BaselineCombiner):
                label_out = self.label_combiner.output_dim(label_steps, num_classes)
            self.label_mlp = Mlp(rng, label_out, config.hidden, num_classes,
                                 config.label_num_layers, act, config.dropout,
                                 name="label_mlp")
        self.beta = config.beta

    @property
    def params(self) -> list[ParamTensor]:
        out = self.feature_combiner.params + self.feature_mlp.params
        if self.label_combiner is not None:
            out += self.label_combiner.params + self.label_mlp.params
        return out

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def forward(self, feat_mats: list[np.ndarray], label_mats: list[np.ndarray] | None,
                rows=None, training: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        cfg = self.config
        x_in = [dropout(m, cfg.input_dropout, rng, training)[0] for m in feat_mats]
        h_x, self.feature_weights = self.feature_combiner.forward(x_in, rows, training, rng)
        logits = self.feature_mlp.forward(h_x, training, rng)
        self.label_weights = None
        if self.label_combiner is not None:
            if label_mats is None:
                raise ValueError("model was built with a label branch but got no label stack")
            y_in = [dropout(m, cfg.input_dropout, rng, training)[0] for m in label_mats]
            h_y, self.label_weights = self.label_combiner.forward(y_in, rows, training, rng)
            logits = logits + self.beta * self.label_mlp.forward(h_y, training, rng)
        return logits

    def backward(self, d_logits: np.ndarray) -> None:
        d_hx = self.feature_mlp.backward(d_logits)
        self.feature_combiner.backward(d_hx)
        if self.label_combiner is not None:
            d_hy = self.label_mlp.backward(self.beta * d_logits)
            self.label_combiner.backward(d_hy)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    model: GamlpModel
    log: list[dict]
    best_val_acc: float
    best_epoch: int
    optimizer: object = field(default=None, repr=False)


def _stack_inputs(feature_stack: FeatureStack, label_stack: LabelStack | None,
                  config: TrainConfig):
    feat_mats = feature_stack.mats
    label_mats = None
    if config.use_labels:
        if label_stack is None:
            raise ValueError("config.use_labels is on but no label stack was given")
        if config.label_mode == "plain":
            label_mats = label_stack.mats
        elif config.label_mode == "uniform":
            # blend each raw step with the uniform class distribution instead
            # of the deepest step
            a = label_stack.scheme.alphas(label_stack.steps)
            c = label_stack.dim
            label_mats = [(1.0 - a[l]) * m + a[l] / c
                          for l, m in enumerate(label_stack.mats)]
        else:
            if label_stack.smoothed is None:
                raise ValueError("label stack has no smoothed matrices; "
                                 "run apply_last_residual first")
            label_mats = label_stack.smoothed
    return feat_mats, label_mats


def fit(feature_stack: FeatureStack, label_stack: LabelStack | None,
        labels: np.ndarray, splits, config: TrainConfig,
        num_classes: int | None = None, log_path=None) -> FitResult:
    """Train with early stopping on validation accuracy.

    ``splits`` needs .train/.val attributes (or a dict with those keys).
    Returns the parameters of the best validation epoch. Raises
    TrainingDiverged on a non-finite loss.
    """
    train_ids = np.asarray(splits["train"] if isinstance(splits, dict) else splits.train,
                           dtype=np.int64)
    val_ids = np.asarray(splits["val"] if isinstance(splits, dict) else splits.val,
                         dtype=np.int64)
    if train_ids.size == 0:
        raise ValueError("training split is empty")
    labels = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    n = feature_stack.n
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds node count {n}")

    rng = np.random.default_rng(config.seed)
    model = GamlpModel(config, n, feature_stack.dim, num_classes,
                       feature_stack.steps, 0 if label_stack is None else label_stack.steps,
                       rng)
    opt_cls = Adam if config.optimizer == "adam" else Sgd
    optimizer = opt_cls(model.params, lr=config.lr, weight_decay=config.weight_decay)

    feat_mats, label_mats = _stack_inputs(feature_stack, label_stack, config)
    train_feats = slice_mats(feat_mats, train_ids)
    train_labels_mats = slice_mats(label_mats, train_ids) if label_mats is not None else None
    val_feats = slice_mats(feat_mats, val_ids) if val_ids.size else None
    val_label_mats = slice_mats(label_mats, val_ids) if (label_mats is not None and val_ids.size) else None

    onehot = np.zeros((train_ids.size, num_classes))
    onehot[np.arange(train_ids.size), labels[train_ids]] = 1.0
    all_rows = np.arange(train_ids.size)

    log: list[dict] = []
    best_val, best_epoch, best_values = -np.inf, 0, None
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, config.epochs + 1):
            if config.batch_size == 0:
                batches = [all_rows]
            else:
                perm = rng.permutation(train_ids.size)
                batches = [perm[i:i + config.batch_size]
                           for i in range(0, train_ids.size, config.batch_size)]
            total_loss, total_rows = 0.0, 0
            for batch in batches:
                model.zero_grad()
                try:
                    logits = model.forward(slice_mats(train_feats, batch if config.batch_size else None),
                                           slice_mats(train_labels_mats, batch if config.batch_size else None)
                                           if train_labels_mats is not None else None,
                                           rows=train_ids[batch], training=True, rng=rng)
                    loss, d_logits = cross_entropy(logits, onehot[batch], np.arange(batch.size))
                except NonFiniteError as e:
                    raise TrainingDiverged(
                        f"{e} at epoch {epoch} (lr={config.lr}); reduce the learning "
                        "rate or check the input scaling") from None
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch} (lr={config.lr}); "
                        "reduce the learning rate or check the input scaling")
                model.backward(d_logits)
                optimizer.step()
                total_loss += loss * batch.size
                total_rows += batch.size
            train_loss = total_loss / total_rows

            if val_ids.size:
                val_logits = model.forward(val_feats, val_label_mats, rows=val_ids,
                                           training=False)
                val_pred = np.argmax(val_logits, axis=1)
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
                     best_epoch=best_epoch, optimizer=optimizer)


def predict(model: GamlpModel, feature_stack: FeatureStack,
            label_stack: LabelStack | None, rows: np.ndarray | None = None) -> np.ndarray:
    """Argmax class ids (ties resolve to the lowest class id)."""
    feat_mats, label_mats = _stack_inputs(feature_stack, label_stack, model.config)
    logits = model.forward(slice_mats(feat_mats, rows),
                           slice_mats(label_mats, rows) if label_mats is not None else None,
                           rows=rows, training=False)
    return np.argmax(logits, axis=1)


def evaluate_accuracy(pred: np.ndarray, truth: np.ndarray, split: np.ndarray) -> float:
    split = np.asarray(split, dtype=np.int64)
    if split.size == 0:
        raise ValueError("cannot evaluate accuracy on an empty split")
    return float(np.mean(pred[split] == np.asarray(truth)[split]))


# ---------------------------------------------------------------------------
# Attention interpretability export
# ---------------------------------------------------------------------------


def export_attention(model: GamlpModel, feature_stack: FeatureStack,
                     label_stack: LabelStack | None, degrees: np.ndarray,
                     buckets: list[tuple[int, int]]):
    """Per-node attention weights plus degree-bucket averages.

    Returns (per_node, per_bucket): per_node rows are
    [node id, degree, w(0) ... w(K)]; per_bucket rows are
    ["lo-hi", count, relative weights] where each bucket's averaged
    weight vector is scaled by its own maximum.
    """
    if not model.feature_combiner.has_weights:
        raise ValueError("baseline combiner has no attention weights to export")
    feat_mats, label_mats = _stack_inputs(feature_stack, label_stack, model.config)
    model.forward(feat_mats, label_mats, rows=None, training=False)
    weights = model.feature_weights
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

    with open(node_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["node", "degree"] + [f"w{k}" for k in range(steps + 1)])
        writer.writerows(per_node)
    with open(bucket_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["degree_range", "count"] + [f"w{k}" for k in range(steps + 1)])
        writer.writerows(per_bucket)
