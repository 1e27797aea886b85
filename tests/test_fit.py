import dataclasses
import json

import numpy as np
import pytest

import gamlp.model
import gamlp.nn
from gamlp.config import REFERENCE_MODES, TrainConfig
from gamlp.data import Splits, generate_sbm
from gamlp.model import (CheckpointFormatError, GamlpModel, TrainingDiverged, _stack_blocks,
                         _stack_inputs, evaluate_accuracy, fit, predict, restore_model,
                         save_checkpoint)
from gamlp.nn import Activation, Mlp
from gamlp.pipeline import build_stacks, load_stacks, preprocess, train_on_dataset


def _config(**overrides):
    base = dict(dataset_dir="unused", hops=3, hidden=16, num_layers=2,
                label_num_layers=2, jk_layers=2, epochs=200, patience=200, lr=0.01,
                input_dropout=0.0, attention_dropout=0.0, dropout=0.0, seed=0)
    base.update(overrides)
    return TrainConfig(**base).validate()


def _cast(stacks, dtype):
    """``stacks`` with their mats in ``dtype``; float32 is what a cache read gives."""
    return tuple(None if s is None else dataclasses.replace(s, mats=s.mats.astype(dtype))
                 for s in stacks)


@pytest.fixture(scope="module")
def sbm60():
    return generate_sbm([30, 30], 0.3, 0.02, 6, 2.5, seed=1)


def test_fit_reaches_full_train_accuracy(sbm60):
    cfg = _config(seed=3)
    result = train_on_dataset(sbm60, cfg)
    fs, ls = build_stacks(sbm60, cfg)
    pred = predict(result.model, fs, ls)
    assert evaluate_accuracy(pred, sbm60.labels, sbm60.splits.train) == 1.0
    assert len(result.log) <= 200


def test_patience_one_with_frozen_lr_stops_after_two_epochs(sbm60):
    result = train_on_dataset(sbm60, _config(lr=0.0, patience=1, epochs=50))
    assert len(result.log) == 2


def test_identical_seeds_identical_results(sbm60):
    cfg = _config(seed=11, epochs=30, patience=30, dropout=0.3, attention_dropout=0.2)
    a = train_on_dataset(sbm60, cfg)
    b = train_on_dataset(sbm60, cfg)
    assert a.best_val_acc == b.best_val_acc
    assert [r["train_loss"] for r in a.log] == [r["train_loss"] for r in b.log]
    for p, q in zip(a.model.params, b.model.params):
        assert np.array_equal(p.value, q.value)


def test_loss_non_increasing_first_five_epochs(sbm60):
    result = train_on_dataset(sbm60, _config(seed=3, epochs=5, patience=5))
    losses = [r["train_loss"] for r in result.log]
    assert all(losses[i + 1] <= losses[i] for i in range(4)), losses


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_aborts_with_diagnostic(sbm60):
    cfg = _config(epochs=50, patience=50)
    fs, ls = build_stacks(sbm60, cfg)
    # the training rows hold the largest finite float64, so the first training
    # forward overflows before any validation pass runs
    fs.mats[:, sbm60.splits.train] = np.finfo(np.float64).max
    with pytest.raises(TrainingDiverged, match=r"at epoch 1 \(lr=0\.01\)") as err:
        fit(fs, ls, sbm60.labels, sbm60.splits, cfg, num_classes=sbm60.num_classes)
    assert "validation" not in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_validation_overflow_aborts_with_diagnostic(sbm60, dtype):
    cfg = _config(epochs=5, patience=5)
    fs, ls = _cast(build_stacks(sbm60, cfg), dtype)
    # the validation rows hold the largest finite value of the compute dtype;
    # the training rows, and with them every training forward, stay finite
    fs.mats[:, sbm60.splits.val] = np.finfo(dtype).max
    with pytest.raises(TrainingDiverged,
                       match=r"in the validation pass at epoch 1 \(lr=0\.01\)"):
        fit(fs, ls, sbm60.labels, sbm60.splits, cfg, num_classes=sbm60.num_classes)


def test_minibatch_training_runs_and_learns(sbm60):
    cfg = _config(batch_size=8, epochs=120, patience=120, seed=5)
    result = train_on_dataset(sbm60, cfg)
    assert result.best_val_acc >= 0.9


def test_batch_size_validated(sbm60):
    with pytest.raises(ValueError):
        train_on_dataset(sbm60, _config(batch_size=61))


def test_empty_train_split_rejected(sbm60):
    fs, ls = build_stacks(sbm60, _config())
    empty = Splits(train=np.array([], dtype=np.int64), val=np.array([0]), test=np.array([1]))
    with pytest.raises(ValueError, match="training split is empty"):
        fit(fs, ls, sbm60.labels, empty, _config())


def test_log_file_written(sbm60, tmp_path):
    log_path = tmp_path / "train.jsonl"
    result = train_on_dataset(sbm60, _config(epochs=4, patience=4), )
    result2 = fit(*build_stacks(sbm60, _config(epochs=4, patience=4)),
                  sbm60.labels, sbm60.splits, _config(epochs=4, patience=4),
                  num_classes=sbm60.num_classes, log_path=log_path)
    lines = [json.loads(x) for x in log_path.read_text().splitlines()]
    assert len(lines) == len(result2.log) == 4
    assert set(lines[0]) == {"epoch", "train_loss", "val_acc", "best_val_acc", "lr"}
    assert lines[0]["epoch"] == 1


def test_best_epoch_parameters_restored(sbm60):
    # with lr 0 after epoch 1 nothing improves, so best epoch is 1
    result = train_on_dataset(sbm60, _config(lr=0.0, patience=3, epochs=10))
    assert result.best_epoch == 1


def test_fit_validates_through_the_predict_path(monkeypatch, sbm60):
    cfg = _config(seed=3, epochs=4, patience=4)
    fs, ls = build_stacks(sbm60, cfg)
    calls = []
    stack_blocks = gamlp.model._stack_blocks

    def spy(model, feature_stack, label_stack, rows):
        calls.append(rows)
        return stack_blocks(model, feature_stack, label_stack, rows)

    monkeypatch.setattr(gamlp.model, "_stack_blocks", spy)
    result = fit(fs, ls, sbm60.labels, sbm60.splits, cfg)
    # one validation pass per epoch, over the val rows
    assert len(calls) == len(result.log) == 4
    for rows in calls:
        assert np.array_equal(rows, sbm60.splits.val)
    monkeypatch.undo()
    pred = predict(result.model, fs, ls)
    assert result.best_val_acc == evaluate_accuracy(pred, sbm60.labels, sbm60.splits.val)


def test_fit_reads_each_training_batch_through_stack_inputs(monkeypatch, sbm60):
    cfg = _config(seed=3, epochs=2, patience=2, batch_size=9)
    fs, ls = build_stacks(sbm60, cfg)
    train = sbm60.splits.train
    assert train.size == 18  # two batches per epoch
    inputs, forwards = [], []
    stack_inputs, forward = gamlp.model._stack_inputs, GamlpModel.forward

    def inputs_spy(feature_stack, label_stack, config, rows=None):
        inputs.append(np.array(rows))
        return stack_inputs(feature_stack, label_stack, config, rows)

    def forward_spy(self, feats, label_mats, rows=None, training=False, rng=None):
        if training:
            forwards.append(rows)
        return forward(self, feats, label_mats, rows=rows, training=training, rng=rng)

    monkeypatch.setattr(gamlp.model, "_stack_inputs", inputs_spy)
    monkeypatch.setattr(GamlpModel, "forward", forward_spy)
    fit(fs, ls, sbm60.labels, sbm60.splits, cfg)
    # the validation pass reads the val rows; every other call is one training batch
    batches = [rows for rows in inputs if np.isin(rows, train).all()]
    assert len(batches) == len(forwards) == 4
    for rows, seen in zip(batches, forwards):
        assert rows.size == 9 and np.array_equal(rows, seen)
    for epoch in (batches[:2], batches[2:]):
        assert np.array_equal(np.sort(np.concatenate(epoch)), train)


def test_fit_validates_on_the_labeled_val_nodes_only(sbm60):
    cfg = _config(epochs=3, patience=3)
    stacks = build_stacks(sbm60, cfg)
    train, val = sbm60.splits.train, sbm60.splits.val
    labels = sbm60.labels.copy()
    labels[val[0]] = -1

    def run(labels, val_ids):
        return fit(*stacks, labels, Splits(train, val_ids, sbm60.splits.test), cfg,
                   num_classes=sbm60.num_classes)

    # an unlabeled val node changes nothing; a val split of unlabeled nodes
    # only is an empty one
    assert run(labels, val).log == run(sbm60.labels, val[1:]).log
    unlabeled_only = run(labels, val[:1])
    assert np.isnan(unlabeled_only.best_val_acc) and unlabeled_only.best_epoch == 0
    assert len(unlabeled_only.log) == cfg.epochs


def test_attention_never_catastrophically_below_sgc(sbm60):
    """Easy data: GAMLP(JK) mean val accuracy within 0.02 of the SGC baseline."""
    jk_accs, sgc_accs = [], []
    for seed in range(10):
        jk = train_on_dataset(sbm60, _config(seed=seed, epochs=100, patience=100))
        sgc = train_on_dataset(sbm60, _config(seed=seed, epochs=100, patience=100,
                                              combiner="sgc", num_layers=1,
                                              use_labels=False))
        jk_accs.append(jk.best_val_acc)
        sgc_accs.append(sgc.best_val_acc)
    assert np.mean(jk_accs) >= np.mean(sgc_accs) - 0.02


def test_label_modes_run(sbm60):
    for mode in ("smoothed", "plain", "uniform"):
        result = train_on_dataset(sbm60, _config(label_mode=mode, epochs=10, patience=10))
        assert len(result.log) == 10
    result = train_on_dataset(sbm60, _config(use_labels=False, epochs=10, patience=10))
    assert result.model.label_combiner is None


# ---------------------------------------------------------------------------
# compute dtype
# ---------------------------------------------------------------------------


DTYPE_CASES = {"recursive": dict(attention="recursive"),
               **{f"jk-{ref}": dict(reference=ref) for ref in REFERENCE_MODES},
               "jk-no-steps": dict(hops=0),  # the encoder-less zero reference
               "gbp": dict(combiner="gbp"),
               **{f"labels-{mode}": dict(label_mode=mode)
                  for mode in ("plain", "smoothed", "uniform")}}

# every kernel of the forward and backward passes, by the name callers look it up by
_KERNELS = [(gamlp.nn, "linear_forward"), (gamlp.nn, "linear_backward"),
            (gamlp.nn, "dropout"), (gamlp.model, "dropout"),
            (gamlp.model, "softmax_rows"), (gamlp.model, "softmax_backward"),
            (gamlp.model, "cross_entropy"), (gamlp.model, "_scores"),
            (gamlp.model, "_combine"), (gamlp.model, "_weight_grad"),
            (gamlp.model, "baseline_combine"), (gamlp.model, "apply_last_residual"),
            (Activation, "forward"), (Activation, "backward"),
            (Mlp, "forward"), (Mlp, "backward"), (GamlpModel, "forward")]


def _record_dtypes(monkeypatch) -> set:
    """(kernel, dtype) of every float array each kernel returns, until the test ends.

    Bool arrays (dropout masks) are skipped; they hold no computed values.
    """
    seen = set()

    def spy(owner, name):
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            for a in out if isinstance(out, tuple) else (out,):
                if isinstance(a, np.ndarray) and a.dtype != np.bool_:
                    seen.add((name, a.dtype))
            return out

        monkeypatch.setattr(owner, name, recorded)

    for owner, name in _KERNELS:
        spy(owner, name)
    return seen


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("case", list(DTYPE_CASES))
def test_fit_computes_in_the_stack_dtype_only(monkeypatch, sbm60, case, dtype):
    cfg = _config(epochs=1, patience=1, input_dropout=0.1, attention_dropout=0.2,
                  dropout=0.3, **DTYPE_CASES[case])
    fs, ls = _cast(build_stacks(sbm60, cfg), dtype)
    seen = _record_dtypes(monkeypatch)
    optimizers = []

    class KeptAdam(gamlp.nn.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(gamlp.model, "Adam", KeptAdam)
    result = fit(fs, ls, sbm60.labels, sbm60.splits, cfg, num_classes=sbm60.num_classes)
    arrays = {f"{p.name} {kind}": a for p in result.model.params
              for kind, a in (("value", p.value), ("grad", p.grad))}
    (optimizer,) = optimizers
    arrays.update({f"adam m {i}": m for i, m in enumerate(optimizer.m)})
    arrays.update({f"adam v {i}": v for i, v in enumerate(optimizer.v)})
    for rows in (None, sbm60.splits.train):
        feats, labels = _stack_inputs(fs, ls, cfg, rows)
        arrays.update({f"features {rows is None}": feats, f"labels {rows is None}": labels})
    arrays.update({f"logits {i}": logits
                   for i, (logits, _) in enumerate(_stack_blocks(result.model, fs, ls, None))})
    assert {name for name, a in arrays.items() if a.dtype != dtype} == set()
    assert {kernel for kernel, d in seen if d != dtype} == set()
    assert {"linear_backward", "backward", "dropout"} <= {kernel for kernel, _ in seen}


def test_float32_and_float64_fits_agree_within_seed_noise(sbm60):
    # a short fit with dropout: best_val_acc still varies with the seed, and the
    # two dtypes draw different dropout masks, so they differ by seed noise only
    seeds = range(8)
    configs = [_config(seed=seed, epochs=4, patience=4, dropout=0.3, attention_dropout=0.2)
               for seed in seeds]
    accs = {dtype: np.array([train_on_dataset(
                sbm60, cfg, _cast(build_stacks(sbm60, cfg), dtype)).best_val_acc
                for cfg in configs])
            for dtype in ("float32", "float64")}
    # the margin is the standard error of the float64 mean over the seeds
    # (0.064 here: best_val_acc spreads from 0.5 to 1.0 across seeds); a float32
    # path that learned nothing would sit near chance, 0.5, against a mean of 0.84
    margin = accs["float64"].std(ddof=1) / np.sqrt(len(seeds))
    assert 0.0 < margin < 0.15
    assert abs(accs["float32"].mean() - accs["float64"].mean()) <= margin


def test_float64_model_over_cached_stacks_equals_rounded_in_memory_stacks(sbm60, tmp_path):
    cfg = _config(epochs=20, patience=20, dropout=0.3, attention_dropout=0.2,
                  cache_dir=str(tmp_path))
    preprocess(sbm60, cfg)
    cached = load_stacks(sbm60, cfg)
    assert [s.mats.dtype for s in cached] == [np.float32, np.float32]
    # the caches hold the float32-hop stacks of build_stacks, bit for bit
    rounded = _cast(build_stacks(sbm60, cfg, np.float32), np.float64)
    for c, r in zip(cached, rounded):
        assert np.array_equal(c.mats, r.mats)
    # a float64 model is not evaluated over the float32 caches: its
    # checkpoint is refused in one line that names the file
    model = fit(*rounded, sbm60.labels, sbm60.splits, cfg,
                num_classes=sbm60.num_classes).model
    path = tmp_path / "checkpoint.gmck"
    save_checkpoint(path, model, *rounded)
    with pytest.raises(CheckpointFormatError) as err:
        restore_model(path, cfg, *cached)
    assert str(err.value) == (f"{path}: checkpoint parameter 'feat.s' has dtype float64, "
                              "model expects float32; run 'gamlp train' again")


@pytest.mark.parametrize("feature, label", [("float32", "float64"), ("float64", "float32")])
def test_fit_refuses_stacks_of_two_dtypes_in_one_line(sbm60, feature, label):
    cfg = _config(epochs=1, patience=1)
    fs, ls = build_stacks(sbm60, cfg)
    fs = dataclasses.replace(fs, mats=fs.mats.astype(feature))
    ls = dataclasses.replace(ls, mats=ls.mats.astype(label))
    with pytest.raises(ValueError) as err:
        fit(fs, ls, sbm60.labels, sbm60.splits, cfg)
    assert str(err.value) == (f"the feature stack is {feature} but the label stack is "
                              f"{label}; build both stacks in one dtype")
