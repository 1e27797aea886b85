import json

import numpy as np
import pytest

from gamlp.config import TrainConfig
from gamlp.data import generate_sbm
from gamlp.model import TrainingDiverged, _stack_inputs, evaluate_accuracy, fit, predict
from gamlp.pipeline import build_stacks, train_on_dataset


def _config(**overrides):
    base = dict(dataset_dir="unused", hops=3, hidden=16, num_layers=2,
                label_num_layers=2, jk_layers=2, epochs=200, patience=200, lr=0.01,
                input_dropout=0.0, attention_dropout=0.0, dropout=0.0, seed=0)
    base.update(overrides)
    return TrainConfig(**base).validate()


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


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_aborts_with_diagnostic(sbm60):
    cfg = _config(optimizer="sgd", lr=1e12, epochs=50, patience=50)
    with pytest.raises(TrainingDiverged):
        train_on_dataset(sbm60, cfg)


def test_minibatch_training_runs_and_learns(sbm60):
    cfg = _config(batch_size=8, epochs=120, patience=120, seed=5)
    result = train_on_dataset(sbm60, cfg)
    assert result.best_val_acc >= 0.9


def test_batch_size_validated(sbm60):
    with pytest.raises(ValueError):
        train_on_dataset(sbm60, _config(batch_size=61))


def test_empty_train_split_rejected(sbm60):
    fs, ls = build_stacks(sbm60, _config())
    with pytest.raises(ValueError):
        fit(fs, ls, sbm60.labels, {"train": [], "val": [0]}, _config())


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


def test_sgd_optimizer_runs(sbm60):
    result = train_on_dataset(sbm60, _config(optimizer="sgd", lr=0.05,
                                             epochs=50, patience=50))
    assert np.isfinite(result.best_val_acc)


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


def test_zero_self_label_flag_changes_inputs(sbm60):
    cfg = _config(zero_self_label=True, epochs=5, patience=5)
    fs, ls = build_stacks(sbm60, cfg)
    _, label_mats = _stack_inputs(fs, ls, cfg.replace(label_mode="plain"))
    assert not label_mats[0][sbm60.splits.train].any()
    result = train_on_dataset(sbm60, cfg)
    assert len(result.log) == 5
