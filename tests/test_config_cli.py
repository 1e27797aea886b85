import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gamlp.model
from gamlp import graph
from gamlp.cli import main
from gamlp.config import ConfigError, TrainConfig, parse_config
from gamlp.data import generate_sbm, load_dataset, save_dataset
from gamlp.pipeline import build_stacks, cache_paths, load_stacks


def test_minimal_config_fills_defaults(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("dataset_dir = data/toy\nhops = 5\n")
    cfg = parse_config(path)
    assert cfg.hops == 5
    assert cfg.hidden == 512
    assert cfg.lr == 0.001
    assert cfg.dropout == 0.5


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("# full line comment\n\ndataset_dir = d  # trailing comment\n"
                    "hops = 2\n")
    cfg = parse_config(path)
    assert cfg.dataset_dir == "d" and cfg.hops == 2


def test_config_rejects_negative_hops(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("dataset_dir = d\nhops = -1\n")
    with pytest.raises(ConfigError, match="hops"):
        parse_config(path)


def test_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("dataset_dir = d\nhops = 2\nhops = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:3: duplicate key 'hops' (first set on line 2)"


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("dataset_dir = d\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key 'learning_rate'"):
        parse_config(path)


@pytest.mark.parametrize("line", ["optimizer = sgd", "label_r_mode = 0", "gbp_beta = 0.3",
                                  "beta = 1.0", "leaky_slope = 0.2", "combiner = sgc"])
def test_config_rejects_a_removed_key(tmp_path, line):
    path = tmp_path / "c.conf"
    path.write_text(f"dataset_dir = d\nhops = 2\n{line}\n")
    key = line.split(" ")[0]
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:3: unknown key {key!r}"


def test_every_shipped_config_parses():
    confs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.conf"))
    assert [path.stem for path in confs] == ["citeseer", "cora", "pubmed"]
    for path in confs:
        assert parse_config(path).dataset_dir == f"data/{path.stem}"


def test_config_rejects_a_negative_seed(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("dataset_dir = d\nseed = -1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:2: seed must be nonnegative"


def test_readme_configuration_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| key | meaning |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    listed = [key for row in table.splitlines()
              for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(f.name for f in dataclasses.fields(TrainConfig))


def test_config_rejects_type_error(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("dataset_dir = d\nhops = five\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:2: cannot parse hops = 'five' as int"


def test_config_rejects_patience_above_epochs(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("dataset_dir = d\nepochs = 10\npatience = 20\n")
    with pytest.raises(ConfigError, match="patience"):
        parse_config(path)


def test_config_requires_dataset_dir(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("hops = 2\n")
    with pytest.raises(ConfigError, match="dataset_dir"):
        parse_config(path)


@pytest.mark.parametrize("text, where, message", [
    ("dataset_dir = d\nhops\n", ":2", "expected 'key = value', got 'hops'"),
    ("dataset_dir = d\n\nhops = 999\n", ":3", "hops must lie in [0, 128]"),
    # patience is not set: the line of the other key at fault
    ("dataset_dir = d\nepochs = 10\n", ":2", "patience must lie in [1, epochs]"),
    ("dataset_dir = d\ncache_dir =\n", ":2", "cache_dir must not be empty"),
    ("hops = 2\n", "", "config must set dataset_dir"),
    ("dataset_dir = d\nlabel_mode = \xff\n", "", "not UTF-8 text"),
])
def test_config_errors_name_the_file_and_the_line(tmp_path, text, where, message):
    path = tmp_path / "c.conf"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}{where}: {message}"


def test_config_bool_parsing(tmp_path):
    path = tmp_path / "c.conf"
    for raw, value in (("false", False), ("yes", True), ("Off", False), ("1", True)):
        path.write_text(f"dataset_dir = d\nuse_labels = {raw}\n")
        assert parse_config(path).use_labels is value


def test_config_validate_catches_bad_enum():
    with pytest.raises(ConfigError):
        TrainConfig(dataset_dir="d", attention="gcn").validate()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def workdir(tmp_path):
    ds = generate_sbm([20, 20], 0.3, 0.03, 5, 2.0, seed=6, name="sbm")
    data_dir = tmp_path / "data"
    save_dataset(ds, data_dir)
    cache_dir = tmp_path / "cache"
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"dataset_dir = {data_dir}\n"
        f"cache_dir = {cache_dir}\n"
        "hops = 3\n"
        "hidden = 16\n"
        "num_layers = 2\n"
        "label_num_layers = 2\n"
        "jk_layers = 2\n"
        "epochs = 40\n"
        "patience = 20\n"
        "lr = 0.01\n"
        "input_dropout = 0\n"
        "attention_dropout = 0\n"
        "dropout = 0\n"
        "seed = 1\n")
    return tmp_path, conf, cache_dir


def test_pipeline_smoke(workdir, capsys):
    tmp_path, conf, cache_dir = workdir
    assert main(["preprocess", "--config", str(conf)]) == 0
    assert main(["train", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "test accuracy" in out
    trained_test_acc = out.split("test accuracy ")[1].split()[0]
    ckpt = cache_dir / "checkpoint.gmck"
    assert ckpt.exists()
    assert (cache_dir / "checkpoint.gmck.log.jsonl").exists()
    assert main(["eval", "--config", str(conf), "--checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    for part in ("train", "val", "test"):
        assert f"{part} accuracy" in out
    # the restored checkpoint reproduces the train-time test accuracy
    assert f"test accuracy {trained_test_acc}" in out


def test_inspect_prints_the_cache_headers(workdir, capsys):
    tmp_path, conf, cache_dir = workdir
    assert main(["preprocess", "--config", str(conf)]) == 0
    capsys.readouterr()
    path = cache_dir / "features_K3_r0.5.npy"
    assert main(["inspect", str(path)]) == 0
    fingerprint = path.read_bytes()[-32:].hex()  # the last record's data
    nbytes = 4 * 4 * 40 * 5  # (K+1, n, f) float32
    assert capsys.readouterr().out.splitlines() == [
        f"stack        (4, 40, 5) float32, {nbytes} bytes",
        f"fingerprint  {fingerprint}",
        f"file         {path.stat().st_size} bytes"]
    # a malformed cache fails with cache_read's one-line error
    path.write_bytes(path.read_bytes()[:200])
    assert main(["inspect", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"gamlp: error: {path}: ")
    assert "Failed to read all data" in err and err.rstrip().endswith("rerun gamlp preprocess")


def test_train_without_caches_mentions_preprocess(workdir, capsys):
    _, conf, _ = workdir
    assert main(["train", "--config", str(conf)]) != 0
    assert "preprocess" in capsys.readouterr().err


def test_unknown_subcommand_shows_usage(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err


def test_eval_missing_checkpoint(workdir, capsys):
    _, conf, _ = workdir
    main(["preprocess", "--config", str(conf)])
    assert main(["eval", "--config", str(conf), "--checkpoint", "missing.gmck"]) != 0
    assert "train" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "export-attention"])
def test_a_missing_checkpoint_is_reported_before_the_dataset_loads(workdir, capsys,
                                                                   monkeypatch, command):
    _, conf, _ = workdir

    def refuse(directory):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr("gamlp.data.load_dataset", refuse)
    assert main([command, "--config", str(conf), "--checkpoint", "missing.gmck"]) == 1
    assert capsys.readouterr().err == ("gamlp: error: checkpoint missing.gmck not found; "
                                       "run 'gamlp train' first\n")


def _train(conf, capsys):
    assert main(["preprocess", "--config", str(conf)]) == 0
    assert main(["train", "--config", str(conf)]) == 0
    capsys.readouterr()


def test_eval_refuses_another_seed(workdir, capsys):
    _, conf, cache_dir = workdir
    _train(conf, capsys)
    ckpt = str(cache_dir / "checkpoint.gmck")
    assert main(["eval", "--config", str(conf), "--checkpoint", ckpt, "--seed", "5"]) != 0
    err = capsys.readouterr().err
    assert "seed" in err and ckpt in err


def test_eval_refuses_another_label_mode(workdir, capsys):
    tmp_path, conf, cache_dir = workdir
    _train(conf, capsys)
    plain = tmp_path / "plain.conf"
    plain.write_text(conf.read_text() + "label_mode = plain\n")
    ckpt = str(cache_dir / "checkpoint.gmck")
    assert main(["eval", "--config", str(plain), "--checkpoint", ckpt]) != 0
    assert "label_mode" in capsys.readouterr().err


def test_eval_refuses_a_checkpoint_in_the_old_jk_encoder_layout(workdir, capsys):
    # before the JK encoder was an nn.Mlp, its layers after the first were
    # stored as <branch>.enc.rest.<i>
    _, conf, cache_dir = workdir
    _train(conf, capsys)
    ckpt = cache_dir / "checkpoint.gmck"
    with np.load(ckpt, allow_pickle=False) as npz:
        arrays = {name.replace("param/feat.enc.1.", "param/feat.enc.rest.0."): npz[name]
                  for name in npz.files}
    with open(ckpt, "wb") as f:
        np.savez(f, **arrays)
    assert main(["eval", "--config", str(conf), "--checkpoint", str(ckpt)]) != 0
    assert capsys.readouterr().err == (f"gamlp: error: {ckpt}: checkpoint missing parameter "
                                       "'feat.enc.1.w'; run 'gamlp train' again\n")


def test_eval_refuses_a_cache_of_float64_hops_in_one_line(workdir, capsys):
    # the stacks of float64 hops rounded once, as preprocess wrote them before
    # it ran its hops in float32, are stale: eval says to preprocess again
    tmp_path, conf, cache_dir = workdir
    _train(conf, capsys)
    config = parse_config(conf)
    path = cache_paths(config)[0]
    stack = build_stacks(load_dataset(config.dataset_dir), config)[0]
    with open(path, "wb") as f:  # the two records cache_write wrote then
        np.save(f, stack.mats.astype("<f4"))
        np.save(f, np.frombuffer(stack.fingerprint, dtype=np.uint8))
    ckpt = str(cache_dir / "checkpoint.gmck")
    assert main(["eval", "--config", str(conf), "--checkpoint", ckpt]) == 1
    assert capsys.readouterr().err == (
        f"gamlp: error: {path}: cache fingerprint does not match the current graph, "
        "seed, steps, r or hop dtype; rerun gamlp preprocess\n")


def test_eval_refuses_a_dataset_replaced_after_training(workdir, capsys):
    tmp_path, conf, cache_dir = workdir
    _train(conf, capsys)
    other = generate_sbm([20, 20], 0.3, 0.03, 5, 2.0, seed=99, name="sbm")
    save_dataset(other, tmp_path / "data")
    assert main(["preprocess", "--config", str(conf)]) == 0
    ckpt = str(cache_dir / "checkpoint.gmck")
    assert main(["eval", "--config", str(conf), "--checkpoint", ckpt]) != 0
    assert "fingerprint" in capsys.readouterr().err
    assert main(["export-attention", "--config", str(conf), "--checkpoint", ckpt,
                 "--out", str(tmp_path / "att")]) != 0
    assert "fingerprint" in capsys.readouterr().err


@pytest.mark.parametrize("stack, value", [(0, np.nan), (1, -np.inf)])
def test_a_non_finite_cache_value_is_named_by_file_step_and_node(workdir, capsys, stack,
                                                                 value):
    # the fingerprint hashes what shaped a cache, not its values: a value
    # written into it afterwards surfaces only as a non-finite layer output,
    # whose node's cached rows the model then reads to name the entry
    tmp_path, conf, cache_dir = workdir
    _train(conf, capsys)
    path = cache_paths(parse_config(conf))[stack]
    mats = np.load(path, mmap_mode="r+")  # the stack, the cache's first record
    mats[2, 5, 1] = value
    mats[3, 5, 0] = value  # a later step of the same node: its first bad step is named
    mats.flush()
    del mats
    ckpt = str(cache_dir / "checkpoint.gmck")
    for command in (["eval", "--checkpoint", ckpt],
                    ["export-attention", "--checkpoint", ckpt, "--out", str(tmp_path / "a")],
                    ["train"]):
        if command[0] == "train":
            os.remove(ckpt)
        assert main([command[0], "--config", str(conf), *command[1:]]) == 1
        assert capsys.readouterr().err == (
            f"gamlp: error: {path}: step 2, node 5 holds a non-finite value; "
            "rerun gamlp preprocess\n"), command[0]
    assert not os.path.exists(ckpt)  # a failed train writes no checkpoint


def test_of_two_bad_nodes_the_one_the_run_fails_on_is_named(workdir, capsys):
    # node 5 is a training node and node 3 a test node: train fails in its
    # first step on node 5, while eval and export-attention run every node
    # and fail on node 3 first; the other node's earlier bad step is not named
    tmp_path, conf, cache_dir = workdir
    _train(conf, capsys)
    config = parse_config(conf)
    splits = load_dataset(config.dataset_dir).splits
    assert 5 in splits.train and 3 in splits.test
    path = cache_paths(config)[0]
    mats = np.load(path, mmap_mode="r+")
    mats[1, 5, 0] = np.nan
    mats[2, 3, 0] = np.nan
    mats.flush()
    del mats
    ckpt = str(cache_dir / "checkpoint.gmck")
    for command, named in ((["eval", "--checkpoint", ckpt], "step 2, node 3"),
                           (["export-attention", "--checkpoint", ckpt, "--out",
                             str(tmp_path / "a")], "step 2, node 3"),
                           (["train"], "step 1, node 5")):
        if command[0] == "train":
            os.remove(ckpt)
        assert main([command[0], "--config", str(conf), *command[1:]]) == 1
        assert capsys.readouterr().err == (
            f"gamlp: error: {path}: {named} holds a non-finite value; "
            "rerun gamlp preprocess\n"), command[0]
    assert not os.path.exists(ckpt)


@pytest.fixture
def fixture60(tmp_path, capsys):
    """(tmp_path, config, checkpoint) of the 60-node fixture of
    ``scripts/make_sbm_fixture.py``, preprocessed and trained."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_sbm_fixture.py"
    conf = tmp_path / "sbm.conf"
    subprocess.run([sys.executable, str(script), "--out", str(tmp_path / "sbm"),
                    "--config-out", str(conf)], capture_output=True, check=True,
                   env={**os.environ, "PYTHONPATH": str(Path(gamlp.model.__file__).parents[1])})
    assert main(["preprocess", "--config", str(conf)]) == 0
    assert main(["train", "--config", str(conf)]) == 0
    capsys.readouterr()
    return tmp_path, conf, str(tmp_path / "cache" / "sbm" / "checkpoint.gmck")


def _write_cache_row(conf, step: int, node: int, value: float) -> Path:
    """Set every value of ``node`` at ``step`` of the feature cache; returns its path."""
    path = cache_paths(parse_config(conf))[0]
    mats = np.load(path, mmap_mode="r+")  # the stack, the cache's first record
    mats[step, node] = value
    mats.flush()
    del mats
    return path


def test_a_finite_cache_value_that_overflows_is_named_by_node_and_step(fixture60, capsys):
    # 3e38 is finite in float32, so no cache value is non-finite; node 5 (a
    # test node, which fit never reads) overflows the first encoder layer,
    # and an eval-mode run over the fitted model traces it back to the cache
    tmp_path, conf, ckpt = fixture60
    path = _write_cache_row(conf, 2, 5, 3e38)
    for command in (["eval", "--checkpoint", ckpt],
                    ["export-attention", "--checkpoint", ckpt, "--out", str(tmp_path / "a")],
                    ["train"]):
        if command[0] == "train":
            os.remove(ckpt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would fail the run
            assert main([command[0], "--config", str(conf), *command[1:]]) == 1
        assert capsys.readouterr().err == (
            f"gamlp: error: {path}: node 5 makes the model's output non-finite; its "
            "largest cached magnitude is 3e+38, at step 2; check the input scaling or "
            "rerun gamlp preprocess\n"), command[0]
    assert not os.path.exists(ckpt)


def test_an_overflow_inside_fit_keeps_the_divergence_message(fixture60, capsys):
    _, conf, ckpt = fixture60
    os.remove(ckpt)
    # node 0 is a training node: the first step's gradient of the scoring
    # vector overflows, and fit names that gradient and the training step,
    # with its epoch and lr, before Adam spreads it to the parameters
    _write_cache_row(conf, 2, 0, 3e38)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == (
        "gamlp: error: non-finite gradient of feat.s in a training step at epoch 1 "
        "(lr=0.01); reduce the learning rate or check the input scaling\n")
    assert not os.path.exists(ckpt)


def test_a_finite_overflow_of_adams_moments_trains_without_a_warning(fixture60, capsys):
    # node 0 is a training node: its gradients stay finite, but their squares
    # overflow Adam's second moment in float32, which is not a failure
    _, conf, ckpt = fixture60
    _write_cache_row(conf, 2, 0, 1e20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(conf)]) == 0
    assert capsys.readouterr().err == ""


def test_an_overflow_in_the_validation_pass_is_named_once_with_its_epoch(fixture60, capsys):
    # a finite value on a validation node overflows fit's validation pass:
    # one sentence names the node, the epoch and lr, and gives fit's advice
    _, conf, ckpt = fixture60
    os.remove(ckpt)
    node = int(load_dataset(parse_config(conf).dataset_dir).splits.val[0])
    path = _write_cache_row(conf, 2, node, 3e38)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == (
        f"gamlp: error: {path}: node {node} makes the model's output non-finite in the "
        "validation pass at epoch 1 (lr=0.01); reduce the learning rate or check the input "
        "scaling\n")
    assert not os.path.exists(ckpt)


@pytest.mark.parametrize("name, value", [("feat_mlp.0.w", np.nan), ("feat.s", np.inf)])
def test_a_non_finite_checkpoint_parameter_is_refused_by_name(fixture60, capsys, name,
                                                              value):
    # the parameter, not the cache it runs over, is at fault
    tmp_path, conf, ckpt = fixture60
    with np.load(ckpt, allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    arrays[f"param/{name}"].flat[0] = value
    with open(ckpt, "wb") as f:
        np.savez(f, **arrays)
    for command in (["eval"], ["export-attention", "--out", str(tmp_path / "a")]):
        assert main([command[0], "--config", str(conf), "--checkpoint", ckpt,
                     *command[1:]]) == 1
        assert capsys.readouterr().err == (
            f"gamlp: error: {ckpt}: checkpoint parameter {name!r} holds a non-finite "
            "value; run 'gamlp train' again\n"), command[0]


def test_export_attention_rows_equal_the_per_weight_formula(fixture60):
    # the rows are built by whole-array tolist; their CSV bytes equal those
    # of rows built with an int() and a float() per value
    tmp_path, conf, ckpt = fixture60
    assert main(["export-attention", "--config", str(conf), "--checkpoint", ckpt,
                 "--out", str(tmp_path / "new")]) == 0
    config = parse_config(conf)
    dataset = load_dataset(config.dataset_dir)
    fs, ls = load_stacks(dataset, config)
    model = gamlp.model.restore_model(ckpt, config, fs, ls)
    weights = np.concatenate([w for _, w in gamlp.model._stack_blocks(model, fs, ls, None)])
    degrees = dataset.graph.degrees()
    rows = [[int(i), int(degrees[i])] + [float(v) for v in weights[i]]
            for i in range(weights.shape[0])]
    _, buckets = gamlp.model.export_attention(model, fs, ls, degrees, [(1, 4), (5, 8), (9, 12)])
    gamlp.model.write_attention_csv(rows, buckets, tmp_path / "old_nodes.csv",
                                    tmp_path / "old_buckets.csv", fs.steps)
    assert len(rows) == 60
    for part in ("nodes", "buckets"):
        assert ((tmp_path / f"new_{part}.csv").read_bytes()
                == (tmp_path / f"old_{part}.csv").read_bytes()), part


def test_a_divergence_over_finite_caches_keeps_its_message(workdir, capsys, monkeypatch):
    _, conf, _ = workdir
    assert main(["preprocess", "--config", str(conf)]) == 0

    def diverge(*args, **kwargs):
        raise gamlp.model.TrainingDiverged("non-finite loss at epoch 3")

    monkeypatch.setattr(gamlp.model, "fit", diverge)
    assert main(["train", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == "gamlp: error: non-finite loss at epoch 3\n"


def test_preprocess_idempotent_byte_identical(workdir):
    _, conf, cache_dir = workdir
    assert main(["preprocess", "--config", str(conf)]) == 0
    blobs = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
    assert main(["preprocess", "--config", str(conf)]) == 0
    for p in cache_dir.iterdir():
        assert p.read_bytes() == blobs[p.name]


@pytest.fixture
def thread_env(monkeypatch):
    """Unset the variables ``--threads`` exports, and restore them after the test.

    ``setenv`` before ``delenv`` makes monkeypatch record a variable that
    was unset, so one the test sets is removed again afterwards.
    """
    for var in ("GAMLP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)
    return monkeypatch


def test_preprocess_threads_do_not_change_the_caches(workdir, thread_env):
    _, conf, cache_dir = workdir
    # 64-byte chunks, so that these 40-node products are cut into row blocks
    thread_env.setattr(graph, "_CHUNK_BYTES", 64)
    assert main(["preprocess", "--config", str(conf)]) == 0
    blobs = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
    # two .npy caches and nothing else
    assert sorted(p.suffix for p in cache_dir.iterdir()) == [".npy"] * 2
    for threads in ("1", "3"):
        assert main(["preprocess", "--config", str(conf), "--threads", threads]) == 0
        assert os.environ["GAMLP_THREADS"] == threads
        assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == blobs


def test_cache_invalidated_by_fingerprint(workdir, tmp_path, capsys):
    _, conf, cache_dir = workdir
    assert main(["preprocess", "--config", str(conf)]) == 0
    # different dataset under the same path -> train must refuse the stale cache
    other = generate_sbm([20, 20], 0.3, 0.03, 5, 2.0, seed=99, name="sbm")
    save_dataset(other, tmp_path / "data")
    assert main(["train", "--config", str(conf)]) != 0
    assert "fingerprint" in capsys.readouterr().err


def test_sweep_and_ablate_cli(workdir, capsys):
    tmp_path, conf, _ = workdir
    out_prefix = tmp_path / "reports" / "depth"
    code = main(["sweep", "--config", str(conf), "--kind", "depth", "--levels", "0,2",
                 "--methods", "sgc", "--runs", "1", "--out", str(out_prefix)])
    assert code == 0
    assert out_prefix.with_suffix(".csv").exists()
    assert out_prefix.with_suffix(".json").exists()
    code = main(["ablate", "--config", str(conf), "--which", "label_use", "--runs", "1",
                 "--out", str(tmp_path / "reports" / "labels")])
    assert code == 0
    out = capsys.readouterr().out
    assert "plain_label" in out


def test_edge_sweep_cli(workdir):
    tmp_path, conf, _ = workdir
    code = main(["sweep", "--config", str(conf), "--kind", "edge",
                 "--levels", "0,0.5", "--methods", "sgc", "--runs", "1",
                 "--out", str(tmp_path / "reports" / "edge")])
    assert code == 0


@pytest.mark.parametrize("kind, levels, bad", [("depth", "0,,2", "''"),
                                               ("edge", "0,x", "'x'")])
def test_sweep_rejects_malformed_levels_before_loading(workdir, capsys, monkeypatch,
                                                        kind, levels, bad):
    tmp_path, conf, _ = workdir
    loads = []
    monkeypatch.setattr("gamlp.data.load_dataset", loads.append)
    code = main(["sweep", "--config", str(conf), "--kind", kind, "--levels", levels,
                 "--methods", "sgc", "--out", str(tmp_path / "reports" / kind)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "--levels" in err[0] and bad in err[0]
    assert loads == []


@pytest.mark.parametrize("runs", ["0", "-2"])
@pytest.mark.parametrize("command", [["sweep", "--kind", "depth", "--levels", "1",
                                      "--methods", "sgc"], ["ablate", "--which", "label_use"]])
def test_sweep_and_ablate_reject_runs_below_one_before_loading(workdir, capsys, monkeypatch,
                                                               command, runs):
    tmp_path, conf, _ = workdir
    loads = []
    monkeypatch.setattr("gamlp.data.load_dataset", loads.append)
    out = tmp_path / "reports" / command[0]
    assert main([command[0], "--config", str(conf), *command[1:], "--runs", runs,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"gamlp: error: --runs: got {runs}; "
                                       "expected at least 1 run\n")
    assert loads == [] and not out.parent.exists()


def test_export_attention_cli(workdir):
    tmp_path, conf, cache_dir = workdir
    main(["preprocess", "--config", str(conf)])
    main(["train", "--config", str(conf)])
    prefix = tmp_path / "att"
    code = main(["export-attention", "--config", str(conf),
                 "--checkpoint", str(cache_dir / "checkpoint.gmck"),
                 "--out", str(prefix), "--buckets", "1-4,5-8,9-12"])
    assert code == 0
    nodes = (tmp_path / "att_nodes.csv").read_text().splitlines()
    assert nodes[0].startswith("node,degree,w0")
    assert len(nodes) == 41
    buckets = (tmp_path / "att_buckets.csv").read_text().splitlines()
    assert buckets[0].startswith("degree_range,count,w0")


def test_outputs_go_into_missing_nested_directories(workdir, capsys):
    tmp_path, conf, _ = workdir
    assert main(["preprocess", "--config", str(conf)]) == 0
    ckpt = tmp_path / "runs" / "a" / "ck.gmck"
    assert main(["train", "--config", str(conf), "--checkpoint", str(ckpt)]) == 0
    assert ckpt.is_file() and (ckpt.parent / "ck.gmck.log.jsonl").is_file()
    prefix = tmp_path / "exports" / "b" / "att"
    assert main(["export-attention", "--config", str(conf), "--checkpoint", str(ckpt),
                 "--out", str(prefix)]) == 0
    assert sorted(p.name for p in prefix.parent.iterdir()) == ["att_buckets.csv",
                                                               "att_nodes.csv"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("spec, bad", [("1-4,5", "5"), ("1-4,", ""), ("a-b", "a-b"),
                                       ("8-5", "8-5"), ("-3", "-3")])
def test_export_attention_rejects_malformed_buckets(workdir, capsys, spec, bad):
    tmp_path, conf, cache_dir = workdir
    code = main(["export-attention", "--config", str(conf),
                 "--checkpoint", str(cache_dir / "checkpoint.gmck"),
                 "--out", str(tmp_path / "att"), "--buckets", spec])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert repr(bad) in err[0] and "lo-hi" in err[0] and "lo <= hi" in err[0]
    assert not (tmp_path / "att_buckets.csv").exists()


def test_seed_override(workdir, capsys):
    _, conf, cache_dir = workdir
    main(["preprocess", "--config", str(conf)])
    capsys.readouterr()
    assert main(["train", "--config", str(conf), "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["train", "--config", str(conf), "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first.splitlines()[0] == second.splitlines()[0]


def test_a_negative_seed_override_fails_before_any_work(workdir, capsys):
    _, conf, cache_dir = workdir
    for command in ("preprocess", "train"):
        assert main([command, "--config", str(conf), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "gamlp: error: --seed: seed must be nonnegative\n"
        assert main([command, "--config", str(conf), "--cache-dir", ""]) == 1
        assert (capsys.readouterr().err
                == "gamlp: error: --cache-dir: cache_dir must not be empty\n")
    assert not cache_dir.exists()


def test_threads_env_plumbing(thread_env):
    from gamlp.cli import _build_parser, _set_threads

    def parsed(*flags):
        return _build_parser().parse_args(["preprocess", "--config", "c", *flags]).threads

    thread_env.setenv("GAMLP_THREADS", "2")
    _set_threads(parsed())
    assert os.environ["OMP_NUM_THREADS"] == "2"
    _set_threads(parsed("--threads", "4"))
    assert os.environ["OMP_NUM_THREADS"] == "4"
    _set_threads(parsed("--threads=3"))
    assert os.environ["OMP_NUM_THREADS"] == "3"
    # the propagation threads follow the flag too
    assert os.environ["GAMLP_THREADS"] == "3"


@pytest.mark.parametrize("command, flags, env", [
    ("preprocess", ["--threads", "0"], None),
    ("train", ["--threads", "0"], None),
    ("eval", ["--checkpoint", "c.gmck", "--threads", "-3"], None),
    ("train", [], "abc")], ids=["preprocess-0", "train-0", "eval--3", "train-env-abc"])
def test_a_bad_thread_count_is_refused_before_any_handler(workdir, thread_env, capsys,
                                                          command, flags, env):
    _, conf, _ = workdir
    loads = []
    thread_env.setattr("gamlp.data.load_dataset", loads.append)
    if env is not None:
        thread_env.setenv("GAMLP_THREADS", env)
    assert main([command, "--config", str(conf), *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("gamlp: error: ") and "positive integer" in err[0]
    assert loads == []
    assert os.environ.get("OMP_NUM_THREADS") is None


def test_parsing_the_command_line_loads_no_numpy():
    # the thread variables are exported after parsing, so parsing must not
    # load the numerics libraries that read them
    code = ("import sys; from gamlp import cli; "
            "cli._build_parser().parse_args(['train', '--config', 'c', '--threads', '2']); "
            "print('numpy' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("part", ["val", "test"])
def test_train_reports_an_empty_split_as_not_available(workdir, capsys, part):
    tmp_path, conf, cache_dir = workdir
    (tmp_path / "data" / "splits" / f"{part}.txt").write_text("")
    assert main(["preprocess", "--config", str(conf)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(conf)]) == 0
    out = capsys.readouterr().out.splitlines()
    val, test = out[0].removeprefix("best val accuracy ").split(", test accuracy ")
    assert (val == "n/a (0 nodes)") == (part == "val")
    assert (test == "n/a (0 nodes)") == (part == "test")
    assert (cache_dir / "checkpoint.gmck").exists()


def test_eval_counts_and_scores_only_labeled_nodes(workdir, capsys):
    tmp_path, conf, cache_dir = workdir
    data_dir = tmp_path / "data"
    val = np.loadtxt(data_dir / "splits" / "val.txt", dtype=np.int64, ndmin=1)
    lines = (data_dir / "labels.tsv").read_text().splitlines()
    (data_dir / "labels.tsv").write_text("".join(
        f"{line}\n" for line in lines if int(line.split()[0]) != val[0]))
    _train(conf, capsys)
    ckpt = str(cache_dir / "checkpoint.gmck")
    assert main(["eval", "--config", str(conf), "--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("val accuracy ") and out[1].endswith(f"({val.size - 1} nodes)")


def test_eval_reports_an_empty_split_as_not_available(workdir, capsys):
    tmp_path, conf, cache_dir = workdir
    (tmp_path / "data" / "splits" / "val.txt").write_text("")
    _train(conf, capsys)
    ckpt = str(cache_dir / "checkpoint.gmck")
    assert main(["eval", "--config", str(conf), "--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("train accuracy ")
    assert out[1] == "val accuracy n/a (0 nodes)"
    assert out[2].startswith("test accuracy ")
