import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from gamlp import data
from gamlp.data import (Dataset, DatasetError, Splits, drop_edges, generate_sbm,
                        load_dataset, sample_labels_per_class, save_dataset)
from gamlp.graph import build_graph

from conftest import dense_adjacency, neighbors


def write_fixture(root):
    """3-node path dataset with one node per split."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "edges.tsv").write_text("0\t1\n1\t2\n")
    _write_features(root, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    (root / "labels.tsv").write_text("0\t0\n1\t1\n2\t1\n")
    splits = root / "splits"
    splits.mkdir(exist_ok=True)
    (splits / "train.txt").write_text("0\n1\n")
    (splits / "val.txt").write_text("2\n")
    (splits / "test.txt").write_text("")
    return root


@pytest.mark.parametrize("cut", [3, 4])
def test_load_rejects_a_truncated_feature_file(tmp_path, cut):
    # cut mid-value or at a value boundary: either way the file is named
    save_dataset(generate_sbm([5, 5], 0.5, 0.1, 3, 2.0, seed=0, name="sbm"), tmp_path)
    path = tmp_path / "features.bin"
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(DatasetError) as err:
        load_dataset(tmp_path)
    assert str(err.value).startswith(f"{path}: expected 120 bytes")


def _write_features(root, x):
    """Write ``x`` as the features.bin of ``root``."""
    x = np.asarray(x, dtype="<f4")
    path = root / "features.bin"
    path.write_bytes(b"GMFX" + struct.pack("<QQ", *x.shape) + x.tobytes())
    return path


@pytest.mark.parametrize("kind", ["bin"])
def test_load_refuses_a_feature_file_without_rows(tmp_path, kind):
    root = write_fixture(tmp_path / "toy")
    path = _write_features(root, np.zeros((0, 2)))
    with pytest.raises(DatasetError) as err:
        load_dataset(root)
    assert str(err.value) == f"{path}: holds no feature values"


@pytest.mark.parametrize("kind, value", [("bin", np.nan), ("bin", np.inf), ("bin", -np.inf)])
def test_load_refuses_non_finite_features_naming_the_first_node(tmp_path, kind, value):
    root = write_fixture(tmp_path / "toy")
    path = _write_features(root, [[1.0, 0.0], [0.5, value], [value, 1.0]])
    with pytest.raises(DatasetError) as err:
        load_dataset(root)
    assert str(err.value) == f"{path}: non-finite feature value at node 1"


def test_load_fixture_bin(tmp_path):
    ds = load_dataset(write_fixture(tmp_path / "toy"))
    assert ds.n == 3
    assert ds.graph.degrees().tolist() == [1, 2, 1]
    assert ds.num_classes == 2
    assert ds.labels.tolist() == [0, 1, 1]
    assert ds.splits.train.tolist() == [0, 1]
    assert ds.features.shape == (3, 2)
    assert ds.features.dtype == np.float32
    assert ds.features[1, 0] == 0.5


def test_load_reports_line_numbers(tmp_path):
    root = write_fixture(tmp_path / "toy")
    (root / "edges.tsv").write_text("0\t1\nbroken line\n")
    with pytest.raises(DatasetError, match="edges.tsv:2"):
        load_dataset(root)


def test_load_rejects_out_of_range_label(tmp_path):
    root = write_fixture(tmp_path / "toy")
    (root / "labels.tsv").write_text("0\t0\n99\t1\n")
    with pytest.raises(DatasetError, match="99"):
        load_dataset(root)


def test_load_rejects_unlabeled_train_node(tmp_path):
    root = write_fixture(tmp_path / "toy")
    (root / "labels.tsv").write_text("0\t0\n2\t1\n")  # node 1 is in train but unlabeled
    with pytest.raises(DatasetError, match="train node 1"):
        load_dataset(root)


def test_load_rejects_overlapping_splits(tmp_path):
    root = write_fixture(tmp_path / "toy")
    (root / "splits" / "val.txt").write_text("0\n")
    with pytest.raises(DatasetError, match="overlap"):
        load_dataset(root)


def test_load_missing_file(tmp_path):
    root = write_fixture(tmp_path / "toy")
    (root / "labels.tsv").unlink()
    with pytest.raises(DatasetError, match="labels.tsv"):
        load_dataset(root)


@pytest.mark.parametrize("name", ["features.bin", "edges.tsv", "splits/val.txt"])
def test_load_reports_a_missing_file(tmp_path, name):
    root = write_fixture(tmp_path / "toy")
    (root / name).unlink()
    with pytest.raises(DatasetError) as err:
        load_dataset(root)
    assert str(err.value) == f"{root / name}: missing"


def test_round_trip_keeps_raw_self_loops(tmp_path):
    root = write_fixture(tmp_path / "loopy")
    (root / "edges.tsv").write_text("0\t1\n1\t2\n1\t1\n")
    ds = load_dataset(root)
    assert 1 in neighbors(ds.graph, 1)
    save_dataset(ds, tmp_path / "copy")
    again = load_dataset(tmp_path / "copy")
    assert np.array_equal(ds.graph.col_indices, again.graph.col_indices)


def test_save_writes_one_tab_separated_line_per_row(tmp_path):
    graph = build_graph(np.array([[1, 0], [1, 1], [3, 2]]), 4)  # a raw self loop
    ds = Dataset(graph=graph, features=np.ones((4, 2)), labels=np.array([0, 1, -1, 0]),
                 splits=Splits(np.array([0, 1]), np.array([], dtype=np.int64),
                               np.array([3, 2])), num_classes=2).validate()
    save_dataset(ds, tmp_path)
    assert (tmp_path / "edges.tsv").read_bytes() == b"0\t1\n1\t1\n2\t3\n"
    assert (tmp_path / "labels.tsv").read_bytes() == b"0\t0\n1\t1\n3\t0\n"  # node 2 unlabeled
    splits = tmp_path / "splits"
    assert (splits / "train.txt").read_bytes() == b"0\n1\n"
    assert (splits / "val.txt").read_bytes() == b""
    assert (splits / "test.txt").read_bytes() == b"3\n2\n"  # file order is split order


def test_round_trip_identity(tmp_path):
    ds = generate_sbm([8, 7], 0.4, 0.1, 3, 1.0, seed=5, name="sbm")
    save_dataset(ds, tmp_path / "a")
    loaded = load_dataset(tmp_path / "a")
    save_dataset(loaded, tmp_path / "b")
    again = load_dataset(tmp_path / "b")
    assert np.array_equal(loaded.features, again.features)
    assert np.array_equal(loaded.labels, again.labels)
    assert np.array_equal(loaded.graph.col_indices, again.graph.col_indices)
    assert np.array_equal(loaded.graph.row_offsets, again.graph.row_offsets)
    for part in ("train", "val", "test"):
        assert np.array_equal(getattr(loaded.splits, part), getattr(again.splits, part))


@pytest.mark.parametrize("value", [1e39, np.nan])
def test_save_refuses_features_not_finite_in_float32_before_writing(tmp_path, value):
    # 1e39 is finite in float64 but rounds to inf in features.bin
    ds = generate_sbm([5, 5], 0.5, 0.1, 3, 2.0, seed=0, name="sbm")
    ds.features[4, 1] = ds.features[7, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError) as err:
            save_dataset(ds, tmp_path / "out")
    assert str(err.value) == f"{tmp_path / 'out'}: feature value at node 4 is not finite in float32"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Bulk parser parity: every file loads to the same arrays, or fails with the
# same one-line error, whether numpy's bulk parse or the line loop reads it.
# ---------------------------------------------------------------------------

PARITY_N = 12
CLEAN_EDGES = "0\t1\n1\t2\n2\t10\n3\t4\n"
CLEAN_LABELS = "".join(f"{i}\t{i % 3}\n" for i in range(PARITY_N))


def write_parity_fixture(root, edges=CLEAN_EDGES, labels=CLEAN_LABELS,
                         train="0\n1\n2\n3\n", val="4\n5\n", test="6\n7\n8\n"):
    root.mkdir(parents=True, exist_ok=True)
    _write_features(root, [[i, 1.0] for i in range(PARITY_N)])
    (root / "edges.tsv").write_bytes(edges.encode())
    (root / "labels.tsv").write_bytes(labels.encode())
    (root / "splits").mkdir(exist_ok=True)
    for part, text in (("train", train), ("val", val), ("test", test)):
        (root / "splits" / f"{part}.txt").write_bytes(text.encode())
    return root


def load_by_line(root, monkeypatch):
    """load_dataset with the bulk parse disabled, so only the line loop reads."""
    with monkeypatch.context() as m:
        m.setattr(data, "_read_table", lambda path, columns: None)
        return load_dataset(root)


PARSE_CASES = {
    "blank lines": dict(edges="0\t1\n\n1\t2\n\n", train="0\n\n1\n2\n3\n"),
    "whitespace-only line": dict(edges="0\t1\n   \n1\t2\n", labels=CLEAN_LABELS + " \t \n"),
    "trailing tab": dict(edges="0\t1\t\n1\t2\n", labels="0\t0\t\n" + CLEAN_LABELS),
    "CRLF": dict(edges=CLEAN_EDGES.replace("\n", "\r\n"),
                 labels=CLEAN_LABELS.replace("\n", "\r\n"), val="4\r\n5\r\n"),
    "plus sign": dict(edges="+0\t+1\n1\t2\n", train="+0\n1\n2\n3\n"),
    "underscore digits": dict(edges="0\t1_0\n1\t2\n", labels=CLEAN_LABELS + "1_1\t1_0\n"),
    "duplicate label line": dict(labels=CLEAN_LABELS + "0\t2\n5\t0\n0\t1\n"),
    "padded fields": dict(edges=" 0 \t 1\n1\t2 \n", test=" 6\n7 \n8\n"),
    "no trailing newline": dict(edges="0\t1\n1\t2", labels=CLEAN_LABELS.rstrip()),
    "empty and blank splits": dict(val="", test="\n\n"),
    "no edges": dict(edges=""),
    "no labels": dict(labels="", train="", val="", test=""),
    "blank labels": dict(labels="\n\r\n\n", train="", val="", test=""),
}


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_bulk_parse_matches_line_loop(tmp_path, monkeypatch, case):
    root = write_parity_fixture(tmp_path / "ds", **PARSE_CASES[case])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty split file must not warn either
        bulk = load_dataset(root)
    loop = load_by_line(root, monkeypatch)
    assert np.array_equal(bulk.graph.row_offsets, loop.graph.row_offsets)
    assert np.array_equal(bulk.graph.col_indices, loop.graph.col_indices)
    assert np.array_equal(bulk.labels, loop.labels) and bulk.num_classes == loop.num_classes
    for part in ("train", "val", "test"):
        assert np.array_equal(getattr(bulk.splits, part), getattr(loop.splits, part))
        assert getattr(bulk.splits, part).dtype == np.int64


def test_integer_files_are_parsed_without_a_whole_file_read(tmp_path, monkeypatch):
    # numpy's parser is the one read of a clean file; an empty or blank
    # labels.tsv loads as all unlabeled
    def no_read(path, *args, **kwargs):
        raise AssertionError(f"{path} read whole")

    monkeypatch.setattr(Path, "read_bytes", no_read)
    monkeypatch.setattr(Path, "read_text", no_read)
    for name in ("no labels", "blank labels"):
        ds = load_dataset(write_parity_fixture(tmp_path / name, **PARSE_CASES[name]))
        assert ds.graph.nnz > 0 and np.all(ds.labels == -1)


def test_parsed_values_of_lenient_inputs(tmp_path):
    ds = load_dataset(write_parity_fixture(tmp_path / "a", **PARSE_CASES["underscore digits"]))
    assert neighbors(ds.graph, 0).tolist() == [10]
    assert ds.labels[11] == 10  # "1_1\t1_0" reads as node 11, class 10
    ds = load_dataset(write_parity_fixture(tmp_path / "b", **PARSE_CASES["duplicate label line"]))
    assert ds.labels[0] == 1 and ds.labels[5] == 0  # the last line for a node wins


PARSE_ERRORS = {
    "float id": (dict(edges="0\t1\n1.5\t2\n"),
                 "edges.tsv", 2, "non-integer id in '1.5\\t2'"),
    "hash text": (dict(edges="# comment\n0\t1\n"),
                  "edges.tsv", 1, "expected 'src<TAB>dst', got '# comment'"),
    "three columns": (dict(edges="0\t1\n1\t2\t3\n"),
                      "edges.tsv", 2, "expected 'src<TAB>dst', got '1\\t2\\t3'"),
    "out-of-range id": (dict(edges="0\t1\n\n2\t12\n"),
                        "edges.tsv", 3, "node id outside [0, 12)"),
    "negative id": (dict(edges="-1\t1\n"), "edges.tsv", 1, "node id outside [0, 12)"),
    "negative class": (dict(labels=CLEAN_LABELS + "3\t-1\n"),
                       "labels.tsv", 13, "class -1 outside [0, 12)"),
    "label node out of range": (dict(labels="99\t1\n"),
                                "labels.tsv", 1, "node id 99 outside [0, 12)"),
    "label float class": (dict(labels="0\t0.5\n"),
                          "labels.tsv", 1, "non-integer value in '0\\t0.5'"),
    "split float id": (dict(val="4\n5.0\n"), "val.txt", 2, "not a node id: '5.0'"),
    "split two columns": (dict(train="0\t1\n"), "train.txt", 1,
                          "not a node id: '0\\t1'"),
    "split id out of range": (dict(val="4\n\n99\n"), "val.txt", 3,
                              "node id 99 outside [0, 12)"),
    "label three columns": (dict(labels="0\t1\t2\n"), "labels.tsv", 1,
                            "expected 'node<TAB>class', got '0\\t1\\t2'"),
    # the first faulty line wins, whichever check finds it
    "out-of-range id before a float id": (dict(edges="0\t1\n2\t12\n3\t4\n1.5\t2\n"),
                                          "edges.tsv", 2, "node id outside [0, 12)"),
    "float id before an out-of-range id": (dict(edges="0\t1\n1.5\t2\n3\t4\n2\t12\n"),
                                           "edges.tsv", 2, "non-integer id in '1.5\\t2'"),
    "negative class before a third column": (dict(labels="0\t-2\n1\t1\n2\t1\t0\n"),
                                             "labels.tsv", 1, "class -2 outside [0, 12)"),
    # every id and class lies in [0, n): one beyond int64 is out of range too
    "edge id beyond int64": (dict(edges="0\t1\n2\t99999999999999999999\n"),
                             "edges.tsv", 2, "node id outside [0, 12)"),
    "label node beyond int64": (dict(labels="99999999999999999999\t0\n"), "labels.tsv", 1,
                                "node id 99999999999999999999 outside [0, 12)"),
    "class beyond int64": (dict(labels=CLEAN_LABELS + "3\t99999999999999999999\n"),
                           "labels.tsv", 13, "class 99999999999999999999 outside [0, 12)"),
    "class at the node count": (dict(labels=CLEAN_LABELS + "3\t12\n"),
                                "labels.tsv", 13, "class 12 outside [0, 12)"),
    "split id beyond int64": (dict(test="6\n-99999999999999999999\n"), "test.txt", 2,
                              "node id -99999999999999999999 outside [0, 12)"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_malformed_input_reports_file_and_line(tmp_path, monkeypatch, case):
    files, name, line, detail = PARSE_ERRORS[case]
    root = write_parity_fixture(tmp_path / "ds", **files)
    with pytest.raises(DatasetError) as bulk:
        load_dataset(root)
    with pytest.raises(DatasetError) as loop:
        load_by_line(root, monkeypatch)
    message = str(bulk.value)
    assert message == str(loop.value)
    path = next(root.rglob(name))
    assert message == f"{path}:{line}: {detail}"
    assert "\n" not in message


@pytest.mark.parametrize("files, message", [
    (dict(train="0\n1\n\n1\n3\n"), "{train}:4: duplicate node id 1 (first on line 2)"),
    (dict(val="4\n\n2\n"), "{val}:3: node id 2 is also on {train}:3 (splits overlap)"),
    (dict(labels="0\t0\n1\t1\n"), "{train}:3: train node 2 has no label in {labels}"),
], ids=["duplicate in one file", "overlap of two files", "truncated labels"])
def test_split_errors_name_the_files_and_lines(tmp_path, monkeypatch, files, message):
    root = write_parity_fixture(tmp_path / "ds", **files)
    paths = {part: root / "splits" / f"{part}.txt" for part in ("train", "val", "test")}
    for load in (load_dataset, lambda root: load_by_line(root, monkeypatch)):
        with pytest.raises(DatasetError) as err:
            load(root)
        assert str(err.value) == message.format(labels=root / "labels.tsv", **paths)


def test_bulk_parse_warning_falls_back_to_line_loop(tmp_path, monkeypatch):
    # numpy < 2 read "1.5" into an integer column with only a DeprecationWarning
    def lenient_loadtxt(fname, dtype=float, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return np.array([[0, 1], [1, 2]])

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    root = write_parity_fixture(tmp_path / "ds", edges="0\t1\n1.5\t2\n")
    with pytest.raises(DatasetError, match="edges.tsv:2: non-integer id"):
        load_dataset(root)


def test_clean_files_take_the_bulk_path(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("line loop used on a clean file")

    monkeypatch.setattr(data, "_read_lines", refuse)
    ds = load_dataset(write_parity_fixture(tmp_path / "ds", val=""))
    assert ds.graph.nnz == 8 and ds.num_classes == 3 and ds.splits.val.size == 0


def test_bulk_parse_matches_line_loop_on_random_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(21)
    for trial in range(5):
        edges = rng.integers(0, PARITY_N, size=(int(rng.integers(1, 80)), 2))
        nodes = rng.integers(0, PARITY_N, size=40)  # repeated nodes: last line wins
        nodes[:PARITY_N] = np.arange(PARITY_N)
        classes = rng.integers(0, 4, size=nodes.size)
        root = write_parity_fixture(
            tmp_path / f"r{trial}", edges="".join(f"{u}\t{v}\n" for u, v in edges),
            labels="".join(f"{u}\t{c}\n" for u, c in zip(nodes, classes)))
        bulk, loop = load_dataset(root), load_by_line(root, monkeypatch)
        assert np.array_equal(bulk.graph.col_indices, loop.graph.col_indices)
        assert np.array_equal(bulk.graph.row_offsets, loop.graph.row_offsets)
        assert np.array_equal(bulk.labels, loop.labels)


# ---------------------------------------------------------------------------
# SBM generator
# ---------------------------------------------------------------------------


def test_sbm_extreme_probabilities():
    ds = generate_sbm([3, 3], 1.0, 0.0, 2, 1.0, seed=0, name="sbm")
    # two 3-cliques: 3 intra edges per block
    assert ds.undirected_edges().shape[0] == 6
    blocks = ds.labels
    for u, v in ds.undirected_edges():
        assert blocks[u] == blocks[v]


def test_sbm_edgeless():
    ds = generate_sbm([4, 4], 0.0, 0.0, 2, 1.0, seed=0, name="sbm")
    assert ds.graph.nnz == 0


def test_sbm_intra_edge_count_within_three_sigma():
    ds = generate_sbm([100, 100], 0.3, 0.02, 4, 1.0, seed=123, name="sbm")
    blocks = ds.labels
    pairs = ds.undirected_edges()
    intra = int(np.sum(blocks[pairs[:, 0]] == blocks[pairs[:, 1]]))
    trials = 2 * (100 * 99 // 2)
    mean = trials * 0.3
    sigma = np.sqrt(trials * 0.3 * 0.7)
    assert abs(intra - mean) <= 3 * sigma


def test_sbm_deterministic_and_feature_separation():
    a = generate_sbm([20, 20], 0.3, 0.05, 4, 3.0, seed=9, name="sbm")
    b = generate_sbm([20, 20], 0.3, 0.05, 4, 3.0, seed=9, name="sbm")
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.graph.col_indices, b.graph.col_indices)
    mean0 = a.features[a.labels == 0].mean(axis=0)
    mean1 = a.features[a.labels == 1].mean(axis=0)
    assert np.linalg.norm(mean0 - mean1) > 2.0


def test_sbm_rejects_bad_probability():
    with pytest.raises(ValueError):
        generate_sbm([3, 3], 1.2, 0.0, 2, 1.0, seed=0, name="sbm")


# ---------------------------------------------------------------------------
# sparsity perturbations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sbm_for_drop():
    return generate_sbm([25, 25], 0.35, 0.1, 3, 1.0, seed=2, name="sbm")


def test_drop_edges_zero_is_identity(sbm_for_drop):
    out = drop_edges(sbm_for_drop, 0.0, seed=1)
    assert np.array_equal(out.graph.col_indices, sbm_for_drop.graph.col_indices)


def test_drop_edges_exact_count(sbm_for_drop):
    m = sbm_for_drop.undirected_edges().shape[0]
    out = drop_edges(sbm_for_drop, 0.5, seed=1)
    assert out.undirected_edges().shape[0] == m - round(0.5 * m)


def test_drop_edges_deterministic_and_symmetric(sbm_for_drop):
    a = drop_edges(sbm_for_drop, 0.3, seed=7)
    b = drop_edges(sbm_for_drop, 0.3, seed=7)
    assert np.array_equal(a.graph.col_indices, b.graph.col_indices)
    dense = dense_adjacency(a.graph)
    assert np.array_equal(dense, dense.T)


def test_drop_edges_rejects_bad_fraction(sbm_for_drop):
    with pytest.raises(ValueError):
        drop_edges(sbm_for_drop, 1.0, seed=0)


def test_sample_labels_per_class_counts(sbm_for_drop):
    out = sample_labels_per_class(sbm_for_drop, 1, seed=3)
    assert out.splits.train.size == sbm_for_drop.num_classes
    classes = out.labels[out.splits.train]
    assert sorted(classes.tolist()) == list(range(sbm_for_drop.num_classes))
    assert np.array_equal(out.splits.val, sbm_for_drop.splits.val)
    assert np.array_equal(out.splits.test, sbm_for_drop.splits.test)


def test_sample_labels_per_class_insufficient(sbm_for_drop):
    with pytest.raises(ValueError):
        sample_labels_per_class(sbm_for_drop, 10 ** 6, seed=0)


def test_sample_labels_deterministic(sbm_for_drop):
    a = sample_labels_per_class(sbm_for_drop, 3, seed=4)
    b = sample_labels_per_class(sbm_for_drop, 3, seed=4)
    assert np.array_equal(a.splits.train, b.splits.train)


def test_dataset_validation_catches_bad_split():
    ds = generate_sbm([5, 5], 0.5, 0.1, 2, 1.0, seed=0, name="sbm")
    bad = Dataset(graph=ds.graph, features=ds.features, labels=ds.labels,
                  splits=Splits(np.array([0]), np.array([99]), np.array([], dtype=int)),
                  num_classes=2)
    with pytest.raises(DatasetError):
        bad.validate()
