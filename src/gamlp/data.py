"""Dataset loading, serialization, synthesis and sparsity perturbations.

On-disk dataset layout (all little-endian, ids 0-based decimal):

    edges.tsv            one "src<TAB>dst" pair per line, undirected
    features.bin         magic "GMFX", u64 n, u64 f, row-major f32
    features.csv         alternative for small fixtures, one row per node
    labels.tsv           "node<TAB>class" lines
    splits/train.txt     one node id per line (same for val.txt, test.txt)

The integer files (edges, labels, splits) are parsed in bulk: one
``np.loadtxt`` call per file, then vectorised range checks. Whenever that
parse raises or finds an id out of range, the file is read again line by
line. That loop is the reference reader: it alone reports errors, as one
line naming the file and the line number, and it also accepts the few
inputs numpy rejects (whitespace-only lines, a trailing tab, ``1_0``), so
both paths load every file to the same arrays.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import CsrGraph, build_graph, unique_sorted

_FEAT_MAGIC = b"GMFX"


class DatasetError(Exception):
    pass


@dataclass
class Splits:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class Dataset:
    graph: CsrGraph           # raw symmetric adjacency, pre-normalization
    features: np.ndarray      # n x f, float64
    labels: np.ndarray        # length n, -1 where unlabeled
    splits: Splits
    num_classes: int
    name: str = ""

    @property
    def n(self) -> int:
        return self.graph.n

    def validate(self) -> "Dataset":
        n = self.n
        if self.features.shape[0] != n:
            raise DatasetError(f"{self.name}: features have {self.features.shape[0]} rows, "
                               f"graph has {n} nodes")
        if self.labels.shape != (n,):
            raise DatasetError(f"{self.name}: labels must be a length-{n} vector")
        all_ids = np.concatenate([self.splits.train, self.splits.val, self.splits.test])
        if all_ids.size and (all_ids.min() < 0 or all_ids.max() >= n):
            raise DatasetError(f"{self.name}: split id outside [0, {n})")
        if unique_sorted(all_ids).size != all_ids.size:
            raise DatasetError(f"{self.name}: splits overlap")
        unlabeled = self.splits.train[self.labels[self.splits.train] < 0]
        if unlabeled.size:
            raise DatasetError(f"{self.name}: train node {int(unlabeled[0])} has no label")
        labeled = self.labels[self.labels >= 0]
        if labeled.size and labeled.max() >= self.num_classes:
            raise DatasetError(f"{self.name}: label {int(labeled.max())} out of range "
                               f"for {self.num_classes} classes")
        return self

    def undirected_edges(self) -> np.ndarray:
        """Unique undirected pairs (u <= v); raw self loops kept."""
        rows = np.repeat(np.arange(self.n), self.graph.degrees())
        cols = self.graph.col_indices
        keep = rows <= cols
        return np.stack([rows[keep], cols[keep]], axis=1)


def _read_table(path: Path, columns: int) -> np.ndarray | None:
    """Bulk-parse a TAB-separated integer file into a (rows, columns) int64 array.

    Blank lines are skipped. Returns None when numpy's parser rejects the
    file or finds another column count; the caller then falls back to its
    line loop, which reports the error or accepts what numpy does not.
    """
    if not path.read_bytes().strip():
        return np.empty((0, columns), dtype=np.int64)
    try:
        with warnings.catch_warnings():
            # numpy < 2 parsed float text such as "1.5" into integer columns
            # with only a DeprecationWarning; the loop must reject it instead
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(path, dtype=np.int64, delimiter="\t", comments=None,
                               ndmin=2, encoding="utf-8")
    except (ValueError, DeprecationWarning):
        return None
    return table if table.shape[1] == columns else None


def _read_id_file(path: Path) -> np.ndarray:
    table = _read_table(path, 1)
    return table[:, 0] if table is not None else _read_id_file_by_line(path)


def _read_id_file_by_line(path: Path) -> np.ndarray:
    ids = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                ids.append(int(text))
            except ValueError:
                raise DatasetError(f"{path}:{line_no}: not a node id: {text!r}") from None
    return np.asarray(ids, dtype=np.int64)


def _read_features(directory: Path) -> np.ndarray:
    bin_path = directory / "features.bin"
    csv_path = directory / "features.csv"
    if bin_path.exists():
        with open(bin_path, "rb") as f:
            header = f.read(20)
            if len(header) < 20 or header[:4] != _FEAT_MAGIC:
                raise DatasetError(f"{bin_path}: not a feature file (bad magic)")
            n, dim = struct.unpack("<QQ", header[4:])
            data = np.frombuffer(f.read(), dtype="<f4")
        if data.size != n * dim:
            raise DatasetError(f"{bin_path}: expected {n * dim} values, found {data.size}")
        return data.reshape(n, dim).astype(np.float64)
    if csv_path.exists():
        try:
            x = np.loadtxt(csv_path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as e:
            raise DatasetError(f"{csv_path}: {e}") from None
        return x
    raise DatasetError(f"{directory}: missing features.bin / features.csv")


def _read_edges(path: Path, n: int) -> np.ndarray:
    """(m, 2) array of the edge lines' endpoints, in file order."""
    table = _read_table(path, 2)
    if table is None or (table.size and (table.min() < 0 or table.max() >= n)):
        return _read_edges_by_line(path, n)
    return table


def _read_edges_by_line(path: Path, n: int) -> np.ndarray:
    edges = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split("\t")
            if len(parts) != 2:
                raise DatasetError(f"{path}:{line_no}: expected 'src<TAB>dst', "
                                   f"got {text!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DatasetError(f"{path}:{line_no}: non-integer id in {text!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise DatasetError(f"{path}:{line_no}: node id outside [0, {n})")
            edges.append((u, v))
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _read_labels(path: Path, n: int) -> np.ndarray:
    """Length-n class vector, -1 for nodes without a line; a later line wins."""
    table = _read_table(path, 2)
    if table is None or (table.size and (table[:, 0].min() < 0 or table[:, 0].max() >= n
                                         or table[:, 1].min() < 0)):
        return _read_labels_by_line(path, n)
    labels = np.full(n, -1, dtype=np.int64)
    order = np.argsort(table[:, 0], kind="stable")
    nodes, classes = table[order, 0], table[order, 1]
    last = np.append(nodes[1:] != nodes[:-1], True)
    labels[nodes[last]] = classes[last]
    return labels


def _read_labels_by_line(path: Path, n: int) -> np.ndarray:
    labels = np.full(n, -1, dtype=np.int64)
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split("\t")
            if len(parts) != 2:
                raise DatasetError(f"{path}:{line_no}: expected 'node<TAB>class', "
                                   f"got {text!r}")
            try:
                node, cls = int(parts[0]), int(parts[1])
            except ValueError:
                raise DatasetError(f"{path}:{line_no}: non-integer value in {text!r}") from None
            if not 0 <= node < n:
                raise DatasetError(f"{path}:{line_no}: node id {node} outside [0, {n})")
            if cls < 0:
                raise DatasetError(f"{path}:{line_no}: negative class {cls}")
            labels[node] = cls
    return labels


def load_dataset(directory) -> Dataset:
    """Load and validate a dataset directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"{directory}: not a dataset directory")
    features = _read_features(directory)
    n = features.shape[0]

    edges_path = directory / "edges.tsv"
    if not edges_path.exists():
        raise DatasetError(f"{edges_path}: missing")
    graph = build_graph(_read_edges(edges_path, n), n, symmetrize=True)

    labels_path = directory / "labels.tsv"
    if not labels_path.exists():
        raise DatasetError(f"{labels_path}: missing")
    labels = _read_labels(labels_path, n)

    splits = Splits(*(_read_id_file(directory / "splits" / f"{part}.txt")
                      for part in ("train", "val", "test")))
    num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0
    return Dataset(graph=graph, features=features, labels=labels, splits=splits,
                   num_classes=num_classes, name=directory.name).validate()


def save_dataset(dataset: Dataset, directory) -> None:
    """Write a dataset in the directory layout that load_dataset reads."""
    directory = Path(directory)
    (directory / "splits").mkdir(parents=True, exist_ok=True)
    with open(directory / "edges.tsv", "w", encoding="utf-8") as f:
        for u, v in dataset.undirected_edges():
            f.write(f"{u}\t{v}\n")
    with open(directory / "features.bin", "wb") as f:
        n, dim = dataset.features.shape
        f.write(_FEAT_MAGIC)
        f.write(struct.pack("<QQ", n, dim))
        f.write(np.ascontiguousarray(dataset.features, dtype="<f4").tobytes())
    with open(directory / "labels.tsv", "w", encoding="utf-8") as f:
        for node in np.flatnonzero(dataset.labels >= 0):
            f.write(f"{node}\t{dataset.labels[node]}\n")
    for part in ("train", "val", "test"):
        with open(directory / "splits" / f"{part}.txt", "w", encoding="utf-8") as f:
            for i in getattr(dataset.splits, part):
                f.write(f"{i}\n")


def generate_sbm(block_sizes, p_in: float, p_out: float, feature_dim: int,
                 feature_sep: float, seed: int,
                 split_fracs=(0.3, 0.2, 0.5), name: str = "sbm") -> Dataset:
    """Stochastic block model with Gaussian block-mean features.

    Block id doubles as the class label. Block means sit ``feature_sep``
    from the origin along distinct axes, so classes overlap heavily for
    small separations and become linearly separable for large ones.
    Splits are stratified by class with the given fractions. Everything
    is a pure function of the arguments and the seed.
    """
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    block_sizes = list(block_sizes)
    n = sum(block_sizes)
    blocks = np.repeat(np.arange(len(block_sizes)), block_sizes)

    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(blocks[iu] == blocks[ju], p_in, p_out)
    keep = rng.random(iu.size) < prob
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    graph = build_graph(edges, n, symmetrize=True)

    means = np.zeros((len(block_sizes), feature_dim))
    for b in range(len(block_sizes)):
        means[b, b % feature_dim] += feature_sep
    features = means[blocks] + rng.standard_normal((n, feature_dim))

    order = rng.permutation(n)
    train, val, test = [], [], []
    for b in range(len(block_sizes)):
        members = order[blocks[order] == b]
        n_train = max(1, int(round(split_fracs[0] * members.size)))
        n_val = max(1, int(round(split_fracs[1] * members.size)))
        train.extend(members[:n_train])
        val.extend(members[n_train:n_train + n_val])
        test.extend(members[n_train + n_val:])
    splits = Splits(np.sort(np.asarray(train, dtype=np.int64)),
                    np.sort(np.asarray(val, dtype=np.int64)),
                    np.sort(np.asarray(test, dtype=np.int64)))
    return Dataset(graph=graph, features=features, labels=blocks.astype(np.int64),
                   splits=splits, num_classes=len(block_sizes), name=name).validate()


def drop_edges(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Remove an exact count round(fraction * m) of undirected edges.

    The removal set is a pure function of (edge set, fraction, seed), so
    every compared method sees precisely the same sparsified graph.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    pairs = dataset.undirected_edges()
    m = pairs.shape[0]
    n_drop = int(round(fraction * m))
    rng = np.random.default_rng(seed)
    dropped = rng.choice(m, size=n_drop, replace=False)
    keep = np.ones(m, dtype=bool)
    keep[dropped] = False
    graph = build_graph(pairs[keep], dataset.n, symmetrize=True)
    return Dataset(graph=graph, features=dataset.features, labels=dataset.labels,
                   splits=dataset.splits, num_classes=dataset.num_classes,
                   name=f"{dataset.name}-edges{fraction:g}").validate()


def sample_labels_per_class(dataset: Dataset, k_per_class: int, seed: int) -> Dataset:
    """Replace the train split with k uniformly sampled nodes per class."""
    rng = np.random.default_rng(seed)
    new_train = []
    for c in range(dataset.num_classes):
        pool = dataset.splits.train[dataset.labels[dataset.splits.train] == c]
        if pool.size < k_per_class:
            raise ValueError(f"class {c} has only {pool.size} labeled train nodes, "
                             f"need {k_per_class}")
        new_train.extend(rng.choice(pool, size=k_per_class, replace=False))
    splits = Splits(np.sort(np.asarray(new_train, dtype=np.int64)),
                    dataset.splits.val, dataset.splits.test)
    return Dataset(graph=dataset.graph, features=dataset.features, labels=dataset.labels,
                   splits=splits, num_classes=dataset.num_classes,
                   name=f"{dataset.name}-k{k_per_class}").validate()
