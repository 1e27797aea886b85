"""Dataset loading, serialization, synthesis and sparsity perturbations.

On-disk dataset layout (all little-endian, ids 0-based decimal):

    edges.tsv            one "src<TAB>dst" pair per line, undirected
    features.bin         magic "GMFX", u64 n, u64 f, row-major f32
    features.csv         alternative for small fixtures, one row per node
    labels.tsv           "node<TAB>class" lines
    splits/train.txt     one node id per line (same for val.txt, test.txt)

The integer files (edges, labels, splits) are parsed in bulk: one
``np.loadtxt`` call per file, then vectorised range checks. Whenever that
parse raises or finds an id out of range, the file is read again by one
line loop, ``_read_lines``. That loop is the reference reader for every
integer file: it alone reports errors, as one line naming the file and the
line number (split ids are range-checked there too), and it also accepts
the few inputs numpy rejects (whitespace-only lines, a trailing tab,
``1_0``), so both paths load every file to the same arrays.
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

    Blank lines are skipped, so an empty or blank file gives no rows. Returns
    None when numpy's parser rejects the file or finds another column count;
    the caller then falls back to ``_read_lines``, which reports the error or
    accepts what numpy does not.
    """
    try:
        with warnings.catch_warnings():
            # numpy < 2 parsed float text such as "1.5" into integer columns
            # with only a DeprecationWarning; the loop must reject it instead
            warnings.simplefilter("error", DeprecationWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            table = np.loadtxt(path, dtype=np.int64, delimiter="\t", comments=None,
                               ndmin=2, encoding="utf-8")
    except (ValueError, DeprecationWarning):
        return None
    if not table.size:
        return np.empty((0, columns), dtype=np.int64)
    return table if table.shape[1] == columns else None


def _read_features(directory: Path) -> np.ndarray:
    bin_path = directory / "features.bin"
    csv_path = directory / "features.csv"
    if bin_path.exists():
        with open(bin_path, "rb") as f:
            header = f.read(20)
            if len(header) < 20 or header[:4] != _FEAT_MAGIC:
                raise DatasetError(f"{bin_path}: not a feature file (bad magic)")
            n, dim = struct.unpack("<QQ", header[4:])
            payload = f.read()
        if len(payload) != 4 * n * dim:
            raise DatasetError(f"{bin_path}: expected {4 * n * dim} bytes of float32 "
                               f"values after the header, found {len(payload)}")
        return np.frombuffer(payload, dtype="<f4").reshape(n, dim).astype(np.float64)
    if csv_path.exists():
        try:
            x = np.loadtxt(csv_path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as e:
            raise DatasetError(f"{csv_path}: {e}") from None
        return x
    raise DatasetError(f"{directory}: missing features.bin / features.csv")


def _read_lines(path: Path, columns: int, form: str, not_int: str, check) -> np.ndarray:
    """The reference reader: the file's non-blank lines as a (rows, columns)
    int64 array. A wrong column count raises ``form`` and a non-integer field
    ``not_int``, each followed by the line's text; ``check(*ints)`` returns
    the line's range problem, or None."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split("\t")
            if len(parts) != columns:
                raise DatasetError(f"{path}:{line_no}: {form}{text!r}")
            try:
                ints = tuple(map(int, parts))
            except ValueError:
                raise DatasetError(f"{path}:{line_no}: {not_int}{text!r}") from None
            problem = check(*ints)
            if problem:
                raise DatasetError(f"{path}:{line_no}: {problem}")
            rows.append(ints)
    return np.asarray(rows, dtype=np.int64).reshape(-1, columns)


def _read_ints(path: Path, columns: int, form: str, not_int: str, check,
               table_ok) -> np.ndarray:
    """``_read_table``'s bulk parse when numpy takes the file and ``table_ok``
    accepts the (non-empty) table; otherwise ``_read_lines`` reads it."""
    if not path.is_file():
        raise DatasetError(f"{path}: missing")
    table = _read_table(path, columns)
    if table is not None and (not table.size or table_ok(table)):
        return table
    return _read_lines(path, columns, form, not_int, check)


def _read_edges(path: Path, n: int) -> np.ndarray:
    """(m, 2) array of the edge lines' endpoints, in file order."""
    return _read_ints(path, 2, "expected 'src<TAB>dst', got ", "non-integer id in ",
                      lambda u, v: None if 0 <= u < n and 0 <= v < n
                      else f"node id outside [0, {n})",
                      lambda table: table.min() >= 0 and table.max() < n)


def _read_labels(path: Path, n: int) -> np.ndarray:
    """Length-n class vector, -1 for nodes without a line; a later line wins."""
    table = _read_ints(path, 2, "expected 'node<TAB>class', got ", "non-integer value in ",
                       lambda node, cls: f"node id {node} outside [0, {n})"
                       if not 0 <= node < n else f"negative class {cls}" if cls < 0 else None,
                       lambda table: (table[:, 0].min() >= 0 and table[:, 0].max() < n
                                      and table[:, 1].min() >= 0))
    labels = np.full(n, -1, dtype=np.int64)
    order = np.argsort(table[:, 0], kind="stable")
    nodes, classes = table[order, 0], table[order, 1]
    last = np.ones(nodes.size, dtype=bool)
    last[:-1] = nodes[1:] != nodes[:-1]
    labels[nodes[last]] = classes[last]
    return labels


def _read_split(path: Path, n: int) -> np.ndarray:
    """Node ids of one split file, in file order."""
    return _read_ints(path, 1, "not a node id: ", "not a node id: ",
                      lambda i: None if 0 <= i < n else f"node id {i} outside [0, {n})",
                      lambda table: table.min() >= 0 and table.max() < n)[:, 0]


def load_dataset(directory) -> Dataset:
    """Load and validate a dataset directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"{directory}: not a dataset directory")
    features = _read_features(directory)
    n = features.shape[0]

    graph = build_graph(_read_edges(directory / "edges.tsv", n), n)
    labels = _read_labels(directory / "labels.tsv", n)
    splits = Splits(*(_read_split(directory / "splits" / f"{part}.txt", n)
                      for part in ("train", "val", "test")))
    num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0
    return Dataset(graph=graph, features=features, labels=labels, splits=splits,
                   num_classes=num_classes, name=directory.name).validate()


def save_dataset(dataset: Dataset, directory) -> None:
    """Write a dataset in the directory layout that load_dataset reads."""
    directory = Path(directory)
    (directory / "splits").mkdir(parents=True, exist_ok=True)
    np.savetxt(directory / "edges.tsv", dataset.undirected_edges(), fmt="%d", delimiter="\t")
    with open(directory / "features.bin", "wb") as f:
        n, dim = dataset.features.shape
        f.write(_FEAT_MAGIC)
        f.write(struct.pack("<QQ", n, dim))
        f.write(np.ascontiguousarray(dataset.features, dtype="<f4").tobytes())
    labeled = np.flatnonzero(dataset.labels >= 0)
    np.savetxt(directory / "labels.tsv", np.column_stack([labeled, dataset.labels[labeled]]),
               fmt="%d", delimiter="\t")
    for part in ("train", "val", "test"):
        np.savetxt(directory / "splits" / f"{part}.txt", getattr(dataset.splits, part),
                   fmt="%d", delimiter="\t")


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
    graph = build_graph(edges, n)

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
    graph = build_graph(pairs[keep], dataset.n)
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
