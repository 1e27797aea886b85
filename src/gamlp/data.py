"""Dataset loading, serialization, synthesis and sparsity perturbations.

On-disk dataset layout (all little-endian, ids 0-based decimal):

    edges.tsv            one "src<TAB>dst" pair per line, undirected
    features.bin         magic "GMFX", u64 n, u64 f, row-major f32
    labels.tsv           "node<TAB>class" lines
    splits/train.txt     one node id per line (same for val.txt, test.txt)

``features.bin`` is the one feature format, and it loads as float32. Features
held in another form, such as a CSV file, enter a dataset through
``np.loadtxt`` and ``save_dataset``, which refuses values not finite in float32.

The integer files (edges, labels, splits) are parsed in bulk: one
``np.loadtxt`` call per file, then one vectorised check that every value,
node id or class, lies in [0, n) for n nodes. When that parse raises or
the check fails, one line loop, ``_read_lines``, reads the file again and
checks each line in turn. The loop is the reference reader: it accepts the
few inputs numpy rejects (whitespace-only lines, a trailing tab, ``1_0``),
so both paths load every file to the same arrays, and every error is one
line naming the file and the first faulty line. The split files are then
checked for repeated ids and unlabeled train nodes, again naming the line.
"""

from __future__ import annotations

import itertools
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import CsrGraph, build_graph, unique_sorted

_FEAT_MAGIC = b"GMFX"
SBM_SPLIT_FRACS = (0.3, 0.2)  # generate_sbm's train and val share of each block; the rest is test


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
    features: np.ndarray      # n x f; float32 from features.bin, float64 from generate_sbm
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
    """The n x f float32 features of features.bin; a missing, malformed or empty
    file, or a NaN or infinity (named by node), raises a DatasetError."""
    path = directory / "features.bin"
    if not path.is_file():
        raise DatasetError(f"{path}: missing")
    with open(path, "rb") as f:
        header = f.read(20)
        if len(header) < 20 or header[:4] != _FEAT_MAGIC:
            raise DatasetError(f"{path}: not a feature file (bad magic)")
        n, dim = struct.unpack("<QQ", header[4:])
        found = os.fstat(f.fileno()).st_size - 20
        if found != 4 * n * dim:
            raise DatasetError(f"{path}: expected {4 * n * dim} bytes of float32 "
                               f"values after the header, found {found}")
        x = np.fromfile(f, dtype="<f4", count=n * dim).reshape(n, dim)
    if x.size == 0:
        raise DatasetError(f"{path}: holds no feature values")
    if not np.isfinite(x).all():
        node = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise DatasetError(f"{path}: non-finite feature value at node {node}")
    return x


def _read_lines(path: Path, columns: int, n: int, form: str, not_int: str, problem):
    """The reference reader: (rows, error) of the file's non-blank lines. It stops
    at the first line with a wrong column count, a non-integer field or a value
    outside [0, ``n``), and returns its DatasetError: ``form`` or ``not_int``,
    then the text, or ``problem(*row)``. No row it keeps can overflow int64."""
    rows, error = [], None
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split("\t")
            if len(parts) != columns:
                error = DatasetError(f"{path}:{line_no}: {form}{text!r}")
                break
            try:
                row = tuple(map(int, parts))
            except ValueError:
                error = DatasetError(f"{path}:{line_no}: {not_int}{text!r}")
                break
            if not all(0 <= v < n for v in row):
                error = DatasetError(f"{path}:{line_no}: {problem(*row)}")
                break
            rows.append(row)
    return np.asarray(rows, dtype=np.int64).reshape(-1, columns), error


def _read_ints(path: Path, columns: int, n: int, form: str, not_int: str,
               problem) -> np.ndarray:
    """The file's rows as a (rows, columns) int64 array, every value in [0, ``n``):
    ``_read_table``'s when numpy takes the file and no value is out of range, else
    ``_read_lines``'s, which raises the first faulty line."""
    if not path.is_file():
        raise DatasetError(f"{path}: missing")
    table = _read_table(path, columns)
    if table is not None and ((table >= 0) & (table < n)).all():
        return table
    table, error = _read_lines(path, columns, n, form, not_int, problem)
    if error is not None:
        raise error
    return table


def _read_edges(path: Path, n: int) -> np.ndarray:
    """(m, 2) array of the edge lines' endpoints, in file order."""
    return _read_ints(path, 2, n, "expected 'src<TAB>dst', got ", "non-integer id in ",
                      lambda u, v: f"node id outside [0, {n})")


def _read_labels(path: Path, n: int) -> np.ndarray:
    """Length-n class vector, -1 for nodes without a line; a later line wins.
    Classes lie in [0, n): a class no node can hold is refused."""
    table = _read_ints(path, 2, n, "expected 'node<TAB>class', got ", "non-integer value in ",
                       lambda node, cls: f"node id {node} outside [0, {n})"
                       if not 0 <= node < n else f"class {cls} outside [0, {n})")
    labels = np.full(n, -1, dtype=np.int64)
    order = np.argsort(table[:, 0], kind="stable")
    nodes, classes = table[order, 0], table[order, 1]
    last = np.ones(nodes.size, dtype=bool)
    last[:-1] = nodes[1:] != nodes[:-1]
    labels[nodes[last]] = classes[last]
    return labels


def _read_split(path: Path, n: int) -> np.ndarray:
    """Node ids of one split file, in file order."""
    return _read_ints(path, 1, n, "not a node id: ", "not a node id: ",
                      lambda i: f"node id {i} outside [0, {n})")[:, 0]


def _line_of(path: Path, row: int) -> int:
    """Line number of the ``row``-th (from 0) non-blank line of ``path``."""
    with open(path, "r", encoding="utf-8") as f:
        lines = (line_no for line_no, line in enumerate(f, start=1) if line.strip())
        return next(itertools.islice(lines, row, None))


def _check_splits(parts: list[np.ndarray], paths: list[Path], labels: np.ndarray,
                  labels_path: Path) -> None:
    """Raise a one-line DatasetError at the split-file line of the first node id
    that an earlier line of the splits already holds, or else of the first
    train node without a label in ``labels_path``."""
    ids = np.concatenate(parts)
    part = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    row = np.concatenate([np.arange(p.size) for p in parts])

    def where(pos: int) -> tuple[Path, int]:
        return paths[part[pos]], _line_of(paths[part[pos]], row[pos])

    if ids.size and (np.diff(np.sort(ids)) == 0).any():
        order = np.argsort(ids, kind="stable")
        repeats = np.flatnonzero(ids[order[1:]] == ids[order[:-1]])
        k = repeats[np.argmin(order[repeats + 1])]  # the earliest repeat, then its first
        (path, line), (first_path, first_line) = where(order[k + 1]), where(order[k])
        detail = (f"duplicate node id {ids[order[k]]} (first on line {first_line})"
                  if path == first_path else
                  f"node id {ids[order[k]]} is also on {first_path}:{first_line} "
                  "(splits overlap)")
        raise DatasetError(f"{path}:{line}: {detail}")
    unlabeled = np.flatnonzero(labels[parts[0]] < 0)  # train ids lead ``ids``
    if unlabeled.size:
        path, line = where(unlabeled[0])
        raise DatasetError(f"{path}:{line}: train node {ids[unlabeled[0]]} has no label "
                           f"in {labels_path}")


def load_dataset(directory) -> Dataset:
    """Load a dataset directory. Every fault is one DatasetError that names the
    file, and the line for the integer files."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"{directory}: not a dataset directory")
    features = _read_features(directory)
    n = features.shape[0]

    graph = build_graph(_read_edges(directory / "edges.tsv", n), n)
    labels = _read_labels(directory / "labels.tsv", n)
    split_paths = [directory / "splits" / f"{part}.txt" for part in ("train", "val", "test")]
    parts = [_read_split(path, n) for path in split_paths]
    _check_splits(parts, split_paths, labels, directory / "labels.tsv")
    num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0
    # the readers and _check_splits cover every check of Dataset.validate
    return Dataset(graph=graph, features=features, labels=labels, splits=Splits(*parts),
                   num_classes=num_classes, name=directory.name)


def save_dataset(dataset: Dataset, directory) -> None:
    """Write a dataset in the directory layout that load_dataset reads. Features
    that are not finite in float32 raise a DatasetError before any file is written."""
    directory = Path(directory)
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf
        features = np.ascontiguousarray(dataset.features, dtype="<f4")
    if not np.isfinite(features).all():
        node = int(np.argmin(np.isfinite(features).all(axis=1)))
        raise DatasetError(f"{directory}: feature value at node {node} is not finite "
                           "in float32")
    (directory / "splits").mkdir(parents=True, exist_ok=True)
    np.savetxt(directory / "edges.tsv", dataset.undirected_edges(), fmt="%d", delimiter="\t")
    with open(directory / "features.bin", "wb") as f:
        f.write(_FEAT_MAGIC)
        f.write(struct.pack("<QQ", *features.shape))
        f.write(features.tobytes())
    labeled = np.flatnonzero(dataset.labels >= 0)
    np.savetxt(directory / "labels.tsv", np.column_stack([labeled, dataset.labels[labeled]]),
               fmt="%d", delimiter="\t")
    for part in ("train", "val", "test"):
        np.savetxt(directory / "splits" / f"{part}.txt", getattr(dataset.splits, part),
                   fmt="%d", delimiter="\t")


def generate_sbm(block_sizes, p_in: float, p_out: float, feature_dim: int,
                 feature_sep: float, seed: int, name: str) -> Dataset:
    """Stochastic block model with Gaussian block-mean features.

    Block id doubles as the class label. Block means sit ``feature_sep``
    from the origin along distinct axes, so classes overlap heavily for
    small separations and become linearly separable for large ones.
    Splits are stratified by class, with SBM_SPLIT_FRACS of each block for
    training and validation and the rest for test. Everything
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
        n_train = max(1, int(round(SBM_SPLIT_FRACS[0] * members.size)))
        n_val = max(1, int(round(SBM_SPLIT_FRACS[1] * members.size)))
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
