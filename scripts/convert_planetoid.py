#!/usr/bin/env python3
"""Convert the classic planetoid citation-network files into a dataset directory.

Input: the eight ``ind.<name>.{x,y,tx,ty,allx,ally,graph,test.index}``
files (pickled scipy matrices / numpy arrays plus the plain-text test
index) as distributed with the original planetoid splits for cora,
citeseer and pubmed. Output: the edges.tsv / features.bin / labels.tsv /
splits/ layout this package loads.

Usage:
    python scripts/convert_planetoid.py --raw-dir raw/ --name cora --out data/cora

The gamlp package must be importable (installed, or PYTHONPATH=src): the
directory is written by ``gamlp.data.save_dataset``.

The standard split is reproduced: the first len(y) nodes are training,
the following --val-size nodes are validation, and the test ids come
from test.index. Isolated test nodes absent from test.index (citeseer)
get zero feature rows and stay unlabeled.

Row j of tx/ty belongs to node test.index[j], and test.index is
unsorted: the convention of Kipf & Welling's gcn/utils.py and PyG's
read_planetoid_data, under which the published citation-network
accuracies were measured. Test ids that test.index leaves out are padded
first: tx/ty are widened to the full test-id range, with row j at the
j-th smallest test id and zero rows at the gaps. The permutation
features[test.index] = features[sorted(test.index)] then moves row j to
node test.index[j]; the padded rows stay where they are.
"""

import argparse
import pickle
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from gamlp.data import Dataset, Splits, save_dataset
from gamlp.graph import build_graph


def _load_pickle(path: Path):
    with open(path, "rb") as f:
        return pickle.load(f, encoding="latin1")


def load_planetoid(raw_dir: Path, name: str):
    parts = {}
    for suffix in ("x", "y", "tx", "ty", "allx", "ally", "graph"):
        path = raw_dir / f"ind.{name}.{suffix}"
        if not path.exists():
            raise FileNotFoundError(path)
        parts[suffix] = _load_pickle(path)
    test_idx = np.loadtxt(raw_dir / f"ind.{name}.test.index", dtype=np.int64)
    return parts, test_idx


def assemble(parts, test_idx):
    x, y = parts["x"], parts["y"]
    tx, ty = parts["tx"], parts["ty"]
    allx, ally = parts["allx"], parts["ally"]
    graph = parts["graph"]

    test_sorted = np.sort(test_idx)
    span = np.arange(test_sorted.min(), test_sorted.max() + 1)
    if span.size != test_sorted.size:
        # isolated test nodes missing from test.index: pad with zero rows
        tx_ext = sp.lil_matrix((span.size, x.shape[1]), dtype=np.float32)
        tx_ext[test_sorted - span[0], :] = tx
        tx = tx_ext.tocsr()
        ty_ext = np.zeros((span.size, y.shape[1]), dtype=ty.dtype)
        ty_ext[test_sorted - span[0], :] = ty
        ty = ty_ext

    features = sp.vstack([allx, tx]).tolil()
    features[test_idx, :] = features[test_sorted, :]
    features = np.asarray(features.todense(), dtype=np.float32)

    onehot = np.vstack([ally, ty])
    onehot[test_idx, :] = onehot[test_sorted, :]
    labels = np.where(onehot.sum(axis=1) > 0, onehot.argmax(axis=1), -1).astype(np.int64)

    n = features.shape[0]
    edges = sorted({(min(u, v), max(u, v))
                    for u, nbrs in graph.items() for v in nbrs
                    if u != v and u < n and v < n})
    return features, labels, edges, n, len(y)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--raw-dir", required=True, help="directory with the ind.* files")
    parser.add_argument("--name", required=True, help="dataset name, e.g. cora")
    parser.add_argument("--out", required=True, help="output dataset directory")
    parser.add_argument("--val-size", type=int, default=500)
    args = parser.parse_args(argv)

    parts, test_idx = load_planetoid(Path(args.raw_dir), args.name)
    features, labels, edges, n, n_train = assemble(parts, test_idx)
    train_ids = np.arange(n_train)
    val_ids = np.arange(n_train, n_train + args.val_size)
    test_ids = np.sort(test_idx)
    dataset = Dataset(graph=build_graph(edges, n), features=features, labels=labels,
                      splits=Splits(train_ids, val_ids, test_ids),
                      num_classes=int(labels.max()) + 1, name=args.name)
    save_dataset(dataset, Path(args.out))
    print(f"wrote {args.out}: {n} nodes, {len(edges)} undirected edges, "
          f"{features.shape[1]} features, splits {n_train}/{args.val_size}/{test_ids.size}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
