"""Seeded O(m) generator of benchmark datasets.

Writes the on-disk dataset layout that ``gamlp.data.load_dataset`` reads
(``edges.tsv``, ``features.bin``, ``labels.tsv``, ``splits/``) directly,
without going through ``gamlp.data``, so that later changes to the
package cannot change the inputs being measured.

The graph is a planted partition drawn edge by edge: each edge picks one
endpoint by node weight and the other from the same class with
probability ``p_in``, else from all nodes. Weights are 1 (near-Poisson
degrees) or Pareto draws (heavy-tailed degrees, Chung-Lu style). The
number of distinct undirected edges is exactly ``edges`` for every seed,
so nnz and every count derived from it repeat across seeds. The file then
gets ``lines - edges`` extra lines that repeat an edge in the same or the
reversed orientation, so the loader's dedupe does real work.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"GMFX"


def _weighted_picks(rng, cum, lo, hi):
    """Indices into ``cum`` drawn with probability proportional to weight.

    ``cum`` is the inclusive cumulative weight; ``lo``/``hi`` bound the
    weight interval of each draw (one pair per draw).
    """
    t = lo + rng.random(lo.shape[0]) * (hi - lo)
    return np.minimum(np.searchsorted(cum, t, side="right"), cum.size - 1)


def _draw_edges(rng, labels, weights, classes, edges, p_in):
    """Exactly ``edges`` distinct undirected pairs (u < v), in draw order."""
    n = labels.size
    order = np.argsort(labels, kind="stable")
    cum = np.cumsum(weights[order])
    class_end = np.searchsorted(labels[order], np.arange(classes), side="right")
    class_hi = cum[class_end - 1]
    class_lo = np.concatenate([[0.0], class_hi[:-1]])
    keys = np.empty(0, dtype=np.int64)
    while keys.size < edges:
        k = int((edges - keys.size) * 1.1) + 16
        u = order[_weighted_picks(rng, cum, np.zeros(k), np.full(k, cum[-1]))]
        c = labels[u]
        intra = rng.random(k) < p_in
        lo = np.where(intra, class_lo[c], 0.0)
        hi = np.where(intra, class_hi[c], cum[-1])
        v = order[_weighted_picks(rng, cum, lo, hi)]
        keep = u != v
        a, b = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        keys = np.concatenate([keys, a * n + b])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    return keys[:edges]


def generate(directory, *, seed: int, n: int, classes: int, dim: int, edges: int,
             lines: int, p_in: float = 0.7, heavy_tail: bool = False,
             feature_sep: float = 1.0, train_frac: float = 0.3,
             val_frac: float = 0.2) -> dict:
    """Write one dataset directory; returns its shape statistics.

    Everything written is a pure function of the arguments: the same seed
    gives byte-identical files.
    """
    if lines < edges:
        raise ValueError("lines must be at least the number of distinct edges")
    rng = np.random.default_rng(seed)
    directory = Path(directory)
    (directory / "splits").mkdir(parents=True, exist_ok=True)

    labels = rng.permutation(np.arange(n) % classes)
    weights = rng.pareto(2.0, n) + 1.0 if heavy_tail else np.ones(n)
    keys = _draw_edges(rng, labels, weights, classes, edges, p_in)
    a, b = keys // n, keys % n

    extra = rng.integers(0, edges, lines - edges)
    src = np.concatenate([a, a[extra]])
    dst = np.concatenate([b, b[extra]])
    flip = rng.random(lines) < 0.5
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    perm = rng.permutation(lines)
    with open(directory / "edges.tsv", "w", encoding="utf-8") as f:
        f.write("\n".join(map("{}\t{}".format, src[perm].tolist(), dst[perm].tolist())))
        f.write("\n")

    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes) % dim] = feature_sep
    features = means[labels] + rng.standard_normal((n, dim))
    with open(directory / "features.bin", "wb") as f:
        f.write(FEATURE_MAGIC + struct.pack("<QQ", n, dim))
        f.write(features.astype("<f4").tobytes())

    with open(directory / "labels.tsv", "w", encoding="utf-8") as f:
        f.write("".join(map("{}\t{}\n".format, range(n), labels.tolist())))

    nodes = rng.permutation(n)
    n_train, n_val = round(train_frac * n), round(val_frac * n)
    splits = {"train": nodes[:n_train], "val": nodes[n_train:n_train + n_val],
              "test": nodes[n_train + n_val:]}
    for part, ids in splits.items():
        with open(directory / "splits" / f"{part}.txt", "w", encoding="utf-8") as f:
            f.write("".join(f"{i}\n" for i in np.sort(ids).tolist()))

    degrees = np.bincount(np.concatenate([a, b]), minlength=n)
    q = np.quantile(degrees, [0.0, 0.5, 0.9, 0.99, 1.0])
    return {"n": n, "nnz": 2 * edges, "edges": edges, "edge_lines": lines,
            "classes": classes, "dim": dim, "train": n_train,
            "degree_quantiles": dict(zip(["min", "p50", "p90", "p99", "max"],
                                         [float(x) for x in q]))}
