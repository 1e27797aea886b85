#!/usr/bin/env python3
"""Generate a synthetic SBM dataset directory (plus a ready-to-run config).

Example:
    python scripts/make_sbm_fixture.py --out data/sbm --config-out sbm.conf
    gamlp preprocess --config sbm.conf
    gamlp train --config sbm.conf
"""

import argparse
import sys
from pathlib import Path

from gamlp.data import generate_sbm, save_dataset

CONFIG_TEMPLATE = """\
dataset_dir = {dataset_dir}
cache_dir = {cache_dir}
hops = 3
hidden = 32
num_layers = 2
label_num_layers = 2
jk_layers = 2
epochs = 150
patience = 50
lr = 0.01
input_dropout = 0
attention_dropout = 0
dropout = 0.1
seed = 0
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="dataset directory to create")
    parser.add_argument("--blocks", default="30,30", help="comma-separated block sizes")
    parser.add_argument("--p-in", type=float, default=0.3)
    parser.add_argument("--p-out", type=float, default=0.02)
    parser.add_argument("--feature-dim", type=int, default=6)
    parser.add_argument("--feature-sep", type=float, default=2.5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--config-out", default=None,
                        help="also write a matching config file here")
    args = parser.parse_args(argv)

    blocks = [int(b) for b in args.blocks.split(",")]
    dataset = generate_sbm(blocks, args.p_in, args.p_out, args.feature_dim,
                           args.feature_sep, args.seed, name=Path(args.out).name)
    save_dataset(dataset, args.out)
    print(f"wrote {args.out}: {dataset.n} nodes, "
          f"{dataset.undirected_edges().shape[0]} undirected edges, "
          f"{dataset.num_classes} classes, "
          f"splits {dataset.splits.train.size}/{dataset.splits.val.size}/"
          f"{dataset.splits.test.size}")
    if args.config_out:
        # absolute, so that the config runs from any working directory
        dataset_dir = Path(args.out).resolve()
        Path(args.config_out).write_text(CONFIG_TEMPLATE.format(
            dataset_dir=dataset_dir, cache_dir=dataset_dir.parent / "cache" / dataset_dir.name))
        print(f"wrote {args.config_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
