#!/usr/bin/env python3
"""Null-model pipeline: how much hierarchy do random tables fake?

Generates a seeded uniform random table shaped like a document-term
matrix, embeds it with correspondence analysis, keeps a handful of
column points, and then asks how strongly different linkage criteria
agree about triplet structure on those points. Since the input has no
structure at all, the off-diagonal agreement counts give a baseline for
reading agreement tables computed on real data: anything a real corpus
produces has to clear what noise produces for free.

Run with no arguments for the default 139x2000 table, or shrink it for
a quick look:

    python3 scripts/mirror_pipeline.py --rows 40 --cols 200 --columns 12
"""

import argparse
import gc
import sys
import time

import numpy as np

from umtk.consensus import consensus_table
from umtk.corpus import random_mirror
from umtk.matrices import euclidean_distances
from umtk.spectral import correspondence_analysis, select_columns
from umtk.triplets import triplet_count
from umtk.ultrametricity import DEFAULT_EPSILON, alpha_epsilon


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=139)
    parser.add_argument("--cols", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--columns", type=int, default=30,
                        help="how many column points to keep after the embedding")
    parser.add_argument("--criteria", default="ward,average,single,complete,mcquitty",
                        help="comma-separated linkage criteria for the table")
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                        help="base-angle tolerance for the angle coefficient")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
    if args.columns < 3:
        sys.exit("need at least 3 columns to form triplets")

    t0 = time.perf_counter()
    table = random_mirror(args.rows, args.cols, args.seed)
    ca = correspondence_analysis(table)
    print(f"table {args.rows}x{args.cols}, seed {args.seed} "
          f"-> {ca.row_coords.dim} embedding axes")

    chosen = select_columns(ca, table.col_labels[: args.columns])
    d = euclidean_distances(chosen)
    n_triplets = triplet_count(args.columns)

    alpha = alpha_epsilon(chosen, args.epsilon)
    print(f"angle coefficient on the {args.columns} kept columns: "
          f"{alpha.alpha:.4f} ({alpha.counted} triplets, "
          f"{alpha.excluded_degenerate} degenerate, epsilon {args.epsilon:g})")

    result = consensus_table(d, criteria)
    elapsed = time.perf_counter() - t0

    width = max(len(c) for c in criteria)
    header = " " * (width + 2) + "  ".join(f"{c:>{width}}" for c in criteria)
    print(f"\ntriplet agreement counts out of {n_triplets}:")
    print(header)
    for name, row in zip(criteria, result.counts):
        cells = "  ".join(f"{int(v):>{width}}" for v in row)
        print(f"{name:>{width}}  {cells}")

    off = result.counts[~np.eye(len(criteria), dtype=bool)]
    print(f"\noff-diagonal range: {off.min()} .. {off.max()} "
          f"({off.min() / n_triplets:.1%} .. {off.max() / n_triplets:.1%})")
    print(f"done in {elapsed:.2f}s")


if __name__ == "__main__":
    # import-time objects are never garbage: frozen, no collection walks them, not even at exit
    gc.freeze()
    main()
