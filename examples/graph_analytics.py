#!/usr/bin/env python3
"""Graph analytics through the one masked-product entry point.

The paper's benchmark harness swaps masked-SpGEMM algorithms behind
GraphBLAS's one `mxm` call (Section 7); here that call is
`masked_spgemm(A, B, M, algo=...)`.  This example shows it end-to-end:

* triangle counting as one masked product and a reduction, for several
  algorithms and `algo="auto"`,
* the mask's effect against the unmasked product,
* direction-optimized BFS (masked SpMV push-pull),
* Markov clustering of a modular graph.

Run:  python examples/graph_analytics.py
"""

import numpy as np

from repro.apps import direction_optimized_bfs, markov_clustering
from repro.core import masked_spgemm, spgemm_saxpy_fast
from repro.graphs import block_diagonal_dense, rmat
from repro.semiring import PLUS_PAIR
from repro.sparse import reduce_sum


def triangle_counting() -> None:
    g = rmat(10, seed=1)
    print(f"=== triangle counting via masked_spgemm (n={g.nrows}) ===")
    low = g.tril(-1)
    for algo in ("msa", "mca", "inner", "auto"):
        c = masked_spgemm(low, low, low, algo=algo, semiring=PLUS_PAIR)
        print(f"  algo={algo:7s} triangles = {int(reduce_sum(c))}")


def masked_vs_unmasked() -> None:
    low = rmat(9, seed=2).tril(-1)
    full = spgemm_saxpy_fast(low, low)  # no mask: full product
    masked = masked_spgemm(low, low, low)
    print(f"\n=== the mask's effect ===\n"
          f"  unmasked product: {full.nnz} entries\n"
          f"  masked product:   {masked.nnz} entries "
          f"({masked.nnz / max(1, full.nnz):.1%} kept)")


def bfs_push_pull() -> None:
    g = rmat(11, seed=3)
    hub = int(np.argmax(g.row_nnz()))
    res = direction_optimized_bfs(g, hub)
    print(f"\n=== direction-optimized BFS from hub {hub} ===")
    print(f"  levels used: {res.directions} (depth {res.depth})")
    reached = int((res.levels >= 0).sum())
    print(f"  reached {reached}/{g.nrows} vertices")


def clustering() -> None:
    g = block_diagonal_dense(5, 16, seed=4, fill=0.7)
    res = markov_clustering(g)
    sizes = sorted(len(c) for c in res.clusters)
    print(f"\n=== Markov clustering (5 planted blocks of 16) ===")
    print(f"  found {len(res.clusters)} clusters of sizes {sizes} "
          f"in {res.iterations} iterations (converged={res.converged})")


def main() -> None:
    triangle_counting()
    masked_vs_unmasked()
    bfs_push_pull()
    clustering()


if __name__ == "__main__":
    main()
