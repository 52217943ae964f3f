#!/usr/bin/env python3
"""Graph analytics through the one masked-product entry point.

The paper's benchmark harness swaps masked-SpGEMM algorithms behind
GraphBLAS's one `mxm` call (Section 7); here that call is
`masked_spgemm(A, B, M, algo=...)`.  This example shows it end-to-end:

* triangle counting as one masked product and a reduction, for several
  algorithms and `algo="auto"`,
* the mask's effect against the unmasked product.

Run:  python examples/graph_analytics.py
"""

from repro.core import masked_spgemm, spgemm_saxpy_fast
from repro.graphs import rmat
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


def main() -> None:
    triangle_counting()
    masked_vs_unmasked()


if __name__ == "__main__":
    main()
