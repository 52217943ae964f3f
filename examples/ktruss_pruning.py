#!/usr/bin/env python3
"""k-truss decomposition with iterated masked SpGEMM (paper Section 8.3).

Shows the pruning dynamics the paper exploits: the mask (the current
adjacency) gets sparser every iteration, which is why pull-based schemes
become competitive mid-run.  Prints per-iteration edge counts beside the
flops each round ran — the default decrements the support by two products
over the removed edges where the paper's loop (``delta=None``) multiplies
the whole graph again — the flops metric the paper reports, and a
truss-peeling sweep over k.

Run:  python examples/ktruss_pruning.py
"""

from repro.apps import ktruss
from repro.graphs import load, rmat


def main() -> None:
    g = rmat(11, seed=3)
    print(f"graph: n={g.nrows}, edges={g.nnz // 2}\n")

    # -- one detailed k=5 run ------------------------------------------
    res = ktruss(g, k=5)
    print(f"k=5 truss: {res.truss.nnz // 2} edges after {res.iterations} "
          f"iterations")
    full = ktruss(g, k=5, delta=None)
    print("edges and flops per iteration (default | delta=None):")
    first = res.edges_per_iter[0]
    for i, (e, f, f_full) in enumerate(
        zip(res.edges_per_iter, res.flops_per_iter, full.flops_per_iter), 1
    ):
        bar = "#" * max(1, int(30 * e / first))
        print(f"  iter {i:2d}: {e // 2:>8} edges {f:>10,} | {f_full:>10,} flops  {bar}")
    print(f"total: {res.flops:,} | {full.flops:,} flops, "
          f"{res.total_seconds * 1e3:.1f} | {full.total_seconds * 1e3:.1f} ms")
    # the paper's metric counts the paper's products: the delta=None loop
    gflops = full.flops / max(full.spgemm_seconds, 1e-12) / 1e9
    print(f"\npaper's metric (sum flops / total spgemm time): "
          f"{gflops:.3f} GFLOPS equivalent "
          f"({full.flops:,} flops, {full.spgemm_seconds * 1e3:.1f} ms)")

    # -- truss peeling: how many edges survive at each k? ---------------
    print("\ntruss peeling on rmat-10 (suite):")
    g2 = load("rmat-10")
    for k in range(3, 9):
        r = ktruss(g2, k)
        print(f"  k={k}: {r.truss.nnz // 2:>7} edges "
              f"({r.iterations} iterations)")

    # -- algorithm comparison on one run ---------------------------------
    print("\nper-algorithm timing (k=5, rmat-10):")
    rows = []
    for algo in ("msa", "hash", "mca", "inner"):
        r = ktruss(g2, 5, algo=algo)
        rows.append((algo, r.spgemm_seconds))
    rows.sort(key=lambda x: x[1])
    for algo, secs in rows:
        print(f"  {algo:6s} {secs * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()
