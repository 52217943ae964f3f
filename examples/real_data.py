#!/usr/bin/env python3
"""End-to-end analytics on a real graph file (Zachary's karate club).

Shows the MatrixMarket path a user with SuiteSparse matrices would take:
load ``.mtx`` → run the full masked-SpGEMM application stack → save
intermediate results as ``.npz``.

Run:  python examples/real_data.py [path/to/matrix.mtx]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.apps import (
    betweenness_centrality,
    ktruss,
    multi_source_bfs,
    triangle_count_detail,
)
from repro.sparse import load_npz, read_mtx, save_npz

DEFAULT = Path(__file__).parent.parent / "data" / "karate.mtx"


def main() -> None:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT
    g = read_mtx(path)
    print(f"loaded {path.name}: {g.nrows} vertices, {g.nnz // 2} edges")

    bfs = multi_source_bfs(g, [0])
    reached = int((bfs.levels[0] >= 0).sum())
    print(f"\nBFS from vertex 0 reaches {reached}/{g.nrows} vertices "
          f"in {bfs.depth} levels")

    tc = triangle_count_detail(g)
    print(f"triangles: {tc.triangles} "
          f"({tc.counter.flops} masked flops, "
          f"{tc.spgemm_seconds * 1e3:.2f} ms in the masked SpGEMM)")

    for k in (3, 4, 5):
        res = ktruss(g, k)
        print(f"{k}-truss: {res.truss.nnz // 2} edges "
              f"({res.iterations} pruning iterations)")

    bc = betweenness_centrality(g, sources=range(g.nrows))
    top = np.argsort(bc.centrality)[::-1][:5]
    print("top-5 betweenness:",
          [(int(v), round(float(bc.centrality[v] / 2), 1)) for v in top])

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "graph.npz"
        save_npz(out, g)
        again = load_npz(out)
        assert again.equals(g)
        print(f"\nround-tripped through {out.name} "
              f"({out.stat().st_size} bytes compressed)")


if __name__ == "__main__":
    main()
