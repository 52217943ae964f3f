"""Single/multi-source shortest paths on the min-plus semiring.

Frontier-driven Bellman–Ford in GraphBLAS style: distances relax through

    cand = frontier (min.+) A

and the next frontier is the set of vertices whose distance improved —
computed with masked SpMV so each step only touches the active frontier's
out-edges.  Exercises the MIN_PLUS semiring end-to-end (the TC/k-truss/BC
apps all use PLUS-monoids).

Edge weights are the stored values of ``a`` (must be non-negative for the
delta-check early exit to be safe; negative edges fall back to full
|V|-round Bellman–Ford semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..machine import OpCounter
from ..semiring import MIN_PLUS
from ..sparse import CSR
from ..core.spmv import masked_spmv_push
from .bfs import source_array

__all__ = ["sssp", "SSSPResult"]


@dataclass
class SSSPResult:
    """Shortest-path distances per source."""

    dist: np.ndarray  #: (n_sources, n) distances; inf if unreachable
    sources: np.ndarray
    rounds: int


def sssp(
    a: CSR,
    sources: Sequence[int],
    *,
    counter: Optional[OpCounter] = None,
    max_rounds: Optional[int] = None,
) -> SSSPResult:
    """Shortest paths from each source over the weighted adjacency ``a``."""
    n = a.nrows
    if a.ncols != n:
        raise ValueError("adjacency must be square")
    if a.nnz and a.data.min() < 0:
        raise ValueError("sssp requires non-negative edge weights")
    sources = source_array(sources, n)
    rounds_cap = max_rounds if max_rounds is not None else n
    dist = np.full((sources.shape[0], n), np.inf)
    total_rounds = 0
    all_mask = np.ones(n, dtype=bool)
    for q, src in enumerate(sources):
        d = dist[q]
        d[src] = 0.0
        frontier = np.zeros(n, dtype=bool)
        frontier[src] = True
        for _ in range(rounds_cap):
            cand, hit = masked_spmv_push(
                a, d, frontier, all_mask, semiring=MIN_PLUS, counter=counter
            )
            improved = hit & (cand < d)
            if not improved.any():
                break
            d[improved] = cand[improved]
            frontier = improved
            total_rounds += 1
    return SSSPResult(dist=dist, sources=sources, rounds=total_rounds)
