"""Multi-source BFS via masked SpGEMM (supplementary application).

Not one of the paper's three benchmarks, but the simplest exercise of the
complemented-mask path ("any multi-source graph traversal where the mask
serves as a filter to avoid rediscovery of previously discovered vertices",
paper Section 1): each BFS level is

    frontier_{d+1} = !visited .* (frontier_d @ A)

on the PLUS_PAIR semiring (any parent counts once — only reachability
matters); ``visited`` is a bitmap each product reads and marks, as in BC
(:func:`repro.core.masked_spgemm.masked_visited`), and ``a`` is checked
once.  Returns the level of every vertex for every source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..machine import OpCounter
from ..semiring import PLUS_PAIR
from ..sparse import CSR
from ..core.kernels import native
from ..core.kernels.msa_kernel import Visited
from ..core.masked_spgemm import masked_visited

__all__ = ["multi_source_bfs", "BFSResult"]


def source_array(sources: Sequence[int], n: int) -> np.ndarray:
    """``sources`` as an int64 array.  A source that is not an integer is
    ``ValueError`` (a cast would truncate ``2.7`` to vertex 2), and so is an
    index outside ``[0, n)`` (a negative one would alias from the end)."""
    given = np.asarray(list(sources))
    if given.size and given.dtype.kind not in "iu":
        raise ValueError(f"sources must be integers, got {given.dtype}")
    sources = given.astype(np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("source out of range")
    return sources


@dataclass
class BFSResult:
    """levels[q, v] = BFS depth of v from sources[q]; -1 if unreachable."""

    levels: np.ndarray
    sources: np.ndarray
    depth: int


def multi_source_bfs(
    a: CSR,
    sources: Sequence[int],
    *,
    algo: str = "auto",
    impl: str = "auto",
    counter: Optional[OpCounter] = None,
) -> BFSResult:
    """Level-synchronous BFS from every source at once (one masked SpGEMM
    per level; the complemented mask is the visited set)."""
    n = a.nrows
    if a.ncols != n:
        raise ValueError("adjacency must be square")
    sources = source_array(sources, n)
    s = sources.shape[0]
    levels = np.full((s, n), -1, dtype=np.int64)
    levels[np.arange(s), sources] = 0

    frontier = CSR.from_coo((s, n), np.arange(s, dtype=np.int64), sources, np.ones(s))
    visited = Visited(frontier.shape, np.arange(s), sources)
    d = 0
    with native.trusted():
        native.validate(native.load(), (a,), True)
        native.trust(a, frontier)
        while frontier.nnz:
            d += 1
            frontier = masked_visited(frontier, a, visited, algo=algo, impl=impl,
                                      semiring=PLUS_PAIR, counter=counter)
            if frontier.nnz == 0:
                d -= 1
                break
            native.trust(frontier)
            levels[frontier.row_ids(), frontier.indices] = d
    return BFSResult(levels=levels, sources=sources, depth=d)
