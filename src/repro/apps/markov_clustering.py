"""Markov Clustering (MCL) — an SpGEMM-driven application [35, 36].

The paper lists Markov clustering among the applications whose backbone is
SpGEMM (Section 2, citing Van Dongen and the HipMCL work of two of the
authors).  MCL alternates:

* **expansion** — ``M = M @ M`` (a plain SpGEMM on column-stochastic M),
* **inflation** — element-wise power ``M .^ r`` followed by column
  re-normalisation,
* **pruning** — drop entries below a threshold (keeping columns stochastic),

until the matrix converges to a doubly-idempotent limit whose connected
structure gives the clusters.

Masked SpGEMM enters through the pruning: since tiny entries are dropped
anyway, the expansion step can be *restricted upfront* to positions likely
to survive — we use the pattern of ``M`` itself plus its strongest
2-hop closure as the mask (``selective expansion``), trading a small
accuracy tolerance for a large flop saving.  The unmasked variant is the
exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..machine import OpCounter
from ..sparse import CSR, pattern_union
from ..core import masked_spgemm, spgemm_saxpy_fast

__all__ = ["markov_clustering", "MCLResult"]


@dataclass
class MCLResult:
    """Clusters plus convergence statistics."""

    clusters: List[np.ndarray]
    labels: np.ndarray  #: cluster id per vertex
    iterations: int
    converged: bool
    flops: int = 0
    counter: OpCounter = field(default_factory=OpCounter)


def _column_normalize(m: CSR) -> CSR:
    rows, cols, vals = m.to_coo()
    colsum = np.zeros(m.ncols)
    np.add.at(colsum, cols, vals)
    colsum[colsum == 0] = 1.0
    return CSR.from_coo(m.shape, rows, cols, vals / colsum[cols])


def _inflate(m: CSR, r: float) -> CSR:
    out = m.copy()
    out.data[:] = np.power(out.data, r)
    return _column_normalize(out)


def _prune(m: CSR, threshold: float) -> CSR:
    return _column_normalize(m.drop_zeros(threshold))


def _connected_components(m: CSR) -> np.ndarray:
    """Union-find over the symmetrised pattern."""
    n = m.nrows
    parent = np.arange(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows, cols, _ = m.to_coo()
    for i, j in zip(rows, cols):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    return np.asarray([find(int(v)) for v in range(n)])


def markov_clustering(
    a: CSR,
    *,
    inflation: float = 2.0,
    prune_threshold: float = 1e-4,
    max_iters: int = 60,
    tol: float = 1e-8,
    selective_expansion: bool = False,
    algo: str = "auto",
    counter: Optional[OpCounter] = None,
) -> MCLResult:
    """Cluster the undirected graph ``a`` with MCL.

    ``selective_expansion=True`` replaces the plain expansion SpGEMM with a
    masked one restricted to ``pattern(M) U pattern(M_strong^2)`` where
    ``M_strong`` keeps each column's heavier half — the flop-saving trick
    enabled by masked SpGEMM.
    """
    if a.nrows != a.ncols:
        raise ValueError("adjacency must be square")
    counter = counter if counter is not None else OpCounter()
    n = a.nrows
    # add self loops (standard MCL initialisation) and normalise
    loops = CSR.from_coo((n, n), np.arange(n), np.arange(n), np.ones(n))
    from ..sparse import ewise_add

    m = _column_normalize(ewise_add(a.pattern(), loops))
    flops = 0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        from ..machine import total_flops

        flops += total_flops(m, m)
        if selective_expansion:
            strong = m.drop_zeros(float(np.median(m.data)) * 0.5)
            hop2 = spgemm_saxpy_fast(strong.pattern(), strong.pattern())
            mask = pattern_union(m.pattern(), hop2.pattern())
            expanded = masked_spgemm(m, m, mask, algo=algo, counter=counter)
        else:
            expanded = spgemm_saxpy_fast(m, m, counter=counter)
        nxt = _prune(_inflate(expanded, inflation), prune_threshold)
        # convergence: stable pattern and values
        if nxt.nnz == m.nnz and nxt.equals(m, rtol=0, atol=tol):
            m = nxt
            converged = True
            break
        m = nxt

    labels_raw = _connected_components(m)
    ids = {r: k for k, r in enumerate(np.unique(labels_raw))}
    labels = np.asarray([ids[r] for r in labels_raw])
    clusters = [np.flatnonzero(labels == k) for k in range(len(ids))]
    return MCLResult(
        clusters=clusters, labels=labels, iterations=it,
        converged=converged, flops=flops, counter=counter,
    )
