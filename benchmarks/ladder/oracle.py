"""Independent scipy/NumPy oracles for the ladder's four computations.

Nothing here imports ``repro``: inputs arrive as scipy CSR matrices the
workloads build from the raw ``indptr``/``indices``/``data`` arrays.  Each
function is the multiply-then-mask formulation (paper Fig. 1's baseline),
so the same code doubles as each workload's *canary*: the timed call is
reported as a multiple of what the obvious scipy program costs on the
same inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def masked_product(a, b, m):
    """``M .* (A @ B)`` on (+, x); the mask contributes its pattern only."""
    pat = m.copy()
    pat.data[:] = 1.0
    c = (a @ b).multiply(pat).tocsr()
    c.sort_indices()
    return c


def triangle_count(adj) -> int:
    """Triangles of the undirected graph ``adj`` (symmetric, no self loops)."""
    low = sp.tril(adj, -1, format="csr")
    low.data[:] = 1.0
    return int(round((low @ low).multiply(low).sum()))


def ktruss_edges(adj, k: int):
    """Edge set of the k-truss as a sorted ``row * n + col`` key array."""
    cur = adj.tocsr().copy()
    cur.data[:] = 1.0
    while True:
        support = (cur @ cur).multiply(cur).tocsr()
        support.data = np.where(support.data >= k - 2, 1.0, 0.0)
        support.eliminate_zeros()
        if support.nnz == cur.nnz:
            break
        cur = support
    coo = cur.tocoo()
    return np.sort(coo.row.astype(np.int64) * cur.shape[1] + coo.col)


def betweenness(adj, sources) -> np.ndarray:
    """Batched Brandes on an unweighted graph: unnormalised scores summed
    over ``sources`` (each source's own vertex excluded)."""
    adj = adj.tocsr().copy()
    adj.data[:] = 1.0
    s, n = len(sources), adj.shape[0]
    numsp = np.zeros((s, n))
    numsp[np.arange(s), sources] = 1.0
    levels = [numsp.copy()]
    while True:
        nxt = (sp.csr_matrix(levels[-1]) @ adj).toarray() * (numsp == 0)
        if not nxt.any():
            break
        numsp += nxt
        levels.append(nxt)
    delta = np.zeros((s, n))
    for d in range(len(levels) - 1, 0, -1):
        on = levels[d] > 0
        w = np.where(on, (1.0 + delta) / np.where(on, numsp, 1.0), 0.0)
        back = (sp.csr_matrix(w) @ adj.T.tocsr()).toarray()
        delta += back * (levels[d - 1] > 0) * numsp
    delta[np.arange(s), sources] = 0.0
    return delta.sum(axis=0)
