"""Sliding-window graph analytics over an edge stream.

A window sliding over an edge stream inserts a few edges at the front and
deletes a few at the back each step, and the masked product
``S = A .* (A @ A)`` — per-edge triangle support, the same product k-truss
and triangle counting iterate — is recomputed for every window position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..machine import OpCounter
from ..observe import timed_span
from ..semiring import PLUS_PAIR
from ..sparse import CSR
from ..core.masked_spgemm import masked_values

__all__ = ["StreamingResult", "sliding_window_triangles", "edge_stream_from_graph"]


@dataclass
class StreamingResult:
    """Outcome of one sliding-window run."""

    steps: int
    triangles: List[int]  #: global triangle count per window position
    edges_per_step: List[int]  #: undirected edge count of each window
    support: CSR  #: per-edge triangle support of the final window
    total_seconds: float
    counter: OpCounter = field(default_factory=OpCounter)


def edge_stream_from_graph(g: CSR, *, seed: int = 0) -> np.ndarray:
    """Shuffle a graph's undirected edges into an ``(m, 2)`` stream.

    Takes the strict upper triangle of ``g`` (each undirected edge once)
    and permutes it — the standard way to synthesise an insert-ordered
    edge stream from a static benchmark graph.
    """
    upper = g.pattern().triu(1)
    rows, cols, _ = upper.to_coo()
    edges = np.stack([rows, cols], axis=1)
    rng = np.random.default_rng(seed)
    return edges[rng.permutation(edges.shape[0])]


def _window_adjacency(edges: np.ndarray, n: int) -> CSR:
    """Symmetric, loop-free adjacency of one window's edge set."""
    if edges.shape[0] == 0:
        return CSR.empty((n, n))
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    r = np.concatenate([u, v])
    c = np.concatenate([v, u])
    return CSR.from_coo((n, n), r, c, np.ones(r.shape[0])).pattern()


def sliding_window_triangles(
    edges: np.ndarray,
    n: int,
    *,
    window: int,
    step: int,
    algo: str = "auto",
    backend: Optional[str] = None,
    counter: Optional[OpCounter] = None,
    max_steps: Optional[int] = None,
) -> StreamingResult:
    """Triangle support over a window sliding along an edge stream.

    ``edges`` is an ``(m, 2)`` integer array of undirected edges (self
    loops dropped, duplicates within a window deduplicated); at step
    ``t`` the active window is ``edges[t*step : t*step + window]``, so
    each step deletes ``step`` edges at the tail and inserts ``step`` at
    the head.  Every step computes ``S = A .* (A @ A)`` on the PLUS_PAIR
    semiring — ``S[i, j]`` counts the triangles through edge ``(i, j)``
    — and the global triangle count ``sum(S) / 6``.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array")
    if window <= 0 or step <= 0:
        raise ValueError("window and step must be positive")
    counter = counter if counter is not None else OpCounter()
    triangles: List[int] = []
    edge_counts: List[int] = []
    cur = CSR.empty((n, n))
    vals = np.zeros(0)
    nsteps = 0
    with timed_span(
        "streaming.run", {"window": window, "step": step, "algo": algo}
    ) as sp_total:
        pos = 0
        while pos < edges.shape[0]:
            active = edges[pos:pos + window]
            cur = _window_adjacency(active, n)
            with timed_span(
                "streaming.step",
                {"step": nsteps, "edges": cur.nnz // 2},
                counter=counter,
            ):
                vals = masked_values(
                    cur, cur, cur, algo=algo, semiring=PLUS_PAIR,
                    counter=counter,
                    backend=backend,
                )
            triangles.append(int(round(float(vals.sum()) / 6.0)))
            edge_counts.append(cur.nnz // 2)
            nsteps += 1
            if max_steps is not None and nsteps >= max_steps:
                break
            if pos + window >= edges.shape[0]:
                break
            pos += step
    total = sp_total.seconds
    support = CSR(cur.shape, cur.indptr, cur.indices, vals, sorted_indices=True,
                  check=False)._keep_entries(vals != 0)  # the last window's product
    return StreamingResult(
        steps=nsteps,
        triangles=triangles,
        edges_per_step=edge_counts,
        support=support,
        total_seconds=total,
        counter=counter,
    )
