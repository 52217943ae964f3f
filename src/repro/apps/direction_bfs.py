"""Direction-optimized BFS — the origin story of masking (paper Section 4).

Classic push-pull BFS (Beamer et al. [5], Yang et al. [38]): while the
frontier is small, *push* — expand out-edges of frontier vertices, masked
by the complement of the visited set; when the frontier is a large fraction
of the graph, *pull* — every unvisited vertex checks its in-neighbours for
frontier membership, which is a masked SpMV whose mask is the unvisited
set.

The per-level direction choice is the standard work heuristic: pull when
the frontier's outgoing-edge count exceeds ``1/alpha`` of the unexplored
edge count (Beamer's parameterisation, simplified) — an O(1) frontier
ratio, the kind of switch Yang, Buluç & Owens use in GraphBLAS.  Every
level records its direction, what decided it (``alpha`` or ``forced``),
its number and the frontier's density and edge count in an
``app.bfs.level`` span.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..machine import OpCounter
from ..observe import tracer as _obs
from ..semiring import PLUS_PAIR
from ..sparse import CSC, CSR
from ..core.spmv import masked_spmv_pull, masked_spmv_push

__all__ = ["direction_optimized_bfs", "DirectionBFSResult"]


@dataclass
class DirectionBFSResult:
    """BFS levels plus the per-level push/pull decisions."""

    levels: np.ndarray  #: level per vertex, -1 if unreached
    directions: List[str] = field(default_factory=list)
    depth: int = 0


def direction_optimized_bfs(
    a: CSR,
    source: int,
    *,
    alpha: float = 4.0,
    force: Optional[str] = None,
    counter: Optional[OpCounter] = None,
) -> DirectionBFSResult:
    """BFS from ``source`` with per-level push/pull direction optimization.

    ``alpha``: pull when the frontier's out-edges exceed ``1/alpha`` of
    the unexplored edges; a finite number > 0 (``ValueError`` otherwise).
    ``force``: pin the direction to ``"push"`` or ``"pull"`` (for the
    ablation bench); default chooses per level.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError("adjacency must be square")
    if not (0 <= source < n):
        raise ValueError("source out of range")
    if force not in (None, "push", "pull"):
        raise ValueError("force must be None, 'push' or 'pull'")
    if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
            or not math.isfinite(alpha) or alpha <= 0):
        raise ValueError(f"alpha must be a finite number > 0, got {alpha!r}")
    a = a.pattern()
    csc = None  # built at the first pull level: only a pull reads it
    deg = a.row_nnz()

    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    x_vals = np.ones(n)

    total_edges = a.nnz
    explored = int(deg[source])
    directions: List[str] = []
    depth = 0
    while frontier.any():
        frontier_vertices = int(frontier.sum())
        frontier_edges = int(deg[frontier].sum())
        remaining = max(1, total_edges - explored)
        if force is not None:
            direction = force
            decision_source = "forced"
        else:
            direction = "pull" if frontier_edges * alpha > remaining else "push"
            decision_source = "alpha"
        tr = _obs.current()
        level_cm = (
            tr.span(
                "app.bfs.level",
                {"level": depth + 1, "direction": direction,
                 "decision_source": decision_source,
                 "frontier_density": frontier_vertices / max(1, n),
                 "frontier_edges": frontier_edges},
                counter=counter,
            )
            if tr is not None else _obs.NULL_SPAN
        )
        with level_cm:
            if direction == "push":
                # next = !visited .* (frontier^T A)
                _, nxt = masked_spmv_push(
                    a, x_vals, frontier, visited,
                    complement=True, semiring=PLUS_PAIR, counter=counter,
                )
            else:
                # next = unvisited .* (frontier^T A): pull with the unvisited
                # set as a plain mask — the direction-optimized formulation
                csc = CSC.from_csr(a) if csc is None else csc
                _, nxt = masked_spmv_pull(
                    csc, x_vals, frontier, ~visited,
                    semiring=PLUS_PAIR, counter=counter,
                )
            nxt &= ~visited
        if not nxt.any():
            break
        depth += 1
        directions.append(direction)
        levels[nxt] = depth
        visited |= nxt
        explored += int(deg[nxt].sum())
        frontier = nxt
    return DirectionBFSResult(levels=levels, directions=directions, depth=depth)
