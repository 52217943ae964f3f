"""Direction-optimized BFS — the origin story of masking (paper Section 4).

Classic push-pull BFS (Beamer et al. [5], Yang et al. [38]): while the
frontier is small, *push* — expand out-edges of frontier vertices, masked
by the complement of the visited set; when the frontier is a large fraction
of the graph, *pull* — every unvisited vertex checks its in-neighbours for
frontier membership, which is a masked SpMV whose mask is the unvisited
set.

The per-level direction choice has two modes.  The default is the standard
work heuristic: pull when the frontier's outgoing-edge count exceeds
``alpha`` times the unexplored edge count (Beamer's parameterisation,
simplified).  With ``machine=`` the decision instead goes through the
machine cost model (:func:`repro.machine.estimate_spmv_direction`), which
prices both directions in cycles from the frontier/unvisited statistics —
the same model a paper-machine plan uses for SpGEMM bands.  Every level
records its decision, the modeled cycle estimates and the frontier density
in an ``app.bfs.level`` span, which the prediction ledger
(:mod:`repro.observe.ledger`) pairs with the level's measured time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..machine import OpCounter, estimate_spmv_direction, resolve_machine
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
    machine=None,
    counter: Optional[OpCounter] = None,
) -> DirectionBFSResult:
    """BFS from ``source`` with per-level push/pull direction optimization.

    ``force``: pin the direction to ``"push"`` or ``"pull"`` (for the
    ablation bench); default chooses per level.

    ``machine``: a :class:`~repro.machine.MachineConfig` (or a preset name,
    ``"haswell"`` / ``"knl"``) routes the per-level decision through the
    cost model's :func:`~repro.machine.estimate_spmv_direction` instead of
    the ``alpha`` heuristic; ``None`` (default) keeps the heuristic.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError("adjacency must be square")
    if not (0 <= source < n):
        raise ValueError("source out of range")
    if force not in (None, "push", "pull"):
        raise ValueError("force must be None, 'push' or 'pull'")
    if machine is not None:
        machine = resolve_machine(machine)
    a = a.pattern()
    csc = CSC.from_csr(a)
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
        est = None
        if force is not None:
            direction = force
            decision_source = "forced"
        elif machine is not None:
            est = estimate_spmv_direction(
                frontier_vertices=frontier_vertices,
                frontier_edges=frontier_edges,
                unvisited_vertices=n - int(visited.sum()),
                unvisited_edges=remaining,
                nvertices=n,
                machine=machine,
            )
            direction = est.direction
            decision_source = "cost_model"
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
                 "frontier_edges": frontier_edges,
                 "est_push_cycles": est.push_cycles if est is not None else 0.0,
                 "est_pull_cycles": est.pull_cycles if est is not None else 0.0},
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
