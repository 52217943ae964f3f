"""Batched Betweenness Centrality via masked SpGEMM — paper Section 8.4.

Multi-source Brandes [8] in the GraphBLAS formulation [11]: a batch of
``s`` sources is processed as ``s x n`` sparse matrices.

Forward (BFS) sweep — uses the **complemented** mask:

    frontier_{d+1} = !numsp_pattern .* (frontier_d @ A)     (PLUS_TIMES)
    numsp += frontier_{d+1}

``numsp`` accumulates shortest-path counts; the complemented mask prevents
re-discovering visited vertices — the paper's canonical use of mask
complement.

Backward (dependency) sweep — uses the **plain** mask:

    w_d   = frontier_d .* ((1 + delta) / numsp)             (element-wise)
    t_d   = frontier_{d-1} .* (w_d @ A^T)                   (masked SpGEMM)
    delta += t_d .* numsp_{(d-1) pattern values}

The complemented mask makes the BFS levels *disjoint*: a cell enters
``numsp`` in exactly one ``frontier_d``.  So ``numsp`` restricted to level
``d`` is ``frontier_d``'s own values, ``delta`` restricted to level ``d`` is
exactly ``t_{d+1}``'s contribution, and neither matrix has to exist: the
sweep keeps one ``delta_d`` vector per level, aligned with ``frontier_d``'s
stored entries (``w_d`` reuses its ``indptr`` / ``indices``), and aligns
``t_d`` — a sub-pattern of ``frontier_{d-1}`` — by one sorted key search.
``numsp`` itself survives only as the forward sweep's mask.

Finally ``bc(v) = sum_q delta[q, v]`` over the batch, accumulated level by
level; level 0 holds precisely each source's own entry (Brandes's
``w != s`` guard) and is skipped.

For undirected graphs ``A^T = A``; we multiply by ``A`` transposed
explicitly so directed graphs are also handled.

The paper's metric is TEPS = ``batch_size * num_edges / total_time`` with a
batch of 512; batch size is a parameter here (laptop-scale benches use
smaller batches, see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..engine import resolve_session
from ..machine import OpCounter
from ..observe import timed_span
from ..semiring import PLUS_TIMES
from ..sparse import CSR, ewise_add
from ..core import masked_spgemm
from ..core.masked_spgemm import supports_complement

__all__ = ["betweenness_centrality", "BetweennessResult"]


@dataclass
class BetweennessResult:
    """Outcome of one batched BC run."""

    centrality: np.ndarray  #: length-n BC scores (sum over the batch)
    depth: int
    spgemm_seconds: float
    total_seconds: float
    teps: float
    #: masked-SpGEMM time split by stage (paper Sec. 8.4 measures both):
    #: forward uses the complemented mask, backward the plain mask
    forward_seconds: float = 0.0
    backward_seconds: float = 0.0
    counter: OpCounter = field(default_factory=OpCounter)


def _flat_keys(mat: CSR) -> np.ndarray:
    """Row-major flat key ``row * ncols + col`` of every stored entry."""
    return mat.row_ids() * np.int64(mat.ncols) + mat.indices


def betweenness_centrality(
    a: CSR,
    sources: Optional[Sequence[int]] = None,
    *,
    batch_size: int = 512,
    algo: str = "auto",
    impl: str = "auto",
    phases: int = 1,
    counter: Optional[OpCounter] = None,
    seed: int = 0,
    call_log: Optional[list] = None,
    backend: Optional[str] = None,
    shards=None,
    session=None,
) -> BetweennessResult:
    """Betweenness centrality restricted to a batch of source vertices.

    With ``sources=range(n)`` (and an unweighted graph) the scores match
    Brandes / networkx exactly (unnormalised, directed-sum convention:
    for undirected graphs networkx halves the scores).

    ``backend`` forces the execution backend of the per-level masked
    SpGEMMs (``None``, the default: in-process, one worker).  ``shards``
    passes the grid knob through to every level's masked SpGEMM (see
    ``docs/parallel.md``).  ``session`` controls cross-call caching — an
    :class:`~repro.engine.ExecutionSession`, ``None`` (default: open a
    loop-local one for ``algo="auto"``), or ``False`` to disable.  BC is
    the paper's best case for reuse: ``A`` and ``A^T`` are constant across
    every level, so their shm segments publish once and only the small
    frontier/numsp operands move per call.
    """
    if not supports_complement(algo):
        raise ValueError(
            f"{algo} cannot run BC: the forward sweep needs a complemented "
            "mask (the paper excludes MCA and Inner here too)"
        )
    n = a.nrows
    if a.ncols != n:
        raise ValueError("adjacency must be square")
    # unweighted shortest paths: only the pattern of A matters
    a = a.pattern()
    if sources is None:
        rng = np.random.default_rng(seed)
        k = min(batch_size, n)
        sources = rng.choice(n, size=k, replace=False)
    sources = np.asarray(list(sources), dtype=np.int64)
    s = sources.shape[0]
    counter = counter if counter is not None else OpCounter()
    session, owned = resolve_session(
        session, auto=(algo == "auto" or shards is not None)
    )
    # stage spans: per-step forward (complemented mask) / backward (plain
    # mask) breakdowns appear in trace exports; timed_span also feeds the
    # result's *_seconds fields when tracing is off
    try:
        return _betweenness_body(
            a, sources, s, algo=algo, impl=impl, phases=phases,
            counter=counter, call_log=call_log, backend=backend,
            shards=shards, session=session,
        )
    finally:
        if owned and session is not None:
            session.close()


def _betweenness_body(
    a: CSR,
    sources: np.ndarray,
    s: int,
    *,
    algo: str,
    impl: str,
    phases: int,
    counter: OpCounter,
    call_log: Optional[list],
    backend: Optional[str],
    shards,
    session,
) -> BetweennessResult:
    n = a.nrows
    with timed_span("bc.run", {"batch": s, "algo": algo}) as sp_total:
        a_t = a.transpose()

        # frontier_0: one unit entry per source row
        frontier = CSR.from_coo(
            (s, n), np.arange(s, dtype=np.int64), sources, np.ones(s)
        )
        numsp = frontier.copy()
        frontiers: List[CSR] = [frontier]
        spgemm_time = 0.0
        forward_time = 0.0
        backward_time = 0.0

        # ---- forward sweep ----
        level = 0
        while frontier.nnz:
            if call_log is not None:
                call_log.append((frontier, a, numsp, True))
            level += 1
            with timed_span(
                "bc.forward", {"depth": level, "frontier_nnz": frontier.nnz},
                counter=counter,
            ) as sp_f:
                frontier = masked_spgemm(
                    frontier, a, numsp, algo=algo, impl=impl, phases=phases,
                    complement=True, semiring=PLUS_TIMES, counter=counter,
                    backend=backend,
                    shards=shards, session=session,
                )
            spgemm_time += sp_f.seconds
            forward_time += sp_f.seconds
            if frontier.nnz == 0:
                break
            frontiers.append(frontier)
            numsp = ewise_add(numsp, frontier)

        depth = len(frontiers) - 1

        # ---- backward sweep ----
        out = np.zeros(n)
        delta = np.zeros(frontiers[depth].nnz)  # delta_d, aligned with frontiers[d]
        for d in range(depth, 0, -1):
            f_d, below = frontiers[d], frontiers[d - 1]
            out += np.bincount(f_d.indices, weights=delta, minlength=n)
            # w = f_d .* ((1 + delta) / numsp): numsp on level d is f_d's values
            # (every masked product comes back with sorted rows, so the
            # levels' entries and t_d's below are in one row-major order)
            w = CSR(f_d.shape, f_d.indptr, f_d.indices, (1.0 + delta) / f_d.data,
                    sorted_indices=True, check=False)
            if call_log is not None:
                call_log.append((w, a_t, below, False))
            with timed_span(
                "bc.backward", {"depth": d}, counter=counter
            ) as sp_b:
                t_d = masked_spgemm(
                    w, a_t, below, algo=algo, impl=impl,
                    phases=phases, semiring=PLUS_TIMES, counter=counter,
                    backend=backend,
                    shards=shards, session=session,
                )
            spgemm_time += sp_b.seconds
            backward_time += sp_b.seconds
            if d == 1:  # level 0 is each source's own entry: never summed
                break
            # delta_{d-1} = t_d .* numsp on t_d's pattern, a subset of level d-1
            at = np.searchsorted(_flat_keys(below), _flat_keys(t_d))
            delta = np.zeros(below.nnz)
            delta[at] = t_d.data * below.data[at]
    total = sp_total.seconds
    teps = s * a.nnz / total if total > 0 else 0.0
    return BetweennessResult(
        centrality=out,
        depth=depth,
        spgemm_seconds=spgemm_time,
        total_seconds=total,
        teps=teps,
        forward_seconds=forward_time,
        backward_seconds=backward_time,
        counter=counter,
    )
