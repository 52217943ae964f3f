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
stored entries (``w_d`` reuses its ``indptr`` / ``indices``), and reads
``t_d`` at ``frontier_{d-1}``'s entries, its mask's
(:func:`repro.core.masked_spgemm.masked_values`).  ``numsp`` itself survives only as the
forward sweep's complemented mask: a bitmap each forward product reads and
marks (:func:`repro.core.masked_spgemm.masked_visited`), so ``numsp +=
frontier`` is no step of its own.

The caller's ``a`` is range-checked once, at entry; every operand the call
builds from it (``A``'s pattern, ``A^T``, the frontiers, ``w``)
is trusted inside the call and skips the kernels' range check
(:func:`repro.core.kernels.native.trusted`), and nothing stays trusted once
the call returns.

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

from ..machine import OpCounter
from ..observe import timed_span
from ..semiring import PLUS_TIMES
from ..sparse import CSC, CSR
from ..core.masked_spgemm import masked_values, masked_visited
from ..core.kernels import native
from ..core.kernels.msa_kernel import Visited
from ..core.leaf import algo_key, supports_complement
from .bfs import source_array

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
    session=None,
) -> BetweennessResult:
    """Betweenness centrality restricted to a batch of source vertices.

    With ``sources=range(n)`` (and an unweighted graph) the scores match
    Brandes / networkx exactly (unnormalised, directed-sum convention:
    for undirected graphs networkx halves the scores).

    ``backend`` forces the execution backend of the per-level masked
    SpGEMMs (``None``, the default: in-process, on the threads the native
    row loop takes for each product's estimated work —
    :func:`repro.core.leaf.kernel_threads`: every core from 2^17
    estimated products, one below).
    ``session`` accepts only ``None`` (default) and ``False`` and selects
    nothing: sessions were removed, and a call keeps no state for the next.
    """
    if session is not None and session is not False:
        raise TypeError(f"session= takes None or False (sessions were removed), got {session!r}")
    if not supports_complement(algo_key(algo)):
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
    sources = source_array(sources, n)
    s = sources.shape[0]
    counter = counter if counter is not None else OpCounter()
    # stage spans: per-step forward (complemented mask) / backward (plain
    # mask) breakdowns appear in trace exports; timed_span also feeds the
    # result's *_seconds fields when tracing is off
    return _betweenness_body(
        a, sources, s, algo=algo, impl=impl, phases=phases,
        counter=counter, call_log=call_log, backend=backend,
    )


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
) -> BetweennessResult:
    n = a.nrows
    with timed_span("bc.run", {"batch": s, "algo": algo}) as sp_total, native.trusted():
        a_t = a._transpose(backend=backend)
        # the caller's A, checked once (its transpose has range-checked the
        # columns where the native ordering ran); everything below is built here
        native.validate(native.load(), (a,), True)
        # the backward products multiply by A^T, whose CSC is A itself: an
        # inner-product level reads it instead of transposing A^T back
        a_t_csc = CSC(a_t.shape, a.sort_indices())

        # frontier_0: one unit entry per source row
        frontier = CSR.from_coo(
            (s, n), np.arange(s, dtype=np.int64), sources, np.ones(s)
        )
        # numsp is only ever a complemented mask: its pattern, as bits
        numsp = Visited(frontier.shape, np.arange(s), sources)
        native.trust(a, a_t, a_t_csc.to_transposed_csr(), frontier)
        frontiers: List[CSR] = [frontier]
        spgemm_time = 0.0
        forward_time = 0.0
        backward_time = 0.0

        # ---- forward sweep ----
        level = 0
        while frontier.nnz:
            if call_log is not None:
                call_log.append((frontier, a, numsp.csr(), True))
            level += 1
            with timed_span(
                "bc.forward", {"depth": level, "frontier_nnz": frontier.nnz},
                counter=counter,
            ) as sp_f:
                frontier = masked_visited(
                    frontier, a, numsp, algo=algo, impl=impl, phases=phases,
                    semiring=PLUS_TIMES, counter=counter, backend=backend,
                )
            spgemm_time += sp_f.seconds
            forward_time += sp_f.seconds
            if frontier.nnz == 0:
                break
            native.trust(frontier)
            frontiers.append(frontier)

        depth = len(frontiers) - 1

        # ---- backward sweep ----
        out = np.zeros(n)
        delta = np.zeros(frontiers[depth].nnz)  # delta_d, aligned with frontiers[d]
        for d in range(depth, 0, -1):
            f_d, below = frontiers[d], frontiers[d - 1]
            out += np.bincount(f_d.indices, weights=delta, minlength=n)
            # w = f_d .* ((1 + delta) / numsp): numsp on level d is f_d's values
            # (every masked product comes back with sorted rows, so each
            # level is its own canonical mask, whose entries t_d is aligned with)
            w = CSR(f_d.shape, f_d.indptr, f_d.indices, (1.0 + delta) / f_d.data,
                    sorted_indices=True, check=False)
            native.trust(w)
            if call_log is not None:
                call_log.append((w, a_t, below, False))
            with timed_span(
                "bc.backward", {"depth": d}, counter=counter
            ) as sp_b:
                t_d = masked_values(
                    w, a_t, below, algo=algo, impl=impl,
                    phases=phases, semiring=PLUS_TIMES, counter=counter,
                    b_csc=a_t_csc, backend=backend,
                )
            spgemm_time += sp_b.seconds
            backward_time += sp_b.seconds
            if d == 1:  # level 0 is each source's own entry: never summed
                break
            # delta_{d-1} = t_d .* numsp on level d-1 (numsp >= 1 there)
            delta = t_d * below.data
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
