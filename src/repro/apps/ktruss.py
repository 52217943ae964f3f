"""k-truss via iterated masked SpGEMM — paper Section 8.3.

The k-truss of a graph is the maximal subgraph in which every edge is
supported by at least ``k - 2`` triangles.  The masked-SpGEMM formulation
(Davis [15]): iterate

    S = A .* (A @ A)          # support of every edge (PLUS_PAIR semiring)
    A = { edges with S >= k-2 }

until no edge is removed.  Each iteration is one masked SpGEMM whose mask is
the *current* (shrinking) adjacency — this is why the paper observes the
mask getting sparser as pruning proceeds, favouring pull-based schemes.

The paper reports ``sum(flops of all masked SpGEMMs) / total time``; the
result object carries both pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..engine import resolve_session
from ..machine import OpCounter, total_flops
from ..observe import timed_span
from ..semiring import PLUS_PAIR
from ..sparse import CSR
from ..core import masked_spgemm

__all__ = ["ktruss", "KTrussResult"]


@dataclass
class KTrussResult:
    """Outcome of one k-truss run."""

    truss: CSR  #: adjacency of the k-truss subgraph (pattern)
    iterations: int
    spgemm_seconds: float  #: time inside masked SpGEMM calls only
    total_seconds: float
    flops: int  #: sum of flops(A@A) over all iterations (paper's numerator)
    edges_per_iter: List[int] = field(default_factory=list)
    counter: OpCounter = field(default_factory=OpCounter)


def ktruss(
    a: CSR,
    k: int = 5,
    *,
    algo: str = "auto",
    impl: str = "auto",
    phases: int = 1,
    max_iters: int = 100,
    counter: Optional[OpCounter] = None,
    call_log: Optional[list] = None,
    backend: Optional[str] = None,
    shards=None,
    session=None,
    delta="auto",
) -> KTrussResult:
    """Compute the ``k``-truss of the undirected graph ``a``.

    ``a`` is taken as a symmetric pattern (values ignored, diagonal
    dropped).  Each iteration performs ``S = A .* (A @ A)`` with the
    current adjacency as the mask and keeps edges with support
    ``>= k - 2``.

    ``call_log``, if given, receives one ``(a, b, mask, complement)`` tuple
    per masked SpGEMM call so benches can model every scheme from a single
    recorded run.  ``backend`` (``algo="auto"`` only) forces the execution
    backend of each iteration's masked SpGEMM — iterative apps like this
    are exactly where the persistent process pool amortises its spawn cost.
    ``shards`` is passed through to every iteration's masked SpGEMM (see
    ``docs/sharding.md``); with a session and the process backend, the
    final fixed-point iteration re-multiplies an unchanged adjacency, so
    its shard segments are served from the session's registry.

    ``session`` controls cross-call caching: pass an
    :class:`~repro.engine.ExecutionSession` to share one across apps,
    ``None`` (default, ``algo="auto"`` only) to open a loop-local session,
    or ``False`` to disable caching entirely.

    ``delta`` (default ``"auto"``) makes each sessioned iteration
    incremental where that pays (see ``docs/incremental.md``): when the
    first pruning round's dirty rows are predicted cheaper to recompute
    than the whole product, only they are recomputed and spliced into the
    previous round's support matrix — bit-for-bit identical to full
    recomputation, with the saved work certified by
    ``counter.rows_patched``; otherwise (every R-MAT scale measured: the
    pruned edges sit at hubs) the loop runs full from then on, exactly as
    with ``None``.  Ignored without a session.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    counter = counter if counter is not None else OpCounter()
    # sharded runs route through the engine even with a forced algo, so
    # they benefit from (and default to) a loop-local session as well
    session, owned = resolve_session(
        session, auto=(algo == "auto" or shards is not None)
    )
    # per-iteration spans (edges shrink as pruning proceeds — the paper's
    # sparsifying-mask observation) with the masked SpGEMM nested inside;
    # timed_span keeps the result's second fields populated untraced
    try:
        with timed_span("ktruss.run", {"k": k, "algo": algo}) as sp_total:
            cur = a.pattern().triu(1)
            # rebuild full symmetric pattern without diagonal
            cur = _sym(cur)
            support_needed = k - 2
            spgemm_time = 0.0
            flops = 0
            edges = []
            it = 0
            for it in range(1, max_iters + 1):
                edges.append(cur.nnz)
                flops += total_flops(cur, cur)
                if call_log is not None:
                    call_log.append((cur, cur, cur, False))
                with timed_span(
                    "ktruss.iter", {"iteration": it, "edges": cur.nnz}
                ):
                    with timed_span(
                        "ktruss.spgemm", {"algo": algo, "phases": phases},
                        counter=counter,
                    ) as sp_mm:
                        s = masked_spgemm(
                            cur, cur, cur, algo=algo, impl=impl, phases=phases,
                            semiring=PLUS_PAIR, counter=counter,
                            backend=backend
                            if (algo == "auto" or shards is not None)
                            else None,
                            shards=shards,
                            session=session,
                            delta=delta if session is not None else None,
                        )
                    spgemm_time += sp_mm.seconds
                    # keep edges of cur whose support >= k-2; edges with zero
                    # support are absent from s entirely
                    keep_rows, keep_cols, keep_vals = s.to_coo()
                    strong = keep_vals >= support_needed
                    nxt = CSR.from_coo(
                        cur.shape, keep_rows[strong], keep_cols[strong],
                        np.ones(int(strong.sum())),
                    )
                if nxt.nnz == cur.nnz:
                    cur = nxt
                    break
                cur = nxt
        total = sp_total.seconds
    finally:
        if owned and session is not None:
            session.close()
    return KTrussResult(
        truss=cur,
        iterations=it,
        spgemm_seconds=spgemm_time,
        total_seconds=total,
        flops=flops,
        edges_per_iter=edges,
        counter=counter,
    )


def _sym(upper: CSR) -> CSR:
    rows, cols, vals = upper.to_coo()
    r = np.concatenate([rows, cols])
    c = np.concatenate([cols, rows])
    return CSR.from_coo(upper.shape, r, c, np.ones(r.shape[0])).pattern()
