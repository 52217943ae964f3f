"""k-truss via iterated masked SpGEMM — paper Section 8.3.

The k-truss of a graph is the maximal subgraph in which every edge is
supported by at least ``k - 2`` triangles.  The masked-SpGEMM formulation
(Davis [15]): iterate

    S = A .* (A @ A)          # support of every edge (PLUS_PAIR semiring)
    A = { edges with S >= k-2 }

until no edge is removed.  Each iteration is one masked SpGEMM whose mask is
the *current* (shrinking) adjacency — this is why the paper observes the
mask getting sparser as pruning proceeds, favouring pull-based schemes.

After the first round the support need not be recomputed: removing the
edges ``R`` from ``A = A' + R`` lowers it by exactly ``D + D^T + A' .* (R @
R)`` with ``D = A' .* (R @ A')``, two masked SpGEMMs whose work scales with
``R`` (the push direction of Yang, Buluç & Owens).  ``ktruss(delta=)``
prices the two per round.

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
    flops: int  #: sum of flops(A@B) over the products run (paper's numerator)
    edges_per_iter: List[int] = field(default_factory=list)
    #: flops of the products each round ran, parallel to ``edges_per_iter``
    flops_per_iter: List[int] = field(default_factory=list)
    #: triangles through each edge of the last multiplied graph (the truss
    #: itself once the loop converged), aligned with ``truss.indices``
    support: np.ndarray = field(default_factory=lambda: np.empty(0))
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
    dropped).  Round 1 computes the support ``S = A .* (A @ A)`` with the
    adjacency as the mask; every round keeps the edges with support
    ``>= k - 2`` and stops once all of them are strong.

    ``delta`` chooses how later rounds get the support of the pruned
    adjacency ``A'`` (``A = A' + R``, ``R`` the removed edges; see
    ``docs/incremental.md``): ``None`` recomputes ``A' .* (A' @ A')``
    every round (the paper's formulation); ``"force"`` decrements the
    previous support by ``D + D^T + A' .* (R @ R)`` with
    ``D = A' .* (R @ A')`` — two products whose work scales with ``R`` —
    which is exact because supports are integers; ``"auto"`` (default)
    decrements in the rounds where ``2 flops(R, A') + flops(R, R) <
    flops(A', A')`` and recomputes in the others.  All three give the same
    truss, ``iterations``, ``edges_per_iter`` and ``support``;
    ``flops_per_iter`` shows what each round cost.

    ``call_log``, if given, receives one ``(a, b, mask, complement)`` tuple
    per masked SpGEMM call so benches can model every scheme from a single
    recorded run.  ``backend`` forces the execution backend of each masked
    SpGEMM (``None``, the default, runs them in-process on one worker).
    ``shards`` is passed through to every masked SpGEMM (the grid knob,
    see ``docs/parallel.md``).

    ``session`` controls cross-call caching: pass an
    :class:`~repro.engine.ExecutionSession` to share one across apps,
    ``None`` (default, ``algo="auto"`` only) to open a loop-local session,
    or ``False`` to disable caching entirely.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if delta is not None and delta not in ("auto", "force"):
        raise ValueError(f"delta must be 'auto', 'force' or None, got {delta!r}")
    counter = counter if counter is not None else OpCounter()
    # grid runs route through the engine even with a forced algo, so
    # they benefit from (and default to) a loop-local session as well
    session, owned = resolve_session(
        session, auto=(algo == "auto" or shards is not None)
    )
    spgemm_time = 0.0
    flops: List[int] = []

    def product(x: CSR, y: CSR, mask: CSR) -> CSR:
        nonlocal spgemm_time
        flops[-1] += total_flops(x, y)
        if call_log is not None:
            call_log.append((x, y, mask, False))
        with timed_span(
            "ktruss.spgemm", {"algo": algo, "phases": phases}, counter=counter
        ) as sp_mm:
            out = masked_spgemm(
                x, y, mask, algo=algo, impl=impl, phases=phases,
                semiring=PLUS_PAIR, counter=counter,
                backend=backend,
                shards=shards, session=session, delta=None,
            )
        spgemm_time += sp_mm.seconds
        return out

    # per-round spans (edges shrink as pruning proceeds — the paper's
    # sparsifying-mask observation) with the masked SpGEMMs nested inside;
    # timed_span keeps the result's second fields populated untraced
    try:
        with timed_span("ktruss.run", {"k": k, "algo": algo}) as sp_total:
            # full symmetric pattern without diagonal
            cur = _sym(a.pattern().triu(1))
            keys = _keys(cur)  # filtered along with cur's entries
            support = removed = None  # removed: set where a round decrements
            edges = []
            it = 0
            for it in range(1, max_iters + 1):
                edges.append(cur.nnz)
                flops.append(0)
                with timed_span(
                    "ktruss.iter", {"iteration": it, "edges": cur.nnz}
                ):
                    if removed is not None:
                        d = product(removed, cur, cur)
                        rr = product(removed, removed, cur)
                        support -= _aligned(
                            keys,
                            np.concatenate((_keys(d), _keys(d, True), _keys(rr))),
                            np.concatenate((d.data, d.data, rr.data)),
                        )
                    else:
                        s = product(cur, cur, cur)
                        support = _aligned(keys, _keys(s), s.data)
                    strong = support >= k - 2
                    if strong.all():
                        break
                    kept = cur._keep_entries(strong)
                    removed = (
                        cur._keep_entries(~strong)
                        if delta == "force"
                        or (delta == "auto" and _decrement_pays(kept, cur))
                        else None
                    )
                    cur, keys, support = kept, keys[strong], support[strong]
        total = sp_total.seconds
    finally:
        if owned and session is not None:
            session.close()
    return KTrussResult(
        truss=cur,
        iterations=it,
        spgemm_seconds=spgemm_time,
        total_seconds=total,
        flops=sum(flops),
        edges_per_iter=edges,
        flops_per_iter=flops,
        support=support,
        counter=counter,
    )


def _sym(upper: CSR) -> CSR:
    rows, cols, vals = upper.to_coo()
    r = np.concatenate([rows, cols])
    c = np.concatenate([cols, rows])
    return CSR.from_coo(upper.shape, r, c, np.ones(r.shape[0])).pattern()


def _decrement_pays(kept: CSR, cur: CSR) -> bool:
    """``2 flops(R, A') + flops(R, R) < flops(A', A')`` for ``A' = kept``,
    ``R = cur - kept``: on symmetric patterns ``flops(X, Y)`` is the dot
    product of the two degree vectors."""
    deg = kept.row_nnz()
    gone = cur.row_nnz() - deg
    return 2 * (gone @ deg) + gone @ gone < deg @ deg


def _keys(m: CSR, transposed: bool = False) -> np.ndarray:
    """Flat key ``row * n + col`` of every stored entry of ``m`` (of
    ``m^T``, in ``m``'s entry order, when ``transposed``)."""
    rows = np.repeat(np.arange(m.nrows, dtype=np.int64), m.row_nnz())
    return m.indices * m.nrows + rows if transposed else rows * m.ncols + m.indices


def _aligned(keys: np.ndarray, entry_keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Sum of the entries ``(entry_keys, vals)`` as a vector aligned with the
    sorted ``keys``, of which ``entry_keys`` name a subset (entries a
    product left out have support 0)."""
    pos = np.searchsorted(keys, entry_keys)
    return np.bincount(pos, weights=vals, minlength=keys.shape[0])
