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

from ..machine import OpCounter, total_flops
from ..observe import timed_span
from ..semiring import PLUS_PAIR
from ..sparse import CSR, locate
from ..sparse.csr import _bucket_order
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
    ``docs/algorithms.md``, "k-truss"): ``None`` recomputes ``A' .* (A' @ A')``
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
    SpGEMM (``None``, the default, runs each in-process on the threads its
    native row loop takes for the product's estimated work —
    :func:`repro.core.leaf.kernel_threads`: every core from 2^17
    estimated products, one below).

    ``session`` accepts only ``None`` (default) and ``False`` and selects
    nothing: sessions were removed, and a call keeps no state for the next.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if delta is not None and delta not in ("auto", "force"):
        raise ValueError(f"delta must be 'auto', 'force' or None, got {delta!r}")
    if session is not None and session is not False:
        raise TypeError(f"session= takes None or False (sessions were removed), got {session!r}")
    counter = counter if counter is not None else OpCounter()
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
            )
        spgemm_time += sp_mm.seconds
        return out

    # per-round spans (edges shrink as pruning proceeds — the paper's
    # sparsifying-mask observation) with the masked SpGEMMs nested inside;
    # timed_span keeps the result's second fields populated untraced
    with timed_span("ktruss.run", {"k": k, "algo": algo}) as sp_total:
        # full symmetric pattern without diagonal
        cur = _sym(a.pattern().triu(1))
        # removed: set where a round decrements; mirror: cur's transpose
        # permutation, built at the first decrement and then carried
        support = removed = mirror = None
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
                    if mirror is None:
                        mirror = _mirror(cur, backend)
                    at = locate(cur, d)  # D's entries; mirror[at]: D^T's
                    support -= np.bincount(
                        np.concatenate((at, mirror[at], locate(cur, rr))),
                        weights=np.concatenate((d.data, d.data, rr.data)),
                        minlength=cur.nnz,
                    )
                else:
                    s = product(cur, cur, cur)
                    support = np.bincount(locate(cur, s), weights=s.data, minlength=cur.nnz)
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
                if mirror is not None:  # support is symmetric, so strong is
                    mirror = (np.cumsum(strong) - 1)[mirror[strong]]
                cur, support = kept, support[strong]
    total = sp_total.seconds
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


def _mirror(sym: CSR, backend: Optional[str] = None) -> np.ndarray:
    """Transpose permutation of the symmetric sorted pattern ``sym``: entry
    ``mirror[t]`` holds ``(col, row)`` of entry ``t``.  Sorting the entries
    stably by column lists ``sym^T`` row-major, which is ``sym``'s own
    entry order; one counting sort on ``backend``'s threads (NumPy tier:
    the stable ``argsort``)."""
    moved = _bucket_order(sym.indices, sym.ncols, order=True, backend=backend)
    return np.argsort(sym.indices, kind="stable") if moved is None else moved[1]
