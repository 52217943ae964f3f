"""Triangle Counting via masked SpGEMM — paper Section 8.2.

The paper's method (also [2, 15, 29]): relabel vertices in non-increasing
degree order, take the lower-triangular part ``L``, and count

    #triangles = sum( L .* (L @ L) )

on the PLUS_PAIR semiring (each wedge contributes 1).  The element-wise
product with ``L`` *is* the mask: the masked SpGEMM computes ``L @ L`` only
at positions where ``L`` itself has an edge.  The paper benchmarks only the
Masked-SpGEMM part; :func:`triangle_count_detail` reports its timing and
operation counters so the benches can do the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..machine import OpCounter
from ..observe import timed_span
from ..semiring import PLUS_PAIR
from ..sparse import CSR, reduce_sum
from ..core import masked_spgemm
from ..graphs.relabel import degree_sort_permutation

__all__ = ["triangle_count", "triangle_count_detail", "TriangleCountResult"]


@dataclass
class TriangleCountResult:
    """Outcome of one triangle-counting run."""

    triangles: int
    spgemm_seconds: float  #: time spent inside the masked SpGEMM only
    total_seconds: float
    counter: OpCounter
    l_nnz: int


def _prepare(a: CSR, relabel: bool) -> CSR:
    """``tril(P A P^T, -1)`` of the pattern of ``a`` — the bytes of
    ``relabel_by_degree(a.pattern()).tril(-1)`` — built directly: relabel
    the coordinates, keep ``col < row`` and order only that half."""
    g = a.pattern()
    if not relabel:
        return g.tril(-1)
    if g.nrows != g.ncols:
        raise ValueError("permute requires a square matrix")
    perm = degree_sort_permutation(g)
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(g.nrows, dtype=perm.dtype)
    rows, cols = np.repeat(new_id, g.row_nnz()), new_id.take(g.indices)
    low = np.flatnonzero(cols < rows)
    return CSR.from_coo(g.shape, rows.take(low), cols.take(low))


def triangle_count(
    a: CSR, *, algo: str = "auto", relabel: bool = True, impl: str = "auto",
    phases: int = 1, backend: Optional[str] = None,
) -> int:
    """Number of triangles in the undirected graph with adjacency ``a``."""
    return triangle_count_detail(
        a, algo=algo, relabel=relabel, impl=impl, phases=phases, backend=backend
    ).triangles


def triangle_count_detail(
    a: CSR,
    *,
    algo: str = "auto",
    relabel: bool = True,
    impl: str = "auto",
    phases: int = 1,
    counter: Optional[OpCounter] = None,
    call_log: Optional[list] = None,
    backend: Optional[str] = None,
) -> TriangleCountResult:
    """Triangle counting with timing/counter detail for the benches.

    ``backend`` forces the execution backend of the underlying masked
    SpGEMM; ``None`` (default) runs it in-process on one worker.
    """
    counter = counter if counter is not None else OpCounter()
    # tracer spans double as the stage timers: tril/spgemm/reduce durations
    # land in trace exports when tracing is on and still populate the
    # result fields when it is off (timed_span always measures)
    with timed_span("tc.run", {"algo": algo}) as sp_total:
        with timed_span("tc.prepare", {"relabel": relabel}):
            low = _prepare(a, relabel)
        if call_log is not None:
            call_log.append((low, low, low, False))
        with timed_span(
            "tc.spgemm", {"algo": algo, "phases": phases}, counter=counter
        ) as sp_mm:
            c = masked_spgemm(
                low,
                low,
                low,
                algo=algo,
                impl=impl,
                phases=phases,
                semiring=PLUS_PAIR,
                counter=counter,
                backend=backend,
            )
        with timed_span("tc.reduce"):
            tri = int(round(reduce_sum(c)))
    return TriangleCountResult(
        triangles=tri,
        spgemm_seconds=sp_mm.seconds,
        total_seconds=sp_total.seconds,
        counter=counter,
        l_nnz=low.nnz,
    )
