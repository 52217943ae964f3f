"""Memory-bounded (out-of-core style) masked SpGEMM.

For problems whose product expansion or mask does not fit in memory, the
multiplication can proceed over **column panels**: partition the output
columns into panels, restrict ``B`` and the mask to one panel at a time,
multiply, and concatenate — output columns are disjoint across panels, so
the merge is free.  The mask makes the panelling particularly effective:
a panel whose mask slice is empty is skipped without touching ``B``.

This complements the row blocking inside the fast kernels (which bounds
the *expansion*, not the mask/accumulator footprint).  Peak footprint per
panel is ~``nnz(B_panel) + nnz(M_panel) + panel_output``.

Column panels are one spelling of the execution engine's grid (a ``1 x K``
grid, see ``docs/parallel.md``); this module keeps only
:func:`masked_spgemm_chunked`, the historical front door, which builds a
forced single-band plan with ``panel_width`` set and executes it.  The
planner can also *choose* panelling from a memory budget
(``Planner.plan(..., memory_budget_bytes=...)``); the panel geometry
helpers live in :mod:`repro.sparse.ops`.
"""

from __future__ import annotations

from typing import Optional

from ..machine import OpCounter
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSR

__all__ = ["masked_spgemm_chunked"]


def masked_spgemm_chunked(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    panel_width: int = 4096,
    algo: str = "msa",
    phases: int = 1,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    impl: str = "auto",
) -> CSR:
    """``M .* (A @ B)`` computed one output-column panel at a time.

    Equivalent to :func:`repro.core.masked_spgemm` (tested to be), with
    peak memory bounded by the panel instead of the whole problem.  Panels
    whose mask slice is empty are skipped entirely (plain mask) — with a
    complemented mask no panel can be skipped (the complement is dense
    there), so the panelling only bounds memory.  ``algo="auto"`` lets the
    cost-model planner pick the per-band algorithms; the panel width stays
    as forced here.
    """
    if panel_width <= 0:
        raise ValueError("panel_width must be positive")
    from ..engine import Planner, execute

    pl = Planner().plan(
        a,
        b,
        mask,
        algo=None if algo.lower() == "auto" else algo,
        phases=phases,
        complement=complement,
        threads=1,
        panel_width=panel_width,
    )
    return execute(pl, a, b, mask, semiring=semiring, impl=impl, counter=counter)
