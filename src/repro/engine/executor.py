"""Plan executor: runs an :class:`~repro.engine.plan.ExecutionPlan`.

This is the single execution path behind the front door's planned calls
(``masked_spgemm(algo="auto")``, or a forced ``shards=`` / ``backend=``)
and :func:`execute`, and the only code that turns a plan into work.
Every plan is one loop over work items
— *band x row part x column panel* — of the 2-D block decomposition of
Buluc & Gilbert: row parts come from the grid's row blocks (or, for a
process plan on a one-row-block grid, from ``plan.threads`` flop-balanced
parts), column panels from the grid's column bounds.  ``1 x 1`` is the
plain call, ``R x 1`` a row partition, ``1 x K`` the panelled multiply,
``R x K`` a grid.
Each item is one :class:`~repro.parallel.pool.Task` run by
:func:`~repro.parallel.pool.run_task`.  An in-process plan runs its items
one after another inside the native row loop, a ``thread`` plan each on
``plan.threads`` threads, a ``serial`` one on one; a ``process`` plan fans them out to
the shared-memory process pool, one thread each.  The disjoint partial
results are merged by concatenation.  One
:class:`~repro.machine.OpCounter` is threaded through every stage —
symbolic sweeps and every item charge the same counter, so a planned run
reports exactly the work a monolithic run would.
"""

from __future__ import annotations

import logging
from contextlib import ExitStack
from typing import List, Optional

import numpy as np

from ..core.leaf import check_operands, run_kernel
from ..machine import OpCounter, flops_per_row
from ..observe import tracer as _obs
from ..parallel import pool as _pool
from ..parallel import shm as _shm
from ..parallel.executor import _contiguous_range
from ..parallel.partition import balanced_partition
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR
from ..sparse.ops import split_columns
from .plan import ExecutionPlan, RowBand

__all__ = ["execute"]

_log = logging.getLogger("repro.engine")


def _row_parts(plan: ExecutionPlan, band: RowBand, parts: int, fl) -> List[np.ndarray]:
    """The band's rows cut into row parts: by the grid's row blocks when it
    has several, else into ``parts`` contiguous parts of about equal flops
    (``fl`` is ``flops_per_row(a, b)``)."""
    rows = np.asarray(band.rows)
    if plan.grid.nrb > 1:
        cuts = np.searchsorted(rows, plan.grid.row_bounds)
        return [rows[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    n_parts = min(parts, max(1, rows.size))
    if n_parts == 1:
        return [rows]
    return [rows[p] for p in balanced_partition(fl[rows], n_parts)]


def _mask_nnz(m_panel: CSR, rows_desc: tuple) -> int:
    """Mask nonzeros of one work item (its rows of one mask panel)."""
    if rows_desc[0] == "range":
        return int(m_panel.indptr[rows_desc[2]] - m_panel.indptr[rows_desc[1]])
    return int(m_panel.row_nnz()[rows_desc[1]].sum())


def _run_tasks(tasks, remote: bool, workers: int, nthreads: int,
               counter: Optional[OpCounter]):
    """Run work items on the process pool (``remote``, ``workers`` of it)
    or one after another in-process on ``nthreads`` threads each; fold
    their counters (and a pool worker's spans) into the caller's; return
    the COO triples in item order."""
    if remote:
        payloads = _pool.run_tasks(max(1, min(workers, len(tasks))), tasks)
    else:
        payloads = [_pool.run_task(t, nthreads) for t in tasks]
    tracer = _obs.current()
    triples = []
    for r, c, v, item_counter, spans in payloads:
        triples.append((r, c, v))
        if counter is not None:
            counter.merge(item_counter)
        # one ingest per task batch — span ids are only unique within one
        if spans and tracer is not None:
            tracer.ingest(spans)
    return triples


def _preflight_process_backend(plan: ExecutionPlan, semiring: Semiring) -> str:
    """Resolve the process backend before work starts.

    A process-backend plan can only run if the platform supports shared
    memory *and* the semiring can cross the process boundary.  When either
    fails, the run degrades to the thread backend — loudly: a ``repro``
    logger warning plus a note on the plan, so the degradation shows up in
    ``ExecutionPlan.explain()`` and exported traces instead of silently
    changing the execution characteristics.
    """
    if not _pool.process_backend_available():
        reason = "platform lacks shared-memory process support"
    elif _pool.encode_semiring(semiring) is None:
        reason = f"semiring {semiring.name!r} is not transferable (unpicklable)"
    else:
        return "process"
    note = f"process backend fell back to thread: {reason}"
    _log.warning(note)
    if note not in plan.notes:
        plan.notes.append(note)
    return "thread"


def execute(
    plan: ExecutionPlan,
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    semiring: Semiring = PLUS_TIMES,
    impl: str = "auto",
    counter: Optional[OpCounter] = None,
    b_csc: Optional[CSC] = None,
) -> CSR:
    """Run ``C = M .* (A @ B)`` (``!M`` per the plan) as the plan dictates.

    The plan's ``backend`` and ``threads`` are the ones it was planned with
    (``plan(..., threads=, backend=)`` forces them).
    ``serial`` and ``thread`` run in-process, each band of each grid cell
    once, on ``plan.threads`` threads inside the native row loop
    (``serial``: one); ``process`` dispatches row parts to the
    shared-memory worker pool (:mod:`repro.parallel.pool`) with zero-copy
    operands.  ``b_csc``
    optionally amortises the CSC build for inner-product bands across calls.
    A process call publishes its operands into shared memory and unlinks
    them before it returns: nothing outlives the call.
    """
    plan.validate()
    check_operands(a, b, mask, b_csc)
    if (a.nrows, b.ncols) != tuple(plan.shape):
        raise ValueError(
            f"plan shape {tuple(plan.shape)} does not match the operands' "
            f"output shape ({a.nrows}, {b.ncols})"
        )
    return _execute(
        plan, a, b, mask,
        semiring=semiring, impl=impl, counter=counter, b_csc=b_csc,
    )


def _execute(plan, a, b, mask, *, semiring, impl, counter, b_csc) -> CSR:
    """:func:`execute` past its checks: a validated plan (a planner's own,
    which the front door runs without ``validate()``) for these operands."""
    backend = plan.backend
    if not plan.bands or a.nrows == 0:
        return CSR.empty(plan.shape)

    if backend == "process":
        backend = _preflight_process_backend(plan, semiring)
    grid = plan.grid
    # a process plan cuts plan.threads row parts, one pool thread each; an
    # in-process plan runs each band of each cell once, inside the native
    # row loop on plan.threads threads (serial: one)
    parts, nthreads = (plan.threads, 1) if backend == "process" else (
        1, 1 if backend == "serial" else plan.threads)

    tr = _obs.current()
    if tr is not None and counter is None:
        # under tracing, every band span carries its counter delta so the
        # prediction ledger can pair measured work with the band's predicted
        # time; allocate a run-local counter when the caller did
        # not pass one (tracing already pays for itself — the disabled
        # path is untouched)
        counter = OpCounter()
    exec_cm = (
        tr.span(
            "engine.execute",
            {"plan": plan.as_dict(), "backend": backend},
            counter=counter,
        )
        if tr is not None else _obs.NULL_SPAN
    )

    def band_span(i: int, band: RowBand):
        if tr is None:
            return _obs.NULL_SPAN
        return tr.span(
            "engine.band",
            {"band": i, "algo": band.algo, "rows": band.nrows,
             "reason": band.reason, "est_cycles": band.est_cycles,
             "backend": backend,
             "phases": plan.phases},
            counter=counter,
        )

    with exec_cm, ExitStack() as stack:
        first = plan.bands[0]
        if (
            grid.ncells == 1 and parts == 1
            and len(plan.bands) == 1 and first.is_full(a.nrows)
        ):
            # the plain call is its own single work item: hand back the
            # kernel's CSR untouched (no slice, no COO round trip)
            with band_span(0, first):
                return run_kernel(
                    a, b, mask,
                    algo=first.algo, phases=plan.phases,
                    complement=plan.complement, semiring=semiring, impl=impl,
                    counter=counter, b_csc=b_csc,
                    nthreads=min(nthreads, a.nrows),
                )

        npanels = grid.ncp
        b_panels = split_columns(b, grid.col_bounds)
        m_panels = b_panels if mask is b else split_columns(mask, grid.col_bounds)
        cscs: List[Optional[CSC]] = [None] * npanels
        if any(band.algo == "inner" for band in plan.bands):
            # built here, on the plan's threads (a process plan's workers wait)
            k = max(parts, nthreads)
            if npanels > 1:
                cscs = [CSC(panel.shape, panel._transpose(k)) for panel in b_panels]
            else:
                cscs = [b_csc if b_csc is not None else CSC(b.shape, b._transpose(k))]
        fl = flops_per_row(a, b) if parts > 1 and grid.nrb == 1 else None
        token = _pool.encode_semiring(semiring) if backend == "process" else None
        # the call's segments, unlinked when it returns; id(operand) ->
        # (operand, its segments): each operand, panel and CSC is published
        # once, however many items and roles read it
        group = stack.enter_context(_shm.SegmentGroup()) if backend == "process" else None
        specs: dict = {}

        def spec(mat) -> _shm.CSRSegments:
            if id(mat) not in specs:
                csr = mat.to_transposed_csr() if isinstance(mat, CSC) else mat
                specs[id(mat)] = mat, group.publish_csr(csr)
            return specs[id(mat)][1]

        triples = []
        for i, band in enumerate(plan.bands):
            if band.nrows == 0:
                continue
            with band_span(i, band):
                # work items (row part, panel, rows descriptor, weight): the
                # weight — mask entries, or the cell's area under a
                # complemented mask, which is dense where the mask is empty
                # — apportions the band's predicted cost, and a zero weight
                # proves the item's output empty
                items = []
                for part, rows in enumerate(_row_parts(plan, band, parts, fl)):
                    if rows.size == 0:
                        continue
                    rng = _contiguous_range(rows)
                    desc = ("range",) + rng if rng else ("rows", rows)
                    for k, m_panel in enumerate(m_panels):
                        weight = (
                            rows.size * m_panel.ncols if plan.complement
                            else _mask_nnz(m_panel, desc)
                        )
                        if weight:
                            items.append((part, k, desc, weight))
                if not items:
                    continue
                remote = backend == "process" and len(items) > 1
                run_on = "serial" if backend == "process" and not remote else backend
                total = float(sum(item[3] for item in items))
                inner = band.algo == "inner"
                tasks = [
                    _pool.Task(
                        a=spec(a) if remote else a,
                        b=spec(b_panels[k]) if remote else b_panels[k],
                        mask=spec(m_panels[k]) if remote else m_panels[k],
                        b_csc=None if not inner
                        else spec(cscs[k]) if remote else cscs[k],
                        rows=desc,
                        col_offset=grid.col_bounds[k],
                        algo=band.algo,
                        phases=plan.phases,
                        complement=plan.complement,
                        impl=impl,
                        semiring=token if remote else semiring,
                        cell=(i, part, k),
                        backend=run_on,
                        est_cycles=band.est_cycles * weight / total,
                        trace=remote and tr is not None,
                    )
                    for part, k, desc, weight in items
                ]
                triples += _run_tasks(tasks, remote, plan.threads, nthreads, counter)

        if not triples:
            return CSR.empty(plan.shape)
        rows, cols, vals = zip(*triples)
        return CSR.from_coo(
            plan.shape,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
        )
