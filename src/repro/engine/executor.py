"""Plan executor: runs an :class:`~repro.engine.plan.ExecutionPlan`.

This is the single execution path behind every front door
(``masked_spgemm(algo="auto")``, ``masked_spgemm_hybrid``,
``masked_spgemm_chunked``, ``parallel_masked_spgemm``) and the only code
that turns a plan into work.  Every plan is one loop over work items —
*band x row part x column panel* — of the 2-D block decomposition of
Buluc & Gilbert: row parts come from the grid's row blocks (or, for a
process plan on a one-row-block grid, from ``plan.threads`` parts cut by
``plan.partition``), column panels from the grid's column bounds.  ``1 x
1`` is the plain call, ``R x 1`` a row partition, ``1 x K`` the panelled
multiply, ``R x K`` a grid.  Each item is one
:class:`~repro.parallel.pool.Task` run by
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

import dataclasses
import functools
import logging
from contextlib import ExitStack
from typing import List, Optional

import numpy as np

from ..core.leaf import check_operands, kernel_threads, run_kernel
from ..machine import HOST_NATIVE, OpCounter, flops_per_row, host_profile, resolve_machine
from ..observe import tracer as _obs
from ..parallel import pool as _pool
from ..parallel import shm as _shm
from ..parallel.executor import _contiguous_range, normalize_backend
from ..parallel.partition import (
    balanced_partition,
    block_partition,
    cyclic_partition,
)
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR
from ..sparse.ops import split_columns
from .plan import ExecutionPlan, RowBand
from .planner import Planner, host_workers

__all__ = ["execute", "plan_and_execute"]

_log = logging.getLogger("repro.engine")


def _row_parts(plan: ExecutionPlan, band: RowBand, parts: int, fl) -> List[np.ndarray]:
    """The band's rows cut into row parts: by the grid's row blocks when it
    has several, else into ``parts`` parts by ``plan.partition`` (``fl`` is
    ``flops_per_row(a, b)``, read by the balanced cut)."""
    rows = np.asarray(band.rows)
    if plan.grid.nrb > 1:
        cuts = np.searchsorted(rows, plan.grid.row_bounds)
        return [rows[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    n_parts = min(parts, max(1, rows.size))
    if n_parts == 1:
        return [rows]
    if plan.partition == "cyclic":
        picks = cyclic_partition(rows.size, n_parts)
    elif plan.partition == "balanced":
        picks = balanced_partition(fl[rows], n_parts)
    else:
        picks = block_partition(rows.size, n_parts)
    return [rows[p] for p in picks]


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
    backend: Optional[str] = None,
    b_csc: Optional[CSC] = None,
) -> CSR:
    """Run ``C = M .* (A @ B)`` (``!M`` per the plan) as the plan dictates.

    ``backend=None`` (default) follows the plan's own ``backend`` and
    ``threads``; passing ``"serial"``, ``"thread"`` (alias ``"threads"``)
    or ``"process"`` overrides the backend and keeps the plan's ``threads``
    by the host planner's rule (:func:`~repro.engine.planner.host_workers`):
    ``"serial"`` makes it 1, ``"process"`` the pool's worker count.
    ``serial`` and ``thread`` run in-process, each band of each grid cell
    once, on ``plan.threads`` threads inside the native row loop
    (``serial``: one; a modeled preset's plan: at most what this host's
    rule gives the call, :func:`~repro.core.leaf.kernel_threads`);
    ``process`` dispatches row parts to the shared-memory worker pool
    (:mod:`repro.parallel.pool`) with zero-copy operands.  ``b_csc``
    optionally amortises the CSC build for inner-product bands across calls.
    A process call publishes its operands into shared memory and unlinks
    them before it returns: nothing outlives the call.
    """
    plan.validate()
    check_operands(a, b, mask)
    if backend is not None:
        # the plan is the only carrier of workers and backend into the
        # work-item loop: re-resolve both as the planner would have
        threads, backend = host_workers(a, b, plan.threads, normalize_backend(backend))
        plan = dataclasses.replace(plan, threads=threads, backend=backend)
    if (a.nrows, b.ncols) != tuple(plan.shape):
        raise ValueError(
            f"plan shape {tuple(plan.shape)} does not match the operands' "
            f"output shape ({a.nrows}, {b.ncols})"
        )
    return _execute(
        plan, a, b, mask,
        semiring=semiring, impl=impl, counter=counter, b_csc=b_csc,
    )


def _in_process_threads(plan: ExecutionPlan, backend: str, a: CSR, b: CSR) -> int:
    """Threads of an in-process plan's kernel calls: one under ``serial``; a
    host plan's own ``threads``; else — a modeled preset's worker count, or
    a process plan fallen back to ``thread`` — no more than this host's rule
    gives the call, so a paper machine's cores never oversubscribe this
    one."""
    if backend == "serial":
        return 1
    if plan.machine == "host" and plan.backend == backend:
        return plan.threads
    return min(plan.threads, kernel_threads(a, b))


def _execute(plan, a, b, mask, *, semiring, impl, counter, b_csc) -> CSR:
    """:func:`execute` past its checks: a validated plan (a planner's own)
    for these operands."""
    backend = plan.backend
    if not plan.bands or a.nrows == 0:
        return CSR.empty(plan.shape)

    if backend == "process":
        backend = _preflight_process_backend(plan, semiring)
    grid = plan.grid
    # a process plan cuts plan.threads row parts, one pool thread each; an
    # in-process plan runs each band of each cell once, inside the native
    # row loop
    parts, nthreads = (plan.threads, 1) if backend == "process" else (
        1, _in_process_threads(plan, backend, a, b))

    tr = _obs.current()
    if tr is not None and counter is None:
        # under tracing, every band span carries its counter delta so the
        # prediction ledger can pair measured work with the band's modeled
        # cycles/bytes; allocate a run-local counter when the caller did
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
             "est_bytes": band.est_bytes, "backend": backend,
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
            if npanels > 1:
                cscs = [CSC.from_csr(panel) for panel in b_panels]
            else:
                cscs = [b_csc if b_csc is not None else CSC.from_csr(b)]
        fl = (
            flops_per_row(a, b)
            if plan.partition == "balanced" and parts > 1 and grid.nrb == 1
            else None
        )
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
                # — apportions the band's modeled cost, and a zero weight
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
                        est_bytes=band.est_bytes * weight / total,
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


def plan_and_execute(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    machine=None,
    complement: bool = False,
    phases: Optional[int] = None,
    semiring: Semiring = PLUS_TIMES,
    impl: str = "auto",
    counter: Optional[OpCounter] = None,
    backend: Optional[str] = None,
    b_csc: Optional[CSC] = None,
    planner: Optional[Planner] = None,
    **plan_kwargs,
) -> CSR:
    """Plan and immediately execute — what every front door calls when
    there is something to plan (``docs/engine.md``, "Path of a call").

    The plan comes from :func:`plan_call` (the given ``planner``, or the
    one cached for ``machine``), which receives every forced knob — the
    plan is the only carrier of ``backend`` into the work-item loop.  A
    given ``b_csc`` is the inner product's CSC, so the plan
    does not charge ``inner`` for building one.
    """
    pl = plan_call(
        a, b, mask, machine=machine, planner=planner, semiring=semiring,
        complement=complement, phases=phases, backend=backend, _b_csc=b_csc,
        **plan_kwargs,
    )
    # the planner validated its own plan: skip execute()'s second pass
    return _execute(
        pl, a, b, mask,
        semiring=semiring, impl=impl, counter=counter, b_csc=b_csc,
    )


@functools.lru_cache(maxsize=8)
def _planner_for(machine) -> Planner:
    """The default-policy planner of a resolved machine (planners hold no
    per-call state, so every call shares one)."""
    return Planner(machine)


def plan_call(a: CSR, b: CSR, mask: CSR, *, machine=None,
              planner: Optional[Planner] = None, semiring=None, **knobs):
    """The planning step of :func:`plan_and_execute`: pick the planner —
    the given one, else the one cached for the resolved ``machine`` — and
    hand it every knob (:meth:`Planner.plan`).

    ``semiring`` is the call's: with no ``machine`` and no ``planner``, a
    call the native tier cannot run is not priced from ``HOST_NATIVE`` but
    from the NumPy bodies' ``HOST`` (:func:`repro.machine.host_profile`)."""
    if planner is None:
        named = machine is not None
        machine = resolve_machine(machine)
        if not named and semiring is not None and machine is HOST_NATIVE:
            # the C loops' prices hold for the calls the C loops take
            machine = host_profile(semiring, a.data, b.data)
        planner = _planner_for(machine)
    return planner.plan(a, b, mask, **knobs)
