"""Plan executor: runs an :class:`~repro.engine.plan.ExecutionPlan`.

This is the single execution path behind every front door
(``masked_spgemm(algo="auto")``, ``masked_spgemm_hybrid``,
``masked_spgemm_chunked``, ``parallel_masked_spgemm``) and the only code
that turns a plan into work.  Every plan is one loop over work items —
*band x row part x column panel* — of the 2-D block decomposition of
Buluc & Gilbert: row parts come from the grid's row blocks (or, on a
one-row-block grid, from ``plan.threads`` parts cut by ``plan.partition``),
column panels from the grid's column bounds.  ``1 x 1`` is the plain
call, ``R x 1`` a row partition, ``1 x K`` the panelled multiply, ``R x
K`` a grid, a delta patch a grid restricted to dirty rows.  Each item is
one :class:`~repro.parallel.pool.Task` run by
:func:`~repro.parallel.pool.run_task` — serially, across a thread pool, or
across the shared-memory process pool per the plan's ``backend`` — and the
disjoint partial results are merged by concatenation.  One
:class:`~repro.machine.OpCounter` is threaded through every stage —
symbolic sweeps and every item charge the same counter, so a planned run
reports exactly the work a monolithic run would.
"""

from __future__ import annotations

import dataclasses
import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from typing import List, Optional

import numpy as np

from ..core.leaf import caching_session, check_operands, run_kernel
from ..machine import OpCounter, flops_per_row
from ..observe import probes as _probes
from ..observe import runtime as _runtime
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
from .delta import delta_execute
from .plan import ExecutionPlan, RowBand
from .planner import Planner
from .session import plan_call

__all__ = ["execute", "plan_and_execute"]

_log = logging.getLogger("repro.engine")


class _CallNote:
    """Feeds the runtime sampler's calls-per-second throughput series.

    One shared instance wraps every :func:`execute`; exit performs a
    single module-attribute check, so the sampler-off path pays one
    no-op ``with`` per engine call and allocates nothing — the same
    disabled-path discipline as the tracer's ``NULL_SPAN``.
    """

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        sampler = _runtime._INSTALLED
        if sampler is not None:
            sampler.note_call()
        return False


_CALL_NOTE = _CallNote()


def _row_parts(plan: ExecutionPlan, band: RowBand, fl) -> List[np.ndarray]:
    """The band's rows cut into row parts: by the grid's row blocks when it
    has several, else into ``plan.threads`` parts by ``plan.partition``
    (``fl`` is ``flops_per_row(a, b)``, read by the balanced cut)."""
    rows = np.asarray(band.rows)
    if plan.grid.nrb > 1:
        cuts = np.searchsorted(rows, plan.grid.row_bounds)
        return [rows[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    n_parts = min(plan.threads, max(1, rows.size))
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


class _Published:
    """The shared-memory side of one call: publishes each operand once and
    releases (sessionless) or unpins (session registry) on exit."""

    def __init__(self, session, counter: Optional[OpCounter]) -> None:
        self._session, self._counter = session, counter
        self._cache = session.segment_cache if session is not None else None
        self._group = _shm.SegmentGroup() if self._cache is None else None
        if self._cache is not None:
            self._cache.begin_call()
            self._before = (self._cache.segments_reused,
                            self._cache.bytes_republished)

    def spec(self, mat: CSR, base: CSR, tag: tuple) -> _shm.CSRSegments:
        """Segments of ``mat``; under a session keyed by ``tag`` plus the
        fingerprint of ``base`` (the operand ``mat`` derives from)."""
        if self._cache is None:
            return self._group.publish_csr(mat)
        return self._cache.publish_csr(mat, self._session.fingerprint(base), tag)

    def __enter__(self) -> "_Published":
        return self

    def __exit__(self, *exc) -> None:
        if self._cache is None:
            self._group.close()
            return
        self._cache.end_call()
        if self._counter is not None:
            self._counter.segments_reused += (
                self._cache.segments_reused - self._before[0])
            self._counter.bytes_republished += (
                self._cache.bytes_republished - self._before[1])


def _run_tasks(tasks, backend: str, workers: int, counter: Optional[OpCounter]):
    """Run work items on ``backend``; fold their counters (and a pool
    worker's spans, probes and heartbeats) into the caller's; return the
    COO triples in item order."""
    workers = max(1, min(workers, len(tasks)))
    if backend == "process":
        payloads = _pool.run_tasks(workers, tasks)
    elif backend == "thread" and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as tp:
            payloads = list(tp.map(_pool.run_task, tasks))
    else:
        payloads = [_pool.run_task(t) for t in tasks]
    tracer, probes, sampler = _obs.current(), _probes.current(), _runtime.current()
    triples = []
    for r, c, v, item_counter, spans, probe_export, heartbeat in payloads:
        triples.append((r, c, v))
        if counter is not None:
            counter.merge(item_counter)
        # one ingest per task batch — span ids are only unique within one
        if spans and tracer is not None:
            tracer.ingest(spans)
        if probe_export and probes is not None:
            probes.ingest(probe_export)
    if sampler is not None:
        sampler.ingest_heartbeats([payload[6] for payload in payloads])
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
    session=None,
) -> CSR:
    """Run ``C = M .* (A @ B)`` (``!M`` per the plan) as the plan dictates.

    ``backend=None`` (default) follows the plan's own ``backend`` field;
    passing ``"serial"``, ``"thread"`` (alias ``"threads"``) or
    ``"process"`` overrides it.  ``serial`` runs the work items one after
    another (deterministic and GIL-friendly), ``thread`` uses a thread
    pool, and ``process`` dispatches to the shared-memory worker pool
    (:mod:`repro.parallel.pool`) with zero-copy operands.  ``b_csc``
    optionally amortises the CSC build for inner-product bands across calls.

    ``session`` (an :class:`~repro.engine.ExecutionSession`) carries the
    cross-call caches: the inner-product CSC comes from the session memo
    and the process backend serves operand and column-panel segments from
    the session's registry.  Results are bit-for-bit identical either way.
    """
    plan.validate()
    if backend is not None:
        # the plan is the only carrier of the backend into the work-item loop
        plan = dataclasses.replace(plan, backend=normalize_backend(backend))
    check_operands(a, b, mask)
    if (a.nrows, b.ncols) != tuple(plan.shape):
        raise ValueError(
            f"plan shape {tuple(plan.shape)} does not match the operands' "
            f"output shape ({a.nrows}, {b.ncols})"
        )
    session = caching_session(session)
    with session.call() if session is not None else _obs.NULL_SPAN:
        return _execute(
            plan, a, b, mask,
            semiring=semiring, impl=impl, counter=counter, b_csc=b_csc,
            session=session,
        )


def _execute(plan, a, b, mask, *, semiring, impl, counter, b_csc, session) -> CSR:
    """:func:`execute` past its checks: a validated plan (a planner's own)
    for these operands, ``session`` a caching session inside its call scope
    or ``None``."""
    backend = plan.backend
    if not plan.bands or a.nrows == 0:
        return CSR.empty(plan.shape)

    if backend == "process":
        backend = _preflight_process_backend(plan, semiring)
    grid = plan.grid

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
             "est_bytes": band.est_bytes, "batch": band.batch,
             "buckets": dict(band.buckets), "backend": backend,
             "phases": plan.phases},
            counter=counter,
        )

    with _CALL_NOTE, exec_cm, ExitStack() as stack:
        first = plan.bands[0]
        if (
            grid.ncells == 1 and plan.threads == 1
            and len(plan.bands) == 1 and first.is_full(a.nrows)
        ):
            # the plain call is its own single work item: hand back the
            # kernel's CSR untouched (no slice, no COO round trip)
            with band_span(0, first):
                return run_kernel(
                    a, b, mask,
                    algo=first.algo, phases=plan.phases,
                    complement=plan.complement, semiring=semiring, impl=impl,
                    counter=counter, b_csc=b_csc, batch=first.batch,
                    session=session,
                )

        npanels = grid.ncp
        b_panels = split_columns(b, grid.col_bounds)
        m_panels = b_panels if mask is b else split_columns(mask, grid.col_bounds)
        cscs: List[Optional[CSC]] = [None] * npanels
        if any(band.algo == "inner" for band in plan.bands):
            if npanels > 1:
                cscs = [CSC.from_csr(panel) for panel in b_panels]
            elif b_csc is not None:
                cscs = [b_csc]
            else:
                cscs = [session.csc_of(b) if session is not None
                        else CSC.from_csr(b)]
        fl = (
            flops_per_row(a, b)
            if plan.partition == "balanced" and plan.threads > 1
            and grid.nrb == 1 else None
        )
        # segment keys under a session: the operand's fingerprint, plus the
        # panel's column range when there are several
        col_ranges = [()] if npanels == 1 else grid.col_panels()
        token = _pool.encode_semiring(semiring) if backend == "process" else None
        pub = a_spec = None
        specs: dict = {}

        def spec(role: str, k: int) -> _shm.CSRSegments:
            if (role, k) not in specs:
                if role == "csc":
                    mat, base, kind = cscs[k].to_transposed_csr(), b, "csc"
                else:
                    panels, base = (b_panels, b) if role == "b" else (m_panels, mask)
                    mat, kind = panels[k], "csr"
                specs[role, k] = pub.spec(mat, base, (kind,) + tuple(col_ranges[k]))
            return specs[role, k]

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
                for part, rows in enumerate(_row_parts(plan, band, fl)):
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
                if remote and pub is None:
                    pub = stack.enter_context(_Published(session, counter))
                    a_spec = pub.spec(a, a, ("csr",))
                run_on = "serial" if backend == "process" and not remote else backend
                total = float(sum(item[3] for item in items))
                inner = band.algo == "inner"
                tasks = [
                    _pool.Task(
                        a=a_spec if remote else a,
                        b=spec("b", k) if remote else b_panels[k],
                        mask=spec("m", k) if remote else m_panels[k],
                        b_csc=None if not inner
                        else spec("csc", k) if remote else cscs[k],
                        rows=desc,
                        col_offset=grid.col_bounds[k],
                        algo=band.algo,
                        phases=plan.phases,
                        complement=plan.complement,
                        impl=impl,
                        semiring=token if remote else semiring,
                        batch=band.batch,
                        cell=(i, part, k),
                        backend=run_on,
                        est_cycles=band.est_cycles * weight / total,
                        est_bytes=band.est_bytes * weight / total,
                        trace=remote and tr is not None,
                        probe=remote and _probes.current() is not None,
                        heartbeat=remote and _runtime.current() is not None,
                    )
                    for part, k, desc, weight in items
                ]
                triples += _run_tasks(tasks, run_on, plan.threads, counter)

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
    session=None,
    delta=None,
    **plan_kwargs,
) -> CSR:
    """Plan and immediately execute — what every front door calls when
    there is something to plan (``docs/engine.md``, "Path of a call").

    The session is normalised and its call scope opened here; the plan
    comes from :func:`~repro.engine.session.plan_call` (the given
    ``planner``, the session's with its ``plan_defaults``, or the one
    cached for ``machine``), which receives every forced knob — the plan is
    the only carrier of ``backend`` into the work-item loop — and execution
    reuses the session's CSC memo and shm segment registry.

    ``delta`` (``"auto"``, ``"force"`` or a dirty-fraction threshold)
    routes the call through :func:`repro.engine.delta.delta_execute`:
    consecutive calls on the same problem diff their operands and
    recompute only dirty rows (``docs/incremental.md``).  Requires a
    caching session — without one, ``"auto"`` degrades to a normal full
    run and ``"force"`` raises.
    """
    session = caching_session(session)
    knobs = dict(plan_kwargs, complement=complement, phases=phases, backend=backend)

    def run(pl: ExecutionPlan) -> CSR:
        # the planner validated its own plan: skip execute()'s second pass
        return _execute(
            pl, a, b, mask,
            semiring=semiring, impl=impl, counter=counter, b_csc=b_csc,
            session=session,
        )

    def full_run():
        pl = plan_call(
            a, b, mask, session=session, machine=machine, planner=planner,
            semiring=semiring, **knobs
        )
        return pl, run(pl)

    if session is None:
        if delta == "force":
            raise ValueError("delta='force' requires a caching ExecutionSession")
        return full_run()[1]
    with session.call():
        if delta is None or delta is False:
            return full_run()[1]
        # one delta state per distinct problem the session serves
        slot = (
            a.shape, b.shape, mask.shape, getattr(semiring, "name", None), impl,
            machine, tuple(sorted((k, v) for k, v in knobs.items() if v is not None)),
        )
        return delta_execute(
            a, b, mask,
            session=session, delta=delta, slot=slot, full_run=full_run,
            run=run, counter=counter,
        )
