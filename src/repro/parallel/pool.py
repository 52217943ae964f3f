"""Persistent process pool for the shared-memory execution backend.

Spawning workers is the dominant fixed cost of process parallelism in
Python (interpreter + NumPy import on ``spawn``; page-table copy on
``fork``).  The applications this library targets are *iterative* —
k-truss rounds and betweenness-centrality batches — so the pool is
created once, kept warm, and reused by every subsequent process-backend
call; ``atexit`` (or an explicit :func:`shutdown_pool` / the
:func:`process_pool` context manager) tears it down.

Task protocol: the engine cuts a process plan into flop-balanced row
parts (:mod:`repro.engine.executor`) and runs each one through
:func:`run_task` on a pool worker: the parent publishes the operands into
shared memory (:mod:`repro.parallel.shm`) and the :class:`Task` carries
only segment *addresses*, the part's row range and scalar knobs — a few
hundred bytes — while workers attach the segments as zero-copy NumPy
views.  Each part runs under its own :class:`~repro.machine.OpCounter`
and returns its partial output as COO triples plus the counter, so results
and counters are identical across ``serial`` / ``thread`` / ``process``.

Semirings cross the boundary by *name* for the standard registry
(:data:`repro.semiring.STANDARD_SEMIRINGS`) and by pickle otherwise;
semirings capturing unpicklable state make
:func:`encode_semiring` return ``None`` and the caller falls back to the
thread backend rather than failing.
"""

from __future__ import annotations

import atexit
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import multiprocessing as mp

from ..core.leaf import run_kernel
from ..machine import OpCounter
from ..observe import tracer as _obs
from ..semiring import STANDARD_SEMIRINGS, Semiring
from ..sparse import CSC, CSR
from . import shm as _shm
from .executor import row_block

__all__ = [
    "Task",
    "run_task",
    "get_pool",
    "shutdown_pool",
    "pool_size",
    "pool_pids",
    "process_pool",
    "process_backend_available",
    "run_tasks",
    "encode_semiring",
    "decode_semiring",
]


def process_backend_available() -> bool:
    """Whether this platform can run the shared-memory process backend."""
    if not _shm.HAVE_SHARED_MEMORY:
        return False
    methods = mp.get_all_start_methods()
    return "fork" in methods or "spawn" in methods


def _context() -> mp.context.BaseContext:
    # fork is dramatically cheaper to bring up and inherits the importable
    # package state; spawn is the portable fallback.
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context("spawn")  # pragma: no cover - non-fork platforms


# ----------------------------------------------------------------------
# the singleton pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent pool, grown (never shrunk) to at least ``workers``.

    Growing replaces the pool — a rare event once an application reaches
    its steady-state worker count; reuse is the common case and costs a
    dictionary read.
    """
    global _POOL, _POOL_WORKERS
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if _POOL is None or _POOL_WORKERS < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=_context())
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Shut the persistent pool down (workers exit; attachments die with
    them).  Safe to call when no pool exists; the next process-backend
    call simply spawns a fresh one."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


def pool_size() -> int:
    """Current worker count of the persistent pool (0 = not running)."""
    return _POOL_WORKERS


def pool_pids() -> Tuple[int, ...]:
    """Pids of the live pool worker processes (empty when no pool runs).

    Workers spawn lazily, so right after :func:`get_pool` this may be
    shorter than :func:`pool_size`.
    """
    if _POOL is None:
        return ()
    procs = getattr(_POOL, "_processes", None) or {}
    return tuple(sorted(pid for pid, p in list(procs.items()) if p.is_alive()))


@contextmanager
def process_pool(workers: int):
    """Context manager guaranteeing pool teardown on exit.

    For one-shot scripts; long-running applications should rely on the
    persistent pool + ``atexit`` instead and keep the spawn cost amortised.
    """
    try:
        yield get_pool(workers)
    finally:
        shutdown_pool()


# ----------------------------------------------------------------------
# semiring transfer
# ----------------------------------------------------------------------
def encode_semiring(semiring: Semiring):
    """Portable token for a semiring, or ``None`` if untransferable."""
    std = STANDARD_SEMIRINGS.get(semiring.name)
    if std is semiring:
        return ("named", semiring.name)
    try:
        return ("pickled", pickle.dumps(semiring))
    except Exception:
        return None


def decode_semiring(token) -> Semiring:
    kind, payload = token
    if kind == "named":
        return STANDARD_SEMIRINGS[payload]
    return pickle.loads(payload)


# ----------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Task:
    """One work item of one masked-SpGEMM call: one row part of A and the
    mask, against the whole B.

    The operand fields hold :class:`~repro.parallel.shm.CSRSegments`
    addresses when the item crosses the process boundary (picklable, tiny)
    and the CSR/CSC objects themselves in-process;
    ``semiring`` likewise holds the :func:`encode_semiring` token or the
    semiring.
    """

    a: Union[CSR, _shm.CSRSegments]  #: the whole A
    b: Union[CSR, _shm.CSRSegments]  #: the whole B
    mask: Union[CSR, _shm.CSRSegments]  #: the whole mask
    b_csc: Union[CSC, _shm.CSRSegments, None]  #: B's CSC (inner only)
    #: rows ``[lo, hi)`` of A and the mask this item owns (a zero-copy view)
    rows: Tuple[int, int]
    algo: str
    phases: int
    complement: bool
    impl: str
    semiring: Union[Semiring, tuple]
    #: span attributes: (band, row part) — band 0, a plan's one — and the
    #: item's share of the band's predicted time for the prediction ledger
    cell: Tuple[int, int] = (0, 0)
    est_cycles: float = 0.0
    #: worker side only — record spans under a task-local tracer and ship
    #: them back with the result
    trace: bool = False


def _rows_of(mat: CSR, rows: Tuple[int, int]) -> Tuple[CSR, int]:
    """The item's rows of ``mat`` and the offset that lifts the slice's row
    ids back to global ones."""
    lo, hi = int(rows[0]), int(rows[1])
    if lo == 0 and hi == mat.nrows:
        return mat, 0
    return row_block(mat, lo, hi), lo


def run_task(task: Task):
    """Run one work item: slice, multiply, return global COO + counter.

    The kernel runs on one thread, because a forked worker must never
    enter libgomp (``native.c``).  In a pool worker the operands arrive as
    segment addresses and are attached as zero-copy views (in-process the
    item holds the operands themselves); when ``task.trace`` is
    set a task-local tracer is installed for the duration of the task, so
    the item span and every nested kernel span come back serialized in the
    payload and the coordinator merges them onto its timeline
    (:meth:`repro.observe.Tracer.ingest`).  It is uninstalled in
    ``finally`` — the pool is persistent, and later untraced calls must
    not pay for (or leak into) this one.  In-process the ambient tracer
    records the same span directly.
    """
    tracer = None
    if task.trace:
        tracer = _obs.Tracer()
        prev = _obs.set_tracer(tracer)
    try:
        remote = isinstance(task.a, _shm.CSRSegments)
        a = _shm.attach_csr(task.a) if remote else task.a
        b = _shm.attach_csr(task.b) if remote else task.b
        mask = _shm.attach_csr(task.mask) if remote else task.mask
        b_csc = _shm.attach_csc(task.b_csc) if remote else task.b_csc
        semiring = decode_semiring(task.semiring) if remote else task.semiring
        counter = OpCounter()
        a_s, offset = _rows_of(a, task.rows)
        m_s, _ = _rows_of(mask, task.rows)
        tr = _obs.current()
        span_cm = (
            tr.span(
                "engine.cell",
                {"cell": list(task.cell),
                 "backend": "process" if remote else "serial",
                 "algo": task.algo, "rows": a_s.nrows, "cols": b.ncols,
                 "est_cycles": task.est_cycles},
                counter=counter,
            )
            if tr is not None else _obs.NULL_SPAN
        )
        # compute inside the span, build the payload after it closes so the
        # item span itself is part of the exported records
        with span_cm:
            c = run_kernel(
                a_s, b, m_s,
                algo=task.algo, phases=task.phases, complement=task.complement,
                semiring=semiring, impl=task.impl, counter=counter,
                b_csc=b_csc,
            )
            r, cc, v = c.to_coo()
            if offset:
                r += offset
        return r, cc, v, counter, tracer.export() if tracer is not None else []
    finally:
        if tracer is not None:
            _obs.set_tracer(prev)


def run_tasks(workers: int, tasks: Sequence[Task]) -> List[tuple]:
    """Run tasks on the persistent pool; one :func:`run_task` payload per
    task, in task order.

    Futures are awaited in order, which keeps the merged output
    deterministic.  Payloads stay one per task because each task ran under
    a fresh worker tracer whose span ids start at 1, and ``Tracer.ingest``
    remaps ids batch by batch; flattening the span batches would cross-link
    spans from different tasks.  A broken pool (a worker was OOM-killed or
    crashed) is discarded so the next call starts clean, and the error
    propagates to the caller.
    """
    pool = get_pool(workers)
    futures = [pool.submit(run_task, t) for t in tasks]
    try:
        return [fut.result() for fut in futures]
    except BrokenProcessPool:
        shutdown_pool()
        raise


# Registered at import time — not lazily in get_pool — so interpreter exit
# can never strand pool workers or their shm attachments, even when a
# crash unwinds past the first get_pool call.  atexit tolerates both the
# no-pool case (shutdown_pool is a no-op) and duplicate registration
# across reloads.
atexit.register(shutdown_pool)
