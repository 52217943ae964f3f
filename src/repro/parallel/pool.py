"""Persistent process pool for the shared-memory execution backend.

Spawning workers is the dominant fixed cost of process parallelism in
Python (interpreter + NumPy import on ``spawn``; page-table copy on
``fork``).  The applications this library targets are *iterative* —
k-truss rounds, betweenness-centrality batches, Markov-clustering
expansions — so the pool is created once, kept warm, and reused by every
subsequent process-backend call; ``atexit`` (or an explicit
:func:`shutdown_pool` / the :func:`process_pool` context manager) tears it
down.

Task protocol: the engine cuts a plan into work items (band x row part x
column panel, :mod:`repro.engine.executor`) and every backend runs each
one through :func:`run_task`.  For the process backend the parent
publishes the operands into shared memory (:mod:`repro.parallel.shm`) and
the :class:`Task` carries only segment *addresses*, the item's row
descriptor and scalar knobs — a few hundred bytes — while workers attach
the segments as zero-copy NumPy views; in-process backends put the CSR
operands in the same fields.  Each item runs under its own
:class:`~repro.machine.OpCounter` and returns its partial output as COO
triples plus the counter, so results and counters are identical across
``serial`` / ``thread`` / ``process``.

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
from .executor import row_block, row_slice

__all__ = [
    "Task",
    "run_task",
    "get_pool",
    "shutdown_pool",
    "pool_size",
    "pool_pids",
    "pool_stats",
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
#: lifetime task counters (coordinator side) — the runtime sampler's
#: queue-depth series reads submitted - completed
_POOL_TASKS = {"submitted": 0, "completed": 0}


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
    shorter than :func:`pool_size`; after a dispatch it is the fleet the
    heartbeat series should cover.
    """
    if _POOL is None:
        return ()
    procs = getattr(_POOL, "_processes", None) or {}
    return tuple(sorted(pid for pid, p in list(procs.items()) if p.is_alive()))


def pool_stats() -> dict:
    """Coordinator-side pool gauges for samplers and ``metrics()``.

    ``tasks_inflight`` is submitted-minus-completed at this instant —
    the queue depth the runtime sampler's ring buffer tracks.
    """
    submitted = _POOL_TASKS["submitted"]
    completed = _POOL_TASKS["completed"]
    return {
        "size": _POOL_WORKERS,
        "pids": list(pool_pids()),
        "tasks_submitted": submitted,
        "tasks_completed": completed,
        "tasks_inflight": max(0, submitted - completed),
    }


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
    """One work item of one masked-SpGEMM call: a band's rows in one row
    part, against one column panel.

    The operand fields hold :class:`~repro.parallel.shm.CSRSegments`
    addresses when the item crosses the process boundary (picklable, tiny)
    and the CSR/CSC objects themselves on the serial and thread backends;
    ``semiring`` likewise holds the :func:`encode_semiring` token or the
    semiring.
    """

    a: Union[CSR, _shm.CSRSegments]  #: the whole A
    b: Union[CSR, _shm.CSRSegments]  #: B's column panel
    mask: Union[CSR, _shm.CSRSegments]  #: the mask's column panel
    b_csc: Union[CSC, _shm.CSRSegments, None]  #: the panel's CSC (inner only)
    #: rows of A and the mask this item owns: ("range", lo, hi) for a
    #: contiguous run (a zero-copy view), ("rows", ndarray) otherwise
    rows: tuple
    col_offset: int  #: first output column of the panel
    algo: str
    phases: int
    complement: bool
    impl: str
    semiring: Union[Semiring, tuple]
    #: kernel batching tier of the item's band ("auto" | "bucket" | "perrow")
    batch: str = "auto"
    #: span attributes: (band, row part, panel) and the item's apportioned
    #: share of the band's modeled cycles/bytes for the prediction ledger
    cell: Tuple[int, int, int] = (0, 0, 0)
    backend: str = "serial"
    est_cycles: float = 0.0
    est_bytes: float = 0.0
    #: worker side only — record spans / probe histograms under a
    #: task-local registry and ship them back with the result
    trace: bool = False
    probe: bool = False
    #: ship a compact worker heartbeat (pid, RSS, CPU, tasks done, cached
    #: attachments) back with the result — set while a
    #: :class:`~repro.observe.runtime.RuntimeSampler` is installed
    heartbeat: bool = False


def _rows_of(mat: CSR, desc: tuple) -> Tuple[CSR, int]:
    """The item's rows of ``mat`` and the offset that lifts the slice's row
    ids back to global ones."""
    if desc[0] == "range":
        lo, hi = int(desc[1]), int(desc[2])
        if lo == 0 and hi == mat.nrows:
            return mat, 0
        return row_block(mat, lo, hi), lo
    return row_slice(mat, desc[1]), 0


def run_task(task: Task):
    """Run one work item: slice, multiply, return global COO + counter.

    The single entry point of all three backends.  In a pool worker the
    operands arrive as segment addresses and are attached as zero-copy
    views; when ``task.trace`` / ``task.probe`` are set a task-local tracer
    / probe registry is installed for the duration of the task, so the
    item span and every nested kernel span come back serialized in the
    payload and the coordinator merges them onto its timeline
    (:meth:`repro.observe.Tracer.ingest`).  Both are uninstalled in
    ``finally`` — the pool is persistent, and later untraced calls must
    not pay for (or leak into) this one.  In-process the ambient tracer
    records the same span directly.
    """
    tracer = probes = None
    if task.trace:
        tracer = _obs.Tracer()
        prev = _obs.set_tracer(tracer)
    if task.probe:
        from ..observe.probes import ProbeRegistry, set_probes

        probes = ProbeRegistry()
        prev_probes = set_probes(probes)
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
                {"cell": list(task.cell), "backend": task.backend,
                 "algo": task.algo, "rows": a_s.nrows, "cols": b.ncols,
                 "batch": task.batch, "est_cycles": task.est_cycles,
                 "est_bytes": task.est_bytes},
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
                b_csc=b_csc, batch=task.batch,
            )
            r, cc, v = c.to_coo()
            if offset:
                r += offset
            if task.col_offset:
                cc += task.col_offset
        return (
            r, cc, v, counter,
            tracer.export() if tracer is not None else [],
            probes.export() if probes is not None else {},
            _worker_heartbeat(task) if remote else None,
        )
    finally:
        if probes is not None:
            set_probes(prev_probes)
        if tracer is not None:
            _obs.set_tracer(prev)


#: worker-side lifetime task count — always maintained (one integer add),
#: reported only when a task asks for a heartbeat
_WORKER_TASKS_DONE = 0


def _worker_heartbeat(task) -> Optional[dict]:
    """Build this worker's heartbeat if the task asked for one.

    Runs in the pool worker as part of every task.  The task counter is
    bumped unconditionally so heartbeats stay accurate when a sampler is
    installed mid-run; the (slightly costlier) ``/proc`` reads happen only
    on the sampled path.
    """
    global _WORKER_TASKS_DONE
    _WORKER_TASKS_DONE += 1
    if not task.heartbeat:
        return None
    from ..observe.runtime import worker_heartbeat

    return worker_heartbeat(
        tasks_completed=_WORKER_TASKS_DONE,
        cached_forms=len(_shm._ATTACHED),
    )


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
    _POOL_TASKS["submitted"] += len(tasks)
    futures = [pool.submit(run_task, t) for t in tasks]
    payloads: List[tuple] = []
    try:
        for fut in futures:
            payloads.append(fut.result())
            _POOL_TASKS["completed"] += 1
    except BrokenProcessPool:
        shutdown_pool()
        raise
    finally:
        # rebalance abandoned futures on error so the sampler's queue-depth
        # gauge returns to zero instead of reporting phantom in-flight work
        _POOL_TASKS["completed"] += len(tasks) - len(payloads)
    return payloads


# Registered at import time — not lazily in get_pool — so interpreter exit
# can never strand pool workers or their shm attachments, even when a
# crash unwinds past the first get_pool call.  atexit tolerates both the
# no-pool case (shutdown_pool is a no-op) and duplicate registration
# across reloads.
atexit.register(shutdown_pool)
