"""Plan executor: runs an :class:`~repro.engine.plan.ExecutionPlan`.

This is the single execution path behind the front door's planned calls
(``masked_spgemm(algo="auto")``, or a forced ``backend=``) and
:func:`execute`, and the only code that turns a plan into work.  A plan is
one band (one algorithm over every row), run one of two ways, as the
paper's one parallel loop over output rows (Section 3):

* a ``serial`` or ``thread`` plan is the plain kernel call, on
  ``plan.threads`` threads inside the native row loop (``serial``: one);
* a ``process`` plan cuts ``plan.threads`` flop-balanced row parts
  (:func:`~repro.parallel.partition.balanced_partition`) of A and the mask
  and sends each, against the full B, to the shared-memory process pool as
  one :class:`~repro.parallel.pool.Task` on one thread; the disjoint
  partial results are merged by concatenation.

One :class:`~repro.machine.OpCounter` is threaded through every stage —
symbolic sweeps and every row part charge the same counter, so a planned
run reports exactly the work a monolithic run would.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from ..core.leaf import Visited, align, check_operands, run_kernel
from ..machine import OpCounter, flops_per_row
from ..observe import tracer as _obs
from ..parallel import pool as _pool
from ..parallel import shm as _shm
from ..parallel.partition import balanced_partition
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR
from .plan import ExecutionPlan

__all__ = ["execute"]

_log = logging.getLogger("repro.engine")


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
    ``serial`` and ``thread`` are the plain kernel call, on
    ``plan.threads`` threads inside the native row loop (``serial``: one);
    ``process`` dispatches ``plan.threads`` row parts to the
    shared-memory worker pool (:mod:`repro.parallel.pool`) with zero-copy
    operands.  ``b_csc``
    optionally amortises the CSC build of an ``inner`` plan across calls.
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


def _execute(plan, a, b, mask, *, semiring, impl, counter, b_csc, aligned=False):
    """:func:`execute` past its checks: a validated plan (a planner's own,
    which the front door runs without ``validate()``) for these operands;
    ``aligned``: ``run_kernel(aligned=True)``'s values."""
    backend = plan.backend
    if backend == "process" and isinstance(mask, Visited):  # its workers read a CSR
        return mask.through(lambda m: _execute(plan, a, b, m, semiring=semiring, impl=impl,
                                               counter=counter, b_csc=b_csc))
    if a.nrows == 0:
        return np.zeros(0) if aligned else CSR.empty(plan.shape)

    if backend == "process":
        backend = _preflight_process_backend(plan, semiring)
    (band,) = plan.bands

    tr = _obs.current()
    if tr is not None and counter is None:
        # under tracing, the band span carries its counter delta so the
        # prediction ledger can pair measured work with the band's predicted
        # time; allocate a run-local counter when the caller did
        # not pass one (tracing already pays for itself — the disabled
        # path is untouched)
        counter = OpCounter()
    if tr is None:
        exec_cm = band_cm = _obs.NULL_SPAN
    else:
        exec_cm = tr.span(
            "engine.execute",
            {"plan": plan.as_dict(), "backend": backend},
            counter=counter,
        )
        band_cm = tr.span(
            "engine.band",
            {"band": 0, "algo": band.algo, "rows": band.nrows,
             "reason": band.reason, "est_cycles": band.est_cycles,
             "backend": backend,
             "phases": plan.phases},
            counter=counter,
        )

    with exec_cm, band_cm:
        parts = _row_parts(a, b, plan.threads) if backend == "process" else []
        if len(parts) < 2:
            # the plain call: the kernel's CSR untouched; a process plan
            # with one row part keeps its one thread
            nthreads = plan.threads if backend == "thread" else 1
            return run_kernel(
                a, b, mask,
                algo=band.algo, phases=plan.phases,
                complement=plan.complement, semiring=semiring, impl=impl,
                counter=counter, b_csc=b_csc,
                nthreads=min(nthreads, a.nrows), aligned=aligned,
            )
        if band.algo == "inner" and b_csc is None:
            # built here, on the plan's threads (its workers wait)
            b_csc = CSC(b.shape, b._transpose(plan.threads))
        c = _run_on_pool(
            plan, band, a, b, mask, parts,
            semiring=semiring, impl=impl, counter=counter, b_csc=b_csc,
            trace=tr is not None,
        )
        return align(mask, c) if aligned else c


def _row_parts(a, b, threads: int) -> list:
    """The nonempty ``(lo, hi)`` ranges of ``threads`` contiguous row parts
    of about equal flops."""
    if threads < 2:
        return []
    bounds = balanced_partition(flops_per_row(a, b), min(threads, a.nrows))
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _run_on_pool(plan, band, a, b, mask, parts, *, semiring, impl, counter,
                 b_csc, trace) -> CSR:
    """Each row part on the process pool, one thread each; fold the parts'
    counters (and their workers' spans) into the caller's and merge their
    COO triples in part order."""
    inner = band.algo == "inner"
    token = _pool.encode_semiring(semiring)
    # the call's segments, unlinked when it returns; each operand object is
    # published once, however many roles read it (A = B = M for TC)
    with _shm.SegmentGroup() as group:
        published: dict = {}

        def segments(mat) -> _shm.CSRSegments:
            if id(mat) not in published:
                csr = mat.to_transposed_csr() if isinstance(mat, CSC) else mat
                published[id(mat)] = group.publish_csr(csr)
            return published[id(mat)]

        operands = dict(a=segments(a), b=segments(b), mask=segments(mask),
                        b_csc=segments(b_csc) if inner else None)
        tasks = [
            _pool.Task(
                **operands,
                rows=rows,
                algo=band.algo,
                phases=plan.phases,
                complement=plan.complement,
                impl=impl,
                semiring=token,
                cell=(0, part),
                # flop-balanced parts: an equal share of the band's
                # predicted time each
                est_cycles=band.est_cycles / len(parts),
                trace=trace,
            )
            for part, rows in enumerate(parts)
        ]
        payloads = _pool.run_tasks(len(tasks), tasks)

    tracer = _obs.current()
    rows, cols, vals = [], [], []
    for r, c, v, part_counter, spans in payloads:
        rows.append(r)
        cols.append(c)
        vals.append(v)
        if counter is not None:
            counter.merge(part_counter)
        # one ingest per part — span ids are only unique within one
        if spans and tracer is not None:
            tracer.ingest(spans)
    return CSR.from_coo(
        plan.shape, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
