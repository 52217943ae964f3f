"""Plan executor: runs an :class:`~repro.engine.plan.ExecutionPlan`.

This is the single execution path behind every front door
(``masked_spgemm(algo="auto")``, ``masked_spgemm_hybrid``,
``masked_spgemm_chunked``, ``parallel_masked_spgemm``): row bands are
sliced out, optionally cut into column panels, run serially, across a
thread pool, or across the shared-memory process pool per the plan's
``backend``, and the disjoint partial results are merged by
concatenation.  One :class:`~repro.machine.OpCounter` is threaded through
every stage — symbolic sweeps, per-partition workers and per-panel calls
all charge the same counter, so a planned run reports exactly the work a
monolithic run would.
"""

from __future__ import annotations

import logging
from typing import List, Optional

import numpy as np

from ..core.chunked import column_panels, restrict_columns
from ..core.masked_spgemm import in_session_call, masked_spgemm
from ..machine import OpCounter, flops_per_row
from ..observe import runtime as _runtime
from ..observe import tracer as _obs
from ..parallel.executor import normalize_backend, row_slice, run_partitioned
from ..parallel.shards import run_sharded
from ..parallel.partition import (
    balanced_partition,
    block_partition,
    cyclic_partition,
)
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR
from .plan import ExecutionPlan, RowBand

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


def _partition_rows(partition: str, a: CSR, b: CSR, threads: int) -> List[np.ndarray]:
    n_parts = min(threads, max(1, a.nrows))
    if partition == "block":
        return block_partition(a.nrows, n_parts)
    if partition == "cyclic":
        return cyclic_partition(a.nrows, n_parts)
    if partition == "balanced":
        return balanced_partition(flops_per_row(a, b), n_parts)
    raise ValueError("partition must be 'block', 'cyclic' or 'balanced'")


def _run_band(
    plan: ExecutionPlan,
    band: RowBand,
    a_band: CSR,
    b: CSR,
    m_band: CSR,
    *,
    semiring: Semiring,
    impl: str,
    counter: Optional[OpCounter],
    backend: str,
    b_csc: Optional[CSC],
    session=None,
) -> CSR:
    batch = getattr(band, "batch", "auto")
    if plan.threads > 1:
        parts = _partition_rows(plan.partition, a_band, b, plan.threads)
        return run_partitioned(
            a_band,
            b,
            m_band,
            algo=band.algo,
            parts=parts,
            phases=plan.phases,
            complement=plan.complement,
            semiring=semiring,
            impl=impl,
            backend=backend,
            counter=counter,
            b_csc=b_csc,
            batch=batch,
            session=session,
        )
    return masked_spgemm(
        a_band,
        b,
        m_band,
        algo=band.algo,
        phases=plan.phases,
        complement=plan.complement,
        semiring=semiring,
        impl=impl,
        counter=counter,
        b_csc=b_csc,
        batch=batch,
        session=session,
    )


def _run_band_panelled(
    plan: ExecutionPlan,
    band: RowBand,
    a_band: CSR,
    b: CSR,
    m_band: CSR,
    *,
    semiring: Semiring,
    impl: str,
    counter: Optional[OpCounter],
    backend: str,
) -> CSR:
    """The memory-bounded path: one output-column panel at a time (panels
    whose mask slice is empty are skipped under a plain mask — the mask
    proves them empty; a complemented mask is dense exactly there)."""
    tr = _obs.current()
    out_rows: List[np.ndarray] = []
    out_cols: List[np.ndarray] = []
    out_vals: List[np.ndarray] = []
    for lo, hi in column_panels(b.ncols, plan.panel_width):
        m_panel = restrict_columns(m_band, lo, hi)
        if m_panel.nnz == 0 and not plan.complement:
            continue
        b_panel = restrict_columns(b, lo, hi)
        panel_cm = (
            tr.span("engine.panel", {"cols_lo": lo, "cols_hi": hi,
                                     "algo": band.algo})
            if tr is not None else _obs.NULL_SPAN
        )
        with panel_cm:
            c_panel = _run_band(
                plan,
                band,
                a_band,
                b_panel,
                m_panel,
                semiring=semiring,
                impl=impl,
                counter=counter,
                backend=backend,
                b_csc=None,
            )
        r, c, v = c_panel.to_coo()
        out_rows.append(r)
        out_cols.append(c + lo)
        out_vals.append(v)
    if not out_rows:
        return CSR.empty((a_band.nrows, b.ncols))
    return CSR.from_coo(
        (a_band.nrows, b.ncols),
        np.concatenate(out_rows),
        np.concatenate(out_cols),
        np.concatenate(out_vals),
    )


def _preflight_process_backend(plan: ExecutionPlan, semiring: Semiring) -> str:
    """Resolve the process backend before work starts.

    A process-backend plan can only run if the platform supports shared
    memory *and* the semiring can cross the process boundary.  When either
    fails, the run degrades to the thread backend — loudly: a ``repro``
    logger warning plus a note on the plan, so the degradation shows up in
    ``ExecutionPlan.explain()`` and exported traces instead of silently
    changing the execution characteristics.
    """
    from ..parallel import pool as _pool

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


@in_session_call
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
    ``"process"`` overrides it.  ``serial`` runs the partitioned code path
    without workers (deterministic and GIL-friendly), ``thread`` uses a
    thread pool, and ``process`` dispatches to the shared-memory worker
    pool (:mod:`repro.parallel.pool`) with zero-copy operands.  ``b_csc``
    optionally amortises the CSC build for inner-product bands across calls.

    ``session`` (an :class:`~repro.engine.ExecutionSession`) carries the
    cross-call caches: the inner-product CSC comes from the session memo
    and the process backend serves operand segments from the session's
    registry.  Results are bit-for-bit identical either way.
    """
    plan.validate()
    backend = normalize_backend(plan.backend if backend is None else backend)
    # ``False`` is the app-level "no caching" sentinel; accept it here too
    session = session or None
    if session is not None and not session.caching:
        session = None
    if a.ncols != b.nrows:
        raise ValueError(
            f"inner dimensions of A and B do not agree: {a.shape} @ {b.shape}"
        )
    if (a.nrows, b.ncols) != tuple(plan.shape):
        raise ValueError(
            f"plan shape {tuple(plan.shape)} does not match the operands' "
            f"output shape ({a.nrows}, {b.ncols})"
        )
    if mask.shape != (a.nrows, b.ncols):
        raise ValueError(
            f"mask shape {mask.shape} must match the output shape "
            f"({a.nrows}, {b.ncols})"
        )
    if not plan.bands or a.nrows == 0:
        return CSR.empty(plan.shape)

    if backend == "process":
        backend = _preflight_process_backend(plan, semiring)

    if (
        b_csc is None
        and plan.panel_width is None
        and plan.shards is None
        and any(band.algo == "inner" for band in plan.bands)
    ):
        b_csc = session.csc_of(b) if session is not None else CSC.from_csr(b)

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
    with _CALL_NOTE, exec_cm:
        if plan.shards is not None:
            # the sharded dispatch path: DCSR/DCSC shard cells, mask-pruned
            # work list, per-shard segment reuse under a session
            return run_sharded(
                plan, a, b, mask,
                semiring=semiring, impl=impl, counter=counter,
                backend=backend, session=session,
            )
        band_results: List[CSR] = []
        for i, band in enumerate(plan.bands):
            if band.nrows == 0:
                continue
            band_cm = (
                tr.span(
                    "engine.band",
                    {"band": i, "algo": band.algo, "rows": band.nrows,
                     "reason": band.reason, "est_cycles": band.est_cycles,
                     "est_bytes": band.est_bytes, "batch": band.batch,
                     "buckets": dict(band.buckets), "backend": backend,
                     "phases": plan.phases},
                    counter=counter,
                )
                if tr is not None else _obs.NULL_SPAN
            )
            with band_cm:
                full = band.is_full(a.nrows)
                a_band = a if full else row_slice(a, band.rows)
                m_band = mask if full else row_slice(mask, band.rows)
                if plan.panel_width is not None:
                    c_band = _run_band_panelled(
                        plan, band, a_band, b, m_band,
                        semiring=semiring, impl=impl, counter=counter,
                        backend=backend,
                    )
                else:
                    c_band = _run_band(
                        plan, band, a_band, b, m_band,
                        semiring=semiring, impl=impl, counter=counter,
                        backend=backend,
                        b_csc=b_csc if band.algo == "inner" else None,
                        session=session,
                    )
            band_results.append(c_band)

        if len(band_results) == 1:
            return band_results[0]
        if not band_results:
            return CSR.empty(plan.shape)
        rows, cols, vals = zip(*(part.to_coo() for part in band_results))
        return CSR.from_coo(
            plan.shape,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
        )


@in_session_call
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
    planner: Optional["Planner"] = None,
    session=None,
    delta=None,
    **plan_kwargs,
) -> CSR:
    """Plan and immediately execute — the ``algo="auto"`` one-call path.

    With a ``session``, planning uses the session's planner and
    ``plan_defaults`` (explicit ``machine=``/``planner=`` arguments are
    still honoured, see :meth:`ExecutionSession.plan`) and execution reuses
    the session's CSC memo and shm segment registry.

    ``delta`` (``"auto"``, ``"force"`` or a dirty-fraction threshold)
    routes the call through :func:`repro.engine.delta.delta_execute`:
    consecutive calls on the same problem diff their operands and
    recompute only dirty rows (``docs/incremental.md``).  Requires a
    caching session — without one, ``"auto"`` degrades to a normal full
    run and ``"force"`` raises.
    """
    from .planner import Planner

    session = session or None
    if delta is not None and delta is not False:
        if session is not None and session.caching:
            from .delta import delta_execute

            return delta_execute(
                a, b, mask,
                session=session, delta=delta, machine=machine,
                complement=complement, phases=phases, semiring=semiring,
                impl=impl, counter=counter, backend=backend, b_csc=b_csc,
                planner=planner, **plan_kwargs,
            )
        if delta == "force":
            raise ValueError(
                "delta='force' requires a caching ExecutionSession"
            )
    if session is not None and session.caching:
        pl = session.plan(
            a, b, mask,
            complement=complement, phases=phases, backend=backend,
            machine=machine, planner=planner, **plan_kwargs,
        )
        return execute(
            pl, a, b, mask,
            semiring=semiring, impl=impl, counter=counter,
            backend=None, b_csc=b_csc, session=session,
        )
    pl = (planner or Planner(machine)).plan(
        a, b, mask, complement=complement, phases=phases, **plan_kwargs
    )
    return execute(
        pl, a, b, mask,
        semiring=semiring, impl=impl, counter=counter, backend=backend, b_csc=b_csc,
    )
