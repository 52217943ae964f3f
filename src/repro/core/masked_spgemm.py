"""User-facing masked SpGEMM dispatcher.

``masked_spgemm(A, B, M, algo=..., ...)`` computes ``C = M .* (A @ B)`` (or
``C = !M .* (A @ B)`` with ``complement=True``) on an arbitrary semiring
using any of the paper's algorithms:

========  ======================================  ==========  ==========
algo      description                             complement  fast path
========  ======================================  ==========  ==========
auto      planner picks per row band              yes         yes
inner     pull-based dot products (Sec. 4.1)      no          yes
msa       Masked Sparse Accumulator (Sec. 5.2)    yes         yes
hash      hash accumulator (Sec. 5.3)             yes         yes
mca       Mask Compressed Accumulator (Sec. 5.4)  no          yes
heap      heap merge, NInspect=1 (Sec. 5.5)       yes         reference
heapdot   heap merge, NInspect=inf (Sec. 5.5)     yes         reference
esc       expand-sort-compress (extension)        yes         yes
========  ======================================  ==========  ==========

``algo="auto"`` routes through :mod:`repro.engine`: a
:class:`~repro.engine.Planner` builds an inspectable
:class:`~repro.engine.ExecutionPlan` from the matrices' statistics and —
unless a modeled ``machine=`` is named — the measured per-unit costs of
the fast kernels on this interpreter, and the engine executes it (use
``repro.engine.plan(...)`` directly to *see* the decision before running
it).

``phases`` selects the 1P/2P output-formation strategy of Section 6: 2P
runs a symbolic sweep first (its cost lands in ``counter.symbolic_flops``)
and the numeric phase writes into an exact allocation; 1P sizes scratch by
the mask bound.  Both produce identical matrices — the difference is work,
which the counters and the cost model expose.

``impl`` picks the implementation tier: ``"fast"`` (vectorized NumPy,
default), ``"reference"`` (pseudocode-faithful scalar code), or ``"auto"``
(fast where available, reference otherwise — heap schemes are
reference-only by design; they are the paper's slowest and serve as the
algorithmic lower bound for merging without an accumulator array).

This module is the **front door**: :func:`masked_spgemm` and its three
historical spellings (``_hybrid``, ``_chunked``, ``parallel_`` — a dict of
forced plan knobs each) check the spellings, then run the one algorithm
the caller forced (:func:`repro.core.leaf.run_kernel`) or hand the call to
:func:`repro.engine.plan_and_execute` (``docs/engine.md``, "Path of a call").
"""

from __future__ import annotations

from typing import Optional

from ..machine import HASWELL, MachineConfig, OpCounter
from ..observe import tracer as _obs
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR
from .kernels.batch import BATCH_TIERS
from .leaf import (
    ALGO_LABELS,
    ALGOS,
    ALL_ALGOS,
    EXTENSION_ALGOS,
    caching_session,
    check_operands,
    classify_rows,
    run_kernel,
    supports_complement,
)

__all__ = [
    "masked_spgemm",
    "masked_spgemm_hybrid",
    "masked_spgemm_chunked",
    "parallel_masked_spgemm",
    "classify_rows",
    "ALGOS",
    "EXTENSION_ALGOS",
    "ALL_ALGOS",
    "supports_complement",
    "ALGO_LABELS",
]


def _check_spellings(
    algo: str, phases, impl: str, batch: str, backend=None, delta=None
) -> str:
    """Every front door's option-spelling checks; the algorithm key."""
    key = algo.lower()
    if batch not in BATCH_TIERS:
        raise ValueError(f"batch must be one of {BATCH_TIERS}, got {batch!r}")
    if key != "auto" and key not in ALL_ALGOS:
        raise ValueError(
            f"unknown algorithm {algo!r}; expected one of "
            f"{('auto',) + ALL_ALGOS}"
        )
    if phases is not None and phases not in (1, 2):
        raise ValueError("phases must be 1 or 2")
    if impl not in ("fast", "reference", "auto"):
        raise ValueError("impl must be 'fast', 'reference' or 'auto'")
    if backend is not None:
        from ..parallel.executor import normalize_backend

        normalize_backend(backend)
    if delta is not None and delta is not False:
        from ..engine.delta import resolve_delta

        resolve_delta(delta)
    return key


def _planned(a, b, mask, *, algo, phases, impl, batch="auto", **call) -> CSR:
    """The internal call every front door is a spelling of: spellings
    checked, then :func:`repro.engine.plan_and_execute` (shape checks,
    machine, session scope, plan, work items) with the door's forced plan
    knobs among ``call``."""
    key = _check_spellings(
        algo, phases, impl, batch, call.get("backend"), call.get("delta")
    )
    from ..engine.executor import plan_and_execute

    return plan_and_execute(
        a, b, mask,
        algo=None if key == "auto" else key, phases=phases, impl=impl,
        batch=None if batch == "auto" else batch, **call,
    )


def masked_spgemm(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    algo: str = "msa",
    phases: Optional[int] = None,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    impl: str = "auto",
    counter: Optional[OpCounter] = None,
    b_csc: Optional[CSC] = None,
    orientation: str = "row",
    machine: Optional[MachineConfig] = None,
    backend: Optional[str] = None,
    shards=None,
    batch: str = "auto",
    session=None,
    delta=None,
) -> CSR:
    """Compute ``C = M .* (A @ B)`` (``!M`` with ``complement=True``).

    Parameters
    ----------
    a, b:
        CSR operands; inner dimensions must agree.
    mask:
        CSR mask; only its pattern is used (values ignored).
    algo:
        One of :data:`ALGOS`, or ``"auto"`` to let the cost-model planner
        (:mod:`repro.engine`) choose per row band.
    phases:
        1 (one-phase) or 2 (two-phase with a symbolic sweep).  Defaults to
        1, except with ``algo="auto"`` where the planner decides.
    semiring:
        Any :class:`repro.semiring.Semiring`; fast kernels additionally
        require the semiring's ``add_ufunc`` to support ``.at``/``.reduceat``.
    impl:
        ``"fast"``, ``"reference"`` or ``"auto"``.
    counter:
        Optional :class:`OpCounter` accumulating the operation profile.
    b_csc:
        Pre-built CSC of ``B`` for the inner algorithm (amortises the
        transpose across calls, as a real user would).
    orientation:
        ``"row"`` (the paper's row-by-row decomposition, default) or
        ``"column"`` — compute column-by-column by running the row
        algorithm on the transposed problem ``(B^T A^T)^T`` (the
        Buluç–Gilbert orientation the heap algorithm came from).  Only the
        traversal order changes; results are identical.
    machine:
        What the ``"auto"`` planner prices the plan from.  ``None``
        (default): this host — the measured
        :class:`~repro.machine.HostProfile` and the cores the process may
        use.  A paper machine — ``"haswell"``, ``"knl"`` or a
        :class:`MachineConfig` — plans for that modeled machine instead
        (figure reproduction).  An explicit algorithm with nothing else to
        plan never reads it.
    backend:
        Execution backend, the caller's to pick: ``None`` (default) runs
        one worker in-process — the host planner never fans out on its own
        (``docs/parallel.md``, "Who picks the backend"; a modeled
        ``machine=`` keeps its preset's rule).  ``"serial"``, ``"thread"``
        or ``"process"`` forces it, with ``algo="auto"`` or an explicit
        algorithm alike: the call goes through the engine, which cuts the
        rows into ``min(cores, rows / 512)`` parts; use
        :func:`repro.parallel.parallel_masked_spgemm` to force the worker
        count as well.
    shards:
        Grid knob (see ``docs/parallel.md``): ``None`` (default) is the
        plain ``1 x 1`` call; ``(row_blocks, col_panels)`` cuts the output
        into an evenly-spaced grid; an explicit
        :class:`~repro.engine.ShardGrid` is used verbatim.  Any
        non-``None`` value routes execution through the engine (with the
        given ``algo`` forced, or the planner's choice for ``"auto"``),
        which runs one work item per grid cell and drops cells whose mask
        cell is empty; results are bit-for-bit identical to the plain call.
    batch:
        How the NumPy tier's push loop chunks rows (see
        ``docs/kernels.md``): ``"bucket"`` — power-of-two size classes of
        the rows' upper-bound flops — or ``"perrow"`` — contiguous
        flop-budget row blocks; ``"auto"`` (default) buckets when the
        call's upper-bound flops reach the crossover (``1 << 18``).  With
        ``algo="auto"`` the planner decides per row band (a forced value
        applies to every band).  Values and counters are bit-for-bit the
        same either way.  It selects for ``msa`` and ``esc``; it is a
        no-op for ``hash``, the native loops and every other algorithm.
    session:
        Optional :class:`repro.engine.ExecutionSession` holding cross-call
        caches for iterative workloads: CSC transpose memo, 2P
        symbolic-bound memo, delta state and (for the process backend) the
        shm segment registry.  Results are bit-for-bit identical with or without one.
        ``False`` (the app-level "disable caching" sentinel) is accepted
        and means the same as ``None`` here: no cross-call caching.
    delta:
        Incremental execution against the session's cached state (see
        ``docs/incremental.md``): ``None`` (default) recomputes fully;
        ``"auto"`` diffs consecutive operands and recomputes only the
        dirty output rows when that is predicted cheaper than a full run
        from this host's measured per-row costs — otherwise it runs full
        and stops tracking the problem for the rest of the session; a
        float in ``(0, 1]`` patches while the dirty-row share stays at or
        under it; ``"force"`` always patches (test hook).  Any
        non-``None`` value routes through the engine; a caching
        ``session`` is required — ``"auto"`` silently degrades to a full
        run without one, ``"force"`` raises.  Results are bit-for-bit
        identical to a full recompute on every backend and grid.
    """
    if orientation not in ("row", "column"):
        raise ValueError("orientation must be 'row' or 'column'")
    column = orientation == "column"
    if column:
        # column-by-column is the row algorithm on (B^T A^T)^T: operands and
        # grid (which is in output coordinates) are transposed here, once
        a, b, mask, b_csc = b.transpose(), a.transpose(), mask.transpose(), None
        if isinstance(shards, tuple):
            shards = (shards[1], shards[0])
        elif shards is not None and not isinstance(shards, str):
            shards = type(shards)(shards.col_bounds, shards.row_bounds)
    if (
        algo.lower() == "auto" or shards is not None or backend is not None
        or (delta is not None and delta is not False)
    ):
        # the planner picks per-row-band algorithms, phases and partition
        # from the cost model (a forced algo keeps the algo: shards= grids
        # the dispatch, backend= cuts it into row parts, delta= threads the
        # call through the incremental path)
        c = _planned(
            a, b, mask,
            algo=algo, phases=phases, impl=impl, batch=batch,
            complement=complement, semiring=semiring, counter=counter,
            b_csc=b_csc, machine=machine, backend=backend, shards=shards,
            session=session, delta=delta,
        )
    else:
        # a forced algorithm with no grid, backend or delta has nothing to
        # plan (batch="auto" is resolved where the chunks are made)
        key = _check_spellings(algo, phases, impl, batch)
        check_operands(a, b, mask)
        if complement and not supports_complement(key):
            raise ValueError(f"{ALGO_LABELS[key]} does not support complemented masks")
        session = caching_session(session)
        with session.call() if session is not None else _obs.NULL_SPAN:
            c = run_kernel(
                a, b, mask,
                algo=key, phases=1 if phases is None else phases,
                complement=complement, semiring=semiring, impl=impl,
                counter=counter, b_csc=b_csc, batch=batch, session=session,
            )
    return c.transpose() if column else c


def masked_spgemm_hybrid(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    machine: MachineConfig = HASWELL,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    pull_ratio: float = 8.0,
    push_ratio: float = 8.0,
    impl: str = "auto",
) -> CSR:
    """Masked SpGEMM with a per-row algorithm choice by the ratio heuristic
    — the paper's stated future work (Section 9: "hybrid algorithms that
    can use different accumulators in the same Masked SpGEMM depending on
    the density of the mask and parts of matrices being processed").

    The front door with a ratio-banded planner (``banding="ratio"``, see
    :func:`classify_rows`) and one worker forced; use ``masked_spgemm(...,
    algo="auto")`` for the cost-model-driven choice.
    """
    from ..engine.planner import Planner

    planner = Planner(
        machine, banding="ratio", pull_ratio=pull_ratio, push_ratio=push_ratio
    )
    return _planned(
        a, b, mask,
        algo="auto", phases=1, impl=impl, complement=complement,
        semiring=semiring, counter=counter, planner=planner, threads=1,
    )


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
    """``M .* (A @ B)`` computed one output-column panel at a time — the
    memory-bounded (out-of-core style) spelling.

    The front door with ``panel_width`` and one worker forced: a ``1 x K``
    grid (``docs/parallel.md``) restricts ``B`` and the mask to one column
    panel at a time, so peak footprint is ~``nnz(B_panel) + nnz(M_panel) +
    panel_output``; output columns are disjoint across panels, so the
    merge is free.  Equivalent to :func:`masked_spgemm` (tested to be).
    Panels whose mask slice is empty are skipped entirely (plain mask) —
    with a complemented mask no panel can be skipped (the complement is
    dense there), so the panelling only bounds memory.  ``algo="auto"``
    lets the cost-model planner pick the per-band algorithms; the planner
    can also *choose* panelling (``Planner.plan(memory_budget_bytes=)``).
    """
    return _planned(
        a, b, mask,
        algo=algo, phases=phases, impl=impl, complement=complement,
        semiring=semiring, counter=counter, threads=1, panel_width=panel_width,
    )


def parallel_masked_spgemm(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    algo: str = "msa",
    threads: int = 4,
    partition: str = "balanced",
    phases: int = 1,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    impl: str = "auto",
    backend: str = "thread",
    counter: Optional[OpCounter] = None,
    batch: Optional[str] = None,
) -> CSR:
    """Masked SpGEMM with row-parallel execution — the paper's
    coarse-grained row parallelism (within-row parallelism is deliberately
    absent, as in the paper).

    ``partition``: ``"block"``, ``"cyclic"`` or ``"balanced"`` (flops-
    weighted contiguous blocks).  ``backend``: ``"serial"``, ``"thread"``
    (alias ``"threads"``), ``"process"`` (shared-memory worker pool), or
    ``"auto"`` for the planner's rule under a forced worker count
    (``"thread"`` on the host).  ``algo="auto"`` lets the cost-model planner
    choose the algorithm (the thread count and partition stay as forced here).
    ``batch`` forces the kernels' batching tier (``"bucket"`` /
    ``"perrow"``, see ``docs/kernels.md``); ``None`` lets the flop
    crossover decide per band.

    ``threads`` must be ``>= 1``; ``threads=1`` always takes the serial
    path directly — no pool of any kind is built.

    The front door with ``threads`` / ``partition`` / ``backend`` forced.
    """
    from ..parallel.executor import normalize_backend

    if threads < 1:
        raise ValueError("threads must be positive (>= 1)")
    if str(backend).lower() == "auto":
        forced_backend = None  # the planner's rule for a forced threads=
    else:
        forced_backend = normalize_backend(backend)
    if threads == 1:
        forced_backend = "serial"  # never build a pool for one worker
    return _planned(
        a, b, mask,
        algo=algo, phases=phases, impl=impl, batch="auto" if batch is None else batch,
        complement=complement, semiring=semiring, counter=counter,
        threads=min(threads, max(1, a.nrows)), partition=partition,
        backend=forced_backend,
    )
