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
"""

from __future__ import annotations

import functools
from typing import Optional

from ..machine import MachineConfig, OpCounter
from ..observe import tracer as _obs
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR
from .kernels.batch import BATCH_TIERS, BATCHABLE_ALGOS, resolve_tier
from .kernels.esc_kernel import masked_spgemm_esc_fast
from .kernels.hash_kernel import masked_spgemm_hash_fast
from .kernels.inner_kernel import masked_spgemm_inner_fast
from .kernels.mca_kernel import masked_spgemm_mca_fast
from .kernels.msa_kernel import masked_spgemm_msa_fast
from .reference import masked_spgemm_reference
from .symbolic import symbolic_masked

__all__ = [
    "masked_spgemm",
    "ALGOS",
    "EXTENSION_ALGOS",
    "ALL_ALGOS",
    "supports_complement",
    "ALGO_LABELS",
]

#: the paper's six algorithms (the scheme lists / figures use these)
ALGOS = ("inner", "msa", "hash", "mca", "heap", "heapdot")

#: extension algorithms implemented beyond the paper (DESIGN.md §7)
EXTENSION_ALGOS = ("esc",)

ALL_ALGOS = ALGOS + EXTENSION_ALGOS

#: scheme labels as the paper prints them (Section 8) + extensions
ALGO_LABELS = {
    "inner": "Inner",
    "msa": "MSA",
    "hash": "Hash",
    "mca": "MCA",
    "heap": "Heap",
    "heapdot": "HeapDot",
    "esc": "ESC",
}

_FAST = {
    "msa": masked_spgemm_msa_fast,
    "hash": masked_spgemm_hash_fast,
    "mca": masked_spgemm_mca_fast,
    "inner": masked_spgemm_inner_fast,
    "esc": masked_spgemm_esc_fast,
}

_NO_COMPLEMENT = frozenset({"inner", "mca"})


def supports_complement(algo: str) -> bool:
    """Whether the algorithm supports a complemented mask (the paper drops
    MCA and Inner from the Betweenness Centrality benchmark for this)."""
    return algo.lower() not in _NO_COMPLEMENT


def in_session_call(fn):
    """Run ``fn`` inside the call scope of its ``session=`` argument
    (:meth:`repro.engine.ExecutionSession.call`): the session digests each
    operand once per outermost decorated call, never across calls."""

    @functools.wraps(fn)
    def scoped(*args, session=None, **kwargs):
        if not session:  # None, or the apps' ``False`` sentinel
            return fn(*args, session=session, **kwargs)
        with session.call():
            return fn(*args, session=session, **kwargs)

    return scoped


@in_session_call
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
        use.  A :class:`MachineConfig` or a string — a preset name
        (``"haswell"``, ``"knl"``) or ``"fitted"`` for the
        history-calibrated config persisted by ``python -m repro.machine
        fit`` (``docs/calibration.md``) — plans for that modeled machine
        instead (figure reproduction).  For explicit algorithms only the
        batch crossover is consulted.
    backend:
        Execution backend for ``algo="auto"``: ``None`` lets the planner
        choose (``serial``, or ``process`` when the predicted work repays
        the pool on the available cores), a string forces it.  Explicit
        algorithms run in-process; use
        :func:`repro.parallel.parallel_masked_spgemm` to parallelise them.
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
        call's upper-bound flops reach the crossover (``1 << 18``, or the
        ``batch_crossover_flops`` of a given ``machine``).  With
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
    if machine is not None and not isinstance(machine, MachineConfig):
        # accept preset names and "fitted" wherever a config is accepted
        from ..machine import resolve_machine

        machine = resolve_machine(machine)
    if orientation not in ("row", "column"):
        raise ValueError("orientation must be 'row' or 'column'")
    if orientation == "column":
        shards_t = shards
        if isinstance(shards, tuple):
            shards_t = (shards[1], shards[0])
        elif shards is not None and not isinstance(shards, str):
            # an explicit ShardGrid is in output coordinates: transpose it
            shards_t = type(shards)(shards.col_bounds, shards.row_bounds)
        ct = masked_spgemm(
            b.transpose(),
            a.transpose(),
            mask.transpose(),
            algo=algo,
            phases=phases,
            complement=complement,
            semiring=semiring,
            impl=impl,
            counter=counter,
            orientation="row",
            machine=machine,
            backend=backend,
            shards=shards_t,
            batch=batch,
            session=session,
            delta=delta,
        )
        return ct.transpose()
    key = algo.lower()
    if batch not in BATCH_TIERS:
        raise ValueError(f"batch must be one of {BATCH_TIERS}, got {batch!r}")
    if key != "auto" and key not in ALL_ALGOS:
        raise ValueError(
            f"unknown algorithm {algo!r}; expected one of "
            f"{('auto',) + ALL_ALGOS}"
        )
    if a.ncols != b.nrows:
        raise ValueError(
            f"inner dimensions of A and B do not agree: {a.shape} @ {b.shape}"
        )
    if mask.shape != (a.nrows, b.ncols):
        raise ValueError(
            f"mask shape {mask.shape} must match the output shape "
            f"({a.nrows}, {b.ncols})"
        )
    if phases is not None and phases not in (1, 2):
        raise ValueError("phases must be 1 or 2")
    if impl not in ("fast", "reference", "auto"):
        raise ValueError("impl must be 'fast', 'reference' or 'auto'")
    if key == "auto" or shards is not None or (delta is not None and delta is not False):
        # route through the execution engine: the planner picks per-row-band
        # algorithms, phases, partition and thread count from the cost model
        # (a forced algo with shards= keeps the algo and grids the dispatch;
        # delta= additionally threads the call through the incremental path)
        from ..engine import plan_and_execute

        return plan_and_execute(
            a,
            b,
            mask,
            machine=machine,
            complement=complement,
            phases=phases,
            semiring=semiring,
            impl=impl,
            counter=counter,
            backend=backend,
            b_csc=b_csc,
            session=session,
            delta=delta,
            algo=None if key == "auto" else key,
            shards=shards,
            batch=None if batch == "auto" else batch,
        )
    phases = 1 if phases is None else phases
    session = session or None
    if session is not None and not session.caching:
        session = None
    if complement and not supports_complement(key):
        raise ValueError(f"{ALGO_LABELS[key]} does not support complemented masks")

    use_fast = impl == "fast" or (impl == "auto" and key in _FAST)
    # the chunked kernels take batch= and, under 2P, fuse the symbolic bound
    # into output formation: the final CSR slab is allocated from row_nnz
    # and finished rows are written in place (no separate counting sweep
    # beyond the one whose bound the session may already memoise)
    chunked = use_fast and key in BATCHABLE_ALGOS
    if chunked and machine is not None:
        # "auto" is otherwise resolved where the chunks are made, against
        # the default crossover; a named machine brings its own
        batch = resolve_tier(a, b, batch, crossover=machine.batch_crossover_flops)
    hits_before = session.bound_cache_hits if session is not None else 0

    if phases == 2:
        # symbolic sweep: exact output pattern size, charged to the counter.
        # (The numeric phase of this reproduction assembles rows
        # functionally, so the symbolic result is used as a cross-check and
        # as the 2P cost; a C implementation would use it to allocate.)
        tr = _obs.current()
        sym_cm = (
            tr.span("spgemm.symbolic", {"phase": "symbolic", "algo": key},
                    counter=counter)
            if tr is not None else _obs.NULL_SPAN
        )
        with sym_cm:
            if session is not None:
                row_nnz = session.symbolic_bounds(
                    a, b, mask, complement=complement, counter=counter
                )
            else:
                row_nnz = symbolic_masked(
                    a, b, mask, complement=complement, counter=counter
                )
        expected_nnz = int(row_nnz.sum())
    else:
        # 1P: the kernels size their scratch from the mask bound themselves
        expected_nnz = None
        row_nnz = None

    if impl == "fast" and key not in _FAST:
        raise ValueError(
            f"{ALGO_LABELS[key]} has no vectorized fast path; use impl='auto' "
            "or impl='reference'"
        )
    if key == "inner" and b_csc is None and session is not None:
        b_csc = session.csc_of(b)
    if use_fast:
        kwargs = dict(complement=complement, semiring=semiring, counter=counter)
        if key == "inner":
            kwargs["b_csc"] = b_csc
        if chunked:
            kwargs["batch"] = batch
            if row_nnz is not None:
                kwargs["row_nnz"] = row_nnz
        c = _FAST[key](a, b, mask, **kwargs)
        if (
            chunked
            and row_nnz is not None
            and session is not None
            and session.bound_cache_hits > hits_before
        ):
            # the numeric pass consumed a memoised symbolic bound: the whole
            # counting sweep was skipped AND output formation was fused
            session.fused_numeric_hits += 1
    else:
        tr = _obs.current()
        ref_cm = (
            tr.span("kernel.reference", {"algo": key, "phase": "numeric"},
                    counter=counter)
            if tr is not None else _obs.NULL_SPAN
        )
        with ref_cm:
            c = masked_spgemm_reference(
                a,
                b,
                mask,
                algo=key,
                complement=complement,
                semiring=semiring,
                counter=counter,
                b_csc=b_csc,
            )

    if phases == 2 and c.nnz != expected_nnz:
        raise AssertionError(
            f"symbolic/numeric mismatch: symbolic predicted {expected_nnz} "
            f"nonzeros, numeric produced {c.nnz}"
        )
    return c
