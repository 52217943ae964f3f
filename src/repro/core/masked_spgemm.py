"""User-facing masked SpGEMM dispatcher.

``masked_spgemm(A, B, M, algo=..., ...)`` computes ``C = M .* (A @ B)`` (or
``C = !M .* (A @ B)`` with ``complement=True``) on an arbitrary semiring
using any of the paper's algorithms:

========  ======================================  ==========  ==========
algo      description                             complement  fast path
========  ======================================  ==========  ==========
auto      planner picks one for all rows          yes         yes
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
:class:`~repro.engine.ExecutionPlan` from the matrices' statistics and the
measured per-unit costs of the fast kernels on this interpreter, and the
engine executes it (use ``repro.engine.plan(...)`` directly to *see* the
decision before running it).  The plan runs one algorithm over every row,
as the paper does in every figure; the per-row hybrid it names as future
work (Section 9) showed no measured win (ROADMAP, "Closed by
measurement") and is not built.

``phases`` selects the 1P/2P output-formation strategy of Section 6: 2P
runs a symbolic sweep first (its cost lands in ``counter.symbolic_flops``)
and checks every row of the numeric result against its count; 1P sizes the
output by the per-row bound.  Under 2P the NumPy tier's ``msa`` / ``hash`` /
``esc`` bodies write into an exact allocation (a slab of the counted rows);
the native MSA loop allocates its 1P bound either way, so there the counts
are only the cross-check.  Both produce identical matrices — the difference
is work, which the counters and the cost model expose.

``impl`` picks the implementation tier: ``"fast"`` (the native C row loop
where it loaded and the call is eligible, the vectorized NumPy body
otherwise), ``"reference"`` (pseudocode-faithful scalar code), or
``"auto"``, the default (fast where available, reference otherwise — heap
schemes are reference-only by design; they are the paper's slowest and
serve as the algorithmic lower bound for merging without an accumulator
array).

This module is the **front door**, the one way in for a call:
:func:`masked_spgemm` checks the spellings, then runs the one algorithm
the caller forced (:func:`repro.core.leaf.run_kernel`) or has the host's
planner build an :class:`~repro.engine.ExecutionPlan` and runs it
(``docs/engine.md``, "Path of a call").  A plan to inspect before running
it is ``repro.engine.plan(...)`` -> ``repro.engine.execute(...)``, which
also takes a forced thread count.  :func:`masked_values` and
:func:`masked_visited` (not exported) are the same door for two apps' needs.
"""

from __future__ import annotations

import numbers
from typing import Optional

from ..machine import OpCounter, host_profile
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR
from .leaf import (
    ALGO_LABELS,
    ALGOS,
    ALL_ALGOS,
    EXTENSION_ALGOS,
    algo_key,
    check_operands,
    kernel_threads,
    run_kernel,
    supports_complement,
)

__all__ = [
    "masked_spgemm",
    "ALGOS",
    "EXTENSION_ALGOS",
    "ALL_ALGOS",
    "supports_complement",
    "ALGO_LABELS",
]


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
    backend: Optional[str] = None,
    shards=None,
    batch: str = "auto",
) -> CSR:
    """Compute ``C = M .* (A @ B)`` (``!M`` with ``complement=True``).

    Parameters
    ----------
    a, b:
        CSR operands; inner dimensions must agree.
    mask:
        CSR mask; only its pattern is used (values ignored).
    algo:
        One of :data:`ALL_ALGOS`, or ``"auto"`` to let the planner
        (:mod:`repro.engine`) choose one for every row from this host's measured
        kernel costs (:class:`~repro.machine.HostProfile`).
    phases:
        1 (one-phase) or 2 (two-phase with a symbolic sweep).  Defaults to
        1.
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
    backend:
        Execution backend: ``None`` (default) runs in-process, on the
        threads the native row loop takes for the call's estimated work —
        the planner never fans out on its own (``docs/parallel.md``, "Who
        picks the backend").
        ``"serial"``, ``"thread"`` or ``"process"`` forces it, with
        ``algo="auto"`` or an explicit algorithm alike: ``"serial"`` keeps
        the kernel on one thread, ``"thread"`` is the default's count, and
        ``"process"`` cuts the rows into ``min(cores, rows / 512)`` parts
        for pool workers; ``repro.engine.plan(..., threads=, backend=)``
        forces the count as well.
    shards:
        ``None`` or a pair of ints >= 1: accepted for the benchmark
        ladder's ``parallel.shards2x2_s`` rung only, and selects nothing —
        the call routes as with ``None`` (there is no output grid;
        ``docs/parallel.md``).  Any other value raises ``ValueError``.
        ROADMAP item 1(a) deletes it with the rung.
    batch:
        ``"auto"``, ``"perrow"`` or ``"bucket"``: accepted for the
        benchmark ladder's ``core.*_{perrow,bucket}_s`` rungs only, and
        selects nothing — the NumPy tier's push loop has one chunker
        (``docs/kernels.md``).  Any other value raises ``ValueError``.
    """
    if batch not in ("auto", "bucket", "perrow"):
        raise ValueError(
            f"batch must be one of ('auto', 'bucket', 'perrow'), got {batch!r}"
        )
    if shards is not None and not (
        isinstance(shards, (tuple, list)) and len(shards) == 2
        and all(isinstance(k, numbers.Integral) and not isinstance(k, bool)
                and k >= 1 for k in shards)
    ):
        raise ValueError(f"shards must be None or a pair of ints >= 1, got {shards!r}")
    return _door(a, b, mask, algo=algo, phases=phases, complement=complement,
                 semiring=semiring, impl=impl, counter=counter, b_csc=b_csc,
                 backend=backend)


def masked_values(a: CSR, b: CSR, mask: CSR, **kw):
    """:func:`masked_spgemm` under a plain mask (planned and counted alike) as
    the values at the mask's entries (``run_kernel(aligned=True)``)."""
    if kw.get("complement"):
        raise ValueError("masked_values reads a plain mask's entries; "
                         "a complemented product has none")
    return _door(a, b, mask, aligned=True, **kw)


def masked_visited(a: CSR, b: CSR, visited, **kw) -> CSR:
    """:func:`masked_spgemm` under ``complement=True`` of a ``Visited`` bitmap
    (planned and counted as on its CSR) that marks the entries it emits."""
    return _door(a, b, visited, complement=True, **kw)


def _door(a, b, mask, *, algo="msa", phases=None, complement=False, semiring=PLUS_TIMES,
          impl="auto", counter=None, b_csc=None, backend=None, aligned=False):
    if impl not in ("fast", "reference", "auto"):
        raise ValueError("impl must be 'fast', 'reference' or 'auto'")
    key = algo_key(algo)
    if key == "auto" or backend is not None:
        # the planner picks the algorithm from the profile of the kernel
        # tier that runs the call, and checks the phases and backend
        # spellings (a forced algo keeps the algo: backend= picks its
        # threads or pool workers)
        from ..engine.executor import _execute
        from ..engine.planner import planner_for

        pl = planner_for(host_profile(semiring, a.data, b.data)).plan(
            a, b, mask,
            algo=key, phases=phases, complement=complement,
            backend=backend, _b_csc=b_csc,
        )
        return _execute(
            pl, a, b, mask,
            semiring=semiring, impl=impl, counter=counter, b_csc=b_csc,
            aligned=aligned,
        )
    # a forced algorithm with no backend has nothing to plan
    from ..engine.plan import check_phases

    if phases is not None:
        check_phases(phases)
    check_operands(a, b, mask, b_csc)
    if complement and not supports_complement(key):
        raise ValueError(f"{ALGO_LABELS[key]} does not support complemented masks")
    return run_kernel(
        a, b, mask,
        algo=key, phases=1 if phases is None else phases,
        complement=complement, semiring=semiring, impl=impl,
        counter=counter, b_csc=b_csc, nthreads=kernel_threads(a, b),
        aligned=aligned,
    )
