"""The leaf of every masked-product call: one algorithm on trusted operands.

:func:`run_kernel` is what the front door (:func:`repro.core.masked_spgemm`
with a forced ``algo=``) and every engine work item
(:func:`repro.parallel.pool.run_task`) run once validation, machine
resolution and planning are behind them.  The algorithm
table, the checks the public entry points share and :func:`classify_rows`
live here too, so ``repro.engine`` and ``repro.parallel`` import this
module and never the door.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..machine import HASWELL, MachineConfig, OpCounter, flops_per_row
from ..observe import tracer as _obs
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR
from .kernels import native
from .kernels.batch import BATCHABLE_ALGOS
from .kernels.esc_kernel import masked_spgemm_esc_fast
from .kernels.hash_kernel import masked_spgemm_hash_fast
from .kernels.inner_kernel import masked_spgemm_inner_fast
from .kernels.mca_kernel import masked_spgemm_mca_fast
from .kernels.msa_kernel import masked_spgemm_msa_fast
from .reference import masked_spgemm_reference
from .symbolic import symbolic_masked

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
#: the algorithms whose native row loops take a thread count
_THREADED = frozenset({"inner", "msa"})


def supports_complement(algo: str) -> bool:
    """Whether the algorithm supports a complemented mask (the paper drops
    MCA and Inner from the Betweenness Centrality benchmark for this)."""
    return algo.lower() not in _NO_COMPLEMENT


def check_operands(a: CSR, b: CSR, mask: CSR) -> None:
    """The operand-shape checks; run once per call, by the entry point
    it came in through (the door, ``Planner.plan``, ``engine.execute``)."""
    if a.ncols != b.nrows:
        raise ValueError(
            f"inner dimensions of A and B do not agree: {a.shape} @ {b.shape}"
        )
    if mask.shape != (a.nrows, b.ncols):
        raise ValueError(
            f"mask shape {mask.shape} must match the output shape "
            f"({a.nrows}, {b.ncols})"
        )


def kernel_threads(a: CSR, b: CSR, *, threads=None, backend=None) -> int:
    """:func:`native.threads_for` of one product call, whose work estimate is
    its expected product count ``nnz(A) * nnz(B) / nrows(B)`` (O(1)), capped
    at ``nrows(A)``: each thread leases a row of scratch."""
    nthreads = native.threads_for(a.nnz * b.nnz / max(1, b.nrows), threads, backend)
    return max(1, min(nthreads, a.nrows))


def run_kernel(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    algo: str,
    phases: int = 1,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    impl: str = "auto",
    counter: Optional[OpCounter] = None,
    b_csc: Optional[CSC] = None,
    batch: str = "auto",
    nthreads: int = 1,
) -> CSR:
    """Run ``algo`` (a key of :data:`ALL_ALGOS`) on operands the caller
    vouches for: conforming shapes and an algorithm that can run the mask.
    Picks the tier (``impl``), runs the 2P symbolic sweep and cross-checks
    the numeric result against the symbolic count.  ``nthreads`` (the
    caller's :func:`kernel_threads`) reaches the native ``msa`` / ``inner``
    row loops and the symbolic pass; bytes and counters do not depend on it."""
    use_fast = impl == "fast" or (impl == "auto" and algo in _FAST)
    if use_fast and algo not in _FAST:
        raise ValueError(
            f"{ALGO_LABELS[algo]} has no vectorized fast path; use impl='auto' "
            "or impl='reference'"
        )
    # the chunked kernels take batch= and, under 2P, fuse the symbolic bound
    # into output formation: the final CSR slab is allocated from row_nnz
    # and finished rows are written in place
    chunked = use_fast and algo in BATCHABLE_ALGOS

    # 1P: the kernels size their scratch from the mask bound themselves
    row_nnz = None
    if phases == 2:
        # symbolic sweep: exact output pattern size, charged to the counter.
        # (The numeric phase of this reproduction assembles rows
        # functionally, so the symbolic result is used as a cross-check and
        # as the 2P cost; a C implementation would use it to allocate.)
        tr = _obs.current()
        sym_cm = (
            tr.span("spgemm.symbolic", {"phase": "symbolic", "algo": algo},
                    counter=counter)
            if tr is not None else _obs.NULL_SPAN
        )
        with sym_cm:
            row_nnz = symbolic_masked(a, b, mask, complement=complement,
                                      counter=counter, nthreads=nthreads)

    if use_fast:
        kwargs = dict(complement=complement, semiring=semiring, counter=counter)
        if algo == "inner":
            kwargs["b_csc"] = b_csc
        if algo in _THREADED:
            kwargs["nthreads"] = nthreads
        if chunked:
            kwargs["batch"] = batch
            if row_nnz is not None:
                kwargs["row_nnz"] = row_nnz
        c = _FAST[algo](a, b, mask, **kwargs)
    else:
        tr = _obs.current()
        ref_cm = (
            tr.span("kernel.reference", {"algo": algo, "phase": "numeric"},
                    counter=counter)
            if tr is not None else _obs.NULL_SPAN
        )
        with ref_cm:
            c = masked_spgemm_reference(
                a,
                b,
                mask,
                algo=algo,
                complement=complement,
                semiring=semiring,
                counter=counter,
                b_csc=b_csc,
            )

    if row_nnz is not None and c.nnz != int(row_nnz.sum()):
        raise AssertionError(
            f"symbolic/numeric mismatch: symbolic predicted {int(row_nnz.sum())} "
            f"nonzeros, numeric produced {c.nnz}"
        )
    return c


def classify_rows(
    a: CSR,
    b: CSR,
    mask: CSR,
    machine: MachineConfig = HASWELL,
    *,
    pull_ratio: float = 8.0,
    push_ratio: float = 8.0,
    complement: bool = False,
) -> Dict[str, np.ndarray]:
    """Partition row indices into algorithm classes by the ratio heuristic
    of Figure 7 / Section 4.3 — the planner's ``banding="ratio"`` policy,
    exposed so the ablation bench can sweep the thresholds:

    * ``flops_i > pull_ratio * nnz(m_i)`` (mask much sparser than the
      work) -> **inner**;
    * ``nnz(m_i) > push_ratio * flops_i`` (inputs much sparser than the
      mask) -> **mca** (heap is reference-only and never faster here);
    * otherwise **msa** when the dense accumulator fits the machine's
      private cache, else **hash**.

    Complemented masks can never route to inner/mca (no complement
    support, paper Sec. 8.4): every row lands in the msa/hash regime.
    """
    fl = flops_per_row(a, b).astype(np.float64)
    mn = mask.row_nnz().astype(np.float64)
    rows = np.arange(a.nrows)
    if complement:
        inner_rows = np.zeros(a.nrows, dtype=bool)
        mca_rows = np.zeros(a.nrows, dtype=bool)
    else:
        inner_rows = fl > pull_ratio * np.maximum(mn, 1.0)
        mca_rows = (~inner_rows) & (mn > push_ratio * np.maximum(fl, 1.0))
    rest = ~(inner_rows | mca_rows)
    msa_fits = 2 * b.ncols * 8 <= machine.private_cache_bytes
    out: Dict[str, np.ndarray] = {}
    out["inner"] = rows[inner_rows]
    out["mca"] = rows[mca_rows]
    out["msa" if msa_fits else "hash"] = rows[rest]
    return {k: v for k, v in out.items() if v.size}
