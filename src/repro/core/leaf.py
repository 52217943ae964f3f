"""The leaf of every masked-product call: one algorithm on trusted operands.

:func:`run_kernel` is what the front door (:func:`repro.core.masked_spgemm`
with a forced ``algo=``) and every engine work item
(:func:`repro.parallel.pool.run_task`) run once validation, machine
resolution and planning are behind them (``aligned=True``: its values at
the mask's entries).  The algorithm
table and the checks the public entry points share live here too, so
``repro.engine`` and ``repro.parallel`` import this module and never the
door.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..machine import OpCounter
from ..observe import tracer as _obs
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR, locate
from .kernels import native
from .kernels.esc_kernel import masked_spgemm_esc_fast
from .kernels.hash_kernel import masked_spgemm_hash_fast
from .kernels.inner_kernel import masked_spgemm_inner_fast
from .kernels.mca_kernel import masked_spgemm_mca_fast
from .kernels.msa_kernel import Visited, masked_spgemm_msa_fast
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


def algo_key(algo) -> str:
    """The lower-case key of an ``algo=`` spelling: ``"auto"`` or one of
    :data:`ALL_ALGOS`.  Anything else — a non-string too — is the one
    ``ValueError`` every entry point raises for it."""
    key = algo.lower() if isinstance(algo, str) else None
    if key != "auto" and key not in ALL_ALGOS:
        raise ValueError(
            f"unknown algorithm {algo!r}; expected one of {('auto',) + ALL_ALGOS}"
        )
    return key


def check_operands(a: CSR, b: CSR, mask: CSR, b_csc: Optional[CSC] = None) -> None:
    """The operand-shape checks (B's CSC, when the caller passes one, must
    be B's shape); run once per call, by the entry point it came in through
    (the door, ``Planner.plan``, ``engine.execute``)."""
    if a.ncols != b.nrows:
        raise ValueError(
            f"inner dimensions of A and B do not agree: {a.shape} @ {b.shape}"
        )
    if mask.shape != (a.nrows, b.ncols):
        raise ValueError(
            f"mask shape {mask.shape} must match the output shape "
            f"({a.nrows}, {b.ncols})"
        )
    if b_csc is not None and b_csc.shape != b.shape:
        raise ValueError(f"b_csc shape {b_csc.shape} must match B's shape {b.shape}")


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
    nthreads: int = 1,
    aligned: bool = False,
):
    """Run ``algo`` (a key of :data:`ALL_ALGOS`) on operands the caller
    vouches for: conforming shapes and an algorithm that can run the mask.
    Picks the tier (``impl``), runs the 2P symbolic sweep and cross-checks
    the numeric result against the symbolic count.  ``nthreads`` (the
    caller's :func:`kernel_threads`) reaches the native ``msa`` / ``inner``
    row loops and the symbolic pass; bytes and counters do not depend on it.
    ``aligned`` (plain mask): the values at the mask's entries, written by the
    native ``msa`` / ``inner`` loops, else :func:`align` of the CSR product.
    A :class:`Visited` mask is read and marked by the native 1P MSA row only."""
    use_fast = impl == "fast" or (impl == "auto" and algo in _FAST)
    if use_fast and algo not in _FAST:
        raise ValueError(
            f"{ALGO_LABELS[algo]} has no vectorized fast path; use impl='auto' "
            "or impl='reference'"
        )
    if isinstance(mask, Visited) and not (algo == "msa" and use_fast and phases == 1
                                          and native.kernels(semiring, a.data, b.data)):
        return mask.through(lambda m: run_kernel(a, b, m, algo=algo, phases=phases,
                                                 complement=True, semiring=semiring, impl=impl,
                                                 counter=counter, b_csc=b_csc, nthreads=nthreads))

    # 1P: the kernels size their scratch from the mask bound themselves
    row_nnz = None
    if phases == 2:
        # symbolic sweep: exact output pattern size, charged to the counter.
        # The NumPy tier's msa / hash / esc bodies allocate their output
        # slab from it; every other body (the native MSA loop too, which
        # allocates its 1P bound) uses it only as the cross-check below.
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
        if algo in _THREADED:  # their native loops write the aligned values
            kwargs.update(nthreads=nthreads, aligned=aligned and not complement)
        if row_nnz is not None and algo in ("msa", "hash", "esc"):
            # under 2P their NumPy bodies fuse the symbolic counts into
            # output formation (the CSR slab is allocated from row_nnz and
            # finished rows are written in place); native MSA checks them
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

    c, hits = (c, c.nnz) if isinstance(c, CSR) else c  # or a native (values, hits)
    if row_nnz is not None and hits != int(row_nnz.sum()):
        raise AssertionError(
            f"symbolic/numeric mismatch: symbolic predicted {int(row_nnz.sum())} "
            f"nonzeros, numeric produced {hits}"
        )
    return align(mask, c) if aligned and isinstance(c, CSR) else c


def align(mask: CSR, c: CSR) -> np.ndarray:
    """``c``'s values scattered at the mask's entries by :func:`locate`; a
    column the mask repeats gets the value at its first entry."""
    at = locate(mask, c)
    out, found = np.zeros(mask.sort_indices().nnz), at >= 0
    out[at[found]] = c.data[found]
    return out
