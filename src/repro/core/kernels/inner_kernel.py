"""Vectorized Inner (pull-based dot-product) kernel.

The fast counterpart of Section 4.1: for every mask nonzero ``(i, j)``
compute the sparse dot product ``A[i,:] . B[:,j]`` with ``B`` in CSC.

Vectorization strategy — one batch over all mask nonzeros of a block:

1. expand the CSC column slice of every mask nonzero: each (i, j) pulls the
   ``(rowid, value)`` pairs of column ``B[:,j]`` (this *is* the pull
   traffic: ``nnz(M) * nnz(B)/n`` expected words, the paper's formula);
2. look each pulled pair ``(i, k)`` up in A through a dense int32 ``rank``
   array over the block's A rows (the MSA kernel's idiom): ``1..k`` is
   scattered at the block's A entries, so one gather at the pulled keys is
   both the match test and the A-entry position — the batched analogue of
   the two-pointer merge in the reference;
3. multiply the matches and segment-reduce them per mask nonzero with the
   semiring add.

Mask entries with no matched product produce no output entry (the paper's
note under Figure 1: the mask can contain entries the product never makes).

The ``rank`` array covers ``block_rows x ncols(A)`` cells (blocks are cut so
that fits the dense budget; a single row always fits), is reset
cell-by-cell after each block and leased from the scratch arena
(:mod:`repro.core.kernels.arena`), so iterative workloads reuse it across
calls.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ...machine import OpCounter
from ...observe import tracer as _obs
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSC, CSR
from . import native as _native
from .arena import get_arena
from .batch import plan_flop_blocks
from .expand import row_keys

__all__ = ["masked_spgemm_inner_fast"]

#: pulled pairs per block; measured optimum on this interpreter (larger
#: blocks push the gathers out of cache, smaller ones pay per-block
#: dispatch — see benchmarks/test_auto_regret.py)
DEFAULT_PULL_BUDGET = 1 << 17
#: dense ``rank`` cells per block (the MSA kernel's budget: 4 MB of int32)
INNER_DENSE_BUDGET = 1 << 20


def _mask_blocks(
    pulls: np.ndarray, pull_budget: int, mask: CSR, m_rows: np.ndarray, max_width: int
) -> Iterator[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` blocks of mask nonzeros that pull at most
    ``pull_budget`` pairs (the same greedy cut the push kernels use for
    their flop budget) and span at most ``max_width`` rows."""
    for lo, block_hi in plan_flop_blocks(pulls, pull_budget):
        while lo < block_hi:
            row_end = min(mask.nrows, int(m_rows[lo]) + max_width)
            hi = min(block_hi, int(mask.indptr[row_end]))
            yield lo, hi
            lo = hi


def _inner_native(nat, a: CSR, csc: CSC, mask: CSR, counter, nthreads, aligned=False):
    """The whole call as ``native.c``'s inner row loop (no blocks) on
    ``nthreads`` threads; values and counters are those of the NumPy body below
    (``aligned``: ``(values at the mask's entries, hits)``)."""
    lib, op = nat
    shape = (a.nrows, csc.ncols)
    bt = csc.to_transposed_csr()
    _native.validate(lib, (a, bt, mask), a.ncols == csc.nrows and mask.shape == shape)
    cnt = np.zeros(1, dtype=np.int64)  # matched products
    indptr = np.empty(a.nrows + 1, dtype=np.int64)
    cols = None if aligned else np.empty(mask.nnz, dtype=np.int64)  # the mask bounds it
    vals = np.empty(mask.nnz, dtype=np.float64)
    # the C loop zeroes the lookup cells it set after each row: the lease's
    # cleanliness contract, as in the NumPy body (one slice per thread)
    with get_arena().lease("native.where", np.int32, 0) as where:
        nnz = lib.repro_inner(op, a.nrows, a.ncols, nthreads, *(
            None if x is None else x.ctypes.data
            for x in (a.indptr, a.indices, a.data, bt.indptr, bt.indices, bt.data,
                      mask.indptr, mask.indices, where.require(nthreads * a.ncols), indptr,
                      cols, vals, cnt)))
    if counter is not None:
        counter.mask_scans += mask.nnz
        counter.flops += int(cnt[0])
        counter.useful_flops += nnz
        counter.output_nnz += nnz
    if aligned:
        return vals, nnz
    # shrunk in place (a realloc): no oversized buffer outlives the call
    cols.resize(nnz, refcheck=False)
    vals.resize(nnz, refcheck=False)
    return CSR(shape, indptr, cols, vals, sorted_indices=True, check=False)


@traced_kernel("inner")
def masked_spgemm_inner_fast(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    b_csc: Optional[CSC] = None,
    pull_budget: int = DEFAULT_PULL_BUDGET,
    dense_budget: int = INNER_DENSE_BUDGET,
    nthreads: int = 1,
    aligned: bool = False,
):
    """Vectorized pull-based (Inner) masked SpGEMM (see module docs);
    ``nthreads``: threads of the native loop, of B's CSC build and of the
    operands' ordering, where one is unsorted (the same bytes and counters
    at any count); ``aligned``: the native loop's ``(values, hits)``."""
    if complement:
        raise ValueError("inner-product algorithm does not support complement")
    a, mask = a._sort_indices(nthreads), mask._sort_indices(nthreads)
    n = b.ncols
    if a.nnz == 0 or b.nnz == 0 or mask.nnz == 0:
        if counter is not None:
            counter.mask_scans += mask.nnz
        return CSR.empty((a.nrows, n))
    csc = b_csc if b_csc is not None else CSC(b.shape, b._transpose(nthreads))
    nat = _native.kernels(semiring, a.data, csc.data)
    _obs.annotate(tier="numpy" if nat is None else "native")
    if nat is not None:
        return _inner_native(nat, a, csc, mask, counter, nthreads, aligned)

    # flat key of every A entry; a block's keys minus its first row's base
    # address the block-local rank array
    ka = np.int64(a.ncols)
    a_keys = row_keys(
        np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_nnz()), a.indices, ka
    )
    m_rows_all = np.repeat(np.arange(mask.nrows, dtype=np.int64), mask.row_nnz())
    m_cols_all = mask.indices
    col_nnz = csc.col_nnz()
    max_width = max(1, dense_budget // max(1, a.ncols))

    out_rows = []
    out_cols = []
    out_vals = []

    # the lease's cleanliness contract is the per-block cell reset below; an
    # exception mid-block discards the buffer instead of returning it
    with get_arena().lease("inner.rank", np.int32, 0) as rank_lease:
        for lo, hi in _mask_blocks(
            col_nnz[m_cols_all], pull_budget, mask, m_rows_all, max_width
        ):
            # mask nonzeros are row-major, so a block's rows are contiguous
            m_rows = m_rows_all[lo:hi]
            m_cols = m_cols_all[lo:hi]
            r0, r1 = int(m_rows[0]), int(m_rows[-1]) + 1
            if counter is not None:
                counter.mask_scans += hi - lo

            starts = csc.indptr[m_cols]
            counts = csc.indptr[m_cols + 1] - starts
            ends = np.cumsum(counts)
            total = int(ends[-1])
            k_lo = int(a.indptr[r0])
            cells = a_keys[k_lo : int(a.indptr[r1])] - r0 * ka
            if total == 0 or cells.shape[0] == 0:
                continue
            pos = np.repeat(starts - (ends - counts), counts)
            pos += np.arange(total, dtype=np.int64)
            keys = np.repeat((m_rows - r0) * ka, counts)
            keys += csc.indices.take(pos)

            rank = rank_lease.require((r1 - r0) * a.ncols)
            # written back to front so the first of any duplicate A entries
            # wins, as a left binary search would find it
            rank[cells[::-1]] = np.arange(cells.shape[0], 0, -1, dtype=np.int32)
            found = rank.take(keys)
            rank[cells] = 0
            match = np.flatnonzero(found != 0)  # nonzero() is fast on bool only
            if counter is not None:
                counter.flops += int(match.shape[0])

            prods = semiring.mult_ufunc(
                a.data.take(found.take(match).astype(np.int64) + (k_lo - 1)),
                csc.data.take(pos.take(match)),
            )
            # the mask nonzero each match belongs to: one search per match,
            # not a repeat over every pulled pair
            mslots = np.searchsorted(ends, match, side="right")
            vals = np.full(hi - lo, semiring.add_identity, dtype=np.float64)
            hit = np.zeros(hi - lo, dtype=bool)
            semiring.add_ufunc.at(vals, mslots, prods)
            hit[mslots] = True

            out_rows.append(m_rows[hit])
            out_cols.append(m_cols[hit])
            out_vals.append(vals[hit])
            if counter is not None:
                counter.useful_flops += int(hit.sum())

    if not out_rows:
        return CSR.empty((a.nrows, n))
    rows = np.concatenate(out_rows)
    if counter is not None:
        counter.output_nnz += int(rows.shape[0])
    # hits are a subset of the (row-major, duplicate-free) mask nonzeros, so
    # the output is already in CSR order
    indptr = np.zeros(a.nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=a.nrows), out=indptr[1:])
    return CSR(
        (a.nrows, n), indptr, np.concatenate(out_cols), np.concatenate(out_vals),
        sorted_indices=True, check=False,
    )
