"""Vectorized Inner (pull-based dot-product) kernel.

The fast counterpart of Section 4.1: for every mask nonzero ``(i, j)``
compute the sparse dot product ``A[i,:] . B[:,j]`` with ``B`` in CSC.

Vectorization strategy — one batch over all mask nonzeros of a block:

1. expand the CSC column slice of every mask nonzero: each (i, j) pulls the
   ``(rowid, value)`` pairs of column ``B[:,j]`` (this *is* the pull
   traffic: ``nnz(M) * nnz(B)/n`` expected words, the paper's formula);
2. look each pulled pair ``(i, k)`` up in A via one ``searchsorted`` of flat
   keys into A's (sorted) flat key array — the batched analogue of the
   two-pointer merge in the reference;
3. multiply the matches and segment-reduce them per mask nonzero with the
   semiring add.

Mask entries with no matched product produce no output entry (the paper's
note under Figure 1: the mask can contain entries the product never makes).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...machine import OpCounter
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSC, CSR
from .batch import plan_flop_blocks
from .expand import row_keys

__all__ = ["masked_spgemm_inner_fast"]

#: pulled pairs per block; measured optimum on this interpreter (larger
#: blocks push the key search out of cache, smaller ones pay per-block
#: dispatch — see benchmarks/test_auto_regret.py)
DEFAULT_PULL_BUDGET = 1 << 17


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
) -> CSR:
    """Vectorized pull-based (Inner) masked SpGEMM (see module docs)."""
    if complement:
        raise ValueError("inner-product algorithm does not support complement")
    a = a.sort_indices()
    mask = mask.sort_indices()
    n = b.ncols
    if a.nnz == 0 or b.nnz == 0 or mask.nnz == 0:
        if counter is not None:
            counter.mask_scans += mask.nnz
        return CSR.empty((a.nrows, n))
    csc = b_csc if b_csc is not None else CSC.from_csr(b)

    # flat sorted key view of A for batched membership lookups
    a_rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_nnz())
    a_keys = row_keys(a_rows, a.indices, a.ncols)

    m_rows_all = np.repeat(np.arange(mask.nrows, dtype=np.int64), mask.row_nnz())
    m_cols_all = mask.indices
    col_nnz = csc.col_nnz()

    out_rows = []
    out_cols = []
    out_vals = []

    # block the mask nonzeros so each block pulls at most pull_budget pairs
    # (the same greedy cut the push kernels use for their flop budget)
    for lo, hi in plan_flop_blocks(col_nnz[m_cols_all], pull_budget):
        m_rows = m_rows_all[lo:hi]
        m_cols = m_cols_all[lo:hi]
        if counter is not None:
            counter.mask_scans += hi - lo

        starts = csc.indptr[m_cols]
        counts = csc.indptr[m_cols + 1] - starts
        total = int(counts.sum())
        # mask nonzeros are row-major, so the block's rows are contiguous:
        # its keys can only match inside A's slice for those rows, which
        # keeps the binary search cache-resident
        k_lo = int(a.indptr[m_rows[0]])
        block_keys = a_keys[k_lo : int(a.indptr[m_rows[-1] + 1])]
        if total == 0 or block_keys.shape[0] == 0:
            continue
        block_ofs = np.repeat(np.cumsum(counts) - counts, counts)
        pos = np.arange(total, dtype=np.int64) - block_ofs + np.repeat(starts, counts)
        slot = np.repeat(np.arange(hi - lo, dtype=np.int64), counts)

        keys = row_keys(m_rows[slot], csc.indices[pos], a.ncols)
        idx = np.minimum(np.searchsorted(block_keys, keys), block_keys.shape[0] - 1)
        match = np.flatnonzero(block_keys[idx] == keys)
        if counter is not None:
            counter.flops += int(match.shape[0])

        prods = semiring.mult_ufunc(a.data[k_lo + idx[match]], csc.data[pos[match]])
        mslots = slot[match]
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
