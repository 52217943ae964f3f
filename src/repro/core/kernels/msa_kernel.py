"""Vectorized MSA kernel.

The fast counterpart of Algorithm 2: ``native.c``'s row loop where the call
is eligible (:mod:`.native`), else the push frame over the dense-rank
accumulator (:class:`repro.core.kernels.batch.DenseRank`, which describes
the algorithm).  This module holds what is MSA's own: the dispatch, the
``OpCounter`` charges and probe recordings, and the chunk budgets.

The ``rank`` and bitmap arrays cover ``chunk_rows x ncols`` cells, are reset
cell by cell after each chunk and leased from the scratch arena
(:mod:`repro.core.kernels.arena`), so iterative workloads reuse them across
*calls* as well.  The budgets keep every temporary around a megabyte, which
the allocator recycles instead of mapping afresh.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import numpy as np

from ...machine import OpCounter
from ...observe import tracer as _obs
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSR
from . import native as _native
from .arena import get_arena
from .batch import Chunk, DenseRank, push_product, record_mask_routing

__all__ = ["masked_spgemm_msa_fast"]

#: products per chunk / dense cells per chunk: temporaries of about 1 MB
MSA_FLOP_BUDGET = 1 << 17
MSA_DENSE_BUDGET = 1 << 20


def _msa_native(nat, a: CSR, b: CSR, mask: CSR, complement, counter, row_nnz) -> CSR:
    """The whole call as one of ``native.c``'s MSA row loops (no chunks);
    values and counters are those of the NumPy body below."""
    lib, op = nat
    nrows, n = a.nrows, b.ncols
    _native.validate(lib, (a, b, mask), a.ncols == b.nrows and mask.shape == (nrows, n))
    cnt = np.zeros(4, dtype=np.int64)  # flops, inserts, nnz, capacity wanted
    indptr = np.empty(nrows + 1, dtype=np.int64)
    # a plain mask bounds the output; a complemented one grows on demand
    cap = mask.nnz if not complement else (
        int(row_nnz.sum()) if row_nnz is not None else max(4096, a.nnz + mask.nnz)
    )
    cols = np.empty(cap, dtype=np.int64)
    vals = np.empty(cap, dtype=np.float64)
    operands = [x.ctypes.data for x in (a.indptr, a.indices, a.data, b.indptr,
                                        b.indices, b.data, mask.indptr, mask.indices)]
    # the C loops restore every touched cell after each row: the leases'
    # cleanliness contract, as in the NumPy body
    arena = get_arena()
    with arena.lease("native.state", np.uint8, 0) as state, \
            arena.lease("native.values", np.float64, 0.0) as values, \
            arena.lease("native.touched", np.int64, None) as touched:
        scratch = [state.require(n).ctypes.data, values.require(n).ctypes.data]
        if not complement:
            cnt[2] = lib.repro_msa(op, nrows, *operands, *scratch, indptr.ctypes.data,
                                   cols.ctypes.data, vals.ctypes.data, cnt.ctypes.data)
        else:
            # one cell more than there are columns: msa_row's append stores, then advances
            scratch.append(touched.require(n + 1).ctypes.data)
            row = 0
            while True:
                row = lib.repro_msa_complement(
                    op, row, nrows, n, *operands, *scratch, indptr.ctypes.data,
                    cols.ctypes.data, vals.ctypes.data, cap, cnt.ctypes.data)
                if row >= nrows:
                    break
                cap = max(2 * cap, int(cnt[3]))
                cols, vals = (np.concatenate((x[:cnt[2]], np.empty(cap - cnt[2], x.dtype)))
                              for x in (cols, vals))
    flops, inserts, nnz, _ = map(int, cnt)
    if row_nnz is not None and not np.array_equal(np.diff(indptr), row_nnz):
        raise AssertionError(
            "symbolic/numeric mismatch: numeric pass emitted a different number "
            "of entries for a row than the symbolic bound allocated"
        )
    if counter is not None:
        # every charge is a per-row sum: the whole call as one chunk
        _charge(counter, SimpleNamespace(nm=mask.nnz, products=inserts, kept=flops,
                                         out=nnz, complement=complement))
        counter.output_nnz += nnz
    return CSR((nrows, n), indptr, cols[:nnz].copy(), vals[:nnz].copy(),
               sorted_indices=True, check=False)


@traced_kernel("msa")
def masked_spgemm_msa_fast(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    flop_budget: int = MSA_FLOP_BUDGET,
    dense_budget: int = MSA_DENSE_BUDGET,
    batch: str = "auto",
    row_nnz: Optional[np.ndarray] = None,
) -> CSR:
    """Vectorized MSA masked SpGEMM (see module docs).

    ``batch`` selects the chunking tier (``"auto"`` | ``"bucket"`` |
    ``"perrow"``); ``row_nnz`` optionally carries the exact two-phase
    symbolic bound, so finished rows are written straight into the final
    CSR arrays and checked against it.
    """
    a = a.sort_indices()
    b = b.sort_indices()
    mask = mask.sort_indices()
    nat = _native.kernels(semiring, a.data, b.data)
    _obs.annotate(tier="numpy" if nat is None else "native")
    if nat is not None:
        return _msa_native(nat, a, b, mask, complement, counter, row_nnz)
    return push_product(
        a, b, mask, DenseRank(), complement=complement, semiring=semiring,
        counter=counter, flop_budget=flop_budget, dense_budget=dense_budget,
        batch=batch, row_nnz=row_nnz, charge=_charge, record=_record,
    )


def _charge(counter: OpCounter, ch: Chunk) -> None:
    counter.accum_allowed += ch.nm
    counter.accum_inserts += ch.products
    counter.flops += ch.kept
    if ch.complement:  # the allowed cells are exactly the output cells
        counter.accum_removes += ch.out
        counter.spa_resets += ch.nm + ch.out
    else:
        counter.accum_removes += ch.nm
        counter.spa_resets += ch.nm


def _record(pr, ch: Chunk) -> None:
    if ch.bucket is not None:
        pr.hist("batch.bucket_occupancy").record(int(ch.rows.size))
    if ch.complement:
        pr.hist("msa.reset_cells").record(ch.out + ch.nm)
    else:
        # touched cells vs nnz(m): what fraction of the mask's dense
        # footprint the chunk actually used (the reset-list amortisation
        # the paper's Section 5.2 argues for)
        pr.hist("msa.touched_per_mask_pct").record(int(100 * ch.out // max(1, ch.nm)))
        pr.hist("msa.reset_cells").record(ch.nm)
        record_mask_routing(pr, ch)
