"""Vectorized MSA kernel.

The fast counterpart of Algorithm 2, as one body over row chunks.  The
accumulator keeps the MSA's dense, column-addressed *lookup* but stores,
MCA-style (Section 5.4), the *rank* of each allowed cell instead of a state
and a value: per chunk it

1. scatters ``1..nc`` into a dense int32 ``rank`` array at the chunk's
   ``nc`` allowed cells (``set_allowed``; 0 == NOTALLOWED),
2. gathers ``rank`` at every product key — one pass that is both the mask
   test and the compression — and multiplies only the survivors
   (``insert``; the lazy-evaluation semantics of the INSERT lambda),
3. accumulates survivors into ``nc``-long arrays — ``np.bincount`` for
   ``np.add`` monoids (sequential in product order, so bit-identical to
   ``add.at``), ``add_ufunc.at`` otherwise — where SET is "count > 0",
4. emits the SET cells, which are already in mask order (``remove``), so
   rows come out sorted exactly as the reference builds them.

With a plain mask the allowed cells are the mask entries.  With a
complemented mask they are the cells some product lands on minus the mask
entries, found by a bitmap scatter and one scan of the chunk's dense range.

The ``rank`` and bitmap arrays cover ``chunk_rows x ncols``, are reset
cell-by-cell after each chunk and leased from the scratch arena
(:mod:`repro.core.kernels.arena`), so iterative workloads reuse them across
*calls* as well.  The chunk budgets keep every temporary around a megabyte,
which the allocator recycles instead of mapping afresh.

Chunks come from the ``batch=`` tier (:mod:`repro.core.kernels.batch`):
power-of-two flops/row size classes at/above the crossover
(``"bucket"``), contiguous flop-budget row blocks below it (``"perrow"``).
Values and ``OpCounter`` totals do not depend on the tier — every output
row is produced by one chunk with its products in expansion order, and
every charged quantity is a per-row sum.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ...machine import OpCounter
from ...observe import probes as _probes
from ...observe import tracer as _obs
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSR
from . import native as _native
from .arena import get_arena
from .batch import FusedSlab, bucket_batches, expand_keys, per_row_flops, \
    plan_flop_blocks, product_values, resolve_tier, rows_entries

__all__ = ["masked_spgemm_msa_fast"]

#: products per chunk / dense cells per chunk: temporaries of about 1 MB
MSA_FLOP_BUDGET = 1 << 17
MSA_DENSE_BUDGET = 1 << 20


def _row_blocks(
    per_row: np.ndarray, flop_budget: int, max_width: int
) -> Iterator[Tuple[None, np.ndarray]]:
    """Contiguous flop-budget blocks, split to at most ``max_width`` rows."""
    for lo, hi in plan_flop_blocks(per_row, flop_budget):
        for sub in range(lo, hi, max_width):
            yield None, np.arange(sub, min(hi, sub + max_width), dtype=np.int64)


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
            scratch.append(touched.require(n).ctypes.data)
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
        counter.accum_allowed += mask.nnz
        counter.accum_inserts += inserts
        counter.flops += flops
        counter.accum_removes += nnz if complement else mask.nnz
        counter.spa_resets += mask.nnz + (nnz if complement else 0)
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
    n = b.ncols
    nn = np.int64(n)
    # chunks are capped so width * n dense cells fit the dense budget
    max_width = max(1, dense_budget // max(1, n))
    per_row = per_row_flops(a, b)
    if resolve_tier(a, b, batch, per_row=per_row) == "bucket":
        chunks = bucket_batches(per_row, flop_budget, width_cap=max_width)
    else:
        chunks = _row_blocks(per_row, flop_budget, max_width)
    ident = semiring.add_identity
    add_ufunc = semiring.add_ufunc
    plain_sum = add_ufunc is np.add and ident == 0
    pr = _probes._INSTALLED  # one read; recordings below are per chunk

    slab = FusedSlab((a.nrows, n), row_nnz) if row_nnz is not None else None
    finished = []  # 1P: (rows, counts, cols, vals) per chunk, placed at the end

    # the leases' cleanliness contract is the per-chunk cell resets below; an
    # exception mid-chunk discards the buffers instead of returning them
    arena = get_arena()
    with arena.lease("msa.rank", np.int32, 0) as rank_lease, \
            arena.lease("msa.bitmap", np.bool_, False) as bitmap_lease:
        for bkt, rows in chunks:
            need = rows.size * n
            m_pos, m_local = rows_entries(mask.indptr, rows)
            m_cols = mask.indices.take(m_pos)
            m_flat = m_local * nn + m_cols
            nm = int(m_flat.shape[0])
            p_flat, p_bpos, a_pos, ends = expand_keys(
                a, b, rows, np.arange(rows.size, dtype=np.int64)
            )
            if counter is not None:
                counter.accum_allowed += nm
                counter.accum_inserts += int(p_flat.shape[0])
            if pr is not None and bkt is not None:
                pr.hist("batch.bucket_occupancy").record(int(rows.size))

            if complement:
                bitmap = bitmap_lease.require(need)
                bitmap[p_flat] = True
                bitmap[m_flat] = False  # mask entries are NOTALLOWED here
                cells = np.flatnonzero(bitmap)
                bitmap[cells] = False
                local = cells // nn
                cols = cells - local * nn
            else:
                cells, local, cols = m_flat, m_local, m_cols
            nc = int(cells.shape[0])

            rank = rank_lease.require(need)
            rank[cells] = np.arange(1, nc + 1, dtype=np.int32)
            hit = rank.take(p_flat)
            rank[cells] = 0
            idx = np.flatnonzero(hit != 0)  # nonzero() is fast on bool only
            r = hit.take(idx)
            vals = product_values(semiring, a, b, a_pos, ends, p_bpos, idx)
            times_set = np.bincount(r, minlength=nc + 1)[1:]
            if plain_sum:
                acc = np.bincount(r, weights=vals, minlength=nc + 1)[1:]
            else:
                acc = np.full(nc + 1, ident, dtype=np.float64)
                add_ufunc.at(acc, r, vals)
                acc = acc[1:]
            if not complement:  # complement cells are SET by construction
                emit = np.flatnonzero(times_set != 0)
                local, cols, acc = local.take(emit), cols.take(emit), acc.take(emit)
            counts = np.bincount(local, minlength=rows.size)

            if counter is not None:
                counter.flops += int(idx.shape[0])
                counter.accum_removes += nc
                counter.spa_resets += nc + nm if complement else nm
            if pr is not None:
                if complement:
                    pr.hist("msa.reset_cells").record(nc + nm)
                else:
                    # touched cells vs nnz(m): what fraction of the mask's
                    # dense footprint the chunk actually used (the reset-list
                    # amortisation the paper's Section 5.2 argues for)
                    pr.hist("msa.touched_per_mask_pct").record(
                        int(100 * int(cols.shape[0]) // max(1, nm))
                    )
                    pr.hist("msa.reset_cells").record(nm)
                    if rows.size:
                        pr.hist("mask.row_hits").record_array(counts)
                        pr.hist("mask.row_misses").record_array(
                            np.bincount(m_local, minlength=rows.size) - counts
                        )
            if slab is not None:
                slab.write_rows(rows, counts, cols, acc)
            else:
                finished.append((rows, counts, cols, acc))

    if slab is None:
        # every output row belongs to exactly one chunk, so the row counts
        # fix the final layout: no sort, no duplicate scan
        rows, counts, cols, vals = (
            map(np.concatenate, zip(*finished)) if finished
            else (np.empty(0, dtype=np.int64),) * 4
        )
        row_nnz = np.zeros(a.nrows, dtype=np.int64)
        row_nnz[rows] = counts
        slab = FusedSlab((a.nrows, n), row_nnz)
        slab.write_rows(rows, counts, cols, vals)
    c = slab.finish()
    if counter is not None:
        counter.output_nnz += c.nnz
    return c
