"""Vectorized MSA kernel.

The fast counterpart of Algorithm 2: ``native.c``'s row loop where the call
is eligible (:mod:`.native`), else the push frame over the dense-rank
accumulator (:class:`repro.core.kernels.batch.DenseRank`, which describes
the algorithm).  This module holds what is MSA's own: the dispatch, the
``OpCounter`` charges and the chunk budgets.

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
from .batch import Chunk, DenseRank, push_product

__all__ = ["masked_spgemm_msa_fast"]


class Visited:
    """BC's and BFS's visited set, read only as a complemented mask: cell
    ``(i, c)`` is bit ``c % 64`` of ``bits[i, c // 64]`` (``np.zeros``: pages no
    row reaches stay unmapped), ``count[i]`` row ``i``'s set bits."""

    def __init__(self, shape, rows, cols):
        self.shape = shape
        self.bits = np.zeros((shape[0], (shape[1] + 63) >> 6), dtype=np.uint64)
        self.count = np.zeros(shape[0], dtype=np.int64)
        self.mark(rows, cols)

    nnz = property(lambda self: int(self.count.sum()))

    def mark(self, rows, cols) -> None:
        """Set the bits of the cells ``(rows, cols)``, none of them set yet."""
        bit = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
        np.bitwise_or.at(self.bits, (rows, cols >> 6), bit)
        self.count += np.bincount(rows, minlength=self.shape[0])

    def csr(self) -> CSR:
        """The set bits as a canonical CSR valued 0.0 (no value is read)."""
        cells = np.unpackbits(self.bits.astype("<u8").view(np.uint8), 1, bitorder="little")
        cols = np.nonzero(cells[:, :self.shape[1]])[1]
        return CSR(self.shape, np.concatenate(([0], np.cumsum(self.count))), cols,
                   np.zeros(cols.shape[0]), sorted_indices=True, check=False)

    def through(self, run) -> CSR:
        """Every route but the native 1P MSA row (and its byte reference):
        ``run`` (the ordinary complemented call) on :meth:`csr`, then marks."""
        mask = self.csr()
        _native.trust(mask)  # built here, from bits only this call wrote
        c = run(mask)
        self.mark(c.row_ids(), c.indices)
        return c


#: products per chunk / dense cells per chunk: temporaries of about 1 MB
MSA_FLOP_BUDGET = 1 << 17
MSA_DENSE_BUDGET = 1 << 20


def _msa_native(nat, a: CSR, b: CSR, mask: CSR, complement, counter, row_nnz,
                nthreads, aligned=False):
    """The whole call as ``native.c``'s MSA row loop (no chunks), on ``nthreads``
    threads, into arrays of the 1P output's size: ``nnz(M)`` under a plain mask,
    ``sum(min(flops_i, ncols - distinct(m_i)))`` under a complemented one (C's
    ``repro_msa_bound``, :func:`repro.core.symbolic.one_phase_bound`'s total: a
    mask row counts as distinct only where its columns strictly increase, so the
    bound holds for a ``check=False`` mask too); values and counters are those of
    the NumPy body below.  ``row_nnz`` (2P) only cross-checks the rows written.
    ``aligned`` (plain mask): ``(values at the mask's entries, hits)``; a
    :class:`Visited` mask: its bits, read and marked, and counts as ``nnz(m_i)``."""
    lib, op = nat
    nrows, n = a.nrows, b.ncols
    visited, nm = isinstance(mask, Visited), mask.nnz  # nm: before the marks
    _native.validate(lib, (a, b) if visited else (a, b, mask),
                     a.ncols == b.nrows and mask.shape == (nrows, n))
    cnt = np.zeros(2, dtype=np.int64)  # flops, inserts
    indptr = np.empty(nrows + 1, dtype=np.int64)
    # a bitmap is read (and marked) in place of the CSR mask's two arrays
    arrays = (None, None, mask.bits, mask.count) if visited else (mask.indptr, mask.indices,
                                                                  None, None)
    mp, mj, vis, count = (None if x is None else x.ctypes.data for x in arrays)
    cap = lib.repro_msa_bound(1, nrows, n, a.indptr.ctypes.data, a.indices.ctypes.data,
                              b.indptr.ctypes.data, mp, mj, count) if complement else nm
    cols = None if aligned else np.empty(cap, dtype=np.int64)
    vals = np.empty(cap, dtype=np.float64)
    operands = [x.ctypes.data for x in (a.indptr, a.indices, a.data, b.indptr,
                                        b.indices, b.data)] + [mp, mj]
    # the C loop restores every touched cell after each row: the leases'
    # cleanliness contract, as in the NumPy body; one slice of each per thread
    arena = get_arena()
    with arena.lease("native.state", np.uint8, 0) as state, \
            arena.lease("native.values", np.float64, 0.0) as values, \
            arena.lease("native.touched", np.int64, None) as touched:
        # one cell more than there are columns: msa_row's append stores, then advances
        first_touches = touched.require(nthreads * (n + 1)).ctypes.data if complement else None
        nnz = lib.repro_msa(op, int(complement), nrows, n, *operands,
                            state.require(nthreads * n).ctypes.data,
                            values.require(nthreads * n).ctypes.data, first_touches,
                            indptr.ctypes.data, cols if aligned else cols.ctypes.data,
                            vals.ctypes.data, cap, cnt.ctypes.data, vis, count, nthreads)
    if nnz < 0:
        raise AssertionError(f"native MSA loop refused the call (code {nnz})")
    flops, inserts = map(int, cnt)
    if row_nnz is not None and not np.array_equal(np.diff(indptr), row_nnz):
        raise AssertionError(
            "symbolic/numeric mismatch: numeric pass emitted a different number "
            "of entries for a row than the symbolic bound allocated"
        )
    if counter is not None:
        # every charge is a per-row sum: the whole call as one chunk
        _charge(counter, SimpleNamespace(nm=nm, products=inserts, kept=flops,
                                         out=nnz, complement=complement))
        counter.output_nnz += nnz
    if aligned:
        return vals, nnz
    # no oversized buffer outlives the call: shrunk in place (a realloc)
    cols.resize(nnz, refcheck=False)
    vals.resize(nnz, refcheck=False)
    return CSR((nrows, n), indptr, cols, vals, sorted_indices=True, check=False)


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
    row_nnz: Optional[np.ndarray] = None,
    nthreads: int = 1,
    aligned: bool = False,
):
    """Vectorized MSA masked SpGEMM (see module docs).

    ``row_nnz`` optionally carries the exact two-phase symbolic counts: the
    NumPy body writes finished rows straight into a CSR slab of that size, the
    native loop checks its rows against them; both raise on a mismatch.
    ``nthreads``: threads of the native loop and of the operands' ordering,
    where one is unsorted (the same bytes and counters at any count).
    ``aligned``: the native loop's ``(values, hits)`` (``run_kernel(aligned=True)``).
    """
    a, b = a._sort_indices(nthreads), b._sort_indices(nthreads)
    mask = mask if isinstance(mask, Visited) else mask._sort_indices(nthreads)
    nat = _native.kernels(semiring, a.data, b.data)
    _obs.annotate(tier="numpy" if nat is None else "native")
    if nat is not None:
        return _msa_native(nat, a, b, mask, complement, counter, row_nnz, nthreads, aligned)
    return push_product(
        a, b, mask, DenseRank(), complement=complement, semiring=semiring,
        counter=counter, flop_budget=flop_budget, dense_budget=dense_budget,
        row_nnz=row_nnz, charge=_charge,
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

