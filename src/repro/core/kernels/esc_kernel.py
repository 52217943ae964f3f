"""Masked ESC (Expand-Sort-Compress) kernel — an extension algorithm.

ESC is the GPU-style SpGEMM family of Liu & Vinter (the paper's ref [28])
and Bell/Dalton's cusp: *expand* all scalar products, *sort* them by output
coordinate, *compress* equal keys with the semiring add.  It needs no
random-access accumulator at all — its "accumulator" is the sort — which
makes it attractive where scatter is expensive (GPUs, SIMD) and expensive
where flops(AB) is large (the sort touches every product, masked or not).

This reproduction adds a **masked** ESC variant (not part of the paper's
14 schemes; clearly an extension, see DESIGN.md §7): the mask is applied
*between expand and sort*, by a batched membership test of product keys
against the sorted mask keys, so the sort only sees surviving products.
The masked filter converts ESC's cost from
``O(flops·log(flops))`` to ``O(flops + useful·log(useful))`` — the same
work-saving the accumulator schemes get, obtained with sorting machinery.

Complement support is natural (flip the membership test).

The bucketed tier (``batch="bucket"``) swaps the contiguous flop-budget
blocks for power-of-two size-class chunks (zero-product rows are skipped —
they expand to nothing and the per-row tier charges nothing for them) and
defers the multiply until after the mask filter.  Per output cell the
surviving products keep their expansion order and the stable sort groups
them identically, so the segmented reduction — and therefore every value —
is bit-for-bit the per-row tier's.  With an exact symbolic bound
(``row_nnz``) compressed rows are written straight into a
:class:`~repro.core.kernels.batch.FusedSlab`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...machine import OpCounter
from ...observe import probes as _probes
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSR
from .arena import get_arena
from .batch import FusedSlab, bucket_batches, expand_keys, per_row_flops, \
    product_values, resolve_tier
from .expand import DEFAULT_FLOP_BUDGET, expand_products, iter_row_blocks, row_keys

__all__ = ["masked_spgemm_esc_fast"]


@traced_kernel("esc")
def masked_spgemm_esc_fast(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    flop_budget: int = DEFAULT_FLOP_BUDGET,
    batch: str = "auto",
    row_nnz: Optional[np.ndarray] = None,
) -> CSR:
    """Vectorized masked Expand-Sort-Compress (see module docs).

    ``batch`` selects the batching tier (``"auto"`` | ``"bucket"`` |
    ``"perrow"``); ``row_nnz`` optionally carries the exact two-phase
    symbolic bound, enabling fused direct-to-CSR output on the bucketed
    tier (ignored on the per-row tier).
    """
    a = a.sort_indices()
    b = b.sort_indices()
    mask = mask.sort_indices()
    n = b.ncols
    per_row = per_row_flops(a, b)
    tier = resolve_tier(a, b, batch, per_row=per_row)
    m_rows_all = np.repeat(np.arange(mask.nrows, dtype=np.int64), mask.row_nnz())
    m_keys = row_keys(m_rows_all, mask.indices, n)

    out_rows = []
    out_cols = []
    out_vals = []
    slab = (
        FusedSlab((a.nrows, n), row_nnz)
        if tier == "bucket" and row_nnz is not None
        else None
    )
    # boundary scratch is fully overwritten before being read, so it is
    # leased uninitialised (fill=None) and never needs resetting
    arena = get_arena()
    with arena.lease("esc.boundary", np.bool_, None) as boundary_lease:
        if tier == "bucket":
            _esc_bucketed(
                a, b, m_keys, per_row, n, complement, semiring, counter,
                flop_budget, boundary_lease, slab, out_rows, out_cols, out_vals,
            )
        else:
            _esc_blocks(
                a, b, m_keys, n, complement, semiring, counter, flop_budget,
                boundary_lease, out_rows, out_cols, out_vals,
            )

    if slab is not None:
        c = slab.finish()
        if counter is not None:
            counter.output_nnz += c.nnz
        return c
    if out_rows:
        rows = np.concatenate(out_rows)
        cols = np.concatenate(out_cols)
        vals = np.concatenate(out_vals)
    else:
        rows = cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0, dtype=np.float64)
    if counter is not None:
        counter.output_nnz += int(rows.shape[0])
    return CSR.from_coo((a.nrows, n), rows, cols, vals)


def _compress(p_keys, vals, order, semiring, boundary_lease):
    """Sort products by key and reduce equal keys; returns (heads, red)."""
    p_keys = p_keys[order]
    vals = vals[order]
    boundary = boundary_lease.require(p_keys.shape[0])
    boundary[0] = True
    np.not_equal(p_keys[1:], p_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    red = semiring.add_ufunc.reduceat(vals, starts)
    return p_keys[starts], np.asarray(red, dtype=np.float64)


def _esc_blocks(
    a, b, m_keys, n, complement, semiring, counter, flop_budget,
    boundary_lease, out_rows, out_cols, out_vals,
):
    """The per-row tier's contiguous block loop (eager expansion)."""
    for lo, hi in iter_row_blocks(a, b, flop_budget):
        prod_rows, prod_cols, prod_vals = expand_products(a, b, lo, hi, semiring)
        if prod_rows.shape[0] == 0:
            continue
        p_keys = row_keys(prod_rows, prod_cols, n)
        if counter is not None:
            counter.accum_inserts += int(p_keys.shape[0])
        # --- mask filter (between expand and sort) ---
        if m_keys.shape[0]:
            pos = np.searchsorted(m_keys, p_keys)
            pos_c = np.minimum(pos, m_keys.shape[0] - 1)
            inside = m_keys[pos_c] == p_keys
        else:
            inside = np.zeros(p_keys.shape[0], dtype=bool)
        keep = ~inside if complement else inside
        p_keys = p_keys[keep]
        vals = prod_vals[keep]
        if counter is not None:
            counter.flops += int(p_keys.shape[0])
        if p_keys.shape[0] == 0:
            continue
        # --- sort + compress (segmented semiring reduction) ---
        order = np.argsort(p_keys, kind="stable")
        heads, red = _compress(p_keys, vals, order, semiring, boundary_lease)
        out_rows.append(heads // n)
        out_cols.append(heads % n)
        out_vals.append(red)


def _esc_bucketed(
    a, b, m_keys, per_row, n, complement, semiring, counter, flop_budget,
    boundary_lease, slab, out_rows, out_cols, out_vals,
):
    """The bucketed tier: size-class chunks, lazy multiply after the filter."""
    pr = _probes._INSTALLED
    for bkt, rows in bucket_batches(
        per_row, flop_budget, include_empty=False
    ):
        p_keys, p_bpos, a_pos, ends = expand_keys(a, b, rows, rows)
        if p_keys.shape[0] == 0:
            continue
        if counter is not None:
            counter.accum_inserts += int(p_keys.shape[0])
        if pr is not None:
            pr.hist("batch.bucket_occupancy").record(int(rows.size))
        # --- mask filter (between expand and multiply) ---
        if m_keys.shape[0]:
            pos = np.searchsorted(m_keys, p_keys)
            pos_c = np.minimum(pos, m_keys.shape[0] - 1)
            inside = m_keys[pos_c] == p_keys
        else:
            inside = np.zeros(p_keys.shape[0], dtype=bool)
        keep = np.flatnonzero(~inside if complement else inside)
        p_keys = p_keys[keep]
        if counter is not None:
            counter.flops += int(p_keys.shape[0])
        if p_keys.shape[0] == 0:
            continue
        vals = product_values(semiring, a, b, a_pos, ends, p_bpos, keep)
        # --- sort + compress ---
        order = np.argsort(p_keys, kind="stable")
        heads, red = _compress(p_keys, vals, order, semiring, boundary_lease)
        g_rows = heads // n
        g_cols = heads % n
        if slab is not None:
            slab.write(g_rows, g_cols, red)
        else:
            out_rows.append(g_rows)
            out_cols.append(g_cols)
            out_vals.append(red)
