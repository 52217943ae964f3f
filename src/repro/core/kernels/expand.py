"""Eager product expansion in contiguous row blocks.

The multiset of scalar products ``{A[i,k] * B[k,j]}`` of a row block as flat
arrays ``(prod_rows, prod_cols, prod_vals)`` of length ``flops(A B)`` — pure
NumPy gather/repeat, memory-access patterns 1-3 of Section 4.2 (read A, fetch
B row extents, stanza-read B rows) — in blocks that expand to at most
``flop_budget`` products.  The unmasked saxpy product multiplies everything
and uses it directly; the masked push kernels expand keys only
(:func:`repro.core.kernels.batch.expand_keys`), with this as the oracle.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ...semiring import Semiring
from ...sparse import CSR

__all__ = ["expand_products", "iter_row_blocks", "row_keys", "DEFAULT_FLOP_BUDGET"]

DEFAULT_FLOP_BUDGET = 1 << 22  # ~4M products per block
#: ESC's and uncertified Hash's cap on a contiguous block — nothing of theirs
#: observes where one ends, and cache-sized temporaries are faster (TC R-MAT
#: 12, ms at 2^16 / 2^18 / 2^22: ESC 77 / 90 / 115, Hash 64 / 76 / 98)
FINE_FLOP_BUDGET = 1 << 16


def expand_products(
    a: CSR,
    b: CSR,
    row_lo: int,
    row_hi: int,
    semiring: Semiring,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand all products of output rows ``[row_lo, row_hi)``.

    Returns ``(prod_rows, prod_cols, prod_vals)`` where ``prod_rows`` is the
    output row of each product, ``prod_cols`` the output column, and
    ``prod_vals`` the semiring product ``mult(A_ik, B_kj)``.  Products appear
    grouped by output row, then by the order of A's nonzeros — the same
    order the reference push kernels generate them in.
    """
    lo, hi = int(a.indptr[row_lo]), int(a.indptr[row_hi])
    a_cols = a.indices[lo:hi]
    a_vals = a.data[lo:hi]
    a_rows = np.repeat(
        np.arange(row_lo, row_hi, dtype=np.int64),
        np.diff(a.indptr[row_lo : row_hi + 1]),
    )
    starts = b.indptr[a_cols]
    counts = b.indptr[a_cols + 1] - starts
    total = int(counts.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), np.empty(0, dtype=np.float64)
    # flat positions into B.indices/B.data for every product
    block_ofs = np.repeat(np.cumsum(counts) - counts, counts)
    pos = np.arange(total, dtype=np.int64) - block_ofs + np.repeat(starts, counts)
    prod_cols = b.indices[pos]
    prod_vals = semiring.mult_ufunc(np.repeat(a_vals, counts), b.data[pos])
    prod_rows = np.repeat(a_rows, counts)
    return prod_rows, prod_cols, np.asarray(prod_vals, dtype=np.float64)


def iter_row_blocks(
    a: CSR, b: CSR, flop_budget: int = DEFAULT_FLOP_BUDGET
) -> Iterator[Tuple[int, int]]:
    """Yield ``(row_lo, row_hi)`` blocks whose expansion stays within the
    flop budget (single rows may exceed it; they get a block of their own):
    :func:`repro.core.kernels.batch.plan_flop_blocks` over ``flops_per_row``."""
    from .batch import per_row_flops, plan_flop_blocks

    yield from plan_flop_blocks(per_row_flops(a, b), flop_budget)


def row_keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Combine (row, col) into a single sortable int64 key."""
    return rows * np.int64(ncols) + cols
