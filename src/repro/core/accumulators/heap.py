"""Heap-based k-way merge machinery — paper Section 5.5, Algorithms 4-5.

The heap scheme is not an accumulator in the SETALLOWED/INSERT/REMOVE sense:
it merges the sorted rows ``{B[k,:] : u_k != 0}`` through a min-heap of row
iterators ordered by current column index, intersecting the merged stream
with the (sorted) mask on the fly.  This module provides the two pieces the
SpGEVM kernel needs:

* :class:`RowIterator` — a cursor over one row's (col, val) pairs.
* :func:`heap_insert` — Algorithm 5: before pushing an iterator, inspect up
  to ``n_inspect`` mask elements and fast-forward the iterator past columns
  the mask can never accept.  ``n_inspect=0`` disables inspection (used for
  complemented masks), ``1`` gives the paper's "Heap" variant and ``inf``
  the "HeapDot" variant.

Heap ordering uses ``(col, row)`` keys so merges are deterministic.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np

from ...machine import OpCounter

__all__ = ["RowIterator", "MaskIterator", "heap_insert", "heap_pop"]


class RowIterator:
    """Cursor over the nonzeros of one sorted row of B (or of the mask)."""

    __slots__ = ("cols", "vals", "pos", "row_id", "scale")

    def __init__(self, cols: np.ndarray, vals: Optional[np.ndarray], row_id: int, scale: float = 1.0):
        self.cols = cols
        self.vals = vals
        self.pos = 0
        self.row_id = row_id
        self.scale = scale

    def valid(self) -> bool:
        return self.pos < len(self.cols)

    @property
    def col(self) -> int:
        return int(self.cols[self.pos])

    @property
    def val(self) -> float:
        return float(self.vals[self.pos])

    def advance(self) -> "RowIterator":
        self.pos += 1
        return self

    def __lt__(self, other: "RowIterator") -> bool:
        return (self.col, self.row_id) < (other.col, other.row_id)


class MaskIterator(RowIterator):
    """Iterator over the mask row; values are ignored (pattern only)."""

    def __init__(self, cols: np.ndarray):
        super().__init__(cols, None, row_id=-1)


def heap_insert(
    pq: List[RowIterator],
    row_iter: RowIterator,
    mask_iter: MaskIterator,
    n_inspect: float,
    counter: OpCounter,
) -> None:
    """Algorithm 5: push ``row_iter``, inspecting up to ``n_inspect`` mask
    positions first to skip provably-masked-out elements.

    The inspection co-advances ``row_iter`` and a *local view* of the mask
    (the shared ``mask_iter`` position is a lower bound that only the main
    loop advances, exactly as in the paper where ``mIter`` is passed by
    value to INSERT).
    """
    if not row_iter.valid():
        return
    if n_inspect == 0:
        heapq.heappush(pq, row_iter)
        counter.heap_pushes += 1
        return
    to_inspect = n_inspect
    mpos = mask_iter.pos
    mcols = mask_iter.cols
    mlen = len(mcols)
    while row_iter.valid() and mpos < mlen:
        counter.mask_scans += 1
        rc = row_iter.col
        mc = int(mcols[mpos])
        if rc == mc:
            heapq.heappush(pq, row_iter)
            counter.heap_pushes += 1
            return
        if rc < mc:
            row_iter.advance()
        else:
            mpos += 1
            to_inspect -= 1
            if to_inspect == 0:
                heapq.heappush(pq, row_iter)
                counter.heap_pushes += 1
                return
    # The inspection loop only exits here when the row iterator ran dry
    # or the (local view of the) mask did; either way no element of this
    # row at or beyond the current position can ever match, so the
    # iterator is dropped — Algorithm 5 likewise only pushes inside the
    # loop.


def heap_pop(pq: List[RowIterator], counter: OpCounter) -> RowIterator:
    counter.heap_pops += 1
    return heapq.heappop(pq)
