"""Row-bucketed batch execution helpers for the fast kernels.

The per-row tier of the MSA/Hash/ESC fast kernels walks contiguous row
blocks; inside a block everything is vectorized, but the block loop itself
and the eager value expansion still cost interpreter time proportional to
``nrows`` and ``flops(AB)``.  This module supplies the *bucketed* tier
(Nagasaka et al.'s row-size-class batching, adapted to masked products):

* rows are grouped by the power-of-two bucket of their upper-bound flops
  (``bucket = bit_length(flops_row)``, bucket 0 = zero-product rows), and
  each bucket is cut into chunks sized so a chunk's total expansion stays
  inside the flop budget — same-size rows batch together, so one chunk is
  one whole-array NumPy pass with no per-row dispatch;
* product expansion is *keys-only* (:func:`expand_keys`): the multiply is
  deferred until after the mask filter, so masked-out products are never
  multiplied (the kernels' lazy-INSERT semantics, now also lazily valued);
* when the two-phase symbolic sweep (or the session's symbolic-bound memo)
  has already proven exact per-row output sizes, :class:`FusedSlab` lets a
  kernel write finished CSR rows directly into a pre-allocated slab —
  fusing the numeric pass with output formation and skipping the
  COO-concatenate/sort sweep entirely.

Equivalence contract (enforced by ``tests/test_batch.py``): values are
bit-for-bit identical to the per-row tier because every output row is
produced by exactly one chunk, a row's products keep their expansion order
within the chunk, and scatter-accumulation (``ufunc.at`` / ``bincount``)
applies them sequentially.  ``OpCounter`` totals are identical
because every charged quantity (mask entries, expanded products, kept
flops, removals, resets) is a per-row sum, invariant to how rows are
grouped — the hash kernel additionally keeps the per-row tier's exact
flop-budget blocks so its probe accounting stays bit-for-bit too.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ...machine.traffic import flops_per_row as per_row_flops
from ...observe import tracer as _obs
from ...semiring import PLUS_PAIR, Semiring
from ...sparse import CSR
from ...sparse.csr import rows_entries

__all__ = [
    "BATCH_TIERS",
    "BATCHABLE_ALGOS",
    "DEFAULT_BATCH_CROSSOVER_FLOPS",
    "per_row_flops",
    "resolve_tier",
    "plan_flop_blocks",
    "bucket_ids",
    "bucket_census",
    "bucket_batches",
    "rows_entries",
    "expand_keys",
    "product_values",
    "FusedSlab",
]

#: accepted values of the ``batch`` knob
BATCH_TIERS = ("auto", "bucket", "perrow")

#: fast kernels with a bucketed tier (inner/mca keep their own structure)
BATCHABLE_ALGOS = frozenset({"msa", "hash", "esc"})

#: ``batch="auto"`` picks the bucketed tier at/above this many upper-bound
#: flops for the whole call (see MachineConfig.batch_crossover_flops)
DEFAULT_BATCH_CROSSOVER_FLOPS = 1 << 18


def resolve_tier(
    a: CSR,
    b: CSR,
    batch: str,
    *,
    crossover: int = DEFAULT_BATCH_CROSSOVER_FLOPS,
    per_row: Optional[np.ndarray] = None,
) -> str:
    """Resolve the ``batch`` knob to a concrete tier.

    ``"auto"`` buckets exactly when the call's total upper-bound flops
    reach ``crossover`` — below it the fixed bucketing overhead (argsort,
    chunk bookkeeping) is not worth amortising and the per-row tier wins.
    """
    if batch not in BATCH_TIERS:
        raise ValueError(f"batch must be one of {BATCH_TIERS}, got {batch!r}")
    if batch != "auto":
        return batch
    if per_row is None:
        per_row = per_row_flops(a, b)
    return "bucket" if int(per_row.sum()) >= int(crossover) else "perrow"


def plan_flop_blocks(
    per_row: np.ndarray, flop_budget: int
) -> Iterator[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` blocks whose flops fit the budget.

    Vectorized equivalent of the historical greedy row walk: each block is
    the maximal prefix whose cumulative flops stay within the budget, with
    at least one row per block (a single over-budget row gets its own).
    """
    nrows = int(per_row.shape[0])
    if nrows == 0:
        return
    cs = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(per_row, out=cs[1:])
    lo = 0
    while lo < nrows:
        base = int(cs[lo])
        # the greedy walk only cuts once the running block holds at least
        # one product, so leading zero-flop rows ride along with the first
        # productive row (f) even when that row alone busts the budget
        f = int(np.searchsorted(cs, base, side="right")) - 1
        h = int(np.searchsorted(cs, base + flop_budget, side="right")) - 1
        hi = min(nrows, max(f + 1, h))
        yield lo, hi
        lo = hi


def bucket_ids(per_row: np.ndarray) -> np.ndarray:
    """Power-of-two size class per row: ``bit_length`` of the row's flops
    (0 for zero-product rows; exact for counts below 2**53)."""
    return np.frexp(per_row.astype(np.float64))[1].astype(np.int64)


def bucket_census(per_row: np.ndarray) -> Dict[int, int]:
    """``{bucket_id: nrows}`` over the non-empty buckets (ascending)."""
    ids = bucket_ids(per_row)
    if ids.size == 0:
        return {}
    counts = np.bincount(ids)
    return {int(b): int(counts[b]) for b in np.flatnonzero(counts)}


def bucket_batches(
    per_row: np.ndarray,
    flop_budget: int,
    *,
    width_cap: Optional[int] = None,
    include_empty: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(bucket_id, rows)`` chunks of same-size-class rows.

    Rows are ascending within each bucket and each row appears in exactly
    one chunk (the decomposition invariant the counter equality rests on).
    Chunks are sized so total expansion stays within ``flop_budget`` (rows
    of bucket ``b`` expand to < ``2**b`` products each) and, when
    ``width_cap`` is given, so dense per-row scratch of ``width_cap`` rows
    suffices.  ``include_empty=False`` drops bucket 0 (zero-product rows)
    for kernels where such rows charge nothing and emit nothing.
    """
    ids = bucket_ids(per_row)
    if ids.size == 0:
        return
    tr = _obs.current()
    order = np.argsort(ids, kind="stable")  # row order preserved per bucket
    sorted_ids = ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [sorted_ids.size]))
    for s, e in zip(starts, stops):
        b = int(sorted_ids[s])
        if b == 0 and not include_empty:
            continue
        rows = order[s:e]
        chunk = max(1, int(flop_budget) >> min(b, 62)) if b else rows.size
        if width_cap is not None:
            chunk = min(chunk, int(width_cap))
        chunk = max(1, chunk)
        for lo in range(0, rows.size, chunk):
            chunk_rows = rows[lo : lo + chunk]
            if tr is None:
                yield b, chunk_rows
            else:
                # the span stays open across the yield, so its duration is
                # exactly the kernel's processing time for this chunk (the
                # generator is suspended inside the with-block)
                with tr.span(
                    "kernel.bucket",
                    {"bucket": b, "rows": int(chunk_rows.size),
                     "flops": int(per_row[chunk_rows].sum())},
                ):
                    yield b, chunk_rows


def expand_keys(
    a: CSR, b: CSR, rows: np.ndarray, key_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Keys-only product expansion of a scattered row set.

    Returns ``(p_keys, p_bpos, a_pos, ends)``.  The first two have length
    ``flops(rows)``: ``p_keys`` is each product's flat output key
    ``key_rows[i] * ncols + col`` (``i`` the row's position within ``rows``
    — pass ``rows`` itself for global keys, an ``arange`` for chunk-local
    ones) and ``p_bpos`` its B-entry position (into ``b.indices``/``b.data``).
    The other two have one element per A-entry of ``rows``: ``a_pos`` its
    position in ``a.data`` and ``ends`` the running product count, so
    A-entry ``j`` produced the products ``ends[j-1] <= p < ends[j]``.
    Values are *not* computed here — :func:`product_values` multiplies only
    the products that survive the mask filter, which is elementwise and
    therefore bitwise identical to filtering after an eager multiply.
    Products keep the per-row tier's order: grouped by row (in ``rows``
    order), then A-entry order, then B-row order.
    """
    a_pos, a_local = rows_entries(a.indptr, rows)
    a_cols = a.indices.take(a_pos)
    starts = b.indptr.take(a_cols)
    counts = b.indptr.take(a_cols + 1) - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), a_pos, ends
    p_bpos = np.repeat(starts - (ends - counts), counts)
    p_bpos += np.arange(total, dtype=np.int64)
    p_keys = np.repeat(key_rows.take(a_local) * np.int64(b.ncols), counts)
    p_keys += b.indices.take(p_bpos)
    return p_keys, p_bpos, a_pos, ends


def product_values(
    semiring: Semiring,
    a: CSR,
    b: CSR,
    a_pos: np.ndarray,
    ends: np.ndarray,
    p_bpos: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """Semiring products of the surviving expansion positions ``idx``
    (ascending; the other arguments are :func:`expand_keys`'s).  Each
    A-entry's survivor count comes from a binary search of its product
    range's end in ``idx`` — one search per A-entry, not per product — and
    none at all when the multiply ignores its operands."""
    if semiring.mult_ufunc is PLUS_PAIR.mult_ufunc:
        return np.ones(idx.shape[0], dtype=np.float64)
    survivors = np.searchsorted(idx, ends)
    survivors[1:] -= survivors[:-1].copy()
    return np.asarray(
        semiring.mult_ufunc(
            a.data.take(np.repeat(a_pos, survivors)),
            b.data.take(p_bpos.take(idx)),
        ),
        dtype=np.float64,
    )


class FusedSlab:
    """Direct-to-CSR output assembly from an exact symbolic bound.

    Two-phase execution already knows every row's output size before the
    numeric pass runs; the per-row tier still assembles COO triples and
    re-sorts them through ``CSR.from_coo``.  A slab allocates the final
    ``indptr``/``indices``/``data`` up front and lets each batch write its
    finished rows in place — the symbolic/numeric fusion of the batched
    tier.

    :meth:`write` calls must be row-grouped (all entries of a row adjacent,
    columns ascending) and each output row must be written by exactly one
    call — exactly what the bucketed kernels produce, since every row lives
    in one chunk and emissions within a chunk are row-major sorted.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_written")

    def __init__(self, shape: Tuple[int, int], row_nnz: np.ndarray) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=indptr[1:])
        self.indptr = indptr
        nnz = int(indptr[-1])
        self.indices = np.empty(nnz, dtype=np.int64)
        self.data = np.empty(nnz, dtype=np.float64)
        self._written = 0

    def write(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Place one batch's finished entries (row-grouped, cols sorted)."""
        k = int(rows.shape[0])
        if k == 0:
            return
        idx = np.arange(k, dtype=np.int64)
        head = np.where(
            np.concatenate(([True], rows[1:] != rows[:-1])), idx, 0
        )
        np.maximum.accumulate(head, out=head)
        dest = self.indptr[rows] + (idx - head)
        if bool(np.any(dest >= self.indptr[rows + 1])):
            raise AssertionError(
                "symbolic/numeric mismatch: numeric pass emitted more "
                "entries for a row than the symbolic bound allocated"
            )
        self.indices[dest] = cols
        self.data[dest] = vals
        self._written += k

    def write_rows(
        self, rows: np.ndarray, counts: np.ndarray, cols: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        """Place whole finished rows: ``counts[i]`` entries of ``rows[i]``,
        concatenated in ``rows`` order (columns ascending within a row)."""
        if bool(np.any(counts != self.indptr[rows + 1] - self.indptr[rows])):
            raise AssertionError(
                "symbolic/numeric mismatch: numeric pass emitted a "
                "different number of entries for a row than the symbolic "
                "bound allocated"
            )
        dest, _ = rows_entries(self.indptr, rows)
        self.indices[dest] = cols
        self.data[dest] = vals
        self._written += int(cols.shape[0])

    def finish(self) -> CSR:
        """The finished matrix; raises if any allocated cell went unwritten."""
        if self._written != self.indices.shape[0]:
            raise AssertionError(
                f"symbolic/numeric mismatch: symbolic predicted "
                f"{self.indices.shape[0]} nonzeros, numeric produced "
                f"{self._written}"
            )
        return CSR(
            self.shape, self.indptr, self.indices, self.data,
            sorted_indices=True, check=False,
        )
