"""The one push (Gustavson) row loop of the NumPy tier, its chunkers and its
three accumulator strategies.

The paper's Section 5 is *one* row-by-row loop behind a three-call
accumulator interface (set-allowed / insert / remove); MSA, MCA, Hash and —
as an extension — ESC differ only in the accumulator.  :func:`push_product`
is that loop, over row *chunks* so that every step is a whole-array pass:

1. sort the operands and make chunks — ``batch=`` selects contiguous
   flop-budget row blocks (:func:`row_blocks`, ``"perrow"``) or Nagasaka et
   al.'s row-size-class batching (:func:`bucket_batches`, ``"bucket"``),
   ``"auto"`` buckets at/above a flop crossover (:func:`resolve_tier`);
2. expand the chunk's products *keys-only* (:func:`expand_keys`);
3. the strategy — :class:`DenseRank`, :class:`SortedRank` or
   :class:`SortCompress` — picks the products that survive the mask, and
   only those are multiplied (:func:`product_values`);
4. it reduces them to finished rows, written straight into a
   :class:`FusedSlab`: no COO-concatenate/sort sweep ever runs;
5. the caller's ``OpCounter`` charges and probe recordings see the chunk.

The frame knows no algorithm — budgets, strategy, charges and recordings
arrive from the ``masked_spgemm_<algo>_fast`` entry points — and with
``count_only`` it is the two-phase symbolic pass.

Equivalence contract (``tests/test_batch.py``, ``tests/test_kernels.py``,
``docs/kernels.md``): every output row is produced by exactly one chunk with
its products in expansion order, so values do not depend on the chunker;
every charged quantity is a per-row sum, so ``OpCounter`` totals do not
either (Hash's probe accounting is per block: it always takes the contiguous
blocks).  The two rank strategies add a cell's products one at a time in
that order — same bytes, and ``native.c``'s — where :class:`SortCompress`
sums pairwise.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ...machine import OpCounter
from ...machine.traffic import flops_per_row as per_row_flops
from ...observe import probes as _probes
from ...observe import tracer as _obs
from ...semiring import PLUS_PAIR, PLUS_TIMES, Semiring
from ...sparse import CSR
from ...sparse.csr import rows_entries
from .arena import get_arena

__all__ = [
    "BATCH_TIERS",
    "BATCHABLE_ALGOS",
    "DEFAULT_BATCH_CROSSOVER_FLOPS",
    "per_row_flops",
    "resolve_tier",
    "plan_flop_blocks",
    "row_blocks",
    "bucket_ids",
    "bucket_census",
    "bucket_batches",
    "rows_entries",
    "expand_keys",
    "product_values",
    "FusedSlab",
    "Chunk",
    "DenseRank",
    "SortedRank",
    "SortCompress",
    "record_mask_routing",
    "push_product",
]

#: accepted values of the ``batch`` knob
BATCH_TIERS = ("auto", "bucket", "perrow")

#: fast kernels taking ``batch=`` (inner pulls; mca keeps hash's blocks)
BATCHABLE_ALGOS = frozenset({"msa", "hash", "esc"})

#: ``batch="auto"`` feeds the push loop row-size-class chunks instead of
#: contiguous row blocks at/above this many upper-bound flops (per call
#: here, per row band in the planner); below it the fixed bucketing
#: overhead (argsort, chunk bookkeeping) outweighs what same-size chunks
#: save.  Values and counters do not depend on the chunker, so this is
#: purely a performance crossover — it sits above the CI-sized graphs and
#: below the Fig. 10/11 R-MAT scaling cases.
DEFAULT_BATCH_CROSSOVER_FLOPS = 1 << 18


def resolve_tier(
    a: CSR,
    b: CSR,
    batch: str,
    *,
    crossover: int = DEFAULT_BATCH_CROSSOVER_FLOPS,
    per_row: Optional[np.ndarray] = None,
) -> str:
    """Resolve the ``batch`` knob: ``"auto"`` buckets exactly when the
    call's total upper-bound flops reach ``crossover`` — below it the fixed
    bucketing overhead (argsort, chunk bookkeeping) is not amortised."""
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
    """Contiguous ``(lo, hi)`` blocks whose flops fit the budget: each is the
    maximal prefix whose cumulative flops stay within it, with at least one
    row per block (a single over-budget row gets its own) — the greedy row
    walk, vectorized."""
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


def row_blocks(
    per_row: np.ndarray, flop_budget: int, max_width: Optional[int] = None
) -> Iterator[Tuple[None, np.ndarray]]:
    """:func:`plan_flop_blocks` as ``(None, rows)`` chunks — no bucket id —
    each split to at most ``max_width`` rows when a cap is given."""
    for lo, hi in plan_flop_blocks(per_row, flop_budget):
        width = max_width or hi - lo
        for sub in range(lo, hi, width):
            yield None, np.arange(sub, min(hi, sub + width), dtype=np.int64)


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
    A chunk's expansion stays within ``flop_budget`` (rows of bucket ``b``
    expand to < ``2**b`` products each) and it has at most ``width_cap``
    rows.  ``include_empty=False`` drops bucket 0 (zero-product rows).
    """
    ids = bucket_ids(per_row)
    if ids.size == 0:
        return
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
            yield b, rows[lo : lo + chunk]


def expand_keys(
    a: CSR, b: CSR, rows: np.ndarray, key_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Keys-only product expansion of a scattered row set.

    Returns ``(p_keys, p_bpos, a_pos, ends)``.  The first two have length
    ``flops(rows)``: ``p_keys`` is each product's flat output key
    ``key_rows[i] * ncols + col`` (``i`` the row's position within ``rows``
    — pass ``rows`` itself for global keys, an ``arange`` for chunk-local
    ones) and ``p_bpos`` its position in ``b.indices``/``b.data``.  The other
    two have one element per A-entry of ``rows``: ``a_pos`` its position in
    ``a.data`` and ``ends`` the running product count, so A-entry ``j``
    produced the products ``ends[j-1] <= p < ends[j]``.  Products are in the
    reference push kernels' order: by row (in ``rows`` order), then A-entry,
    then B-row order.  Values are left to :func:`product_values`.
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
    (ascending; the other arguments are :func:`expand_keys`'s) — elementwise,
    so bitwise what filtering an eager multiply gives.  Each A-entry's
    survivor count comes from a binary search of its product range's end in
    ``idx`` — one search per A-entry, not per product — and none at all when
    the multiply ignores its operands."""
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
    """Direct-to-CSR output assembly from exact per-row output sizes — the
    two-phase symbolic bound (the symbolic/numeric fusion) or the chunks' own
    row counts: the final ``indptr``/``indices``/``data`` are allocated up
    front and each output row is written in place, by exactly one call, its
    columns ascending — what the push frame produces, since every row lives
    in one chunk and a chunk's entries are row-major sorted."""

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


class Chunk:
    """One row chunk, as strategies, charges and recordings see it.

    Keys are chunk-local, ``local_row * ncols + col`` with ``local_row`` the
    row's position in ``rows``: ``m_keys`` (with ``m_local`` / ``m_cols``,
    ``nm`` of them) are the mask entries in CSR order — strictly ascending —
    and ``p_keys`` the ``products`` in expansion order.  ``bucket`` is the
    size class, ``None`` for a contiguous block.  The frame adds ``counts``
    (output entries per row) and ``out`` (their sum).
    """

    def __init__(self, bucket, rows, ncols, complement, semiring, m_local, m_cols,
                 m_keys, p_keys, expansion):
        self.bucket, self.rows, self.ncols = bucket, rows, ncols
        self.complement, self.semiring = complement, semiring
        self.m_local, self.m_cols, self.m_keys, self.p_keys = m_local, m_cols, m_keys, p_keys
        self.nm, self.products = int(m_keys.shape[0]), int(p_keys.shape[0])
        self._expansion = expansion

    def multiply(self, idx: np.ndarray) -> Optional[np.ndarray]:
        """Semiring products of the ``kept`` survivors, the ascending
        expansion positions ``idx`` — ``None`` in the frame's count-only mode
        (which only :class:`DenseRank` serves)."""
        self.kept = int(idx.shape[0])
        if self._expansion is not None:
            return product_values(self.semiring, *self._expansion, idx)


def record_mask_routing(pr, ch: Chunk) -> None:
    """Per row of a plain-mask chunk: how many mask positions became output
    (``mask.row_hits``) and how many stayed empty (``mask.row_misses``)."""
    if ch.rows.size:
        pr.hist("mask.row_hits").record_array(ch.counts)
        pr.hist("mask.row_misses").record_array(
            np.bincount(ch.m_local, minlength=ch.rows.size) - ch.counts
        )


def _member(m_keys: np.ndarray, p_keys: np.ndarray):
    """``(pos, found)``: each product key's clamped position among the sorted
    mask keys and whether it is one of them — the merge of a product against
    the mask row as a binary search."""
    if m_keys.shape[0] == 0 or p_keys.shape[0] == 0:
        return np.zeros(p_keys.shape[0], np.int64), np.zeros(p_keys.shape[0], bool)
    pos = np.minimum(np.searchsorted(m_keys, p_keys), m_keys.shape[0] - 1)
    return pos, m_keys.take(pos) == p_keys


# A strategy is called once per chunk with its arena leases (``leases``:
# ``(key, dtype, fill)`` each; it restores every cell it dirtied).  It picks
# the products that survive the mask, has the chunk multiply them and returns
# the chunk's output entries ``(local_row, col, value)`` in row-major order.


class DenseRank:
    """MSA (Algorithm 2): the accumulator's dense, column-addressed *lookup*,
    storing MCA-style (Section 5.4) the rank of each allowed cell instead of
    a state and a value.  ``1..nc`` is scattered into an int32 array at the
    chunk's ``nc`` allowed cells (set-allowed; 0 == NOTALLOWED); one gather
    at the product keys is both the mask test and the compression (insert);
    survivors are summed into ``nc``-long arrays and the SET cells — "count
    > 0", so a sum cancelling to 0.0 is emitted — leave in rank order, which
    is mask order (remove).  With a plain mask the allowed cells are the
    mask entries; with a complemented one, the cells some product lands on
    minus the mask entries: a bitmap scatter and one scan of the chunk's
    dense range, all SET by construction."""

    # both cover chunk_rows x ncols cells
    leases = (("msa.rank", np.int32, 0), ("msa.bitmap", np.bool_, False))

    def __call__(self, ch: Chunk, rank_lease, bitmap_lease):
        need = ch.rows.size * ch.ncols
        if ch.complement:
            nn = np.int64(ch.ncols)
            bitmap = bitmap_lease.require(need)
            bitmap[ch.p_keys] = True
            bitmap[ch.m_keys] = False  # mask entries are NOTALLOWED here
            cells = np.flatnonzero(bitmap)
            bitmap[cells] = False
            local = cells // nn
            cols = cells - local * nn
        else:
            cells, local, cols = ch.m_keys, ch.m_local, ch.m_cols
        nc = int(cells.shape[0])
        rank = rank_lease.require(need)
        rank[cells] = np.arange(1, nc + 1, dtype=np.int32)
        hit = rank.take(ch.p_keys)
        rank[cells] = 0
        idx = np.flatnonzero(hit != 0)  # nonzero() is fast on bool only
        r = hit.take(idx)
        vals = ch.multiply(idx)
        add, ident = ch.semiring.add_ufunc, ch.semiring.add_identity
        if vals is None:
            acc = None
        elif add is np.add and ident == 0:
            # sequential in product order: bit-identical to add.at
            acc = np.bincount(r, weights=vals, minlength=nc + 1)[1:]
        else:
            acc = np.full(nc + 1, ident, dtype=np.float64)
            add.at(acc, r, vals)
            acc = acc[1:]
        if ch.complement:
            return local, cols, acc
        emit = np.flatnonzero(np.bincount(r, minlength=nc + 1)[1:] != 0)
        return local.take(emit), cols.take(emit), None if acc is None else acc.take(emit)


class SortedRank:
    """MCA (Algorithm 3), and Hash under a plain mask: the compressed key of
    a mask nonzero is its *rank* among the chunk's (row-major, column-sorted)
    mask entries, found by binary search, so the working set is
    ``arange(nnz(mask chunk))`` — proportional to the mask, never to
    ``ncols``.  Survivors accumulate with ``add.at`` into two mask-indexed
    arrays whose arena keys ``name`` prefixes.  There are no slots for
    out-of-mask cells: plain masks only.  ``on_lookup(chunk, pos, found)``
    sees the membership test of every chunk that has mask entries."""

    def __init__(self, name: str, semiring: Semiring, on_lookup: Optional[Callable] = None):
        ident = semiring.add_identity
        self.leases = (((name + ".vals", float(ident)), np.float64, ident),
                       (name + ".set", np.bool_, False))
        self.on_lookup = on_lookup

    def __call__(self, ch: Chunk, vals_lease, set_lease):
        pos, found = _member(ch.m_keys, ch.p_keys)
        if ch.nm and self.on_lookup is not None:
            self.on_lookup(ch, pos, found)
        idx = np.flatnonzero(found)
        r = pos.take(idx)
        vals = ch.multiply(idx)
        is_set = set_lease.require(ch.nm)
        is_set[r] = True
        emit = np.flatnonzero(is_set)
        is_set[r] = False
        acc = vals_lease.require(ch.nm)
        ch.semiring.add_ufunc.at(acc, r, vals)
        vals = acc.take(emit)
        acc[r] = ch.semiring.add_identity
        return ch.m_local.take(emit), ch.m_cols.take(emit), vals


class SortCompress:
    """ESC, and Hash under a complemented mask (its output cells have no slot
    among the mask's): the accumulator is the sort.  The mask is applied
    between expand and multiply, so only surviving products are multiplied,
    stably sorted by key — each cell's products stay in expansion order —
    and compressed with ``reduceat``.  ``on_lookup`` as for
    :class:`SortedRank`, for every chunk."""

    # fully overwritten before it is read: leased uninitialised, never reset
    leases = (("esc.boundary", np.bool_, None),)

    def __init__(self, on_lookup: Optional[Callable] = None):
        self.on_lookup = on_lookup

    def __call__(self, ch: Chunk, boundary_lease):
        pos, found = _member(ch.m_keys, ch.p_keys)
        if self.on_lookup is not None:
            self.on_lookup(ch, pos, found)
        idx = np.flatnonzero(~found if ch.complement else found)
        vals = ch.multiply(idx)
        if idx.shape[0] == 0:
            return idx, idx, vals
        keys = ch.p_keys.take(idx)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        boundary = boundary_lease.require(keys.shape[0])
        boundary[0] = True
        np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        heads = keys[starts]
        local = heads // np.int64(ch.ncols)
        vals = np.asarray(
            ch.semiring.add_ufunc.reduceat(vals[order], starts), dtype=np.float64
        )
        return local, heads - local * np.int64(ch.ncols), vals


def push_product(
    a: CSR,
    b: CSR,
    mask: CSR,
    strategy,
    *,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    flop_budget: int,
    dense_budget: Optional[int] = None,
    batch: str = "auto",
    row_nnz: Optional[np.ndarray] = None,
    charge: Optional[Callable] = None,
    record: Optional[Callable] = None,
    count_only: bool = False,
):
    """``M .* (A @ B)`` (``!M`` with ``complement``) through ``strategy`` —
    see the module docs.  Chunks expand to at most ``flop_budget`` products
    (a single larger row gets its own) and address at most ``dense_budget``
    cells of the chunk's ``rows x ncols`` dense range (at least one row).
    ``charge(counter, chunk)`` / ``record(probes, chunk)`` run per chunk when
    a counter / a probe registry is there.  Returns the CSR, or with
    ``count_only`` (no multiply, no value accumulation) each row's output
    size."""
    a = a.sort_indices()
    b = b.sort_indices()
    mask = mask.sort_indices()
    n = b.ncols
    nn = np.int64(n)
    max_width = None if dense_budget is None else max(1, dense_budget // max(1, n))
    per_row = per_row_flops(a, b)
    tier = resolve_tier(a, b, batch, per_row=per_row)
    # a kernel's span shows what "auto" became and, nested, its bucket
    # chunks; the count-only pass is no kernel and leaves no trace
    tr = None if count_only else _obs.current()
    if tr is not None and tier != batch:
        _obs.annotate(batch=tier)
    if tier == "bucket":
        chunks = bucket_batches(per_row, flop_budget, width_cap=max_width)
    else:
        chunks = row_blocks(per_row, flop_budget, max_width)
    pr = _probes._INSTALLED  # one read; recordings below are per chunk
    slab = FusedSlab((a.nrows, n), row_nnz) if row_nnz is not None else None
    counts_of = np.zeros(a.nrows, dtype=np.int64)
    finished = []  # 1P: (rows, counts, cols, vals) per chunk, placed at the end

    # an exception mid-chunk discards the leased buffers instead of
    # returning them dirty
    with ExitStack() as stack:
        arena = get_arena()
        leases = [stack.enter_context(arena.lease(*spec)) for spec in strategy.leases]
        for bucket, rows in chunks:
            with _obs.NULL_SPAN if tr is None or bucket is None else tr.span(
                "kernel.bucket",
                {"bucket": bucket, "rows": int(rows.size), "flops": int(per_row[rows].sum())},
            ):
                m_pos, m_local = rows_entries(mask.indptr, rows)
                m_cols = mask.indices.take(m_pos)
                p_keys, p_bpos, a_pos, ends = expand_keys(
                    a, b, rows, np.arange(rows.size, dtype=np.int64)
                )
                ch = Chunk(bucket, rows, n, complement, semiring, m_local, m_cols,
                           m_local * nn + m_cols, p_keys,
                           None if count_only else (a, b, a_pos, ends, p_bpos))
                local, cols, vals = strategy(ch, *leases)
                ch.counts = counts = np.bincount(local, minlength=rows.size)
                ch.out = int(cols.shape[0])
                if counter is not None and charge is not None:
                    charge(counter, ch)
                if pr is not None and record is not None:
                    record(pr, ch)
                if slab is not None:
                    slab.write_rows(rows, counts, cols, vals)
                else:
                    counts_of[rows] = counts
                    if not count_only:
                        finished.append((rows, counts, cols, vals))

    if count_only:
        return counts_of
    if slab is None:
        # every output row belongs to exactly one chunk, so the row counts
        # fix the final layout: no sort, no duplicate scan
        slab = FusedSlab((a.nrows, n), counts_of)
        if finished:
            slab.write_rows(*map(np.concatenate, zip(*finished)))
    c = slab.finish()
    if counter is not None:
        counter.output_nnz += c.nnz
    return c
