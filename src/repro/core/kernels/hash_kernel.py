"""Vectorized Hash kernel.

The fast counterpart of the Section-5.3 algorithm: a single open-addressing
hash table (linear probing, power-of-two capacity, load factor <= 0.25,
multiplicative hashing) keyed by the flat output position
``row * ncols + col``.  All three interface steps are executed as *batched*
probe rounds:

1. ``set_allowed`` — batch-insert the mask keys (builds the key set; a key
   that collides probes to the next slot, resolved round by round),
2. ``insert`` — batch-lookup every product key; products whose key is absent
   from the table are masked out and skipped *before* any multiply-add, the
   rest accumulate into the table's value slots via ``add_ufunc.at``,
3. ``remove`` — lookup the mask keys again and emit the SET ones in mask
   order (sorted output, like the reference).

Each probe round advances only the still-colliding lanes, so the number of
rounds equals the longest probe chain — the vector analogue of linear
probing.  Probe counts are recorded in the counter like the scalar version.

For complemented masks the membership test flips: mask keys are inserted as
"forbidden" and products found in the table are dropped; surviving products
are then sort-reduced (they have no compact table to live in, matching the
scalar HashComplement whose table is sized by the row-output bound).

The bucketed tier (``batch="bucket"``) keeps the *same* flop-budget row
blocks — the hash table's geometry, and therefore its probe accounting, is
per block, so changing the blocking would change ``hash_probes`` — but
replaces the round-by-round product lookup with a binary search into the
block's sorted mask keys plus *arithmetic* probe reconstruction: under
linear probing, a present key's chain length is its slot's displacement
from the hash home (``((slot - h) & mask) + 1``) and an absent key's chain
runs to the first empty slot at/after its home.  Both are exact, so the
probe counter and chain histogram stay bit-for-bit identical to the
per-key walk.  When neither a counter nor probes are installed there is
nothing to certify and the bucketed tier skips the hash table entirely,
accumulating straight into mask-entry-indexed scratch.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...machine import OpCounter
from ...observe import probes as _probes
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSR
from .arena import get_arena
from .batch import FusedSlab, expand_keys, product_values, resolve_tier
from .expand import DEFAULT_FLOP_BUDGET, expand_products, iter_row_blocks, row_keys

__all__ = ["masked_spgemm_hash_fast", "VectorHashTable"]

_HASH_SCAL = np.int64(0x9E3779B1)
_EMPTY = np.int64(-1)


class VectorHashTable:
    """Batched open-addressing hash set/map over int64 keys.

    ``keys_lease`` optionally supplies the backing key array from a scratch
    arena lease (all-``_EMPTY`` per the arena's fill invariant); the caller
    is then responsible for resetting the occupied slots afterwards.  Every
    slot :meth:`insert` writes ends up as some key's returned slot, so
    clearing the returned slots restores the all-empty state exactly.
    """

    def __init__(
        self,
        max_keys: int,
        counter: Optional[OpCounter] = None,
        *,
        keys_lease=None,
        chain_hist=None,
    ):
        need = max(4, int(max_keys) * 4)  # load factor 0.25
        cap = 1 << (need - 1).bit_length()
        self.cap = cap
        self.mask = np.int64(cap - 1)
        if keys_lease is not None:
            self.keys = keys_lease.require(cap)
        else:
            self.keys = np.full(cap, _EMPTY, dtype=np.int64)
        self.counter = counter
        #: probe-chain length histogram (repro.observe.probes).  A key that
        #: resolves in round r consumed exactly r probes, so summing chain
        #: lengths over keys reproduces ``OpCounter.hash_probes`` exactly.
        self.chain_hist = chain_hist

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        return (keys * _HASH_SCAL) & self.mask

    def insert(self, keys: np.ndarray) -> np.ndarray:
        """Insert unique ``keys``; returns the slot of each key.  Batched
        linear probing: every round scatters the pending keys into their
        current slot and keeps the lanes that lost the race or collided."""
        slots = np.empty(keys.shape[0], dtype=np.int64)
        pend = np.arange(keys.shape[0], dtype=np.int64)
        pos = self._hash(keys)
        rounds = 0
        while pend.shape[0]:
            rounds += 1
            if self.counter is not None:
                self.counter.hash_probes += int(pend.shape[0])
            p = pos[pend]
            occupant = self.keys[p]
            free = occupant == _EMPTY
            # try to claim free slots; ties between equal positions resolved
            # by the last writer, then verified by re-reading
            claim = pend[free]
            self.keys[p[free]] = keys[claim]
            won = self.keys[p] == keys[pend]
            slots[pend[won]] = p[won]
            before = pend.shape[0]
            pend = pend[~won]
            if self.chain_hist is not None:
                # lanes resolved this round = pending-set shrinkage: no extra
                # reduction on the hot path, the shapes are already known
                self.chain_hist.record(rounds, before - pend.shape[0])
            pos[pend] = (pos[pend] + 1) & self.mask
        return slots

    def lookup(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(found, slot)`` for each key (slot valid where found)."""
        found = np.zeros(keys.shape[0], dtype=bool)
        slots = np.full(keys.shape[0], -1, dtype=np.int64)
        pend = np.arange(keys.shape[0], dtype=np.int64)
        pos = self._hash(keys)
        rounds = 0
        while pend.shape[0]:
            rounds += 1
            if self.counter is not None:
                self.counter.hash_probes += int(pend.shape[0])
            p = pos[pend]
            occupant = self.keys[p]
            hit = occupant == keys[pend]
            miss = occupant == _EMPTY
            slots[pend[hit]] = p[hit]
            found[pend[hit]] = True
            cont = ~(hit | miss)
            before = pend.shape[0]
            pend = pend[cont]
            if self.chain_hist is not None:
                self.chain_hist.record(rounds, before - pend.shape[0])
            pos[pend] = (pos[pend] + 1) & self.mask
        return found, slots


def _sort_reduce(keys, vals, semiring):
    """Group-by-key reduction with the semiring's add (sorted output)."""
    if keys.shape[0] == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    boundary = np.empty(keys.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(boundary)
    red = semiring.add_ufunc.reduceat(vals, starts)
    return keys[starts], np.asarray(red, dtype=np.float64)


@traced_kernel("hash")
def masked_spgemm_hash_fast(
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
    """Vectorized Hash masked SpGEMM (see module docs).

    ``batch`` selects the batching tier (``"auto"`` | ``"bucket"`` |
    ``"perrow"``); ``row_nnz`` optionally carries the exact two-phase
    symbolic bound, enabling fused direct-to-CSR output on the bucketed
    tier (ignored on the per-row tier).
    """
    a = a.sort_indices()
    b = b.sort_indices()
    mask = mask.sort_indices()
    if resolve_tier(a, b, batch) == "bucket":
        return _hash_batched(
            a, b, mask, complement=complement, semiring=semiring,
            counter=counter, flop_budget=flop_budget, row_nnz=row_nnz,
        )
    n = b.ncols
    ident = semiring.add_identity
    add_at = semiring.add_ufunc.at

    out_rows = []
    out_cols = []
    out_vals = []

    # micro-telemetry: one module-attribute read; everything below records
    # per *block*, so the enabled path stays off the per-element hot loop
    pr = _probes._INSTALLED
    chain_hist = pr.hist("hash.probe_chain") if pr is not None else None

    # table scratch leased from the arena: the key/value/set arrays stay hot
    # across blocks *and* across calls; each block resets exactly the slots
    # it occupied (all writes land in m_slots — see VectorHashTable docs)
    arena = get_arena()
    with arena.lease("hash.keys", np.int64, _EMPTY) as keys_lease, \
            arena.lease(("hash.vals", float(ident)), np.float64, ident) as vals_lease, \
            arena.lease("hash.set", np.bool_, False) as set_lease:
        for lo, hi in iter_row_blocks(a, b, flop_budget):
            mlo, mhi = int(mask.indptr[lo]), int(mask.indptr[hi])
            m_rows = np.repeat(
                np.arange(lo, hi, dtype=np.int64), np.diff(mask.indptr[lo : hi + 1])
            )
            m_cols = mask.indices[mlo:mhi]
            m_keys = row_keys(m_rows, m_cols, n)
            prod_rows, prod_cols, prod_vals = expand_products(a, b, lo, hi, semiring)
            p_keys = row_keys(prod_rows, prod_cols, n)
            if counter is not None:
                counter.accum_allowed += int(m_keys.shape[0])
                counter.accum_inserts += int(p_keys.shape[0])

            if m_keys.shape[0] == 0 and not complement:
                continue
            table = VectorHashTable(
                max(1, m_keys.shape[0]), counter, keys_lease=keys_lease,
                chain_hist=chain_hist,
            )
            m_slots = (
                table.insert(m_keys) if m_keys.shape[0] else np.empty(0, np.int64)
            )
            if pr is not None:
                # realized load factor, in percent (sized for <= 25%)
                pr.hist("hash.load_factor_pct").record(
                    int(100 * m_keys.shape[0] // table.cap)
                )

            if complement:
                found, _ = table.lookup(p_keys) if p_keys.shape[0] else (
                    np.empty(0, bool),
                    None,
                )
                keep = ~found
                keys, vals = _sort_reduce(p_keys[keep], prod_vals[keep], semiring)
                if counter is not None:
                    counter.flops += int(keep.sum())
                    counter.accum_removes += int(keys.shape[0])
                out_rows.append(keys // n)
                out_cols.append(keys % n)
                out_vals.append(vals)
                table.keys[m_slots] = _EMPTY
            else:
                vals_tab = vals_lease.require(table.cap)
                set_tab = set_lease.require(table.cap)
                if p_keys.shape[0]:
                    found, slots = table.lookup(p_keys)
                    kept = slots[found]
                    add_at(vals_tab, kept, prod_vals[found])
                    set_tab[kept] = True
                    if counter is not None:
                        counter.flops += int(found.sum())
                emit = set_tab[m_slots]
                if counter is not None:
                    counter.accum_removes += int(m_slots.shape[0])
                if pr is not None and hi > lo:
                    # mask routing per row: how many mask positions became
                    # output (hits) vs stayed empty (misses)
                    hits = np.bincount(m_rows[emit] - lo, minlength=hi - lo)
                    pr.hist("mask.row_hits").record_array(hits)
                    pr.hist("mask.row_misses").record_array(
                        np.bincount(m_rows - lo, minlength=hi - lo) - hits
                    )
                out_rows.append(m_rows[emit])
                out_cols.append(m_cols[emit])
                out_vals.append(vals_tab[m_slots[emit]])
                # dirty-slot reset: every touched slot is in m_slots
                vals_tab[m_slots] = ident
                set_tab[m_slots] = False
                table.keys[m_slots] = _EMPTY

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


def _lookup_probes(table, m_slots, p_keys, idxc, found):
    """Exact probe-chain length each product lookup *would* have walked.

    Linear probing with no deletions makes chains arithmetic: a present key
    inserted from home ``h`` into ``slot`` walked ``((slot - h) & mask) + 1``
    slots, and every one of those slots is still occupied at lookup time, so
    the lookup walks the same chain.  An absent key walks from its home to
    the first empty slot (inclusive); with the empty slots as a sorted array
    that is a binary search with wraparound.  Must run *before* any slot
    resets.
    """
    h = (p_keys * _HASH_SCAL) & table.mask
    probes = np.empty(p_keys.shape[0], dtype=np.int64)
    if m_slots.shape[0]:
        probes[found] = ((m_slots[idxc[found]] - h[found]) & table.mask) + 1
    absent = ~found
    if absent.any():
        empties = np.flatnonzero(table.keys == _EMPTY)
        ha = h[absent]
        e = np.searchsorted(empties, ha)
        nxt = empties[np.minimum(e, empties.shape[0] - 1)]
        nxt = np.where(e == empties.shape[0], empties[0] + table.cap, nxt)
        probes[absent] = nxt - ha + 1
    return probes


def _hash_batched(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool,
    semiring: Semiring,
    counter: Optional[OpCounter],
    flop_budget: int,
    row_nnz: Optional[np.ndarray],
) -> CSR:
    """The bucketed tier (see module docs): identical blocks, searchsorted
    membership, arithmetic probe certification, optional fused output."""
    n = b.ncols
    ident = semiring.add_identity
    add_ufunc = semiring.add_ufunc
    pr = _probes._INSTALLED
    chain_hist = pr.hist("hash.probe_chain") if pr is not None else None
    # with neither a counter nor probes installed there is nothing the hash
    # table certifies — membership comes from searchsorted either way
    need_cert = counter is not None or pr is not None

    out_rows = []
    out_cols = []
    out_vals = []
    slab = FusedSlab((a.nrows, n), row_nnz) if row_nnz is not None else None

    arena = get_arena()
    with arena.lease("hash.keys", np.int64, _EMPTY) as keys_lease, \
            arena.lease(("hash.vals", float(ident)), np.float64, ident) as vals_lease, \
            arena.lease("hash.set", np.bool_, False) as set_lease:
        for lo, hi in iter_row_blocks(a, b, flop_budget):
            mlo, mhi = int(mask.indptr[lo]), int(mask.indptr[hi])
            m_rows = np.repeat(
                np.arange(lo, hi, dtype=np.int64), np.diff(mask.indptr[lo : hi + 1])
            )
            m_cols = mask.indices[mlo:mhi]
            m_keys = row_keys(m_rows, m_cols, n)
            nm = int(m_keys.shape[0])
            block = np.arange(lo, hi, dtype=np.int64)
            p_keys, p_bpos, a_pos, ends = expand_keys(a, b, block, block)
            np_ = int(p_keys.shape[0])
            if counter is not None:
                counter.accum_allowed += nm
                counter.accum_inserts += np_

            if nm == 0 and not complement:
                continue
            table = None
            m_slots = np.empty(0, dtype=np.int64)
            if need_cert:
                table = VectorHashTable(
                    max(1, nm), counter, keys_lease=keys_lease,
                    chain_hist=chain_hist,
                )
                if nm:
                    m_slots = table.insert(m_keys)
                if pr is not None:
                    pr.hist("hash.load_factor_pct").record(
                        int(100 * nm // table.cap)
                    )

            # membership: m_keys is strictly ascending (CSR order), so a
            # binary search replaces the per-key probe walk
            if nm and np_:
                idx = np.searchsorted(m_keys, p_keys)
                idxc = np.minimum(idx, nm - 1)
                found = m_keys[idxc] == p_keys
            else:
                idxc = np.empty(np_, dtype=np.int64)
                found = np.zeros(np_, dtype=bool)
            if table is not None and np_:
                probes = _lookup_probes(table, m_slots, p_keys, idxc, found)
                if counter is not None:
                    counter.hash_probes += int(probes.sum())
                if chain_hist is not None:
                    chain_hist.record_array(probes)

            if complement:
                keep = np.flatnonzero(~found)
                vals_kept = product_values(
                    semiring, a, b, a_pos, ends, p_bpos, keep
                )
                keys, vals = _sort_reduce(p_keys[keep], vals_kept, semiring)
                if counter is not None:
                    counter.flops += int(keep.shape[0])
                    counter.accum_removes += int(keys.shape[0])
                g_rows, g_cols, g_vals = keys // n, keys % n, vals
                if table is not None:
                    table.keys[m_slots] = _EMPTY
            else:
                vals_m = vals_lease.require(max(1, nm))
                set_m = set_lease.require(max(1, nm))
                kept_idx = idxc[found]
                vals_kept = product_values(
                    semiring, a, b, a_pos, ends, p_bpos, np.flatnonzero(found)
                )
                add_ufunc.at(vals_m, kept_idx, vals_kept)
                set_m[kept_idx] = True
                if counter is not None:
                    counter.flops += int(found.sum())
                    counter.accum_removes += nm
                emit = set_m[:nm].copy()
                if pr is not None and hi > lo:
                    hits = np.bincount(m_rows[emit] - lo, minlength=hi - lo)
                    pr.hist("mask.row_hits").record_array(hits)
                    pr.hist("mask.row_misses").record_array(
                        np.bincount(m_rows - lo, minlength=hi - lo) - hits
                    )
                g_rows = m_rows[emit]
                g_cols = m_cols[emit]
                g_vals = vals_m[:nm][emit]
                # dirty-cell reset restores the leases' fill invariant
                vals_m[kept_idx] = ident
                set_m[kept_idx] = False
                if table is not None:
                    table.keys[m_slots] = _EMPTY

            if slab is not None:
                slab.write(g_rows, g_cols, g_vals)
            elif g_rows.shape[0]:
                out_rows.append(g_rows)
                out_cols.append(g_cols)
                out_vals.append(g_vals)

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
