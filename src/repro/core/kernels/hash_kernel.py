"""Vectorized Hash kernel.

The fast counterpart of the Section-5.3 algorithm: a single open-addressing
hash table (linear probing, power-of-two capacity, load factor <= 0.25,
multiplicative hashing) keyed by the flat output position
``row * ncols + col``, one table per contiguous flop-budget row block.

The *values* do not need the table.  A block's mask keys are strictly
ascending (CSR order), so membership is a binary search and the push frame
(:mod:`repro.core.kernels.batch`) accumulates as MCA does under a plain mask
(``SortedRank``) and as ESC does under a complemented one (``SortCompress``:
the scalar HashComplement sizes its table by the row-output bound; here the
surviving products are sort-reduced).

The table is for the *cost*: ``OpCounter.hash_probes``.  When a counter
asks, each block's :class:`VectorHashTable` is built by
batched probe rounds (each round advances only the still-colliding lanes, so
the number of rounds equals the longest chain) and every product lookup's
chain length is reconstructed *arithmetically* (:func:`_lookup_chains`) —
exactly; :meth:`VectorHashTable.lookup` is the per-key walk it is tested
against.  The table's geometry, and so its probe accounting, is per block:
the blocks are the same under every ``batch=`` spelling.  With nobody asking
no table is built and the blocks are capped at ``FINE_FLOP_BUDGET`` products
— same bytes, and a counted call (what every ``OpCounter``-carrying timing of
this kernel measures) is 1.7-2.5x slower: ``docs/kernels.md``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...machine import OpCounter
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSR
from .arena import get_arena
from .batch import BATCH_TIERS, Chunk, SortCompress, SortedRank, push_product
from .expand import DEFAULT_FLOP_BUDGET, FINE_FLOP_BUDGET

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

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        return (keys * _HASH_SCAL) & self.mask

    def _probe(self, keys: np.ndarray, claim: bool) -> np.ndarray:
        """Batched linear probing: every round looks at each pending key's
        current slot — with ``claim`` first scattering the keys that found it
        free (ties between equal positions go to the last writer, verified
        by the re-read) — and keeps the lanes that collided.  Returns each
        key's slot, ``-1`` where an absent key met an empty slot."""
        slots = np.full(keys.shape[0], -1, dtype=np.int64)
        pend = np.arange(keys.shape[0], dtype=np.int64)
        pos = self._hash(keys)
        while pend.shape[0]:
            if self.counter is not None:
                self.counter.hash_probes += int(pend.shape[0])
            p = pos[pend]
            if claim:
                free = self.keys[p] == _EMPTY
                self.keys[p[free]] = keys[pend[free]]
            occupant = self.keys[p]
            hit = occupant == keys[pend]
            slots[pend[hit]] = p[hit]
            pend = pend[~(hit | (occupant == _EMPTY))]
            pos[pend] = (pos[pend] + 1) & self.mask
        return slots

    def insert(self, keys: np.ndarray) -> np.ndarray:
        """Insert unique ``keys``; returns the slot of each key."""
        return self._probe(keys, claim=True)

    def lookup(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(found, slot)`` for each key (slot valid where found)."""
        slots = self._probe(keys, claim=False)
        return slots >= 0, slots


def _lookup_chains(table, m_keys, m_slots, p_keys, pos, found):
    """``lengths[c]``: how many of the product lookups *would* have walked a
    probe chain of exactly ``c`` slots.

    Linear probing with no deletions makes chains arithmetic: a present key
    inserted from home ``h`` into ``slot`` walked ``((slot - h) & mask) + 1``
    slots, and every one of those slots is still occupied at lookup time, so
    the lookup walks the same chain.  An absent key walks from its home to
    the first empty slot (inclusive): a reverse running minimum over the
    table gives every slot's next empty one, wrapping past the end to the
    table's first.  A chain is thus a property of the mask key found or else
    of the home slot, so the lookups are only *counted* per mask key and per
    home slot; everything else is table-sized.  Must run *before* any slot
    resets.
    """
    nm, cap = m_keys.shape[0], table.cap
    hm = table._hash(m_keys)
    hits = np.bincount(pos, weights=found, minlength=nm)[:nm]
    # lookups per home slot, less those that found their key: the absent ones
    absent = np.bincount(table._hash(p_keys), minlength=cap) \
        - np.bincount(hm, weights=hits, minlength=cap)
    empty = table.keys == _EMPTY  # load factor <= 0.25: there is one
    nxt = np.where(empty, np.arange(cap), cap + int(empty.argmax()))
    nxt = np.minimum.accumulate(nxt[::-1])[::-1]
    chains = np.concatenate((((m_slots - hm) & table.mask) + 1, nxt - np.arange(cap) + 1))
    return np.bincount(chains, weights=np.concatenate((hits, absent))).astype(np.int64)


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

    ``batch`` is validated and otherwise a no-op (the blocks are contiguous
    under every spelling, of at most ``flop_budget`` products — and at most
    ``FINE_FLOP_BUDGET`` when no table is built, see the module docs);
    ``row_nnz`` optionally carries the exact two-phase symbolic bound, so
    finished rows are written straight into the final CSR arrays and
    checked against it.
    """
    if batch not in BATCH_TIERS:
        raise ValueError(f"batch must be one of {BATCH_TIERS}, got {batch!r}")

    def certify(ch: Chunk, pos, found) -> None:
        # the table hashes the flat output position; blocks are contiguous,
        # so that is the chunk-local key plus the first row's offset
        base = ch.rows[0] * np.int64(ch.ncols)
        m_keys = ch.m_keys + base
        table = VectorHashTable(max(1, ch.nm), counter, keys_lease=keys_lease)
        m_slots = table.insert(m_keys)
        if ch.products:
            lengths = _lookup_chains(table, m_keys, m_slots, ch.p_keys + base, pos, found)
            counter.hash_probes += int(lengths @ np.arange(lengths.shape[0]))
        # every slot insert() wrote is some key's returned slot
        table.keys[m_slots] = _EMPTY

    # with no counter there is nothing the hash table certifies — membership
    # is a binary search either way — and nothing ties the blocks to the
    # table's geometry: they are cut cache-sized
    on_lookup = certify if counter is not None else None
    if on_lookup is None:
        flop_budget = min(flop_budget, FINE_FLOP_BUDGET)
    with get_arena().lease("hash.keys", np.int64, _EMPTY) as keys_lease:
        return push_product(
            a, b, mask,
            SortCompress(on_lookup) if complement else SortedRank("hash", semiring, on_lookup),
            complement=complement, semiring=semiring, counter=counter,
            flop_budget=flop_budget, batch="perrow", row_nnz=row_nnz,
            charge=_charge,
        )


def _charge(counter: OpCounter, ch: Chunk) -> None:
    counter.accum_allowed += ch.nm
    counter.accum_inserts += ch.products
    counter.flops += ch.kept
    counter.accum_removes += ch.out if ch.complement else ch.nm

