"""Hash accumulator — paper Section 5.3.

Same automaton as the MSA but stored in an open-addressing hash table with
linear probing, so the working set is proportional to ``nnz(m)`` instead of
``ncols`` and fits in L1/L2.  Per the paper:

* value and state live together in one table entry (one cache line touch per
  operation),
* no resizing — the table is sized once from ``nnz(m)`` (the row's mask
  nonzero count), since no more than that many keys can ever be allowed,
* load factor 0.25 to keep probe chains short.

The complemented variant cannot size the table from the mask (any column
outside the mask may be inserted), so it sizes from an upper bound on the
row's unmasked output and marks mask keys NOTALLOWED — which also take a
slot each: the caller sizes for both where the bound's table cannot hold
them (``masked_spgemm_reference``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import ALLOWED, NOTALLOWED, SET, MaskedAccumulator, ValueLike, resolve_value

__all__ = ["HashAccumulator", "HashComplement", "LOAD_FACTOR"]

LOAD_FACTOR = 0.25
EMPTY = -1

# Knuth multiplicative hashing constant (same family as the C++ original).
_HASH_SCAL = 0x9E3779B1


def table_capacity(max_keys: int, load_factor: float = LOAD_FACTOR) -> int:
    """Power-of-two capacity holding ``max_keys`` at the given load factor."""
    need = max(1, int(np.ceil(max(1, max_keys) / load_factor)))
    return 1 << (need - 1).bit_length()


class _OpenAddressTable:
    """Open addressing, linear probing, no deletion (rows reset wholesale)."""

    __slots__ = ("cap", "mask", "keys", "vals", "states", "used", "counter",
                 "default_state")

    def __init__(self, cap: int, add_identity: float, counter, default_state: int = NOTALLOWED):
        self.cap = cap
        self.mask = cap - 1
        self.keys = np.full(cap, EMPTY, dtype=np.int64)
        self.vals = np.full(cap, add_identity, dtype=np.float64)
        self.states = np.full(cap, default_state, dtype=np.int8)
        self.used: List[int] = []
        self.counter = counter
        self.default_state = default_state

    def slot(self, key: int, *, create: bool) -> int:
        """Probe for ``key``; returns the slot index, or -1 if absent and
        ``create`` is False.  Counts probes."""
        i = (key * _HASH_SCAL) & self.mask
        # at most ``cap`` probes: a full table has no EMPTY slot to stop at
        for _ in range(self.cap):
            self.counter.hash_probes += 1
            k = self.keys[i]
            if k == key:
                return i
            if k == EMPTY:
                if not create:
                    return -1
                self.keys[i] = key
                self.used.append(i)
                return i
            i = (i + 1) & self.mask
        if create:
            raise RuntimeError("hash accumulator over capacity")
        return -1


class HashAccumulator(MaskedAccumulator):
    """Masked hash accumulator sized by the row's mask nonzero count."""

    def __init__(self, max_keys: int, add, add_identity: float = 0.0, counter=None):
        super().__init__(add, add_identity, counter)
        cap = table_capacity(max_keys)
        self._t = _OpenAddressTable(cap, add_identity, self.counter)
        self.counter.accum_init += cap

    @property
    def capacity(self) -> int:
        return self._t.cap

    def set_allowed(self, key: int) -> None:
        self.counter.accum_allowed += 1
        t = self._t
        i = t.slot(key, create=True)
        if t.states[i] == NOTALLOWED:
            t.states[i] = ALLOWED

    def insert(self, key: int, value: ValueLike) -> None:
        self.counter.accum_inserts += 1
        t = self._t
        i = t.slot(key, create=False)
        if i < 0 or t.states[i] == NOTALLOWED:
            return  # masked out; lambda never evaluated
        self.counter.flops += 1
        if t.states[i] == ALLOWED:
            t.states[i] = SET
            t.vals[i] = resolve_value(value)
        else:
            t.vals[i] = self.add(t.vals[i], resolve_value(value))

    def remove(self, key: int) -> Optional[float]:
        self.counter.accum_removes += 1
        t = self._t
        i = t.slot(key, create=False)
        if i < 0:
            return None
        if t.states[i] != SET:
            # REMOVE restores the default state even for never-inserted
            # keys (same contract as the MSA)
            t.states[i] = NOTALLOWED
            return None
        t.states[i] = NOTALLOWED  # key slot stays resident; freed on reset
        v = float(t.vals[i])
        t.vals[i] = self.add_identity
        return v

    def reset(self) -> None:
        t = self._t
        for i in t.used:
            t.keys[i] = EMPTY
            t.states[i] = NOTALLOWED
            t.vals[i] = self.add_identity
            self.counter.spa_resets += 1
        t.used.clear()


class HashComplement(MaskedAccumulator):
    """Hash accumulator for complemented masks.

    Mask keys are registered as NOTALLOWED; unknown keys default to ALLOWED
    (they are created on first insert).  An inserted-slot list supports
    gathering without scanning the table.
    """

    supports_complement = True

    def __init__(self, max_keys: int, add, add_identity: float = 0.0, counter=None):
        super().__init__(add, add_identity, counter)
        cap = table_capacity(max_keys)
        self._t = _OpenAddressTable(cap, add_identity, self.counter, default_state=ALLOWED)
        self._inserted: List[int] = []
        self.counter.accum_init += cap

    @property
    def capacity(self) -> int:
        return self._t.cap

    def set_allowed(self, key: int) -> None:  # pragma: no cover - not used
        raise NotImplementedError("complemented hash marks keys NOT allowed")

    def set_not_allowed(self, key: int) -> None:
        self.counter.accum_allowed += 1
        t = self._t
        i = t.slot(key, create=True)
        # only ALLOWED -> NOTALLOWED; a SET key keeps its accumulated value
        # (same automaton as the MSA: NOTALLOWED never follows SET)
        if t.states[i] == ALLOWED:
            t.states[i] = NOTALLOWED

    def insert(self, key: int, value: ValueLike) -> None:
        self.counter.accum_inserts += 1
        t = self._t
        i = t.slot(key, create=True)
        st = t.states[i]
        if st == NOTALLOWED:
            return
        self.counter.flops += 1
        if st == ALLOWED:  # first value for this key
            t.states[i] = SET
            t.vals[i] = resolve_value(value)
            self._inserted.append(key)
        else:  # SET: accumulate
            t.vals[i] = self.add(t.vals[i], resolve_value(value))

    def remove(self, key: int) -> Optional[float]:
        self.counter.accum_removes += 1
        t = self._t
        i = t.slot(key, create=False)
        if i < 0 or t.states[i] != SET:
            return None
        t.states[i] = ALLOWED
        v = float(t.vals[i])
        t.vals[i] = self.add_identity
        return v

    def inserted_keys(self) -> List[int]:
        return self._inserted

    def reset(self) -> None:
        t = self._t
        for i in t.used:
            t.keys[i] = EMPTY
            t.states[i] = t.default_state
            t.vals[i] = self.add_identity
            self.counter.spa_resets += 1
        t.used.clear()
        self._inserted.clear()
