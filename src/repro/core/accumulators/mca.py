"""Mask Compressed Accumulator (MCA) — paper Section 5.4, Figures 5-6.

The novel accumulator of the paper.  Observation: an output row can never
hold more entries than the mask row has nonzeros, so the accumulator arrays
can be sized ``nnz(m)`` instead of ``ncols``.  Keys are *not* column indices
but the **rank** of the mask nonzero — "the number of nonzero elements in m
with column index smaller than j" — which the row-wise merge of Algorithm 3
produces for free when both the mask and the B rows are sorted.

Because every representable key is, by construction, present in the mask,
only two states are needed: ALLOWED (default) and SET (Figure 5); there is
no NOTALLOWED state and hence no ``set_allowed`` work at all.

MCA cannot express a complemented mask (the compressed index space only
covers mask positions), which is why the paper omits it from the
Betweenness Centrality benchmark (Section 8.4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import ALLOWED, SET, MaskedAccumulator, ValueLike, resolve_value

__all__ = ["MCA"]


class MCA(MaskedAccumulator):
    """Compressed accumulator indexed by mask-nonzero rank."""

    supports_complement = False

    def __init__(self, max_keys: int, add, add_identity: float = 0.0, counter=None):
        super().__init__(add, add_identity, counter)
        self.capacity = int(max_keys)
        self.values = np.full(self.capacity, add_identity, dtype=np.float64)
        self.states = np.full(self.capacity, ALLOWED, dtype=np.int8)
        self.counter.accum_init += self.capacity

    def set_allowed(self, key: int) -> None:
        # Every compressed key is allowed by construction; the call is
        # accepted (the generic SpGEVM driver may issue it) but free.
        if not (0 <= key < self.capacity):
            raise IndexError("MCA key out of range")

    def insert(self, key: int, value: ValueLike) -> None:
        self.counter.accum_inserts += 1
        self.counter.flops += 1
        if self.states[key] == ALLOWED:
            self.states[key] = SET
            self.values[key] = resolve_value(value)
        else:
            self.values[key] = self.add(self.values[key], resolve_value(value))

    def remove(self, key: int) -> Optional[float]:
        self.counter.accum_removes += 1
        if self.states[key] != SET:
            return None
        self.states[key] = ALLOWED
        v = float(self.values[key])
        self.values[key] = self.add_identity
        return v

    def reset(self) -> None:
        # remove() already restores ALLOWED; a defensive full clear is cheap
        # because capacity == nnz(m) for the row.
        self.states.fill(ALLOWED)
        self.values.fill(self.add_identity)
        self.counter.spa_resets += self.capacity
