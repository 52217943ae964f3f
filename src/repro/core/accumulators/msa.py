"""Masked Sparse Accumulator (MSA) — paper Section 5.2, Figures 3-4.

Two dense arrays of length ``ncols``: ``values`` holds accumulated results
and ``states`` holds the NOTALLOWED/ALLOWED/SET automaton state per column.
State transitions (Figure 3)::

    NOTALLOWED --setAllowed--> ALLOWED --insert--> SET --insert--> SET (accumulate)

Inserting into a NOTALLOWED key is a no-op *and the value lambda is never
evaluated*, which is how the mask saves multiplications.

``remove`` resets a key to the default state, so gathering the output row
through the mask (``remove`` per mask nonzero, in mask order — which also
makes the output sorted whenever the mask is, the stability property the
paper highlights) leaves the accumulator clean for the next row: per-row
reuse costs O(entries touched), not O(ncols).

The complemented variant (:class:`MSAComplement`) flips the default state to
ALLOWED, exposes ``set_not_allowed``, and keeps an explicit list of inserted
keys so the gather need not scan the whole dense array (paper, last
paragraph of Section 5.2 — the same trick Gustavson used).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import ALLOWED, NOTALLOWED, SET, MaskedAccumulator, ValueLike, resolve_value

__all__ = ["MSA", "MSAComplement"]


class MSA(MaskedAccumulator):
    """Dense masked sparse accumulator with O(1) state/value access."""

    def __init__(self, ncols: int, add, add_identity: float = 0.0, counter=None):
        super().__init__(add, add_identity, counter)
        self.ncols = int(ncols)
        self.values = np.full(self.ncols, add_identity, dtype=np.float64)
        self.states = np.full(self.ncols, NOTALLOWED, dtype=np.int8)
        self._touched: List[int] = []  # keys moved out of NOTALLOWED
        self.counter.accum_init += self.ncols

    def set_allowed(self, key: int) -> None:
        self.counter.accum_allowed += 1
        if self.states[key] == NOTALLOWED:
            self.states[key] = ALLOWED
            self._touched.append(key)

    def insert(self, key: int, value: ValueLike) -> None:
        self.counter.accum_inserts += 1
        st = self.states[key]
        if st == NOTALLOWED:
            return  # discarded; lambda never evaluated
        self.counter.flops += 1
        if st == ALLOWED:
            self.states[key] = SET
            self.values[key] = resolve_value(value)
        else:  # SET: accumulate
            self.values[key] = self.add(self.values[key], resolve_value(value))

    def remove(self, key: int) -> Optional[float]:
        self.counter.accum_removes += 1
        if self.states[key] != SET:
            # clearing ALLOWED back to default keeps reuse cheap
            self.states[key] = NOTALLOWED
            return None
        self.states[key] = NOTALLOWED
        v = float(self.values[key])
        self.values[key] = self.add_identity
        return v

    def reset(self) -> None:
        for key in self._touched:
            if self.states[key] != NOTALLOWED:
                self.states[key] = NOTALLOWED
                self.values[key] = self.add_identity
                self.counter.spa_resets += 1
        self._touched.clear()


class MSAComplement(MaskedAccumulator):
    """MSA for complemented masks: default state is ALLOWED; mask entries are
    marked NOTALLOWED; an inserted-key list supports sparse gathering."""

    supports_complement = True

    def __init__(self, ncols: int, add, add_identity: float = 0.0, counter=None):
        super().__init__(add, add_identity, counter)
        self.ncols = int(ncols)
        self.values = np.full(self.ncols, add_identity, dtype=np.float64)
        self.states = np.full(self.ncols, ALLOWED, dtype=np.int8)
        self._not_allowed: List[int] = []
        self._inserted: List[int] = []
        self.counter.accum_init += self.ncols

    def set_allowed(self, key: int) -> None:  # pragma: no cover - not used
        raise NotImplementedError("complemented MSA marks keys NOT allowed")

    def set_not_allowed(self, key: int) -> None:
        self.counter.accum_allowed += 1
        if self.states[key] == ALLOWED:
            self.states[key] = NOTALLOWED
            self._not_allowed.append(key)

    def insert(self, key: int, value: ValueLike) -> None:
        self.counter.accum_inserts += 1
        st = self.states[key]
        if st == NOTALLOWED:
            return
        self.counter.flops += 1
        if st == ALLOWED:
            self.states[key] = SET
            self.values[key] = resolve_value(value)
            self._inserted.append(key)
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

    def inserted_keys(self) -> List[int]:
        """Keys inserted for the current row, in insertion order.  The
        caller sorts them when a sorted output row is required."""
        return self._inserted

    def reset(self) -> None:
        for key in self._inserted:
            if self.states[key] == SET:
                self.states[key] = ALLOWED
                self.values[key] = self.add_identity
                self.counter.spa_resets += 1
        for key in self._not_allowed:
            self.states[key] = ALLOWED
        self._inserted.clear()
        self._not_allowed.clear()
