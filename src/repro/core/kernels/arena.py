"""Scratch arena: reusable dense buffers for the vectorized kernels.

The MSA, Hash and ESC fast kernels all need per-call dense scratch — the
MSA's state/value arrays, the hash table's key/value/set arrays, ESC's
segment-boundary buffer.  Allocating (and fault-in zeroing) these on every
invocation is pure overhead in iterative workloads (k-truss rounds, BC
batches) where the same kernel runs hundreds of times on
similarly-sized problems; the paper's C++ competitors simply keep their
accumulators hot across calls.  This module gives the Python kernels the
same amortisation.

Design:

* One :class:`ScratchArena` per thread (:func:`get_arena` — the thread
  backend runs kernels concurrently, and process-backend workers each get
  their own arena for free), holding one buffer per ``(key)``.
* Buffers carry a **fill invariant**: every cell holds ``fill`` whenever
  the buffer is at rest in the arena.  Kernels already maintain exactly
  this invariant across their block loops (the "dirty-cell reset" trick —
  they restore touched cells after each block), so a leased buffer is
  ready to use with no O(capacity) initialisation.
* Leases are context managers.  A clean exit returns the buffer to the
  arena; an exception *discards* it (the kernel died mid-block and the
  invariant may be violated), so a failed call can never poison a later
  one.
* :meth:`Lease.require` grows geometrically; growth allocates fresh
  filled memory (a leased buffer is clean at block boundaries, so nothing
  needs copying).

``fill=None`` requests uninitialised scratch (``np.empty`` semantics) for
buffers the kernel fully overwrites before reading.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Hashable, Iterator, Optional

import numpy as np

__all__ = [
    "ScratchArena",
    "Lease",
    "get_arena",
    "clear_arena",
    "arena_stats",
]


class Lease:
    """A checked-out arena buffer; hand back via the lease context."""

    __slots__ = ("dtype", "fill", "array")

    def __init__(self, array: Optional[np.ndarray], dtype, fill) -> None:
        self.dtype = np.dtype(dtype)
        self.fill = fill
        self.array = array

    def require(self, n: int) -> np.ndarray:
        """A view of the first ``n`` cells, growing the buffer if needed.

        Newly allocated memory is pre-set to ``fill`` (or left
        uninitialised for ``fill=None``); cached memory is trusted clean
        per the arena's invariant.  Call only at block boundaries, when
        the current buffer (if any) is clean — growth discards it.
        """
        n = int(n)
        buf = self.array
        if buf is None or buf.shape[0] < n:
            cap = n if buf is None else max(n, int(buf.shape[0] * 1.5))
            if self.fill is None:
                buf = np.empty(cap, dtype=self.dtype)
            else:
                buf = np.full(cap, self.fill, dtype=self.dtype)
            self.array = buf
        return buf[:n]


class ScratchArena:
    """Keyed cache of clean scratch buffers (one arena per thread)."""

    def __init__(self) -> None:
        self._buffers: Dict[Hashable, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self.discarded = 0

    @contextmanager
    def lease(self, key: Hashable, dtype, fill) -> Iterator[Lease]:
        """Check the buffer for ``key`` out of the arena.

        The body must leave the buffer clean (every cell back to ``fill``)
        — the same contract the kernels already keep between row blocks.
        On an exception the buffer is dropped instead of returned.  A
        nested lease of the same key (which cannot trust cleanliness)
        simply misses the cache and allocates fresh.
        """
        buf = self._buffers.pop(key, None)
        if buf is not None and buf.dtype != np.dtype(dtype):
            buf = None  # same key reused with a new dtype: do not alias
        if buf is not None:
            self.hits += 1
        else:
            self.misses += 1
        lease = Lease(buf, dtype, fill)
        try:
            yield lease
        except BaseException:
            self.discarded += 1
            raise
        else:
            if lease.array is not None:
                self._buffers[key] = lease.array

    def clear(self) -> None:
        """Drop every cached buffer (frees the memory)."""
        self._buffers.clear()

    def nbytes(self) -> int:
        """Total bytes currently cached."""
        return sum(int(b.nbytes) for b in self._buffers.values())

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "discarded": self.discarded,
            "buffers": len(self._buffers),
            "nbytes": self.nbytes(),
        }


_LOCAL = threading.local()


def get_arena() -> ScratchArena:
    """The calling thread's arena (created on first use)."""
    arena = getattr(_LOCAL, "arena", None)
    if arena is None:
        arena = ScratchArena()
        _LOCAL.arena = arena
    return arena


def clear_arena() -> None:
    """Drop the calling thread's cached buffers."""
    get_arena().clear()


def arena_stats() -> dict:
    """Hit/miss/footprint statistics of the calling thread's arena."""
    return get_arena().stats()

