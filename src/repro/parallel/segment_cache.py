"""Cross-call registry of shared-memory operand segments.

The process backend publishes every CSR operand into named POSIX
shared-memory segments (:mod:`repro.parallel.shm`).  Without a session
that publication is per call: iterative apps republish an unchanged
adjacency every round.  A :class:`SegmentCache` — owned by an
:class:`~repro.engine.ExecutionSession` — keeps published segments alive
across calls, keyed by operand *content fingerprint*:

* **full hit** (same structure digest, same values digest) — the cached
  :class:`~repro.parallel.shm.CSRSegments` spec is returned untouched.
  Because keys are content-based, this also dedupes *within* a call: in
  triangle counting and k-truss A, B and M are the same matrix and
  publish once instead of three times.
* **values-only hit** (same structure digest, different values digest) —
  only the ``data`` segment is rewritten in place
  (:func:`~repro.parallel.shm.rewrite_array`); workers' cached ``mmap``
  attachments observe the new bytes under the old segment name.
* **miss** — a fresh :class:`~repro.parallel.shm.SegmentGroup` publishes
  the operand; the least-recently-used unpinned entries are evicted when
  the byte budget overflows (eviction closes + unlinks the entry's group).

Derived operands — the CSC transpose the inner-product kernel wants, and
the column panels a grid plan cuts B and the mask into — are cached under
the *base* operand's fingerprint plus a tag (``("csc",)`` for the
transpose, ``("csr", lo, hi)`` / ``("csc", lo, hi)`` for a column panel
and its transpose), so a constant ``B`` keeps its transpose and panel
segments alive too.  Reuse is per operand / panel: any change to an
operand republishes (or, for a values-only change, rewrites in place) the
segments derived from it.

Entries touched since :meth:`SegmentCache.begin_call` are pinned — a
pinned segment is never evicted, rewritten in place, or dropped while the
in-flight call references it, so a later operand of the *same* call that
shares a structure digest but carries different values (``mask =
a.pattern()`` in the same product) publishes fresh segments instead of
clobbering the earlier operand's data.  :meth:`SegmentCache.close` releases everything;
after it, :func:`repro.parallel.shm.active_segments` no longer lists any
segment this cache owned.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Optional, Set

import numpy as np

from ..sparse import CSR
from . import shm as _shm

__all__ = ["SegmentCache", "DEFAULT_SEGMENT_CACHE_BYTES", "live_cache_stats"]

#: every live cache, weakly held — the runtime sampler's occupancy gauges
#: aggregate over whatever sessions currently exist without keeping any
#: of them (or their segments) alive
_LIVE_CACHES: "weakref.WeakSet[SegmentCache]" = weakref.WeakSet()


def live_cache_stats() -> dict:
    """Occupancy aggregated over all live :class:`SegmentCache` instances.

    What the :class:`~repro.observe.runtime.RuntimeSampler` samples — a
    process may hold several sessions (apps open their own), and the
    sampler wants the sum, not one cache's view.
    """
    totals = {"caches": 0, "cached_entries": 0, "cached_bytes": 0,
              "segments_reused": 0, "segments_published": 0}
    for cache in list(_LIVE_CACHES):
        totals["caches"] += 1
        totals["cached_entries"] += len(cache._entries)
        totals["cached_bytes"] += cache._total_bytes
        totals["segments_reused"] += cache.segments_reused
        totals["segments_published"] += cache.segments_published
    return totals

#: default byte budget for cached segments (generous for CI-sized graphs,
#: small next to a production host's shared-memory allowance)
DEFAULT_SEGMENT_CACHE_BYTES = 256 << 20


def _spec_nbytes(spec: _shm.CSRSegments) -> int:
    return spec.indptr.nbytes + spec.indices.nbytes + spec.data.nbytes


class _Entry:
    __slots__ = ("key", "structure_key", "group", "spec", "nbytes")

    def __init__(self, key, structure_key, group, spec, nbytes) -> None:
        self.key = key
        self.structure_key = structure_key
        self.group = group
        self.spec = spec
        self.nbytes = int(nbytes)


class SegmentCache:
    """Fingerprint-keyed cache of published CSR operand segments."""

    def __init__(self, *, max_bytes: int = DEFAULT_SEGMENT_CACHE_BYTES) -> None:
        if not _shm.HAVE_SHARED_MEMORY:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        #: structure_key -> full key of the entry currently published for it
        self._by_structure: Dict[tuple, tuple] = {}
        self._pinned: Set[tuple] = set()
        self._total_bytes = 0
        # reuse telemetry (read by ExecutionSession.stats / OpCounter charges)
        self.segments_reused = 0
        self.segments_published = 0
        self.values_republished = 0
        self.bytes_published = 0
        self.bytes_republished = 0
        _LIVE_CACHES.add(self)

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def stats(self) -> dict:
        return {
            "segments_reused": self.segments_reused,
            "segments_published": self.segments_published,
            "values_republished": self.values_republished,
            "bytes_published": self.bytes_published,
            "bytes_republished": self.bytes_republished,
            "cached_entries": len(self._entries),
            "cached_bytes": self._total_bytes,
        }

    # -- call pinning --------------------------------------------------
    def begin_call(self) -> None:
        """Start a publish batch: entries touched from here on are pinned
        against eviction until :meth:`end_call`."""
        self._pinned.clear()

    def end_call(self) -> None:
        """Release the in-flight call's eviction pins."""
        self._pinned.clear()

    # -- publishing ----------------------------------------------------
    def publish_csr(self, mat: CSR, fp, tag: tuple = ("csr",)) -> _shm.CSRSegments:
        """Segments for ``mat``, served from cache when ``tag`` plus the
        fingerprint (an :class:`~repro.engine.session.Fingerprint`) match.

        ``fp`` is ``mat``'s own fingerprint for a plain operand; for a form
        derived from an operand (its CSC transpose, a column panel) it is
        the *base* operand's, and ``tag`` names the derivation — the form
        is a pure function of the two."""
        full_key, struct_key = tag + fp.key, tag + fp.structure_key
        ent = self._entries.get(full_key)
        if ent is not None:
            self._entries.move_to_end(full_key)
            self._pinned.add(full_key)
            self.segments_reused += 1
            return ent.spec

        old_key = self._by_structure.get(struct_key)
        # A pinned entry was already served to the in-flight call: workers
        # will read it, so it can neither be rewritten in place (a second
        # operand sharing the structure — mask = a.pattern() — would clobber
        # the first operand's values) nor dropped.  Publish fresh instead.
        if old_key is not None and old_key not in self._pinned:
            ent = self._entries.get(old_key)
            if (
                ent is not None
                and ent.spec.data.dtype == np.ascontiguousarray(mat.data).dtype.str
                and ent.spec.data.length == int(mat.data.size)
            ):
                # values-only change: rewrite the data segment in place
                _shm.rewrite_array(ent.spec.data, mat.data)
                del self._entries[old_key]
                ent.key = full_key
                self._entries[full_key] = ent
                self._by_structure[struct_key] = full_key
                self._pinned.discard(old_key)
                self._pinned.add(full_key)
                self.values_republished += 1
                self.bytes_republished += int(mat.data.nbytes)
                return ent.spec
            if ent is not None:
                # same structure but incompatible value storage: drop it
                self._drop(old_key)

        group = _shm.SegmentGroup()
        spec = group.publish_csr(mat)
        ent = _Entry(full_key, struct_key, group, spec, _spec_nbytes(spec))
        self._entries[full_key] = ent
        self._by_structure[struct_key] = full_key
        self._total_bytes += ent.nbytes
        self._pinned.add(full_key)
        self.segments_published += 1
        self.bytes_published += ent.nbytes
        self._evict()
        return spec

    # -- lifecycle -----------------------------------------------------
    def _drop(self, key: tuple) -> None:
        ent = self._entries.pop(key, None)
        if ent is None:
            return
        if self._by_structure.get(ent.structure_key) == key:
            del self._by_structure[ent.structure_key]
        self._pinned.discard(key)
        self._total_bytes -= ent.nbytes
        ent.group.close()

    def _evict(self) -> None:
        """Evict LRU unpinned entries until the byte budget holds."""
        while self._total_bytes > self.max_bytes:
            victim: Optional[tuple] = None
            for key in self._entries:  # OrderedDict: LRU first
                if key not in self._pinned:
                    victim = key
                    break
            if victim is None:
                break  # everything live belongs to the in-flight call
            self._drop(victim)

    def close(self) -> None:
        """Unlink every cached segment (idempotent)."""
        for key in list(self._entries):
            self._drop(key)
        self._pinned.clear()

    def __enter__(self) -> "SegmentCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
