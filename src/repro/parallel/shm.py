"""Shared-memory publication of CSR operands for the process backend.

The process backend must hand every worker the same three CSR arrays
(``indptr`` / ``indices`` / ``data``) for A, B and the mask without
serialising them per task — pickling multi-megabyte operands to every
worker would eat the speedup the backend exists to provide.  This module
publishes each array into a named POSIX shared-memory segment
(:mod:`multiprocessing.shared_memory`) exactly once per call; workers
reattach the segments by name and wrap them in NumPy views, so operand
"transfer" is an ``shm_open`` + ``mmap`` per segment, independent of
operand size.

Lifecycle contract (asserted by the backend-equivalence test suite):

* the **parent** owns every segment it publishes — a
  :class:`SegmentGroup` tracks them and ``close()`` (or the context
  manager, or the ``atexit`` sweeper) both closes and unlinks them;
* **workers** only ever attach; attachments are cached per process (the
  persistent pool reuses workers across calls, and one call's partitions
  all reference the same segments) behind a small LRU so long-lived
  workers do not accumulate maps of dead segments;
* after the pool is shut down and every group closed,
  :func:`active_segments` is empty and the segment names no longer
  resolve — nothing leaks into ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import os
import secrets
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import resource_tracker, shared_memory

    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover
    shared_memory = None
    resource_tracker = None
    HAVE_SHARED_MEMORY = False

from ..sparse import CSC, CSR

__all__ = [
    "HAVE_SHARED_MEMORY",
    "SegmentSpec",
    "CSRSegments",
    "SegmentGroup",
    "rewrite_array",
    "attach_array",
    "attach_csr",
    "attach_csc",
    "active_segments",
    "clear_attachments",
]


@dataclass(frozen=True)
class SegmentSpec:
    """Address of one published array: segment name + dtype + length.

    Plain data — this is what crosses the process boundary (a few dozen
    bytes) instead of the array itself.
    """

    name: str
    dtype: str
    length: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * self.length)


@dataclass(frozen=True)
class CSRSegments:
    """A CSR matrix published as three shared segments (plus metadata)."""

    shape: Tuple[int, int]
    sorted_indices: bool
    indptr: SegmentSpec
    indices: SegmentSpec
    data: SegmentSpec


# ----------------------------------------------------------------------
# parent side: publish
# ----------------------------------------------------------------------

#: segments created (and not yet unlinked) by this process: name -> SharedMemory
_OWNED: Dict[str, "shared_memory.SharedMemory"] = {}


def _new_segment(nbytes: int) -> "shared_memory.SharedMemory":
    # SharedMemory rejects size 0; an empty array still needs an address.
    name = f"repro_{os.getpid():x}_{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
    _OWNED[shm.name] = shm
    return shm


def _unlink(shm: "shared_memory.SharedMemory") -> None:
    _OWNED.pop(shm.name, None)
    try:
        shm.close()
    finally:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def rewrite_array(spec: SegmentSpec, arr: np.ndarray) -> None:
    """Overwrite a published segment's contents in place.

    The values-only republish path of the session segment cache
    (:mod:`repro.parallel.segment_cache`): when an operand's structure is
    unchanged but its values moved, the existing segment is rewritten
    under the same name — workers' cached attachments are ``mmap`` views
    of the same pages, so they observe the new values without re-attaching.
    Only segments owned by this process can be rewritten, and the
    replacement must match the published dtype and length exactly.
    """
    shm = _OWNED.get(spec.name)
    if shm is None:
        raise KeyError(f"segment {spec.name!r} is not owned by this process")
    arr = np.ascontiguousarray(arr)
    if arr.dtype.str != spec.dtype or int(arr.size) != spec.length:
        raise ValueError(
            f"rewrite_array needs identical dtype/length: segment is "
            f"({spec.dtype}, {spec.length}), got ({arr.dtype.str}, {arr.size})"
        )
    if arr.size:
        np.frombuffer(shm.buf, dtype=arr.dtype, count=arr.size)[:] = arr


def active_segments() -> Tuple[str, ...]:
    """Names of segments this process has published and not yet unlinked."""
    return tuple(sorted(_OWNED))


def active_segment_bytes() -> int:
    """Total bytes of the segments this process currently owns.

    The runtime sampler's ``shm_bytes`` gauge — what the fleet's shared
    pages cost the host right now, summed over live published segments.
    """
    return sum(int(seg.size) for seg in _OWNED.values())


@atexit.register
def _sweep_owned() -> None:  # pragma: no cover - interpreter shutdown
    for shm in list(_OWNED.values()):
        try:
            _unlink(shm)
        except Exception:
            pass


class SegmentGroup:
    """Owner of the segments published for one batch of operands.

    Use as a context manager around a process-backend call: publish the
    operands, hand the (tiny, picklable) :class:`CSRSegments` specs to the
    workers, and let ``__exit__`` close + unlink everything.
    """

    def __init__(self) -> None:
        if not HAVE_SHARED_MEMORY:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._segments: List["shared_memory.SharedMemory"] = []
        self._closed = False

    # -- publishing ----------------------------------------------------
    def publish_array(self, arr: np.ndarray) -> SegmentSpec:
        """Copy a 1-D array into a fresh segment; returns its address."""
        arr = np.ascontiguousarray(arr)
        shm = self._segment(arr.nbytes)
        if arr.size:
            np.frombuffer(shm.buf, dtype=arr.dtype, count=arr.size)[:] = arr
        return SegmentSpec(shm.name, arr.dtype.str, int(arr.size))

    def publish_csr(self, mat: CSR) -> CSRSegments:
        """Publish a CSR operand's three arrays."""
        return CSRSegments(
            shape=mat.shape,
            sorted_indices=mat.sorted_indices,
            indptr=self.publish_array(mat.indptr),
            indices=self.publish_array(mat.indices),
            data=self.publish_array(mat.data),
        )

    # -- lifecycle -----------------------------------------------------
    def _segment(self, nbytes: int) -> "shared_memory.SharedMemory":
        if self._closed:
            raise RuntimeError("SegmentGroup is closed")
        shm = _new_segment(nbytes)
        self._segments.append(shm)
        return shm

    def close(self) -> None:
        """Close and unlink every segment this group published."""
        if self._closed:
            return
        self._closed = True
        for shm in self._segments:
            _unlink(shm)
        self._segments.clear()

    def __enter__(self) -> "SegmentGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._segments)


# ----------------------------------------------------------------------
# worker side: attach
# ----------------------------------------------------------------------

#: per-process attachment cache (LRU: name -> SharedMemory).  Workers are
#: reused across calls; partitions of one call share operands, so the first
#: task attaches and the rest hit the cache.  Eviction must be
#: least-recently-used: a many-panel grid attaches dozens of small
#: segments per call, and evicting newest-first would close segments whose
#: NumPy views are alive in the task currently running.
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
_ATTACH_CACHE_MAX = 64

#: handles evicted while a NumPy view of them was still exported: ``close``
#: raises BufferError then, and letting the handle be garbage-collected
#: would re-raise it from ``SharedMemory.__del__`` as an "Exception
#: ignored" traceback.  Park them here and retry once the views have died.
_RETIRED: List["shared_memory.SharedMemory"] = []


def _retire(shm: "shared_memory.SharedMemory") -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a view is still alive
        _RETIRED.append(shm)


def _drain_retired() -> None:
    still: List["shared_memory.SharedMemory"] = []
    for shm in _RETIRED:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view still alive
            still.append(shm)
    _RETIRED[:] = still


def _attach_segment(name: str) -> "shared_memory.SharedMemory":
    shm = _ATTACHED.get(name)
    if shm is not None:
        _ATTACHED.move_to_end(name)
        return shm
    # The resource tracker would treat an attach as ownership and clean the
    # segment up when *this* process exits, though the parent owns it
    # (bpo-38119).  Suppress registration during the attach rather than
    # unregistering afterwards: under the fork start method workers share
    # the parent's tracker daemon, and an unregister message from a worker
    # would cancel the *parent's* registration (its later unlink then spams
    # KeyError tracebacks from the tracker).  Workers run tasks on a single
    # thread, so the temporary monkeypatch cannot race.
    if resource_tracker is not None:
        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register
    else:  # pragma: no cover - tracker internals moved
        shm = shared_memory.SharedMemory(name=name)
    _drain_retired()
    while len(_ATTACHED) >= _ATTACH_CACHE_MAX:
        _, old = _ATTACHED.popitem(last=False)
        _retire(old)
    _ATTACHED[name] = shm
    return shm


def clear_attachments() -> None:
    """Drop this process's attachment cache (used by pool shutdown/tests)."""
    for shm in list(_ATTACHED.values()):
        _retire(shm)
    _ATTACHED.clear()
    _drain_retired()


def attach_array(spec: SegmentSpec) -> np.ndarray:
    """Zero-copy NumPy view of a published array."""
    shm = _attach_segment(spec.name)
    return np.frombuffer(shm.buf, dtype=np.dtype(spec.dtype), count=spec.length)


def attach_csr(spec: CSRSegments) -> CSR:
    """Zero-copy CSR view of published segments (no validation re-run)."""
    return CSR.from_segment_arrays(
        spec.shape,
        attach_array(spec.indptr),
        attach_array(spec.indices),
        attach_array(spec.data),
        sorted_indices=spec.sorted_indices,
    )


def attach_csc(spec: Optional[CSRSegments]) -> Optional[CSC]:
    """Zero-copy CSC view (the spec holds the CSR of the transpose)."""
    if spec is None:
        return None
    t = attach_csr(spec)
    return CSC((t.ncols, t.nrows), t)
