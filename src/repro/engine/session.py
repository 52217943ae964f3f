"""Cross-call execution sessions: the process backend's segment registry.

The process backend publishes every operand into fresh shared-memory
segments on each call, so an iterative loop over a constant A — batched BC
(Section 8.4), a k-truss round on a grid — republishes the same bytes
every step.  An :class:`ExecutionSession` keeps those segments alive
between calls; it is the only state the library keeps from one call to
the next:

* **segment registry** (:class:`~repro.parallel.segment_cache.SegmentCache`)
  — published shm segments (operands, derived CSC transposes and a grid
  plan's column panels) stay alive across calls; only operands whose
  fingerprint changed are republished, and a values-only change rewrites
  the data segment in place.
* **operand fingerprints** (:class:`Fingerprint`) — the registry's keys: a
  content digest (blake2b over the structure, and over the values), taken
  only when an operand is published, once per distinct operand object per
  call (:meth:`ExecutionSession.call`) and never trusted across calls.
  Content keys make the registry safe: a *new* object with equal bytes
  hits, a changed operand — including one written to in place — misses.

Nothing else is kept: plans are rebuilt, the 2P symbolic sweep runs on
every call and the inner product builds its CSC unless the caller passes
``b_csc=`` — each costs less than the digest that would key it
(``docs/parallel.md``, "Segment registry").  A serial call never touches
the session.  Results and work counters are bit-for-bit identical with or
without one; the reuse shows up only in wall time and in the
``segments_reused`` / ``bytes_republished`` counters (surfaced through
``OpCounter``, ``metrics()`` and ``report()``).

Mutating an operand *during* a call is not supported.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..sparse import CSR

__all__ = [
    "ExecutionSession",
    "Fingerprint",
    "fingerprint_csr",
    "resolve_session",
]


@dataclass(frozen=True)
class Fingerprint:
    """Content identity of a CSR operand.

    ``structure`` digests ``(shape, sorted_indices, row counts, indices)``
    and ``values`` digests ``data``; together they key the published
    segments, and ``structure`` alone finds the entry a values-only change
    rewrites in place.  Equal fingerprints ⇒ equal bytes (up to digest
    collision, 128-bit blake2b — negligible).
    """

    shape: Tuple[int, int]
    nnz: int
    structure: str
    values: str

    @property
    def key(self) -> tuple:
        """Full content key (structure + values)."""
        return (self.shape, self.nnz, self.structure, self.values)

    @property
    def structure_key(self) -> tuple:
        """Pattern-only key (values-insensitive)."""
        return (self.shape, self.nnz, self.structure)


def fingerprint_csr(mat: CSR) -> Fingerprint:
    """Digest a CSR operand in one linear pass over its three arrays: one
    blake2b over ``(shape, sorted flag, row counts, indices)``, one over
    the value dtype and ``data``."""
    hs = hashlib.blake2b(digest_size=16)
    hs.update(f"{mat.shape[0]}x{mat.shape[1]}|{int(mat.sorted_indices)}".encode())
    hs.update(np.ascontiguousarray(np.diff(mat.indptr)))
    hs.update(np.ascontiguousarray(mat.indices))
    hv = hashlib.blake2b(mat.data.dtype.str.encode(), digest_size=16)
    hv.update(np.ascontiguousarray(mat.data))
    return Fingerprint(mat.shape, mat.nnz, hs.hexdigest(), hv.hexdigest())


class ExecutionSession:
    """Keeps the process backend's published segments alive across calls.

    Thread it through ``masked_spgemm(session=...)`` (or the ``session=``
    parameter of the iterative apps, which run without one unless given
    one), and close it — ``with ExecutionSession() as sess:`` — to release
    the shared-memory segments it keeps alive.  Only calls that publish
    segments (a process-backend plan with several work items) read it.

    Not thread-safe: one session serves one coordinator loop.  Workers
    never see the session — only the published segment specs.
    """

    def __init__(self) -> None:
        #: id(mat) -> (mat, Fingerprint), alive only inside :meth:`call`.
        #: Holding ``mat`` strongly guarantees the id is never recycled
        #: while the entry lives.
        self._fps: dict = {}
        self._call_depth = 0
        self._segments = None  # lazy SegmentCache
        self.fingerprint_digests = 0

    # -- fingerprints --------------------------------------------------
    @contextmanager
    def call(self):
        """Scope of one call on the session (re-entrant).

        Inside it each distinct operand object is digested once, however
        many segments derive from it; the memo is dropped when the
        outermost scope ends, so nothing is trusted across calls and an
        operand written to in place between two calls is seen as changed.
        """
        outermost = self._call_depth == 0
        self._call_depth += 1
        try:
            yield self
        finally:
            self._call_depth -= 1
            if outermost:
                self._fps.clear()

    def fingerprint(self, mat: CSR) -> Fingerprint:
        """Content fingerprint of ``mat``; digested once per :meth:`call`
        scope, on every request outside one."""
        ent = self._fps.get(id(mat))
        if ent is not None and ent[0] is mat:
            return ent[1]
        fp = fingerprint_csr(mat)
        self.fingerprint_digests += 1
        if self._call_depth:
            self._fps[id(mat)] = (mat, fp)
        return fp

    # -- segment registry ----------------------------------------------
    @property
    def segment_cache(self):
        """The session's :class:`~repro.parallel.segment_cache.SegmentCache`
        (created on first process-backend use)."""
        if self._segments is None:
            from ..parallel.segment_cache import SegmentCache

            self._segments = SegmentCache()
        return self._segments

    # -- telemetry -----------------------------------------------------
    def stats(self) -> dict:
        """Flat reuse-counter dict (the ``"session"`` key of ``metrics()``)."""
        out = {
            "fingerprint_digests": self.fingerprint_digests,
            "segments_reused": 0,
            "segments_published": 0,
            "values_republished": 0,
            "bytes_published": 0,
            "bytes_republished": 0,
            "cached_entries": 0,
            "cached_bytes": 0,
        }
        if self._segments is not None:
            out.update(self._segments.stats())
        return out

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Unlink every segment the session keeps alive.  Idempotent; the
        session stays usable afterwards (cold)."""
        if self._segments is not None:
            self._segments.close()
            self._segments = None
        self._fps.clear()

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def resolve_session(session) -> Optional[ExecutionSession]:
    """Normalise a ``session`` argument: ``None`` (the default of every
    app) and ``False`` mean no session; an :class:`ExecutionSession` is
    used as-is and stays the caller's to close."""
    return None if session is None or session is False else session
