"""Cross-call execution sessions: on-demand fingerprints, segment reuse.

The paper's flagship workloads are iterative — k-truss re-multiplies a
shrinking adjacency every pruning round (Section 8.3), batched BC performs
~2·diameter masked products per batch against a *constant* A (Section 8.4)
— yet a bare ``masked_spgemm`` call is a cold start: the inner-product
kernel re-transposes B and the process backend republishes every operand
into fresh shared-memory segments.  An :class:`ExecutionSession` amortises
that across calls, and every cache pays for its own key:

* **operand fingerprints** (:class:`Fingerprint`) — a content digest
  (blake2b over per-row-block structure and value digests), taken only
  when a cache below asks for it, once per distinct operand object per
  call (:meth:`ExecutionSession.call`) and never trusted across calls.
  Content keys make every cache safe: a *new* object with equal bytes
  hits, a changed operand — including one written to in place — misses.
  A digest costs about as much as planning the call, so nothing whose
  hit saves less is keyed: plans are rebuilt (0.5-2 ms), the 1P bound is
  not memoised and a CSC is rebuilt unless its key is already at hand,
  which is why a serial call digests nothing (``docs/sessions.md`` has
  the table).
* **segment registry** (:class:`~repro.parallel.segment_cache.SegmentCache`)
  — published shm segments (operands, derived CSC transposes and a grid
  plan's column panels) stay alive across calls; only operands whose
  fingerprint changed are republished, and a values-only change rewrites
  the data segment in place.
* **derived-CSC memo** — ``CSC.from_csr`` results are memoised on the
  session *and* on the CSR object itself behind the fingerprint, and read
  only by calls that hold that fingerprint anyway (the delta engine, a
  call scope that already digested the operand for another cache): a
  digest costs more than the counting-pass transpose it would save, so no
  call takes one for this.
* **symbolic bound memo** — 2P symbolic sweeps are cached per structure;
  on a hit the recorded counter delta is replayed, so sessioned and
  sessionless runs report identical ``OpCounter`` totals.

Results are bit-for-bit identical with or without a session; the reuse
shows up only in wall time and in the ``segments_reused`` /
``bytes_republished`` counters (surfaced through ``OpCounter``,
``metrics()`` and ``report()``).

Invalidation contract: caches key on *content* and operands are digested
again on every call, so stale entries are unreachable, not wrong — also
after ``mat.data[...]`` was written in place between calls.  Mutating an
operand *during* a call is not supported.
:meth:`ExecutionSession.invalidate` only frees entries early.  See
``docs/sessions.md``.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..machine import HOST_NATIVE, OpCounter, host_profile, resolve_machine
from ..sparse import CSC, CSR
from ..sparse.diff import block_digest_pair
from .planner import Planner

__all__ = [
    "ExecutionSession",
    "Fingerprint",
    "fingerprint_csr",
    "plan_call",
    "resolve_session",
]

#: LRU capacities (entries) of a session's derived-CSC memo, symbolic-bound
#: memo and delta-state table; the shm segment registry's byte budget is
#: :data:`repro.parallel.segment_cache.DEFAULT_SEGMENT_CACHE_BYTES`
CSC_CACHE_SIZE = 16
BOUND_CACHE_SIZE = 64
DELTA_CACHE_SIZE = 8


@dataclass(frozen=True)
class Fingerprint:
    """Content identity of a CSR operand.

    ``structure`` digests ``(shape, sorted_indices, row counts, indices)``
    and keys the symbolic-bound memo (which never reads values); ``values``
    additionally digests ``data`` and, together with ``structure``, keys
    the published segments.  Equal fingerprints ⇒ equal bytes (up to
    digest collision, 128-bit blake2b — negligible).
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


def fingerprint_csr(mat: CSR, digests=None) -> Fingerprint:
    """Digest a CSR operand (one linear pass over its three arrays).

    The fingerprint is derived from the operand's block-digest vectors
    (:func:`repro.sparse.diff.block_digest_pair`; pass them as ``digests``
    when already taken), so the delta engine's diff and every content key
    come out of the same single hash pass."""
    structure, content = block_digest_pair(mat) if digests is None else digests
    hs = hashlib.blake2b(digest_size=16)
    hs.update(f"{mat.shape[0]}x{mat.shape[1]}|{int(mat.sorted_indices)}".encode())
    hs.update(structure.tobytes())
    hv = hashlib.blake2b(content.tobytes(), digest_size=16)
    return Fingerprint(mat.shape, mat.nnz, hs.hexdigest(), hv.hexdigest())


class ExecutionSession:
    """Cross-call reuse context for iterative masked SpGEMM.

    Thread it through ``masked_spgemm(session=...)`` (or the ``session=``
    parameter of the iterative apps, which open one automatically for
    ``algo="auto"``), and close it — ``with ExecutionSession() as sess:``
    — to release the shared-memory segments it keeps alive.

    Parameters
    ----------
    machine:
        What the session's planner prices plans from: ``None`` (default)
        is this host's measured :class:`~repro.machine.HostProfile`; a
        paper machine (``"haswell"``, ``"knl"`` or a
        :class:`MachineConfig`) selects that modeled machine instead.
    planner:
        A pre-built :class:`~repro.engine.Planner` to reuse (overrides
        ``machine``).
    plan_defaults:
        Planning knobs (``threads``, ``backend``, ``partition``, ...)
        applied to every ``algo="auto"`` call that does not force them —
        the session carries the execution policy of a whole loop.
    caching:
        ``False`` keeps the planner/plan-defaults behaviour but disables
        every reuse cache — the cold-start baseline for A/B timing
        (``python -m repro.bench --no-session`` uses this).

    Not thread-safe: one session serves one coordinator loop.  Workers
    never see the session — only the published segment specs.
    """

    def __init__(
        self,
        *,
        machine=None,
        planner: Optional[Planner] = None,
        plan_defaults: Optional[dict] = None,
        caching: bool = True,
    ) -> None:
        self.planner = planner if planner is not None else Planner(machine)
        self.machine = self.planner.machine
        self.plan_defaults = dict(plan_defaults or {})
        self.caching = bool(caching)
        #: id(mat) -> (mat, Fingerprint, block digest vectors), alive only
        #: inside :meth:`call`.  Holding ``mat`` strongly guarantees the id
        #: is never recycled while the entry lives.
        self._fps: dict = {}
        self._call_depth = 0
        self._cscs: "OrderedDict[tuple, CSC]" = OrderedDict()
        self._bounds: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: problem slot -> delta state (operands, digests, plan, result)
        #: retained by repro.engine.delta between incremental calls
        self._delta: "OrderedDict[tuple, object]" = OrderedDict()
        #: slots whose priced patch did not cover its bookkeeping: they run
        #: as if ``delta=None`` for the rest of the session
        self._delta_off: set = set()
        self._segments = None  # lazy SegmentCache
        # reuse telemetry
        self.csc_cache_hits = 0
        self.csc_cache_misses = 0
        self.bound_cache_hits = 0
        self.bound_cache_misses = 0
        #: 2P numeric passes that consumed a memoised symbolic bound on the
        #: bucketed kernel tier — the counting sweep was skipped and output
        #: formation was fused into the numeric pass (docs/kernels.md)
        self.fused_numeric_hits = 0
        self.fingerprint_digests = 0
        # delta-execution telemetry (repro.engine.delta): calls returned
        # straight from the cached result, calls patched row-wise, and
        # calls whose dirty fraction forced a full recompute
        self.delta_hits = 0
        self.delta_patches = 0
        self.delta_fallbacks = 0

    # -- fingerprints --------------------------------------------------
    @contextmanager
    def call(self):
        """Scope of one call on the session (re-entrant).

        Inside it each distinct operand object is digested once, however
        many caches ask for its fingerprint; the memo is dropped when the
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

    def _digest(self, mat: CSR) -> tuple:
        ent = self._fps.get(id(mat))
        if ent is None or ent[0] is not mat:
            vectors = block_digest_pair(mat)
            ent = (mat, fingerprint_csr(mat, vectors), vectors)
            self.fingerprint_digests += 1
            if self._call_depth:
                self._fps[id(mat)] = ent
        return ent

    def fingerprint(self, mat: CSR) -> Fingerprint:
        """Content fingerprint of ``mat``; digested once per :meth:`call`
        scope, on every request outside one.  Nothing on the serial path
        asks for one: call this only where a hit saves more than the hash
        pass costs."""
        return self._digest(mat)[1]

    def block_digests(self, mat: CSR) -> tuple:
        """``(structure, content)`` block digest vectors of ``mat``
        (:func:`repro.sparse.diff.block_digest_pair`) — the same hash pass
        its :meth:`fingerprint` is derived from."""
        return self._digest(mat)[2]

    def invalidate(self, mat=None) -> None:
        """Evict the caches that depend on one operand's content.

        ``mat`` may be a :class:`~repro.sparse.CSR` (digested as it is now)
        or a :class:`Fingerprint` — e.g. one taken before the matrix was
        written to in place; ``None`` clears every cache.  Eviction is
        *targeted*: only CSC-memo, bound-memo and delta-state
        entries keyed by that operand's structure or content digest are
        dropped — entries for unrelated operands survive.  Never needed
        for correctness (content keys make every cache self-invalidating);
        it frees the entries before the LRUs would."""
        if mat is None:
            self._clear()
            return
        if isinstance(mat, Fingerprint):
            fp = mat
        else:
            fp = fingerprint_csr(mat)
            memo = getattr(mat, "_csc_memo", None)
            if memo is not None and memo[0] == fp.key:
                mat._csc_memo = None
        sk, key = fp.structure_key, fp.key
        self._bounds = OrderedDict(
            (k, v) for k, v in self._bounds.items() if sk not in k[:3]
        )
        self._cscs.pop(key, None)
        self._delta = OrderedDict(
            (k, v)
            for k, v in self._delta.items()
            if key not in (v.fa.key, v.fb.key) and sk != v.fm.structure_key
        )

    # -- planning ------------------------------------------------------
    def plan(self, a: CSR, b: CSR, mask: CSR, **knobs):
        """:func:`plan_call` with this session: knobs left ``None`` fall
        back to :attr:`plan_defaults`, a per-call ``planner=`` or
        ``machine=`` is honoured.  Plans are not cached: building one costs
        less than digesting the three operands that would key it."""
        return plan_call(a, b, mask, session=self, **knobs)

    # -- derived CSC ---------------------------------------------------
    def _known_fingerprint(self, mat: CSR) -> Optional[Fingerprint]:
        """``mat``'s fingerprint if this call scope has already paid for it."""
        ent = self._fps.get(id(mat))
        return ent[1] if ent is not None and ent[0] is mat else None

    def _memoised_csc(self, mat: CSR, fp: Fingerprint) -> Optional[CSC]:
        memo = getattr(mat, "_csc_memo", None)
        if memo is not None and memo[0] == fp.key:
            return memo[1]
        return self._cscs.get(fp.key)

    def csc_of(self, mat: CSR, fp: Optional[Fingerprint] = None) -> CSC:
        """``CSC.from_csr(mat)``, memoised per content — when the key is free.

        Reuse pays for its own key: digesting ``mat`` costs more than the
        transpose a hit would save (``docs/sessions.md``), so the memo — the
        session LRU and ``mat._csc_memo`` on the object, both guarded by the
        fingerprint — is consulted only when the caller passes ``fp`` (the
        delta engine does) or this call scope has already digested ``mat``
        for another consumer.  Otherwise the CSC is simply built."""
        fp = fp or self._known_fingerprint(mat)
        if fp is None or not self.caching:
            return CSC.from_csr(mat)
        csc = self._memoised_csc(mat, fp)
        if csc is None:
            csc = CSC.from_csr(mat)
            self.csc_cache_misses += 1
        else:
            self.csc_cache_hits += 1
        mat._csc_memo = (fp.key, csc)
        self._cscs[fp.key] = csc
        self._cscs.move_to_end(fp.key)
        while len(self._cscs) > CSC_CACHE_SIZE:
            self._cscs.popitem(last=False)
        return csc

    # -- delta state (repro.engine.delta) ------------------------------
    def _delta_get(self, slot: tuple):
        state = self._delta.get(slot)
        if state is not None:
            self._delta.move_to_end(slot)
        return state

    def _delta_store(self, slot: tuple, state) -> None:
        self._delta[slot] = state
        self._delta.move_to_end(slot)
        while len(self._delta) > DELTA_CACHE_SIZE:
            self._delta.popitem(last=False)

    # -- symbolic bounds -----------------------------------------------
    def symbolic_bounds(
        self,
        a: CSR,
        b: CSR,
        mask: CSR,
        *,
        complement: bool,
        counter: Optional[OpCounter] = None,
    ) -> np.ndarray:
        """Cached :func:`repro.core.symbolic.symbolic_masked`.

        The sweep's counter charges are recorded on the first run and
        *replayed* into ``counter`` on every hit, so a sessioned run
        reports exactly the ``symbolic_flops`` a sessionless run would."""
        from ..core.symbolic import symbolic_masked

        if not self.caching:
            return symbolic_masked(a, b, mask, complement=complement,
                                   counter=counter)
        with self.call():  # a, b and mask are often one object
            key = (
                self.fingerprint(a).structure_key,
                self.fingerprint(b).structure_key,
                self.fingerprint(mask).structure_key,
                bool(complement),
            )
        hit = self._bounds.get(key)
        if hit is not None:
            self._bounds.move_to_end(key)
            self.bound_cache_hits += 1
            row_nnz, charged = hit
            if counter is not None:
                counter.merge(charged)
            return row_nnz
        charged = OpCounter()
        row_nnz = symbolic_masked(a, b, mask, complement=complement,
                                  counter=charged)
        if counter is not None:
            counter.merge(charged)
        self.bound_cache_misses += 1
        self._bounds[key] = (row_nnz, charged)
        while len(self._bounds) > BOUND_CACHE_SIZE:
            self._bounds.popitem(last=False)
        return row_nnz

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
            "csc_cache_hits": self.csc_cache_hits,
            "csc_cache_misses": self.csc_cache_misses,
            "bound_cache_hits": self.bound_cache_hits,
            "bound_cache_misses": self.bound_cache_misses,
            "fused_numeric_hits": self.fused_numeric_hits,
            "fingerprint_digests": self.fingerprint_digests,
            "delta_hits": self.delta_hits,
            "delta_patches": self.delta_patches,
            "delta_fallbacks": self.delta_fallbacks,
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

    def metrics(self) -> dict:
        """Session stats plus the persistent kernel-arena telemetry (the
        scratch leases already live for the process lifetime; the session
        surfaces them next to its own reuse counters), the process pool's
        gauges, and — when a :mod:`repro.observe.runtime` sampler is
        installed — its drift-ready summary under ``"runtime"``."""
        from ..core.kernels.arena import arena_stats
        from ..observe import runtime as _runtime
        from ..parallel.pool import pool_stats

        sampler = _runtime.current()
        return {
            "session": self.stats(),
            "arena": arena_stats(),
            "pool": pool_stats(),
            "runtime": sampler.summary() if sampler is not None else {},
        }

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release everything the session keeps alive — most importantly
        the shared-memory segments.  Idempotent; the session stays usable
        afterwards (cold)."""
        if self._segments is not None:
            self._segments.close()
            self._segments = None
        self._clear()

    def _clear(self) -> None:
        self._fps.clear()
        self._cscs.clear()
        self._bounds.clear()
        self._delta.clear()
        self._delta_off.clear()

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@functools.lru_cache(maxsize=8)
def _planner_for(machine) -> Planner:
    """The default-policy planner of a resolved machine (planners hold no
    per-call state, so sessionless calls share one)."""
    return Planner(machine)


def plan_call(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    session: Optional[ExecutionSession] = None,
    machine=None,
    planner: Optional[Planner] = None,
    semiring=None,
    **knobs,
):
    """The one planning spelling of :func:`repro.engine.plan_and_execute`
    — sessioned, sessionless and the delta engine's full run alike — and of
    :meth:`ExecutionSession.plan`: pick the planner (the given one, else
    the session's unless ``machine`` names another, else the one cached for
    the resolved ``machine``), let the session's ``plan_defaults`` fill the
    knobs left ``None`` and hand every knob to :meth:`Planner.plan`.

    ``semiring`` is the call's, when there is a call: with no ``machine``
    and no ``planner``, a call the native tier cannot run is not priced
    from ``HOST_NATIVE`` but from the NumPy bodies' ``HOST``
    (:func:`repro.machine.host_profile`)."""
    if planner is None:
        if machine is not None:
            machine = resolve_machine(machine)
        else:
            machine = session.machine if session is not None else resolve_machine(None)
            if semiring is not None and machine is HOST_NATIVE:
                # the C loops' prices hold for the calls the C loops take
                machine = host_profile(semiring, a.data, b.data)
        if session is not None and machine == session.machine:
            planner = session.planner
        else:
            planner = _planner_for(machine)
    if session is not None:
        knobs = {**session.plan_defaults,
                 **{k: v for k, v in knobs.items() if v is not None}}
        # the CSC build is free exactly when csc_of() will find it memoised
        fp = session._known_fingerprint(b) if session.caching else None
        if fp is not None and session._memoised_csc(b, fp) is not None:
            knobs["_csc_ready"] = True
    return planner.plan(a, b, mask, **knobs)


def resolve_session(session, *, auto: bool = True, machine=None):
    """Normalise an app-level ``session`` argument.

    Returns ``(session_or_None, owned)``: ``None`` opens a fresh session
    when ``auto`` (the app closes it — ``owned=True``), ``False`` disables
    sessions entirely, and an :class:`ExecutionSession` instance is used
    as-is (the caller keeps ownership).
    """
    if session is False or (session is None and not auto):
        return None, False
    if session is None:
        return ExecutionSession(machine=machine), True
    return session, False
