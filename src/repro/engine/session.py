"""Cross-call execution sessions: fingerprints, plan cache, segment reuse.

The paper's flagship workloads are iterative — k-truss re-multiplies a
shrinking adjacency every pruning round (Section 8.3), batched BC performs
~2·diameter masked products per batch against a *constant* A (Section 8.4)
— yet a bare ``masked_spgemm`` call is a cold start: the planner
re-classifies rows, the inner-product kernel re-transposes B, and the
process backend republishes every operand into fresh shared-memory
segments.  An :class:`ExecutionSession` amortises all of that across
calls:

* **operand fingerprints** (:class:`Fingerprint`) — a content digest
  (blake2b over ``indptr``/``indices`` for structure, over ``data`` for
  values), taken once per distinct operand object per call
  (:meth:`ExecutionSession.call`) and never trusted across calls.  Content
  keys make every downstream cache safe: a *new* object with equal bytes
  hits, a changed operand — including one written to in place — misses.
* **plan cache** — LRU of :class:`~repro.engine.ExecutionPlan` keyed on
  the operands' structure digests plus the forced planning knobs and
  semiring; planning is structure-driven, so values-only changes reuse
  the plan.
* **segment registry** (:class:`~repro.parallel.segment_cache.SegmentCache`)
  — published shm segments (and derived CSC transposes) stay alive across
  calls; only operands whose fingerprint changed are republished, and a
  values-only change rewrites the data segment in place.
* **derived-CSC memo** — ``CSC.from_csr`` (a lexsort transpose) runs once
  per operand content; the result is memoised on the session *and* on the
  CSR object itself behind the fingerprint.
* **symbolic bound memo** — 1P mask bounds and 2P symbolic sweeps are
  cached per structure; on a hit the recorded counter delta is replayed,
  so sessioned and sessionless runs report identical ``OpCounter`` totals.

Results are bit-for-bit identical with or without a session; the reuse
shows up only in wall time and in the ``plan_cache_hits`` /
``segments_reused`` / ``bytes_republished`` counters (surfaced through
``OpCounter``, ``metrics()`` and ``report()``).

Invalidation contract: caches key on *content* and operands are digested
again on every call, so stale entries are unreachable, not wrong — also
after ``mat.data[...]`` was written in place between calls.  Mutating an
operand *during* a call is not supported.
:meth:`ExecutionSession.invalidate` only frees entries early.  See
``docs/sessions.md``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..machine import MachineConfig, OpCounter, resolve_machine
from ..sparse import CSC, CSR, DCSC, DCSR
from .planner import Planner

__all__ = [
    "ExecutionSession",
    "Fingerprint",
    "fingerprint_csr",
    "resolve_session",
]


def _buf(arr: np.ndarray):
    return memoryview(np.ascontiguousarray(arr))


@dataclass(frozen=True)
class Fingerprint:
    """Content identity of a CSR operand.

    ``structure`` digests ``(shape, sorted_indices, indptr, indices)`` and
    drives plan/bound caching (planning never reads values); ``values``
    digests ``data`` and, together with ``structure``, keys the published
    segments.  Equal fingerprints ⇒ equal bytes (up to digest collision,
    128-bit blake2b — negligible).
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
    """Digest a CSR operand (one linear pass over its three arrays)."""
    hs = hashlib.blake2b(digest_size=16)
    hs.update(f"{mat.shape[0]}x{mat.shape[1]}|{int(mat.sorted_indices)}".encode())
    hs.update(_buf(mat.indptr))
    hs.update(_buf(mat.indices))
    hv = hashlib.blake2b(digest_size=16)
    hv.update(mat.data.dtype.str.encode())
    hv.update(_buf(mat.data))
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
        :class:`MachineConfig`, a preset name (``"haswell"``, ``"knl"``)
        or ``"fitted"`` (the history-calibrated config persisted by
        ``python -m repro.machine fit``, see ``docs/calibration.md``)
        selects a modeled machine instead.
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
    strict:
        Accepted for compatibility and ignored: every call re-digests its
        operands, which is what ``strict=True`` used to ask for.
    plan_cache_size / csc_cache_size / bound_cache_size /
    fingerprint_cache_size:
        LRU capacities (entries).
    segment_cache_bytes:
        Byte budget of the shared-memory segment registry.

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
        strict: bool = False,
        plan_cache_size: int = 128,
        csc_cache_size: int = 16,
        bound_cache_size: int = 64,
        fingerprint_cache_size: int = 64,
        segment_cache_bytes: Optional[int] = None,
    ) -> None:
        self.planner = planner if planner is not None else Planner(machine)
        self.machine = self.planner.machine
        self.plan_defaults = dict(plan_defaults or {})
        self.caching = bool(caching)
        self._plan_cache_size = int(plan_cache_size)
        self._csc_cache_size = int(csc_cache_size)
        self._bound_cache_size = int(bound_cache_size)
        self._fp_cache_size = int(fingerprint_cache_size)
        self._segment_cache_bytes = segment_cache_bytes
        #: id(mat) -> (mat, Fingerprint), alive only inside :meth:`call`.
        #: Holding ``mat`` strongly guarantees the id is never recycled
        #: while the entry lives.
        self._fps: "OrderedDict[int, tuple]" = OrderedDict()
        self._call_depth = 0
        self._plans: "OrderedDict[tuple, object]" = OrderedDict()
        self._cscs: "OrderedDict[tuple, CSC]" = OrderedDict()
        self._dforms: "OrderedDict[tuple, object]" = OrderedDict()
        self._bounds: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: per-content block digest vectors (repro.sparse.block_digests),
        #: keyed (content key, block_rows, values); the delta engine's
        #: diff stage digests each operand content at most once
        self._digests: "OrderedDict[tuple, object]" = OrderedDict()
        #: problem slot -> delta state (operands, digests, plan, result)
        #: retained by repro.engine.delta between incremental calls
        self._delta: "OrderedDict[tuple, object]" = OrderedDict()
        self._delta_cache_size = 8
        self._segments = None  # lazy SegmentCache
        # reuse telemetry
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.csc_cache_hits = 0
        self.csc_cache_misses = 0
        self.shard_form_hits = 0
        self.shard_form_misses = 0
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

    def fingerprint(self, mat: CSR) -> Fingerprint:
        """Content fingerprint of ``mat``; digested once per :meth:`call`
        scope, on every request outside one."""
        key = id(mat)
        ent = self._fps.get(key)
        if ent is not None and ent[0] is mat:
            return ent[1]
        fp = fingerprint_csr(mat)
        self.fingerprint_digests += 1
        if self._call_depth:
            self._fps[key] = (mat, fp)
            while len(self._fps) > self._fp_cache_size:
                self._fps.popitem(last=False)
        return fp

    def invalidate(self, mat=None) -> None:
        """Evict the caches that depend on one operand's content.

        ``mat`` may be a :class:`~repro.sparse.CSR` (digested as it is now)
        or a :class:`Fingerprint` — e.g. one taken before the matrix was
        written to in place; ``None`` clears every cache.  Eviction is
        *targeted*: only plan-cache, CSC/DCSR/DCSC-memo, bound-memo, digest
        and delta-state entries keyed by that operand's structure or
        content digest are dropped — entries for unrelated operands
        survive.  Never needed for correctness (content keys make every
        cache self-invalidating); it frees the entries before the LRUs
        would."""
        if mat is None:
            self._fps.clear()
            self._plans.clear()
            self._cscs.clear()
            self._dforms.clear()
            self._bounds.clear()
            self._digests.clear()
            self._delta.clear()
            return
        if isinstance(mat, Fingerprint):
            fp = mat
        else:
            fp = fingerprint_csr(mat)
            memo = getattr(mat, "_csc_memo", None)
            if memo is not None and memo[0] == fp.key:
                mat._csc_memo = None
        sk, key = fp.structure_key, fp.key
        self._plans = OrderedDict(
            (k, v) for k, v in self._plans.items() if sk not in k[:3]
        )
        self._bounds = OrderedDict(
            (k, v) for k, v in self._bounds.items() if sk not in k[1:4]
        )
        self._cscs.pop(key, None)
        self._dforms.pop(("dcsr",) + key, None)
        self._dforms.pop(("dcsc",) + key, None)
        self._digests = OrderedDict(
            (k, v) for k, v in self._digests.items() if k[0] not in (key, sk)
        )
        self._delta = OrderedDict(
            (k, v)
            for k, v in self._delta.items()
            if key not in (v.fa.key, v.fb.key) and sk != v.fm.structure_key
        )

    # -- plan cache ----------------------------------------------------
    def plan(
        self,
        a: CSR,
        b: CSR,
        mask: CSR,
        *,
        complement: bool = False,
        phases: Optional[int] = None,
        semiring_name: Optional[str] = None,
        counter: Optional[OpCounter] = None,
        machine=None,
        planner: Optional[Planner] = None,
        **plan_kwargs,
    ):
        """Plan via the session's planner, reusing a cached plan when the
        operands' structure and the forced knobs are unchanged.  Knobs
        left ``None`` fall back to :attr:`plan_defaults`.

        A per-call ``machine`` override is honoured and becomes part of
        the cache key (plans for different cost-model targets never mix);
        a per-call ``planner`` override (other than the session's own) is
        honoured but planned *uncached* — a foreign planner's knobs are
        not keyable, so its plans must not shadow the session's.
        """
        merged = dict(self.plan_defaults)
        merged.update({k: v for k, v in plan_kwargs.items() if v is not None})
        if planner is not None and planner is not self.planner:
            return planner.plan(
                a, b, mask, complement=complement, phases=phases, **merged
            )
        target = self.planner
        if machine is not None and not isinstance(machine, MachineConfig):
            machine = resolve_machine(machine)
        if machine is not None and machine != self.machine:
            target = Planner(machine)
        if not self.caching:
            return target.plan(
                a, b, mask, complement=complement, phases=phases, **merged
            )
        with self.call():  # a, b and mask are often one object
            key = (
                self.fingerprint(a).structure_key,
                self.fingerprint(b).structure_key,
                self.fingerprint(mask).structure_key,
                bool(complement),
                phases,
                semiring_name,
                target.machine,
                tuple(sorted(merged.items())),
            )
        pl = self._plans.get(key)
        if pl is not None:
            self._plans.move_to_end(key)
            self.plan_cache_hits += 1
            if counter is not None:
                counter.plan_cache_hits += 1
            return pl
        pl = target.plan(
            a, b, mask, complement=complement, phases=phases, **merged
        )
        self.plan_cache_misses += 1
        self._plans[key] = pl
        while len(self._plans) > self._plan_cache_size:
            self._plans.popitem(last=False)
        return pl

    # -- derived CSC ---------------------------------------------------
    def csc_of(self, mat: CSR, fp: Optional[Fingerprint] = None) -> CSC:
        """``CSC.from_csr(mat)``, transposing at most once per content.

        The result is memoised both in the session LRU and on the CSR
        object itself (``mat._csc_memo``, guarded by the fingerprint), so
        BC's backward sweep stops re-transposing a constant A even when
        the session turns over."""
        if not self.caching:
            return CSC.from_csr(mat)
        fp = self.fingerprint(mat) if fp is None else fp
        memo = getattr(mat, "_csc_memo", None)
        if memo is not None and memo[0] == fp.key:
            self.csc_cache_hits += 1
            self._cscs[fp.key] = memo[1]
            self._cscs.move_to_end(fp.key)
            return memo[1]
        csc = self._cscs.get(fp.key)
        if csc is not None:
            self._cscs.move_to_end(fp.key)
            self.csc_cache_hits += 1
            mat._csc_memo = (fp.key, csc)
            return csc
        csc = CSC.from_csr(mat)
        self.csc_cache_misses += 1
        mat._csc_memo = (fp.key, csc)
        self._cscs[fp.key] = csc
        while len(self._cscs) > self._csc_cache_size:
            self._cscs.popitem(last=False)
        return csc

    # -- doubly-compressed forms (sharded execution) -------------------
    def dcsr_of(self, mat: CSR, fp: Optional[Fingerprint] = None) -> DCSR:
        """``DCSR.from_csr(mat)``, compressing at most once per content.

        The sharded executor's A-side source form: row blocks slice out of
        it in ``O(log nzr + block nnz)``, so an iterative app compresses
        its (unchanged) operand once per session, not once per call."""
        return self._dform("dcsr", DCSR.from_csr, mat, fp)

    def dcsc_of(self, mat: CSR, fp: Optional[Fingerprint] = None) -> DCSC:
        """``DCSC.from_csr(mat)`` (a transpose + compress), memoised per
        content — the sharded executor's B-side source form."""
        return self._dform("dcsc", DCSC.from_csr, mat, fp)

    def _dform(self, kind: str, build, mat: CSR, fp):
        if not self.caching:
            return build(mat)
        fp = self.fingerprint(mat) if fp is None else fp
        key = (kind,) + fp.key
        hit = self._dforms.get(key)
        if hit is not None:
            self._dforms.move_to_end(key)
            self.shard_form_hits += 1
            return hit
        form = build(mat)
        self.shard_form_misses += 1
        self._dforms[key] = form
        while len(self._dforms) > self._csc_cache_size:
            self._dforms.popitem(last=False)
        return form

    # -- block digests / delta state (repro.engine.delta) --------------
    def block_digests(
        self,
        mat: CSR,
        *,
        fp: Optional[Fingerprint] = None,
        values: bool = True,
        block_rows: Optional[int] = None,
    ):
        """Chunked digest vector of ``mat``
        (:func:`repro.sparse.block_digests`), memoised per content — the
        delta engine digests each operand content at most once, so the
        unchanged side of a diff costs one LRU lookup."""
        from ..sparse.diff import DELTA_BLOCK_ROWS, block_digests

        br = DELTA_BLOCK_ROWS if block_rows is None else int(block_rows)
        if not self.caching:
            return block_digests(mat, block_rows=br, values=values)
        fp = self.fingerprint(mat) if fp is None else fp
        key = ((fp.key if values else fp.structure_key), br, values)
        hit = self._digests.get(key)
        if hit is not None:
            self._digests.move_to_end(key)
            return hit
        vec = block_digests(mat, block_rows=br, values=values)
        self._digests[key] = vec
        while len(self._digests) > self._fp_cache_size:
            self._digests.popitem(last=False)
        return vec

    def _delta_get(self, slot: tuple):
        state = self._delta.get(slot)
        if state is not None:
            self._delta.move_to_end(slot)
        return state

    def _delta_store(self, slot: tuple, state) -> None:
        self._delta[slot] = state
        self._delta.move_to_end(slot)
        while len(self._delta) > self._delta_cache_size:
            self._delta.popitem(last=False)

    # -- symbolic bounds -----------------------------------------------
    def one_phase_bound(self, a: CSR, b: CSR, mask: CSR, *, complement: bool):
        """Cached :func:`repro.core.symbolic.one_phase_bound` (pure
        structure function, charges no counters)."""
        from ..core.symbolic import one_phase_bound

        if not self.caching:
            return one_phase_bound(a, b, mask, complement=complement)
        key = self._bound_key("1p", a, b, mask, complement)
        hit = self._bounds.get(key)
        if hit is not None:
            self._bounds.move_to_end(key)
            self.bound_cache_hits += 1
            return hit
        result = one_phase_bound(a, b, mask, complement=complement)
        self.bound_cache_misses += 1
        self._store_bound(key, result)
        return result

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
        key = self._bound_key("2p", a, b, mask, complement)
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
        self._store_bound(key, (row_nnz, charged))
        return row_nnz

    def _bound_key(self, kind: str, a, b, mask, complement: bool) -> tuple:
        with self.call():
            return (
                kind,
                self.fingerprint(a).structure_key,
                self.fingerprint(b).structure_key,
                self.fingerprint(mask).structure_key,
                bool(complement),
            )

    def _store_bound(self, key: tuple, value) -> None:
        self._bounds[key] = value
        while len(self._bounds) > self._bound_cache_size:
            self._bounds.popitem(last=False)

    # -- segment registry ----------------------------------------------
    @property
    def segment_cache(self):
        """The session's :class:`~repro.parallel.segment_cache.SegmentCache`
        (created on first process-backend use)."""
        if self._segments is None:
            from ..parallel.segment_cache import SegmentCache

            kwargs = {}
            if self._segment_cache_bytes is not None:
                kwargs["max_bytes"] = int(self._segment_cache_bytes)
            self._segments = SegmentCache(**kwargs)
        return self._segments

    # -- telemetry -----------------------------------------------------
    def stats(self) -> dict:
        """Flat reuse-counter dict (the ``"session"`` key of ``metrics()``)."""
        out = {
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "csc_cache_hits": self.csc_cache_hits,
            "csc_cache_misses": self.csc_cache_misses,
            "shard_form_hits": self.shard_form_hits,
            "shard_form_misses": self.shard_form_misses,
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
        self._plans.clear()
        self._fps.clear()
        self._cscs.clear()
        self._dforms.clear()
        self._bounds.clear()
        self._digests.clear()
        self._delta.clear()

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
