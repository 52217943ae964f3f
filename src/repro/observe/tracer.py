"""Span-based tracer for the whole execution stack.

The paper's analysis attributes performance to *where the time goes* —
symbolic vs numeric phase (Section 4.4), per-accumulator and per-thread
breakdowns (Figures 8/12/16) — so the reproduction needs one instrument
that sees every layer: the planner's decisions, the engine's bands, the
parallel backends' partitions (including worker *processes*), and the
kernels themselves.  This module is that instrument.

Design constraints, in order:

1. **Tracing off must be free.**  Every instrumented call site performs
   exactly one module-attribute check (``_INSTALLED is None``) and
   allocates nothing on the disabled path.  The kernel micro-benchmarks
   bound the overhead at <2% (``tests/test_observe.py``).
2. **Spans nest and cross threads.**  Each thread keeps its own open-span
   stack (``threading.local``); finished spans are appended to one shared
   list under a lock, labelled with ``(pid, tid)`` so per-thread timelines
   reconstruct exactly.
3. **Spans cross processes.**  A worker in the shared-memory pool installs
   its own :class:`Tracer`, runs its partition, and ships the finished
   spans back as plain dicts next to its COO payload
   (:mod:`repro.parallel.pool`); the coordinator's tracer *ingests* them
   onto its own timeline.  ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on
   Linux — system-wide, so coordinator and worker timestamps are directly
   comparable (on platforms where it is per-process the worker spans still
   carry correct durations and pid labels, only their absolute placement
   shifts).
4. **Counters attach to spans.**  A span opened with a ``counter=`` takes
   an :class:`~repro.machine.OpCounter` snapshot on entry and stores the
   *delta* on exit, so per-phase operation totals (the paper's work
   decomposition) ride along with the wall times.

Exporters live in :mod:`repro.observe.exporters`; the human-readable
modeled-vs-measured report in :mod:`repro.observe.report`.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional


__all__ = [
    "Span",
    "Tracer",
    "current",
    "set_tracer",
    "tracing",
    "span",
    "annotate",
    "timed_span",
    "traced_kernel",
    "NULL_SPAN",
]


class Span:
    """One finished span: a named, attributed ``[t0, t1)`` interval."""

    __slots__ = (
        "span_id", "parent_id", "name", "t0", "t1",
        "attrs", "pid", "tid", "counters",
    )

    def __init__(self, span_id, parent_id, name, t0, t1, attrs, pid, tid, counters):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.attrs = attrs
        self.pid = pid
        self.tid = tid
        self.counters = counters

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        """Plain-dict form — what crosses the process boundary."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs,
            "pid": self.pid,
            "tid": self.tid,
            "counters": self.counters,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, {self.seconds * 1e3:.3f}ms, pid={self.pid})"


class _LiveSpan:
    """Context manager for an open span (internal)."""

    __slots__ = ("_tracer", "name", "attrs", "_counter", "_snap",
                 "span_id", "parent_id", "t0", "seconds")

    def __init__(self, tracer: "Tracer", name: str, attrs, counter):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs if attrs is not None else {}
        self._counter = counter
        self._snap = None
        self.span_id = 0
        self.parent_id = None
        self.t0 = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "_LiveSpan":
        tr = self._tracer
        stack = tr._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = next(tr._ids)
        stack.append(self)
        if self._counter is not None:
            self._snap = self._counter.snapshot()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        self.seconds = t1 - self.t0
        tr = self._tracer
        stack = tr._stack()
        # pop ourselves even if inner code misbehaved and left entries above
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        counters = None
        if self._counter is not None:
            counters = self._counter.diff(self._snap)
        attrs = self.attrs
        if exc_type is not None:
            attrs = dict(attrs)
            attrs["error"] = exc_type.__name__
        tr._record(
            Span(
                self.span_id, self.parent_id, self.name, self.t0, t1,
                attrs, tr.pid, threading.get_ident(), counters,
            )
        )
        return False


class _NullSpan:
    """Shared no-op span: the disabled-tracing path allocates nothing."""

    __slots__ = ()
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans from every thread of this process (and, via
    :meth:`ingest`, from worker processes)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    # ------------------------------------------------------------------
    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None,
             counter=None) -> _LiveSpan:
        """Open a span; use as a context manager."""
        return _LiveSpan(self, name, attrs, counter)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _record(self, sp: Span) -> None:
        with self._lock:
            self._spans.append(sp)

    def depth(self) -> int:
        """Open-span depth of the calling thread (0 = no open span)."""
        return len(self._stack())

    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def export(self) -> List[dict]:
        """Finished spans as plain dicts — picklable, JSON-able."""
        return [sp.as_dict() for sp in self.spans]

    def ingest(self, records: List[dict]) -> None:
        """Merge spans exported by another tracer (typically a worker
        process) onto this timeline.

        Span ids are remapped so they cannot collide with local ids;
        parent links *within* the ingested batch are preserved.  The
        records keep their original ``pid``/``tid`` labels — that is the
        point: the merged trace shows which worker did what, when.
        """
        remap: Dict[int, int] = {}
        fresh: List[Span] = []
        for rec in records:
            new_id = next(self._ids)
            remap[rec["span_id"]] = new_id
            fresh.append(
                Span(
                    new_id,
                    rec["parent_id"],  # fixed up below
                    rec["name"],
                    rec["t0"],
                    rec["t1"],
                    rec.get("attrs") or {},
                    rec["pid"],
                    rec["tid"],
                    rec.get("counters"),
                )
            )
        for sp in fresh:
            sp.parent_id = remap.get(sp.parent_id)
        with self._lock:
            self._spans.extend(fresh)

    # ------------------------------------------------------------------
    # convenience: delegate to the exporters without extra imports
    def to_chrome(self) -> dict:
        from .exporters import chrome_trace

        return chrome_trace(self)

    def to_metrics(self) -> dict:
        from .exporters import metrics

        return metrics(self)

    def report(self, plan=None) -> str:
        from .report import report

        return report(self, plan=plan)


# ----------------------------------------------------------------------
# the installed tracer (module global: one attribute read on the hot path)
# ----------------------------------------------------------------------
_INSTALLED: Optional[Tracer] = None


def current() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _INSTALLED


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with ``None``, uninstall) the process tracer; returns
    the previously installed one so callers can restore it."""
    global _INSTALLED
    prev = _INSTALLED
    _INSTALLED = tracer
    return prev


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """``with tracing() as tr:`` — enable tracing for the block.

    Everything the block executes (engine, backends, kernels, apps) records
    spans into ``tr``; the previous tracer (usually none) is restored on
    exit, even on error.
    """
    tr = tracer if tracer is not None else Tracer()
    prev = set_tracer(tr)
    try:
        yield tr
    finally:
        set_tracer(prev)


def span(name: str, attrs: Optional[Dict[str, Any]] = None, counter=None):
    """A span on the installed tracer, or the shared no-op span.

    For *cold* call sites (apps, engine setup).  Hot paths should check
    :func:`current` themselves so attribute dicts are not even built when
    tracing is off — see :func:`traced_kernel` for the pattern.
    """
    tr = _INSTALLED
    if tr is None:
        return NULL_SPAN
    return tr.span(name, attrs, counter)


def annotate(**attrs: Any) -> None:
    """Add attrs to the calling thread's innermost open span (no-op when
    tracing is off or no span is open): how code inside a span reports a
    decision it made there, e.g. a kernel's ``tier``."""
    tr = _INSTALLED
    if tr is not None:
        stack = tr._stack()
        if stack:
            stack[-1].attrs.update(attrs)


class timed_span:
    """A span that *always* measures wall time, traced or not.

    The apps need stage durations for their result objects
    (``spgemm_seconds`` etc.) regardless of tracing; this wrapper times the
    block with ``perf_counter`` and additionally records a real span when a
    tracer is installed — one code path instead of the old ad-hoc
    ``time.perf_counter()`` bookkeeping.  Read ``.seconds`` after the
    ``with`` block.
    """

    __slots__ = ("name", "attrs", "counter", "seconds", "_live", "_t0")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None,
                 counter=None) -> None:
        self.name = name
        self.attrs = attrs
        self.counter = counter
        self.seconds = 0.0
        self._live = None
        self._t0 = 0.0

    def __enter__(self) -> "timed_span":
        tr = _INSTALLED
        if tr is not None:
            self._live = tr.span(self.name, self.attrs, self.counter)
            self._live.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        if self._live is not None:
            self._live.__exit__(exc_type, exc, tb)
            self._live = None
        return False


def traced_kernel(algo: str) -> Callable:
    """Decorator giving a fast kernel a ``kernel.<algo>`` span.

    The wrapper is the kernels' disabled-path contract made concrete: one
    global read, and when no tracer is installed the kernel is entered
    directly — no dict, no context manager, nothing.  When tracing is on,
    the span carries the operand statistics the paper's per-kernel
    breakdowns need plus the kernel's :class:`OpCounter` delta.  The
    undecorated kernel stays reachable as ``fn.__wrapped__`` (the overhead
    test times both).
    """

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(a, b, mask, **kwargs):
            tr = _INSTALLED
            if tr is None:
                return fn(a, b, mask, **kwargs)
            attrs = {
                "algo": algo,
                "phase": "numeric",
                "rows": a.nrows,
                "nnz_a": a.nnz,
                "nnz_b": b.nnz,
                "nnz_mask": mask.nnz,
                "complement": bool(kwargs.get("complement", False)),
            }
            with tr.span("kernel." + algo, attrs, counter=kwargs.get("counter")):
                return fn(a, b, mask, **kwargs)

        return wrapper

    return deco
