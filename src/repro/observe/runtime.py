"""Continuous runtime telemetry: resource sampling, worker health, drift.

The tracer (:mod:`repro.observe.tracer`) sees *inside a traced call* —
spans, probes and the prediction ledger all start and stop with one
``masked_spgemm`` invocation.  The scaling behaviour the paper attributes
most parallel-efficiency loss to (memory pressure and load imbalance,
Buluç & Gilbert; per-thread memory footprint, Nagasaka et al.) lives
*between* calls: how the coordinator's RSS grows over a k-truss loop,
how many shared-memory bytes the session caches pin, whether one pool
worker is doing all the work.  This module is the always-on view:

* :class:`RuntimeSampler` — a coordinator-side daemon thread sampling at
  a configurable interval (default 250 ms) into fixed-size
  :class:`RingSeries` buffers: coordinator RSS/CPU (``/proc/self`` with a
  portable fallback), live shm segment count and bytes
  (:func:`repro.parallel.shm.active_segment_bytes`), session segment-cache
  occupancy, kernel-arena footprint, pool size, in-flight/completed task
  counts and spans/calls-per-second throughput.
* **Worker heartbeats** — each :class:`~repro.parallel.pool.Task` result
  optionally carries a compact heartbeat (pid, RSS, CPU seconds, tasks
  completed, cached segment attachments) that the coordinator ingests
  exactly like span/probe batches
  (:meth:`RuntimeSampler.ingest_heartbeats`) — per-worker health
  and load-balance series with zero extra IPC.  A staleness detector
  flags workers whose heartbeats stop arriving.
* **Live inspector** — ``python -m repro.observe top`` renders the ring
  buffers as a refreshing terminal dashboard (:func:`format_top`);
  ``--json`` streams newline-delimited snapshots.
* **Drift detection** — :func:`drift` compares a run's sampled
  peak-RSS/shm/throughput summary (and prediction-ledger ratio summaries)
  against per-``(scheme, case, backend)`` baselines accumulated in
  ``BENCH_history.json``, using the same MAD-sigma banding as
  :mod:`repro.bench.regress` — memory and latency anomalies that
  bitwise-equivalence tests cannot see.

Design contract, same as the tracer's: **sampling off must be (nearly)
free**.  Every instrumented call site performs one module-attribute check
(``_INSTALLED is None``) and allocates nothing on the disabled path;
heartbeats are only requested from workers while a sampler is installed.
Sampling never changes results — the sampler only *reads* process and
cache state, so a sampled run is bit-for-bit identical to an unsampled
one (``tests/test_runtime.py`` enforces both properties).
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from . import tracer as _tracer

__all__ = [
    "RUNTIME_SCHEMA_VERSION",
    "DEFAULT_INTERVAL_S",
    "DEFAULT_CAPACITY",
    "DEFAULT_STALE_AFTER_S",
    "DRIFT_METRICS",
    "RingSeries",
    "RuntimeSampler",
    "current",
    "set_sampler",
    "sampling",
    "process_rss_bytes",
    "process_cpu_seconds",
    "worker_heartbeat",
    "drift",
    "drift_against_history",
    "format_top",
]

RUNTIME_SCHEMA_VERSION = 1

#: default sampling interval — coarse enough to stay invisible next to
#: kernel work, fine enough to catch a k-truss round's RSS ramp
DEFAULT_INTERVAL_S = 0.25

#: ring-buffer capacity per series (at the default interval: ~2 minutes)
DEFAULT_CAPACITY = 512

#: a worker whose last heartbeat is older than this while tasks have been
#: dispatched since is flagged stale
DEFAULT_STALE_AFTER_S = 5.0

#: the sampled-summary metrics :func:`drift` bands (higher-is-worse for
#: the byte metrics, lower-is-worse for throughput)
DRIFT_METRICS = ("peak_rss_bytes", "peak_shm_bytes", "mean_spans_per_s")


# ----------------------------------------------------------------------
# portable process statistics
# ----------------------------------------------------------------------
def _page_size() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        return 4096


_PAGE_SIZE = _page_size()


def process_rss_bytes() -> int:
    """Current resident-set size of this process, in bytes.

    Reads ``/proc/self/statm`` (resident pages × page size) on Linux; the
    portable fallback is ``resource.getrusage`` — note that ``ru_maxrss``
    is a *peak*, not a current value, so on non-/proc platforms the RSS
    series is monotone (still the right signal for peak-memory drift).
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):  # pragma: no cover - no /proc
        try:
            import resource

            return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
        except Exception:
            return 0


def process_cpu_seconds() -> float:
    """User+system CPU seconds of this process (portable, monotonic)."""
    return time.process_time()


def worker_heartbeat(*, tasks_completed: int, cached_forms: int) -> dict:
    """One compact worker heartbeat — what rides back with a task result.

    A few dozen bytes next to a COO payload; the coordinator ingests it
    via :meth:`RuntimeSampler.ingest_heartbeats`.
    """
    return {
        "pid": os.getpid(),
        "rss_bytes": process_rss_bytes(),
        "cpu_seconds": process_cpu_seconds(),
        "tasks_completed": int(tasks_completed),
        "cached_forms": int(cached_forms),
        "t": time.perf_counter(),
    }


# ----------------------------------------------------------------------
# ring-buffer time series
# ----------------------------------------------------------------------
class RingSeries:
    """Fixed-size ring buffer of ``(t, value)`` samples.

    Appending past capacity overwrites the oldest sample — a sampler that
    runs for hours keeps a bounded window, never an unbounded log.
    """

    __slots__ = ("capacity", "_t", "_v", "_n", "_head", "vmax", "vsum", "count")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._t: List[float] = []
        self._v: List[float] = []
        self._n = 0
        self._head = 0
        #: exact peak / sum / count over *all* samples ever appended —
        #: peaks survive the window scrolling past them
        self.vmax = 0.0
        self.vsum = 0.0
        self.count = 0

    def append(self, t: float, value: float) -> None:
        v = float(value)
        if self._n < self.capacity:
            self._t.append(float(t))
            self._v.append(v)
            self._n += 1
        else:
            self._t[self._head] = float(t)
            self._v[self._head] = v
            self._head = (self._head + 1) % self.capacity
        if v > self.vmax:
            self.vmax = v
        self.vsum += v
        self.count += 1

    def __len__(self) -> int:
        return self._n

    def times(self) -> List[float]:
        """Sample times, oldest first."""
        return self._t[self._head:] + self._t[: self._head]

    def values(self) -> List[float]:
        """Sample values, oldest first."""
        return self._v[self._head:] + self._v[: self._head]

    @property
    def last(self) -> float:
        if self._n == 0:
            return 0.0
        return self._v[(self._head + self._n - 1) % self.capacity]

    @property
    def mean(self) -> float:
        """Mean over all samples ever appended (not just the window)."""
        return self.vsum / self.count if self.count else 0.0

    def export(self) -> dict:
        return {"t": self.times(), "v": self.values(),
                "max": self.vmax, "mean": self.mean, "count": self.count}


# ----------------------------------------------------------------------
# the sampler
# ----------------------------------------------------------------------
#: coordinator-side series names, in display order
SERIES_NAMES = (
    "rss_bytes",
    "cpu_percent",
    "shm_segments",
    "shm_bytes",
    "segcache_entries",
    "segcache_bytes",
    "arena_bytes",
    "pool_size",
    "tasks_inflight",
    "tasks_completed",
    "spans_per_s",
    "calls_per_s",
)


class _Worker:
    """Per-worker health state assembled from ingested heartbeats."""

    __slots__ = ("pid", "rss", "cpu_seconds", "tasks_completed",
                 "cached_forms", "heartbeats", "last_seen")

    def __init__(self, pid: int, capacity: int) -> None:
        self.pid = pid
        self.rss = RingSeries(capacity)
        self.cpu_seconds = 0.0
        self.tasks_completed = 0
        self.cached_forms = 0
        self.heartbeats = 0
        self.last_seen = 0.0

    def as_dict(self, now: float) -> dict:
        return {
            "pid": self.pid,
            "rss_bytes": self.rss.last,
            "peak_rss_bytes": self.rss.vmax,
            "cpu_seconds": self.cpu_seconds,
            "tasks_completed": self.tasks_completed,
            "cached_forms": self.cached_forms,
            "heartbeats": self.heartbeats,
            "age_s": max(0.0, now - self.last_seen),
        }


class RuntimeSampler:
    """Continuous coordinator-side telemetry into ring-buffer series.

    Start/stop the background thread with :meth:`start`/:meth:`stop`, or
    use the :func:`sampling` context manager, which also installs the
    sampler as the process-global one (so the engine, the pool and the
    exporters find it with one attribute check).  All public reads are
    safe while sampling runs (one lock guards the series).
    """

    def __init__(
        self,
        *,
        interval_s: float = DEFAULT_INTERVAL_S,
        capacity: int = DEFAULT_CAPACITY,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.interval_s = float(interval_s)
        self.capacity = int(capacity)
        self.stale_after_s = float(stale_after_s)
        self.series: Dict[str, RingSeries] = {
            name: RingSeries(self.capacity) for name in SERIES_NAMES
        }
        self._workers: Dict[int, _Worker] = {}
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self.started_at = time.perf_counter()
        self.samples = 0
        self.heartbeats_ingested = 0
        #: completed engine calls (bumped by the executor's one-check hook)
        self.calls_completed = 0
        # rate bookkeeping between ticks
        self._last_t: Optional[float] = None
        self._last_cpu = 0.0
        self._last_spans = 0
        self._last_calls = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "RuntimeSampler":
        """Start the sampling thread (idempotent); samples once eagerly so
        even a short-lived run has at least one sample."""
        if self._thread is not None:
            return self
        self._stop_event.clear()
        self.started_at = time.perf_counter()
        self.sample_once()
        self._thread = threading.Thread(
            target=self._loop, name="repro-runtime-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample (idempotent)."""
        th = self._thread
        if th is not None:
            self._stop_event.set()
            th.join(timeout=max(2.0, 4 * self.interval_s))
            self._thread = None
        self.sample_once()

    def _loop(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop_event.wait(self.interval_s):
            try:
                self.sample_once()
            except Exception:
                # a failed sample must never kill the workload's process
                pass

    # -- sampling ------------------------------------------------------
    def note_call(self) -> None:
        """One completed engine call (the executor's disabled-path-cheap
        hook); feeds the ``calls_per_s`` throughput series."""
        self.calls_completed += 1

    def sample_once(self, now: Optional[float] = None) -> dict:
        """Take one sample of every series; returns the tick's values."""
        # lazy imports: keep repro.observe import-light and cycle-free
        from ..core.kernels.arena import all_arena_stats
        from ..parallel import shm as _shm
        from ..parallel.pool import pool_stats
        from ..parallel.segment_cache import live_cache_stats

        t = time.perf_counter() if now is None else float(now)
        rss = process_rss_bytes()
        cpu = process_cpu_seconds()
        tr = _tracer.current()
        spans = tr.span_count() if tr is not None else self._last_spans
        calls = self.calls_completed
        if self._last_t is not None and t > self._last_t:
            dt = t - self._last_t
            cpu_percent = max(0.0, (cpu - self._last_cpu) / dt * 100.0)
            spans_per_s = max(0.0, (spans - self._last_spans) / dt)
            calls_per_s = max(0.0, (calls - self._last_calls) / dt)
        else:
            cpu_percent = spans_per_s = calls_per_s = 0.0
        self._last_t, self._last_cpu = t, cpu
        self._last_spans, self._last_calls = spans, calls

        seg_names = _shm.active_segments()
        cache = live_cache_stats()
        arena = all_arena_stats()
        pool = pool_stats()
        tick = {
            "rss_bytes": float(rss),
            "cpu_percent": cpu_percent,
            "shm_segments": float(len(seg_names)),
            "shm_bytes": float(_shm.active_segment_bytes()),
            "segcache_entries": float(cache["cached_entries"]),
            "segcache_bytes": float(cache["cached_bytes"]),
            "arena_bytes": float(arena["nbytes"]),
            "pool_size": float(pool["size"]),
            "tasks_inflight": float(pool["tasks_inflight"]),
            "tasks_completed": float(pool["tasks_completed"]),
            "spans_per_s": spans_per_s,
            "calls_per_s": calls_per_s,
        }
        with self._lock:
            for name, value in tick.items():
                self.series[name].append(t, value)
            self.samples += 1
        return tick

    # -- worker health -------------------------------------------------
    def ingest_heartbeats(self, beats: Sequence[Optional[dict]]) -> None:
        """Merge worker heartbeats shipped back with task results.

        Mirrors :meth:`~repro.observe.Tracer.ingest` /
        :meth:`~repro.observe.probes.ProbeRegistry.ingest`: the pool's
        callers hand the per-task heartbeat batch straight in.  ``None``
        entries (tasks run with heartbeats off) are skipped.
        """
        now = time.perf_counter()
        with self._lock:
            for hb in beats:
                if not hb:
                    continue
                pid = int(hb["pid"])
                w = self._workers.get(pid)
                if w is None:
                    w = self._workers[pid] = _Worker(pid, self.capacity)
                w.rss.append(now, float(hb.get("rss_bytes", 0)))
                w.cpu_seconds = float(hb.get("cpu_seconds", 0.0))
                w.tasks_completed = int(hb.get("tasks_completed", 0))
                w.cached_forms = int(hb.get("cached_forms", 0))
                w.heartbeats += 1
                w.last_seen = now
                self.heartbeats_ingested += 1

    def fleet(self, now: Optional[float] = None) -> List[dict]:
        """Per-worker health rows (sorted by pid), from ingested heartbeats."""
        t = time.perf_counter() if now is None else float(now)
        with self._lock:
            return [self._workers[pid].as_dict(t) for pid in sorted(self._workers)]

    def worker_pids(self) -> List[int]:
        with self._lock:
            return sorted(self._workers)

    def stale_workers(self, now: Optional[float] = None) -> List[int]:
        """Pids whose last heartbeat is older than ``stale_after_s``.

        A worker only emits heartbeats while tasks flow, so staleness is
        meaningful during dispatch (a pid that stops reporting while its
        siblings keep reporting) and at its plainest when a worker died —
        its heartbeats stop while the pool still lists it.
        """
        t = time.perf_counter() if now is None else float(now)
        with self._lock:
            return sorted(
                pid for pid, w in self._workers.items()
                if (t - w.last_seen) > self.stale_after_s
            )

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict:
        """One flat dict of the latest sample + fleet — what ``top --json``
        streams (newline-delimited) and the dashboard renders."""
        now = time.perf_counter()
        with self._lock:
            latest = {name: s.last for name, s in self.series.items()}
        return {
            "schema_version": RUNTIME_SCHEMA_VERSION,
            "t": now,
            "uptime_s": now - self.started_at,
            "samples": self.samples,
            "interval_s": self.interval_s,
            **latest,
            "calls_completed": self.calls_completed,
            "workers": self.fleet(now),
            "stale_pids": self.stale_workers(now),
        }

    def export(self) -> dict:
        """Full ring-buffer export — the ``"runtime"`` section of
        :func:`repro.observe.metrics`."""
        now = time.perf_counter()
        with self._lock:
            series = {name: s.export() for name, s in self.series.items()}
            workers = {
                str(pid): {
                    **self._workers[pid].as_dict(now),
                    "rss_series": self._workers[pid].rss.export(),
                }
                for pid in sorted(self._workers)
            }
        return {
            "schema_version": RUNTIME_SCHEMA_VERSION,
            "interval_s": self.interval_s,
            "capacity": self.capacity,
            "samples": self.samples,
            "series": series,
            "workers": workers,
            "stale_pids": self.stale_workers(now),
            "summary": self.summary(),
        }

    def summary(self) -> dict:
        """Compact scalars for history records and :func:`drift` — exact
        peaks/means over the whole run, not just the ring window."""
        with self._lock:
            s = self.series
            worker_peak = max(
                (w.rss.vmax for w in self._workers.values()), default=0.0
            )
            return {
                "samples": self.samples,
                "interval_s": self.interval_s,
                "peak_rss_bytes": s["rss_bytes"].vmax,
                "peak_shm_bytes": s["shm_bytes"].vmax,
                "peak_segcache_bytes": s["segcache_bytes"].vmax,
                "peak_worker_rss_bytes": worker_peak,
                "peak_tasks_inflight": s["tasks_inflight"].vmax,
                "mean_cpu_percent": s["cpu_percent"].mean,
                "mean_spans_per_s": s["spans_per_s"].mean,
                "mean_calls_per_s": s["calls_per_s"].mean,
                "calls_completed": self.calls_completed,
                "workers_seen": len(self._workers),
                "heartbeats": self.heartbeats_ingested,
            }


# ----------------------------------------------------------------------
# the installed sampler (module global: one attribute read on hot paths)
# ----------------------------------------------------------------------
_INSTALLED: Optional[RuntimeSampler] = None


def current() -> Optional[RuntimeSampler]:
    """The installed sampler, or ``None`` when runtime telemetry is off."""
    return _INSTALLED


def set_sampler(sampler: Optional[RuntimeSampler]) -> Optional[RuntimeSampler]:
    """Install (or with ``None``, uninstall) the process sampler; returns
    the previously installed one so callers can restore it."""
    global _INSTALLED
    prev = _INSTALLED
    _INSTALLED = sampler
    return prev


@contextmanager
def sampling(sampler: Optional[RuntimeSampler] = None, **kwargs):
    """``with sampling() as rt:`` — continuous telemetry for the block.

    Installs (and starts) a :class:`RuntimeSampler` for the duration;
    keyword arguments construct the sampler when none is passed.  The
    previous sampler (usually none) is restored on exit, even on error,
    and the thread is always stopped.
    """
    rt = sampler if sampler is not None else RuntimeSampler(**kwargs)
    prev = set_sampler(rt)
    rt.start()
    try:
        yield rt
    finally:
        set_sampler(prev)
        rt.stop()


# ----------------------------------------------------------------------
# drift detection against benchmark-history baselines
# ----------------------------------------------------------------------
#: MAD -> sigma for normally distributed noise (same constant as
#: :mod:`repro.bench.regress` — the two gates must band identically)
_MAD_SIGMA = 1.4826


def _median(values: List[float]) -> float:
    vals = sorted(values)
    n = len(vals)
    mid = n // 2
    if n % 2:
        return vals[mid]
    return 0.5 * (vals[mid - 1] + vals[mid])


def _band(median: float, mad: float, *, k_mad: float, min_rel: float,
          max_rel: float) -> float:
    """The regression gate's band formula, applied to a sampled metric:
    ``clamp(k_mad * 1.4826 * MAD, min_rel * median, max_rel * median)``."""
    scale = abs(median)
    return min(max(k_mad * _MAD_SIGMA * mad, min_rel * scale),
               max(max_rel, min_rel) * scale)


def _metric_row(head: Optional[float], baseline: List[float], *, k_mad: float,
                min_rel: float, max_rel: float) -> dict:
    if head is None or not baseline:
        return {"head": head, "status": "no-baseline",
                "baseline_n": len(baseline)}
    med = _median(baseline)
    mad = _median([abs(v - med) for v in baseline])
    band = _band(med, mad, k_mad=k_mad, min_rel=min_rel, max_rel=max_rel)
    delta = head - med
    if delta > band:
        status = "high"
    elif delta < -band:
        status = "low"
    else:
        status = "ok"
    return {
        "head": head,
        "base_median": med,
        "base_mad": mad,
        "band": band,
        "delta": delta,
        "status": status,
        "baseline_n": len(baseline),
    }


def drift(
    head_summary: dict,
    baseline_summaries: Sequence[dict],
    *,
    head_ledger: Optional[dict] = None,
    baseline_ledgers: Optional[Sequence[dict]] = None,
    k_mad: Optional[float] = None,
    min_rel: Optional[float] = None,
    max_rel: Optional[float] = None,
) -> dict:
    """Drift verdict for one run's sampled summary against baselines.

    ``head_summary`` is :meth:`RuntimeSampler.summary`;
    ``baseline_summaries`` the accumulated summaries of the matching
    ``(scheme, case, backend)`` key across prior history runs (see
    :func:`repro.bench.history.runtime_summaries`).  Each metric in
    :data:`DRIFT_METRICS` is banded with the regression gate's MAD-sigma
    formula; ``peak_*`` metrics flag when *high* (memory anomaly),
    throughput flags when *low* (latency anomaly).

    ``head_ledger`` / ``baseline_ledgers`` optionally add the prediction
    ledger's per-kind ``ratio_median`` summaries
    (:func:`repro.observe.ledger.misprediction_summary`); those compare in
    log10 space, so a model that drifts from 1.1x to 4x off flags the same
    way in either direction.

    Verdict: ``"drift"`` when any metric flags in its bad direction,
    ``"no-baseline"`` when nothing could be compared, else ``"ok"``.
    """
    # the regression gate's defaults, shared lazily (no import cycle —
    # bench imports observe, so observe must not import bench eagerly)
    from ..bench import regress as _regress

    k_mad = _regress.DEFAULT_K_MAD if k_mad is None else float(k_mad)
    min_rel = _regress.DEFAULT_MIN_REL if min_rel is None else float(min_rel)
    max_rel = _regress.DEFAULT_MAX_REL if max_rel is None else float(max_rel)

    metrics: Dict[str, dict] = {}
    flagged: List[str] = []
    compared = 0
    for name in DRIFT_METRICS:
        head = head_summary.get(name)
        base = [
            float(s[name]) for s in baseline_summaries
            if s is not None and s.get(name) is not None
        ]
        row = _metric_row(
            None if head is None else float(head), base,
            k_mad=k_mad, min_rel=min_rel, max_rel=max_rel,
        )
        bad = "low" if name == "mean_spans_per_s" else "high"
        row["bad_direction"] = bad
        metrics[name] = row
        if row["status"] != "no-baseline":
            compared += 1
            if row["status"] == bad:
                flagged.append(name)

    if head_ledger and baseline_ledgers:
        for kind in sorted(head_ledger):
            head_entry = head_ledger.get(kind) or {}
            ratio = head_entry.get("ratio_median")
            base = [
                float((lg.get(kind) or {}).get("ratio_median"))
                for lg in baseline_ledgers
                if lg and (lg.get(kind) or {}).get("ratio_median")
            ]
            if ratio is None or not base or ratio <= 0:
                continue
            row = _metric_row(
                math.log10(float(ratio)),
                [math.log10(v) for v in base if v > 0],
                k_mad=k_mad, min_rel=min_rel, max_rel=max_rel,
            )
            # a log10 ratio drifting either way means the model's error
            # moved; both directions flag
            row["bad_direction"] = "any"
            name = f"ledger:{kind}:log10_ratio"
            metrics[name] = row
            if row["status"] != "no-baseline":
                compared += 1
                if row["status"] in ("high", "low"):
                    flagged.append(name)

    if compared == 0:
        verdict = "no-baseline"
    elif flagged:
        verdict = "drift"
    else:
        verdict = "ok"
    return {
        "schema_version": RUNTIME_SCHEMA_VERSION,
        "verdict": verdict,
        "k_mad": k_mad,
        "min_rel": min_rel,
        "max_rel": max_rel,
        "flagged": flagged,
        "metrics": metrics,
    }


def drift_against_history(
    head_summary: dict,
    history,
    *,
    scheme: str,
    case: str,
    backend: str = "serial",
    threads: int = 1,
    head_ledger: Optional[dict] = None,
    **band_kwargs,
) -> dict:
    """:func:`drift` against the baselines stored in a history payload.

    ``history`` is a loaded ``BENCH_history.json`` payload (or a path to
    one); baselines are every record matching the ``(scheme, case,
    backend, threads)`` key across **all** runs that carried a
    ``"runtime"`` summary (collected with ``python -m repro.bench.history
    --sample-runtime``).
    """
    from ..bench.history import load_history, runtime_summaries

    if isinstance(history, (str, os.PathLike)):
        history = load_history(history)
    key = f"{scheme}|{case}|{backend}|{threads}"
    summaries, ledgers = runtime_summaries(history, key)
    return drift(
        head_summary, summaries,
        head_ledger=head_ledger, baseline_ledgers=ledgers,
        **band_kwargs,
    )


# ----------------------------------------------------------------------
# terminal rendering (the `top` inspector)
# ----------------------------------------------------------------------
_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _spark(values: Sequence[float], width: int = 48) -> str:
    """Sparkline of the last ``width`` values (empty string when none)."""
    vals = list(values)[-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK_CHARS[0] * len(vals)
    steps = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[int(round((v - lo) / span * steps))] for v in vals
    )


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{n:.1f} GB"  # pragma: no cover - unreachable


def format_top(sampler: RuntimeSampler, *, width: int = 48) -> str:
    """Render the sampler's ring buffers as one dashboard frame.

    Fleet table + sparkline series + cache/arena gauges; what
    ``python -m repro.observe top`` refreshes and tests snapshot.
    """
    s = sampler.series
    now = time.perf_counter()
    lines: List[str] = []
    lines.append(
        f"repro runtime top — interval {sampler.interval_s * 1e3:.0f} ms, "
        f"samples {sampler.samples}, uptime {now - sampler.started_at:.1f} s"
    )
    lines.append(
        f"coordinator  rss {_fmt_bytes(s['rss_bytes'].last):>10s}  "
        f"cpu {s['cpu_percent'].last:5.1f}%  "
        f"calls/s {s['calls_per_s'].last:6.2f}  "
        f"spans/s {s['spans_per_s'].last:8.1f}"
    )
    for name, label in (
        ("rss_bytes", "rss"),
        ("shm_bytes", "shm"),
        ("tasks_inflight", "queue"),
        ("spans_per_s", "spans/s"),
    ):
        lines.append(f"  {label:<8s} {_spark(s[name].values(), width)}")
    lines.append(
        f"  shm {int(s['shm_segments'].last)} segments "
        f"{_fmt_bytes(s['shm_bytes'].last)}  |  "
        f"segcache {int(s['segcache_entries'].last)} entries "
        f"{_fmt_bytes(s['segcache_bytes'].last)}  |  "
        f"arena {_fmt_bytes(s['arena_bytes'].last)}"
    )
    lines.append(
        f"  pool {int(s['pool_size'].last)} workers  "
        f"inflight {int(s['tasks_inflight'].last)}  "
        f"tasks done {int(s['tasks_completed'].last)}"
    )
    fleet = sampler.fleet(now)
    stale = set(sampler.stale_workers(now))
    lines.append(f"workers ({len(fleet)}, {len(stale)} stale):")
    if fleet:
        lines.append(
            f"  {'pid':>8s} {'rss':>10s} {'peak rss':>10s} {'cpu s':>8s} "
            f"{'tasks':>6s} {'forms':>6s} {'age':>7s}"
        )
        for w in fleet:
            mark = " STALE" if w["pid"] in stale else ""
            lines.append(
                f"  {w['pid']:>8d} {_fmt_bytes(w['rss_bytes']):>10s} "
                f"{_fmt_bytes(w['peak_rss_bytes']):>10s} "
                f"{w['cpu_seconds']:>8.2f} {w['tasks_completed']:>6d} "
                f"{w['cached_forms']:>6d} {w['age_s']:>6.1f}s{mark}"
            )
    else:
        lines.append("  (no worker heartbeats yet)")
    return "\n".join(lines)
