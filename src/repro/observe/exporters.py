"""Trace exporters: Chrome trace-event JSON and a flat metrics summary.

Two machine-readable views of one :class:`~repro.observe.Tracer`:

* :func:`chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev.  Every span becomes a
  complete ("X") event on its ``(pid, tid)`` track, with its attributes and
  counter deltas under ``args``; worker processes get named tracks via
  metadata events, so the coordinator/worker decomposition of a
  process-backend run is visible at a glance.
* :func:`metrics` — a flat JSON-able dict: wall seconds aggregated by span
  name and by phase (symbolic/numeric — the paper's Section 4.4 split),
  operation-counter totals summed over *leaf* instrumentation (kernel and
  symbolic-sweep spans, which partition the work without double counting),
  a bytes-moved estimate from the machine model's word accounting, and —
  when micro-telemetry probes (:mod:`repro.observe.probes`) were enabled —
  the accumulator probe histograms under ``"probes"``.

Timestamps are ``perf_counter`` seconds; Chrome wants microseconds and only
relative placement matters, so the export rebases to the earliest span.
"""

from __future__ import annotations

import json
from typing import Dict, List

from . import probes as _probes
from . import runtime as _runtime
from .ledger import predictions as _predictions

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "chrome_trace",
    "metrics",
    "estimated_bytes_moved",
    "write_chrome_trace",
    "write_metrics",
]

#: version of the :func:`metrics` dict layout; bumped whenever a key is
#: renamed/removed or its meaning changes (additions do not bump it), so
#: downstream consumers of archived metrics JSON can dispatch on it
METRICS_SCHEMA_VERSION = 2  # 2: the "shards" census key is gone

#: span-name prefixes whose counter deltas partition the counted work:
#: every operation is charged inside exactly one of these spans, so summing
#: them reproduces the whole-run counter totals without double counting
#: (enclosing spans like ``engine.execute`` see the same operations again).
LEAF_PREFIXES = ("kernel.", "spgemm.symbolic")

_WORD_BYTES = 8  # one index or value word, as in the paper's traffic analysis


def _spans(tracer_or_spans) -> list:
    """Span list of a tracer / span sequence; ``None`` (no tracer was ever
    enabled) exports as cleanly as an empty trace."""
    if tracer_or_spans is None:
        return []
    spans = getattr(tracer_or_spans, "spans", tracer_or_spans)
    return list(spans)


def chrome_trace(tracer_or_spans) -> dict:
    """Trace Event Format dict (``json.dump`` it, load in Perfetto)."""
    spans = _spans(tracer_or_spans)
    base = min((sp.t0 for sp in spans), default=0.0)
    events: List[dict] = []
    seen_tracks = set()
    main_pid = getattr(tracer_or_spans, "pid", None)
    for sp in spans:
        if sp.pid not in seen_tracks:
            seen_tracks.add(sp.pid)
            label = (
                "coordinator" if main_pid is not None and sp.pid == main_pid
                else f"worker pid={sp.pid}"
            )
            events.append(
                {"ph": "M", "name": "process_name", "pid": sp.pid, "tid": 0,
                 "args": {"name": label}}
            )
        args = dict(sp.attrs)
        if sp.counters:
            args["counters"] = dict(sp.counters)
        events.append(
            {
                "name": sp.name,
                "cat": sp.name.split(".", 1)[0],
                "ph": "X",
                "ts": (sp.t0 - base) * 1e6,
                "dur": (sp.t1 - sp.t0) * 1e6,
                "pid": sp.pid,
                "tid": sp.tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def estimated_bytes_moved(counter_totals: Dict[str, int], machine=None) -> int:
    """Machine-model estimate of memory traffic for given counter totals.

    Word accounting in the spirit of Section 4: each evaluated product
    reads two operand words and each accumulator/mask/heap interaction
    touches one word; output nonzeros cost an index and a value word.  This
    is the same *count-to-traffic* substitution the cost model makes — an
    estimate for trend reading, not a hardware measurement (the real
    per-line traffic depends on locality, which
    :mod:`repro.machine.cache` simulates separately).
    """
    g = counter_totals.get
    words = (
        2 * g("flops", 0)
        + g("symbolic_flops", 0)
        + g("accum_inserts", 0)
        + g("accum_removes", 0)
        + g("accum_init", 0)
        + g("spa_resets", 0)
        + g("hash_probes", 0)
        + g("mask_scans", 0)
        + g("heap_pushes", 0)
        + g("heap_pops", 0)
        + 2 * g("output_nnz", 0)
    )
    word_bytes = _WORD_BYTES
    if machine is not None:
        # round traffic up to whole cache lines per word-burst, the
        # pessimistic end of the model's line-granularity assumption
        word_bytes = max(_WORD_BYTES, machine.line_bytes // 8)
    return int(words) * word_bytes


def metrics(tracer_or_spans, *, machine=None, probes=None, session=None,
            runtime=None) -> dict:
    """Flat metrics summary of a trace (see module docs).

    ``tracer_or_spans`` may be ``None`` (tracing was never enabled): the
    summary still carries its schema version plus whatever probe, session
    and runtime telemetry exists — observability outside ``trace()``
    blocks, not an error.

    ``probes`` may be a :class:`~repro.observe.probes.ProbeRegistry`; when
    omitted, the currently installed registry (if any) is used, so a
    ``with probing(): ... metrics(tr)`` block does the right thing.  The
    export lands under the ``"probes"`` key ({} when disabled), keyed by
    histogram name with power-of-two bucket counts plus exact
    count/total/max — see ``docs/observability.md`` for the schema.

    ``session`` may be an :class:`~repro.engine.ExecutionSession`; its
    cache telemetry (plan / CSC / bound hit counts, segment reuse and
    republished bytes) lands under the ``"session"`` key ({} when absent)
    — see ``docs/sessions.md``.

    ``runtime`` may be a :class:`~repro.observe.runtime.RuntimeSampler`;
    when omitted, the installed sampler (if any) is used.  Its ring-buffer
    export — RSS/shm/queue-depth series, worker heartbeat series, the
    drift-ready summary — lands under the ``"runtime"`` key ({} when no
    sampler ran).
    """
    if probes is None:
        probes = _probes.current()
    if runtime is None:
        runtime = _runtime.current()
    spans = _spans(tracer_or_spans)
    by_name: Dict[str, dict] = {}
    by_phase: Dict[str, float] = {}
    totals: Dict[str, int] = {}
    pids = set()
    for sp in spans:
        pids.add(sp.pid)
        agg = by_name.setdefault(sp.name, {"count": 0, "seconds": 0.0})
        agg["count"] += 1
        agg["seconds"] += sp.seconds
        phase = sp.attrs.get("phase")
        if phase is not None:
            by_phase[phase] = by_phase.get(phase, 0.0) + sp.seconds
        if sp.counters and any(sp.name.startswith(p) for p in LEAF_PREFIXES):
            for k, v in sp.counters.items():
                totals[k] = totals.get(k, 0) + v
    wall = 0.0
    if spans:
        wall = max(sp.t1 for sp in spans) - min(sp.t0 for sp in spans)
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "batch": _batch_census(spans),
        "predictions": _predictions(spans, machine=machine),
        "span_count": len(spans),
        "process_count": len(pids),
        "wall_seconds": wall,
        "seconds_by_name": by_name,
        "seconds_by_phase": by_phase,
        "counter_totals": totals,
        "bytes_moved_estimate": estimated_bytes_moved(totals, machine),
        "machine": getattr(machine, "name", None),
        "probes": probes.export() if probes is not None else {},
        "session": session.stats() if session is not None else {},
        "runtime": runtime.export() if runtime is not None else {},
    }


def _batch_census(spans) -> dict:
    """Batch tier + bucket census aggregated over the run's band spans.

    ``explain()`` shows the *planned* tiers; this is the executed view —
    which bands ran bucketed vs per-row and the size-class census of the
    bucketed ones (union over bands, rows per power-of-two bucket).
    """
    bands: List[dict] = []
    buckets: Dict[int, int] = {}
    tier_rows: Dict[str, int] = {}
    for sp in spans:
        if sp.name != "engine.band":
            continue
        a = sp.attrs
        tier = a.get("batch", "auto")
        rows = int(a.get("rows", 0) or 0)
        bands.append(
            {
                "band": a.get("band"),
                "algo": a.get("algo"),
                "batch": tier,
                "rows": rows,
                "buckets": dict(a.get("buckets") or {}),
            }
        )
        tier_rows[tier] = tier_rows.get(tier, 0) + rows
        for bid, n in (a.get("buckets") or {}).items():
            buckets[int(bid)] = buckets.get(int(bid), 0) + int(n)
    chunk_count = sum(1 for sp in spans if sp.name == "kernel.bucket")
    if not bands and not chunk_count:
        return {}
    return {
        "bands": bands,
        "rows_by_tier": tier_rows,
        "bucket_census": {str(k): buckets[k] for k in sorted(buckets)},
        "bucket_chunks": chunk_count,
    }


def write_chrome_trace(path, tracer_or_spans) -> None:
    """Write :func:`chrome_trace` output as JSON."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer_or_spans), fh, indent=1, default=_jsonable)


def write_metrics(path, tracer_or_spans, *, machine=None, probes=None,
                  session=None) -> None:
    """Write :func:`metrics` output as JSON."""
    with open(path, "w") as fh:
        json.dump(metrics(tracer_or_spans, machine=machine, probes=probes,
                          session=session),
                  fh, indent=1, default=_jsonable)


def _jsonable(obj):
    """Fallback serializer: NumPy scalars and stray objects to JSON."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)
