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
  and the prediction ledger (:mod:`repro.observe.ledger`).

Timestamps are ``perf_counter`` seconds; Chrome wants microseconds and only
relative placement matters, so the export rebases to the earliest span.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .ledger import _spans, predictions as _predictions

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "chrome_trace",
    "metrics",
    "write_chrome_trace",
    "write_metrics",
]

#: version of the :func:`metrics` dict layout; bumped whenever a key is
#: renamed/removed or its meaning changes (additions do not bump it), so
#: downstream consumers of archived metrics JSON can dispatch on it
#: (2: the "shards" census key is gone; 3: the "runtime" key is gone;
#: 4: the "probes" key is gone; 5: the "batch" census key is gone;
#: 6: the "session" key is gone; 7: the "machine" key and the
#: bytes-moved estimate are gone)
METRICS_SCHEMA_VERSION = 7

#: span-name prefixes whose counter deltas partition the counted work:
#: every operation is charged inside exactly one of these spans, so summing
#: them reproduces the whole-run counter totals without double counting
#: (enclosing spans like ``engine.execute`` see the same operations again).
LEAF_PREFIXES = ("kernel.", "spgemm.symbolic")

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


def metrics(tracer_or_spans) -> dict:
    """Flat metrics summary of a trace (see module docs).

    ``tracer_or_spans`` may be ``None`` (tracing was never enabled): the
    summary then carries its schema version and empty aggregates —
    observability outside ``trace()`` blocks, not an error.
    """
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
        "predictions": _predictions(spans),
        "span_count": len(spans),
        "process_count": len(pids),
        "wall_seconds": wall,
        "seconds_by_name": by_name,
        "seconds_by_phase": by_phase,
        "counter_totals": totals,
    }


def write_chrome_trace(path, tracer_or_spans) -> None:
    """Write :func:`chrome_trace` output as JSON."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer_or_spans), fh, indent=1, default=_jsonable)


def write_metrics(path, tracer_or_spans) -> None:
    """Write :func:`metrics` output as JSON."""
    with open(path, "w") as fh:
        json.dump(metrics(tracer_or_spans), fh, indent=1, default=_jsonable)


def _jsonable(obj):
    """Fallback serializer: NumPy scalars and stray objects to JSON."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)
