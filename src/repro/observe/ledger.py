"""Prediction ledger: the modeled→measured loop, closed per executed unit.

The planner annotates every :class:`~repro.engine.RowBand` with the cost
model's prediction (``est_cycles``/``est_bytes``); the executors stamp
those predictions — apportioned per work item, per batch-bucket chunk —
into the spans the tracer already records on all three backends (worker
spans arrive via :meth:`~repro.observe.Tracer.ingest`, predictions
riding in their attrs).  This module turns a finished trace into
*prediction rows*: one ``(modeled_cycles, modeled_bytes,
measured_seconds, counters, attrs)`` record per executed band, work
item, batch bucket and push/pull direction decision, plus a per-kind
misprediction summary (measured/modeled ratio, MAD of the log-ratios, a
systematic-bias flag).

The rows and their summary are what ``metrics()["predictions"]`` exports
and ``report()`` renders.  Nothing here runs unless a tracer was installed —
the disabled path of the span machinery is the disabled path of the
ledger.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from ..machine.config import MACHINES
from ..machine.host import HOST, HostProfile

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "PREDICTION_KINDS",
    "prediction_rows",
    "misprediction_summary",
    "predictions",
    "format_predictions",
]

LEDGER_SCHEMA_VERSION = 1

#: span name → ledger row kind.  ``engine.band`` covers a plan's row
#: bands, ``engine.cell`` the work items (band x row part x column panel)
#: they are cut into on every backend — the plain call is a band with no
#: item under it — ``kernel.bucket`` the batched tier's size-class chunks and
#: ``app.bfs.level`` the per-iteration push/pull decision.
PREDICTION_KINDS = {
    "engine.band": "band",
    "engine.cell": "cell",
    "kernel.bucket": "batch-bucket",
    "app.bfs.level": "spmv-direction",
    "engine.delta": "delta-patch",
}

#: coarse per-product cost (cycles/flop beyond the explicit terms) used to
#: model a batch-bucket chunk from its upper-bound flops alone — the chunk
#: span records flops, not a full cost-model breakdown.  Deliberately
#: simple: the misprediction table exists to *show* how wrong this is.
_BUCKET_FLOP_FACTOR = 3.0
_BUCKET_ROW_FACTOR = 4.0

#: median measured/modeled ratio beyond which the model is flagged as
#: systematically biased for a row kind (2x in either direction).
_BIAS_THRESHOLD = 2.0


def _spans(tracer_or_spans) -> list:
    spans = getattr(tracer_or_spans, "spans", tracer_or_spans)
    return list(spans)


def _resolve_machine(spans, machine):
    """The machine to convert modeled cycles to seconds with.

    Prefers the explicit argument; otherwise recovers the planning
    machine's name (a preset, or the host profile) from an
    ``engine.execute`` span's plan attrs.
    """
    if machine is not None:
        return machine
    for sp in spans:
        if sp.name == "engine.execute":
            plan = sp.attrs.get("plan") or {}
            name = plan.get("machine")
            if name in MACHINES:
                return MACHINES[name]
            if name == HOST.name:
                return HOST
    return None


def _bucket_cycles(attrs: Dict[str, Any], m) -> float:
    """Coarse modeled cycles for one batch-bucket chunk (0 — no prediction
    — under the host profile, which prices whole bands, not chunks)."""
    if isinstance(m, HostProfile):
        return 0.0
    flops = float(attrs.get("flops", 0) or 0)
    rows = float(attrs.get("rows", 0) or 0)
    return (
        flops * (m.flop_cycles + _BUCKET_FLOP_FACTOR * m.hit_cycles)
        + rows * _BUCKET_ROW_FACTOR * m.hit_cycles
    )


def prediction_rows(tracer_or_spans, *, machine=None) -> List[dict]:
    """One prediction row per executed band / work item / batch bucket /
    direction decision found in the trace.

    Each row carries the model's prediction next to the measurement::

        {"kind", "key", "algo", "modeled_cycles", "modeled_bytes",
         "modeled_seconds", "measured_seconds", "counters", "pid", "attrs"}

    ``modeled_seconds`` is ``None`` when no machine is known (pass
    ``machine=`` or trace through the engine so the plan's machine name is
    recoverable); rows with no prediction at all (forced bands planned
    without a cost sweep) keep ``modeled_cycles == 0.0`` and are excluded
    from ratio statistics but still counted.
    """
    spans = _spans(tracer_or_spans)
    m = _resolve_machine(spans, machine)
    rows: List[dict] = []
    for sp in spans:
        kind = PREDICTION_KINDS.get(sp.name)
        if kind is None:
            continue
        attrs = sp.attrs
        if kind == "band":
            key = f"band:{attrs.get('band')}"
            cycles = float(attrs.get("est_cycles", 0.0) or 0.0)
            bytes_ = float(attrs.get("est_bytes", 0.0) or 0.0)
        elif kind == "cell":
            cell = attrs.get("cell")
            key = "cell:" + (",".join(str(c) for c in cell) if cell else "?")
            cycles = float(attrs.get("est_cycles", 0.0) or 0.0)
            bytes_ = float(attrs.get("est_bytes", 0.0) or 0.0)
        elif kind == "delta-patch":
            key = f"delta:{attrs.get('rows_recomputed')}"
            cycles = float(attrs.get("est_cycles", 0.0) or 0.0)
            bytes_ = float(attrs.get("est_bytes", 0.0) or 0.0)
        elif kind == "batch-bucket":
            key = f"bucket:{attrs.get('bucket')}"
            cycles = _bucket_cycles(attrs, m) if m is not None else 0.0
            bytes_ = float(attrs.get("flops", 0) or 0) * 16.0
        else:  # spmv-direction
            key = f"level:{attrs.get('level')}"
            chosen = attrs.get("direction")
            cycles = float(
                attrs.get(
                    "est_pull_cycles" if chosen == "pull" else "est_push_cycles",
                    0.0,
                )
                or 0.0
            )
            bytes_ = 0.0
        row = {
            "kind": kind,
            "key": key,
            "algo": attrs.get("algo"),
            "modeled_cycles": cycles,
            "modeled_bytes": bytes_,
            "modeled_seconds": m.seconds(cycles) if m is not None else None,
            "measured_seconds": sp.seconds,
            "counters": dict(sp.counters) if sp.counters else None,
            "pid": sp.pid,
            "attrs": {
                k: v
                for k, v in attrs.items()
                if k
                in (
                    "band", "rows", "reason", "batch", "backend", "bucket",
                    "cell", "direction", "level", "frontier_density",
                    "decision_source", "rows_recomputed", "rows_patched",
                    "dirty_fraction",
                )
            },
        }
        rows.append(row)
    return rows


def misprediction_summary(rows: List[dict]) -> Dict[str, dict]:
    """Per-kind misprediction statistics over prediction rows.

    For every kind with at least one modeled+measured pair: the median
    measured/modeled ratio, the MAD of the log10 ratios, aggregate modeled
    and measured seconds, and a ``bias`` flag — ``"optimistic"`` when the
    model systematically undershoots (median ratio > 2), ``"pessimistic"``
    when it overshoots (median ratio < 0.5), else ``"centered"``.
    """
    by_kind: Dict[str, List[dict]] = {}
    for row in rows:
        by_kind.setdefault(row["kind"], []).append(row)
    out: Dict[str, dict] = {}
    for kind, group in sorted(by_kind.items()):
        ratios = []
        modeled_total = 0.0
        measured_total = 0.0
        for row in group:
            measured_total += row["measured_seconds"]
            ms = row["modeled_seconds"]
            if ms is not None:
                modeled_total += ms
                if ms > 0.0 and row["measured_seconds"] > 0.0:
                    ratios.append(row["measured_seconds"] / ms)
        entry: Dict[str, Any] = {
            "rows": len(group),
            "with_model": len(ratios),
            "measured_seconds": measured_total,
            "modeled_seconds": modeled_total,
        }
        if ratios:
            logs = sorted(math.log10(r) for r in ratios)
            med_log = _median(logs)
            mad = _median([abs(x - med_log) for x in logs])
            median_ratio = 10.0 ** med_log
            if median_ratio > _BIAS_THRESHOLD:
                bias = "optimistic"
            elif median_ratio < 1.0 / _BIAS_THRESHOLD:
                bias = "pessimistic"
            else:
                bias = "centered"
            entry.update(
                ratio_median=median_ratio,
                log10_ratio_mad=mad,
                bias=bias,
            )
        out[kind] = entry
    return out


def _median(values: List[float]) -> float:
    vals = sorted(values)
    n = len(vals)
    mid = n // 2
    if n % 2:
        return vals[mid]
    return 0.5 * (vals[mid - 1] + vals[mid])


def predictions(tracer_or_spans, *, machine=None) -> dict:
    """The full ledger payload: rows + summary (what ``metrics()`` exports
    under ``"predictions"`` and history records persist in summary form)."""
    rows = prediction_rows(tracer_or_spans, machine=machine)
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "rows": rows,
        "summary": misprediction_summary(rows),
    }


def format_predictions(payload: dict) -> str:
    """Render a :func:`predictions` payload as the per-band-type
    misprediction table ``report()`` embeds."""
    summary = payload.get("summary", {})
    if not summary:
        return "  (no prediction rows recorded)"
    lines = [
        f"  {'kind':<14s} {'rows':>5s} {'modeled':>11s} {'measured':>11s} "
        f"{'med ratio':>9s} {'mad(log10)':>10s}  bias"
    ]
    for kind, entry in summary.items():
        modeled = entry.get("modeled_seconds", 0.0)
        measured = entry.get("measured_seconds", 0.0)
        if entry.get("with_model"):
            ratio = f"{entry['ratio_median']:9.2f}"
            mad = f"{entry['log10_ratio_mad']:10.3f}"
            bias = entry["bias"]
        else:
            ratio, mad, bias = f"{'-':>9s}", f"{'-':>10s}", "n/a"
        lines.append(
            f"  {kind:<14s} {entry['rows']:>5d} {modeled * 1e3:9.3f} ms "
            f"{measured * 1e3:9.3f} ms {ratio} {mad}  {bias}"
        )
    return "\n".join(lines)
