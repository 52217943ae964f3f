"""Prediction ledger: the modeled→measured loop, closed per executed unit.

The planner annotates every :class:`~repro.engine.RowBand` with the host
profile's prediction (``est_cycles``: predicted nanoseconds); the executors stamp
those predictions — apportioned per work item — into the spans the tracer
already records on all three backends (worker spans arrive via
:meth:`~repro.observe.Tracer.ingest`, predictions riding in their attrs).
This module turns a finished trace into *prediction rows*: one
``(modeled_cycles, measured_seconds, counters, attrs)``
record per executed band and work item, plus
a per-kind misprediction summary (measured/modeled ratio, MAD of the
log-ratios, a systematic-bias flag).

The rows and their summary are what ``metrics()["predictions"]`` exports
and ``report()`` renders.  Nothing here runs unless a tracer was installed —
the disabled path of the span machinery is the disabled path of the
ledger.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from ..machine.host import HOST

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "PREDICTION_KINDS",
    "prediction_rows",
    "misprediction_summary",
    "predictions",
    "format_predictions",
]

#: version of the :func:`predictions` payload (2: the ``modeled_bytes``
#: column is gone; 3: the ``spmv-direction`` kind is gone; 4: a cell key is
#: ``cell:<band>,<row part>``, with no column panel)
LEDGER_SCHEMA_VERSION = 4

#: span name → ledger row kind.  ``engine.band`` covers a plan's one row
#: band, ``engine.cell`` the row parts it is cut into under
#: ``backend="process"`` — the plain call is a band with no item under it.
PREDICTION_KINDS = {
    "engine.band": "band",
    "engine.cell": "cell",
}

#: median measured/modeled ratio beyond which the model is flagged as
#: systematically biased for a row kind (2x in either direction).
_BIAS_THRESHOLD = 2.0


def _spans(tracer_or_spans) -> list:
    """Span list of a tracer / span sequence; ``None`` (no tracer was ever
    enabled) reads as an empty trace."""
    if tracer_or_spans is None:
        return []
    spans = getattr(tracer_or_spans, "spans", tracer_or_spans)
    return list(spans)


def prediction_rows(tracer_or_spans) -> List[dict]:
    """One prediction row per executed band / work item found in the trace
    (``None``, no tracer ever enabled, has none).

    Each row carries the model's prediction next to the measurement::

        {"kind", "key", "algo", "modeled_cycles", "modeled_seconds",
         "measured_seconds", "counters", "pid", "attrs"}

    Plans are priced from the host profile, so ``modeled_cycles`` are
    nanoseconds and ``modeled_seconds`` is ``modeled_cycles * 1e-9``; rows
    with no prediction at all (forced bands planned without a cost sweep)
    keep ``modeled_cycles == 0.0`` and are excluded from ratio statistics
    but still counted.
    """
    rows: List[dict] = []
    for sp in _spans(tracer_or_spans):
        kind = PREDICTION_KINDS.get(sp.name)
        if kind is None:
            continue
        attrs = sp.attrs
        if kind == "band":
            key = f"band:{attrs.get('band')}"
        else:  # cell
            cell = attrs.get("cell")
            key = "cell:" + (",".join(str(c) for c in cell) if cell else "?")
        cycles = float(attrs.get("est_cycles", 0.0) or 0.0)
        row = {
            "kind": kind,
            "key": key,
            "algo": attrs.get("algo"),
            "modeled_cycles": cycles,
            "modeled_seconds": HOST.seconds(cycles),
            "measured_seconds": sp.seconds,
            "counters": dict(sp.counters) if sp.counters else None,
            "pid": sp.pid,
            "attrs": {
                k: v
                for k, v in attrs.items()
                if k
                in ("band", "rows", "reason", "backend", "cell")
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


def predictions(tracer_or_spans) -> dict:
    """The full ledger payload: rows + summary (what ``metrics()`` exports
    under ``"predictions"``)."""
    rows = prediction_rows(tracer_or_spans)
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
