"""Structured tracing & metrics spanning planner → executor → backends → kernels.

Quickstart::

    from repro.observe import tracing
    from repro.apps import triangle_count_detail

    with tracing() as tr:
        res = triangle_count_detail(g, algo="auto", backend="process")
    tr.to_chrome()                  # chrome://tracing / Perfetto JSON dict
    tr.to_metrics()                 # flat per-phase / per-counter summary
    print(tr.report())              # plan decisions next to measured spans

Accumulator micro-telemetry (probe-chain lengths, heap inspection counts,
touched-cell ratios) is collected separately by :mod:`repro.observe.probes`::

    from repro.observe import probing

    with probing() as pr:
        res = triangle_count_detail(g, algo="hash")
    pr.export()                     # histograms: buckets + count/total/max

With no tracer installed every instrumented call site costs one attribute
check — see :mod:`repro.observe.tracer` for the contract and
``docs/observability.md`` for the span model, probe histograms and
exporters.
"""

from .exporters import (
    METRICS_SCHEMA_VERSION,
    chrome_trace,
    estimated_bytes_moved,
    metrics,
    write_chrome_trace,
    write_metrics,
)
from .ledger import (
    LEDGER_SCHEMA_VERSION,
    PREDICTION_KINDS,
    format_predictions,
    misprediction_summary,
    prediction_rows,
    predictions,
)
from .probes import (
    BUCKET_LABELS,
    NBUCKETS,
    Histogram,
    ProbeRegistry,
    bucket_index,
    probing,
    set_probes,
)
from .report import format_probes, format_span_tree, report
from .tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    current,
    set_tracer,
    span,
    timed_span,
    traced_kernel,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "current",
    "set_tracer",
    "tracing",
    "span",
    "timed_span",
    "traced_kernel",
    "NULL_SPAN",
    "METRICS_SCHEMA_VERSION",
    "chrome_trace",
    "metrics",
    "estimated_bytes_moved",
    "write_chrome_trace",
    "write_metrics",
    "report",
    "format_span_tree",
    "format_probes",
    "LEDGER_SCHEMA_VERSION",
    "PREDICTION_KINDS",
    "prediction_rows",
    "misprediction_summary",
    "predictions",
    "format_predictions",
    "Histogram",
    "ProbeRegistry",
    "probing",
    "set_probes",
    "bucket_index",
    "NBUCKETS",
    "BUCKET_LABELS",
]
