"""Structured tracing & metrics spanning planner → executor → backends → kernels.

Quickstart::

    from repro.observe import tracing
    from repro.apps import triangle_count_detail

    with tracing() as tr:
        res = triangle_count_detail(g, algo="auto", backend="process")
    tr.to_chrome()                  # chrome://tracing / Perfetto JSON dict
    tr.to_metrics()                 # flat per-phase / per-counter summary
    print(tr.report())              # plan decisions next to measured spans

With no tracer installed every instrumented call site costs one attribute
check — see :mod:`repro.observe.tracer` for the contract and
``docs/observability.md`` for the span model and exporters.
"""

from .exporters import (
    METRICS_SCHEMA_VERSION,
    chrome_trace,
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
from .report import format_span_tree, report
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
    "write_chrome_trace",
    "write_metrics",
    "report",
    "format_span_tree",
    "LEDGER_SCHEMA_VERSION",
    "PREDICTION_KINDS",
    "prediction_rows",
    "misprediction_summary",
    "predictions",
    "format_predictions",
]
