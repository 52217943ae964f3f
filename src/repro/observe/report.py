"""Human-readable trace report: the plan's *why* next to the measured *what*.

:func:`report` interleaves an :class:`~repro.engine.ExecutionPlan`
explanation with the measured span tree, then closes with a
modeled-vs-measured comparison per planner decision — the gap the paper's
model-validation experiments quantify, surfaced per run instead of per
paper figure.  When micro-telemetry probes were enabled
(:mod:`repro.observe.probes`), a per-accumulator section summarizes each
histogram (count / mean / max plus the populated power-of-two buckets).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import probes as _probes
from . import runtime as _runtime
from .exporters import _batch_census
from .ledger import format_predictions, predictions
from .probes import BUCKET_LABELS

__all__ = ["report", "format_span_tree", "format_probes"]

#: counters worth echoing inline (the high-signal subset)
_KEY_COUNTERS = ("flops", "symbolic_flops", "output_nnz")


def format_span_tree(spans: List, *, main_pid: Optional[int] = None) -> str:
    """Indented per-(pid, tid) span tree, children under parents."""
    by_id = {sp.span_id: sp for sp in spans}
    children: Dict[Optional[int], list] = {}
    for sp in spans:
        parent = sp.parent_id if sp.parent_id in by_id else None
        children.setdefault(parent, []).append(sp)
    for kids in children.values():
        kids.sort(key=lambda s: s.t0)

    lines: List[str] = []

    def emit(sp, depth: int) -> None:
        extras = []
        for key in ("algo", "phase", "backend", "cell", "band", "rows",
                    "iteration", "depth"):
            if key in sp.attrs:
                extras.append(f"{key}={sp.attrs[key]}")
        if sp.counters:
            for key in _KEY_COUNTERS:
                if key in sp.counters:
                    extras.append(f"{key}={sp.counters[key]}")
        suffix = ("  [" + " ".join(extras) + "]") if extras else ""
        lines.append(
            f"  {'  ' * depth}{sp.name:<24s} {sp.seconds * 1e3:9.3f} ms{suffix}"
        )
        for kid in children.get(sp.span_id, ()):
            emit(kid, depth + 1)

    roots = children.get(None, [])
    tracks = sorted({(sp.pid, sp.tid) for sp in roots})
    for pid, tid in tracks:
        label = "coordinator" if main_pid is not None and pid == main_pid \
            else f"worker pid={pid}"
        lines.append(f"-- {label} (tid {tid}) " + "-" * 20)
        for sp in roots:
            if (sp.pid, sp.tid) == (pid, tid):
                emit(sp, 0)
    return "\n".join(lines)


def format_probes(export: dict) -> str:
    """Render a :meth:`~repro.observe.probes.ProbeRegistry.export` payload
    as an aligned table, one histogram per line, grouped by accumulator
    prefix (``hash.`` / ``msa.`` / ``mca.`` / ``heap.`` / ``mask.``)."""
    lines: List[str] = []
    for name in sorted(export):
        payload = export[name]
        count = int(payload.get("count", 0))
        total = int(payload.get("total", 0))
        vmax = int(payload.get("max", 0))
        mean = total / count if count else 0.0
        populated = [
            f"{BUCKET_LABELS[i]}:{c}"
            for i, c in enumerate(payload.get("buckets", ()))
            if c
        ]
        lines.append(
            f"  {name:<26s} n={count:<10d} mean={mean:8.2f} max={vmax:<8d} "
            + (" ".join(populated) if populated else "(empty)")
        )
    return "\n".join(lines)


def report(tracer, *, plan=None, probes=None, session=None,
           runtime=None) -> str:
    """Render a full trace report (plan, span tree, modeled vs measured,
    and — when a probe registry is installed or passed — the accumulator
    micro-telemetry histograms).  Passing an
    :class:`~repro.engine.ExecutionSession` adds a session-reuse section
    (plan-cache and segment-registry hit rates).

    ``tracer`` may be ``None`` — an *untraced* sessioned run still gets
    its session, pool and runtime telemetry sections, so cache behaviour
    is never invisible outside ``trace()`` blocks.  ``runtime`` may be a
    :class:`~repro.observe.runtime.RuntimeSampler` (default: the installed
    one); when present a "=== runtime ===" block summarises the sampled
    series and the worker fleet.
    """
    if probes is None:
        probes = _probes.current()
    if runtime is None:
        runtime = _runtime.current()
    spans = tracer.spans if tracer is not None else []
    lines: List[str] = []
    if plan is not None:
        lines.append("=== planned ===")
        lines.append(plan.explain())
        lines.append("")
    lines.append(f"=== measured ({len(spans)} spans) ===")
    if spans:
        lines.append(format_span_tree(spans, main_pid=getattr(tracer, "pid", None)))
    else:
        lines.append("  (no spans recorded)")

    if plan is not None and plan.estimates:
        measured = sum(
            sp.seconds for sp in spans if sp.name == "engine.execute"
        )
        if measured > 0.0:
            lines.append("")
            lines.append("=== modeled vs measured ===")
            best = min(plan.estimates.values())
            lines.append(
                f"  engine.execute measured {measured * 1e3:.3f} ms; "
                f"modeled best candidate {best * 1e3:.3f} ms "
                f"({'model optimistic' if best < measured else 'model pessimistic'} "
                f"by {max(measured, best) / max(min(measured, best), 1e-12):.1f}x)"
            )
            for algo, sec in sorted(plan.estimates.items(), key=lambda kv: kv[1]):
                lines.append(f"    candidate {algo:<7s} modeled {sec * 1e3:.3f} ms")

    batch = _batch_census(spans)
    if batch:
        lines.append("")
        lines.append("=== batch census (executed) ===")
        tiers = ", ".join(
            f"{tier}:{rows}" for tier, rows in sorted(batch["rows_by_tier"].items())
        )
        lines.append(f"  rows by tier: {tiers or '(none)'}")
        census = batch["bucket_census"]
        if census:
            top = sorted(census.items(), key=lambda kv: -kv[1])[:6]
            rendered = " ".join(f"2^{b}:{n}" for b, n in top)
            more = f" (+{len(census) - len(top)} more)" if len(census) > len(top) else ""
            lines.append(f"  bucket census: {rendered}{more}")
        if batch["bucket_chunks"]:
            lines.append(f"  bucketed chunks executed: {batch['bucket_chunks']}")

    preds = predictions(spans)
    if preds["rows"]:
        lines.append("")
        lines.append("=== prediction ledger (modeled vs measured) ===")
        lines.append(format_predictions(preds))

    if probes is not None:
        export = probes.export() if hasattr(probes, "export") else dict(probes)
        if export:
            lines.append("")
            lines.append("=== accumulator micro-telemetry ===")
            lines.append(format_probes(export))

    if session is not None:
        st = session.stats()
        lines.append("")
        lines.append("=== session reuse ===")
        lines.append(
            f"  digests         taken={st['fingerprint_digests']:<7d} "
            f"delta hits={st['delta_hits']} patches={st['delta_patches']} "
            f"fallbacks={st['delta_fallbacks']}"
        )
        lines.append(
            f"  csc memo        hits={st['csc_cache_hits']:<8d} "
            f"misses={st['csc_cache_misses']}"
        )
        lines.append(
            f"  symbolic bounds hits={st['bound_cache_hits']:<8d} "
            f"misses={st['bound_cache_misses']}"
        )
        lines.append(
            f"  shm segments    reused={st['segments_reused']:<6d} "
            f"published={st['segments_published']} "
            f"({st['bytes_published']} B fresh, "
            f"{st['bytes_republished']} B value rewrites)"
        )
        lines.append(
            f"  segment cache   entries={st['cached_entries']:<6d} "
            f"bytes={st['cached_bytes']}"
        )
        lines.append(f"  process pool    size={_pool_size()}")

    if runtime is not None:
        summary = runtime.summary()
        lines.append("")
        lines.append("=== runtime ===")
        lines.append(
            f"  sampled {summary['samples']} ticks @ "
            f"{summary['interval_s'] * 1e3:.0f} ms  "
            f"calls={summary['calls_completed']} "
            f"mean cpu={summary['mean_cpu_percent']:.1f}% "
            f"mean spans/s={summary['mean_spans_per_s']:.1f}"
        )
        lines.append(
            f"  peaks: rss={summary['peak_rss_bytes']:.0f} B "
            f"shm={summary['peak_shm_bytes']:.0f} B "
            f"segcache={summary['peak_segcache_bytes']:.0f} B "
            f"inflight={summary['peak_tasks_inflight']:.0f}"
        )
        stale = runtime.stale_workers()
        lines.append(
            f"  workers: {summary['workers_seen']} seen, "
            f"{summary['heartbeats']} heartbeats"
            + (f", STALE pids {stale}" if stale else "")
        )
        for w in runtime.fleet():
            lines.append(
                f"    pid {w['pid']:<8d} rss={w['rss_bytes']:.0f} B "
                f"(peak {w['peak_rss_bytes']:.0f}) cpu={w['cpu_seconds']:.2f} s "
                f"tasks={w['tasks_completed']} forms={w['cached_forms']}"
            )
    return "\n".join(lines)


def _pool_size() -> int:
    from ..parallel.pool import pool_size

    return pool_size()
