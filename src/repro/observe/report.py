"""Human-readable trace report: the plan's *why* next to the measured *what*.

:func:`report` interleaves an :class:`~repro.engine.ExecutionPlan`
explanation with the measured span tree, then closes with a
modeled-vs-measured comparison per planner decision — the gap the paper's
model-validation experiments quantify, surfaced per run instead of per
paper figure.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .ledger import format_predictions, predictions

__all__ = ["report", "format_span_tree"]

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


def report(tracer, *, plan=None) -> str:
    """Render a full trace report (plan, span tree, modeled vs measured).
    ``tracer`` may be ``None`` (tracing was never enabled): the report then
    shows the plan and an empty span section.
    """
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

    preds = predictions(spans)
    if preds["rows"]:
        lines.append("")
        lines.append("=== prediction ledger (modeled vs measured) ===")
        lines.append(format_predictions(preds))

    return "\n".join(lines)

