"""Statistical regression gate over benchmark history runs.

``python -m repro.bench.regress`` compares a *head* run (a fresh
collection, or a ``BENCH_<sha>.json`` artifact) against a *baseline* (the
newest run of ``BENCH_history.json``, or another single-run artifact) and
renders a machine-readable verdict plus a human table.

The gate is deliberately robust rather than clever.  Per matched key::

    delta = head_median - base_median
    noise = 1.4826 * max(base_mad, head_mad)
    band  = clamp(k_mad * noise,
                  lo = min_rel * base_median,
                  hi = max_rel * base_median)
    regressed  iff  delta >  band
    improved   iff  delta < -band

``1.4826 * MAD`` is the consistent sigma estimator for normal noise, so
``k_mad`` reads as "how many sigmas of measured run-to-run noise".  The
``min_rel`` floor keeps near-zero-MAD records (tiny cases whose repeats
quantise identically) from turning scheduler jitter into verdicts, and the
``max_rel`` ceiling caps how much a noisy tiny case can excuse — however
wild the repeats looked, a 2x median shift is never written off as noise.
The defaults (``k_mad=5``, ``min_rel=0.25``, ``max_rel=0.5``) make the two
acceptance anchors hold deterministically: an injected 2x slowdown
(``delta = 1.0 * base``) always clears the <=0.5*base band, while
re-running an identical tree (``delta = 0``) never does.

Counters travel with every comparison: when a key regresses in time but
its operation counters are unchanged, the report says so — that signature
means the *machine* (or the noise model) moved, not the algorithm.

Exit codes: 0 clean, 1 regression verdict, 2 usage/malformed input.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

from .history import SCHEMA_VERSION, latest_run, record_key
from .reporting import render_table

__all__ = [
    "DEFAULT_K_MAD",
    "DEFAULT_MIN_REL",
    "DEFAULT_MAX_REL",
    "compare_records",
    "compare_runs",
    "render_report",
    "main",
]

DEFAULT_K_MAD = 5.0
DEFAULT_MIN_REL = 0.25
DEFAULT_MAX_REL = 0.5

#: MAD -> sigma for normally distributed noise
_MAD_SIGMA = 1.4826


def compare_records(
    base: dict, head: dict, *, k_mad: float = DEFAULT_K_MAD,
    min_rel: float = DEFAULT_MIN_REL, max_rel: float = DEFAULT_MAX_REL,
) -> dict:
    """One key's comparison row (see module docs for the band formula)."""
    base_median = float(base["median_s"])
    head_median = float(head["median_s"])
    noise = _MAD_SIGMA * max(float(base.get("mad_s", 0.0)),
                             float(head.get("mad_s", 0.0)))
    band = min(max(k_mad * noise, min_rel * base_median),
               max(max_rel, min_rel) * base_median)
    delta = head_median - base_median
    if delta > band:
        status = "regressed"
    elif delta < -band:
        status = "improved"
    else:
        status = "ok"
    return {
        "key": record_key(base),
        "base_median_s": base_median,
        "head_median_s": head_median,
        "delta_s": delta,
        "band_s": band,
        "ratio": head_median / base_median if base_median > 0 else float("inf"),
        "status": status,
        "counters_changed": base.get("counters") != head.get("counters"),
        # sessioned records carry segment-registry telemetry; a shift there
        # with unchanged counters means the reuse regressed, not the kernels
        "cache_changed": base.get("session") != head.get("session"),
    }


def compare_runs(
    base_run: dict, head_run: dict, *, k_mad: float = DEFAULT_K_MAD,
    min_rel: float = DEFAULT_MIN_REL, max_rel: float = DEFAULT_MAX_REL,
) -> dict:
    """Full verdict payload for two runs (pure — no I/O, unit-testable)."""
    base_by_key: Dict[str, dict] = {
        record_key(r): r for r in base_run.get("records", [])
    }
    head_by_key: Dict[str, dict] = {
        record_key(r): r for r in head_run.get("records", [])
    }
    comparisons: List[dict] = []
    for key in sorted(base_by_key.keys() & head_by_key.keys()):
        comparisons.append(
            compare_records(base_by_key[key], head_by_key[key],
                            k_mad=k_mad, min_rel=min_rel, max_rel=max_rel)
        )
    missing = sorted(base_by_key.keys() - head_by_key.keys())
    added = sorted(head_by_key.keys() - base_by_key.keys())
    regressions = [c["key"] for c in comparisons if c["status"] == "regressed"]
    improvements = [c["key"] for c in comparisons if c["status"] == "improved"]
    base_env = base_run.get("env", {})
    head_env = head_run.get("env", {})
    env_mismatch = sorted(
        k for k in (set(base_env) | set(head_env)) - {"git_sha"}
        if base_env.get(k) != head_env.get(k)
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "verdict": "regression" if regressions else "ok",
        "k_mad": k_mad,
        "min_rel": min_rel,
        "max_rel": max_rel,
        "base_sha": base_env.get("git_sha", "unknown"),
        "head_sha": head_env.get("git_sha", "unknown"),
        "env_mismatch": env_mismatch,
        "regressions": regressions,
        "improvements": improvements,
        "missing_in_head": missing,
        "new_in_head": added,
        "comparisons": comparisons,
    }


def _change_note(c: dict) -> str:
    """Cause attribution suffix for a non-ok row: counters changed means
    the algorithm did different work; cache counters changed (with stable
    work counters) points at the session's segment registry instead."""
    if c["status"] == "ok":
        return ""
    if c["counters_changed"]:
        return " (counters changed)"
    if c.get("cache_changed"):
        return " (cache counters changed)"
    return ""


def render_report(verdict: dict) -> str:
    """The human half of the verdict: one table row per compared key."""
    rows = []
    for c in verdict["comparisons"]:
        rows.append([
            {"ok": " ", "improved": "+", "regressed": "!"}[c["status"]],
            c["key"],
            f"{c['base_median_s'] * 1e3:.3f}",
            f"{c['head_median_s'] * 1e3:.3f}",
            f"{c['ratio']:.2f}x",
            f"{c['band_s'] * 1e3:.3f}",
            c["status"] + _change_note(c),
        ])
    lines = [render_table(
        ["", "key", "base ms", "head ms", "ratio", "band ms", "status"],
        rows,
        title=(f"regress: {verdict['base_sha'][:12]} -> "
               f"{verdict['head_sha'][:12]} "
               f"(k_mad={verdict['k_mad']:g}, min_rel={verdict['min_rel']:g})"),
    )]
    if verdict["env_mismatch"]:
        lines.append(
            "warning: environment differs between runs: "
            + ", ".join(verdict["env_mismatch"])
        )
    for label, keys in (("missing in head", verdict["missing_in_head"]),
                        ("new in head", verdict["new_in_head"])):
        if keys:
            lines.append(f"note: {label}: " + ", ".join(keys))
    lines.append(f"verdict: {verdict['verdict'].upper()}"
                 + (f" ({len(verdict['regressions'])} key(s))"
                    if verdict["regressions"] else ""))
    return "\n".join(lines)


def _load_run(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    return latest_run(payload)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regress",
        description="Gate head benchmark timings against a history baseline.",
    )
    parser.add_argument("--baseline", required=True,
                        help="BENCH_history.json (its newest run) or a "
                             "single BENCH_<sha>.json artifact")
    parser.add_argument("--head",
                        help="head run artifact; omitted = collect fresh")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats for a fresh head collection")
    parser.add_argument("--k-mad", type=float, default=DEFAULT_K_MAD,
                        help="noise-band width in MAD-sigmas")
    parser.add_argument("--min-rel", type=float, default=DEFAULT_MIN_REL,
                        help="relative band floor")
    parser.add_argument("--max-rel", type=float, default=DEFAULT_MAX_REL,
                        help="relative band ceiling (noise can never excuse "
                             "more than this fraction of the baseline)")
    parser.add_argument("--json", dest="json_out",
                        help="also write the verdict payload here")
    args = parser.parse_args(argv)

    try:
        base_run = _load_run(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load baseline {args.baseline}: {exc}",
              file=sys.stderr)
        return 2
    if args.head is not None:
        try:
            head_run = _load_run(args.head)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load head {args.head}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        from .history import collect_run

        if args.repeats < 1:
            parser.error("--repeats must be >= 1")
        head_run = collect_run(repeats=args.repeats)

    verdict = compare_runs(base_run, head_run, k_mad=args.k_mad,
                           min_rel=args.min_rel, max_rel=args.max_rel)
    print(render_report(verdict))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(verdict, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.abspath(args.json_out)}")
    return 1 if verdict["verdict"] == "regression" else 0


if __name__ == "__main__":
    sys.exit(main())
