"""Session reuse A/B: shared vs per-call execution sessions.

The tentpole claim of the execution-session layer, asserted end to end:
running the paper's iterative workloads (k-truss Section 8.3, batched BC
Section 8.4) with one long-lived :class:`~repro.engine.ExecutionSession`
must

* produce **bit-for-bit identical** results to the cold-start path
  (always asserted, any machine), while
* actually hitting the caches — ``segments_reused`` on the process
  backend strictly positive — and
* run **measurably faster** than cold starts on the process backend,
  where republishing every operand each call is the dominant per-call
  overhead.  The speedup assertion is gated on ``cpu_count >= 4``: on
  smaller machines the process pool exists but parallel wins (and hence
  stable timing contrast) do not.

Both arms use *identical* plan knobs (same ``plan_defaults``), so the
measured delta is purely cross-call persistence: the cold arm opens a
fresh session per call and closes it (memos and shm segments all drop
between calls — exactly what ``session=None`` apps do today),
while the warm arm shares one session across every call.

Each test writes a ``.json`` twin carrying the timings and the warm
session's cache telemetry so a results directory documents the reuse,
not just the ratio.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.apps import betweenness_centrality, ktruss
from repro.engine import ExecutionSession
from repro.graphs import rmat
from repro.machine import OpCounter
from repro.parallel import process_backend_available, shutdown_pool

MANY_CORES = (os.cpu_count() or 1) >= 4

#: both arms run the same forced-parallel process-backend plans; only the
#: session lifetime differs
PLAN_DEFAULTS = {"threads": 4, "backend": "process"}


def _ab_timing(run, repeats=3):
    """(best_cold_s, best_warm_s, warm_stats, cold_result, warm_result).

    ``run(session)`` executes one app call.  Cold arm: a fresh session per
    call, closed after it.  Warm arm: all ``repeats`` calls share one
    session, so later passes hit the caches exactly as an iterative
    caller's would.
    """
    cold_best, cold_res = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        with ExecutionSession(plan_defaults=dict(PLAN_DEFAULTS)) as s:
            cold_res = run(s)
        cold_best = min(cold_best, time.perf_counter() - t0)
    warm_best, warm_res = float("inf"), None
    with ExecutionSession(plan_defaults=dict(PLAN_DEFAULTS)) as session:
        for _ in range(repeats):
            t0 = time.perf_counter()
            warm_res = run(session)
            warm_best = min(warm_best, time.perf_counter() - t0)
        stats = session.stats()
    return cold_best, warm_best, stats, cold_res, warm_res


def test_ktruss_session_reuse(benchmark, save_result):
    """Shared-session k-truss: structure shrinks every round inside a call,
    so cross-call wins come from the segments of the identical iteration
    sequence the next call replays."""
    if not process_backend_available():
        import pytest

        pytest.skip("no process backend")
    g = rmat(10, seed=13)
    counter = OpCounter()

    def run(session):
        return ktruss(g, 5, algo="auto", counter=counter, session=session)

    try:
        cold_s, warm_s, stats, cold, warm = benchmark.pedantic(
            lambda: _ab_timing(run), rounds=1, iterations=1
        )
    finally:
        shutdown_pool()

    assert np.array_equal(warm.truss.to_dense(), cold.truss.to_dense())
    assert warm.iterations == cold.iterations
    assert stats["segments_reused"] > 0
    assert counter.segments_reused > 0

    data = {
        "graph": "rmat-10", "k": 5, "plan_defaults": PLAN_DEFAULTS,
        "cold_best_s": cold_s, "warm_best_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "session": stats,
    }
    save_result(
        f"k-truss (k=5, rmat-10, process backend): "
        f"per-call session {cold_s * 1e3:.1f} ms, shared {warm_s * 1e3:.1f} ms "
        f"({data['speedup']:.2f}x); "
        f"segments reused {stats['segments_reused']}",
        data=data, title="session reuse — k-truss",
    )
    if MANY_CORES:
        assert warm_s < cold_s, (
            f"shared-session k-truss not faster: {warm_s:.4f}s vs {cold_s:.4f}s"
        )


def test_bc_session_reuse(benchmark, save_result):
    """Shared-session batched BC: the paper's best case — ``A`` and ``A^T``
    are constant across every level of every call, so after the first call
    the big operands are served entirely from the segment registry.  (The
    CSC memo stays cold on purpose — ``docs/sessions.md``: a digest costs
    more than the transpose a hit would save, so no call takes one for it.)"""
    if not process_backend_available():
        import pytest

        pytest.skip("no process backend")
    g = rmat(10, seed=17)
    counter = OpCounter()

    def run(session):
        return betweenness_centrality(
            g, batch_size=64, algo="auto", seed=1,
            counter=counter, session=session,
        )

    try:
        cold_s, warm_s, stats, cold, warm = benchmark.pedantic(
            lambda: _ab_timing(run), rounds=1, iterations=1
        )
    finally:
        shutdown_pool()

    assert np.array_equal(warm.centrality, cold.centrality)
    assert warm.depth == cold.depth
    assert stats["segments_reused"] > 0
    assert counter.segments_reused > 0

    data = {
        "graph": "rmat-10", "batch": 64, "plan_defaults": PLAN_DEFAULTS,
        "cold_best_s": cold_s, "warm_best_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "session": stats,
    }
    save_result(
        f"BC (batch 64, rmat-10, process backend): "
        f"per-call session {cold_s * 1e3:.1f} ms, shared {warm_s * 1e3:.1f} ms "
        f"({data['speedup']:.2f}x); "
        f"segments reused {stats['segments_reused']}, "
        f"csc hits {stats['csc_cache_hits']}",
        data=data, title="session reuse — betweenness centrality",
    )
    if MANY_CORES:
        assert warm_s < cold_s, (
            f"shared-session BC not faster: {warm_s:.4f}s vs {cold_s:.4f}s"
        )
