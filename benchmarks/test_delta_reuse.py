"""Delta reuse A/B: incremental k-truss iterations vs full recomputes.

The tentpole claim of the incremental engine (``docs/incremental.md``),
asserted end to end on the Fig. 10 R-MAT case:

* the default k-truss (``delta="auto"``: support decrement, priced per
  round) is **bit-for-bit identical** to the full-recompute run, with the
  flops each round ran reported (always asserted, any machine), and
* a *late* iteration — a handful of edges pruned from a scale-10 R-MAT
  adjacency — runs **at least 2x faster** through the delta patch than
  through a full sessioned recompute of the same product.  The speedup
  assertion is gated on ``cpu_count >= 4`` like the session-reuse A/B:
  tiny machines time too noisily to hold a ratio.

Both arms share every other knob: the same session machinery, the same
planner, the same operands.  The measured contrast is purely "recompute
the dirty rows" vs "recompute every row" — the per-iteration work the
``rows_recomputed`` counter certifies.

The late iteration is synthesised by alternating between the adjacency
and a copy with a few tail (low-degree) edges removed, so *every* timed
call is a small-delta patch against the previous call's state — exactly
the shape of a k-truss iteration near its fixed point.  Tail edges matter:
R-MAT hub columns fan a delta out to most rows, which is the fallback
regime, not the patch regime (``docs/incremental.md``).

Each test writes a ``.json`` twin carrying the timings and the delta
counters so a results directory documents the saved work, not just the
ratio.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.apps import ktruss
from repro.core import masked_spgemm
from repro.engine import ExecutionSession
from repro.graphs import rmat
from repro.machine import OpCounter
from repro.parallel import shutdown_pool
from repro.sparse import CSR

MANY_CORES = (os.cpu_count() or 1) >= 4

REPEATS = 6


def _drop_tail_edges(g: CSR, count: int) -> CSR:
    """Remove the last stored entry of the ``count`` highest-index
    nonempty rows — a small structural delta away from R-MAT hubs."""
    rows = np.flatnonzero(np.diff(g.indptr) > 0)[-count:]
    keep = np.ones(g.nnz, dtype=bool)
    for r in rows:
        keep[int(g.indptr[r + 1]) - 1] = False
    removed = np.cumsum(~keep)
    indptr = g.indptr.copy()
    indptr[1:] = g.indptr[1:] - removed[np.maximum(g.indptr[1:] - 1, 0)]
    return CSR(g.shape, indptr, g.indices[keep], g.data[keep],
               sorted_indices=True)


def _ab_timing(g: CSR, g2: CSR, repeats: int = REPEATS):
    """(best_full_s, best_delta_s, delta_counter, full_res, delta_res).

    Both arms warm a session on ``g`` then alternate ``g2``/``g`` so
    every timed call changes the operands by the same small edge set.
    The delta arm patches; the full arm recomputes every row.
    """
    ops = [g2 if i % 2 == 0 else g for i in range(repeats)]

    full_best, full_res = float("inf"), None
    with ExecutionSession() as sess:
        masked_spgemm(g, g, g, algo="auto", session=sess)
        for op in ops:
            t0 = time.perf_counter()
            r = masked_spgemm(op, op, op, algo="auto", session=sess)
            full_best = min(full_best, time.perf_counter() - t0)
            if op is g2:
                full_res = r

    counter = OpCounter()
    delta_best, delta_res = float("inf"), None
    with ExecutionSession() as sess:
        masked_spgemm(g, g, g, algo="auto", session=sess, delta="auto")
        for op in ops:
            t0 = time.perf_counter()
            r = masked_spgemm(op, op, op, algo="auto", session=sess,
                              delta="auto", counter=counter)
            delta_best = min(delta_best, time.perf_counter() - t0)
            if op is g2:
                delta_res = r
    return full_best, delta_best, counter, full_res, delta_res


def test_ktruss_delta_identical(benchmark, save_result):
    """Default (support-decrement) k-truss == full-recompute k-truss, bit
    for bit, with the flops each round ran as the saved-work certificate."""
    g = rmat(10, seed=13)

    def run():
        base = ktruss(g, 5, algo="auto", session=False, delta=None)
        with ExecutionSession() as sess:
            res = ktruss(g, 5, algo="auto", session=sess, delta="auto")
        return base, res

    base, res = benchmark.pedantic(run, rounds=1, iterations=1)
    for got, want in zip(res.truss.segment_arrays(), base.truss.segment_arrays()):
        assert np.array_equal(got, want)
    assert np.array_equal(res.support, base.support)
    assert res.iterations == base.iterations
    assert res.edges_per_iter == base.edges_per_iter
    assert res.flops < base.flops
    data = {
        "graph": "rmat-10", "k": 5, "iterations": res.iterations,
        "edges_per_iter": res.edges_per_iter,
        "flops_per_iter": res.flops_per_iter,
        "flops_per_iter_full": base.flops_per_iter,
        "delta_fallbacks": res.counter.delta_fallbacks,
    }
    save_result(
        f"k-truss (k=5, rmat-10) delta=auto vs delta=None: identical over "
        f"{res.iterations} rounds; flops per round {res.flops_per_iter} "
        f"vs {base.flops_per_iter}",
        data=data, title="delta reuse — k-truss identity",
    )


def test_ktruss_delta_late_iteration_speedup(benchmark, save_result):
    """A late k-truss iteration (4 tail edges pruned on the Fig. 10
    scale-10 R-MAT) through the delta patch vs a full sessioned
    recompute: >= 2x, gated on ``cpu_count >= 4``."""
    g = rmat(10, seed=13)
    g2 = _drop_tail_edges(g, 4)

    try:
        full_s, delta_s, counter, full_res, delta_res = benchmark.pedantic(
            lambda: _ab_timing(g, g2), rounds=1, iterations=1
        )
    finally:
        shutdown_pool()

    # bit-identical always, speedup only where timing is trustworthy
    assert np.array_equal(delta_res.indptr, full_res.indptr)
    assert np.array_equal(delta_res.indices, full_res.indices)
    assert np.array_equal(delta_res.data, full_res.data)
    assert counter.delta_fallbacks == 0
    assert counter.rows_patched > 0
    # every timed delta call recomputed a small fraction of the rows
    assert counter.rows_recomputed < REPEATS * g.nrows // 2

    speedup = full_s / delta_s if delta_s > 0 else float("inf")
    data = {
        "graph": "rmat-10", "edges_changed": 4, "repeats": REPEATS,
        "full_best_s": full_s, "delta_best_s": delta_s, "speedup": speedup,
        "rows_recomputed": counter.rows_recomputed,
        "rows_patched": counter.rows_patched,
        "delta_fallbacks": counter.delta_fallbacks,
    }
    save_result(
        f"late k-truss iteration (rmat-10, 4 tail edges): full recompute "
        f"{full_s * 1e3:.2f} ms, delta patch {delta_s * 1e3:.2f} ms "
        f"({speedup:.1f}x); rows recomputed {counter.rows_recomputed} over "
        f"{REPEATS} calls of {g.nrows} rows",
        data=data, title="delta reuse — late-iteration speedup",
    )
    if MANY_CORES:
        assert speedup >= 2.0, (
            f"delta patch not >=2x faster: full {full_s:.4f}s vs "
            f"delta {delta_s:.4f}s"
        )
