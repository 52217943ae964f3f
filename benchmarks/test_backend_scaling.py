"""Benchmark — serial vs thread vs process backend wall-clock scaling.

In process, parallelism is the native row loops' own OpenMP threads: a
``thread`` run is one kernel call on the ``threads=`` it passes, which its
plan records (a ``serial`` run on one thread, whatever ``threads=``
says).  The process backend is the
one fan-out: worker processes with shared-memory operands, one thread
each, which is also what a NumPy-tier call (which holds the GIL between
array passes) can use.  This bench measures the R-MAT triangle-counting
SpGEMM (``L .* (L @ L)``, the paper's TC workload) under all three backends
at 1/2/4/8 workers and records the results as JSON in
``benchmarks/results/``.

Honesty policy (same as test_real_threads.py): this container may be
single-core, where *no* backend can win in wall clock.  The speedup
assertion (process >= 1.5x serial at 4 workers, an ISSUE acceptance
criterion) therefore only fires when the host actually has >= 4 CPUs;
otherwise the numbers are recorded for inspection and only sanity bounds
are enforced.  Bitwise equality across backends is asserted always.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.engine import execute, plan
from repro.graphs import rmat
from repro.parallel import active_segments, shutdown_pool
from repro.semiring import PLUS_PAIR

WORKER_COUNTS = (1, 2, 4, 8)
BACKENDS = ("serial", "thread", "process")


def _tc_operands(scale=10, seed=9):
    """Lower-triangular R-MAT adjacency: the TC masked-SpGEMM operand."""
    g = rmat(scale, seed=seed)
    low = g.pattern().tril(-1)
    return low


def _timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_backend_scaling_rmat_tc(benchmark, results_dir, save_result):
    low = _tc_operands()

    def spgemm(backend, workers):
        pl = plan(low, low, low, algo="msa", threads=workers, backend=backend)
        return execute(pl, low, low, low, semiring=PLUS_PAIR)

    def run():
        # warm the process pool once so spawn cost is not charged to the
        # per-call numbers (the persistent pool amortises it in real use;
        # spawn is recorded separately)
        t0 = time.perf_counter()
        spgemm("process", max(WORKER_COUNTS))
        spawn_seconds = time.perf_counter() - t0
        times = {}
        for backend in BACKENDS:
            for workers in WORKER_COUNTS:
                if backend == "serial" and workers > 1:
                    continue  # serial ignores worker count
                times[(backend, workers)] = _timed(
                    lambda: spgemm(backend, workers)
                )
        return times, spawn_seconds

    times, spawn_seconds = benchmark.pedantic(run, rounds=1, iterations=1)

    # --- bitwise equivalence across every backend/worker combination ---
    ref = spgemm("serial", 1)
    for backend in BACKENDS:
        for workers in WORKER_COUNTS:
            got = spgemm(backend, workers)
            assert np.array_equal(got.indptr, ref.indptr), (backend, workers)
            assert np.array_equal(got.indices, ref.indices), (backend, workers)
            assert np.array_equal(got.data, ref.data), (backend, workers)

    base = times[("serial", 1)]
    cpus = os.cpu_count() or 1
    record = {
        "workload": "rmat scale=10 triangle-count spgemm (msa, plus_pair)",
        "nnz": int(low.nnz),
        "cpu_count": cpus,
        "process_pool_spawn_seconds": spawn_seconds,
        "serial_seconds": base,
        "runs": [
            {
                "backend": backend,
                "workers": workers,
                "seconds": t,
                "speedup_vs_serial": base / t,
            }
            for (backend, workers), t in sorted(times.items())
        ],
    }
    lines = [f"Backend scaling, R-MAT TC (cpu_count={cpus}):"]
    for (backend, workers), t in sorted(times.items()):
        lines.append(
            f"  {backend:>7s} x{workers}: {t * 1e3:8.1f} ms  "
            f"speedup {base / t:4.2f}x"
        )
    save_result("\n".join(lines), data=record,
                title="serial vs thread vs process backend scaling")

    # sanity bound everywhere: no backend may catastrophically regress
    for key, t in times.items():
        assert t < 10.0 * base, (key, t, base)
    # the acceptance criterion needs real cores to be meaningful
    if cpus >= 4:
        assert base / times[("process", 4)] > 1.5, times

    shutdown_pool()
    assert active_segments() == ()
