"""Benchmark — the thread backend over the GIL-free native kernels.

``ctypes`` releases the GIL around every call into ``native.c``, so row
parts dispatched to the thread backend overlap for as long as they are
inside a native loop (``docs/parallel.md``, "Backends and the GIL").  This
bench measures that on R-MAT triangle counting:

* results are bit-identical at 1 / 2 / 4 threads (always asserted);
* the measured speedup is *reported*;
* ``>= 1.3x`` at 2 threads is asserted only when a probe run just before —
  two processes burning CPU side by side against one alone — shows the
  second core is really free.  On a shared container it often is not (two
  concurrent burns took 1.9x the time of one in two of three probes when
  this was written), and then no thread-speed number means anything.

Without a compiler the NumPy bodies run under the GIL and the table shows
~1x, as it always did.
"""

import multiprocessing as mp
import time

import numpy as np

from repro.core.kernels import native
from repro.graphs import relabel_by_degree, rmat
from repro.parallel import parallel_masked_spgemm
from repro.semiring import PLUS_PAIR

SCALE = 14
THREADS = (1, 2, 4)
MIN_SPEEDUP_2 = 1.3
#: two concurrent burns within this multiple of one burn => the core is free
FREE_CORE_X = 1.25


def _burn(n: int = 6_000_000) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def second_core_free_x() -> float:
    """Wall time of two concurrent CPU burns over one: ~1.0 when a second
    core is available to this container right now, ~2.0 when it is not."""
    ctx = mp.get_context("spawn")

    def run(k: int) -> float:
        procs = [ctx.Process(target=_burn) for _ in range(k)]
        t0 = time.perf_counter()
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        return time.perf_counter() - t0

    run(1)  # interpreter start-up caches warm
    return run(2) / run(1)


def test_thread_backend_over_native_kernels(benchmark, save_result):
    low = relabel_by_degree(rmat(SCALE, seed=3).pattern()).tril(-1)

    def call(threads):
        return parallel_masked_spgemm(
            low, low, low, algo="msa", semiring=PLUS_PAIR,
            threads=threads, backend="thread" if threads > 1 else "serial",
        )

    def run():
        free_x = second_core_free_x()
        best, out = {}, {}
        for _ in range(5):  # interleaved, each timed call after an untimed one
            for p in THREADS:
                call(p)
                t0 = time.perf_counter()
                out[p] = call(p)
                dt = time.perf_counter() - t0
                best[p] = min(best.get(p, dt), dt)
        return free_x, best, out

    free_x, best, out = benchmark.pedantic(run, rounds=1, iterations=1)
    tier = "native" if native.load() is not None else "numpy"
    core_free = free_x <= FREE_CORE_X
    lines = [
        f"thread backend, forced msa, R-MAT TC scale {SCALE}, {tier} tier (best of 5)",
        f"two concurrent CPU burns took {free_x:.2f}x one: second core "
        + ("free" if core_free else "NOT free - speedup reported, not asserted"),
    ]
    for p in THREADS:
        lines.append(f"  threads={p}: {best[p] * 1e3:8.1f} ms  speedup {best[1] / best[p]:4.2f}x")
    rows = [{"threads": p, "seconds": best[p], "speedup": best[1] / best[p]} for p in THREADS]
    save_result("\n".join(lines), title="real threads",
                data={"tier": tier, "second_core_free_x": free_x, "rows": rows})

    for p in THREADS[1:]:
        assert all(
            np.array_equal(x, y)
            for x, y in zip(out[1].segment_arrays(), out[p].segment_arrays())
        ), p
        # overlap or not, fanning out must not collapse
        assert best[p] < 3.0 * best[1], (p, best)
    if tier == "native" and core_free:
        assert best[1] / best[2] >= MIN_SPEEDUP_2, (best, free_x)
