"""Benchmark — in-kernel threads: Fig. 11 in wall clock.

The native MSA row loop runs its rows on ``nthreads`` OpenMP threads, one
accumulator per thread, each row written at its mask offset
(``docs/kernels.md``, "Row-parallel loops").  This bench measures that
loop on R-MAT triangle counting at scales 14-17 and 1 / 2 / 4 threads
(:func:`repro.bench.fig11_measured_threads`: the kernel's own threads, not
the ``thread`` backend's row parts):

* results are bit-identical at every thread count (always asserted);
* the measured speedup is *reported*;
* ``>= 1.6x`` at 2 threads on scale 17 is asserted only when a probe run
  just before — two processes burning CPU side by side against one alone —
  shows the second core is really free, and the library was built with
  OpenMP.  On a shared container it often is not (two concurrent burns
  took 1.9x the time of one in two of three probes when the probe was
  written), and then no thread-speed number means anything.

Without a compiler, or without OpenMP, every count runs the serial loop and
the table shows ~1x.
"""

import multiprocessing as mp
import time

from repro.bench import fig11_measured_threads
from repro.core.kernels import native

SCALES = (14, 15, 16, 17)
THREADS = (1, 2, 4)
MIN_SPEEDUP_2 = 1.6
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


def test_in_kernel_threads(benchmark, save_result):
    def run():
        free_x = second_core_free_x()
        return free_x, fig11_measured_threads(scales=SCALES, thread_counts=THREADS)

    free_x, res = benchmark.pedantic(run, rounds=1, iterations=1)
    status = native.status()
    tier = "native" if status["loaded"] else "numpy"
    core_free = free_x <= FREE_CORE_X
    lines = [
        f"in-kernel threads, msa, R-MAT TC, {tier} tier, OpenMP "
        + ("on" if status["openmp"] else "off") + " (best of 5, ms / speedup)",
        f"two concurrent CPU burns took {free_x:.2f}x one: second core "
        + ("free" if core_free else "NOT free - speedup reported, not asserted"),
        f"{'scale':>8} " + " ".join(f"{f'{p} thr':>16}" for p in THREADS),
    ]
    for name, seconds in res.seconds.items():
        lines.append(f"{name:>8} " + " ".join(
            f"{s * 1e3:8.1f} {x:5.2f}x " for s, x in zip(seconds, res.series[name])))
    save_result("\n".join(lines), title="in-kernel threads",
                data={"tier": tier, "openmp": status["openmp"], "second_core_free_x": free_x,
                      "threads": res.xs, "seconds": res.seconds, "speedup": res.series})

    for name, seconds in res.seconds.items():
        # oversubscribed or not, threading must not collapse
        assert all(s < 3.0 * seconds[0] for s in seconds[1:]), (name, seconds)
    if status["openmp"] and core_free:
        speedup_2 = res.series[f"rmat-{SCALES[-1]}"][THREADS.index(2)]
        assert speedup_2 >= MIN_SPEEDUP_2, (res.seconds, free_x)
