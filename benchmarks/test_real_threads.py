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

A second cell times the counting scatter behind every CSC build
(``docs/kernels.md``, "The ordering loop"): ``CSC.from_csr`` of the
``er-sparse-mask`` B, ``erdos_renyi(8192, 8192, 64)``, on 1 and 2 threads.
Bytes are always asserted equal; ``>= 1.3x`` (the median ratio of 21
interleaved pairs) at 2 threads only behind the same free-core probe.  ``native.PREPARE_PARALLEL_NNZ`` = 2^17 keys is where
two threads start to win; measured on 2 CPUs (gcc -O2 -fopenmp, quiet
host), median ms 1 / 2 threads of 61 calls, each side's own process:

=========  =======  ===========  ===========  ======================
graph      keys     transpose    from_coo     TC operand (nnz of A)
                                 pass
=========  =======  ===========  ===========  ======================
R-MAT 10   21,004   0.20 / 0.28  0.18 / 0.26  0.21 / 0.34
R-MAT 11   45,330   0.53 / 0.62  0.49 / 0.52  0.50 / 0.57
R-MAT 12   96,444   1.41 / 1.08  1.29 / 1.01  1.01 / 1.18
R-MAT 13   203,958  4.14 / 2.24  2.27 / 2.10  1.94 / 2.70
R-MAT 14   425,994  7.85 / 4.96  7.43 / 4.93  5.30 / 5.77
ER 8192    522,255  14.4 / 8.14  14.4 / 6.85  7.72 / 5.49
=========  =======  ===========  ===========  ======================

Paired in one process (150 alternating calls, median of the per-pair
ratio), two threads read 1.54x / 1.44x / 1.62x / 1.57x on the R-MAT
12-15 transposes and 0.93x / 1.18x / 1.23x / 1.16x on the TC operand,
whose two scatters recount per range what the serial pass counts once.

A third cell times the complemented MSA loop (``docs/kernels.md``, "One
MSA driver: the paper's 1P output"), which writes its rows at their bounds
``min(products, ncols)`` in blocks cut by the ``SPAN`` window: BC's largest forward level on ``rmat(12)``, 64
sources, seed 1 (3.16M products), at 1 and 2 threads in 21 interleaved
pairs, and BC with 512 sources on ``rmat(13)`` (the paper's batch), whole
calls at 1 (``backend="serial"``) and 2 threads in 5 pairs.  Bytes are
always asserted equal; ``>= 1.4x`` on the forward level (the median pair
ratio) only behind the free-core probe.  The whole BC call is reported
against the same 1.4x, not asserted: its row merges and operand checks
stay serial (1.39x and 1.40x median in two runs on 2 CPUs, gcc -O2
-fopenmp).
"""

import multiprocessing as mp
import statistics
import time

import numpy as np

from repro.apps import betweenness_centrality
from repro.bench import fig11_measured_threads
from repro.core.kernels import native
from repro.core.leaf import run_kernel
from repro.graphs import erdos_renyi, rmat
from repro.machine import total_flops
from repro.sparse import CSC

SCALES = (14, 15, 16, 17)
THREADS = (1, 2, 4)
MIN_SPEEDUP_2 = 1.6
#: the CSC build's bound at 2 threads: the median of 21 paired ratios read
#: 1.45-1.70x in nine runs with the second core free, because about 4 ms of
#: the ~13 ms serial build is first-touch page faults on its two fresh 4 MB
#: outputs; a build that stopped threading reads ~1.0x
MIN_CSC_SPEEDUP_2 = 1.3
#: the complemented loop's bound at 2 threads on BC's 3.16M-product forward
#: level: the median pair ratio read 1.38-1.56x in seven runs with the
#: second core free (1.46x in the one through this test)
MIN_COMPLEMENT_SPEEDUP_2 = 1.4
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


def test_csc_build_threads(benchmark, save_result):
    b = erdos_renyi(8192, 8192, 64, seed=2)

    def run():
        free_x = second_core_free_x()
        seconds, want = {1: [], 2: []}, None
        for _ in range(21):  # interleaved pairs: a drifting host moves both sides
            for nthreads in (1, 2):
                t0 = time.perf_counter()
                csc = CSC(b.shape, b._transpose(nthreads))
                seconds[nthreads].append(time.perf_counter() - t0)
                got = tuple(x.tobytes() for x in (csc.indptr, csc.indices, csc.data))
                want = got if want is None else want
                assert got == want, f"{nthreads} threads changed the bytes"
        return free_x, seconds

    free_x, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    status = native.status()
    core_free = free_x <= FREE_CORE_X
    speedup = statistics.median(x / y for x, y in zip(seconds[1], seconds[2]))
    p50 = {k: statistics.median(v) for k, v in seconds.items()}
    save_result(
        f"CSC build of ER 8192 x 8192, degree 64 ({b.nnz} entries), 21 interleaved pairs, "
        "OpenMP " + ("on" if status["openmp"] else "off") + "\n"
        f"two concurrent CPU burns took {free_x:.2f}x one: second core "
        + ("free" if core_free else "NOT free - speedup reported, not asserted") + "\n"
        f"median 1 thread {p50[1] * 1e3:.2f} ms, 2 threads {p50[2] * 1e3:.2f} ms; "
        f"median pair ratio {speedup:.2f}x",
        title="CSC build threads",
        data={"openmp": status["openmp"], "second_core_free_x": free_x, "nnz": b.nnz,
              "seconds": {str(k): v for k, v in seconds.items()}, "speedup": speedup})
    if status["openmp"] and core_free:
        assert speedup >= MIN_CSC_SPEEDUP_2, (p50, free_x)


def _paired(calls, pairs):
    """Seconds of ``calls[k]()`` for k = 1, 2 in ``pairs`` interleaved pairs,
    and the median of the per-pair ratios; every call must give the first
    call's bytes."""
    seconds, want = {1: [], 2: []}, None
    for _ in range(pairs):
        for k in (1, 2):
            t0 = time.perf_counter()
            got = calls[k]()
            seconds[k].append(time.perf_counter() - t0)
            want = got if want is None else want
            assert got == want, f"{k} threads changed the bytes"
    return seconds, statistics.median(x / y for x, y in zip(seconds[1], seconds[2]))


def test_complement_threads(benchmark, save_result, monkeypatch):
    g = rmat(12, seed=1)
    log = []
    betweenness_centrality(g, np.random.default_rng(1).choice(g.nrows, 64, replace=False),
                           call_log=log)
    f, a, m, _ = max((c for c in log if c[3]), key=lambda c: total_flops(c[0], c[1]))
    big = rmat(13, seed=1)
    sources = np.random.default_rng(1).choice(big.nrows, 512, replace=False)
    monkeypatch.setattr(native, "available_cores", lambda: 2)  # the threaded side: 2

    def level(k):
        c = run_kernel(f, a, m, algo="msa", complement=True, nthreads=k)
        return tuple(x.tobytes() for x in (c.indptr, c.indices, c.data))

    def bc(k):
        return betweenness_centrality(big, sources, backend="serial" if k == 1 else None
                                      ).centrality.tobytes()

    def run():
        free_x = second_core_free_x()
        return free_x, _paired({k: lambda k=k: level(k) for k in (1, 2)}, 21), \
            _paired({k: lambda k=k: bc(k) for k in (1, 2)}, 5)

    free_x, (lv_s, lv_x), (bc_s, bc_x) = benchmark.pedantic(run, rounds=1, iterations=1)
    status = native.status()
    core_free = free_x <= FREE_CORE_X
    p50 = {name: {k: statistics.median(v) for k, v in sec.items()}
           for name, sec in (("level", lv_s), ("bc", bc_s))}
    save_result(
        f"complemented MSA, OpenMP {'on' if status['openmp'] else 'off'}\n"
        f"two concurrent CPU burns took {free_x:.2f}x one: second core "
        + ("free" if core_free else "NOT free - speedup reported, not asserted") + "\n"
        f"BC forward level, rmat(12), 64 sources ({total_flops(f, a)} products), 21 pairs: "
        f"median 1 thread {p50['level'][1] * 1e3:.2f} ms, 2 threads "
        f"{p50['level'][2] * 1e3:.2f} ms; median pair ratio {lv_x:.2f}x\n"
        f"BC, rmat(13), 512 sources, 5 pairs: median 1 thread {p50['bc'][1]:.3f} s, "
        f"2 threads {p50['bc'][2]:.3f} s; median pair ratio {bc_x:.2f}x "
        f"(ROADMAP gate 1.4x, reported)",
        title="complemented MSA threads",
        data={"openmp": status["openmp"], "second_core_free_x": free_x,
              "level_seconds": {str(k): v for k, v in lv_s.items()}, "level_speedup": lv_x,
              "bc512_seconds": {str(k): v for k, v in bc_s.items()}, "bc512_speedup": bc_x})
    assert bc_x > 1 / 3.0, bc_s  # oversubscribed or not, threading must not collapse
    if status["openmp"] and core_free:
        assert lv_x >= MIN_COMPLEMENT_SPEEDUP_2, (p50, free_x)
