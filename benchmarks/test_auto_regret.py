"""Wall-clock regret of ``algo="auto"`` against the best forced algorithm.

The gate of ROADMAP item 2 and the table the checked-in
:class:`repro.machine.HostProfile` coefficients are justified by: on every
cell of the Fig. 7 Erdős–Rényi density grid (input degree x mask degree)
and on R-MAT triangle counting at scale 10-13, the default call
``masked_spgemm(A, B, M, algo="auto")`` must take at most 1.15x the time of
the fastest ``algo=<fast kernel>`` call on the same operands.

Every time is a best-of-5 in this process.  The five rounds interleave the
forced calls and the ``auto`` call so that drift on a shared host hits them
alike, and every timed call directly follows an untimed call of the same
kind, so none inherits a colder cache or allocator from its predecessor
than another; a forced algorithm that is over 2x off the round's best after
the first round is not timed again.  A cell that reads over the limit is
measured for five more rounds before it counts (a neighbour holding a core
for a second reads as +20% here).  The forced ``inner`` call builds its own
CSC each time, exactly as ``auto`` has to.  Cells whose best forced
time is under 20 ms are reported but not asserted: there a ~1 ms difference
in fixed planning cost reads as tens of percent, and timer noise on a
shared host is of the same size.  ``auto``'s output must be bit-identical
to the forced call of the algorithm it planned, asserted on every cell.
"""

import time

import numpy as np

from repro.core import masked_spgemm
from repro.engine import plan
from repro.graphs import erdos_renyi, relabel_by_degree, rmat
from repro.semiring import PLUS_PAIR, PLUS_TIMES

FAST_ALGOS = ("msa", "hash", "mca", "inner", "esc")
DEGREES = (1, 4, 16, 64)
ER_N = 4096
TC_SCALES = (10, 11, 12, 13)
REPEATS = 5
MAX_REGRET = 1.15
MIN_ASSERTED_S = 0.020


def _cells():
    for d in DEGREES:
        a = erdos_renyi(ER_N, ER_N, d, seed=d)
        b = erdos_renyi(ER_N, ER_N, d, seed=d + 1000)
        for dm in DEGREES:
            m = erdos_renyi(ER_N, ER_N, dm, seed=dm + 2000)
            yield f"er d={d} mask={dm}", a, b, m, PLUS_TIMES
    for scale in TC_SCALES:
        low = relabel_by_degree(rmat(scale, seed=3).pattern()).tril(-1)
        yield f"tc rmat-{scale}", low, low, low, PLUS_PAIR


def _same(x, y) -> bool:
    return all(np.array_equal(p, q) for p, q in zip(x.segment_arrays(), y.segment_arrays()))


def test_auto_regret(benchmark, save_result):
    def run():
        rows = []
        for name, a, b, m, sr in _cells():
            best, outputs = {}, {}
            live = FAST_ALGOS + ("auto",)

            def regret():
                return best["auto"] / min(best[algo] for algo in FAST_ALGOS)

            for rnd in range(2 * REPEATS):
                if rnd == REPEATS and regret() <= MAX_REGRET:
                    break
                for algo in live:
                    masked_spgemm(a, b, m, algo=algo, semiring=sr)
                    t0 = time.perf_counter()
                    outputs[algo] = masked_spgemm(a, b, m, algo=algo, semiring=sr)
                    dt = time.perf_counter() - t0
                    best[algo] = min(best.get(algo, dt), dt)
                floor = min(best[algo] for algo in FAST_ALGOS)
                live = tuple(k for k in live if k == "auto" or best[k] <= 2 * floor)
            auto_out = outputs.pop("auto")
            pl = plan(a, b, m)
            rows.append(
                {
                    "cell": name,
                    "auto_s": best.pop("auto"),
                    "forced_s": best,
                    "planned": pl.nrows_per_algo(),
                    "predicted_s": pl.estimates,
                    "threads": pl.threads,
                    "backend": pl.backend,
                    "bitwise": pl.algo is None or _same(auto_out, outputs[pl.algo]),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"auto vs best forced fast kernel (best of {REPEATS}; asserted where best >= "
        f"{MIN_ASSERTED_S * 1e3:.0f} ms)",
        f"{'cell':18} {'best':>6} {'best ms':>9} {'auto ms':>9} {'regret':>7}  planned",
    ]
    for r in rows:
        best = min(r["forced_s"], key=r["forced_s"].get)
        r["best"], r["regret"] = best, r["auto_s"] / r["forced_s"][best]
        r["asserted"] = r["forced_s"][best] >= MIN_ASSERTED_S
        lines.append(
            f"{r['cell']:18} {best:>6} {r['forced_s'][best] * 1e3:9.2f} "
            f"{r['auto_s'] * 1e3:9.2f} {r['regret']:6.2f}x"
            f"{'*' if r['asserted'] else ' '} "
            + ", ".join(f"{k}:{v}" for k, v in r["planned"].items())
        )
    lines.append("* asserted cell")
    save_result("\n".join(lines), data={"rows": rows}, title="auto regret")

    assert all(r["bitwise"] for r in rows), [r["cell"] for r in rows if not r["bitwise"]]
    bad = [
        (r["cell"], round(r["regret"], 2))
        for r in rows
        if r["asserted"] and r["regret"] > MAX_REGRET
    ]
    assert not bad, f"auto slower than {MAX_REGRET}x the best forced algorithm: {bad}"
