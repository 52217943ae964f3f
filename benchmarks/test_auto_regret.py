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

A second table asks the same of the two largest calls this host makes in
under a second — R-MAT triangle counting at scale 16 and 17 — *after* a
forced ``backend="process"`` call has warmed the pool: a plan may not
depend on what ran before it (asserted: the plan made with the pool warm
equals the one made with it cold), and the one default call that used to
(scale 17 planned ``threads=2, process`` once a pool was up and took
1.65-2x its own kernel on most calls) must stay within the same 1.15x.

A third table gates what planning costs where the kernels are fastest, as
absolute gaps — a ratio inflates whenever the kernel gets faster: over
every product of ``ktruss(rmat(10), 5)`` and of BC on ``rmat(12)`` (64
sources), ``auto`` minus the best forced algorithm of each product, summed
over the app call, must stay within 0.2 ms per product; and ``auto`` on
R-MAT 6 triangle counting, a 0.05 ms kernel, within 2x forced ``msa``.
Every row of it is asserted, however small.
"""

import time

import numpy as np
import pytest

from repro.apps import betweenness_centrality, ktruss
from repro.core import masked_spgemm, supports_complement
from repro.engine import plan
from repro.graphs import erdos_renyi, relabel_by_degree, rmat
from repro.machine import available_cores
from repro.parallel import pool_size, shutdown_pool
from repro.semiring import PLUS_PAIR, PLUS_TIMES

FAST_ALGOS = ("msa", "hash", "mca", "inner", "esc")
DEGREES = (1, 4, 16, 64)
ER_N = 4096
TC_SCALES = (10, 11, 12, 13)
WARM_POOL_SCALES = (16, 17)
REPEATS = 5
MAX_REGRET = 1.15
MIN_ASSERTED_S = 0.020
#: the absolute gates: auto's per-product gap over an app call, and the
#: tiny-call ratio on R-MAT 6 triangle counting
MAX_GAP_PER_PRODUCT_S = 0.2e-3
TINY_TC_REGRET = 2.0
#: best-of repeats of the sub-millisecond products
PRODUCT_REPEATS = 25


def _tc(scale):
    return relabel_by_degree(rmat(scale, seed=3).pattern()).tril(-1)


def _cells():
    for d in DEGREES:
        a = erdos_renyi(ER_N, ER_N, d, seed=d)
        b = erdos_renyi(ER_N, ER_N, d, seed=d + 1000)
        for dm in DEGREES:
            m = erdos_renyi(ER_N, ER_N, dm, seed=dm + 2000)
            yield f"er d={d} mask={dm}", a, b, m, PLUS_TIMES
    for scale in TC_SCALES:
        low = _tc(scale)
        yield f"tc rmat-{scale}", low, low, low, PLUS_PAIR


def _timed(a, b, m, algo, sr, complement=False):
    """Seconds and output of one call, directly after an untimed one."""
    masked_spgemm(a, b, m, algo=algo, semiring=sr, complement=complement)
    t0 = time.perf_counter()
    out = masked_spgemm(a, b, m, algo=algo, semiring=sr, complement=complement)
    return time.perf_counter() - t0, out


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
                    dt, outputs[algo] = _timed(a, b, m, algo, sr)
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


@pytest.mark.skipif(available_cores() < 2, reason="one core never gets a second worker")
def test_auto_regret_with_a_warm_pool(benchmark, save_result):
    def run():
        rows = []
        for scale in WARM_POOL_SCALES:
            low = _tc(scale)
            shutdown_pool()
            cold = plan(low, low, low)
            masked_spgemm(low, low, low, algo="auto", backend="process", semiring=PLUS_PAIR)
            workers = pool_size()
            pl = plan(low, low, low)
            best, outputs = {}, {}
            for _ in range(REPEATS):
                for algo in ("msa", "auto"):
                    dt, outputs[algo] = _timed(low, low, low, algo, PLUS_PAIR)
                    best[algo] = min(best.get(algo, dt), dt)
            rows.append(
                {
                    "cell": f"tc rmat-{scale}",
                    "pool_workers": workers,
                    "msa_s": best["msa"],
                    "auto_s": best["auto"],
                    "regret": best["auto"] / best["msa"],
                    "threads": pl.threads,
                    "backend": pl.backend,
                    "pure": pl.as_dict() == cold.as_dict(),
                    "bitwise": _same(outputs["auto"], outputs["msa"]),
                }
            )
        return rows

    try:
        rows = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        shutdown_pool()

    lines = [
        f"auto vs forced msa with a warm process pool (best of {REPEATS})",
        f"{'cell':12} {'pool':>4} {'msa ms':>9} {'auto ms':>9} {'regret':>7}  planned",
    ]
    for r in rows:
        lines.append(
            f"{r['cell']:12} {r['pool_workers']:>4} {r['msa_s'] * 1e3:9.1f} "
            f"{r['auto_s'] * 1e3:9.1f} {r['regret']:6.2f}x  "
            f"threads={r['threads']}, {r['backend']}"
        )
    save_result("\n".join(lines), data={"rows": rows}, title="auto regret, warm pool")

    assert all(r["pool_workers"] >= 2 for r in rows), rows
    assert all(r["bitwise"] for r in rows)
    # the deterministic half: the warm pool did not move the plan (a lucky
    # best-of-5 with the second core free can hide a pooled plan's cost)
    assert all(r["pure"] for r in rows), [(r["cell"], r["threads"], r["backend"]) for r in rows]
    bad = [(r["cell"], round(r["regret"], 2)) for r in rows if r["regret"] > MAX_REGRET]
    assert not bad, f"auto slower than {MAX_REGRET}x forced msa with a warm pool: {bad}"


def _app_products():
    """``(app, products, semiring)``: the recorded masked products of one
    app call each."""
    log = []
    ktruss(rmat(10, seed=1), 5, call_log=log, session=False)
    yield "ktruss rmat-10", log, PLUS_PAIR
    g = rmat(12, seed=1)
    sources = np.random.default_rng(1).choice(g.nrows, size=64, replace=False)
    log = []
    betweenness_centrality(g, sources, call_log=log, session=False)
    yield "bc rmat-12", log, PLUS_TIMES


def _best(a, b, m, algos, sr, complement=False):
    """Best-of-``PRODUCT_REPEATS`` seconds per algorithm, rounds interleaved;
    a forced algorithm over 2x off the best after the first round is not
    timed again."""
    best, live = {}, algos
    for _ in range(PRODUCT_REPEATS):
        for algo in live:
            dt, _ = _timed(a, b, m, algo, sr, complement)
            best[algo] = min(best.get(algo, dt), dt)
        floor = min(best[k] for k in algos if k != "auto")
        live = tuple(k for k in live if k == "auto" or best[k] <= 2 * floor)
    return best


def test_auto_gap_where_kernels_are_fastest(benchmark, save_result):
    def run():
        rows = []
        for app, log, sr in _app_products():
            gap, forced_s, auto_s = 0.0, 0.0, 0.0
            for a, b, m, complement in log:
                algos = tuple(
                    k for k in FAST_ALGOS if not complement or supports_complement(k)
                )
                best = _best(a, b, m, algos + ("auto",), sr, complement)
                floor = min(best[k] for k in algos)
                gap += best["auto"] - floor
                forced_s += floor
                auto_s += best["auto"]
            rows.append({
                "cell": app, "products": len(log), "best_forced_s": forced_s,
                "auto_s": auto_s, "gap_per_product_s": gap / len(log),
            })
        low = _tc(6)
        best = _best(low, low, low, ("msa", "auto"), PLUS_PAIR)
        rows.append({
            "cell": "tc rmat-6", "products": 1, "best_forced_s": best["msa"],
            "auto_s": best["auto"], "gap_per_product_s": best["auto"] - best["msa"],
        })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"auto vs the best forced algorithm per product (best of {PRODUCT_REPEATS})",
        f"{'cell':16} {'products':>8} {'forced ms':>10} {'auto ms':>9} {'gap/product ms':>15}",
    ]
    for r in rows:
        lines.append(
            f"{r['cell']:16} {r['products']:8d} {r['best_forced_s'] * 1e3:10.3f} "
            f"{r['auto_s'] * 1e3:9.3f} {r['gap_per_product_s'] * 1e3:15.3f}"
        )
    save_result("\n".join(lines), data={"rows": rows}, title="auto gap per product")

    tiny = rows[-1]
    assert tiny["auto_s"] <= TINY_TC_REGRET * tiny["best_forced_s"], tiny
    bad = [
        (r["cell"], round(r["gap_per_product_s"] * 1e3, 3))
        for r in rows[:-1]
        if r["gap_per_product_s"] > MAX_GAP_PER_PRODUCT_S
    ]
    assert not bad, f"auto over {MAX_GAP_PER_PRODUCT_S * 1e3} ms per product: {bad}"
