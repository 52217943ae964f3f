"""One-body gates for forced ``hash`` / ``esc`` on the Fig. 10 TC case.

Hash and ESC used to carry two bodies each, selected by ``batch=``, and this
file A/B'd them.  They are now accumulator strategies of the one push frame
(``docs/kernels.md``), so the question it answers changed: did deleting the
slower fork cost the faster one anything?

Wall-clock measurement (always on), NumPy tier (``native.disabled()``),
R-MAT scale 13 triangle-count product on PLUS_PAIR: forced ``hash`` and
``esc`` must stay within 1.1x of what the *bucket* body of the commit
before the merge took.  That commit cannot be run
from here, so its time is carried as a multiple of a yardstick the merge
leaves alone, measured in the same rounds: scipy computing the whole product
and masking it afterwards, ``(L @ L).multiply(L)``, as in
``test_kernel_floor.py`` (not the NumPy-tier ``msa``: it runs through the
same frame now).  From a scratch checkout of that commit on the host that
took them: 305 ms (hash) and 304 ms (esc) against scipy's 65 ms, the best of
six runs of this file's protocol (single runs read 4.2-5.6x scipy; the
per-row bodies took 1437 and 401 ms).  Every time is a best-of-5 with the
calls interleaved, each timed call directly after an untimed one of the same
kind.  (The push frame has one chunker and ``masked_spgemm(batch=)`` selects
nothing, so there is no spelling axis to time.)
"""

import time

import numpy as np

from repro.core import masked_spgemm
from repro.core.kernels import native
from repro.graphs import rmat
from repro.semiring import PLUS_PAIR

SCALE = 13
REPEATS = 5
KERNELS = ("hash", "esc")
#: the deleted two-body kernels' bucket-tier time / scipy multiply-then-mask
PARENT_BUCKET_VS_SCIPY = {"hash": 305.0 / 65.0, "esc": 304.0 / 65.0}
MAX_VS_PARENT = 1.1


def test_one_body_is_not_slower_than_the_bucket_body_it_replaced(benchmark, save_result):
    low = rmat(SCALE, seed=1).pattern().tril(-1)
    ref = low.to_scipy()

    def call(algo):
        if algo == "scipy":
            return (ref @ ref).multiply(ref).tocsr()
        return masked_spgemm(low, low, low, algo=algo, semiring=PLUS_PAIR)

    def run():
        best, out = {}, {}
        with native.disabled():
            for _ in range(REPEATS):
                for algo in ("scipy",) + KERNELS:
                    call(algo)
                    t0 = time.perf_counter()
                    out[algo] = call(algo)
                    dt = time.perf_counter() - t0
                    best[algo] = min(best.get(algo, dt), dt)
        return best, out

    best, out = benchmark.pedantic(run, rounds=1, iterations=1)

    scipy_s = best["scipy"]
    want = out["scipy"]
    want.sort_indices()
    rows = []
    for algo in KERNELS:
        got = out[algo].to_scipy()
        rows.append({
            "algo": algo,
            "seconds": best[algo],
            "vs_scipy_x": best[algo] / scipy_s,
            "vs_parent_bucket_x": best[algo] / scipy_s / PARENT_BUCKET_VS_SCIPY[algo],
            # PLUS_PAIR sums are small integers: exact on every path
            "equal": all(np.array_equal(getattr(got, f), getattr(want, f))
                         for f in ("indptr", "indices", "data")),
        })

    lines = [
        f"forced hash / esc, R-MAT TC scale {SCALE}, NumPy tier (best of {REPEATS}); "
        f"scipy multiply-then-mask {scipy_s * 1e3:.1f} ms",
        f"{'algo':6} {'ms':>8} {'/ scipy':>8} {'/ parent bucket body':>21}",
    ]
    for r in rows:
        lines.append(
            f"{r['algo']:6} {r['seconds'] * 1e3:8.1f} "
            f"{r['vs_scipy_x']:7.2f}x {r['vs_parent_bucket_x']:20.2f}x"
        )
    save_result(
        "\n".join(lines),
        data={"scale": SCALE, "scipy_s": scipy_s, "rows": rows,
              "parent_bucket_vs_scipy": PARENT_BUCKET_VS_SCIPY},
        title="One-body gates on Fig. 10 TC",
    )

    assert all(r["equal"] for r in rows), [r["algo"] for r in rows if not r["equal"]]
    bad = [
        (r["algo"], round(r["vs_parent_bucket_x"], 2))
        for r in rows if r["vs_parent_bucket_x"] > MAX_VS_PARENT
    ]
    assert not bad, f"over {MAX_VS_PARENT}x the replaced bucket body (scaled by scipy): {bad}"
