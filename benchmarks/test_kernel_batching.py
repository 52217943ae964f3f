"""One-body gates for forced ``hash`` / ``esc`` on the Fig. 10 TC case.

Hash and ESC used to carry two bodies each, selected by ``batch=``, and this
file A/B'd them.  They are now accumulator strategies of the one push frame
(``docs/kernels.md``), so the question it answers changed: did deleting the
slower fork cost the faster one anything?

Wall-clock measurement (always on), NumPy tier (``native.disabled()``),
R-MAT scale 13 triangle-count product on PLUS_PAIR: forced ``hash`` and
``esc`` under either ``batch`` spelling must stay within 1.1x of what the
*bucket* body of the commit before the merge took.  That commit cannot be run
from here, so its time is carried as a multiple of the NumPy-tier ``msa``
kernel — which the merge did not touch — measured in the same rounds: 275 ms
(hash) and 276 ms (esc) against 66 ms for ``msa`` on the host that took them
(best of 5; the per-row bodies read 1437 and 401 ms there).  Every time is a
best-of-5 with the calls interleaved, each timed call directly after an
untimed one of the same kind, as in ``test_kernel_floor.py``.
"""

import time

import numpy as np

from repro.core import masked_spgemm
from repro.core.kernels import native
from repro.graphs import rmat
from repro.machine import OpCounter
from repro.semiring import PLUS_PAIR

SCALE = 13
REPEATS = 5
KERNELS = ("hash", "esc")
SPELLINGS = ("perrow", "bucket")
#: the deleted two-body kernels' bucket-tier time / NumPy-tier msa time
PARENT_BUCKET_VS_MSA = {"hash": 275.0 / 66.0, "esc": 276.0 / 66.0}
MAX_VS_PARENT = 1.1


def test_one_body_is_not_slower_than_the_bucket_body_it_replaced(benchmark, save_result):
    low = rmat(SCALE, seed=1).pattern().tril(-1)

    def call(algo, batch):
        return masked_spgemm(low, low, low, algo=algo, batch=batch, semiring=PLUS_PAIR)

    def run():
        cases = [("msa", "bucket")] + [(k, s) for k in KERNELS for s in SPELLINGS]
        best, out = {}, {}
        with native.disabled():
            for _ in range(REPEATS):
                for case in cases:
                    call(*case)
                    t0 = time.perf_counter()
                    out[case] = call(*case)
                    dt = time.perf_counter() - t0
                    best[case] = min(best.get(case, dt), dt)
        return best, out

    best, out = benchmark.pedantic(run, rounds=1, iterations=1)

    msa_s = best[("msa", "bucket")]
    rows = []
    for algo in KERNELS:
        for spelling in SPELLINGS:
            got, ref = out[(algo, spelling)], out[("msa", "bucket")]
            rows.append({
                "algo": algo,
                "batch": spelling,
                "seconds": best[(algo, spelling)],
                "vs_msa_x": best[(algo, spelling)] / msa_s,
                "vs_parent_bucket_x":
                    best[(algo, spelling)] / msa_s / PARENT_BUCKET_VS_MSA[algo],
                # PLUS_PAIR sums are small integers: every algorithm agrees
                "equal": all(np.array_equal(getattr(got, f), getattr(ref, f))
                             for f in ("indptr", "indices", "data")),
            })

    lines = [
        f"forced hash / esc, R-MAT TC scale {SCALE}, NumPy tier (best of {REPEATS}); "
        f"msa {msa_s * 1e3:.1f} ms",
        f"{'algo':6} {'batch':7} {'ms':>8} {'/ msa':>7} {'/ parent bucket body':>21}",
    ]
    for r in rows:
        lines.append(
            f"{r['algo']:6} {r['batch']:7} {r['seconds'] * 1e3:8.1f} "
            f"{r['vs_msa_x']:6.2f}x {r['vs_parent_bucket_x']:20.2f}x"
        )
    save_result(
        "\n".join(lines),
        data={"scale": SCALE, "msa_s": msa_s, "rows": rows,
              "parent_bucket_vs_msa": PARENT_BUCKET_VS_MSA},
        title="One-body gates on Fig. 10 TC",
    )

    assert all(r["equal"] for r in rows), [(r["algo"], r["batch"]) for r in rows if not r["equal"]]
    bad = [
        (r["algo"], r["batch"], round(r["vs_parent_bucket_x"], 2))
        for r in rows if r["vs_parent_bucket_x"] > MAX_VS_PARENT
    ]
    assert not bad, f"over {MAX_VS_PARENT}x the replaced bucket body (scaled by msa): {bad}"


def test_batch_spelling_never_charges_differently(benchmark):
    """Counters are identical across spellings, so the table above measures
    time and nothing else."""
    low = rmat(10, seed=1).pattern().tril(-1)

    def run():
        out = {}
        with native.disabled():
            for algo in KERNELS:
                for spelling in SPELLINGS:
                    c = OpCounter()
                    masked_spgemm(low, low, low, algo=algo, batch=spelling,
                                  semiring=PLUS_PAIR, counter=c)
                    out[(algo, spelling)] = c.as_dict()
        return out

    counters = benchmark.pedantic(run, rounds=1, iterations=1)
    for algo in KERNELS:
        assert counters[(algo, "perrow")] == counters[(algo, "bucket")], algo
