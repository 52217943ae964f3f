"""Wall-clock floor of the forced MSA kernel against scipy multiply-then-mask.

ROADMAP aim 1's first bar (Fig. 1 in wall clock): on R-MAT triangle
counting, ``L .* (L @ L)`` on PLUS_PAIR with ``L`` the degree-relabelled
lower triangle, the masked kernel ``masked_spgemm(L, L, L, algo="msa")``
must take at most 2.0x the time of scipy computing the whole product and
masking it afterwards, ``(L @ L).multiply(L)``, at scale 12-14.

Same method as ``test_auto_regret.py``: every time is a best-of-5 in this
process, the rounds interleave the two calls so drift on a shared host hits
them alike, and every timed call directly follows an untimed call of the
same kind.  The table reports the paper's unit, GFLOPS = 2 * flops(AB) /
time, and nanoseconds per expanded product.
"""

import time

import numpy as np

from repro.core import masked_spgemm
from repro.graphs import relabel_by_degree, rmat
from repro.machine import total_flops
from repro.semiring import PLUS_PAIR

TC_SCALES = (12, 13, 14)
REPEATS = 5
MAX_VS_SCIPY = 2.0


def test_kernel_floor(benchmark, save_result):
    def run():
        rows = []
        for scale in TC_SCALES:
            low = relabel_by_degree(rmat(scale, seed=3).pattern()).tril(-1)
            ref = low.to_scipy()
            calls = {
                "msa": lambda: masked_spgemm(low, low, low, algo="msa", semiring=PLUS_PAIR),
                "scipy": lambda: (ref @ ref).multiply(ref).tocsr(),
            }
            best, out = {}, {}
            for _ in range(REPEATS):
                for name, call in calls.items():
                    call()
                    t0 = time.perf_counter()
                    out[name] = call()
                    dt = time.perf_counter() - t0
                    best[name] = min(best.get(name, dt), dt)
            want = out["scipy"]
            want.sort_indices()
            rows.append(
                {
                    "scale": scale,
                    "flops": int(total_flops(low, low)),
                    "msa_s": best["msa"],
                    "scipy_s": best["scipy"],
                    "equal": np.array_equal(out["msa"].indptr, want.indptr)
                    and np.array_equal(out["msa"].indices, want.indices)
                    and np.array_equal(out["msa"].data, want.data),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"forced msa vs scipy (L@L).multiply(L), R-MAT TC (best of {REPEATS})",
        f"{'scale':>5} {'flops':>10} {'scipy ms':>9} {'msa ms':>8} {'msa/scipy':>9} "
        f"{'ns/product':>10} {'GFLOPS':>7}",
    ]
    for r in rows:
        r["vs_scipy_x"] = r["msa_s"] / r["scipy_s"]
        r["ns_per_product"] = r["msa_s"] / r["flops"] * 1e9
        r["gflops"] = 2.0 * r["flops"] / r["msa_s"] / 1e9
        lines.append(
            f"{r['scale']:5d} {r['flops']:10d} {r['scipy_s'] * 1e3:9.2f} "
            f"{r['msa_s'] * 1e3:8.2f} {r['vs_scipy_x']:8.2f}x "
            f"{r['ns_per_product']:10.1f} {r['gflops']:7.3f}"
        )
    save_result("\n".join(lines), data={"rows": rows}, title="kernel floor")

    assert all(r["equal"] for r in rows), [r["scale"] for r in rows if not r["equal"]]
    bad = [(r["scale"], round(r["vs_scipy_x"], 2)) for r in rows if r["vs_scipy_x"] > MAX_VS_SCIPY]
    assert not bad, f"forced msa slower than {MAX_VS_SCIPY}x scipy multiply-then-mask: {bad}"
