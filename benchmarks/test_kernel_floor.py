"""Wall-clock floor of the forced MSA kernel against scipy multiply-then-mask.

ROADMAP aim 1's first bar (Fig. 1 in wall clock): on R-MAT triangle
counting, ``L .* (L @ L)`` on PLUS_PAIR with ``L`` the degree-relabelled
lower triangle, the masked kernel ``masked_spgemm(L, L, L, algo="msa")``
against scipy computing the whole product and masking it afterwards,
``(L @ L).multiply(L)``, at scale 12-14: at most 0.45x scipy's time and at
most 2.2 ns per expanded product on the native tier
(``core/kernels/native.c``; skipped where no compiler exists) and at most
2.0x for the NumPy body, timed under ``native.disabled()``.

The native MSA row pays no branch on whether a product meets the mask
(``docs/kernels.md``, "filter + apply"), which is what the TC bound above
measures, where a fifth to a third of the products do.  The second table
keeps the regime where that branch was free on a printed table: forced
``msa`` on PLUS_TIMES over Erdos-Renyi operands of degree 64 under masks of
degree 1 / 4 / 64 and the ladder's ``er-sparse-mask`` triple (hit fraction
<= 0.016), at most 3.0 ns per product -- a smoke bound; the criterion there
is "never below 0.9x of the branchy loop", measured once per change to the
loop and recorded in ``docs/kernels.md``.

And ROADMAP item 1's bar for two-phase execution, on the NumPy tier: the
count-only symbolic pass (``symbolic_masked``, the push frame's count-only
mode) costs at most 1.5x the numeric ``msa`` pass it sizes, at scale 12 (it
was 23x as its own eager-expansion loop; the native tier's ratio is
``docs/algorithms.md``'s).

Same method as ``test_auto_regret.py``: every time is a best-of-5 in this
process, the rounds interleave the two calls so drift on a shared host hits
them alike, and every timed call directly follows an untimed call of the
same kind.  The table reports the paper's unit, GFLOPS = 2 * flops(AB) /
time, and nanoseconds per expanded product.
"""

import time

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.core.kernels import native
from repro.core.symbolic import symbolic_masked
from repro.graphs import erdos_renyi, relabel_by_degree, rmat
from repro.machine import OpCounter, total_flops
from repro.semiring import PLUS_PAIR

TC_SCALES = (12, 13, 14)
REPEATS = 5
#: tier -> allowed msa / scipy time
MAX_VS_SCIPY = {"native": 0.45, "numpy": 2.0}
#: allowed native ns per expanded product on the TC triples (hit fraction
#: 0.21-0.36: the branchy loop read 2.6-4.3, filter + apply reads 1.1-1.5)
MAX_NATIVE_NS = 2.2
#: the predictable regime: ``(label, n, mask degree)`` of ER triples with A
#: and B of degree 64, and the allowed native ns per product there
ER_CELLS = (("er-4096 mask 1", 4096, 1), ("er-4096 mask 4", 4096, 4),
            ("er-4096 mask 64", 4096, 64), ("er-sparse-mask", 8192, 4))
MAX_PREDICTABLE_NS = 3.0
SYMBOLIC_SCALE = 12
#: allowed symbolic / numeric msa time on the NumPy tier
MAX_SYMBOLIC_VS_NUMERIC = 1.5


def test_kernel_floor(benchmark, save_result):
    def run():
        rows = []
        for scale in TC_SCALES:
            low = relabel_by_degree(rmat(scale, seed=3).pattern()).tril(-1)
            ref = low.to_scipy()

            def msa():
                return masked_spgemm(low, low, low, algo="msa", semiring=PLUS_PAIR)

            def numpy_msa():
                with native.disabled():
                    return msa()

            calls = {"numpy": numpy_msa, "scipy": lambda: (ref @ ref).multiply(ref).tocsr()}
            if native.load() is not None:
                calls["native"] = msa
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
            scipy_s = best.pop("scipy")
            for tier, msa_s in best.items():
                rows.append(
                    {
                        "scale": scale,
                        "tier": tier,
                        "flops": int(total_flops(low, low)),
                        "msa_s": msa_s,
                        "scipy_s": scipy_s,
                        "equal": all(
                            np.array_equal(getattr(out[tier], f), getattr(want, f))
                            for f in ("indptr", "indices", "data")
                        ),
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"forced msa vs scipy (L@L).multiply(L), R-MAT TC (best of {REPEATS})",
        f"{'scale':>5} {'tier':>6} {'flops':>10} {'scipy ms':>9} {'msa ms':>8} "
        f"{'msa/scipy':>9} {'ns/product':>10} {'GFLOPS':>7}",
    ]
    for r in rows:
        r["vs_scipy_x"] = r["msa_s"] / r["scipy_s"]
        r["ns_per_product"] = r["msa_s"] / r["flops"] * 1e9
        r["gflops"] = 2.0 * r["flops"] / r["msa_s"] / 1e9
        lines.append(
            f"{r['scale']:5d} {r['tier']:>6} {r['flops']:10d} {r['scipy_s'] * 1e3:9.2f} "
            f"{r['msa_s'] * 1e3:8.2f} {r['vs_scipy_x']:8.2f}x "
            f"{r['ns_per_product']:10.1f} {r['gflops']:7.3f}"
        )
    save_result("\n".join(lines), data={"rows": rows}, title="kernel floor")

    assert all(r["equal"] for r in rows), [r["scale"] for r in rows if not r["equal"]]
    bad = [
        (r["scale"], r["tier"], round(r["vs_scipy_x"], 2))
        for r in rows if r["vs_scipy_x"] > MAX_VS_SCIPY[r["tier"]]
    ]
    assert not bad, f"forced msa over its bound {MAX_VS_SCIPY} x scipy multiply-then-mask: {bad}"
    slow = [
        (r["scale"], round(r["ns_per_product"], 2))
        for r in rows if r["tier"] == "native" and r["ns_per_product"] > MAX_NATIVE_NS
    ]
    assert not slow, f"native msa over {MAX_NATIVE_NS} ns per expanded product: {slow}"


def test_predictable_regime(benchmark, save_result):
    if native.load() is None:
        pytest.skip("no C compiler: native tier unavailable")

    def run():
        rows = []
        for label, n, mask_degree in ER_CELLS:
            a, b = erdos_renyi(n, n, 64, seed=1), erdos_renyi(n, n, 64, seed=2)
            m = erdos_renyi(n, n, mask_degree, seed=3)
            counter = OpCounter()
            masked_spgemm(a, b, m, algo="msa", counter=counter)
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                masked_spgemm(a, b, m, algo="msa")
                best = min(best, time.perf_counter() - t0)
            rows.append({"cell": label, "products": counter.accum_inserts,
                         "hit_frac": counter.flops / counter.accum_inserts, "msa_s": best,
                         "ns_per_product": best / counter.accum_inserts * 1e9})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"forced native msa, PLUS_TIMES, ER degree 64 (best of {REPEATS})",
        f"{'cell':>16} {'products':>10} {'hit frac':>8} {'msa ms':>8} {'ns/product':>10}",
    ] + [
        f"{r['cell']:>16} {r['products']:10d} {r['hit_frac']:8.4f} {r['msa_s'] * 1e3:8.2f} "
        f"{r['ns_per_product']:10.2f}"
        for r in rows
    ]
    save_result("\n".join(lines), data={"rows": rows}, title="kernel floor, predictable regime")
    slow = [(r["cell"], round(r["ns_per_product"], 2))
            for r in rows if r["ns_per_product"] > MAX_PREDICTABLE_NS]
    assert not slow, f"native msa over {MAX_PREDICTABLE_NS} ns per expanded product: {slow}"


def test_symbolic_pass_costs_no_more_than_the_numeric_pass(benchmark, save_result):
    low = relabel_by_degree(rmat(SYMBOLIC_SCALE, seed=3).pattern()).tril(-1)
    calls = {
        "numeric": lambda: masked_spgemm(low, low, low, algo="msa", semiring=PLUS_PAIR),
        "symbolic": lambda: symbolic_masked(low, low, low),
    }

    def run():
        best, out = {}, {}
        with native.disabled():
            for _ in range(REPEATS):
                for name, call in calls.items():
                    call()
                    t0 = time.perf_counter()
                    out[name] = call()
                    dt = time.perf_counter() - t0
                    best[name] = min(best.get(name, dt), dt)
        return best, out

    best, out = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = best["symbolic"] / best["numeric"]
    save_result(
        f"2P on the NumPy tier, R-MAT TC scale {SYMBOLIC_SCALE} (best of {REPEATS}): "
        f"symbolic {best['symbolic'] * 1e3:.2f} ms, numeric msa "
        f"{best['numeric'] * 1e3:.2f} ms, {ratio:.2f}x",
        data={"scale": SYMBOLIC_SCALE, "symbolic_s": best["symbolic"],
              "numeric_s": best["numeric"], "symbolic_vs_numeric_x": ratio},
        title="symbolic vs numeric",
    )
    assert np.array_equal(out["symbolic"], np.diff(out["numeric"].indptr))
    assert ratio <= MAX_SYMBOLIC_VS_NUMERIC, (
        f"count-only symbolic pass {ratio:.2f}x the numeric msa pass "
        f"(bound {MAX_SYMBOLIC_VS_NUMERIC}x)"
    )
