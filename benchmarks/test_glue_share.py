"""Share of a default app call spent inside masked SpGEMM — the glue gate.

ROADMAP aim 1 counts a whole app call, so what surrounds the kernel counts
as much as the kernel: relabelling and ``tril`` before triangle counting,
``numsp`` merges and level alignment around betweenness centrality's eleven
products.  This gate reads the share from the result's own fields,
``spgemm_seconds / total_seconds`` — a ratio inside one process and one
call, so drift of a shared host cancels — and asserts at least

* 0.65 for ``triangle_count_detail(rmat(14), algo="msa")`` and
* 0.72 for ``betweenness_centrality(rmat(12), 64 sources)`` at its defaults

(0.54 / 0.53 before the sparse glue went sort-free and 0.64-0.74 /
0.73-0.75 after, when the bound was 0.62 for both; the same glue around a
native MSA loop that no longer mispredicts, half the kernel time, reads
0.46-0.56 / 0.68-0.70 — the high end of the first on a busy host, where
the kernel slows down more than the prepare does — and 0.76-0.77 /
0.57-0.60 once the triangle-counting prepare became two counting scatters
(the parent read 0.46-0.54 / 0.57-0.60 in the same hour), so the TC bound
is that reading less a margin of 0.11; BC's 0.60 held until ``numsp +=
frontier`` became one native row merge and the backward alignment one row
walk, when BC read 0.80-0.81 (6.9-7.1 ms outside SpGEMM) against the
parent's 0.62 (19.7 ms) in the same hour, so its bound is 0.72, that less
a margin.  A share falls when the kernel gets
faster, so the bounds moved with the kernel; the absolute row,
milliseconds outside SpGEMM, is printed beside them).  Each share is the
best of ``REPEATS`` calls, every timed call following an untimed one.  The
table also reports, unasserted, the absolute rows behind the shares — the
triangle-counting prepare on both tiers, the BC call outside its products
— and the CSC build in nanoseconds per stored entry on both tiers
(``HostProfile.csc_nnz_ns`` is the checked-in form of that row).
"""

import contextlib
import time

import numpy as np

from repro.apps import betweenness_centrality, triangle_count_detail
from repro.apps.triangle_counting import _prepare
from repro.core.kernels import native
from repro.graphs import rmat
from repro.sparse import CSC

REPEATS = 7
#: cell -> least share of the call inside masked SpGEMM
MIN_SPGEMM_SHARE = {"tc rmat-14 msa": 0.65, "bc rmat-12 x64": 0.72}


def _calls(call) -> list:
    """``(wall seconds, result)`` of REPEATS calls, each after an untimed one."""
    out = []
    for _ in range(REPEATS):
        call()
        t0 = time.perf_counter()
        res = call()
        out.append((time.perf_counter() - t0, res))
    return out


def _best_s(call) -> float:
    return min(dt for dt, _ in _calls(call))


def _share(result) -> float:
    return result.spgemm_seconds / result.total_seconds


def test_glue_share(benchmark, save_result):
    def run():
        tc_graph, bc_graph = rmat(14, seed=1), rmat(12, seed=1)
        sources = np.random.default_rng(1).choice(bc_graph.nrows, size=64, replace=False)
        rows = []
        for name, call in (
            ("tc rmat-14 msa", lambda: triangle_count_detail(tc_graph, algo="msa")),
            ("bc rmat-12 x64", lambda: betweenness_centrality(bc_graph, sources)),
        ):
            res = max((r for _, r in _calls(call)), key=_share)
            rows.append({"cell": name, "share": _share(res), "total_s": res.total_seconds,
                         "outside_s": res.total_seconds - res.spgemm_seconds})
        extras, tiers = {}, {"numpy": native.disabled}
        if native.load() is not None:
            tiers["native"] = contextlib.nullcontext
        for tier, scope in tiers.items():
            with scope():
                extras[f"tc prepare ms ({tier})"] = _best_s(
                    lambda: _prepare(tc_graph, True)) * 1e3
                seconds = _best_s(lambda: CSC.from_csr(tc_graph))
            extras[f"CSC.from_csr ns/nnz ({tier})"] = seconds * 1e9 / tc_graph.nnz
        return rows, extras

    rows, extras = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"share of the call inside masked SpGEMM (best of {REPEATS})",
        f"{'cell':16} {'share':>6} {'at least':>8} {'call ms':>8} {'outside SpGEMM ms':>18}",
    ]
    for r in rows:
        lines.append(f"{r['cell']:16} {r['share']:6.2f} {MIN_SPGEMM_SHARE[r['cell']]:8.2f} "
                     f"{r['total_s'] * 1e3:8.1f} {r['outside_s'] * 1e3:18.1f}")
    lines += [f"{name:32} {value:8.2f}" for name, value in extras.items()]
    save_result("\n".join(lines), data={"rows": rows, "extras": extras}, title="glue share")

    low = [(r["cell"], round(r["share"], 3))
           for r in rows if r["share"] < MIN_SPGEMM_SHARE[r["cell"]]]
    assert not low, f"masked SpGEMM is under {MIN_SPGEMM_SHARE} of the default call: {low}"
