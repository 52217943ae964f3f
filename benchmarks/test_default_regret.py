"""Wall-clock regret of the shipped app defaults against the simplest call.

ROADMAP's north-star complaint — "the default configuration is slower than
the simplest one" — as a gate: on R-MAT scale 10-12 the default
``betweenness_centrality(g, 64 sources)`` (loop-local session) must take at
most 1.05x the time of the same call with ``session=False``, i.e. every
cache a default opens has to pay for its own key.  The default
``ktruss(g, 5)`` (loop-local session + ``delta="auto"``, the support
decrement of ``docs/incremental.md``) has a stated win and a stated
crossover against ``session=False, delta=None``: at most 0.6x on R-MAT
10-12, and at most 1.05x on ``erdos_renyi(2048, 2048, 64)``, where round 1
removes 69 % of the edges and the priced rule must take the full branch.

Same method as ``test_auto_regret.py``: every time is a best-of-5 in this
process, the rounds interleave the two calls so drift on a shared host hits
them alike, and every timed call directly follows an untimed call of the
same kind.  A cell that reads over its limit is measured for five more
rounds before it counts.  Cells whose baseline is under 20 ms are reported
but not asserted.  The default's result must equal the baseline's, asserted
on every cell.
"""

import time

import numpy as np

from repro.apps import betweenness_centrality, ktruss
from repro.graphs import erdos_renyi, rmat

SCALES = (10, 11, 12)
REPEATS = 5
MAX_REGRET = 1.05
KTRUSS_WIN = 0.6
MIN_ASSERTED_S = 0.020


def _ktruss_cell(name, g, limit):
    return (
        name,
        lambda **kw: ktruss(g, 5, **kw),
        {"session": False, "delta": None},
        lambda r: (*r.truss.segment_arrays(), r.support, r.edges_per_iter),
        limit,
    )


def _cells():
    for scale in SCALES:
        g = rmat(scale, seed=1)
        sources = np.random.default_rng(1).choice(g.nrows, size=64, replace=False)
        yield _ktruss_cell(f"ktruss rmat-{scale}", g, KTRUSS_WIN)
        yield (
            f"bc rmat-{scale}",
            lambda **kw: betweenness_centrality(g, sources, **kw),
            {"session": False},
            lambda r: (r.centrality,),
            MAX_REGRET,
        )
    yield _ktruss_cell("ktruss er2048/64", erdos_renyi(2048, 2048, 64, seed=2), MAX_REGRET)


def test_default_regret(benchmark, save_result):
    def run():
        rows = []
        for name, call, simplest, arrays, limit in _cells():
            calls = {"default": call, "simplest": lambda: call(**simplest)}
            best, out = {}, {}
            for rnd in range(2 * REPEATS):
                if rnd == REPEATS and best["default"] <= limit * best["simplest"]:
                    break
                for kind, fn in calls.items():
                    fn()
                    t0 = time.perf_counter()
                    out[kind] = fn()
                    dt = time.perf_counter() - t0
                    best[kind] = min(best.get(kind, dt), dt)
            rows.append(
                {
                    "cell": name,
                    "limit": limit,
                    "default_s": best["default"],
                    "simplest_s": best["simplest"],
                    "equal": all(
                        np.array_equal(p, q)
                        for p, q in zip(arrays(out["default"]), arrays(out["simplest"]))
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"shipped default vs session=False/delta=None (best of {REPEATS}; asserted where "
        f"the baseline >= {MIN_ASSERTED_S * 1e3:.0f} ms)",
        f"{'cell':16} {'simplest ms':>11} {'default ms':>10} {'regret':>7} {'limit':>6}",
    ]
    for r in rows:
        r["regret"] = r["default_s"] / r["simplest_s"]
        r["asserted"] = r["simplest_s"] >= MIN_ASSERTED_S
        lines.append(
            f"{r['cell']:16} {r['simplest_s'] * 1e3:11.2f} {r['default_s'] * 1e3:10.2f} "
            f"{r['regret']:6.2f}x{'*' if r['asserted'] else ' '} {r['limit']:5.2f}x"
        )
    lines.append("* asserted cell")
    save_result("\n".join(lines), data={"rows": rows}, title="default regret")

    assert all(r["equal"] for r in rows), [r["cell"] for r in rows if not r["equal"]]
    bad = [
        (r["cell"], round(r["regret"], 3))
        for r in rows
        if r["asserted"] and r["regret"] > r["limit"]
    ]
    assert not bad, f"shipped default over its limit against the simplest call: {bad}"
