"""Wall-clock regret of the shipped app defaults against the simplest call.

ROADMAP's north-star complaint — "the default configuration is slower than
the simplest one" — as a gate.  An app runs without a session unless its
caller opens one, so the simplest call that competes with the default is
the forced kernel: the default ``betweenness_centrality(g, 64 sources)``
(``algo="auto"``) must take at most the time of ``algo="msa",
session=False`` on R-MAT scale 10-12, and the default ``ktruss(g, 5)`` at
most 1.1x that call on R-MAT 10.  The support decrement of
``ktruss(delta="auto")`` (``docs/algorithms.md``, "k-truss") keeps its
stated win and crossover against ``delta=None``: at most 0.6x on R-MAT
10-12, and at most 1.05x on ``erdos_renyi(2048, 2048, 64)``, where round 1
removes 69 % of the edges and the priced rule must take the full branch.

Same method as ``test_auto_regret.py``: every time is a best-of-5 in this
process, the rounds interleave the two calls so drift on a shared host hits
them alike, and every timed call directly follows an untimed call of the
same kind.  A cell that reads over its limit is measured for five more
rounds before it counts.  Every cell is asserted, small ones too: a ratio
against the forced kernel grows when the kernel gets faster, so the
default's fixed planning cost has to shrink with it.  The default's result
must equal the baseline's (centrality to 1e-12 relative: another kernel
sums in another order), asserted on every cell.
"""

import time

import numpy as np

from repro.apps import betweenness_centrality, ktruss
from repro.graphs import erdos_renyi, rmat

SCALES = (10, 11, 12)
REPEATS = 5
#: default vs the forced-msa call: BC, k-truss on R-MAT 10
BC_REGRET = 1.0
KTRUSS_REGRET = 1.1
#: default k-truss vs delta=None: the decrement's win, and its crossover
KTRUSS_WIN = 0.6
MAX_REGRET = 1.05


def _ktruss_cell(name, g, simplest, limit):
    return (
        name,
        lambda **kw: ktruss(g, 5, **kw),
        simplest,
        lambda r, s: all(
            np.array_equal(p, q)
            for p, q in zip(
                (*r.truss.segment_arrays(), r.support, r.edges_per_iter),
                (*s.truss.segment_arrays(), s.support, s.edges_per_iter),
            )
        ),
        limit,
    )


def _cells():
    forced = {"algo": "msa", "session": False}
    for scale in SCALES:
        g = rmat(scale, seed=1)
        sources = np.random.default_rng(1).choice(g.nrows, size=64, replace=False)
        if scale == 10:
            yield _ktruss_cell("ktruss rmat-10 msa", g, forced, KTRUSS_REGRET)
        yield _ktruss_cell(f"ktruss rmat-{scale}", g, {"delta": None}, KTRUSS_WIN)
        yield (
            f"bc rmat-{scale} msa",
            lambda **kw: betweenness_centrality(g, sources, **kw),
            forced,
            lambda r, s: np.allclose(r.centrality, s.centrality, rtol=1e-12, atol=0),
            BC_REGRET,
        )
    yield _ktruss_cell(
        "ktruss er2048/64", erdos_renyi(2048, 2048, 64, seed=2), {"delta": None},
        MAX_REGRET,
    )


def test_default_regret(benchmark, save_result):
    def run():
        rows = []
        for name, call, simplest, same, limit in _cells():
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
                    "simplest": simplest,
                    "equal": bool(same(out["default"], out["simplest"])),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"shipped default vs the simplest call (best of {REPEATS}; every cell asserted)",
        f"{'cell':20} {'simplest ms':>11} {'default ms':>10} {'regret':>7} {'limit':>6}",
    ]
    for r in rows:
        r["regret"] = r["default_s"] / r["simplest_s"]
        lines.append(
            f"{r['cell']:20} {r['simplest_s'] * 1e3:11.2f} {r['default_s'] * 1e3:10.2f} "
            f"{r['regret']:6.2f}x {r['limit']:5.2f}x"
        )
    save_result("\n".join(lines), data={"rows": rows}, title="default regret")

    assert all(r["equal"] for r in rows), [r["cell"] for r in rows if not r["equal"]]
    bad = [
        (r["cell"], round(r["regret"], 3))
        for r in rows
        if r["regret"] > r["limit"]
    ]
    assert not bad, f"shipped default over its limit against the simplest call: {bad}"
