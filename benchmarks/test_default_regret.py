"""Wall-clock regret of the shipped app defaults against the simplest call.

ROADMAP's north-star complaint — "the default configuration is slower than
the simplest one" — as a gate: on R-MAT scale 10-12 the default
``ktruss(g, 5)`` (loop-local ``ExecutionSession`` + ``delta="auto"``) and
``betweenness_centrality(g, 64 sources)`` (loop-local session) must take at
most 1.05x the time of the same call with ``session=False`` (and
``delta=None``), i.e. every cache a default opens has to pay for its own
key.

Same method as ``test_auto_regret.py``: every time is a best-of-5 in this
process, the rounds interleave the two calls so drift on a shared host hits
them alike, and every timed call directly follows an untimed call of the
same kind.  A cell that reads over the limit is measured for five more
rounds before it counts.  Cells whose baseline is under 20 ms are reported
but not asserted.  The default's result must equal the baseline's, asserted
on every cell.
"""

import time

import numpy as np

from repro.apps import betweenness_centrality, ktruss
from repro.graphs import rmat

SCALES = (10, 11, 12)
REPEATS = 5
MAX_REGRET = 1.05
MIN_ASSERTED_S = 0.020


def _cells():
    for scale in SCALES:
        g = rmat(scale, seed=1)
        sources = np.random.default_rng(1).choice(g.nrows, size=64, replace=False)
        yield (
            f"ktruss rmat-{scale}",
            lambda **kw: ktruss(g, 5, **kw),
            {"session": False, "delta": None},
            lambda r: r.truss.segment_arrays(),
        )
        yield (
            f"bc rmat-{scale}",
            lambda **kw: betweenness_centrality(g, sources, **kw),
            {"session": False},
            lambda r: (r.centrality,),
        )


def test_default_regret(benchmark, save_result):
    def run():
        rows = []
        for name, call, simplest, arrays in _cells():
            calls = {"default": call, "simplest": lambda: call(**simplest)}
            best, out = {}, {}
            for rnd in range(2 * REPEATS):
                if rnd == REPEATS and best["default"] <= MAX_REGRET * best["simplest"]:
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
        f"{'cell':16} {'simplest ms':>11} {'default ms':>10} {'regret':>7}",
    ]
    for r in rows:
        r["regret"] = r["default_s"] / r["simplest_s"]
        r["asserted"] = r["simplest_s"] >= MIN_ASSERTED_S
        lines.append(
            f"{r['cell']:16} {r['simplest_s'] * 1e3:11.2f} {r['default_s'] * 1e3:10.2f} "
            f"{r['regret']:6.2f}x{'*' if r['asserted'] else ' '}"
        )
    lines.append("* asserted cell")
    save_result("\n".join(lines), data={"rows": rows}, title="default regret")

    assert all(r["equal"] for r in rows), [r["cell"] for r in rows if not r["equal"]]
    bad = [
        (r["cell"], round(r["regret"], 3))
        for r in rows
        if r["asserted"] and r["regret"] > MAX_REGRET
    ]
    assert not bad, f"shipped default slower than {MAX_REGRET}x the simplest call: {bad}"
