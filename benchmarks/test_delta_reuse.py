"""k-truss support decrement: identical to the full recompute.

One test: the default k-truss (``delta="auto"``: the support decrement,
priced per round; ``docs/algorithms.md``, "k-truss") is **bit-for-bit
identical** to the full-recompute run (``delta=None``) on the Fig. 10
R-MAT case, with the flops each round ran reported as the saved-work
certificate (always asserted, any machine).  Its ``.json`` twin carries
the per-round flops of both runs.
"""

from __future__ import annotations

import numpy as np

from repro.apps import ktruss
from repro.engine import ExecutionSession
from repro.graphs import rmat


def test_ktruss_delta_identical(benchmark, save_result):
    """Default (support-decrement) k-truss == full-recompute k-truss, bit
    for bit, with the flops each round ran as the saved-work certificate."""
    g = rmat(10, seed=13)

    def run():
        base = ktruss(g, 5, algo="auto", session=False, delta=None)
        with ExecutionSession() as sess:
            res = ktruss(g, 5, algo="auto", session=sess, delta="auto")
        return base, res

    base, res = benchmark.pedantic(run, rounds=1, iterations=1)
    for got, want in zip(res.truss.segment_arrays(), base.truss.segment_arrays()):
        assert np.array_equal(got, want)
    assert np.array_equal(res.support, base.support)
    assert res.iterations == base.iterations
    assert res.edges_per_iter == base.edges_per_iter
    assert res.flops < base.flops
    data = {
        "graph": "rmat-10", "k": 5, "iterations": res.iterations,
        "edges_per_iter": res.edges_per_iter,
        "flops_per_iter": res.flops_per_iter,
        "flops_per_iter_full": base.flops_per_iter,
    }
    save_result(
        f"k-truss (k=5, rmat-10) delta=auto vs delta=None: identical over "
        f"{res.iterations} rounds; flops per round {res.flops_per_iter} "
        f"vs {base.flops_per_iter}",
        data=data, title="delta reuse — k-truss identity",
    )
