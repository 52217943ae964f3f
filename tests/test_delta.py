"""Iterative apps: k-truss's support decrement (``ktruss(delta=)``)
against the full product every round, and the ``delta=`` / ``session=``
keywords no other entry point takes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.graphs import erdos_renyi, rmat
from repro.machine import OpCounter
from repro.sparse import CSR


# ----------------------------------------------------------------------
# iterative apps
# ----------------------------------------------------------------------
class TestApps:
    def test_ktruss_small_delta_certified(self):
        # an 8-clique plus one weak vertex in a 600-vertex universe: the
        # first prune removes only the weak edges, so round 2 decrements
        # the support by two products over those 4 entries
        from repro.apps import ktruss

        n = 600
        r, c = [], []
        for i in range(8):
            for j in range(8):
                if i != j:
                    r.append(i)
                    c.append(j)
        for u, v in [(8, 0), (8, 1)]:
            r += [u, v]
            c += [v, u]
        g = CSR.from_coo((n, n), np.array(r), np.array(c),
                         np.ones(len(r))).pattern()
        base = ktruss(g, 4, algo="auto", delta=None)
        cnt = OpCounter()
        res = ktruss(g, 4, algo="auto", delta="auto", counter=cnt)
        assert np.array_equal(res.truss.to_dense(), base.truss.to_dense())
        assert res.iterations == base.iterations == 2
        assert base.flops_per_iter == [426, 392]
        assert res.flops_per_iter == [426, 14 + 6]
        assert cnt.delta_fallbacks == 0
        # the certificate
        assert sum(res.flops_per_iter) < res.iterations * res.flops_per_iter[0]

    def test_ktruss_delta_equals_plain_on_rmat(self):
        # pruned edges sit at hubs, whose rows every other row reads; the
        # support decrement still multiplies only the removed edges
        from repro.apps import ktruss

        g = rmat(7, seed=10)
        base = ktruss(g, 5, algo="auto", delta=None)
        cnt = OpCounter()
        res = ktruss(g, 5, algo="auto", delta="auto", counter=cnt)
        assert np.array_equal(res.truss.to_dense(), base.truss.to_dense())
        assert res.iterations == base.iterations
        assert cnt.delta_fallbacks == 0
        assert sum(res.flops_per_iter) < res.iterations * res.flops_per_iter[0]

    def test_only_ktruss_takes_delta(self):
        g = erdos_renyi(32, 32, 3, seed=4)
        with pytest.raises(TypeError, match="delta"):
            masked_spgemm(g, g, g, delta="auto")

    def test_only_ktruss_and_bc_take_session(self):
        # sessions were removed: the two apps keep the spelling (None /
        # False), every other entry point rejects the keyword
        from repro.engine import execute, plan

        g = erdos_renyi(32, 32, 3, seed=4)
        calls = (
            lambda: masked_spgemm(g, g, g, session=None),
            lambda: masked_spgemm(g, g, g, algo="auto", session=False),
            lambda: execute(plan(g, g, g), g, g, g, session=False),
        )
        for call in calls:
            with pytest.raises(TypeError, match="session"):
                call()
