"""Iterative apps: k-truss's support decrement (``ktruss(delta=)``)
against the full product every round, the streaming window with a
caller's session against ``session=False``, and MCL's selective expansion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.engine import ExecutionSession
from repro.graphs import erdos_renyi, rmat
from repro.machine import OpCounter
from repro.sparse import CSR


def _same(got: CSR, ref: CSR) -> None:
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


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
        base = ktruss(g, 4, algo="auto", session=False, delta=None)
        cnt = OpCounter()
        with ExecutionSession() as sess:
            res = ktruss(g, 4, algo="auto", session=sess, delta="auto",
                         counter=cnt)
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
        base = ktruss(g, 5, algo="auto", session=False, delta=None)
        cnt = OpCounter()
        with ExecutionSession() as sess:
            res = ktruss(g, 5, algo="auto", session=sess, delta="auto",
                         counter=cnt)
        assert np.array_equal(res.truss.to_dense(), base.truss.to_dense())
        assert res.iterations == base.iterations
        assert cnt.delta_fallbacks == 0
        assert sum(res.flops_per_iter) < res.iterations * res.flops_per_iter[0]

    def test_streaming_matches_full_recompute(self):
        from repro.apps import edge_stream_from_graph, sliding_window_triangles

        g = erdos_renyi(128, 128, 6, seed=4)
        edges = edge_stream_from_graph(g, seed=0)
        full = sliding_window_triangles(edges, 128, window=200, step=25,
                                        session=False)
        with ExecutionSession() as sess:
            sessioned = sliding_window_triangles(edges, 128, window=200, step=25,
                                                 session=sess)
        assert sessioned.steps == full.steps > 1
        assert sessioned.triangles == full.triangles
        assert sessioned.edges_per_step == full.edges_per_step
        _same(sessioned.support, full.support)

    def test_streaming_stream_roundtrip(self):
        from repro.apps import edge_stream_from_graph, sliding_window_triangles

        from repro.sparse import pattern_union

        raw = erdos_renyi(64, 64, 5, seed=4)
        g = pattern_union(raw.pattern(), raw.transpose().pattern())
        edges = edge_stream_from_graph(g, seed=1)
        assert edges.shape == (g.triu(1).nnz, 2)
        # a window covering the whole stream reproduces the static count
        from repro.apps import triangle_count

        res = sliding_window_triangles(edges, 64, window=edges.shape[0],
                                       step=edges.shape[0], session=False)
        assert res.steps == 1
        assert res.triangles[0] == triangle_count(g)

    def test_only_ktruss_takes_delta(self):
        from repro.apps import (
            edge_stream_from_graph,
            markov_clustering,
            random_sparse_dnn,
            sliding_window_triangles,
            sparse_dnn_forward_topk,
        )

        g = erdos_renyi(32, 32, 3, seed=4)
        net = random_sparse_dnn(neurons=32, depth=1, fan_in=2)
        calls = (
            lambda: masked_spgemm(g, g, g, delta="auto"),
            lambda: sliding_window_triangles(edge_stream_from_graph(g), 32,
                                             window=8, step=4, delta="auto"),
            lambda: markov_clustering(g, delta="auto"),
            lambda: sparse_dnn_forward_topk(net, g, delta="auto"),
        )
        for call in calls:
            with pytest.raises(TypeError, match="delta"):
                call()

    def test_mcl_delta_equals_plain(self):
        from repro.apps import markov_clustering

        # MCL's expansion is not a constant-operand loop: it takes no
        # session, and the planned expansion equals the forced msa one
        g = erdos_renyi(64, 64, 4, seed=6)
        base = markov_clustering(g, selective_expansion=True, algo="msa")
        res = markov_clustering(g, selective_expansion=True, algo="auto")
        assert np.array_equal(res.labels, base.labels)
        assert res.iterations == base.iterations
        with pytest.raises(TypeError, match="session"):
            markov_clustering(g, session=False)
