"""Tests for masked SpMV (push/pull) and direction-optimized BFS — the
SpMV-level masking the paper traces its lineage to (Section 4)."""

import inspect

import networkx as nx
import numpy as np
import pytest

from repro.apps import direction_optimized_bfs, multi_source_bfs
from repro.core import masked_spmv_pull, masked_spmv_push
from repro.graphs import erdos_renyi, erdos_renyi_graph, rmat
from repro.machine import OpCounter
from repro.semiring import MIN_PLUS
from repro.sparse import CSC

from .conftest import random_csr


@pytest.fixture(scope="module")
def spmv_setup():
    a = random_csr(60, 50, 4, seed=1)
    rng = np.random.default_rng(2)
    x_vals = rng.random(60)
    x_pat = rng.random(60) < 0.4
    m_pat = rng.random(50) < 0.5
    return a, x_vals, x_pat, m_pat


def dense_oracle(a, x_vals, x_pat, m_pat, complement=False):
    xs = x_vals * x_pat
    y = xs @ a.to_dense()
    sel = ~m_pat if complement else m_pat
    return y * sel


class TestMaskedSpMV:
    def test_push_matches_oracle(self, spmv_setup):
        a, x_vals, x_pat, m_pat = spmv_setup
        want = dense_oracle(a, x_vals, x_pat, m_pat)
        y, hit = masked_spmv_push(a, x_vals, x_pat, m_pat)
        assert np.allclose(y[hit], want[hit])
        assert np.allclose(want[~hit], 0.0)

    def test_pull_matches_push(self, spmv_setup):
        a, x_vals, x_pat, m_pat = spmv_setup
        yp, hp = masked_spmv_push(a, x_vals, x_pat, m_pat)
        c = OpCounter()
        yl, hl = masked_spmv_pull(CSC.from_csr(a), x_vals, x_pat, m_pat, counter=c)
        assert np.array_equal(hp, hl)
        assert np.allclose(yp[hp], yl[hl])
        # pull visits only the mask's columns
        assert c.mask_scans == int(m_pat.sum())

    def test_complement_push(self, spmv_setup):
        a, x_vals, x_pat, m_pat = spmv_setup
        want = dense_oracle(a, x_vals, x_pat, m_pat, complement=True)
        y, hit = masked_spmv_push(a, x_vals, x_pat, m_pat, complement=True)
        assert np.allclose(y[hit], want[hit])
        assert np.allclose(want[~hit], 0.0)

    def test_pull_rejects_complement(self, spmv_setup):
        """Pull enumerates the mask, so it cannot apply a complemented one:
        the kernel takes no ``complement`` at all."""
        a, x_vals, x_pat, m_pat = spmv_setup
        assert "complement" not in inspect.signature(masked_spmv_pull).parameters
        with pytest.raises(TypeError, match="complement"):
            masked_spmv_pull(CSC.from_csr(a), x_vals, x_pat, m_pat, complement=True)

    def test_index_patterns_accepted(self, spmv_setup):
        a, x_vals, x_pat, m_pat = spmv_setup
        y1, h1 = masked_spmv_push(a, x_vals, x_pat, m_pat)
        y2, h2 = masked_spmv_push(
            a, x_vals, np.flatnonzero(x_pat), np.flatnonzero(m_pat)
        )
        assert np.array_equal(h1, h2)
        assert np.allclose(y1, y2)

    def test_semiring_min_plus(self, spmv_setup):
        a, x_vals, x_pat, m_pat = spmv_setup
        y, hit = masked_spmv_push(a, x_vals, x_pat, m_pat, semiring=MIN_PLUS)
        # oracle: min over k in x of x_k + a_kj at masked positions
        d = a.to_dense()
        want = np.full(a.ncols, np.inf)
        for k in np.flatnonzero(x_pat):
            row = d[k]
            nz = row != 0
            want[nz] = np.minimum(want[nz], x_vals[k] + row[nz])
        want[~m_pat] = np.inf
        assert np.allclose(y[hit], want[hit])

    def test_empty_cases(self):
        a = random_csr(10, 10, 2, seed=4)
        y, hit = masked_spmv_push(
            a, np.zeros(10), np.zeros(10, dtype=bool), np.ones(10, dtype=bool)
        )
        assert not hit.any()
        y, hit = masked_spmv_pull(
            CSC.from_csr(a), np.ones(10), np.ones(10, dtype=bool),
            np.zeros(10, dtype=bool),
        )
        assert not hit.any()

    @pytest.mark.parametrize("kernel", ["push", "pull"])
    @pytest.mark.parametrize("which", ["x", "mask"])
    @pytest.mark.parametrize("pattern", [[-1], [8], [0, 9], np.ones(7, dtype=bool),
                                         np.ones(9, dtype=bool)],
                             ids=["negative", "n", "past-n", "short-bool", "long-bool"])
    def test_bad_patterns_raise(self, kernel, which, pattern):
        """A pattern index outside ``[0, n)`` or a boolean pattern of another
        length is a ``ValueError``, not an alias from the end or a numpy
        indexing error."""
        a = erdos_renyi(8, 8, 3, seed=1)
        op = a if kernel == "push" else CSC.from_csr(a)
        kernel_fn = masked_spmv_push if kernel == "push" else masked_spmv_pull
        good = np.array([0, 1])
        x_pat, m_pat = (pattern, good) if which == "x" else (good, pattern)
        with pytest.raises(ValueError, match="pattern"):
            kernel_fn(op, np.ones(8), x_pat, m_pat)


class TestDirectionOptimizedBFS:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi_graph(250, 6, seed=7)

    @pytest.mark.parametrize("force", [None, "push", "pull"])
    def test_matches_networkx(self, force, graph):
        G = nx.from_scipy_sparse_array(graph.to_scipy())
        res = direction_optimized_bfs(graph, 3, force=force)
        want = nx.single_source_shortest_path_length(G, 3)
        for v in range(graph.nrows):
            assert res.levels[v] == want.get(v, -1)

    def test_matches_masked_spgemm_bfs(self, graph):
        res = direction_optimized_bfs(graph, 11)
        ref = multi_source_bfs(graph, [11])
        assert np.array_equal(res.levels, ref.levels[0])

    def test_switches_direction_on_rmat(self):
        """On a heavy-tailed graph the frontier explodes — the optimizer
        must actually use pull at some level (the whole point)."""
        g = rmat(11, seed=4)
        hub = int(np.argmax(g.row_nnz()))
        res = direction_optimized_bfs(g, hub)
        assert "pull" in res.directions
        assert res.directions[0] == "push"

    def test_pull_does_less_work_on_huge_frontier(self):
        g = rmat(10, seed=5)
        hub = int(np.argmax(g.row_nnz()))
        c_auto, c_push = OpCounter(), OpCounter()
        direction_optimized_bfs(g, hub, counter=c_auto)
        direction_optimized_bfs(g, hub, force="push", counter=c_push)
        assert c_auto.total_ops() < c_push.total_ops()

    def test_the_csc_is_built_at_the_first_pull_level(self, monkeypatch):
        """Only a pull reads the CSC: ``force="push"`` never builds it and a
        run that pulls builds it once; the levels are the masked-SpGEMM
        BFS's and the directions the alpha rule's, spied on or not."""
        g = rmat(11, seed=4)
        hub = int(np.argmax(g.row_nnz()))
        want = {force: direction_optimized_bfs(g, hub, force=force)
                for force in (None, "push", "pull")}
        built, from_csr = [], CSC.from_csr

        def spy(mat):
            built.append(mat)
            return from_csr(mat)

        monkeypatch.setattr(CSC, "from_csr", spy)
        for force, calls in ((None, 1), ("push", 0), ("pull", 1)):
            built.clear()
            res = direction_optimized_bfs(g, hub, force=force)
            assert len(built) == calls, force
            assert np.array_equal(res.levels, want[force].levels)
            assert res.directions == want[force].directions and res.depth == want[force].depth
        assert "pull" in want[None].directions and want[None].directions[0] == "push"
        ref = multi_source_bfs(g, [hub]).levels[0]
        assert all(np.array_equal(w.levels, ref) for w in want.values())

    def test_validation(self, graph):
        with pytest.raises(ValueError, match="source"):
            direction_optimized_bfs(graph, 9999)
        with pytest.raises(ValueError, match="force"):
            direction_optimized_bfs(graph, 0, force="diagonal")

    @pytest.mark.parametrize("alpha", [float("nan"), -1.0, 0.0, float("inf")])
    def test_alpha_must_be_finite_and_positive(self, alpha, graph):
        """``alpha`` is the only decision input: nan, a non-positive or an
        infinite ratio would push (or pull) every level without saying so."""
        with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
            direction_optimized_bfs(graph, 0, alpha=alpha)

    def test_isolated_source(self):
        from repro.sparse import CSR

        g = CSR.from_coo((5, 5), [1, 2], [2, 1], [1.0, 1.0])
        res = direction_optimized_bfs(g, 0)
        assert res.depth == 0
        assert res.levels[0] == 0
        assert (res.levels[1:] == -1).all()


class TestSSSP:
    @pytest.fixture(scope="class")
    def weighted_graph(self):
        # symmetric positive-weighted random graph
        g = erdos_renyi_graph(120, 5, seed=20)
        return g

    def test_matches_networkx_dijkstra(self, weighted_graph):
        from repro.apps import sssp

        g = weighted_graph
        G = nx.from_scipy_sparse_array(g.to_scipy())
        res = sssp(g, [0, 17, 63])
        for q, s in enumerate([0, 17, 63]):
            want = nx.single_source_dijkstra_path_length(G, s)
            for v in range(g.nrows):
                if v in want:
                    assert res.dist[q, v] == pytest.approx(want[v])
                else:
                    assert np.isinf(res.dist[q, v])

    def test_unweighted_equals_bfs_levels(self):
        from repro.apps import multi_source_bfs, sssp

        g = erdos_renyi_graph(80, 5, seed=21).pattern()
        res = sssp(g, [3])
        bfs = multi_source_bfs(g, [3])
        for v in range(80):
            if bfs.levels[0, v] >= 0:
                assert res.dist[0, v] == bfs.levels[0, v]
            else:
                assert np.isinf(res.dist[0, v])

    def test_source_distance_zero(self, weighted_graph):
        from repro.apps import sssp

        res = sssp(weighted_graph, [5])
        assert res.dist[0, 5] == 0.0

    def test_rejects_negative_weights(self):
        from repro.apps import sssp
        from repro.sparse import CSR

        g = CSR.from_coo((3, 3), [0, 1], [1, 0], [-1.0, -1.0])
        with pytest.raises(ValueError, match="non-negative"):
            sssp(g, [0])

    def test_rejects_bad_source(self, weighted_graph):
        from repro.apps import sssp

        with pytest.raises(ValueError, match="source"):
            sssp(weighted_graph, [999])

    def test_triangle_shortcut(self):
        """Direct edge vs cheaper 2-hop path: relaxation must find the
        2-hop route."""
        from repro.apps import sssp
        from repro.sparse import CSR

        rows = [0, 1, 0, 2, 1, 2]
        cols = [1, 0, 2, 0, 2, 1]
        vals = [10.0, 10.0, 1.0, 1.0, 2.0, 2.0]
        g = CSR.from_coo((3, 3), rows, cols, vals)
        res = sssp(g, [0])
        assert res.dist[0, 1] == pytest.approx(3.0)  # 0->2->1, not 0->1
