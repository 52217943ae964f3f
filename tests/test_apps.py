"""Application tests: Triangle Counting, k-truss, Betweenness Centrality,
BFS — validated against networkx oracles."""

import functools

import networkx as nx
import numpy as np
import pytest

from repro.apps import (
    betweenness_centrality,
    ktruss,
    multi_source_bfs,
    triangle_count,
    triangle_count_detail,
)
from repro.core import ALGOS, masked_spgemm, supports_complement
from repro.engine import ExecutionSession
from repro.graphs import erdos_renyi, erdos_renyi_graph, rmat
from repro.machine import OpCounter, total_flops
from repro.parallel import active_segments, process_backend_available, shutdown_pool
from repro.semiring import PLUS_PAIR
from repro.sparse import CSR

COMPLEMENT_ALGOS = [a for a in ALGOS if supports_complement(a)]


def _nx(g: CSR) -> nx.Graph:
    return nx.from_scipy_sparse_array(g.to_scipy())


def _bc_reference_sweep(a, sources, *, algo, session, backend, call_log, counter):
    """The betweenness sweep as it stood before the level-aligned rewrite —
    a growing ``delta`` matrix, flat-key lookups, COO round trips — kept here
    as the reference the shipped body is judged by.  Returns ``(centrality,
    depth)``; products, operands and counters must match the shipped body's."""
    from repro.engine import resolve_session
    from repro.semiring import PLUS_TIMES
    from repro.sparse import ewise_add

    def flat_keys(mat):
        rows = np.repeat(np.arange(mat.nrows, dtype=np.int64), mat.row_nnz())
        return rows * np.int64(mat.ncols) + mat.indices

    def lookup(keys, vals, q, default):
        out = np.full(q.shape[0], default)
        if keys.shape[0]:
            idx = np.minimum(np.searchsorted(keys, q), keys.shape[0] - 1)
            hit = keys[idx] == q
            out[hit] = vals[idx[hit]]
        return out

    a = a.pattern()
    n, sources = a.nrows, np.asarray(list(sources), dtype=np.int64)
    s = sources.shape[0]
    session, owned = resolve_session(session, auto=(algo == "auto"))
    kw = dict(algo=algo, semiring=PLUS_TIMES, counter=counter, session=session,
              backend=backend if algo == "auto" else None)
    try:
        a_t = a.transpose()
        frontier = CSR.from_coo((s, n), np.arange(s, dtype=np.int64), sources, np.ones(s))
        numsp, frontiers = frontier.copy(), [frontier]
        while frontier.nnz:
            call_log.append((frontier, a, numsp, True))
            frontier = masked_spgemm(frontier, a, numsp, complement=True, **kw)
            if frontier.nnz == 0:
                break
            frontiers.append(frontier)
            numsp = ewise_add(numsp, frontier)
        depth = len(frontiers) - 1
        delta = CSR.empty((s, n))
        numsp_keys = flat_keys(numsp)
        for d in range(depth, 0, -1):
            rows, cols, _ = frontiers[d].to_coo()
            f_keys = rows * np.int64(n) + cols
            dvals = lookup(flat_keys(delta), delta.data, f_keys, 0.0)
            spv = lookup(numsp_keys, numsp.data, f_keys, 1.0)
            w = CSR.from_coo((s, n), rows, cols, (1.0 + dvals) / spv)
            call_log.append((w, a_t, frontiers[d - 1], False))
            t_d = masked_spgemm(w, a_t, frontiers[d - 1], **kw)
            contrib = t_d.data * lookup(numsp_keys, numsp.data, flat_keys(t_d), 0.0)
            delta = ewise_add(delta, CSR(t_d.shape, t_d.indptr, t_d.indices, contrib,
                                         sorted_indices=t_d.sorted_indices, check=False))
        out = np.zeros(n)
        dr, dc, dv = delta.to_coo()
        own = dc == sources[dr]
        np.add.at(out, dc[~own], dv[~own])
        return out, depth
    finally:
        if owned and session is not None:
            session.close()


def _bc_graphs():
    yield "undirected", erdos_renyi_graph(90, 5, seed=11)
    yield "directed", erdos_renyi(80, 80, 3, seed=12)
    # two components and some isolated vertices
    half = erdos_renyi_graph(30, 4, seed=13)
    r, c, v = half.to_coo()
    yield "disconnected", CSR.from_coo((70, 70), np.concatenate([r, r + 35]),
                                       np.concatenate([c, c + 35]), np.concatenate([v, v]))
    # a directed path into a sink: vertex 5 has no out-edges, and sources it
    yield "sink-source", CSR.from_coo((6, 6), [0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 5, 5], np.ones(6))


BC_GRAPHS = dict(_bc_graphs())


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(120, 7, seed=42)


@pytest.fixture(scope="module")
def graph_nx(graph):
    return _nx(graph)


class TestTriangleCounting:
    def test_matches_networkx(self, graph, graph_nx):
        want = sum(nx.triangles(graph_nx).values()) // 3
        assert triangle_count(graph) == want

    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_algorithms_agree(self, algo, graph, graph_nx):
        want = sum(nx.triangles(graph_nx).values()) // 3
        assert triangle_count(graph, algo=algo) == want

    def test_relabel_invariance(self, graph):
        assert triangle_count(graph, relabel=True) == triangle_count(
            graph, relabel=False
        )

    def test_permutation_invariance(self, graph):
        perm = np.random.default_rng(1).permutation(graph.nrows)
        assert triangle_count(graph.permute(perm)) == triangle_count(graph)

    def test_triangle_free_graph(self):
        # star graph has no triangles
        n = 20
        rows = np.zeros(n - 1, dtype=np.int64)
        cols = np.arange(1, n, dtype=np.int64)
        g = CSR.from_coo(
            (n, n),
            np.concatenate([rows, cols]),
            np.concatenate([cols, rows]),
            np.ones(2 * (n - 1)),
        )
        assert triangle_count(g) == 0

    def test_complete_graph(self):
        n = 10
        g = CSR.from_dense(np.ones((n, n)) - np.eye(n))
        assert triangle_count(g) == n * (n - 1) * (n - 2) // 6

    def test_detail_counters(self, graph):
        res = triangle_count_detail(graph)
        assert res.triangles == triangle_count(graph)
        assert res.counter.flops > 0
        assert res.spgemm_seconds >= 0
        assert res.l_nnz == graph.nnz // 2

    def test_two_phase_same_count(self, graph):
        assert triangle_count(graph, phases=2) == triangle_count(graph, phases=1)


class TestKTruss:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_networkx(self, k, graph, graph_nx):
        res = ktruss(graph, k)
        want = nx.k_truss(graph_nx, k)
        assert res.truss.nnz // 2 == want.number_of_edges()

    def test_truss_is_subgraph(self, graph):
        res = ktruss(graph, 4)
        from repro.sparse import pattern_difference

        extra = pattern_difference(res.truss, graph.pattern())
        assert extra.nnz == 0

    def test_truss_edges_have_support(self, graph):
        """Every edge of the k-truss is in >= k-2 triangles of the truss."""
        k = 4
        res = ktruss(graph, k)
        t = res.truss
        from repro.core import masked_spgemm
        from repro.semiring import PLUS_PAIR

        s = masked_spgemm(t, t, t, semiring=PLUS_PAIR)
        assert s.nnz == t.nnz
        assert np.all(s.data >= k - 2)

    def test_monotone_in_k(self, graph):
        e3 = ktruss(graph, 3).truss.nnz
        e4 = ktruss(graph, 4).truss.nnz
        e5 = ktruss(graph, 5).truss.nnz
        assert e3 >= e4 >= e5

    def test_k3_keeps_triangle_edges(self, graph, graph_nx):
        res = ktruss(graph, 3)
        want = nx.k_truss(graph_nx, 3)
        assert res.truss.nnz // 2 == want.number_of_edges()

    @pytest.mark.parametrize("algo", ["hash", "mca", "inner"])
    def test_algorithms_agree(self, algo, graph):
        base = ktruss(graph, 5).truss
        got = ktruss(graph, 5, algo=algo).truss
        assert got.equals(base)

    def test_flops_and_iterations_reported(self, graph):
        res = ktruss(graph, 5)
        assert res.iterations >= 1
        assert res.flops > 0
        assert len(res.edges_per_iter) == res.iterations
        # edge count must be non-increasing over iterations
        assert all(
            a >= b for a, b in zip(res.edges_per_iter, res.edges_per_iter[1:])
        )

    def test_k_validation(self, graph):
        with pytest.raises(ValueError, match="k must be"):
            ktruss(graph, 2)

    def test_empty_graph(self):
        res = ktruss(CSR.empty((10, 10)), 5)
        assert res.truss.nnz == 0


def _clique_plus_weak_vertex() -> CSR:
    """An 8-clique and a vertex tied to two of its members, in a 600-vertex
    universe: round 1 removes only the two weak edges."""
    r, c = np.nonzero(~np.eye(8, dtype=bool))
    r = np.concatenate([r, [8, 0, 8, 1]])
    c = np.concatenate([c, [0, 8, 1, 8]])
    return CSR.from_coo((600, 600), r, c)


#: R-MAT prunes few edges at hubs (the decrement pays); ER at degree 8
#: loses most edges in round 1 (it does not); er256/32 mixes both
DIFF_GRAPHS = {
    **{f"rmat{s}": lambda s=s: rmat(s, seed=1) for s in (7, 8, 9, 10)},
    "er256/8": lambda: erdos_renyi(256, 256, 8, seed=2),
    "er512/32": lambda: erdos_renyi(512, 512, 32, seed=2),
    "er256/32": lambda: erdos_renyi(256, 256, 32, seed=2),
    "clique+weak": _clique_plus_weak_vertex,
    "empty": lambda: CSR.empty((10, 10)),
}


@functools.cache
def _diff_graph(name):
    return DIFF_GRAPHS[name]()


@functools.cache
def _diff_case(name, k):
    """``(graph, its delta=None run)``, built once per module."""
    g = _diff_graph(name)
    return g, ktruss(g, k, session=False, delta=None)


def _assert_same_run(got, ref):
    for x, y in zip(got.truss.segment_arrays(), ref.truss.segment_arrays()):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert got.iterations == ref.iterations
    assert got.edges_per_iter == ref.edges_per_iter
    assert len(got.flops_per_iter) == got.iterations
    assert got.flops == sum(got.flops_per_iter)
    # the decremented support is the fresh product's, bit for bit
    t = got.truss
    fresh = masked_spgemm(t, t, t, algo="msa", semiring=PLUS_PAIR).data
    assert got.support.tobytes() == fresh.tobytes() == ref.support.tobytes()


class TestKTrussDecrement:
    """``delta="auto"`` / ``"force"`` (support decrement) against
    ``delta=None`` (the paper's full product every round)."""

    @pytest.mark.parametrize("delta", ["auto", "force"])
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("name", list(DIFF_GRAPHS))
    def test_graphs(self, name, k, delta):
        g, ref = _diff_case(name, k)
        _assert_same_run(ktruss(g, k, delta=delta), ref)

    @pytest.mark.parametrize(
        "name,k", [("rmat7", 5), ("rmat8", 5), ("rmat9", 5), ("rmat10", 5), ("clique+weak", 4)]
    )
    def test_rule_decrements_where_few_edges_go(self, name, k):
        g, ref = _diff_case(name, k)
        got = ktruss(g, k)
        assert got.iterations >= 2
        assert got.flops_per_iter == ktruss(g, k, delta="force").flops_per_iter
        assert got.flops_per_iter[0] == ref.flops_per_iter[0]
        assert all(a < b for a, b in zip(got.flops_per_iter[1:], ref.flops_per_iter[1:]))
        assert sum(got.flops_per_iter) < got.iterations * got.flops_per_iter[0]

    @pytest.mark.parametrize("name,k", [("er256/8", 3), ("er256/8", 4), ("er256/8", 5), ("er512/32", 5)])
    def test_rule_takes_the_full_branch_where_most_edges_go(self, name, k):
        g, ref = _diff_case(name, k)
        assert ref.iterations >= 2
        assert ktruss(g, k).flops_per_iter == ref.flops_per_iter
        assert ktruss(g, k, delta="force").flops_per_iter != ref.flops_per_iter

    def test_rule_is_priced_per_round(self):
        g, ref = _diff_case("er256/32", 5)
        got, forced = ktruss(g, 5), ktruss(g, 5, delta="force")
        assert got.flops_per_iter != ref.flops_per_iter
        assert got.flops_per_iter != forced.flops_per_iter
        # each round took the branch the rule names, read from the forced
        # run's own (R, A', A') / (R, R, A') triples
        log = []
        ktruss(g, 5, delta="force", call_log=log)
        for rnd, ((r, cur, _, _), _) in enumerate(zip(log[1::2], log[2::2]), 1):
            pays = 2 * total_flops(r, cur) + total_flops(r, r) < total_flops(cur, cur)
            want = forced.flops_per_iter[rnd] if pays else ref.flops_per_iter[rnd]
            assert got.flops_per_iter[rnd] == want

    @pytest.mark.parametrize("delta", ["auto", "force", None])
    @pytest.mark.parametrize("algo", ["auto", "msa", "hash", "mca", "inner", "esc"])
    @pytest.mark.parametrize("name,k", [("rmat7", 5), ("er256/32", 4), ("clique+weak", 4)])
    def test_algorithms(self, name, k, algo, delta):
        g, ref = _diff_case(name, k)
        _assert_same_run(ktruss(g, k, algo=algo, delta=delta), ref)

    @pytest.mark.parametrize("delta", ["auto", "force", None])
    @pytest.mark.parametrize("session", [False, "own", None])
    def test_sessions(self, session, delta):
        g, ref = _diff_case("rmat8", 5)
        if session == "own":
            with ExecutionSession() as sess:
                got = ktruss(g, 5, session=sess, delta=delta)
                assert sess.stats()["fingerprint_digests"] == 0
        else:
            got = ktruss(g, 5, session=session, delta=delta)
        _assert_same_run(got, ref)
        assert got.counter.delta_fallbacks == got.counter.rows_patched == 0

    @pytest.mark.skipif(not process_backend_available(), reason="no process backend")
    @pytest.mark.parametrize("delta", ["auto", "force", None])
    @pytest.mark.parametrize(
        "kw",
        [{"backend": "process"}, {"shards": (2, 2)}, {"shards": (2, 2), "backend": "process"}],
        ids=["process", "shards", "shards-process"],
    )
    def test_backends_and_shards(self, kw, delta):
        g, ref = _diff_case("rmat7", 5)
        try:
            _assert_same_run(ktruss(g, 5, delta=delta, **kw), ref)
        finally:
            shutdown_pool()
        assert active_segments() == ()

    def test_call_log_and_flops_are_the_products_run(self):
        g, ref = _diff_case("rmat8", 5)
        log = []
        got = ktruss(g, 5, call_log=log)
        assert len(log) == 1 + 2 * (got.iterations - 1)
        assert got.flops == sum(total_flops(a, b) for a, b, _, _ in log)
        assert not any(comp for *_, comp in log)
        a, b, m, _ = log[0]
        assert a is b is m and a.nnz == got.edges_per_iter[0]
        for rnd, ((r1, cur, m1, _), (r2, r3, m2, _)) in enumerate(zip(log[1::2], log[2::2]), 1):
            assert r1 is r2 is r3 and cur is m1 is m2
            assert cur.nnz == got.edges_per_iter[rnd]
            assert r1.nnz == got.edges_per_iter[rnd - 1] - cur.nnz
            assert got.flops_per_iter[rnd] == total_flops(r1, cur) + total_flops(r1, r1)
        full = []
        ktruss(g, 5, call_log=full, delta=None)
        assert [m.nnz for _, _, m, _ in full] == ref.edges_per_iter
        assert all(a is b is m for a, b, m, _ in full)

    @pytest.mark.parametrize("delta", [0.5, 1, 0, "bogus", False])
    def test_numeric_delta_raises(self, graph, delta):
        with pytest.raises(ValueError, match="delta must be"):
            ktruss(graph, 4, delta=delta)


class TestBetweenness:
    def test_matches_networkx_all_sources(self, graph, graph_nx):
        res = betweenness_centrality(graph, sources=range(graph.nrows))
        want = nx.betweenness_centrality(graph_nx, normalized=False)
        ours = res.centrality / 2.0  # undirected halving convention
        for v in range(graph.nrows):
            assert ours[v] == pytest.approx(want[v], abs=1e-8)

    @pytest.mark.parametrize("algo", COMPLEMENT_ALGOS)
    def test_algorithms_agree(self, algo, graph):
        base = betweenness_centrality(graph, sources=range(30), algo="msa")
        got = betweenness_centrality(graph, sources=range(30), algo=algo)
        assert np.allclose(got.centrality, base.centrality)

    @pytest.mark.parametrize("name", BC_GRAPHS)
    @pytest.mark.parametrize("algo", ["auto", "msa", "hash", "esc"])
    def test_matches_the_reference_sweep(self, name, algo):
        """Level-aligned vectors against the matrix-valued sweep they replace:
        same depth, same eleven-or-so products on byte-equal operands, same
        counters; centrality to 1e-12 (only the final summation order moved)."""
        g = BC_GRAPHS[name]
        n = g.nrows
        batches = {"one": [n - 1], "some": list(range(0, n, max(1, n // 16)))[:16],
                   "all": list(range(n))}
        for sources in batches.values():
            for session in (None, False):
                for backend in ("serial", "thread"):
                    log, ref_log = [], []
                    c, ref_c = OpCounter(), OpCounter()
                    got = betweenness_centrality(g, sources, algo=algo, session=session,
                                                 backend=backend, call_log=log, counter=c)
                    want, depth = _bc_reference_sweep(
                        g, sources, algo=algo, session=session, backend=backend,
                        call_log=ref_log, counter=ref_c)
                    case = (name, algo, len(sources), session, backend)
                    assert got.depth == depth, case
                    assert len(log) == len(ref_log) == 2 * depth + 1, case
                    for (a, b, m, comp), (ra, rb, rm, rcomp) in zip(log, ref_log):
                        assert comp == rcomp, case
                        for x, y in ((a, ra), (b, rb), (m, rm)):
                            assert x.shape == y.shape and x.sorted_indices, case
                            assert x.indptr.tobytes() == y.indptr.tobytes(), case
                            assert x.indices.tobytes() == y.indices.tobytes(), case
                            assert x.data.tobytes() == y.data.tobytes(), case
                    assert c.as_dict() == ref_c.as_dict(), case
                    assert np.allclose(got.centrality, want, rtol=1e-12,
                                       atol=1e-12 * max(1.0, want.max())), case

    def test_directed_graph_matches_networkx(self):
        g = BC_GRAPHS["directed"]
        res = betweenness_centrality(g, sources=range(g.nrows))
        want = nx.betweenness_centrality(
            nx.from_scipy_sparse_array(g.to_scipy(), create_using=nx.DiGraph), normalized=False)
        assert np.allclose(res.centrality, [want[v] for v in range(g.nrows)], atol=1e-8)

    def test_subset_batch_partial_sums(self, graph, graph_nx):
        """Batch BC equals the Brandes partial sum over the batch sources."""
        sources = [3, 17, 55]
        res = betweenness_centrality(graph, sources=sources)
        want = np.zeros(graph.nrows)
        for s in sources:
            # per-source Brandes dependency via networkx shortest paths
            bc_s = nx.betweenness_centrality_subset(
                graph_nx, sources=[s], targets=list(graph_nx), normalized=False
            )
            for v, x in bc_s.items():
                want[v] += x
        # betweenness_centrality_subset double-counts like ours? networkx
        # subset variant counts each (s, t) pair once per direction choice;
        # compare our directed-sum halved
        assert np.allclose(res.centrality / 2.0, want, atol=1e-8)

    def test_random_batch_runs(self, graph):
        res = betweenness_centrality(graph, batch_size=16, seed=3)
        assert res.centrality.shape == (graph.nrows,)
        assert np.all(res.centrality >= -1e-12)
        assert res.teps > 0
        assert res.depth >= 1

    def test_rejects_non_complement_algos(self, graph):
        for algo in ("inner", "mca"):
            with pytest.raises(ValueError, match="complement"):
                betweenness_centrality(graph, sources=[0], algo=algo)

    def test_path_graph_exact(self):
        n = 6
        idx = np.arange(n - 1)
        g = CSR.from_coo(
            (n, n),
            np.concatenate([idx, idx + 1]),
            np.concatenate([idx + 1, idx]),
            np.ones(2 * (n - 1)),
        )
        res = betweenness_centrality(g, sources=range(n))
        # path graph: BC(v) = 2 * (i)(n-1-i) for position i (directed sum)
        for i in range(n):
            assert res.centrality[i] == pytest.approx(2.0 * i * (n - 1 - i))

    def test_counter_populated(self, graph):
        c = OpCounter()
        betweenness_centrality(graph, sources=range(10), counter=c)
        assert c.flops > 0


class TestBFS:
    def test_matches_networkx(self, graph, graph_nx):
        sources = [0, 7, 31]
        res = multi_source_bfs(graph, sources)
        for q, s in enumerate(sources):
            want = nx.single_source_shortest_path_length(graph_nx, s)
            for v in range(graph.nrows):
                assert res.levels[q, v] == want.get(v, -1)

    def test_source_level_zero(self, graph):
        res = multi_source_bfs(graph, [5])
        assert res.levels[0, 5] == 0

    def test_disconnected_unreached(self):
        # two disjoint edges
        g = CSR.from_coo((4, 4), [0, 1, 2, 3], [1, 0, 3, 2], np.ones(4))
        res = multi_source_bfs(g, [0])
        assert res.levels[0, 1] == 1
        assert res.levels[0, 2] == -1
        assert res.levels[0, 3] == -1

    @pytest.mark.parametrize("algo", COMPLEMENT_ALGOS)
    def test_algorithms_agree(self, algo, graph):
        base = multi_source_bfs(graph, [2, 9], algo="msa")
        got = multi_source_bfs(graph, [2, 9], algo=algo)
        assert np.array_equal(base.levels, got.levels)

    def test_rmat_bfs_depth_small(self):
        g = rmat(8, seed=1)
        res = multi_source_bfs(g, [int(np.argmax(g.row_nnz()))])
        reached = (res.levels[0] >= 0).sum()
        assert reached > 1
        assert res.depth < 20


class TestConnectedComponents:
    def test_matches_networkx(self, graph, graph_nx):
        from repro.apps import connected_components

        res = connected_components(graph)
        assert res.n_components == nx.number_connected_components(graph_nx)
        # vertices in the same nx component share our label and vice versa
        for comp in nx.connected_components(graph_nx):
            labels = {int(res.labels[v]) for v in comp}
            assert len(labels) == 1

    def test_disjoint_edges(self):
        g = CSR.from_coo((6, 6), [0, 1, 2, 3], [1, 0, 3, 2], np.ones(4))
        from repro.apps import connected_components

        res = connected_components(g)
        # {0,1}, {2,3} plus isolated singletons {4}, {5}
        assert res.n_components == 4
        assert res.labels[1] == 0 and res.labels[3] == 2
        assert res.labels[4] == 4 and res.labels[5] == 5

    def test_singletons_counted(self):
        from repro.apps import connected_components

        g = CSR.empty((5, 5))
        res = connected_components(g)
        assert res.n_components == 5
        assert np.array_equal(res.labels, np.arange(5))

    def test_labels_are_component_minima(self, graph):
        from repro.apps import connected_components

        res = connected_components(graph)
        for v in range(graph.nrows):
            assert res.labels[v] <= v

    def test_path_graph_one_component(self):
        from repro.apps import connected_components

        n = 50
        idx = np.arange(n - 1)
        g = CSR.from_coo(
            (n, n),
            np.concatenate([idx, idx + 1]),
            np.concatenate([idx + 1, idx]),
            np.ones(2 * (n - 1)),
        )
        res = connected_components(g)
        assert res.n_components == 1
        assert (res.labels == 0).all()
        # label propagation needs ~diameter rounds on a path
        assert res.rounds >= n // 2

    def test_rejects_non_square(self):
        from repro.apps import connected_components

        with pytest.raises(ValueError, match="square"):
            connected_components(CSR.empty((3, 4)))
