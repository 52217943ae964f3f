"""Incremental masked-SpGEMM suite: row diffs, patched plans, targeted
invalidation — and above all the bit-for-bit contract: a delta patch must
equal a full recompute exactly, in structure and values, on every backend
and grid.

Covers the diff helpers (:func:`repro.sparse.block_digests`,
:func:`repro.sparse.changed_rows`, :func:`repro.sparse.dirty_blocks`), the
splice primitive (:meth:`repro.sparse.CSR.replace_rows`), the session's
targeted :meth:`~repro.engine.ExecutionSession.invalidate`, the fallback
policy and its counters, the prediction-ledger rows,
and the apps that default onto the path (k-truss, streaming windows).

The module carries the ``delta`` marker so CI runs it inside the
backend-smoke job (``pytest -m delta``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.engine import ExecutionSession
from repro.graphs import erdos_renyi, rmat
from repro.machine import OpCounter
from repro.parallel import (
    active_segments,
    process_backend_available,
    shutdown_pool,
)
from repro.sparse import (
    CSR,
    DELTA_BLOCK_ROWS,
    block_digests,
    changed_rows,
    dirty_blocks,
)

pytestmark = pytest.mark.delta

BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pool()
    assert active_segments() == ()


def _same(got: CSR, ref: CSR) -> None:
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def _copy(g: CSR) -> CSR:
    return CSR(g.shape, g.indptr.copy(), g.indices.copy(), g.data.copy(),
               sorted_indices=g.sorted_indices)


def _drop_entry(g: CSR, row: int) -> CSR:
    """A structure delta: remove ``row``'s last stored entry."""
    lo, hi = int(g.indptr[row]), int(g.indptr[row + 1])
    assert hi > lo, "test row must be nonempty"
    keep = np.ones(g.nnz, dtype=bool)
    keep[hi - 1] = False
    indptr = g.indptr.copy()
    indptr[row + 1:] -= 1
    return CSR(g.shape, indptr, g.indices[keep], g.data[keep],
               sorted_indices=True)


def _scale_row(g: CSR, row: int, factor: float = 2.0) -> CSR:
    """A values-only delta confined to one row."""
    data = g.data.copy()
    lo, hi = int(g.indptr[row]), int(g.indptr[row + 1])
    data[lo:hi] = data[lo:hi] * factor
    return CSR(g.shape, g.indptr.copy(), g.indices.copy(), data,
               sorted_indices=g.sorted_indices)


# ----------------------------------------------------------------------
# diff helpers
# ----------------------------------------------------------------------
class TestDiffHelpers:
    def test_block_digest_vector_shape(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        d = block_digests(a, block_rows=8)
        assert d.shape == (8,)
        assert d.dtype == np.dtype("S16")
        # default chunking: one digest per DELTA_BLOCK_ROWS rows
        full = block_digests(a)
        assert full.shape == (-(-a.nrows // DELTA_BLOCK_ROWS),)

    def test_digests_deterministic_and_content_keyed(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        assert np.array_equal(block_digests(a, block_rows=8),
                              block_digests(_copy(a), block_rows=8))
        b = _scale_row(a, 21)
        da, db = block_digests(a, block_rows=8), block_digests(b, block_rows=8)
        assert np.array_equal(dirty_blocks(da, db), [2])  # row 21 -> block 2
        # values=False digests ignore a values-only change
        assert np.array_equal(block_digests(a, block_rows=8, values=False),
                              block_digests(b, block_rows=8, values=False))

    def test_dirty_blocks_localise_structure_change(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = _drop_entry(a, 5)
        assert np.array_equal(
            dirty_blocks(block_digests(a, block_rows=8),
                         block_digests(b, block_rows=8)),
            [0],
        )

    def test_dirty_blocks_length_mismatch_raises(self):
        a = erdos_renyi(64, 64, 4, seed=1)
        with pytest.raises(ValueError):
            dirty_blocks(block_digests(a, block_rows=8),
                         block_digests(a, block_rows=16))

    def test_changed_rows_empty_delta(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        assert changed_rows(a, _copy(a)).size == 0

    def test_changed_rows_structure_delta(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = _drop_entry(a, 5)
        assert np.array_equal(changed_rows(a, b), [5])
        # a structural change is visible with and without values
        assert np.array_equal(changed_rows(a, b, values=False), [5])

    def test_changed_rows_values_toggle(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = _scale_row(a, 21)
        assert np.array_equal(changed_rows(a, b), [21])
        assert changed_rows(a, b, values=False).size == 0

    def test_changed_rows_all_dirty(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = CSR(a.shape, a.indptr.copy(), a.indices.copy(), a.data * 2.0,
                sorted_indices=True)
        nonempty = np.flatnonzero(np.diff(a.indptr) > 0)
        assert np.array_equal(changed_rows(a, b), nonempty)

    def test_changed_rows_hypersparse(self):
        n = 5000
        rows = np.array([7, 1234, 4999], dtype=np.int64)
        cols = np.array([3, 9, 0], dtype=np.int64)
        a = CSR.from_coo((n, n), rows, cols, np.array([1.0, 2.0, 3.0]))
        b = CSR.from_coo((n, n), rows, cols, np.array([1.0, 5.0, 3.0]))
        assert np.array_equal(changed_rows(a, b), [1234])

    def test_changed_rows_restricted_to_candidates(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = _scale_row(_scale_row(a, 5), 40)
        assert np.array_equal(changed_rows(a, b), [5, 40])
        sub = changed_rows(a, b, rows=np.arange(32, 64, dtype=np.int64))
        assert np.array_equal(sub, [40])


# ----------------------------------------------------------------------
# CSR.replace_rows — the splice primitive
# ----------------------------------------------------------------------
class TestReplaceRows:
    def _pair(self, n=64, deg=4):
        a = erdos_renyi(n, n, deg, seed=1, values="uniform")
        b = erdos_renyi(n, n, deg + 2, seed=2, values="uniform")
        return a, b

    def test_empty_rows_returns_self(self):
        a, b = self._pair()
        assert a.replace_rows(np.empty(0, dtype=np.int64), b) is a

    def test_all_rows_equals_source(self):
        a, b = self._pair()
        _same(a.replace_rows(np.arange(a.nrows), b), b)

    def test_scipy_rebuild_equivalence(self):
        a, b = self._pair()
        rows = np.array([0, 3, 17, 40, 63], dtype=np.int64)
        got = a.replace_rows(rows, b)
        lil = a.to_scipy().tolil()
        src = b.to_scipy().tolil()
        for r in rows:
            lil.rows[r] = list(src.rows[r])
            lil.data[r] = list(src.data[r])
        ref = CSR.from_scipy(lil.tocsr())
        _same(got, ref)
        assert got.sorted_indices

    def test_rows_unsorted_with_duplicates(self):
        a, b = self._pair()
        got = a.replace_rows(np.array([40, 3, 3, 17, 40]), b)
        _same(got, a.replace_rows(np.array([3, 17, 40]), b))

    def test_hypersparse_splice(self):
        n = 5000
        a = CSR.from_coo((n, n), np.array([7, 1234, 4999]),
                         np.array([3, 9, 0]), np.array([1.0, 2.0, 3.0]))
        b = CSR.from_coo((n, n), np.array([1234, 1234]),
                         np.array([2, 8]), np.array([4.0, 5.0]))
        got = a.replace_rows(np.array([1234]), b)
        dense = a.to_dense()
        dense[1234] = b.to_dense()[1234]
        assert np.array_equal(got.to_dense(), dense)
        assert got.nnz == 4

    def test_row_emptied_and_row_filled(self):
        n = 8
        a = CSR.from_coo((n, n), np.array([1, 1, 5]), np.array([0, 2, 5]),
                         np.array([1.0, 2.0, 3.0]))
        empty = CSR.empty((n, n))
        got = a.replace_rows(np.array([1]), empty)
        assert got.nnz == 1 and np.diff(got.indptr)[1] == 0
        back = got.replace_rows(np.array([1]), a)
        _same(back, a)

    def test_unsorted_indices_rejected(self):
        srt = CSR((1, 5), np.array([0, 2]), np.array([1, 3]),
                  np.array([1.0, 2.0]), sorted_indices=True)
        uns = CSR((1, 5), np.array([0, 2]), np.array([3, 1]),
                  np.array([1.0, 2.0]), sorted_indices=False, check=False)
        with pytest.raises(ValueError, match="sorted_indices"):
            uns.replace_rows(np.array([0]), srt)
        with pytest.raises(ValueError, match="sorted_indices"):
            srt.replace_rows(np.array([0]), uns)

    def test_shape_mismatch_and_range_rejected(self):
        a, b = self._pair()
        with pytest.raises(ValueError, match="equal-shaped"):
            a.replace_rows(np.array([0]), CSR.empty((a.nrows, a.ncols + 1)))
        with pytest.raises(ValueError, match="out of range"):
            a.replace_rows(np.array([a.nrows]), b)
        with pytest.raises(ValueError, match="out of range"):
            a.replace_rows(np.array([-1]), b)


# ----------------------------------------------------------------------
# targeted session invalidation
# ----------------------------------------------------------------------
class TestTargetedInvalidate:
    def test_unrelated_entries_survive(self):
        a = erdos_renyi(48, 48, 3, seed=1, values="uniform")
        u = erdos_renyi(48, 48, 3, seed=9, values="uniform")
        with ExecutionSession() as sess:
            # the CSC memo is live only behind a fingerprint (as the delta
            # engine passes one)
            fa, fu = sess.fingerprint(a), sess.fingerprint(u)
            ca, cu = sess.csc_of(a, fa), sess.csc_of(u, fu)
            sess.symbolic_bounds(a, a, a, complement=False)
            bu = sess.symbolic_bounds(u, u, u, complement=False)
            sess.invalidate(a)
            # unrelated entries survive the eviction untouched
            assert sess.csc_of(u, fu) is cu
            assert sess.symbolic_bounds(u, u, u, complement=False) is bu
            assert sess.bound_cache_hits == 1
            # dependent entries are gone: same content rebuilds fresh
            assert sess.csc_of(a, fa) is not ca
            sess.symbolic_bounds(a, a, a, complement=False)
            assert sess.bound_cache_hits == 1

    def test_invalidate_none_clears_everything(self):
        a = erdos_renyi(48, 48, 3, seed=1, values="uniform")
        with ExecutionSession() as sess:
            fa = sess.fingerprint(a)
            ca = sess.csc_of(a, fa)
            masked_spgemm(a, a, a, algo="auto", session=sess, delta="force")
            assert sess.csc_of(a, fa) is ca
            a._csc_memo = None  # the object-level memo outlives the session's
            sess.invalidate()
            assert sess.csc_of(a, fa) is not ca
            assert not sess._delta and not sess._bounds

    def test_delta_state_evicted_for_operand_only(self):
        a = erdos_renyi(48, 48, 4, seed=1, values="uniform")
        b = erdos_renyi(48, 48, 4, seed=2, values="uniform")
        m = erdos_renyi(48, 48, 6, seed=3)
        v = erdos_renyi(64, 64, 4, seed=9, values="uniform")
        with ExecutionSession() as sess:
            c = OpCounter()
            masked_spgemm(a, b, m, algo="auto", session=sess, delta="force",
                          counter=c)
            masked_spgemm(v, v, v, algo="auto", session=sess, delta="force",
                          counter=c)
            c2 = OpCounter()
            masked_spgemm(a, b, m, algo="auto", session=sess, delta="force",
                          counter=c2)
            assert c2.rows_patched == a.nrows  # identical-call hit
            sess.invalidate(a)
            c3, c4 = OpCounter(), OpCounter()
            masked_spgemm(a, b, m, algo="auto", session=sess, delta="force",
                          counter=c3)
            assert c3.rows_recomputed == a.nrows  # state evicted: cold
            # the unrelated problem's delta state survived
            masked_spgemm(v, v, v, algo="auto", session=sess, delta="force",
                          counter=c4)
            assert c4.rows_patched == v.nrows


# ----------------------------------------------------------------------
# delta modes, fallback policy, counters
# ----------------------------------------------------------------------
class TestDeltaModes:
    def _problem(self, n=96):
        a = erdos_renyi(n, n, 4, seed=1, values="uniform")
        b = erdos_renyi(n, n, 4, seed=2, values="uniform")
        m = erdos_renyi(n, n, 6, seed=3)
        return a, b, m

    def test_force_without_session_raises(self):
        a, b, m = self._problem()
        with pytest.raises(ValueError, match="requires a caching"):
            masked_spgemm(a, b, m, algo="auto", delta="force")
        with pytest.raises(ValueError, match="requires a caching"):
            masked_spgemm(a, b, m, algo="auto", delta="force", session=False)

    def test_auto_without_session_degrades_to_full(self):
        a, b, m = self._problem()
        ref = masked_spgemm(a, b, m, algo="auto")
        _same(masked_spgemm(a, b, m, algo="auto", delta="auto"), ref)

    def test_invalid_delta_rejected(self):
        a, b, m = self._problem()
        with ExecutionSession() as sess:
            for bad in (1.5, 0.0, -0.2, "bogus"):
                with pytest.raises(ValueError):
                    masked_spgemm(a, b, m, algo="auto", session=sess,
                                  delta=bad)

    def test_identical_call_is_a_hit(self):
        a, b, m = self._problem()
        with ExecutionSession() as sess:
            r1 = masked_spgemm(a, b, m, algo="auto", session=sess,
                               delta="auto")
            c = OpCounter()
            r2 = masked_spgemm(a, b, m, algo="auto", session=sess,
                               delta="auto", counter=c)
            # served from the state, but never the state's own object
            assert r2 is not r1
            _same(r2, r1)
            assert c.rows_patched == a.nrows
            assert c.rows_recomputed == 0
            assert sess.stats()["delta_hits"] == 1

    def test_mask_values_only_change_is_a_hit(self):
        a, b, m = self._problem()
        m = CSR(m.shape, m.indptr, m.indices,
                np.arange(1.0, m.nnz + 1.0), sorted_indices=True)
        m2 = CSR(m.shape, m.indptr.copy(), m.indices.copy(), m.data * 3.0,
                 sorted_indices=True)
        with ExecutionSession() as sess:
            r1 = masked_spgemm(a, b, m, algo="auto", session=sess,
                               delta="force")
            c = OpCounter()
            r2 = masked_spgemm(a, b, m2, algo="auto", session=sess,
                               delta="force", counter=c)
            # mask values never reach the product
            assert r2 is not r1
            _same(r2, r1)
            assert c.rows_patched == a.nrows

    def test_large_delta_falls_back(self):
        a, b, m = self._problem()
        a2 = erdos_renyi(a.nrows, a.ncols, 4, seed=77, values="uniform")
        ref = masked_spgemm(a2, b, m, algo="auto")
        with ExecutionSession() as sess:
            masked_spgemm(a, b, m, algo="auto", session=sess, delta="auto")
            c = OpCounter()
            got = masked_spgemm(a2, b, m, algo="auto", session=sess,
                                delta="auto", counter=c)
            _same(got, ref)
            assert c.delta_fallbacks == 1
            assert c.rows_recomputed == a.nrows
            assert sess.stats()["delta_fallbacks"] == 1

    def test_numeric_threshold_honoured(self):
        a, b, m = self._problem()
        a2 = _drop_entry(a, 5)  # one dirty row out of 96: fraction ~1%
        with ExecutionSession() as sess:
            masked_spgemm(a, b, m, algo="auto", session=sess, delta=0.001)
            c = OpCounter()
            masked_spgemm(a2, b, m, algo="auto", session=sess, delta=0.001,
                          counter=c)
            assert c.delta_fallbacks == 1  # 1/96 > 0.001: fallback
        with ExecutionSession() as sess:
            masked_spgemm(a, b, m, algo="auto", session=sess, delta=0.5)
            c = OpCounter()
            masked_spgemm(a2, b, m, algo="auto", session=sess, delta=0.5,
                          counter=c)
            assert c.delta_fallbacks == 0
            assert 0 < c.rows_recomputed < a.nrows

    def test_b_change_propagates_through_a_columns(self):
        a, b, m = self._problem()
        row = 7
        b2 = _scale_row(b, row)
        ref = masked_spgemm(a, b2, m, algo="auto")
        with ExecutionSession() as sess:
            masked_spgemm(a, b, m, algo="auto", session=sess, delta="force")
            c = OpCounter()
            got = masked_spgemm(a, b2, m, algo="auto", session=sess,
                                delta="force", counter=c)
            _same(got, ref)
        # exactly the rows referencing column 7 of A were recomputed
        readers = np.unique(np.repeat(
            np.arange(a.nrows), np.diff(a.indptr))[a.indices == row])
        assert c.rows_recomputed == readers.size
        assert c.rows_patched == a.nrows - readers.size


# ----------------------------------------------------------------------
# the priced delta="auto" rule and slot disengagement
# ----------------------------------------------------------------------
def _drop_edge(g: CSR, u: int, w: int) -> CSR:
    r, c, v = g.to_coo()
    keep = ~(((r == u) & (c == w)) | ((r == w) & (c == u)))
    return CSR.from_coo(g.shape, r[keep], c[keep], v[keep])


class TestPricedDelta:
    """A = B = M = an R-MAT adjacency (the k-truss shape): dropping one
    edge dirties both endpoints and every row that reads them."""

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat(10, seed=1).pattern()

    def _transition(self, g, u, w, delta):
        from repro.semiring import PLUS_PAIR

        g2 = _drop_edge(g, u, w)
        ref_c = OpCounter()
        ref = masked_spgemm(g2, g2, g2, algo="auto", semiring=PLUS_PAIR,
                            counter=ref_c)
        sess, c = ExecutionSession(), OpCounter()
        masked_spgemm(g, g, g, algo="auto", semiring=PLUS_PAIR, session=sess,
                      delta=delta)
        got = masked_spgemm(g2, g2, g2, algo="auto", semiring=PLUS_PAIR,
                            session=sess, delta=delta, counter=c)
        _same(got, ref)
        return sess, c, ref_c, g2

    def _hub_edge(self, g):
        deg = g.row_nnz()
        hub = int(np.argmax(deg))
        nbrs = g.indices[g.indptr[hub]:g.indptr[hub + 1]]
        return hub, int(nbrs[np.argmin(deg[nbrs])])

    def _tail_edge(self, g):
        deg = g.row_nnz()
        r, c, _ = g.to_coo()
        e = int(np.argmin(deg[r] + deg[c]))  # the edge with the fewest readers
        return int(r[e]), int(c[e])

    def test_hub_transition_runs_full_and_disengages(self, graph):
        from repro.engine.planner import host_row_ns
        from repro.machine import HOST, flops_per_row
        from repro.semiring import PLUS_PAIR

        hub, leaf = self._hub_edge(graph)
        sess, c, ref_c, g2 = self._transition(graph, hub, leaf, "auto")
        # under half the rows are dirty, yet they are the hub's readers and
        # carry most of the predicted kernel time
        dirty = np.zeros(g2.nrows, dtype=bool)
        for t in (hub, leaf):
            dirty[t] = True
            dirty[g2.indices[g2.indptr[t]:g2.indptr[t + 1]]] = True
        ns = host_row_ns(HOST, "msa", g2, g2, flops_per_row(g2, g2))
        assert dirty.mean() < 0.5 and ns[dirty].sum() > 0.8 * ns.sum()
        assert c.delta_fallbacks == 1 and c.rows_patched == 0
        assert c.flops == ref_c.flops  # a full run, exactly delta=None's work
        # disengaged: no state kept, and later calls digest nothing
        assert not sess._delta
        digests = sess.fingerprint_digests
        for g in (graph, g2):
            c3 = OpCounter()
            got = masked_spgemm(g, g, g, algo="auto", semiring=PLUS_PAIR,
                                session=sess, delta="auto", counter=c3)
            _same(got, masked_spgemm(g, g, g, algo="auto", semiring=PLUS_PAIR))
            assert c3.delta_fallbacks == 0 and c3.rows_patched == 0
        assert sess.fingerprint_digests == digests
        assert not sess._delta
        sess.close()

    def test_tail_transition_patches_and_stays_engaged(self, graph):
        sess, c, ref_c, g2 = self._transition(graph, *self._tail_edge(graph), "auto")
        assert c.delta_fallbacks == 0
        assert 0 < c.rows_recomputed < graph.nrows // 10
        assert c.rows_patched == graph.nrows - c.rows_recomputed
        assert c.flops < ref_c.flops
        assert len(sess._delta) == 1 and sess.stats()["delta_patches"] == 1
        sess.close()

    def test_force_patches_the_hub_transition_too(self, graph):
        sess, c, ref_c, _ = self._transition(graph, *self._hub_edge(graph), "force")
        assert c.delta_fallbacks == 0
        assert 0 < c.rows_patched < graph.nrows
        assert c.flops < ref_c.flops
        assert len(sess._delta) == 1
        sess.close()

    def test_numeric_threshold_stays_engaged_after_fallback(self, graph):
        sess, c, ref_c, _ = self._transition(graph, *self._hub_edge(graph), 0.1)
        assert c.delta_fallbacks == 1 and c.flops == ref_c.flops
        assert len(sess._delta) == 1  # the fraction rule never disengages
        sess.close()


# ----------------------------------------------------------------------
# bit-for-bit equivalence: every backend, on the 1x1 and a 2x2 grid
# ----------------------------------------------------------------------
class TestDeltaEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", [None, (2, 2)],
                             ids=["unsharded", "sharded"])
    def test_patch_equals_full_recompute(self, backend, shards):
        if backend == "process" and not process_backend_available():
            pytest.skip("no process backend")
        n = 96
        a = erdos_renyi(n, n, 4, seed=1, values="uniform")
        b = erdos_renyi(n, n, 4, seed=2, values="uniform")
        m = erdos_renyi(n, n, 6, seed=3)
        a2 = _drop_entry(_scale_row(a, 40), 5)
        ref1 = masked_spgemm(a, b, m, algo="auto", backend=backend,
                             shards=shards)
        ref2 = masked_spgemm(a2, b, m, algo="auto", backend=backend,
                             shards=shards)
        with ExecutionSession() as sess:
            c = OpCounter()
            r1 = masked_spgemm(a, b, m, algo="auto", backend=backend,
                               shards=shards, session=sess, delta="force",
                               counter=c)
            r2 = masked_spgemm(a2, b, m, algo="auto", backend=backend,
                               shards=shards, session=sess, delta="force",
                               counter=c)
            _same(r1, ref1)
            _same(r2, ref2)
            assert c.rows_recomputed == n + 2  # full run + rows {5, 40}
            assert c.rows_patched == n - 2
            assert c.delta_fallbacks == 0
            assert sess.stats()["delta_patches"] == 1
        shutdown_pool()

    def test_patch_chain_stays_exact(self):
        # repeated patches splice into patched results — no drift allowed
        n = 96
        a = erdos_renyi(n, n, 4, seed=1, values="uniform")
        b = erdos_renyi(n, n, 4, seed=2, values="uniform")
        m = erdos_renyi(n, n, 6, seed=3)
        with ExecutionSession() as sess:
            cur = a
            masked_spgemm(cur, b, m, algo="auto", session=sess, delta="force")
            for row in (5, 17, 40, 63):
                cur = _drop_entry(cur, row)
                got = masked_spgemm(cur, b, m, algo="auto", session=sess,
                                    delta="force")
                _same(got, masked_spgemm(cur, b, m, algo="auto"))

    def test_complemented_mask_patch(self):
        n = 96
        a = erdos_renyi(n, n, 4, seed=1, values="uniform")
        b = erdos_renyi(n, n, 4, seed=2, values="uniform")
        m = erdos_renyi(n, n, 6, seed=3)
        a2 = _drop_entry(a, 5)
        ref = masked_spgemm(a2, b, m, algo="auto", complement=True)
        with ExecutionSession() as sess:
            masked_spgemm(a, b, m, algo="auto", complement=True,
                          session=sess, delta="force")
            got = masked_spgemm(a2, b, m, algo="auto", complement=True,
                                session=sess, delta="force")
            _same(got, ref)


# ----------------------------------------------------------------------
# prediction ledger
# ----------------------------------------------------------------------
class TestLedger:
    def test_delta_patch_rows_priced(self):
        from repro.observe import prediction_rows, tracing

        n = 96
        a = erdos_renyi(n, n, 4, seed=1, values="uniform")
        b = erdos_renyi(n, n, 4, seed=2, values="uniform")
        m = erdos_renyi(n, n, 6, seed=3)
        a2 = _drop_entry(a, 5)
        with ExecutionSession() as sess, tracing() as tr:
            masked_spgemm(a, b, m, algo="auto", session=sess, delta="force")
            masked_spgemm(a2, b, m, algo="auto", session=sess, delta="force")
        rows = [r for r in prediction_rows(tr)
                if r["kind"] == "delta-patch"]
        assert len(rows) == 1
        (row,) = rows
        assert row["key"] == "delta:1"
        assert row["attrs"]["rows_recomputed"] == 1
        assert row["attrs"]["rows_patched"] == n - 1
        assert 0.0 < row["attrs"]["dirty_fraction"] <= 1.0
        assert row["modeled_cycles"] > 0.0
        assert row["measured_seconds"] >= 0.0


# ----------------------------------------------------------------------
# apps on the delta path
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
        # pruned edges sit at hubs, where the engine's row-dirty delta
        # never paid; the support decrement does
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
            inc = sliding_window_triangles(edges, 128, window=200, step=25,
                                           session=sess, delta="auto")
        assert inc.steps == full.steps > 1
        assert inc.triangles == full.triangles
        assert inc.edges_per_step == full.edges_per_step
        _same(inc.support, full.support)

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

    def test_mcl_delta_equals_plain(self):
        from repro.apps import markov_clustering

        g = erdos_renyi(64, 64, 4, seed=6)
        base = markov_clustering(g, selective_expansion=True, algo="auto",
                                 session=False)
        with ExecutionSession() as sess:
            res = markov_clustering(g, selective_expansion=True, algo="auto",
                                    session=sess, delta="auto")
        assert np.array_equal(res.labels, base.labels)
        assert res.iterations == base.iterations
