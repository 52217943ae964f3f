"""Cross-call execution-session suite: on-demand fingerprints, the shm
segment registry — and above all equivalence: a sessioned run must be
bit-for-bit identical to a sessionless one, with identical work counters.

A session is the process backend's segment registry and nothing else: it
carries no plan knobs and memoises no plan, CSC or symbolic bound, so a
serial call under a session takes no digest and leaves nothing behind.

Covers the cache hit/miss matrix (new object with equal bytes → hit;
mutated values → values-only republish; mutated structure → full miss),
intra-call operand dedup (the k-truss A = B = M shape publishes one
segment set), segment-leak hygiene (``active_segments()`` empty after
close), in-place-mutation detection, and the CI smoke case —
a sessioned BC batch on R-MAT over the process backend with
``segments_reused > 0``.

The module carries the ``session`` marker so CI runs it inside the
backend-smoke job (``pytest -m session``).
"""

from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.engine import (
    ExecutionSession,
    Fingerprint,
    execute,
    fingerprint_csr,
    plan,
    plan_and_execute,
    resolve_session,
)
from repro.graphs import erdos_renyi, rmat
from repro.machine import OpCounter
from repro.parallel import (
    active_segments,
    process_backend_available,
    shutdown_pool,
)
from repro.sparse import CSR, read_mtx

pytestmark = pytest.mark.session

DATA = Path(__file__).parent.parent / "data"
BACKENDS = ("serial", "thread", "process")

#: counters that report cache reuse, not algorithmic work — the only
#: OpCounter fields allowed to differ between sessioned and sessionless
SESSION_FIELDS = ("plan_cache_hits", "segments_reused", "bytes_republished")


def _inputs():
    karate = read_mtx(DATA / "karate.mtx")
    er = erdos_renyi(48, 48, 3, seed=7, values="uniform")
    rm = rmat(6, seed=3)
    return [("karate", karate), ("er", er), ("rmat", rm)]


@pytest.fixture(scope="module", params=_inputs(), ids=lambda p: p[0])
def square_problem(request):
    g = request.param[1]
    return g, g, g


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pool()
    assert active_segments() == ()


#: a process-backend grid: two work items, so the operands are published
#: through the session's segment registry
_PROCESS_GRID = (
    ({"backend": "process", "shards": (2, 1)},) if process_backend_available() else ()
)

needs_process = pytest.mark.skipif(
    not process_backend_available(),
    reason="platform lacks shared-memory process support",
)


def _work_fields(counter: OpCounter) -> dict:
    return {
        f.name: getattr(counter, f.name)
        for f in dataclasses.fields(counter)
        if f.name not in SESSION_FIELDS
    }


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_equal_bytes_equal_fingerprint(self):
        a = erdos_renyi(32, 32, 3, seed=1, values="uniform")
        b = CSR((32, 32), a.indptr.copy(), a.indices.copy(), a.data.copy(),
                sorted_indices=a.sorted_indices)
        assert fingerprint_csr(a) == fingerprint_csr(b)

    def test_values_change_structure_stable(self):
        a = erdos_renyi(32, 32, 3, seed=1, values="uniform")
        b = CSR((32, 32), a.indptr.copy(), a.indices.copy(), a.data * 2.0,
                sorted_indices=a.sorted_indices)
        fa, fb = fingerprint_csr(a), fingerprint_csr(b)
        assert fa.structure_key == fb.structure_key
        assert fa.key != fb.key

    def test_structure_change_changes_structure(self):
        a = erdos_renyi(32, 32, 3, seed=1)
        b = erdos_renyi(32, 32, 3, seed=2)
        assert fingerprint_csr(a).structure_key != fingerprint_csr(b).structure_key

    def test_identity_fast_path_digests_once(self):
        # the identity memo lives for one call scope, not across calls
        a = erdos_renyi(32, 32, 3, seed=1)
        sess = ExecutionSession()
        with sess.call():
            f1 = sess.fingerprint(a)
            with sess.call():  # re-entrant: nested scopes share the memo
                assert sess.fingerprint(a) is f1
            assert sess.fingerprint(a) is f1
        assert sess.fingerprint_digests == 1
        assert sess.fingerprint(a) == f1
        assert sess.fingerprint_digests == 2

    def test_strict_mode_sees_inplace_mutation(self):
        # what strict=True used to ask for is the only behaviour: every
        # request outside a call scope re-digests, so an in-place mutation
        # is seen without help.  A session takes no option at all, and its
        # public surface is the segment registry and the digests keying it
        assert not inspect.signature(ExecutionSession).parameters
        a = erdos_renyi(32, 32, 3, seed=1, values="uniform")
        sess = ExecutionSession()
        assert {n for n in dir(sess) if not n.startswith("_")} == {
            "call", "close", "fingerprint", "fingerprint_digests",
            "segment_cache", "stats",
        }
        f1 = sess.fingerprint(a)
        a.data[:] = a.data * 3.0
        f2 = sess.fingerprint(a)
        assert f2.key != f1.key
        assert f2.structure_key == f1.structure_key
        assert sess.fingerprint_digests == 2

    def test_fingerprint_is_derived_from_the_block_digests(self):
        # the name predates the one-pass digest: equal bytes in a new object
        # give an equal fingerprint, and any changed index, value, row
        # boundary or sorted flag gives a different key
        a = erdos_renyi(600, 600, 3, seed=1, values="uniform")
        sess = ExecutionSession()
        with sess.call():
            fp = sess.fingerprint(a)
            assert sess.fingerprint(a) is fp
        assert sess.fingerprint_digests == 1
        assert fp == fingerprint_csr(a) == fingerprint_csr(
            CSR(a.shape, a.indptr.copy(), a.indices.copy(), a.data.copy(),
                sorted_indices=a.sorted_indices)
        )
        indices = a.indices.copy()
        indices[-1] = (indices[-1] + 1) % a.ncols
        data = a.data.copy()
        data[a.nnz // 2] += 1.0
        indptr = a.indptr.copy()
        row = int(np.flatnonzero(np.diff(indptr) > 1)[0])
        indptr[row + 1] -= 1  # one entry moves to the next row
        assert a.sorted_indices
        changed = [
            CSR(a.shape, a.indptr, indices, a.data, sorted_indices=True, check=False),
            CSR(a.shape, a.indptr, a.indices, data, sorted_indices=True),
            CSR(a.shape, indptr, a.indices, a.data, sorted_indices=True, check=False),
            CSR(a.shape, a.indptr, a.indices, a.data, sorted_indices=False),
        ]
        keys = {fp.key} | {fingerprint_csr(m).key for m in changed}
        assert len(keys) == 1 + len(changed)

    @needs_process
    def test_one_digest_per_distinct_operand_per_call(self):
        # a process grid keys every segment it publishes by the fingerprint
        # of the operand it derives from: one digest per operand object
        a = erdos_renyi(48, 48, 3, seed=1, values="uniform")
        b = erdos_renyi(48, 48, 3, seed=2, values="uniform")
        with ExecutionSession() as sess:
            for calls in (1, 2):
                masked_spgemm(a, a, a, algo="auto", session=sess, **_PROCESS_GRID[0])
                assert sess.fingerprint_digests == calls
            masked_spgemm(a, b, a, algo="auto", session=sess, **_PROCESS_GRID[0])
            assert sess.fingerprint_digests == 4
            # a serial call, 1P or 2P, digests nothing
            masked_spgemm(a, b, a, algo="auto", phases=2, session=sess)
            assert sess.fingerprint_digests == 4

    #: one session path per case; the ids are the removed ``delta=`` modes',
    #: kept so the case names stay stable.  Neither serial call takes a
    #: digest; a grid (process backend when there is one) keys the segment
    #: registry by content
    _MUTATION_PATHS = {
        None: {},
        "auto": {"phases": 2},
        "force": (_PROCESS_GRID or ({"backend": "thread", "shards": (2, 1)},))[0],
    }

    @pytest.mark.parametrize("path", tuple(_MUTATION_PATHS))
    def test_inplace_mutation_between_calls_recomputes(self, path):
        # ROADMAP 5a: the second call used to return the first call's object
        kw = self._MUTATION_PATHS[path]
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        with ExecutionSession() as sess:
            c1 = masked_spgemm(a, a, a, algo="auto", session=sess, **kw)
            first = c1.data.copy()
            a.data[:] *= 2
            c2 = masked_spgemm(a, a, a, algo="auto", session=sess, **kw)
        ref = masked_spgemm(a, a, a, algo="auto")
        assert c2 is not c1
        assert np.array_equal(c1.data, first)
        assert np.array_equal(c2.indices, ref.indices)
        assert np.array_equal(c2.data, ref.data)
        assert np.array_equal(c2.data, 4.0 * first)

    def test_inplace_structure_change_between_calls_recomputes(self):
        other = erdos_renyi(64, 64, 4, seed=2, values="uniform")
        ref = masked_spgemm(other, other, other, algo="auto")
        for kw in ({"phases": 2},) + _PROCESS_GRID:
            a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
            assert other.nnz != a.nnz or not np.array_equal(other.indices, a.indices)
            with ExecutionSession() as sess:
                masked_spgemm(a, a, a, algo="auto", session=sess, **kw)
                digests = sess.fingerprint_digests
                assert digests == int("shards" in kw), kw  # A = B = M: one digest
                a.indptr, a.indices, a.data = other.indptr, other.indices, other.data
                got = masked_spgemm(a, a, a, algo="auto", session=sess, **kw)
                assert sess.fingerprint_digests == 2 * digests, kw
            assert np.array_equal(got.indptr, ref.indptr), kw
            assert np.array_equal(got.indices, ref.indices), kw
            assert np.array_equal(got.data, ref.data), kw

    def test_fingerprint_is_frozen_dataclass(self):
        fp = fingerprint_csr(erdos_renyi(8, 8, 2, seed=1))
        assert isinstance(fp, Fingerprint)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fp.nnz = 0


# ----------------------------------------------------------------------
# planning under a session: a session plans nothing and carries no plan
# knobs, so a sessioned call plans exactly as a sessionless one (the class
# keeps its name so the surviving tests keep their ids)
# ----------------------------------------------------------------------
def _executed_plan(sess, a, b, m, **kw) -> dict:
    """The plan a sessioned ``plan_and_execute`` call ran (its
    ``engine.execute`` span)."""
    from repro.observe import tracing

    with tracing() as tr:
        plan_and_execute(a, b, m, session=sess, **kw)
    (run,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
    return run.attrs["plan"]


class TestPlanCache:
    def test_same_structure_hits(self, square_problem):
        # same operands -> the same plan, re-derived without a digest
        a, b, m = square_problem
        with ExecutionSession() as sess:
            p1 = _executed_plan(sess, a, b, m)
            assert _executed_plan(sess, a, b, m) == p1
            assert p1 == plan(a, b, m).as_dict()
            assert sess.fingerprint_digests == 0
            assert "plan_cache_hits" not in sess.stats()
            assert "plan_cache_misses" not in sess.stats()

    def test_values_only_change_still_hits(self):
        # planning is structure-driven: a values-only change plans the same
        a = erdos_renyi(48, 48, 3, seed=7, values="uniform")
        a2 = CSR((48, 48), a.indptr.copy(), a.indices.copy(), a.data * 2.0,
                 sorted_indices=a.sorted_indices)
        with ExecutionSession() as sess:
            assert _executed_plan(sess, a, a, a) == _executed_plan(sess, a2, a2, a2)

    def test_structure_change_misses(self):
        a = erdos_renyi(48, 48, 3, seed=7)
        b = erdos_renyi(48, 48, 30, seed=8)
        with ExecutionSession() as sess:
            assert _executed_plan(sess, a, a, a) != _executed_plan(sess, b, b, b)
            assert sess.fingerprint_digests == 0

    def test_knobs_partition_the_cache(self, square_problem):
        a, b, m = square_problem
        with ExecutionSession() as sess:
            p1 = _executed_plan(sess, a, b, m)
            p2 = _executed_plan(sess, a, b, m, complement=True)
            p3 = _executed_plan(sess, a, b, m, threads=2)
        assert not p1["complement"] and p2["complement"]
        assert p3["threads"] == 2

    def test_counter_charged_on_hit_only(self, square_problem):
        # there are no plan-cache hits any more: the OpCounter field stays
        # (stored snapshots and the ladder's traced rungs read it) at 0
        a, b, m = square_problem
        c = OpCounter()
        with ExecutionSession() as sess:
            for _ in range(2):
                masked_spgemm(a, b, m, algo="auto", session=sess, counter=c)
        assert c.plan_cache_hits == 0

    def test_machine_override_partitions_cache(self, square_problem):
        # regression: machine= was silently ignored alongside a caching
        # session; it must be honoured, per call
        from repro.machine import KNL

        a, b, m = square_problem
        with ExecutionSession() as sess:
            for _ in range(2):
                assert _executed_plan(sess, a, b, m)["machine"] == "host"
                assert _executed_plan(sess, a, b, m, machine=KNL)["machine"] == "knl"
                assert _executed_plan(sess, a, b, m, machine="knl")["machine"] == "knl"

    def test_foreign_planner_honoured_uncached(self, square_problem):
        from repro.engine import Planner
        from repro.machine import KNL

        a, b, m = square_problem
        with ExecutionSession() as sess:
            pl = _executed_plan(sess, a, b, m, planner=Planner(KNL), threads=2)
        assert pl["machine"] == "knl"
        assert pl["threads"] == 2

    def test_plan_and_execute_threads_machine_into_session(self,
                                                           square_problem):
        from repro.machine import KNL
        from repro.observe import tracing

        a, b, m = square_problem
        ref = plan_and_execute(a, b, m, machine=KNL, backend="serial")
        with ExecutionSession() as sess, tracing() as tr:
            got = plan_and_execute(a, b, m, machine=KNL, backend="serial",
                                   session=sess)
        (run,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
        assert run.attrs["plan"]["machine"] == "knl"
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


# ----------------------------------------------------------------------
# derived data: a session keeps no CSC and no symbolic bound from one call
# to the next (the class keeps its name so the surviving tests keep their
# ids)
# ----------------------------------------------------------------------
def _reachable(root):
    """Every object reachable from ``root`` through its references, types
    and modules excepted (they would reach the whole interpreter)."""
    import gc
    import types

    seen, stack = {id(root)}, [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, (type, types.ModuleType)):
                continue
            seen.add(id(ref))
            stack.append(ref)
            yield ref


class TestDerivedCaches:
    def test_one_phase_bound_not_memoised(self, square_problem):
        # no kernel's bound, CSC or plan is worth its key: a sessioned
        # serial call — push or pull, 1P or 2P — takes no digest at all
        a, b, m = square_problem
        with ExecutionSession() as sess:
            assert not hasattr(sess, "one_phase_bound")
            for algo in ("msa", "mca", "hash", "esc", "inner"):
                for phases in (1, 2):
                    masked_spgemm(a, b, m, algo=algo, phases=phases, session=sess)
            assert sess.fingerprint_digests == 0
            assert set(sess.stats()) == {
                "fingerprint_digests", "segments_reused", "segments_published",
                "values_republished", "bytes_published", "bytes_republished",
                "cached_entries", "cached_bytes",
            }

    def test_inplace_write_to_b_between_inner_calls_is_seen(self):
        # inner-planned calls rebuild B's CSC, so a write into B in place
        # between two calls is simply seen
        # (dense enough that every row pulls under either kernel tier's profile)
        a = erdos_renyi(128, 128, 32, seed=1, values="uniform")
        b = erdos_renyi(128, 128, 32, seed=2, values="uniform")
        m = erdos_renyi(128, 128, 1, seed=3)
        assert plan(a, b, m).nrows_per_algo() == {"inner": 128}
        with ExecutionSession() as sess:
            c1 = masked_spgemm(a, b, m, algo="auto", session=sess)
            b.data[:] *= 2
            c2 = masked_spgemm(a, b, m, algo="auto", session=sess)
            c3 = masked_spgemm(a, b, m, algo="auto", session=sess)
            assert sess.fingerprint_digests == 0
        assert np.array_equal(c2.data, 2.0 * c1.data)
        ref = masked_spgemm(a, b, m, algo="auto")
        assert np.array_equal(c2.indices, ref.indices)
        assert np.array_equal(c3.data, ref.data)

    def test_close_leaves_no_csc_reachable_from_the_operands(self):
        # close() releases everything the session kept: no CSC built during
        # a sessioned inner call may survive on the caller's operands
        from repro.sparse import CSC

        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = erdos_renyi(64, 64, 4, seed=2, values="uniform")
        m = erdos_renyi(64, 64, 6, seed=3)
        sess = ExecutionSession()
        masked_spgemm(a, b, m, algo="inner", phases=2, session=sess)
        sess.close()
        for operand in (a, b, m):
            assert not any(isinstance(obj, CSC) for obj in _reachable(operand))


# ----------------------------------------------------------------------
# shm segment registry (process backend)
# ----------------------------------------------------------------------
def _process_run(a, b, m, session, algo="msa", parts=2, backend="process"):
    """A forced ``algo`` plan cut into ``parts`` block row parts."""
    counter = OpCounter()
    pl = plan(a, b, m, algo=algo, threads=parts, partition="block")
    c = execute(pl, a, b, m, backend=backend, counter=counter, session=session)
    return c, counter


@needs_process
class TestSegmentReuse:
    def test_second_call_reuses_segments(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = rmat(6, seed=3)
        m = erdos_renyi(64, 64, 6, seed=5)
        with ExecutionSession() as sess:
            _, c1 = _process_run(a, b, m, sess)
            _, c2 = _process_run(a, b, m, sess)
            assert c1.segments_reused == 0  # three distinct operands: cold
            assert c2.segments_reused == 3  # all three served from the cache
        assert active_segments() == ()

    def test_values_mutation_republishes_values_only(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = erdos_renyi(64, 64, 4, seed=2, values="uniform")
        with ExecutionSession() as sess:
            ref1, _ = _process_run(a, b, a, sess)
            b.data[:] = b.data * 2.0  # seen by content, no invalidation
            got, c3 = _process_run(a, b, a, sess)
            serial, _ = _process_run(a, b, a, None, backend="serial")
            assert np.array_equal(got.indptr, serial.indptr)
            assert np.array_equal(got.indices, serial.indices)
            assert np.array_equal(got.data, serial.data)
            st = sess.segment_cache.stats()
            assert st["values_republished"] == 1
            assert c3.bytes_republished == b.data.nbytes

    def test_structure_mutation_full_republish(self):
        a = erdos_renyi(64, 64, 4, seed=1)
        with ExecutionSession() as sess:
            _process_run(a, a, a, sess)
            published = sess.segment_cache.stats()["segments_published"]
            a2 = erdos_renyi(64, 64, 4, seed=9)
            _process_run(a2, a2, a2, sess)
            st = sess.segment_cache.stats()
            assert st["segments_published"] > published
            assert st["values_republished"] == 0

    def test_intra_call_dedup(self):
        # the k-truss shape: A = B = M — one publication serves all three
        g = rmat(6, seed=3)
        with ExecutionSession() as sess:
            _, counter = _process_run(g, g, g, sess)
            assert counter.segments_reused >= 2
            assert sess.segment_cache.stats()["segments_published"] == 1

    def test_same_structure_different_values_in_one_call(self):
        # regression: mask = a.pattern() shares A's structure digest but
        # carries all-ones values — the values-only rewrite must never
        # touch A's pinned segment mid-call, or workers read the mask's
        # values as A's
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = erdos_renyi(64, 64, 4, seed=2, values="uniform")
        m = a.pattern()
        serial, _ = _process_run(a, b, m, None, backend="serial")
        with ExecutionSession() as sess:
            got, _ = _process_run(a, b, m, sess)
            st = sess.segment_cache.stats()
            assert st["values_republished"] == 0
            assert st["segments_published"] == 3
            assert np.array_equal(got.indptr, serial.indptr)
            assert np.array_equal(got.indices, serial.indices)
            assert np.array_equal(got.data, serial.data)
            # both same-structure entries stay cached and full-hit next call
            got2, c2 = _process_run(a, b, m, sess)
            assert c2.segments_reused == 3
            assert np.array_equal(got2.data, serial.data)

    def test_close_releases_segments(self):
        g = rmat(6, seed=3)
        sess = ExecutionSession()
        _process_run(g, g, g, sess)
        assert len(active_segments()) > 0
        sess.close()
        assert active_segments() == ()
        # session stays usable (cold) after close
        _, counter = _process_run(g, g, g, sess)
        assert counter.segments_reused >= 2
        sess.close()
        assert active_segments() == ()


# ----------------------------------------------------------------------
# equivalence: sessioned == sessionless, bit for bit, counter for counter
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("phases", [1, 2])
    def test_bitwise_and_counter_equivalence(self, square_problem, backend,
                                             phases):
        if backend == "process" and not process_backend_available():
            pytest.skip("no process backend")
        a, b, m = square_problem
        cold = OpCounter()
        ref = plan_and_execute(a, b, m, phases=phases, threads=2,
                               backend=backend, counter=cold)
        with ExecutionSession() as sess:
            for _ in range(2):  # second pass exercises every warm path
                warm = OpCounter()
                got = plan_and_execute(a, b, m, phases=phases, threads=2,
                                       backend=backend, counter=warm,
                                       session=sess)
                assert np.array_equal(got.indptr, ref.indptr)
                assert np.array_equal(got.indices, ref.indices)
                assert np.array_equal(got.data, ref.data)
                assert _work_fields(warm) == _work_fields(cold)

    @pytest.mark.parametrize("algo", ["msa", "hash", "inner", "mca", "esc"])
    def test_explicit_algo_equivalence(self, square_problem, algo):
        a, b, m = square_problem
        cold = OpCounter()
        ref = masked_spgemm(a, b, m, algo=algo, phases=2, counter=cold)
        with ExecutionSession() as sess:
            for _ in range(2):
                warm = OpCounter()
                got = masked_spgemm(a, b, m, algo=algo, phases=2,
                                    counter=warm, session=sess)
                assert np.array_equal(got.indptr, ref.indptr)
                assert np.array_equal(got.indices, ref.indices)
                assert np.array_equal(got.data, ref.data)
                assert _work_fields(warm) == _work_fields(cold)


# ----------------------------------------------------------------------
# apps + CI smoke case
# ----------------------------------------------------------------------
class TestApps:
    def test_resolve_session_contract(self):
        # an app runs without a session unless its caller passes one
        assert resolve_session(False) is None
        assert resolve_session(None) is None
        with ExecutionSession() as mine:
            assert resolve_session(mine) is mine

    def test_core_entry_points_accept_false_sentinel(self):
        # session=False must work on the core paths too, not just via
        # resolve_session in the apps
        a = erdos_renyi(64, 64, degree=4, seed=2)
        ref = masked_spgemm(a, a, a, algo="auto", session=None)
        got = masked_spgemm(a, a, a, algo="auto", session=False)
        assert np.array_equal(got.to_dense(), ref.to_dense())
        got = masked_spgemm(a, a, a, algo="hash", session=False)
        assert np.array_equal(got.to_dense(), ref.to_dense())
        got = plan_and_execute(a, a, a, session=False)
        assert np.array_equal(got.to_dense(), ref.to_dense())

    def test_ktruss_sessioned_equals_sessionless(self):
        g = rmat(7, seed=10)
        ref = __import__("repro.apps", fromlist=["ktruss"]).ktruss(
            g, 5, algo="auto", session=False
        )
        with ExecutionSession() as sess:
            got = __import__("repro.apps", fromlist=["ktruss"]).ktruss(
                g, 5, algo="auto", session=sess
            )
        assert np.array_equal(got.truss.to_dense(), ref.truss.to_dense())
        assert got.iterations == ref.iterations

    def test_serial_plan_bc_digests_at_most_twice(self):
        # a serial BC has no segment to publish, so it digests nothing
        from repro.apps import betweenness_centrality

        g = rmat(8, seed=11)
        ref = betweenness_centrality(g, batch_size=16, seed=1, session=False)
        with ExecutionSession() as sess:
            got = betweenness_centrality(g, batch_size=16, seed=1, session=sess)
            stats = sess.stats()
        assert np.array_equal(got.centrality, ref.centrality)
        assert got.depth >= 2
        assert stats["fingerprint_digests"] == 0

    def test_ktruss_without_delta_digests_nothing(self):
        from repro.apps import ktruss

        g = rmat(7, seed=10)
        with ExecutionSession() as sess:
            res = ktruss(g, 5, session=sess, delta=None)
            assert sess.stats()["fingerprint_digests"] == 0
        assert res.iterations > 1

    @needs_process
    def test_bc_batch_process_backend_reuses_segments(self):
        # the CI satellite case: a sessioned BC batch on R-MAT over the
        # process backend must hit the segment registry and leak nothing
        from repro.apps import betweenness_centrality

        g = rmat(7, seed=11)
        ref = betweenness_centrality(g, batch_size=16, algo="auto", seed=1,
                                     session=False)
        counter = OpCounter()
        with ExecutionSession() as sess:
            got = betweenness_centrality(g, batch_size=16, algo="auto",
                                         seed=1, counter=counter, session=sess,
                                         **_PROCESS_GRID[0])
            stats = sess.stats()
        assert np.array_equal(got.centrality, ref.centrality)
        assert stats["segments_reused"] > 0
        assert counter.segments_reused > 0
        assert active_segments() == ()

    def test_metrics_and_report_surface_session(self, square_problem):
        from repro.observe import metrics, report, tracing

        a, b, m = square_problem
        with ExecutionSession() as sess, tracing() as tr:
            masked_spgemm(a, b, m, algo="auto", session=sess)
            masked_spgemm(a, b, m, algo="auto", session=sess)
            mx = metrics(tr, session=sess)
            txt = report(tr, session=sess)
        assert mx["session"]["fingerprint_digests"] == sess.fingerprint_digests
        assert "plan_cache_hits" not in mx["session"]
        assert "session reuse" in txt and "plan cache" not in txt
        assert metrics(tr)["session"] == {}
