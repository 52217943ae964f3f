"""Cross-call execution-session suite: on-demand fingerprints, uncached
planning, segment reuse — and above all equivalence: a sessioned run must
be bit-for-bit identical to a sessionless one, with identical work counters.

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

    def test_invalidate_forces_redigest(self):
        a = erdos_renyi(32, 32, 3, seed=1, values="uniform")
        sess = ExecutionSession()
        f1 = sess.fingerprint(a)
        a.data[:] = a.data * 3.0  # in-place mutation is seen without help
        f2 = sess.fingerprint(a)
        assert f2.key != f1.key
        assert f2.structure_key == f1.structure_key
        # invalidate still accepts the matrix or a fingerprint taken earlier
        sess.invalidate(a)
        sess.invalidate(f1)
        assert sess.fingerprint(a) == f2

    def test_strict_mode_sees_inplace_mutation(self):
        # what strict=True used to ask for is the only behaviour; the
        # parameter (and the cache-size knobs of the removed caches) is gone
        for dead in ("strict", "plan_cache_size", "fingerprint_cache_size"):
            with pytest.raises(TypeError):
                ExecutionSession(**{dead: 1})
        a = erdos_renyi(32, 32, 3, seed=1, values="uniform")
        sess = ExecutionSession()
        f1 = sess.fingerprint(a)
        a.data[:] = a.data * 3.0
        assert sess.fingerprint(a).key != f1.key

    def test_fingerprint_is_derived_from_the_block_digests(self):
        from repro.sparse.diff import block_digest_pair

        a = erdos_renyi(600, 600, 3, seed=1, values="uniform")
        sess = ExecutionSession()
        with sess.call():
            fp = sess.fingerprint(a)
            structure, content = sess.block_digests(a)
        assert sess.fingerprint_digests == 1  # one hash pass serves both
        want_s, want_c = block_digest_pair(a)
        assert np.array_equal(structure, want_s) and np.array_equal(content, want_c)
        assert fp == fingerprint_csr(a) == fingerprint_csr(a, (want_s, want_c))

    def test_one_digest_per_distinct_operand_per_call(self):
        a = erdos_renyi(48, 48, 3, seed=1, values="uniform")
        b = erdos_renyi(48, 48, 3, seed=2, values="uniform")
        with ExecutionSession() as sess:
            for calls in (1, 2):
                masked_spgemm(a, a, a, algo="auto", session=sess, delta="auto")
                assert sess.fingerprint_digests == calls
            masked_spgemm(a, b, a, algo="auto", session=sess, delta="auto")
            assert sess.fingerprint_digests == 4

    @pytest.mark.parametrize("delta", (None, "auto", "force"))
    def test_inplace_mutation_between_calls_recomputes(self, delta):
        # ROADMAP 5a: the second call used to return the first call's object
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        with ExecutionSession() as sess:
            c1 = masked_spgemm(a, a, a, algo="auto", session=sess, delta=delta)
            first = c1.data.copy()
            a.data[:] *= 2
            c2 = masked_spgemm(a, a, a, algo="auto", session=sess, delta=delta)
        ref = masked_spgemm(a, a, a, algo="auto")
        assert c2 is not c1
        assert np.array_equal(c1.data, first)
        assert np.array_equal(c2.indices, ref.indices)
        assert np.array_equal(c2.data, ref.data)
        assert np.array_equal(c2.data, 4.0 * first)

    def test_inplace_structure_change_between_calls_recomputes(self):
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        other = erdos_renyi(64, 64, 4, seed=2, values="uniform")
        assert other.nnz != a.nnz or not np.array_equal(other.indices, a.indices)
        with ExecutionSession() as sess:
            masked_spgemm(a, a, a, algo="auto", session=sess, delta="force")
            a.indptr, a.indices, a.data = other.indptr, other.indices, other.data
            got = masked_spgemm(a, a, a, algo="auto", session=sess, delta="force")
        ref = masked_spgemm(other, other, other, algo="auto")
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)

    def test_delta_results_never_alias_the_cached_state(self):
        # a caller writing into any returned result must not corrupt the
        # state later hits and patches are served from
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        ref = masked_spgemm(a, a, a, algo="auto")
        with ExecutionSession() as sess:
            seen = []
            for _ in range(3):  # cold run, then two identical-call hits
                c = masked_spgemm(a, a, a, algo="auto", session=sess,
                                  delta="auto")
                assert all(c is not s for s in seen)
                assert np.array_equal(c.data, ref.data)
                seen.append(c)
                c.data[:] = -1.0
            a2 = CSR(a.shape, a.indptr, a.indices, a.data.copy(),
                     sorted_indices=True)
            a2.data[: a2.indptr[1]] *= 2.0  # row 0 only: a patch
            got = masked_spgemm(a2, a, a, algo="auto", session=sess,
                                delta="force")
        want = masked_spgemm(a2, a, a, algo="auto")
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    def test_fingerprint_is_frozen_dataclass(self):
        fp = fingerprint_csr(erdos_renyi(8, 8, 2, seed=1))
        assert isinstance(fp, Fingerprint)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fp.nnz = 0


# ----------------------------------------------------------------------
# planning through a session (the plan cache is gone: a plan costs less
# than the three-operand digest that keyed it; the class keeps its name so
# the surviving tests keep their ids)
# ----------------------------------------------------------------------
def _plan_dict(pl) -> dict:
    return pl.as_dict()


class TestPlanCache:
    def test_same_structure_hits(self, square_problem):
        # same operands -> the same plan, re-derived without a digest
        a, b, m = square_problem
        sess = ExecutionSession()
        p1 = sess.plan(a, b, m)
        p2 = sess.plan(a, b, m)
        assert p1 is not p2
        assert _plan_dict(p1) == _plan_dict(p2)
        assert sess.fingerprint_digests == 0
        assert "plan_cache_hits" not in sess.stats()
        assert "plan_cache_misses" not in sess.stats()

    def test_values_only_change_still_hits(self):
        # planning is structure-driven: a values-only change plans the same
        a = erdos_renyi(48, 48, 3, seed=7, values="uniform")
        a2 = CSR((48, 48), a.indptr.copy(), a.indices.copy(), a.data * 2.0,
                 sorted_indices=a.sorted_indices)
        sess = ExecutionSession()
        assert _plan_dict(sess.plan(a, a, a)) == _plan_dict(sess.plan(a2, a2, a2))

    def test_structure_change_misses(self):
        a = erdos_renyi(48, 48, 3, seed=7)
        b = erdos_renyi(48, 48, 30, seed=8)
        sess = ExecutionSession()
        assert _plan_dict(sess.plan(a, a, a)) != _plan_dict(sess.plan(b, b, b))
        assert sess.fingerprint_digests == 0

    def test_knobs_partition_the_cache(self, square_problem):
        a, b, m = square_problem
        sess = ExecutionSession()
        p1 = sess.plan(a, b, m)
        p2 = sess.plan(a, b, m, complement=True)
        p3 = sess.plan(a, b, m, threads=2)
        assert not p1.complement and p2.complement
        assert p3.threads == 2

    def test_counter_charged_on_hit_only(self, square_problem):
        # there are no plan-cache hits any more: the OpCounter field stays
        # (stored snapshots and the ladder's traced rungs read it) at 0
        a, b, m = square_problem
        c = OpCounter()
        with ExecutionSession() as sess:
            for _ in range(2):
                masked_spgemm(a, b, m, algo="auto", session=sess, counter=c)
        assert c.plan_cache_hits == 0

    def test_plan_defaults_apply(self, square_problem):
        a, b, m = square_problem
        sess = ExecutionSession(plan_defaults={"threads": 2, "backend": "serial"})
        pl = sess.plan(a, b, m)
        assert pl.threads == 2
        assert pl.backend == "serial"

    def test_machine_override_partitions_cache(self, square_problem):
        # regression: machine= was silently ignored alongside a caching
        # session; it must be honoured, per call
        from repro.machine import KNL

        a, b, m = square_problem
        with ExecutionSession() as sess:
            for _ in range(2):
                assert sess.plan(a, b, m).machine == "host"
                assert sess.plan(a, b, m, machine=KNL).machine == "knl"
                assert sess.plan(a, b, m, machine="knl").machine == "knl"

    def test_foreign_planner_honoured_uncached(self, square_problem):
        from repro.engine import Planner
        from repro.machine import KNL

        a, b, m = square_problem
        with ExecutionSession(plan_defaults={"threads": 2}) as sess:
            pl = sess.plan(a, b, m, planner=Planner(KNL))
            assert pl.machine == "knl"
            assert pl.threads == 2  # the session's defaults still apply

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

    def test_caching_false_bypasses(self, square_problem):
        a, b, m = square_problem
        sess = ExecutionSession(caching=False)
        assert _plan_dict(sess.plan(a, b, m)) == _plan_dict(sess.plan(a, b, m))
        masked_spgemm(a, b, m, algo="inner", session=sess)
        masked_spgemm(a, b, m, algo="msa", phases=2, session=sess)
        assert sess.fingerprint_digests == 0
        assert sess.csc_cache_misses == 0 and sess.bound_cache_misses == 0


# ----------------------------------------------------------------------
# derived CSC + symbolic bound memo
# ----------------------------------------------------------------------
class TestDerivedCaches:
    def test_csc_memoised_on_session_and_object(self):
        a = erdos_renyi(48, 48, 3, seed=7, values="uniform")
        sess = ExecutionSession()
        # no key at hand: the CSC is built — a digest would cost more than
        # the build it guards — and nothing is kept or counted
        assert sess.csc_of(a) is not sess.csc_of(a)
        assert a._csc_memo is None and not sess._cscs
        assert (sess.fingerprint_digests, sess.csc_cache_hits, sess.csc_cache_misses) == (0, 0, 0)
        # a caller that holds the fingerprint (the delta engine) gets the memo
        fp = fingerprint_csr(a)
        c1 = sess.csc_of(a, fp)
        assert sess.csc_of(a, fp) is c1
        assert (sess.csc_cache_hits, sess.csc_cache_misses) == (1, 1)
        # so does a call scope that digested the operand for another consumer
        with sess.call():
            assert sess.csc_of(a) is not c1
            sess.fingerprint(a)
            assert sess.csc_of(a) is c1
        assert sess.csc_of(a) is not c1  # the scope ended: the key is gone
        # a fresh session finds the object-level memo (same content)
        sess2 = ExecutionSession()
        assert sess2.csc_of(a, fp) is c1
        assert sess2.csc_cache_misses == 0

    def test_csc_memo_invalidated_by_content_change(self):
        a = erdos_renyi(48, 48, 3, seed=7, values="uniform")
        sess = ExecutionSession()
        c1 = sess.csc_of(a, fingerprint_csr(a))
        a.data[:] = a.data * 2.0
        assert sess.csc_of(a, fingerprint_csr(a)) is not c1  # new content, new key
        a.data[:] = a.data / 2.0
        assert sess.csc_of(a, fingerprint_csr(a)) is c1
        sess.invalidate(a)
        assert sess.csc_of(a, fingerprint_csr(a)) is not c1

    def test_symbolic_bounds_replay_counter(self, square_problem):
        a, b, m = square_problem
        sess = ExecutionSession()
        c_miss, c_hit, c_ref = OpCounter(), OpCounter(), OpCounter()
        r1 = sess.symbolic_bounds(a, b, m, complement=False, counter=c_miss)
        r2 = sess.symbolic_bounds(a, b, m, complement=False, counter=c_hit)
        from repro.core.symbolic import symbolic_masked

        ref = symbolic_masked(a, b, m, complement=False, counter=c_ref)
        assert np.array_equal(r1, ref) and np.array_equal(r2, ref)
        assert c_miss == c_ref
        assert c_hit == c_ref  # replayed, not skipped
        assert sess.bound_cache_hits == 1

    def test_one_phase_bound_not_memoised(self, square_problem):
        # the 1P bound is one flops_per_row — cheaper than any key — and no
        # kernel reads it: a sessioned 1P push call takes no digest at all
        a, b, m = square_problem
        with ExecutionSession() as sess:
            assert not hasattr(sess, "one_phase_bound")
            for algo in ("msa", "mca", "hash", "esc"):
                masked_spgemm(a, b, m, algo=algo, session=sess)
            assert sess.fingerprint_digests == 0
            assert sess.bound_cache_misses == 0
            # nor does a pull call: building B's CSC costs less than the
            # digest that would guard a memo of it
            masked_spgemm(a, b, m, algo="inner", session=sess)
            assert sess.fingerprint_digests == 0
            assert (sess.csc_cache_hits, sess.csc_cache_misses) == (0, 0)

    def test_inplace_write_to_b_between_inner_calls_is_seen(self):
        # inner-planned calls rebuild B's CSC (no digest for a CSC alone), so
        # a write into B in place between two calls is simply seen; behind a
        # fingerprint the memo follows the content too
        # (dense enough that every row pulls under either kernel tier's profile)
        a = erdos_renyi(128, 128, 32, seed=1, values="uniform")
        b = erdos_renyi(128, 128, 32, seed=2, values="uniform")
        m = erdos_renyi(128, 128, 1, seed=3)
        with ExecutionSession() as sess:
            assert sess.plan(a, b, m).nrows_per_algo() == {"inner": 128}
            c1 = masked_spgemm(a, b, m, algo="auto", session=sess)
            b.data[:] *= 2
            c2 = masked_spgemm(a, b, m, algo="auto", session=sess)
            c3 = masked_spgemm(a, b, m, algo="auto", session=sess)
            assert sess.fingerprint_digests == 0
            assert (sess.csc_cache_misses, sess.csc_cache_hits) == (0, 0)
            keyed = sess.csc_of(b, sess.fingerprint(b))
            b.data[:] *= 2
            rekeyed = sess.csc_of(b, sess.fingerprint(b))
            assert rekeyed is not keyed and np.array_equal(rekeyed.data, 2.0 * keyed.data)
            assert (sess.csc_cache_misses, sess.csc_cache_hits) == (2, 0)
            b.data[:] /= 2
        assert np.array_equal(c2.data, 2.0 * c1.data)
        ref = masked_spgemm(a, b, m, algo="auto")
        assert np.array_equal(c2.indices, ref.indices)
        assert np.array_equal(c3.data, ref.data)


# ----------------------------------------------------------------------
# shm segment registry (process backend)
# ----------------------------------------------------------------------
needs_process = pytest.mark.skipif(
    not process_backend_available(),
    reason="platform lacks shared-memory process support",
)


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
            b.data[:] = b.data * 2.0
            sess.invalidate(b)
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
        with ExecutionSession(
            plan_defaults={"threads": 2, "backend": backend}
        ) as sess:
            for _ in range(2):  # second pass exercises every warm path
                warm = OpCounter()
                got = plan_and_execute(a, b, m, phases=phases, counter=warm,
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
        assert resolve_session(False) == (None, False)
        assert resolve_session(None, auto=False) == (None, False)
        sess, owned = resolve_session(None, auto=True)
        assert isinstance(sess, ExecutionSession) and owned
        mine = ExecutionSession()
        assert resolve_session(mine) == (mine, False)

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
        # 37 digests per call before fingerprints became consumer-driven:
        # only the inner-planned backward levels digest (B, for the CSC memo)
        from repro.apps import betweenness_centrality

        g = rmat(8, seed=11)
        ref = betweenness_centrality(g, batch_size=16, seed=1, session=False)
        with ExecutionSession() as sess:
            got = betweenness_centrality(g, batch_size=16, seed=1, session=sess)
            stats = sess.stats()
        assert np.array_equal(got.centrality, ref.centrality)
        assert got.depth >= 2
        assert stats["fingerprint_digests"] <= 2

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
        with ExecutionSession(
            plan_defaults={"threads": 2, "backend": "process"}
        ) as sess:
            got = betweenness_centrality(g, batch_size=16, algo="auto",
                                         seed=1, counter=counter, session=sess)
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
