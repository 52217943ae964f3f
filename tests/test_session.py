"""No state between calls: content fingerprints, per-call shm segments —
and above all equivalence: a call must be bit-for-bit identical to the
same call made before it, with identical work counters.

Nothing survives a call: no plan, CSC, symbolic bound or digest is kept,
and a process-backend call publishes its operands into one segment group
that it unlinks before it returns.  ``fingerprint_csr`` is kept (the
benchmark ladder times it) but nothing in a call reads one, so no call
takes a digest.

The module once held the cross-call session suite; its classes and tests
keep their names so the case ids stay stable, each re-pointed at what a
session used to stand between: two calls on the same (or mutated)
operands, intra-call operand dedup (the k-truss A = B = M shape publishes
one segment set), segment-leak hygiene (``active_segments()`` empty after
every call) and in-place-mutation detection.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro import engine
from repro.engine import (
    Fingerprint,
    execute,
    fingerprint_csr,
    plan,
)
from repro.graphs import erdos_renyi, rmat
from repro.machine import OpCounter
from repro.parallel import (
    active_segments,
    process_backend_available,
    shm,
    shutdown_pool,
)
from repro.sparse import CSR, read_mtx


DATA = Path(__file__).parent.parent / "data"
BACKENDS = ("serial", "thread", "process")

#: OpCounter fields that once reported cross-call reuse; they stay in the
#: layout and are always 0
REUSE_FIELDS = ("plan_cache_hits", "segments_reused")


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


@pytest.fixture(autouse=True)
def _no_segment_outlives_a_test():
    yield
    assert active_segments() == ()


@pytest.fixture
def digests(monkeypatch):
    """Counts blake2b digests taken in this process: a fingerprint costs
    two, and nothing in a call should take any."""
    taken = []
    real = hashlib.blake2b

    def counted(*args, **kwargs):
        taken.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counted)
    return taken


@pytest.fixture
def published(monkeypatch):
    """``(group, operand)`` for every CSR a process call publishes."""
    seen = []
    real = shm.SegmentGroup.publish_csr

    def recorded(group, mat):
        seen.append((group, mat))
        return real(group, mat)

    monkeypatch.setattr(shm.SegmentGroup, "publish_csr", recorded)
    return seen


def _two_parts(a, b, m, **kw):
    """A plan cut into two row parts, run: on the process backend (where
    there is one) its operands are published into the call's segment
    group."""
    backend = "process" if process_backend_available() else "thread"
    return execute(plan(a, b, m, threads=2, backend=backend, **kw), a, b, m)

needs_process = pytest.mark.skipif(
    not process_backend_available(),
    reason="platform lacks shared-memory process support",
)


def _work_fields(counter: OpCounter) -> dict:
    return {
        f.name: getattr(counter, f.name)
        for f in dataclasses.fields(counter)
        if f.name not in REUSE_FIELDS
    }


def _same(got: CSR, ref: CSR) -> None:
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


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
        assert fa.structure == fb.structure
        assert fa.values != fb.values
        assert fa != fb

    def test_structure_change_changes_structure(self):
        a = erdos_renyi(32, 32, 3, seed=1)
        b = erdos_renyi(32, 32, 3, seed=2)
        assert fingerprint_csr(a).structure != fingerprint_csr(b).structure

    def test_strict_mode_sees_inplace_mutation(self):
        # what strict=True used to ask for is the only behaviour: every
        # request digests the operand afresh, so an in-place mutation is
        # seen without help, and the function takes no option at all
        assert list(inspect.signature(fingerprint_csr).parameters) == ["mat"]
        a = erdos_renyi(32, 32, 3, seed=1, values="uniform")
        f1 = fingerprint_csr(a)
        a.data[:] = a.data * 3.0
        f2 = fingerprint_csr(a)
        assert f2.values != f1.values
        assert f2.structure == f1.structure

    def test_fingerprint_is_derived_from_the_block_digests(self):
        # the name predates the one-pass digest: equal bytes in a new object
        # give an equal fingerprint, and any changed index, value, row
        # boundary or sorted flag gives a different one
        a = erdos_renyi(600, 600, 3, seed=1, values="uniform")
        fp = fingerprint_csr(a)
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
            CSR(a.shape, indptr, a.indices, a.data, sorted_indices=True, check=False),
            CSR(a.shape, a.indptr, a.indices, a.data, sorted_indices=False),
        ]
        prints = {fp} | {fingerprint_csr(m) for m in changed}
        assert len(prints) == 1 + len(changed)
        for other in prints - {fp}:  # structure moves, values stay
            assert other.structure != fp.structure and other.values == fp.values
        values = fingerprint_csr(CSR(a.shape, a.indptr, a.indices, data, sorted_indices=True))
        assert values.structure == fp.structure and values.values != fp.values

    @needs_process
    def test_one_digest_per_distinct_operand_per_call(self, digests, published):
        # segments were once keyed by one digest per operand; now a process
        # call publishes each distinct operand object once per call, keyed
        # by identity, and takes no digest at all
        a = erdos_renyi(48, 48, 3, seed=1, values="uniform")
        b = erdos_renyi(48, 48, 3, seed=2, values="uniform")
        for _ in range(2):
            published.clear()
            _two_parts(a, a, a, algo="msa")
            assert [mat for _, mat in published] == [a]
        published.clear()
        _two_parts(a, b, a, algo="msa")
        assert sorted(map(id, (mat for _, mat in published))) == sorted((id(a), id(b)))
        assert len({id(group) for group, _ in published}) == 1
        # a serial call, 1P or 2P, publishes nothing
        published.clear()
        masked_spgemm(a, b, a, algo="auto", phases=2)
        assert published == []
        assert digests == []

    #: one call path per case; the ids are the removed ``delta=`` modes',
    #: kept so the case names stay stable.  Both serial paths and two row
    #: parts (on the process backend when there is one) must see the mutation
    _MUTATION_PATHS = {
        None: functools.partial(masked_spgemm, algo="auto"),
        "auto": functools.partial(masked_spgemm, algo="auto", phases=2),
        "force": functools.partial(_two_parts, algo="auto"),
    }

    @pytest.mark.parametrize("path", tuple(_MUTATION_PATHS))
    def test_inplace_mutation_between_calls_recomputes(self, path):
        # ROADMAP 5a: the second call used to return the first call's object
        call = self._MUTATION_PATHS[path]
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        c1 = call(a, a, a)
        first = c1.data.copy()
        a.data[:] *= 2
        c2 = call(a, a, a)
        ref = masked_spgemm(a, a, a, algo="auto")
        assert c2 is not c1
        assert np.array_equal(c1.data, first)
        assert np.array_equal(c2.indices, ref.indices)
        assert np.array_equal(c2.data, ref.data)
        assert np.array_equal(c2.data, 4.0 * first)

    def test_inplace_structure_change_between_calls_recomputes(self, digests):
        other = erdos_renyi(64, 64, 4, seed=2, values="uniform")
        ref = masked_spgemm(other, other, other, algo="auto")
        for call in (self._MUTATION_PATHS["auto"], self._MUTATION_PATHS["force"]):
            a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
            assert other.nnz != a.nnz or not np.array_equal(other.indices, a.indices)
            call(a, a, a)
            a.indptr, a.indices, a.data = other.indptr, other.indices, other.data
            got = call(a, a, a)
            _same(got, ref)
        assert digests == []

    def test_fingerprint_is_frozen_dataclass(self):
        fp = fingerprint_csr(erdos_renyi(8, 8, 2, seed=1))
        assert isinstance(fp, Fingerprint)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fp.nnz = 0


# ----------------------------------------------------------------------
# planning: nothing caches a plan, so every call plans from its operands
# and knobs alone (the class keeps its name so the tests keep their ids)
# ----------------------------------------------------------------------
def _executed_plan(a, b, m, **kw) -> dict:
    """The plan an ``algo="auto"`` call ran (its ``engine.execute`` span):
    the door's, or — for a forced ``threads=`` — one the caller holds."""
    from repro.observe import tracing

    with tracing() as tr:
        if "threads" in kw:
            execute(plan(a, b, m, **kw), a, b, m)
        else:
            masked_spgemm(a, b, m, algo="auto", **kw)
    (run,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
    return run.attrs["plan"]


class TestPlanCache:
    def test_same_structure_hits(self, square_problem, digests):
        # same operands -> the same plan, re-derived without a digest
        a, b, m = square_problem
        p1 = _executed_plan(a, b, m)
        assert _executed_plan(a, b, m) == p1
        assert p1 == plan(a, b, m).as_dict()
        assert digests == []

    def test_values_only_change_still_hits(self):
        # planning is structure-driven: a values-only change plans the same
        a = erdos_renyi(48, 48, 3, seed=7, values="uniform")
        a2 = CSR((48, 48), a.indptr.copy(), a.indices.copy(), a.data * 2.0,
                 sorted_indices=a.sorted_indices)
        assert _executed_plan(a, a, a) == _executed_plan(a2, a2, a2)

    def test_structure_change_misses(self, digests):
        a = erdos_renyi(48, 48, 3, seed=7)
        b = erdos_renyi(48, 48, 30, seed=8)
        assert _executed_plan(a, a, a) != _executed_plan(b, b, b)
        assert digests == []

    def test_knobs_partition_the_cache(self, square_problem):
        a, b, m = square_problem
        p1 = _executed_plan(a, b, m)
        p2 = _executed_plan(a, b, m, complement=True)
        p3 = _executed_plan(a, b, m, threads=2)
        assert not p1["complement"] and p2["complement"]
        assert p3["threads"] == 2

    def test_counter_charged_on_hit_only(self, square_problem):
        # there are no plan-cache hits any more: the OpCounter field stays
        # (stored snapshots and the ladder's traced rungs read it) at 0
        a, b, m = square_problem
        c = OpCounter()
        for _ in range(2):
            masked_spgemm(a, b, m, algo="auto", counter=c)
        assert c.plan_cache_hits == 0

    def test_machine_override_partitions_cache(self, square_problem):
        # the profile a call is priced from is the call's own, per call: the
        # native loops' profile for a semiring they take, the NumPy bodies'
        # for one they do not; no machine= overrides it
        from repro.engine import Planner
        from repro.machine import HOST, KNL, host_profile
        from repro.semiring import MIN_PLUS, PLUS_TIMES

        a, b, m = square_problem
        native = Planner(host_profile(PLUS_TIMES, a.data, b.data)).plan(a, b, m)
        numpy = Planner(HOST).plan(a, b, m)
        for _ in range(2):
            assert _executed_plan(a, b, m) == native.as_dict()
            assert _executed_plan(a, b, m, semiring=MIN_PLUS) == numpy.as_dict()
            with pytest.raises(TypeError, match="machine"):
                masked_spgemm(a, b, m, algo="auto", machine=KNL)

    def test_foreign_planner_honoured_uncached(self, square_problem):
        # a planner of a profile the caller holds is honoured through its
        # plan; the call-level planner= spelling is gone
        from repro.engine import Planner, execute
        from repro.machine import HOST
        from repro.observe import tracing

        a, b, m = square_problem
        foreign = Planner(dataclasses.replace(HOST, name="foreign"))
        pl = foreign.plan(a, b, m, threads=2)
        with tracing() as tr:
            got = execute(pl, a, b, m)
        (run,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
        assert run.attrs["plan"] == pl.as_dict() and pl.threads == 2
        assert pl.machine == "foreign"
        _same(got, masked_spgemm(a, b, m, algo="auto"))
        with pytest.raises(TypeError, match="planner"):
            masked_spgemm(a, b, m, algo="auto", planner=foreign)

    def test_door_runs_the_plan_engine_plan_makes(self, square_problem):
        # the door's planned call runs the plan engine.plan makes: plan ->
        # execute is the one public spelling of a planned call
        from repro.observe import tracing

        a, b, m = square_problem
        assert set(engine.__all__) == {
            "ExecutionPlan", "RowBand", "Planner", "plan", "execute",
            "Fingerprint", "fingerprint_csr"}
        ref = execute(plan(a, b, m, backend="serial"), a, b, m)
        with tracing() as tr:
            got = masked_spgemm(a, b, m, algo="auto", backend="serial")
        (run,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
        assert run.attrs["plan"] == plan(a, b, m, backend="serial").as_dict()
        _same(got, ref)


# ----------------------------------------------------------------------
# derived data: no call keeps a CSC or a symbolic bound for the next (the
# class keeps its name so the tests keep their ids)
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
    def test_one_phase_bound_not_memoised(self, square_problem, digests):
        # no kernel's bound, CSC or plan is worth its key: a serial call —
        # push or pull, 1P or 2P — takes no digest and repeats exactly
        a, b, m = square_problem
        for algo in ("msa", "mca", "hash", "esc", "inner"):
            for phases in (1, 2):
                first = masked_spgemm(a, b, m, algo=algo, phases=phases)
                _same(masked_spgemm(a, b, m, algo=algo, phases=phases), first)
        assert digests == []

    def test_inplace_write_to_b_between_inner_calls_is_seen(self):
        # inner-planned calls rebuild B's CSC, so a write into B in place
        # between two calls is simply seen
        # (dense enough that every row pulls under either kernel tier's profile)
        a = erdos_renyi(128, 128, 32, seed=1, values="uniform")
        b = erdos_renyi(128, 128, 32, seed=2, values="uniform")
        m = erdos_renyi(128, 128, 1, seed=3)
        assert plan(a, b, m).nrows_per_algo() == {"inner": 128}
        c1 = masked_spgemm(a, b, m, algo="auto")
        b.data[:] *= 2
        c2 = masked_spgemm(a, b, m, algo="auto")
        c3 = masked_spgemm(a, b, m, algo="auto")
        assert np.array_equal(c2.data, 2.0 * c1.data)
        assert np.array_equal(c2.indices, c1.indices)
        _same(c3, c2)

    def test_close_leaves_no_csc_reachable_from_the_operands(self):
        # a call releases everything it built when it returns: no CSC built
        # during an inner call may survive on the caller's operands
        from repro.sparse import CSC

        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = erdos_renyi(64, 64, 4, seed=2, values="uniform")
        m = erdos_renyi(64, 64, 6, seed=3)
        masked_spgemm(a, b, m, algo="inner", phases=2)
        for operand in (a, b, m):
            assert not any(isinstance(obj, CSC) for obj in _reachable(operand))


# ----------------------------------------------------------------------
# per-call shm segments (process backend)
# ----------------------------------------------------------------------
def _process_run(a, b, m, algo="msa", parts=2, backend="process"):
    """A forced ``algo`` plan cut into ``parts`` row parts."""
    counter = OpCounter()
    pl = plan(a, b, m, algo=algo, threads=parts, backend=backend)
    c = execute(pl, a, b, m, counter=counter)
    return c, counter


@needs_process
class TestSegmentReuse:
    def test_second_call_reuses_segments(self, published):
        # a second call on the same operands publishes them afresh into a
        # new group: no segment of the first call is left to reuse
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = rmat(6, seed=3)
        m = erdos_renyi(64, 64, 6, seed=5)
        groups = []
        for _ in range(2):
            published.clear()
            _, counter = _process_run(a, b, m)
            assert [mat for _, mat in published] == [a, b, m]
            # the groups themselves, held: an id() of a freed group can be reused
            groups.append({group for group, _ in published})
            assert counter.segments_reused == 0
            assert active_segments() == ()
        assert len(groups[0]) == len(groups[1]) == 1 and groups[0] != groups[1]

    def test_structure_mutation_full_republish(self, published):
        a = erdos_renyi(64, 64, 4, seed=1)
        _process_run(a, a, a)
        assert [mat for _, mat in published] == [a]
        published.clear()
        a2 = erdos_renyi(64, 64, 4, seed=9)
        got, _ = _process_run(a2, a2, a2)
        assert [mat for _, mat in published] == [a2]
        serial, _ = _process_run(a2, a2, a2, backend="serial")
        _same(got, serial)

    def test_intra_call_dedup(self, published):
        # the k-truss shape: A = B = M — one publication serves all three
        g = rmat(6, seed=3)
        got, counter = _process_run(g, g, g)
        assert [mat for _, mat in published] == [g]
        assert counter.segments_reused == 0
        _same(got, _process_run(g, g, g, backend="serial")[0])

    def test_same_structure_different_values_in_one_call(self, published):
        # regression: mask = a.pattern() shares A's structure but carries
        # all-ones values — it must be published as an operand of its own,
        # or workers read the mask's values as A's
        a = erdos_renyi(64, 64, 4, seed=1, values="uniform")
        b = erdos_renyi(64, 64, 4, seed=2, values="uniform")
        m = a.pattern()
        serial, _ = _process_run(a, b, m, backend="serial")
        for _ in range(2):
            published.clear()
            got, _ = _process_run(a, b, m)
            assert [mat for _, mat in published] == [a, b, m]
            _same(got, serial)

    def test_close_releases_segments(self, monkeypatch):
        # the group holds its segments while the call runs and unlinks every
        # one of them as the call returns
        g = rmat(6, seed=3)
        held = []
        close = shm.SegmentGroup.close

        def closing(group):
            held.append(active_segments())
            close(group)

        monkeypatch.setattr(shm.SegmentGroup, "close", closing)
        for _ in range(2):
            _process_run(g, g, g)
            assert len(held[-1]) > 0
            assert active_segments() == ()
        assert not set(held[0]) & set(held[1])


# ----------------------------------------------------------------------
# equivalence: a call equals the call before it, bit for bit, counter for
# counter
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
        pl = plan(a, b, m, phases=phases, threads=2, backend=backend)
        ref = execute(pl, a, b, m, counter=cold)
        for _ in range(2):  # later calls find nothing left by earlier ones
            warm = OpCounter()
            got = execute(plan(a, b, m, phases=phases, threads=2, backend=backend),
                          a, b, m, counter=warm)
            _same(got, ref)
            assert warm.as_dict() == cold.as_dict()
            assert not any(getattr(warm, f) for f in REUSE_FIELDS)

    @pytest.mark.parametrize("algo", ["msa", "hash", "inner", "mca", "esc"])
    def test_explicit_algo_equivalence(self, square_problem, algo):
        a, b, m = square_problem
        cold = OpCounter()
        ref = masked_spgemm(a, b, m, algo=algo, phases=2, counter=cold)
        for _ in range(2):
            warm = OpCounter()
            got = masked_spgemm(a, b, m, algo=algo, phases=2, counter=warm)
            _same(got, ref)
            assert _work_fields(warm) == _work_fields(cold)


# ----------------------------------------------------------------------
# apps: the kept ``session=None | False`` spelling of ktruss and
# betweenness_centrality
# ----------------------------------------------------------------------
class TestApps:
    def test_resolve_session_contract(self):
        # an app runs without a session whatever its caller passes: None and
        # False select nothing, and any other value is refused
        from repro.apps import betweenness_centrality, ktruss

        g = rmat(6, seed=3)
        for app in (lambda s: ktruss(g, 4, session=s),
                    lambda s: betweenness_centrality(g, [0, 1], session=s)):
            app(None)
            app(False)
            for other in (True, 0, "own", object()):
                with pytest.raises(TypeError, match="sessions were removed"):
                    app(other)

    def test_ktruss_sessioned_equals_sessionless(self):
        from repro.apps import ktruss

        g = rmat(7, seed=10)
        ref = ktruss(g, 5, algo="auto", session=False)
        got = ktruss(g, 5, algo="auto", session=None)
        assert np.array_equal(got.truss.to_dense(), ref.truss.to_dense())
        assert got.iterations == ref.iterations
        assert got.counter.as_dict() == ref.counter.as_dict()

    def test_serial_plan_bc_digests_at_most_twice(self, digests):
        # a serial BC takes no digest under either kept spelling
        from repro.apps import betweenness_centrality

        g = rmat(8, seed=11)
        ref = betweenness_centrality(g, batch_size=16, seed=1, session=False)
        got = betweenness_centrality(g, batch_size=16, seed=1, session=None)
        assert np.array_equal(got.centrality, ref.centrality)
        assert got.depth >= 2
        assert digests == []

    def test_ktruss_without_delta_digests_nothing(self, digests):
        from repro.apps import ktruss

        g = rmat(7, seed=10)
        res = ktruss(g, 5, session=None, delta=None)
        assert digests == []
        assert res.iterations > 1

    @needs_process
    def test_bc_batch_process_backend_reuses_segments(self, published, monkeypatch):
        # the CI smoke case: a BC batch on R-MAT over the process backend
        # (every product in two row parts: one worker per row) equals the
        # serial one, publishes each operand once per product (the sweep's
        # products read one matrix in several roles) and leaks nothing
        from repro.apps import betweenness_centrality
        from repro.engine import planner

        g = rmat(7, seed=11)
        ref = betweenness_centrality(g, batch_size=16, algo="auto", seed=1,
                                     session=False)
        counter = OpCounter()
        monkeypatch.setattr(planner, "ROWS_PER_THREAD", 1)
        monkeypatch.setattr(planner, "available_cores", lambda: 2)
        got = betweenness_centrality(g, batch_size=16, algo="auto", seed=1,
                                     counter=counter, session=False,
                                     backend="process")
        assert np.array_equal(got.centrality, ref.centrality)
        assert published
        per_group = {}
        for group, mat in published:
            per_group.setdefault(id(group), []).append(id(mat))
        for ids in per_group.values():
            assert len(ids) == len(set(ids))
        assert counter.segments_reused == 0
        assert active_segments() == ()

    def test_metrics_and_report_surface_session(self, square_problem):
        # the session section is gone from both surfaces (since metrics schema 6)
        from repro.observe import metrics, report, tracing

        a, b, m = square_problem
        with tracing() as tr:
            masked_spgemm(a, b, m, algo="auto")
            masked_spgemm(a, b, m, algo="auto")
        mx = metrics(tr)
        assert mx["schema_version"] == 7
        assert "session" not in mx
        txt = report(tr)
        assert "session reuse" not in txt and "plan cache" not in txt
        for fn in (metrics, report):
            assert "session" not in inspect.signature(fn).parameters
