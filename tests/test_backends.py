"""Backend and grid equivalence suite: every spelling of the one work-item
loop, bit for bit.

Every plan shape the engine tests exercise (forced algorithms, complemented
masks, 1P/2P phases, every partition strategy, column panels, auto plans)
is run under all three execution backends on the same problems
``tests/test_engine.py`` uses (karate + small ER / R-MAT).  The backends
must agree *exactly* — identical ``indptr`` / ``indices`` / ``data`` arrays
and identical :class:`OpCounter` totals — because they are different
executors of the same decomposition, not different algorithms.

:class:`TestGridEquivalence` is the grid half of that contract: the
executor cuts every plan into work items *band x row part x column panel*
(``docs/parallel.md``), so a row partition (``R x 1``), a column-panelled
multiply (``1 x K``), a grid (``R x K``) and a delta patch are spellings of
one loop, and every spelling must equal the plain ``masked_spgemm(algo=X)``
call in values *and* — for the algorithms whose counters are additive
under row/column slicing (inner/msa/mca/esc; hash sizes its table per
flop-budget batch and the heap schemes' merge costs depend on row extent,
so only their *outputs* are compared with the plain call) — in
:class:`OpCounter` totals.  ``tests/test_shards.py`` holds the planner
spellings, the column split and the pruning / session-reuse cases.

Segment hygiene is asserted too: after the pool is shut down and every
publication group closed, no shared-memory segment this process created is
still registered or attachable.

The whole module carries the ``backend`` marker so CI can run it as a
dedicated smoke job (``pytest -m backend``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import ALL_ALGOS, masked_spgemm, supports_complement
from repro.engine import ExecutionSession, Planner, ShardGrid, execute, plan
from repro.graphs import erdos_renyi, rmat
from repro.machine import HASWELL, OpCounter
from repro.observe import tracing
from repro.parallel import (
    active_segments,
    process_backend_available,
    shutdown_pool,
)
from repro.parallel.shm import SegmentGroup, attach_csr
from repro.sparse import CSR, read_mtx

pytestmark = pytest.mark.backend

DATA = Path(__file__).parent.parent / "data"
WORKERS = 2
BACKENDS = ("serial", "thread", "process")


def _inputs():
    """The same problem set as tests/test_engine.py's cross-checks."""
    karate = read_mtx(DATA / "karate.mtx")
    er = erdos_renyi(48, 48, 3, seed=7, values="uniform")
    rm = rmat(6, seed=3)  # 64 vertices, Graph500 parameters
    return [("karate", karate), ("er", er), ("rmat", rm)]


@pytest.fixture(scope="module", params=_inputs(), ids=lambda p: p[0])
def square_problem(request):
    g = request.param[1]
    return g, g, g


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    """Leave no pool (and hence no segments) behind this module."""
    yield
    shutdown_pool()
    assert active_segments() == ()


def _run(pl, a, b, m, backend):
    counter = OpCounter()
    c = execute(pl, a, b, m, backend=backend, counter=counter)
    return c, counter


def _assert_backends_agree(pl, a, b, m):
    ref, ref_counter = _run(pl, a, b, m, "serial")
    for backend in BACKENDS[1:]:
        got, got_counter = _run(pl, a, b, m, backend)
        assert got.shape == ref.shape, backend
        assert np.array_equal(got.indptr, ref.indptr), backend
        assert np.array_equal(got.indices, ref.indices), backend
        # bitwise, not allclose: same partitions, same per-row product
        # order, so even floating-point sums must be identical
        assert np.array_equal(got.data, ref.data), backend
        assert got_counter == ref_counter, backend


class TestBackendEquivalence:
    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_forced_algos(self, algo, complement, square_problem):
        a, b, m = square_problem
        if complement and not supports_complement(algo):
            pytest.skip(f"{algo} has no complement support")
        pl = plan(a, b, m, algo=algo, threads=WORKERS, complement=complement)
        _assert_backends_agree(pl, a, b, m)

    @pytest.mark.parametrize("partition", ["block", "cyclic", "balanced"])
    def test_partitions(self, partition, square_problem):
        a, b, m = square_problem
        pl = plan(a, b, m, algo="hash", threads=WORKERS, partition=partition)
        _assert_backends_agree(pl, a, b, m)

    @pytest.mark.parametrize("phases", [1, 2])
    def test_phases(self, phases, square_problem):
        a, b, m = square_problem
        pl = plan(a, b, m, algo="msa", threads=WORKERS, phases=phases)
        _assert_backends_agree(pl, a, b, m)

    def test_column_panels(self, square_problem):
        a, b, m = square_problem
        pl = plan(a, b, m, algo="hash", threads=WORKERS, panel_width=16)
        _assert_backends_agree(pl, a, b, m)

    def test_auto_plan(self, square_problem):
        a, b, m = square_problem
        pl = Planner(HASWELL).plan(a, b, m, threads=WORKERS)
        _assert_backends_agree(pl, a, b, m)

    def test_more_workers_than_rows(self):
        g = erdos_renyi(5, 5, 2, seed=11)
        pl = plan(g, g, g, algo="hash", threads=8)
        _assert_backends_agree(pl, g, g, g)


class TestProcessBackendInternals:
    def test_process_backend_available(self):
        # Linux CI always has POSIX shared memory; the suite is meaningless
        # without it, so assert instead of skipping silently
        assert process_backend_available()

    def test_planner_picks_process_above_crossover(self):
        """There is no crossover: on the host the backend is the caller's —
        a forced worker count runs on ``thread``, ``process`` only by name."""
        g = rmat(6, seed=3)
        pl = Planner().plan(g, g, g, threads=WORKERS)
        assert (pl.threads, pl.backend) == (WORKERS, "thread")
        pl = Planner().plan(g, g, g, threads=WORKERS, backend="process")
        assert (pl.threads, pl.backend) == (WORKERS, "process")
        assert Planner().plan(g, g, g, backend="process").backend == "process"

    def test_serial_when_single_thread(self):
        g = rmat(6, seed=3)
        pl = Planner(HASWELL).plan(g, g, g, threads=1)
        assert pl.backend == "serial"


class TestForcedBackendReachesThePlanner:
    """``backend=`` is a plan knob under every session spelling: the
    sessionless door used to keep it from the planner (which planned
    ``threads=1``) and apply it at execute time, where one item ran
    in-process under a span that still said ``thread`` / ``process``."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_same_plan_and_dispatch_with_and_without_a_session(self, backend):
        import os

        from repro.graphs import relabel_by_degree
        from repro.semiring import PLUS_PAIR

        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("the host planner gives one core one worker")
        low = relabel_by_degree(rmat(12, seed=1).pattern()).tril(-1)
        serial = OpCounter()
        ref = masked_spgemm(low, low, low, algo="auto", backend="serial",
                            semiring=PLUS_PAIR, counter=serial)

        def work(counter):
            # all but the reuse a session's segment registry reports there
            return {k: v for k, v in counter.as_dict().items()
                    if k not in ("segments_reused", "bytes_republished")}

        shapes = set()
        with ExecutionSession() as own:
            for session in (None, False, own):
                counter = OpCounter()
                with tracing() as tr:
                    got = masked_spgemm(low, low, low, algo="auto", backend=backend,
                                        semiring=PLUS_PAIR, counter=counter,
                                        session=session)
                _assert_same(got, ref, str(session))
                assert work(counter) == work(serial), session
                (run,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
                cells = _cell_spans(tr)
                assert run.attrs["backend"] == run.attrs["plan"]["backend"] == backend
                assert len(cells) >= 2, session
                if backend == "process":
                    assert len({sp.pid for sp in cells}) >= 2, session
                shapes.add((run.attrs["plan"]["threads"], len(cells)))
        assert len(shapes) == 1, shapes

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_forced_algorithm_keeps_the_callers_backend(self, backend):
        """``algo="msa", backend=...`` used to run one in-process kernel
        span and no work item: a forced algorithm is planned too once the
        caller names a backend, as with ``shards=`` and ``delta=``."""
        import os

        from repro.graphs import relabel_by_degree
        from repro.semiring import PLUS_PAIR

        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("the host planner gives one core one worker")
        low = relabel_by_degree(rmat(12, seed=1).pattern()).tril(-1)
        plain = OpCounter()
        ref = masked_spgemm(low, low, low, algo="msa", semiring=PLUS_PAIR,
                            counter=plain)
        counter = OpCounter()
        with tracing() as tr:
            got = masked_spgemm(low, low, low, algo="msa", backend=backend,
                                semiring=PLUS_PAIR, counter=counter)
        _assert_same(got, ref, backend)
        assert counter.as_dict() == plain.as_dict()
        (run,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
        assert run.attrs["plan"]["backend"] == backend
        assert run.attrs["plan"]["mode"] == "forced"
        cells = _cell_spans(tr)
        assert len(cells) >= 2
        if backend == "process":
            assert len({sp.pid for sp in cells}) >= 2


class TestSegmentHygiene:
    def test_no_segments_leak_across_calls(self, square_problem):
        a, b, m = square_problem
        pl = plan(a, b, m, algo="hash", threads=WORKERS)
        for _ in range(3):
            execute(pl, a, b, m, backend="process")
            # publication groups are per-call: nothing outlives the call
            assert active_segments() == ()

    def test_unlinked_names_do_not_resolve(self, square_problem):
        a, _, _ = square_problem
        with SegmentGroup() as group:
            spec = group.publish_csr(a)
            # while the group is open the segments round-trip exactly
            back = attach_csr(spec)
            assert np.array_equal(back.indptr, a.indptr)
            assert np.array_equal(back.indices, a.indices)
            assert np.array_equal(back.data, a.data)
            names = [spec.indptr.name, spec.indices.name, spec.data.name]
            assert set(names) <= set(active_segments())
            del back  # release the views so the attachment can close
        from repro.parallel.shm import clear_attachments

        clear_attachments()
        assert active_segments() == ()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_pool_shutdown_then_restart(self, square_problem):
        a, b, m = square_problem
        pl = plan(a, b, m, algo="msa", threads=WORKERS)
        first, _ = _run(pl, a, b, m, "process")
        shutdown_pool()
        assert active_segments() == ()
        # a fresh pool must come up transparently on the next call
        second, _ = _run(pl, a, b, m, "process")
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.data, second.data)

    def test_no_shard_segments_leak_across_calls(self, square_problem):
        """Sessionless grid process calls publish A and every column panel
        of B and the mask; every segment must die with its call."""
        a, b, m = square_problem
        pl = plan(a, b, m, algo="msa", threads=WORKERS, shards=(3, 2))
        for _ in range(3):
            execute(pl, a, b, m, backend="process")
            assert active_segments() == ()

    def test_session_shard_segments_die_with_session_close(self, square_problem):
        """A session pins operand and panel segments *across* calls — they
        must all unlink when the session closes, not before."""
        from repro.engine import ExecutionSession

        a, b, m = square_problem
        pl = plan(a, b, m, algo="msa", threads=WORKERS, shards=(3, 2))
        with ExecutionSession() as ses:
            execute(pl, a, b, m, backend="process", session=ses)
            held = active_segments()
            assert held != ()  # the registry keeps the segments alive
            execute(pl, a, b, m, backend="process", session=ses)
            # reuse, not republication: no segment growth on the warm call
            assert active_segments() == held
        assert active_segments() == ()


# ----------------------------------------------------------------------
# one grid: R x 1, 1 x K, R x K, partial — all the plain call
# ----------------------------------------------------------------------
#: algorithms whose OpCounter totals are invariant under row/column slicing
ADDITIVE_COUNTER_ALGOS = ("inner", "msa", "mca", "esc")


def _rand(rng, n, m, k):
    return CSR.from_coo(
        (n, m), rng.integers(0, n, k), rng.integers(0, m, k), rng.random(k)
    )


def _grid_cases():
    g = rmat(5, seed=3)  # 32 vertices: the reference-tier heap schemes are slow
    n = g.nrows
    tiny = erdos_renyi(5, 5, 2, seed=11)
    rng = np.random.default_rng(5)
    rect = (_rand(rng, 30, 50, 200), _rand(rng, 50, 20, 220),
            _rand(rng, 30, 20, 150))
    sq = (g, g, g)
    return [
        ("1x1", sq, (1, 1)),
        ("Rx1", sq, (3, 1)),
        ("1xK", sq, (1, 3)),
        ("RxK", sq, (3, 2)),
        ("irregular", sq, ShardGrid((0, 1, n // 3, n // 3, n), (0, n // 4, n))),
        ("more-blocks-than-rows", (tiny, tiny, tiny), (64, 64)),
        ("rectangular", rect, (4, 3)),
    ]


def _assert_same(got: CSR, ref: CSR, label="") -> None:
    assert got.shape == ref.shape, label
    assert np.array_equal(got.indptr, ref.indptr), label
    assert np.array_equal(got.indices, ref.indices), label
    assert np.array_equal(got.data, ref.data), label
    # column indices ascend within every output row: the invariant delta
    # splicing and k-truss's searchsorted alignment rely on
    assert got.sorted_indices, label
    rows = np.repeat(np.arange(got.nrows), got.row_nnz())
    assert np.all(np.diff(got.indices)[rows[1:] == rows[:-1]] > 0), label


_PLAIN: dict = {}


def _plain_and_serial(case, algo):
    """The plain call's result and counter and the serial grid run's
    counter, computed once per (case, algo) for all three backends."""
    name, (a, b, m), shards = case
    if (name, algo) not in _PLAIN:
        ref_counter, serial_counter = OpCounter(), OpCounter()
        ref = masked_spgemm(a, b, m, algo=algo, counter=ref_counter)
        masked_spgemm(a, b, m, algo=algo, shards=shards, backend="serial",
                      counter=serial_counter)
        _PLAIN[name, algo] = (ref, ref_counter, serial_counter)
    return _PLAIN[name, algo]


def _cell_spans(tr):
    return [sp for sp in tr.spans if sp.name == "engine.cell"]


class TestGridEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algo", ALL_ALGOS)
    @pytest.mark.parametrize("case", _grid_cases(), ids=lambda c: c[0])
    def test_every_grid_is_the_plain_call(self, case, algo, backend):
        _, (a, b, m), shards = case
        ref, ref_counter, serial_counter = _plain_and_serial(case, algo)
        counter = OpCounter()
        got = masked_spgemm(a, b, m, algo=algo, shards=shards, backend=backend,
                            counter=counter)
        _assert_same(got, ref, f"{algo}/{backend}")
        assert counter == serial_counter, f"{algo}/{backend}"
        # (a dropped cell's products are never expanded — the saved work
        # shows as fewer ``accum_inserts``; only the 5x5 case drops any)
        if algo in ADDITIVE_COUNTER_ALGOS and case[0] != "more-blocks-than-rows":
            assert counter == ref_counter, f"{algo}/{backend}"

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", ["auto", "bucket", "perrow"])
    @pytest.mark.parametrize("phases", [1, 2])
    @pytest.mark.parametrize("complement", [False, True])
    def test_options_ride_every_item(self, complement, phases, batch, backend):
        g = rmat(6, seed=3)
        for algo in ("inner", "msa", "hash", "mca", "esc"):
            if complement and not supports_complement(algo):
                continue
            kw = dict(algo=algo, complement=complement, phases=phases,
                      batch=batch)
            ref_counter, counter = OpCounter(), OpCounter()
            ref = masked_spgemm(g, g, g, counter=ref_counter, **kw)
            got = masked_spgemm(g, g, g, shards=(3, 2), backend=backend,
                                counter=counter, **kw)
            _assert_same(got, ref, f"{kw}/{backend}")
            if algo in ADDITIVE_COUNTER_ALGOS:
                assert counter == ref_counter, f"{kw}/{backend}"

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", [(2, 2), (3, 1), (1, 3)],
                             ids=["2x2", "3x1", "1x3"])
    def test_forced_batch_tier_reaches_the_kernels(self, shards, backend):
        """Regression: ``batch=`` was dropped under ``shards=`` (the shard
        task had no such field), so a forced tier silently ran per-row."""
        g = rmat(8, seed=3)
        for tier in ("bucket", "perrow"):
            with tracing() as tr:
                masked_spgemm(g, g, g, algo="hash", batch=tier, shards=shards,
                              backend=backend)
            kernels = [sp for sp in tr.spans if sp.name == "kernel.hash"]
            assert len(kernels) == len(_cell_spans(tr)) > 1
            assert {sp.attrs["batch"] for sp in kernels} == {tier}

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("partition", ["block", "cyclic", "balanced"])
    def test_row_partitions_with_and_without_panels(self, partition, backend):
        g = rmat(6, seed=3)
        for algo in ("inner", "msa", "hash", "mca", "esc"):
            ref_counter = OpCounter()
            ref = masked_spgemm(g, g, g, algo=algo, counter=ref_counter)
            for panel_width in (None, 24):
                pl = plan(g, g, g, algo=algo, threads=3, partition=partition,
                          panel_width=panel_width)
                got, counter = _run(pl, g, g, g, backend)
                _assert_same(got, ref, f"{algo}/{partition}/{panel_width}")
                if algo in ADDITIVE_COUNTER_ALGOS:
                    assert counter == ref_counter, f"{algo}/{partition}"

    def test_panel_width_is_the_one_by_k_grid(self):
        """``panel_width=w`` and ``shards=`` with the same column bounds are
        one plan: same grid, same values, same counters — every algorithm."""
        g = rmat(6, seed=3)
        n, w = g.ncols, 24
        grid = ShardGrid((0, n), tuple(range(0, n, w)) + (n,))
        for algo in ALL_ALGOS:
            by_width = plan(g, g, g, algo=algo, panel_width=w)
            by_grid = plan(g, g, g, algo=algo, shards=grid)
            assert by_width.grid == by_grid.grid == grid
            got_w, counter_w = _run(by_width, g, g, g, "serial")
            got_g, counter_g = _run(by_grid, g, g, g, "serial")
            _assert_same(got_w, got_g, algo)
            assert counter_w == counter_g, algo

    @pytest.mark.parametrize("case", _grid_cases()[3:5], ids=lambda c: c[0])
    def test_column_orientation_transposes_the_grid(self, case):
        _, (a, b, m), shards = case
        for algo in ("msa", "hash", "esc"):
            ref = masked_spgemm(a, b, m, algo=algo)
            got = masked_spgemm(a, b, m, algo=algo, orientation="column",
                                shards=shards)
            _assert_same(got, ref, algo)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partial_plan_runs_dirty_row_blocks_only(self, backend):
        """A delta patch is the same loop restricted to dirty rows: row
        blocks that own none of them are neither dispatched nor (process
        backend) republished."""
        n = 64
        a = erdos_renyi(n, n, 6, seed=1, values="uniform")
        b = erdos_renyi(n, n, 6, seed=2, values="uniform")
        m = erdos_renyi(n, n, 6, seed=5)
        a2 = a.copy()
        a2.data[a2.indptr[5]:a2.indptr[6]] *= 3.0  # row 5: block 0 of 4
        kw = dict(algo="msa", shards=(4, 2), backend=backend)
        with ExecutionSession() as sess:
            masked_spgemm(a, b, m, session=sess, delta="force", **kw)
            with tracing() as tr:
                got = masked_spgemm(a2, b, m, session=sess, delta="force", **kw)
        _assert_same(got, masked_spgemm(a2, b, m, algo="msa"), backend)
        cells = _cell_spans(tr)
        assert cells and {sp.attrs["cell"][1] for sp in cells} == {0}
        assert active_segments() == ()
