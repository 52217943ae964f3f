"""Backend equivalence suite: serial / thread / process, bit for bit.

Every plan shape the engine tests exercise (forced algorithms, complemented
masks, 1P/2P phases, every partition strategy, column panels, auto plans)
is run under all three execution backends on the same problems
``tests/test_engine.py`` uses (karate + small ER / R-MAT).  The backends
must agree *exactly* — identical ``indptr`` / ``indices`` / ``data`` arrays
and identical :class:`OpCounter` totals — because they are different
executors of the same decomposition, not different algorithms.

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

from repro.core import ALL_ALGOS, supports_complement
from repro.engine import Planner, execute, plan
from repro.graphs import erdos_renyi, rmat
from repro.machine import HASWELL, OpCounter
from repro.parallel import (
    active_segments,
    process_backend_available,
    shutdown_pool,
)
from repro.parallel.shm import SegmentGroup, attach_csr
from repro.sparse import read_mtx

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
        """With the worker count forced, the host planner enters the pool
        exactly when the predicted kernel seconds repay its dispatch."""
        import dataclasses

        from repro.machine import HOST

        g = rmat(6, seed=3)
        cheap = dataclasses.replace(HOST, task_dispatch_s=0.0, worker_spawn_s=0.0,
                                    parallel_efficiency=1.0)
        pl = Planner(cheap).plan(g, g, g, threads=WORKERS)
        assert pl.backend == "process"
        steep = dataclasses.replace(HOST, task_dispatch_s=1e6)
        pl = Planner(steep).plan(g, g, g, threads=WORKERS)
        assert pl.backend == "thread"

    def test_serial_when_single_thread(self):
        g = rmat(6, seed=3)
        pl = Planner(HASWELL).plan(g, g, g, threads=1)
        assert pl.backend == "serial"


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
        """Sessionless sharded process calls publish per-shard segment
        groups; every one of them must die with its call."""
        a, b, m = square_problem
        pl = plan(a, b, m, algo="msa", threads=WORKERS, shards=(3, 2))
        for _ in range(3):
            execute(pl, a, b, m, backend="process")
            assert active_segments() == ()

    def test_session_shard_segments_die_with_session_close(self, square_problem):
        """A session pins shard segments *across* calls — they must all
        unlink when the session closes, not before."""
        from repro.engine import ExecutionSession

        a, b, m = square_problem
        pl = plan(a, b, m, algo="msa", threads=WORKERS, shards=(3, 2))
        with ExecutionSession() as ses:
            execute(pl, a, b, m, backend="process", session=ses)
            held = active_segments()
            assert held != ()  # the registry keeps shard segments alive
            execute(pl, a, b, m, backend="process", session=ses)
            # reuse, not republication: no segment growth on the warm call
            assert active_segments() == held
        assert active_segments() == ()

    def test_dcsr_segments_round_trip(self, square_problem):
        from repro.parallel.shm import attach_dcsr, clear_attachments
        from repro.sparse import DCSR

        a, _, _ = square_problem
        d = DCSR.from_csr(a)
        with SegmentGroup() as group:
            spec = group.publish_dcsr(d)
            back = attach_dcsr(spec)
            assert np.array_equal(back.rows, d.rows)
            assert np.array_equal(back.indptr, d.indptr)
            assert np.array_equal(back.indices, d.indices)
            assert np.array_equal(back.data, d.data)
            del back
        clear_attachments()
        assert active_segments() == ()
