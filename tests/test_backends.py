"""Backend equivalence suite: every backend of the one row loop, bit for
bit.

Every plan shape the engine tests exercise (forced algorithms, complemented
masks, 1P/2P phases, every row split, auto plans) is run under all three
execution backends on the same problems ``tests/test_engine.py`` uses
(karate + small ER / R-MAT).  The backends must agree *exactly* —
identical ``indptr`` / ``indices`` / ``data`` arrays and identical
:class:`OpCounter` totals — because they are different executors of the
same loop over output rows, not different algorithms: ``serial`` and
``thread`` are the plain kernel call, ``process`` cuts flop-balanced row
parts for the pool (``docs/parallel.md``).

:class:`TestGridEquivalence` keeps its name and case ids from the deleted
output grid: the door's ``shards=`` is a kept spelling that selects
nothing, so every case must be the plain ``masked_spgemm(algo=X)`` call in
values *and* :class:`OpCounter` totals, on every backend; a column panel
is the caller's own operand.  ``tests/test_shards.py`` holds the kept
spelling's checks and the row parts' pinned cases.

Segment hygiene is asserted too: every process call unlinks the segments
it published before it returns, so no shared-memory segment this process
created is still registered or attachable; and a subprocess that exits
*without* calling ``shutdown_pool()`` leaves no pool process and no segment
behind (the import-time ``atexit`` hooks reap the pool).

The whole module carries the ``backend`` marker so CI can run it as a
dedicated smoke job (``pytest -m backend``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core import ALL_ALGOS, masked_spgemm, supports_complement
from repro.engine import Planner, execute, plan
from repro.engine.planner import host_workers
from repro.graphs import erdos_renyi, rmat
from repro.machine import HOST, HOST_NATIVE, OpCounter
from repro.observe import tracing
from repro.parallel import (
    active_segments,
    process_backend_available,
    shutdown_pool,
)
from repro.parallel import pool
from repro.parallel.shm import SegmentGroup, attach_csr
from repro.sparse import CSR, read_mtx

from .conftest import assert_round_robin_refused, columns, panelled, row_split

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


@pytest.fixture(autouse=True)
def _no_segment_outlives_a_test():
    """A process call unlinks what it published before it returns."""
    yield
    assert active_segments() == ()


def _run(pl, a, b, m, backend):
    """Run ``pl`` as if it had been planned with ``backend=`` (its threads
    by the planner's rule: 1 under ``serial``)."""
    threads, backend = host_workers(a, b, pl.threads, backend)
    counter = OpCounter()
    c = execute(dataclasses.replace(pl, threads=threads, backend=backend), a, b, m,
                counter=counter)
    assert active_segments() == ()  # nothing the call published outlives it
    return c, counter


def _in_this_process(workers, tasks):
    """Stand-in for ``pool.run_tasks``: the same work items, run one after
    another in this process."""
    return [pool.run_task(t) for t in tasks]


def _assert_backends_agree(pl, a, b, m):
    ref, ref_counter = _run(pl, a, b, m, "serial")
    with mock.patch.object(pool, "run_tasks", _in_this_process):
        _, parts_counter = _run(pl, a, b, m, "process")
    for backend in BACKENDS[1:]:
        got, got_counter = _run(pl, a, b, m, backend)
        assert got.shape == ref.shape, backend
        assert np.array_equal(got.indptr, ref.indptr), backend
        assert np.array_equal(got.indices, ref.indices), backend
        # bitwise, not allclose: every row is one kernel's, its products
        # in the same order, so even floating-point sums must be identical
        assert np.array_equal(got.data, ref.data), backend
        if backend == "process":
            # the pool's workers charge, hash probes included, exactly what
            # the same row parts charge run here, and probe where the one
            # in-process call probes
            assert got_counter == parts_counter
            assert (got_counter.hash_probes > 0) == (ref_counter.hash_probes > 0)
            # and the one in-process call charges the same but for the hash
            # probes: tables are sized per block of rows, so probe counts
            # are not additive under row slicing (tests/lattice.py
            # EXCEPTIONS), and only the pool cuts row parts
            got_counter = dataclasses.replace(
                got_counter, hash_probes=ref_counter.hash_probes)
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
        if partition == "cyclic":
            for backend in BACKENDS:
                assert_round_robin_refused(a, b, m, "hash", WORKERS, backend)
            return
        pl = row_split(partition, a, b, m, "hash", WORKERS)
        _assert_backends_agree(pl, a, b, m)

    @pytest.mark.parametrize("phases", [1, 2])
    def test_phases(self, phases, square_problem):
        a, b, m = square_problem
        pl = plan(a, b, m, algo="msa", threads=WORKERS, phases=phases)
        _assert_backends_agree(pl, a, b, m)

    def test_column_panels(self, square_problem):
        """A caller's column panel of B and the mask is one more operand
        set: every backend agrees on it."""
        a, b, m = square_problem
        bp, mp = columns(b, 0, 16), columns(m, 0, 16)
        pl = plan(a, bp, mp, algo="hash", threads=WORKERS)
        _assert_backends_agree(pl, a, bp, mp)

    def test_auto_plan(self, square_problem):
        a, b, m = square_problem
        pl = Planner().plan(a, b, m, threads=WORKERS)
        assert len(pl.bands) == 1
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
        for planner in (Planner(HOST), Planner(HOST_NATIVE)):
            assert planner.plan(g, g, g, threads=1).backend == "serial"


def _assert_dispatch(run, cells, backend: str) -> None:
    """A forced ``process`` plan dispatches >= 2 work items to the pool, each
    run by a pool worker and none in the caller (which worker takes which
    item is the pool's scheduling: one may take both); a forced ``thread``
    one runs in-process as one kernel call, ``thread`` exactly when its plan
    records more than one thread."""
    plan = run.attrs["plan"]
    assert run.attrs["backend"] == plan["backend"]
    if backend == "process":
        assert plan["backend"] == "process"
        workers = set(pool.pool_pids())
        assert len(cells) >= 2 and all(sp.pid in workers for sp in cells)
        assert os.getpid() not in {sp.pid for sp in cells}
    else:
        assert (plan["backend"] == "thread") == (plan["threads"] > 1)
        assert not cells


class TestForcedBackendReachesThePlanner:
    """``backend=`` is a plan knob: the door used to keep it from the
    planner (which planned ``threads=1``) and apply it at execute time,
    where one item ran in-process under a span that still said ``thread`` /
    ``process``.  A ``process`` plan fans work items out to the pool; an
    in-process one is a single kernel call on the plan's threads."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_same_plan_and_dispatch_with_and_without_a_prior_call(self, backend):
        import os

        from repro.graphs import relabel_by_degree
        from repro.semiring import PLUS_PAIR

        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("the host planner gives one core one worker")
        low = relabel_by_degree(rmat(12, seed=1).pattern()).tril(-1)
        serial = OpCounter()
        ref = masked_spgemm(low, low, low, algo="auto", backend="serial",
                            semiring=PLUS_PAIR, counter=serial)

        shapes = set()
        for call in range(2):
            counter = OpCounter()
            with tracing() as tr:
                got = masked_spgemm(low, low, low, algo="auto", backend=backend,
                                    semiring=PLUS_PAIR, counter=counter)
            _assert_same(got, ref, str(call))
            assert counter.as_dict() == serial.as_dict(), call
            (run,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
            cells = _cell_spans(tr)
            _assert_dispatch(run, cells, backend)
            shapes.add((run.attrs["plan"]["threads"], len(cells)))
        assert len(shapes) == 1, shapes

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_forced_algorithm_keeps_the_callers_backend(self, backend):
        """``algo="msa", backend=...`` used to run one in-process kernel
        span and no work item: a forced algorithm is planned too once the
        caller names a backend."""
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
        assert run.attrs["plan"]["mode"] == "forced"
        _assert_dispatch(run, _cell_spans(tr), backend)


_LEAK_SCRIPT = r"""
import json, os, sys
from repro.engine import execute, plan
from repro.graphs import relabel_by_degree, rmat
from repro.parallel import shm
from repro.parallel.pool import pool_pids, process_backend_available
from repro.semiring import PLUS_PAIR

if not process_backend_available():
    print(json.dumps({"skip": True}))
    sys.exit(0)

published = []
new_segment = shm._new_segment


def _recorded(nbytes):
    seg = new_segment(nbytes)
    published.append(seg.name)
    return seg


shm._new_segment = _recorded
low = relabel_by_degree(rmat(9, seed=7).pattern()).tril(-1)
execute(plan(low, low, low, algo="msa", threads=2, backend="process"),
        low, low, low, semiring=PLUS_PAIR)
# report what the call published and what is still live, then exit
# WITHOUT shutdown_pool(): the import-time atexit hooks must reap the pool
print(json.dumps({
    "skip": False,
    "prefix": f"repro_{os.getpid():x}_",
    "published": published,
    "live": list(shm.active_segments()),
    "pids": list(pool_pids()),
}))
sys.exit(0)
"""


class TestSegmentHygiene:
    def test_no_segments_leak_across_calls(self, square_problem):
        a, b, m = square_problem
        pl = plan(a, b, m, algo="hash", threads=WORKERS, backend="process")
        for _ in range(3):
            execute(pl, a, b, m)
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
        """A three-part process call publishes A, B and the mask once;
        every segment must die with its call."""
        a, b, m = square_problem
        pl = plan(a, b, m, algo="msa", threads=3, backend="process")
        for _ in range(3):
            execute(pl, a, b, m)
            assert active_segments() == ()

    def test_session_shard_segments_die_with_session_close(self, square_problem,
                                                           monkeypatch):
        """Operand segments live exactly as long as their call: all of them
        are live when the call's group closes, none after, and the next
        call publishes fresh ones (the name is from when a session pinned
        them across calls until it closed)."""
        from repro.parallel import shm

        a, b, m = square_problem
        pl = plan(a, b, m, algo="msa", threads=3, backend="process")
        held = []
        close = shm.SegmentGroup.close

        def closing(group):
            held.append(active_segments())
            close(group)

        monkeypatch.setattr(shm.SegmentGroup, "close", closing)
        for _ in range(2):
            execute(pl, a, b, m)
            assert held[-1] != ()  # the group kept them for the whole call
            assert active_segments() == ()
        assert len(held) == 2 and not set(held[0]) & set(held[1])

    @pytest.mark.skipif(
        not process_backend_available(), reason="no shared-memory support"
    )
    def test_hard_exit_reaps_pool_and_segments(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", _LEAK_SCRIPT],
            capture_output=True, text=True, timeout=180, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        state = json.loads(proc.stdout.strip().splitlines()[-1])
        if state.get("skip"):
            pytest.skip("child had no shared-memory support")
        assert state["published"], "run must have published shm segments"
        assert state["live"] == [], "the call must unlink its segments on return"
        assert state["pids"], "run must have spawned pool workers"

        # no segment of the child's survived the interpreter exit
        if os.path.isdir("/dev/shm"):
            left = [name for name in os.listdir("/dev/shm")
                    if name.startswith(state["prefix"])]
            assert left == [], f"leaked shared-memory segments {left}"
        # no worker survived either (atexit shutdown_pool reaped them)
        for pid in state["pids"]:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            # pid exists: give a just-exiting worker a moment, then re-check
            time.sleep(1.0)
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            raise AssertionError(f"leaked pool worker pid {pid}")


# ----------------------------------------------------------------------
# the kept shards= spelling: every case the plain call
# ----------------------------------------------------------------------
#: algorithms whose OpCounter totals are invariant under row slicing
ADDITIVE_COUNTER_ALGOS = ("inner", "msa", "mca", "esc")


def _rand(rng, n, m, k):
    return CSR.from_coo(
        (n, m), rng.integers(0, n, k), rng.integers(0, m, k), rng.random(k)
    )


def _grid_cases():
    """The deleted grids' cases, by name; each passes its shape as the kept
    ``shards=`` spelling."""
    g = rmat(5, seed=3)  # 32 vertices: the reference-tier heap schemes are slow
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
        ("irregular", sq, (4, 2)),
        ("more-blocks-than-rows", (tiny, tiny, tiny), (64, 64)),
        ("rectangular", rect, (4, 3)),
    ]


def _assert_same(got: CSR, ref: CSR, label="") -> None:
    assert got.shape == ref.shape, label
    assert np.array_equal(got.indptr, ref.indptr), label
    assert np.array_equal(got.indices, ref.indices), label
    assert np.array_equal(got.data, ref.data), label
    # column indices ascend within every output row: the invariant
    # k-truss's searchsorted alignment relies on
    assert got.sorted_indices, label
    rows = np.repeat(np.arange(got.nrows), got.row_nnz())
    assert np.all(np.diff(got.indices)[rows[1:] == rows[:-1]] > 0), label


_PLAIN: dict = {}


def _plain_and_serial(case, algo):
    """The plain call's result and counter and the serial run's counter
    with the kept spelling, computed once per (case, algo) for all three
    backends."""
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
        assert counter == serial_counter == ref_counter, f"{algo}/{backend}"

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
        """``batch=`` under ``shards=`` (both kept spellings) is accepted
        on every backend: the call is one kernel call, no work item, and
        the result is the call without them."""
        g = rmat(8, seed=3)
        want = masked_spgemm(g, g, g, algo="hash", shards=shards, backend=backend)
        for tier in ("bucket", "perrow"):
            with tracing() as tr:
                got = masked_spgemm(g, g, g, algo="hash", batch=tier, shards=shards,
                                    backend=backend)
            kernels = [sp for sp in tr.spans if sp.name == "kernel.hash"]
            assert len(kernels) == 1 and not _cell_spans(tr)
            _assert_same(got, want, f"{tier}/{backend}")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("partition", ["block", "cyclic", "balanced"])
    def test_row_partitions_with_and_without_panels(self, partition, backend):
        """Row splits of the whole product and of a caller's column panel
        (B's and the mask's columns 24-48) are each the plain call."""
        g = rmat(6, seed=3)
        panel = columns(g, 24, 48)
        for algo in ("inner", "msa", "hash", "mca", "esc"):
            if partition == "cyclic":
                assert_round_robin_refused(g, g, g, algo, 3, backend)
                continue
            for b, m in ((g, g), (panel, panel)):
                ref_counter = OpCounter()
                ref = masked_spgemm(g, b, m, algo=algo, counter=ref_counter)
                pl = row_split(partition, g, b, m, algo, 3)
                got, counter = _run(pl, g, b, m, backend)
                _assert_same(got, ref, f"{algo}/{partition}/{b.shape}")
                if algo in ADDITIVE_COUNTER_ALGOS:
                    assert counter == ref_counter, f"{algo}/{partition}"

    def test_panel_width_is_the_one_by_k_grid(self):
        """Column panels are the caller's own: the door's kept
        ``shards=(1, 3)`` is the plain call (values and counters), and the
        caller's three panels stack back to it, every algorithm."""
        g = rmat(6, seed=3)
        for algo in ALL_ALGOS:
            ref_counter, counter = OpCounter(), OpCounter()
            ref = masked_spgemm(g, g, g, algo=algo, counter=ref_counter)
            got = masked_spgemm(g, g, g, algo=algo, shards=(1, 3), counter=counter)
            _assert_same(got, ref, algo)
            assert counter == ref_counter, algo
            _assert_same(panelled(g, g, g, 21, algo=algo), ref, algo)

    @pytest.mark.parametrize("case", _grid_cases()[3:5], ids=lambda c: c[0])
    def test_column_orientation_transposes_the_grid(self, case):
        """Column by column is the caller's ``(B^T A^T)^T`` (the door names
        no orientation), with the kept spelling transposed too."""
        _, (a, b, m), shards = case
        flipped = shards[::-1]
        for algo in ("msa", "hash", "esc"):
            ref = masked_spgemm(a, b, m, algo=algo)
            got = masked_spgemm(b.transpose(), a.transpose(), m.transpose(), algo=algo,
                                shards=flipped).transpose()
            _assert_same(got, ref, algo)
