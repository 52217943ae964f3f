"""The kept ``shards=`` spelling and the row parts that replaced the grid.

The output grid (``ShardGrid``, column panels, per-cell pruning) is gone:
a plan is the plain kernel call or, on the process backend, flop-balanced
row parts of A and the mask against the whole B (``docs/parallel.md``).
``masked_spgemm(shards=)`` stays as a validated spelling that selects
nothing — ``None`` or a pair of ints >= 1, anything else a ``ValueError``
— for the benchmark ladder's rung.  The classes and tests keep their names
so the case ids stay stable, each re-pointed at what survives:

* the kept spelling is **bit-for-bit** the plain call, counters included,
  on all three backends, for every algorithm, complement masks and 2P;
* a plan carries no grid, and the planner takes no ``shards=``;
* a process plan's row parts partition the rows and the mask, none is
  pruned, and each is one ``engine.cell`` span;
* a process call publishes each operand object once and unlinks every
  segment before it returns.

Carries the ``backend`` marker: CI's backend-smoke job runs it alongside
the backend-equivalence suite.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import ALL_ALGOS, masked_spgemm
from repro.engine import execute, plan
from repro.engine.executor import _row_parts
from repro.graphs import erdos_renyi, rmat
from repro.machine import OpCounter
from repro.observe import tracing
from repro.parallel import active_segments, row_block, shutdown_pool
from repro.sparse import CSR, read_mtx

pytestmark = pytest.mark.backend

DATA = Path(__file__).parent.parent / "data"
WORKERS = 2
BACKENDS = ("serial", "thread", "process")


def _inputs():
    karate = read_mtx(DATA / "karate.mtx")
    er = erdos_renyi(48, 48, 3, seed=7, values="uniform")
    rm = rmat(6, seed=3)
    return [("karate", karate), ("er", er), ("rmat", rm)]


@pytest.fixture(scope="module", params=_inputs(), ids=lambda p: p[0])
def graph(request):
    return request.param[1]


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pool()
    assert active_segments() == ()


@pytest.fixture(autouse=True)
def _no_segment_outlives_a_test():
    """A process call unlinks what it published before it returns."""
    yield
    assert active_segments() == ()


def _same(got: CSR, ref: CSR, label: str = "") -> None:
    # CSR defines no __eq__; compare the canonical arrays bitwise
    assert got.shape == ref.shape, label
    assert np.array_equal(got.indptr, ref.indptr), label
    assert np.array_equal(got.indices, ref.indices), label
    assert np.array_equal(got.data, ref.data), label


def _parts(g, m=None, **kw):
    """``g @ g`` under ``m`` (default ``g``) on ``WORKERS``-or-more row
    parts of a process plan, traced: ``(result, counter, cell spans)``."""
    m = g if m is None else m
    kw.setdefault("threads", WORKERS)
    counter = OpCounter()
    with tracing() as tr:
        got = execute(plan(g, g, m, backend="process", **kw), g, g, m, counter=counter)
    return got, counter, [sp for sp in tr.spans if sp.name == "engine.cell"]


def _block_diagonal(n=30):
    rows = np.arange(n)
    return (CSR.from_coo((n, n), rows, rows, np.ones(n)),
            erdos_renyi(n, n, 4, seed=13, values="uniform"))


# ----------------------------------------------------------------------
# row parts, and the grid's spellings that are gone
# ----------------------------------------------------------------------
class TestShardGrid:
    def test_regular_grid_spans_shape(self):
        """A process plan's row parts are contiguous, nonempty and span
        every row; one thread is no cut at all."""
        g = erdos_renyi(10, 10, 3, seed=1)
        parts = _row_parts(g, g, 3)
        assert 2 <= len(parts) <= 3
        assert parts[0][0] == 0 and parts[-1][1] == 10
        assert all(hi > lo for lo, hi in parts)
        assert all(p[1] == q[0] for p, q in zip(parts, parts[1:]))
        assert _row_parts(g, g, 1) == []

    def test_grid_is_hashable_plan_cache_key_material(self):
        """(The name predates the plan cache's removal.)  A plan is plain
        data with no grid: equal calls plan equal JSON-able dicts."""
        import repro.engine

        assert not hasattr(repro.engine, "ShardGrid")
        g = erdos_renyi(10, 10, 2, seed=1)
        a, b = (plan(g, g, g, algo="msa").as_dict() for _ in range(2))
        assert a == b and "grid" not in a
        assert json.loads(json.dumps(a)) == a

    @pytest.mark.parametrize(
        "row_bounds,col_bounds,match",
        [
            ((0,), (0, 10), "at least one block"),
            ((1, 10), (0, 10), r"span \[0, 10\]"),
            ((0, 9), (0, 10), r"span \[0, 10\]"),
            ((0, 7, 3, 10), (0, 10), "non-decreasing"),
            ((0, 10), (0, 11), r"span \[0, 10\]"),
        ],
    )
    def test_validate_rejects_bad_bounds(self, row_bounds, col_bounds, match):
        """Bounds are no spelling any more: the kept ``shards=`` takes two
        counts, so each pair of bounds the deleted ``ShardGrid.validate``
        refused (with ``match``) is refused by the door."""
        g = erdos_renyi(10, 10, 2, seed=1)
        with pytest.raises(ValueError, match="shards must be None or a pair of ints"):
            masked_spgemm(g, g, g, shards=(row_bounds, col_bounds))

    def test_empty_blocks_are_legal(self):
        """Flops all in the last row leave a part empty: it is no work
        item, and the one part left is the plain call."""
        n = 10
        a = CSR.from_coo((n, n), np.full(n, n - 1), np.arange(n), np.ones(n))
        assert _row_parts(a, a, 2) == [(0, n)]
        got, _, cells = _parts(a, algo="msa")
        _same(got, masked_spgemm(a, a, a, algo="msa"))
        assert cells == []


class TestPlannerSharding:
    def test_tuple_grid(self, graph):
        """A pair of counts is accepted and selects nothing: the forced
        call is the plain call, span for span."""
        names = []
        for kw in ({}, {"shards": (3, 2)}):
            with tracing() as tr:
                masked_spgemm(graph, graph, graph, algo="msa", **kw)
            names.append([sp.name for sp in tr.spans])
        assert names[0] == names[1] and "engine.cell" not in names[1]
        assert "grid" not in plan(graph, graph, graph, algo="msa").explain()

    def test_explicit_grid_used_verbatim(self, graph):
        n = graph.nrows
        with pytest.raises(ValueError, match="shards must be"):
            masked_spgemm(graph, graph, graph, algo="msa",
                          shards=((0, 1, n), (0, n)))

    def test_one_by_one_degenerates_to_unsharded(self, graph):
        ref_counter, counter = OpCounter(), OpCounter()
        ref = masked_spgemm(graph, graph, graph, algo="msa", counter=ref_counter)
        got = masked_spgemm(graph, graph, graph, algo="msa", shards=(1, 1),
                            counter=counter)
        _same(got, ref)
        assert counter == ref_counter

    def test_auto_respects_memory_budget(self, graph):
        """No budget rule picks a grid and a plan has none; the kept
        spelling leaves an auto call as it is."""
        pl = plan(graph, graph, graph)
        assert not hasattr(pl, "grid")
        assert not any("column panels" in n or "grid" in n for n in pl.notes)
        ref = masked_spgemm(graph, graph, graph, algo="auto")
        for shards in ((1, 4), (2, 2)):
            _same(masked_spgemm(graph, graph, graph, algo="auto", shards=shards), ref)

    def test_bad_shards_knob_rejected(self, graph):
        for bad in ("always", "auto", (2, 2, 2)):
            with pytest.raises(ValueError, match="shards must be"):
                masked_spgemm(graph, graph, graph, shards=bad)
            with pytest.raises(TypeError, match="shards"):
                plan(graph, graph, graph, shards=bad)

    @pytest.mark.parametrize("bad", [(0, 0), (-1, 2), (2, 0)])
    def test_counts_below_one_rejected(self, graph, bad):
        for algo in ("msa", "auto"):
            with pytest.raises(ValueError, match="pair of ints >= 1"):
                masked_spgemm(graph, graph, graph, algo=algo, shards=bad)

    def test_complement_census_notes_no_pruning(self, graph):
        """A complemented plan notes no cells, and the kept spelling is the
        plain complemented call."""
        pl = plan(graph, graph, graph, algo="msa", complement=True)
        assert not any("cell" in n or "grid" in n for n in pl.notes)
        ref = masked_spgemm(graph, graph, graph, algo="msa", complement=True)
        got = masked_spgemm(graph, graph, graph, algo="msa", complement=True,
                            shards=(2, 2))
        _same(got, ref)

    def test_plan_as_dict_round_trips_grid(self, graph):
        d = plan(graph, graph, graph, algo="msa", threads=3,
                 backend="process").as_dict()
        assert set(d) == {"shape", "complement", "phases", "threads", "backend",
                          "machine", "mode", "bands", "estimates_seconds", "notes"}
        assert d["threads"] == 3 and d["backend"] == "process"
        assert json.loads(json.dumps(d)) == d


# ----------------------------------------------------------------------
# row parts of the mask
# ----------------------------------------------------------------------
class TestMaskCells:
    def test_cells_partition_the_mask(self, graph):
        parts = _row_parts(graph, graph, 3)
        assert sum(hi - lo for lo, hi in parts) == graph.nrows
        assert sum(int(graph.indptr[hi] - graph.indptr[lo]) for lo, hi in parts) == graph.nnz
        for lo, hi in parts:
            block = row_block(graph, lo, hi)
            assert block.shape == (hi - lo, graph.ncols)
            block.check()

    def test_cells_reassemble_to_the_mask(self, graph):
        rs, cs, vs = [], [], []
        for lo, hi in _row_parts(graph, graph, 4):
            r, c, v = row_block(graph, lo, hi).to_coo()
            rs.append(r + lo)
            cs.append(c)
            vs.append(v)
        back = CSR.from_coo(
            graph.shape,
            np.concatenate(rs), np.concatenate(cs), np.concatenate(vs),
        )
        _same(back, graph.sort_indices())

    def test_empty_mask_has_no_cells(self):
        """An empty mask's product is empty on the row parts too; under
        the complement it is the whole product."""
        g = erdos_renyi(8, 8, 3, seed=2, values="uniform")
        empty = CSR.empty((8, 8))
        got, _, _ = _parts(g, empty, algo="msa")
        assert got.nnz == 0 and got.shape == (8, 8)
        got, _, _ = _parts(g, empty, algo="msa", complement=True)
        _same(got, masked_spgemm(g, g, empty, algo="msa", complement=True))

    def test_block_diagonal_mask_touches_diagonal_cells_only(self):
        m, g = _block_diagonal(12)
        got, _, cells = _parts(g, m, algo="msa", threads=3)
        _same(got, masked_spgemm(g, g, m, algo="msa"))
        assert got.nnz == 0 or np.all(got.row_ids() == got.indices)
        assert len(cells) == 3


# ----------------------------------------------------------------------
# execution equivalence
# ----------------------------------------------------------------------
class TestShardedEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_all_algos_bitwise(self, algo, backend, graph):
        ref_counter = OpCounter()
        ref = masked_spgemm(graph, graph, graph, algo=algo, counter=ref_counter)
        got_counter = OpCounter()
        got = masked_spgemm(
            graph, graph, graph, algo=algo, counter=got_counter,
            shards=(3, 2), backend=backend,
        )
        _same(got, ref, f"{algo}/{backend}")
        assert got_counter == ref_counter, f"{algo}/{backend}"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_complement_bitwise(self, backend, graph):
        ref = masked_spgemm(graph, graph, graph, algo="msa", complement=True)
        got = masked_spgemm(
            graph, graph, graph, algo="msa", complement=True,
            shards=(2, 2), backend=backend,
        )
        _same(got, ref, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_phase_bitwise(self, backend, graph):
        ref = masked_spgemm(graph, graph, graph, algo="msa", phases=2)
        got = masked_spgemm(
            graph, graph, graph, algo="msa", phases=2,
            shards=(3, 2), backend=backend,
        )
        _same(got, ref, backend)

    def test_auto_algo_with_shards(self, graph):
        ref = masked_spgemm(graph, graph, graph, algo="auto")
        got = masked_spgemm(graph, graph, graph, algo="auto", shards=(3, 2))
        _same(got, ref)

    def test_irregular_explicit_grid(self, graph):
        """The flop-balanced parts are irregular row blocks: three of them
        on the pool are the plain call."""
        ref_counter = OpCounter()
        ref = masked_spgemm(graph, graph, graph, algo="hash", counter=ref_counter)
        got, counter, cells = _parts(graph, algo="hash", threads=3)
        _same(got, ref)
        assert len(cells) == len(_row_parts(graph, graph, 3)) >= 2
        assert counter.flops == ref_counter.flops

    def test_rectangular_operands(self):
        rng = np.random.default_rng(5)
        def rand(n, m, k):
            return CSR.from_coo(
                (n, m), rng.integers(0, n, k), rng.integers(0, m, k),
                rng.random(k),
            )
        a, b, m = rand(30, 50, 200), rand(50, 20, 220), rand(30, 20, 150)
        ref = masked_spgemm(a, b, m, algo="msa")
        for backend in BACKENDS:
            got = masked_spgemm(
                a, b, m, algo="msa", shards=(4, 3), backend=backend
            )
            _same(got, ref, backend)
            pl = plan(a, b, m, algo="msa", threads=4, backend=backend)
            _same(execute(pl, a, b, m), ref, backend)

    def test_empty_mask_short_circuits(self, graph):
        empty = CSR.empty(graph.shape)
        got = masked_spgemm(graph, graph, empty, algo="msa", shards=(3, 2))
        assert got.nnz == 0 and got.shape == graph.shape
        got, _, _ = _parts(graph, empty, algo="msa")
        assert got.nnz == 0 and got.shape == graph.shape

    def test_more_blocks_than_rows_clamped(self):
        """More threads than rows: at most one part per row."""
        g = erdos_renyi(5, 5, 2, seed=11)
        ref = masked_spgemm(g, g, g, algo="msa")
        _same(masked_spgemm(g, g, g, algo="msa", shards=(64, 64)), ref)
        got, _, cells = _parts(g, algo="msa", threads=64)
        _same(got, ref)
        assert 2 <= len(cells) <= g.nrows

    def test_column_orientation_transposes_grid(self, graph):
        """Column by column is the caller's ``(B^T A^T)^T``, with the kept
        spelling transposed too."""
        ref = masked_spgemm(graph, graph, graph, algo="msa")
        t = graph.transpose()
        got = masked_spgemm(t, t, t, algo="msa", shards=(2, 3)).transpose()
        _same(got, ref)


# ----------------------------------------------------------------------
# no pruning + per-call segments
# ----------------------------------------------------------------------
def _cells(cells):
    return sorted(tuple(sp.attrs["cell"]) for sp in cells)


class TestPruningAndSessions:
    """Row parts and per-call segments (the class keeps its name so the
    tests keep their ids)."""

    def test_empty_cells_pruned_before_dispatch(self):
        """Nothing is pruned: a block-diagonal mask on three row parts
        dispatches all three, each one ``engine.cell`` span."""
        m, g = _block_diagonal()
        got, _, cells = _parts(g, m, algo="msa", threads=3)
        _same(got, masked_spgemm(g, g, m, algo="msa"))
        assert _cells(cells) == [(0, 0), (0, 1), (0, 2)]

    def test_complement_dispatches_every_cell(self):
        m, g = _block_diagonal()
        got, _, cells = _parts(g, m, algo="msa", complement=True, threads=3)
        _same(got, masked_spgemm(g, g, m, algo="msa", complement=True))
        assert len(cells) == 3

    def test_session_reuses_shard_segments(self):
        """A = B = M on three process row parts: the one matrix is
        published once for every role and part, and every segment dies
        with the call (the name is from when a session served segments
        across calls)."""
        from repro.parallel import shm

        g = rmat(6, seed=3)
        ref = masked_spgemm(g, g, g, algo="msa")
        groups = []
        publish = shm.SegmentGroup.publish_csr

        def recorded(group, mat):
            groups.append(group)
            return publish(group, mat)

        for _ in range(2):  # nothing a call publishes is there for the next
            groups.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(shm.SegmentGroup, "publish_csr", recorded)
                got, counter, _ = _parts(g, algo="msa", threads=3)
            _same(got, ref)
            assert len(groups) == 1
            assert counter.segments_reused == 0
            assert active_segments() == ()

    def test_sessioned_ktruss_reuses_shards(self, monkeypatch):
        """Under the kept ``session=False`` spelling, with every product on
        two process row parts (one pool worker per row, two cores), the
        loop's first product reads one matrix as A, B and M and publishes
        it once; no product publishes an operand twice."""
        from repro.apps import ktruss
        from repro.engine import planner
        from repro.parallel import shm

        g = rmat(6, seed=3)
        base = ktruss(g, k=3)
        published = []
        publish = shm.SegmentGroup.publish_csr

        def recorded(group, mat):
            published.append((group, mat))  # held, so no id is recycled
            return publish(group, mat)

        monkeypatch.setattr(shm.SegmentGroup, "publish_csr", recorded)
        monkeypatch.setattr(planner, "ROWS_PER_THREAD", 1)
        monkeypatch.setattr(planner, "available_cores", lambda: 2)
        res = ktruss(g, k=3, algo="msa", backend="process", session=False)
        _same(res.truss, base.truss)
        per_group = {}
        for group, mat in published:
            per_group.setdefault(id(group), []).append(id(mat))
        first, *rest = per_group.values()
        assert len(first) == 1 and rest
        for ids in per_group.values():
            assert len(ids) == len(set(ids))
        assert res.counter.segments_reused == 0
        assert active_segments() == ()
        shutdown_pool()
