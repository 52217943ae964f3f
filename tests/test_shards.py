"""Grid spellings, column split, pruning and session reuse.

``shards=`` / ``panel_width=`` / ``memory_budget_bytes=`` are planner
spellings of the plan's one ``grid`` (``docs/parallel.md``); the executor
cuts B and the mask into the grid's column panels in one pass
(:func:`repro.sparse.split_columns`), takes row blocks as views of A and
runs one work item per cell whose mask cell is nonempty.  The contract
under test:

* the planner resolves the spellings into one :class:`ShardGrid` and
  notes the pruning rule;
* the column split partitions an operand exactly (cells reassemble to it);
* ``shards=`` execution is **bit-for-bit identical** to the plain call on
  all three backends, for every algorithm, complement masks and 2P plans,
  on karate / ER / R-MAT (``tests/test_backends.py::TestGridEquivalence``
  holds the wider option lattice on one graph);
* mask-empty cells are dropped before dispatch (item count < grid size,
  visible as ``engine.cell`` spans);
* sessions reuse unchanged operand / panel segments across calls
  (``segments_reused > 0``) and rewrite a values-only change in place.

Carries the ``backend`` marker: CI's backend-smoke job runs it alongside
the backend-equivalence suite.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import ALL_ALGOS, masked_spgemm
from repro.engine import ExecutionSession, ShardGrid, plan
from repro.graphs import erdos_renyi, rmat
from repro.machine import OpCounter
from repro.observe import tracing
from repro.parallel import active_segments, shutdown_pool
from repro.sparse import CSR, read_mtx, split_columns

pytestmark = pytest.mark.backend

DATA = Path(__file__).parent.parent / "data"
WORKERS = 2
BACKENDS = ("serial", "thread", "process")

#: algorithms whose OpCounter totals are invariant under row/column
#: slicing (hash sizes its table per flop-budget batch and the heap
#: schemes' merge costs depend on row extent)
ADDITIVE_COUNTER_ALGOS = ("inner", "msa", "mca", "esc")


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


def _same(got: CSR, ref: CSR, label: str = "") -> None:
    # CSR defines no __eq__; compare the canonical arrays bitwise
    assert got.shape == ref.shape, label
    assert np.array_equal(got.indptr, ref.indptr), label
    assert np.array_equal(got.indices, ref.indices), label
    assert np.array_equal(got.data, ref.data), label


# ----------------------------------------------------------------------
# ShardGrid + planner resolution
# ----------------------------------------------------------------------
class TestShardGrid:
    def test_regular_grid_spans_shape(self):
        g = ShardGrid.regular((10, 7), 3, 2)
        assert g.nrb == 3 and g.ncp == 2 and g.ncells == 6
        assert g.row_bounds[0] == 0 and g.row_bounds[-1] == 10
        assert g.col_bounds[0] == 0 and g.col_bounds[-1] == 7
        assert sum(hi - lo for lo, hi in g.row_blocks()) == 10
        assert sum(hi - lo for lo, hi in g.col_panels()) == 7

    def test_grid_is_hashable_plan_cache_key_material(self):
        # (the name predates the plan cache's removal; grids are still
        # compared and hashed, e.g. by the delta slot key)
        a = ShardGrid.regular((10, 10), 2, 2)
        b = ShardGrid.regular((10, 10), 2, 2)
        assert a == b and hash(a) == hash(b)
        assert a != ShardGrid.regular((10, 10), 2, 3)

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
        with pytest.raises(ValueError, match=match):
            ShardGrid(row_bounds, col_bounds).validate((10, 10))

    def test_empty_blocks_are_legal(self):
        # non-decreasing allows zero-height blocks (adaptive grids may
        # emit them); the executor simply finds no band rows in them
        ShardGrid((0, 5, 5, 10), (0, 10)).validate((10, 10))


class TestPlannerSharding:
    def test_tuple_grid(self, graph):
        pl = plan(graph, graph, graph, algo="msa", shards=(3, 2))
        assert (pl.grid.nrb, pl.grid.ncp) == (3, 2)
        assert any("dropped before dispatch" in n for n in pl.notes)
        assert "grid 3x2" in pl.explain()

    def test_explicit_grid_used_verbatim(self, graph):
        n = graph.nrows
        grid = ShardGrid((0, 1, n), (0, n))
        pl = plan(graph, graph, graph, algo="msa", shards=grid)
        assert pl.grid == grid

    def test_one_by_one_degenerates_to_unsharded(self, graph):
        pl = plan(graph, graph, graph, algo="msa", shards=(1, 1))
        assert pl.grid == plan(graph, graph, graph, algo="msa").grid
        assert pl.grid.ncells == 1
        assert any("degenerates" in n for n in pl.notes)

    def test_auto_respects_memory_budget(self, graph):
        """``memory_budget_bytes`` is the one budget -> grid rule."""
        pl = plan(graph, graph, graph, memory_budget_bytes=256 << 20)
        assert pl.grid.ncells == 1  # tiny graphs fit a roomy budget
        pl = plan(graph, graph, graph, memory_budget_bytes=64)
        assert pl.grid.nrb == 1 and pl.grid.ncp > 1
        assert any("column panels of width" in n for n in pl.notes)
        # a spelled grid is taken as given, whatever the budget says
        pl = plan(graph, graph, graph, shards=(2, 2), memory_budget_bytes=64)
        assert (pl.grid.nrb, pl.grid.ncp) == (2, 2)

    def test_bad_shards_knob_rejected(self, graph):
        for bad in ("always", "auto", (2, 2, 2)):
            with pytest.raises(ValueError, match="shards must be"):
                plan(graph, graph, graph, shards=bad)

    def test_shards_exclusive_with_panel_width(self, graph):
        with pytest.raises(ValueError, match="mutually exclusive"):
            plan(graph, graph, graph, algo="msa", shards=(2, 2), panel_width=8)

    def test_complement_census_notes_no_pruning(self, graph):
        pl = plan(
            graph, graph, graph, algo="msa", shards=(2, 2), complement=True
        )
        assert any("complemented mask" in n and "all 4" in n for n in pl.notes)

    def test_plan_as_dict_round_trips_grid(self, graph):
        pl = plan(graph, graph, graph, algo="msa", shards=(3, 2))
        d = pl.as_dict()["grid"]
        assert d["grid"] == [3, 2]
        assert d["row_bounds"] == list(pl.grid.row_bounds)
        assert d["col_bounds"] == list(pl.grid.col_bounds)


# ----------------------------------------------------------------------
# the one-pass column split
# ----------------------------------------------------------------------
def _cell_nnz(panels, grid) -> np.ndarray:
    """nnz of every grid cell, read off the panels' row pointers (what the
    executor's pruning reads)."""
    rb = np.asarray(grid.row_bounds)
    return np.stack([np.diff(p.indptr[rb]) for p in panels], axis=1)


class TestMaskCells:
    def test_cells_partition_the_mask(self, graph):
        grid = ShardGrid.regular(graph.shape, 3, 2)
        panels = split_columns(graph, grid.col_bounds)
        assert len(panels) == grid.ncp
        assert sum(p.nnz for p in panels) == graph.nnz
        assert _cell_nnz(panels, grid).sum() == graph.nnz
        for (lo, hi), panel in zip(grid.col_panels(), panels):
            assert panel.shape == (graph.nrows, hi - lo)
            assert panel.sorted_indices
            panel.check()
            assert panel.nnz == 0 or (
                panel.indices.min() >= 0 and panel.indices.max() < hi - lo
            )

    def test_cells_reassemble_to_the_mask(self, graph):
        grid = ShardGrid.regular(graph.shape, 4, 3)
        rs, cs, vs = [], [], []
        for (lo, _), panel in zip(grid.col_panels(),
                                  split_columns(graph, grid.col_bounds)):
            r, c, v = panel.to_coo()
            rs.append(r)
            cs.append(c + lo)
            vs.append(v)
        back = CSR.from_coo(
            graph.shape,
            np.concatenate(rs), np.concatenate(cs), np.concatenate(vs),
        )
        _same(back, graph.sort_indices())

    def test_empty_mask_has_no_cells(self):
        grid = ShardGrid.regular((8, 8), 2, 2)
        panels = split_columns(CSR.empty((8, 8)), grid.col_bounds)
        assert not _cell_nnz(panels, grid).any()

    def test_block_diagonal_mask_touches_diagonal_cells_only(self):
        n = 12
        rows = np.arange(n)
        m = CSR.from_coo((n, n), rows, rows, np.ones(n))
        grid = ShardGrid.regular((n, n), 3, 3)
        cells = _cell_nnz(split_columns(m, grid.col_bounds), grid)
        assert np.array_equal(cells != 0, np.eye(3, dtype=bool))


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
        if algo in ADDITIVE_COUNTER_ALGOS:
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
        n, m = graph.shape
        grid = ShardGrid((0, 1, max(1, n // 3), n), (0, max(1, m // 4), m))
        ref = masked_spgemm(graph, graph, graph, algo="hash")
        got = masked_spgemm(graph, graph, graph, algo="hash", shards=grid)
        _same(got, ref)

    def test_rectangular_operands(self):
        rng = np.random.default_rng(5)
        def rand(n, m, k):
            return CSR.from_coo(
                (n, m), rng.integers(0, n, k), rng.integers(0, m, k),
                rng.random(k),
            )
        a, b, m = rand(30, 50, 200), rand(50, 20, 220), rand(30, 20, 150)
        for backend in BACKENDS:
            ref = masked_spgemm(a, b, m, algo="msa")
            got = masked_spgemm(
                a, b, m, algo="msa", shards=(4, 3), backend=backend
            )
            _same(got, ref, backend)

    def test_empty_mask_short_circuits(self, graph):
        got = masked_spgemm(
            graph, graph, CSR.empty(graph.shape), algo="msa", shards=(3, 2)
        )
        assert got.nnz == 0 and got.shape == graph.shape

    def test_more_blocks_than_rows_clamped(self):
        g = erdos_renyi(5, 5, 2, seed=11)
        ref = masked_spgemm(g, g, g, algo="msa")
        got = masked_spgemm(g, g, g, algo="msa", shards=(64, 64))
        _same(got, ref)

    def test_column_orientation_transposes_grid(self, graph):
        ref = masked_spgemm(graph, graph, graph, algo="msa")
        got = masked_spgemm(
            graph, graph, graph, algo="msa", orientation="column",
            shards=(3, 2),
        )
        _same(got, ref)


# ----------------------------------------------------------------------
# pruning proof + session segment reuse
# ----------------------------------------------------------------------
def _cells(tr):
    return sorted(tuple(sp.attrs["cell"][1:]) for sp in tr.spans
                  if sp.name == "engine.cell")


class TestPruningAndSessions:
    def test_empty_cells_pruned_before_dispatch(self):
        """A block-diagonal mask on a 3x3 grid dispatches 3 of 9 cells."""
        n = 30
        rows = np.arange(n)
        m = CSR.from_coo((n, n), rows, rows, np.ones(n))
        g = erdos_renyi(n, n, 4, seed=13, values="uniform")
        with tracing() as tr:
            got = masked_spgemm(g, g, m, algo="msa", shards=(3, 3))
        _same(got, masked_spgemm(g, g, m, algo="msa"))
        assert _cells(tr) == [(0, 0), (1, 1), (2, 2)]

    def test_complement_dispatches_every_cell(self):
        n = 30
        rows = np.arange(n)
        m = CSR.from_coo((n, n), rows, rows, np.ones(n))
        g = erdos_renyi(n, n, 4, seed=13, values="uniform")
        with tracing() as tr:
            got = masked_spgemm(
                g, g, m, algo="msa", complement=True, shards=(3, 3)
            )
        _same(got, masked_spgemm(g, g, m, algo="msa", complement=True))
        assert len(_cells(tr)) == 9

    def test_session_reuses_shard_segments(self):
        """Re-multiplying unchanged operands serves A and every column
        panel from the session's segment registry — the k-truss
        fixed-point pattern."""
        g = rmat(6, seed=3)
        ref = masked_spgemm(g, g, g, algo="msa")
        with ExecutionSession() as ses:
            c1, c2 = OpCounter(), OpCounter()
            r1 = masked_spgemm(
                g, g, g, algo="msa", shards=(3, 2), backend="process",
                session=ses, counter=c1,
            )
            published = ses.stats()["segments_published"]
            r2 = masked_spgemm(
                g, g, g, algo="msa", shards=(3, 2), backend="process",
                session=ses, counter=c2,
            )
            _same(r1, ref)
            _same(r2, ref)
            # cold: A and the two panels published once (B = M here, so
            # the mask's panels are the B panels' segments)
            assert published == 3 and c1.segments_reused == 2
            # warm: all five served from the registry, nothing republished
            assert c2.segments_reused == 5
            assert ses.stats()["segments_published"] == published
        assert active_segments() == ()

    def test_sessioned_ktruss_reuses_shards(self):
        from repro.apps import ktruss

        g = rmat(6, seed=3)
        base = ktruss(g, k=3)
        res = ktruss(g, k=3, algo="msa", shards=(2, 2), backend="process")
        _same(res.truss, base.truss)
        # one matrix plays several roles in every product of the loop: its
        # segments must come from the session registry
        assert res.counter.segments_reused > 0
        shutdown_pool()
        assert active_segments() == ()

    def test_values_only_rewrite_keeps_structure_segments(self):
        g = rmat(6, seed=3)
        g2 = CSR.from_segment_arrays(
            g.shape, g.indptr, g.indices, g.data * 2.0,
            sorted_indices=g.sorted_indices,
        )
        with ExecutionSession() as ses:
            c1, c2 = OpCounter(), OpCounter()
            masked_spgemm(
                g, g, g, algo="msa", shards=(2, 2), backend="process",
                session=ses, counter=c1,
            )
            held = active_segments()
            got = masked_spgemm(
                g2, g, g, algo="msa", shards=(2, 2), backend="process",
                session=ses, counter=c2,
            )
            _same(got, masked_spgemm(g2, g, g, algo="msa"))
            # A's data segment was rewritten in place, not republished
            assert c2.bytes_republished == g2.data.nbytes
            assert ses.stats()["values_republished"] == 1
            assert active_segments() == held
            assert c2.segments_reused == 4  # B's and the mask's panels
        assert active_segments() == ()
