"""Tests for the cost-model execution engine (:mod:`repro.engine`).

Covers plan construction and validation, the Figure-7 regime-aware auto
selection, property-style cross-checks of every plan shape the Planner can
emit against the reference implementation, complemented-mask safety, and
counter threading through banded / partitioned / panelled execution.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import scipy_masked_spgemm
from repro.core import (
    ALL_ALGOS,
    classify_rows,
    masked_spgemm,
    masked_spgemm_hybrid,
    supports_complement,
)
from repro.core.reference import masked_spgemm_reference
from repro.engine import (
    PLAN_CANDIDATES,
    ExecutionPlan,
    Planner,
    RowBand,
    execute,
    plan,
    plan_and_execute,
)
from repro.graphs import erdos_renyi, rmat
from repro.machine import HASWELL, KNL, OpCounter
from repro.semiring import PLUS_PAIR
from repro.sparse import CSR, read_mtx

from .conftest import assert_csr_equal, panels, random_csr, row_split

DATA = Path(__file__).parent.parent / "data"


@pytest.fixture
def triple():
    a = random_csr(40, 30, 4, seed=1)
    b = random_csr(30, 50, 4, seed=2)
    m = random_csr(40, 50, 6, seed=3)
    return a, b, m


# ----------------------------------------------------------------------
# plan construction
# ----------------------------------------------------------------------
class TestPlanner:
    def test_auto_plan_covers_all_rows(self, triple):
        a, b, m = triple
        pl = plan(a, b, m)
        assert pl.mode == "auto"
        covered = np.concatenate([band.rows for band in pl.bands])
        assert sorted(covered.tolist()) == list(range(a.nrows))
        pl.validate()  # internal consistency

    def test_forced_plan_single_band(self, triple):
        a, b, m = triple
        pl = plan(a, b, m, algo="hash", phases=2, threads=3)
        assert pl.mode == "forced"
        assert pl.algo == "hash"
        assert pl.phases == 2 and pl.threads == 3 and pl.backend == "thread"
        assert len(pl.bands) == 1 and pl.bands[0].is_full(a.nrows)

    def test_forced_unknown_algo(self, triple):
        a, b, m = triple
        with pytest.raises(ValueError, match="unknown algorithm"):
            plan(a, b, m, algo="quantum")

    def test_forced_complement_unsupported(self, triple):
        a, b, m = triple
        for algo in ("inner", "mca"):
            with pytest.raises(ValueError, match="complement"):
                plan(a, b, m, algo=algo, complement=True)

    def test_shape_validation(self):
        a = random_csr(5, 6, 2, seed=1)
        b = random_csr(7, 4, 2, seed=2)
        m = random_csr(5, 4, 2, seed=3)
        with pytest.raises(ValueError, match="inner dimensions"):
            plan(a, b, m)
        b2 = random_csr(6, 4, 2, seed=4)
        with pytest.raises(ValueError, match="mask shape"):
            plan(a, b2, random_csr(4, 4, 2, seed=5))

    def test_explain_reports_choices(self, triple):
        a, b, m = triple
        text = plan(a, b, m, machine=HASWELL).explain()
        assert "algo=" in text
        assert "phases=" in text
        assert "backend" in text and "partition" not in text
        assert HASWELL.name in text
        assert "on host" in plan(a, b, m).explain()

    def test_as_dict_jsonable(self, triple):
        a, b, m = triple
        d = plan(a, b, m, shards=(1, 3)).as_dict()
        json.dumps(d)  # must not raise
        assert "partition" not in d
        assert d["machine"] == "host"  # no machine= means this interpreter
        assert sum(band["nrows"] for band in d["bands"]) == a.nrows

    def test_machine_changes_estimates(self, triple):
        a, b, m = triple
        ph = plan(a, b, m, machine=HASWELL)
        pk = plan(a, b, m, machine=KNL)
        assert ph.machine == "haswell" and pk.machine == "knl"
        assert ph.estimates != pk.estimates

    def test_ratio_banding_matches_classify_rows(self, triple):
        a, b, m = triple
        pl = Planner(HASWELL, banding="ratio").plan(a, b, m)
        classes = classify_rows(a, b, m, HASWELL)
        got = {band.algo: set(band.rows.tolist()) for band in pl.bands}
        want = {algo: set(rows.tolist()) for algo, rows in classes.items()}
        assert got == want

    def test_banding_none_single_band(self, triple):
        a, b, m = triple
        pl = Planner(HASWELL, banding="none").plan(a, b, m)
        assert len(pl.bands) == 1 and pl.bands[0].is_full(a.nrows)

    def test_memory_budget_turns_on_panels(self):
        """No rule picks a grid: a memory-bounded caller spells its column
        panels, ``shards=(1, K)``, and the planner takes no budget."""
        import inspect

        a = random_csr(60, 60, 6, seed=11)
        b = random_csr(60, 200, 6, seed=12)
        m = random_csr(60, 200, 8, seed=13)
        tight = plan(a, b, m, shards=(1, 8))
        assert (tight.grid.nrb, tight.grid.ncp) == (1, 8)
        assert tight.grid.col_bounds == (0, 25, 50, 75, 100, 125, 150, 175, 200)
        assert plan(a, b, m).grid.ncells == 1
        assert set(inspect.signature(Planner.plan).parameters) == {
            "self", "a", "b", "mask", "complement", "algo", "phases", "threads",
            "backend", "shards", "_b_csc",
        }

    def test_invalid_inputs(self, triple):
        a, b, m = triple
        with pytest.raises(ValueError, match="banding"):
            Planner(HASWELL, banding="vibes")
        with pytest.raises(ValueError, match="phases"):
            plan(a, b, m, phases=3)
        with pytest.raises(ValueError, match="shards counts"):
            plan(a, b, m, shards=(1, 0))

    def test_plan_validate_catches_broken_plans(self, triple):
        a, b, m = triple
        rows = np.arange(a.nrows, dtype=np.int64)
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExecutionPlan((a.nrows, b.ncols),
                          [RowBand(rows, "quantum")]).validate()
        with pytest.raises(ValueError, match="exactly once"):
            ExecutionPlan((a.nrows, b.ncols),
                          [RowBand(rows, "msa"), RowBand(rows[:1], "hash")]).validate()
        with pytest.raises(ValueError, match="complement"):
            ExecutionPlan((a.nrows, b.ncols), [RowBand(rows, "mca")],
                          complement=True).validate()
        with pytest.raises(ValueError, match="threads must be positive"):
            ExecutionPlan((a.nrows, b.ncols), [RowBand(rows, "msa")],
                          threads=0).validate()

    def test_complement_plans_never_use_inner_or_mca(self):
        """The regimes that would pick inner/mca must fall back elsewhere
        when the mask is complemented (neither supports complement)."""
        n = 128
        dense = erdos_renyi(n, n, 16, seed=1)
        sparse = erdos_renyi(n, n, 1, seed=2)
        cases = [
            (dense, dense, sparse),   # pull regime -> would pick inner
            (sparse, sparse, dense),  # push-compact regime -> would pick mca
        ]
        for banding in ("cost", "ratio", "none"):
            planner = Planner(HASWELL, banding=banding)
            for a, b, m in cases:
                pl = planner.plan(a, b, m, complement=True)
                assert not set(pl.algos()) & {"inner", "mca"}, (banding, pl.algos())


# ----------------------------------------------------------------------
# Figure-7 auto selection
# ----------------------------------------------------------------------
class TestAutoSelection:
    def test_density_grid_selects_multiple_algorithms(self):
        """Paper Fig. 7 via the planner on the paper's machine: sweeping
        input/mask density must produce at least three distinct algorithm
        choices.  (What wins on *this* interpreter is a measured question:
        ``tests/test_host_planner.py``, ``benchmarks/test_auto_regret.py``.)"""
        n = 512
        degrees = (1, 4, 16, 64)
        chosen = set()
        for d_in in degrees:
            a = erdos_renyi(n, n, d_in, seed=d_in)
            b = erdos_renyi(n, n, d_in, seed=d_in + 1000)
            for d_m in degrees:
                m = erdos_renyi(n, n, d_m, seed=d_m + 2000)
                per_algo = plan(a, b, m, machine="haswell").nrows_per_algo()
                chosen.add(max(per_algo, key=per_algo.get))
        assert len(chosen) >= 3, chosen
        assert chosen <= set(PLAN_CANDIDATES)

    def test_grid_execution_matches_reference_bitwise(self):
        """Every auto plan on a small density grid produces the same
        pattern AND the same values as the reference implementation
        (PLUS_PAIR values are whole counts, so equality is exact)."""
        n = 96
        for d_in, d_m in [(1, 1), (1, 16), (8, 8), (24, 2), (2, 24)]:
            a = erdos_renyi(n, n, d_in, seed=d_in)
            b = erdos_renyi(n, n, d_in, seed=d_in + 50)
            m = erdos_renyi(n, n, d_m, seed=d_m + 99)
            pl = plan(a, b, m)
            got = execute(pl, a, b, m, semiring=PLUS_PAIR).sort_indices()
            want = masked_spgemm_reference(
                a, b, m, algo="msa", semiring=PLUS_PAIR
            ).sort_indices()
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr), (d_in, d_m)
            assert np.array_equal(got.indices, want.indices), (d_in, d_m)
            assert np.array_equal(got.data, want.data), (d_in, d_m)

    def test_auto_entry_point(self, triple):
        a, b, m = triple
        want = scipy_masked_spgemm(a, b, m)
        assert_csr_equal(masked_spgemm(a, b, m, algo="auto"), want)
        wantc = scipy_masked_spgemm(a, b, m, complement=True)
        assert_csr_equal(
            masked_spgemm(a, b, m, algo="auto", complement=True), wantc
        )

    def test_auto_respects_forced_phases(self, triple):
        a, b, m = triple
        pl = plan(a, b, m, phases=2)
        assert pl.phases == 2
        assert_csr_equal(
            execute(pl, a, b, m), scipy_masked_spgemm(a, b, m)
        )


# ----------------------------------------------------------------------
# property-style cross-checks: every plan shape vs the reference
# ----------------------------------------------------------------------
def _inputs():
    """karate + small ER / R-MAT problems (square: a @ a masked by a)."""
    karate = read_mtx(DATA / "karate.mtx")
    er = erdos_renyi(48, 48, 3, seed=7, values="uniform")
    rm = rmat(6, seed=3)  # 64 vertices, Graph500 parameters
    return [("karate", karate), ("er", er), ("rmat", rm)]


@pytest.fixture(scope="module", params=_inputs(), ids=lambda p: p[0])
def square_problem(request):
    g = request.param[1]
    return g, g, g


class TestPlanCrossCheck:
    """Every plan the Planner can emit must match the reference kernels."""

    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_forced_algos(self, algo, complement, square_problem):
        a, b, m = square_problem
        if complement and not supports_complement(algo):
            pytest.skip(f"{algo} has no complement support")
        pl = plan(a, b, m, algo=algo, complement=complement)
        got = execute(pl, a, b, m)
        want = masked_spgemm_reference(a, b, m, algo="msa", complement=complement)
        assert_csr_equal(got, want, msg=f"algo={algo} complement={complement}")

    @pytest.mark.parametrize("phases", [1, 2])
    @pytest.mark.parametrize("banding", ["cost", "ratio", "none"])
    def test_auto_bandings(self, banding, phases, square_problem):
        a, b, m = square_problem
        pl = Planner(HASWELL, banding=banding).plan(a, b, m, phases=phases)
        got = execute(pl, a, b, m)
        want = masked_spgemm_reference(a, b, m, algo="msa")
        assert_csr_equal(got, want, msg=f"banding={banding} phases={phases}")

    @pytest.mark.parametrize("partition", ["block", "cyclic", "balanced"])
    def test_partitioned(self, partition, square_problem):
        a, b, m = square_problem
        pl = row_split(partition, a, b, m, threads=3)
        got = execute(pl, a, b, m)
        want = masked_spgemm_reference(a, b, m, algo="msa")
        assert_csr_equal(got, want, msg=partition)

    @pytest.mark.parametrize("panel", [5, 17])
    def test_panelled(self, panel, square_problem):
        a, b, m = square_problem
        for complement in (False, True):
            pl = plan(a, b, m, shards=panels(m.shape, panel), complement=complement)
            got = execute(pl, a, b, m)
            want = masked_spgemm_reference(a, b, m, algo="msa",
                                           complement=complement)
            assert_csr_equal(got, want, msg=f"panel={panel} c={complement}")

    def test_threads_times_panels_times_bands(self, square_problem):
        """The maximally-composed plan: banded + row parts + panelled."""
        a, b, m = square_problem
        pl = plan(a, b, m, threads=2, backend="process", shards=panels(m.shape, 11))
        got = execute(pl, a, b, m)
        assert_csr_equal(got, masked_spgemm_reference(a, b, m, algo="msa"))

    def test_machines(self, square_problem):
        a, b, m = square_problem
        for machine in (HASWELL, KNL):
            got = plan_and_execute(a, b, m, machine=machine)
            assert_csr_equal(got, masked_spgemm_reference(a, b, m, algo="msa"))

    def test_semirings(self, square_problem):
        a, b, m = square_problem
        got = plan_and_execute(a, b, m, semiring=PLUS_PAIR)
        want = masked_spgemm_reference(a, b, m, algo="msa", semiring=PLUS_PAIR)
        assert_csr_equal(got, want)


# ----------------------------------------------------------------------
# hybrid complement (satellite)
# ----------------------------------------------------------------------
class TestHybridComplement:
    def test_matches_oracle(self, triple):
        a, b, m = triple
        got = masked_spgemm_hybrid(a, b, m, complement=True)
        assert_csr_equal(got, scipy_masked_spgemm(a, b, m, complement=True))

    def test_classify_rows_complement_avoids_inner_mca(self):
        n = 128
        dense = erdos_renyi(n, n, 16, seed=1)
        sparse = erdos_renyi(n, n, 1, seed=2)
        # plain: these regimes route to inner / mca respectively
        assert "inner" in classify_rows(dense, dense, sparse)
        assert "mca" in classify_rows(sparse, sparse, dense)
        # complemented: they must not
        for a, b, m in [(dense, dense, sparse), (sparse, sparse, dense)]:
            classes = classify_rows(a, b, m, complement=True)
            assert not set(classes) & {"inner", "mca"}
            covered = np.concatenate(list(classes.values()))
            assert sorted(covered.tolist()) == list(range(n))

    def test_hybrid_complement_on_pull_regime(self):
        """Inputs whose plain-mask classification picks inner must still be
        complement-correct (routed away from inner)."""
        n = 96
        a = erdos_renyi(n, n, 12, seed=5)
        m = erdos_renyi(n, n, 1, seed=6)
        got = masked_spgemm_hybrid(a, a, m, complement=True)
        assert_csr_equal(got, scipy_masked_spgemm(a, a, m, complement=True))


# ----------------------------------------------------------------------
# counter threading
# ----------------------------------------------------------------------
class TestCounterThreading:
    def test_partitioned_counter_equals_serial(self, triple):
        a, b, m = triple
        serial, parallel = OpCounter(), OpCounter()
        execute(plan(a, b, m, algo="msa", threads=1), a, b, m, counter=serial)
        execute(plan(a, b, m, algo="msa", threads=4), a, b, m, counter=parallel)
        assert parallel.as_dict() == serial.as_dict()

    def test_banded_counter_counts_all_bands(self, triple):
        a, b, m = triple
        c = OpCounter()
        out = plan_and_execute(a, b, m, counter=c)
        assert c.output_nnz == out.nnz
        assert c.flops > 0

    def test_panelled_counter(self, triple):
        a, b, m = triple
        c = OpCounter()
        out = execute(plan(a, b, m, algo="hash", shards=panels(m.shape, 9)), a, b, m, counter=c)
        assert c.output_nnz == out.nnz

    def test_two_phase_symbolic_charged(self, triple):
        a, b, m = triple
        c = OpCounter()
        execute(plan(a, b, m, algo="msa", phases=2), a, b, m, counter=c)
        assert c.symbolic_flops > 0


# ----------------------------------------------------------------------
# the acceptance workloads: TC, k-truss, BC plans are explainable
# ----------------------------------------------------------------------
class TestWorkloadPlans:
    def _assert_explains(self, pl):
        text = pl.explain()
        assert "algo=" in text and "phases=" in text and "backend" in text
        return text

    def test_triangle_counting_plan(self):
        g = read_mtx(DATA / "karate.mtx")
        low = g.pattern().tril(-1)
        pl = plan(low, low, low)
        self._assert_explains(pl)
        got = execute(pl, low, low, low, semiring=PLUS_PAIR)
        from repro.sparse import reduce_sum

        assert int(round(reduce_sum(got))) == 45  # karate has 45 triangles

    def test_ktruss_plan(self):
        """k-truss support step: S = A .* (A @ A) on the adjacency pattern."""
        g = erdos_renyi(64, 64, 6, seed=9).pattern()
        pl = plan(g, g, g)
        self._assert_explains(pl)
        got = execute(pl, g, g, g, semiring=PLUS_PAIR)
        want = masked_spgemm_reference(g, g, g, algo="msa", semiring=PLUS_PAIR)
        assert_csr_equal(got, want)

    def test_bc_plan_complemented(self):
        g = erdos_renyi(80, 80, 4, seed=10).pattern()
        s = 8
        rows = np.arange(s, dtype=np.int64)
        frontier = CSR.from_coo((s, 80), rows, rows * 3, np.ones(s))
        pl = plan(frontier, g, frontier, complement=True)
        text = self._assert_explains(pl)
        assert "complemented" in text
        assert not set(pl.algos()) & {"inner", "mca"}

    def test_apps_run_on_auto_default(self):
        from repro.apps import triangle_count

        g = read_mtx(DATA / "karate.mtx")
        assert triangle_count(g) == 45  # default algo is now "auto"
