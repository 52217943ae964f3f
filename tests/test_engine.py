"""Tests for the cost-model execution engine (:mod:`repro.engine`).

Covers plan construction and validation, the Figure-7 regime-aware auto
selection, property-style cross-checks of every plan shape the Planner can
emit against the reference implementation, complemented-mask safety, and
counter threading through partitioned / panelled execution.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import scipy_masked_spgemm
from repro.core import ALL_ALGOS, masked_spgemm, supports_complement
from repro.core.reference import masked_spgemm_reference
from repro.engine import (
    ExecutionPlan,
    Planner,
    RowBand,
    execute,
    plan,
)
from repro.graphs import erdos_renyi, rmat
from repro.machine import HASWELL, HOST, HOST_NATIVE, OpCounter, RowCostModel, host_profile
from repro.semiring import PLUS_PAIR
from repro.sparse import CSR, read_mtx

from .conftest import assert_csr_equal, assert_round_robin_refused, panelled, random_csr, \
    row_split

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
        assert [band.nrows for band in pl.bands] == [a.nrows]
        pl.validate()  # internal consistency

    def test_forced_plan_single_band(self, triple):
        a, b, m = triple
        pl = plan(a, b, m, algo="hash", phases=2, threads=3)
        assert pl.mode == "forced"
        assert pl.algo == "hash"
        assert pl.phases == 2 and pl.threads == 3 and pl.backend == "thread"
        assert len(pl.bands) == 1 and pl.validate() is pl

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
        # B's CSC must be B's shape, where the planner reads it and where a
        # plan runs with it
        from repro.sparse import CSC

        m2 = random_csr(5, 4, 2, seed=6)
        for bad in (random_csr(4, 6, 2, seed=7), random_csr(8, 8, 2, seed=8)):
            csc = CSC.from_csr(bad)
            with pytest.raises(ValueError, match="b_csc shape"):
                Planner().plan(a, b2, m2, _b_csc=csc)
            with pytest.raises(ValueError, match="b_csc shape"):
                execute(plan(a, b2, m2, algo="inner"), a, b2, m2, b_csc=csc)

    def test_explain_reports_choices(self, triple):
        a, b, m = triple
        text = plan(a, b, m).explain()
        assert "algo=" in text
        assert "phases=" in text
        assert "backend" in text and "partition" not in text
        assert "on host" in text and "predicted candidates on host" in text
        assert "on host" in plan(a, b, m, algo="hash").explain()

    def test_as_dict_jsonable(self, triple):
        a, b, m = triple
        d = plan(a, b, m).as_dict()
        json.dumps(d)  # must not raise
        assert "partition" not in d and "grid" not in d
        assert d["machine"] == "host"  # no machine= means this interpreter
        assert sum(band["nrows"] for band in d["bands"]) == a.nrows

    def test_machine_changes_estimates(self, triple):
        """The profile is what a plan is priced from: a slower ``msa``
        moves its estimate and nothing else."""
        a, b, m = triple
        slow = dataclasses.replace(HOST, msa_ns=tuple(2 * c for c in HOST.msa_ns))
        ph, ps = Planner(HOST).plan(a, b, m), Planner(slow).plan(a, b, m)
        assert ph.machine == ps.machine == "host"
        assert ps.estimates["msa"] > ph.estimates["msa"]
        assert {k: v for k, v in ps.estimates.items() if k != "msa"} == {
            k: v for k, v in ph.estimates.items() if k != "msa"}

    def test_clear_call_decided_by_the_totals_ratio(self, triple, monkeypatch):
        """A clear call is decided by the whole-problem ratio alone: when the
        runner-up is predicted ``DECISIVE_MARGIN`` times slower, the plan is
        one band of the cheapest, read off no exact count."""
        import repro.engine.planner as planner_module

        def counted(*args, **kwargs):
            raise AssertionError("a clear call read an exact count")

        for name in ("flops_per_entry", "pulls_per_entry"):
            monkeypatch.setattr(planner_module, name, counted)
        a, b, m = triple
        clear = dataclasses.replace(HOST, band_ns=0.0,
                                    inner_ns=(1e3,) * 3, mca_ns=(1e3,) * 3)
        pl = Planner(clear).plan(a, b, m)
        ranked = sorted(pl.estimates.values())
        assert ranked[1] >= planner_module.DECISIVE_MARGIN * ranked[0]
        assert pl.algo == min(pl.estimates, key=pl.estimates.get) == "msa"
        assert len(pl.bands) == 1 and pl.validate() is pl

    def test_banding_none_single_band(self, triple):
        """With one candidate there is nothing to decide: one full band."""
        a, b, m = triple
        pl = Planner(dataclasses.replace(host_profile(), candidates=("msa",))).plan(a, b, m)
        assert len(pl.bands) == 1 and pl.validate() is pl
        assert pl.algo == "msa" and pl.mode == "auto" and set(pl.estimates) == {"msa"}

    def test_memory_budget_turns_on_panels(self):
        """No rule picks a grid and a plan has none: a memory-bounded
        caller multiplies its own column panels, and the planner takes no
        budget and no ``shards=``."""
        import inspect

        a = random_csr(60, 60, 6, seed=11)
        b = random_csr(60, 200, 6, seed=12)
        m = random_csr(60, 200, 8, seed=13)
        assert not hasattr(plan(a, b, m), "grid")
        assert set(inspect.signature(Planner.plan).parameters) == {
            "self", "a", "b", "mask", "complement", "algo", "phases", "threads",
            "backend", "_b_csc",
        }
        with pytest.raises(TypeError, match="shards"):
            plan(a, b, m, shards=(1, 8))
        assert_csr_equal(panelled(a, b, m, 25), masked_spgemm(a, b, m))

    def test_invalid_inputs(self, triple):
        a, b, m = triple
        with pytest.raises(ValueError, match="HostProfile"):
            Planner(HASWELL)
        with pytest.raises(ValueError, match="phases"):
            plan(a, b, m, phases=3)
        with pytest.raises(ValueError, match="shards must be"):
            masked_spgemm(a, b, m, shards=(1, 0))
        # a non-string algo is the door's error, not an AttributeError
        with pytest.raises(ValueError) as err:
            plan(a, b, m, algo=3)
        assert str(err.value) == (
            f"unknown algorithm 3; expected one of {('auto',) + ALL_ALGOS}")
        # a phase count is the int 1 or 2: the door, the planner and
        # validate() share one check
        for bad in (True, 2.0, 0):
            want = f"phases must be 1 or 2, got {bad!r}"
            with pytest.raises(ValueError, match=want):
                masked_spgemm(a, b, m, algo="msa", phases=bad)
            with pytest.raises(ValueError, match=want):
                plan(a, b, m, phases=bad)
            with pytest.raises(ValueError, match=want):
                ExecutionPlan((a.nrows, b.ncols), [RowBand(a.nrows, "msa")],
                              phases=bad).validate()
        # one spelling each: the candidates are the profile's, and a plan's
        # backend is chosen when it is planned
        with pytest.raises(TypeError, match="candidates"):
            Planner(HOST, candidates=("msa",))
        with pytest.raises(TypeError, match="backend"):
            execute(plan(a, b, m), a, b, m, backend="serial")

    def test_plan_validate_catches_broken_plans(self, triple):
        a, b, m = triple
        rows = a.nrows
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExecutionPlan((a.nrows, b.ncols),
                          [RowBand(rows, "quantum")]).validate()
        with pytest.raises(ValueError, match="exactly once"):
            ExecutionPlan((a.nrows, b.ncols),
                          [RowBand(rows, "msa"), RowBand(1, "hash")]).validate()
        with pytest.raises(ValueError, match="complement"):
            ExecutionPlan((a.nrows, b.ncols), [RowBand(rows, "mca")],
                          complement=True).validate()
        with pytest.raises(ValueError, match="threads must be positive"):
            ExecutionPlan((a.nrows, b.ncols), [RowBand(rows, "msa")],
                          threads=0).validate()

    def test_validate_takes_exactly_one_full_band(self, triple):
        """A plan is one band over every row: two bands, a band missing
        rows and a band past the last row are each a ``ValueError``."""
        a, b, m = triple
        shape, rows = (a.nrows, b.ncols), a.nrows
        ExecutionPlan(shape, [RowBand(rows, "msa")]).validate()
        half = a.nrows // 2
        broken = {
            "two bands": [RowBand(half, "msa"), RowBand(rows - half, "inner")],
            "partial band": [RowBand(rows - 1, "msa")],
            "rows past the last": [RowBand(rows + 1, "msa")],
            "no band": [],
        }
        for bands in broken.values():
            with pytest.raises(ValueError, match="every output row exactly once"):
                ExecutionPlan(shape, bands).validate()
            with pytest.raises(ValueError, match="every output row exactly once"):
                execute(ExecutionPlan(shape, bands), a, b, m)

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
        for profile in (HOST, HOST_NATIVE):
            planner = Planner(profile)
            for a, b, m in cases:
                pl = planner.plan(a, b, m, complement=True)
                assert not set(pl.algos()) & {"inner", "mca"}, (profile, pl.algos())


# ----------------------------------------------------------------------
# Figure-7 auto selection
# ----------------------------------------------------------------------
class TestAutoSelection:
    def test_density_grid_selects_multiple_algorithms(self):
        """Paper Fig. 7 on the paper's machine, read off the row cost model
        the figures price with: sweeping input/mask density must make at
        least three distinct algorithms the per-row winner of most rows.
        (What wins on *this* interpreter is a measured question:
        ``tests/test_host_planner.py``, ``benchmarks/test_auto_regret.py``.)"""
        n = 512
        degrees = (1, 4, 16, 64)
        fast = ("inner", "msa", "hash", "mca", "esc")
        chosen = set()
        for d_in in degrees:
            a = erdos_renyi(n, n, d_in, seed=d_in)
            b = erdos_renyi(n, n, d_in, seed=d_in + 1000)
            for d_m in degrees:
                m = erdos_renyi(n, n, d_m, seed=d_m + 2000)
                model = RowCostModel(a, b, m, HASWELL)
                cycles = np.stack([model.estimate(c).row_cycles for c in fast])
                wins = np.bincount(np.argmin(cycles, axis=0), minlength=len(fast))
                chosen.add(fast[int(np.argmax(wins))])
        assert len(chosen) >= 3, chosen

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

    #: a planner per decision layer: the exact totals of a close call
    #: ("cost": no O(1) margin is decisive), the whole-problem totals
    #: ("ratio") and a single candidate ("none")
    LAYERS = {
        "cost": lambda: Planner(HOST),
        "ratio": lambda: Planner(HOST),
        "none": lambda: Planner(dataclasses.replace(host_profile(), candidates=("msa",))),
    }

    @pytest.mark.parametrize("phases", [1, 2])
    @pytest.mark.parametrize("banding", ["cost", "ratio", "none"])
    def test_auto_bandings(self, banding, phases, square_problem, monkeypatch):
        import repro.engine.planner as planner_module

        a, b, m = square_problem
        if banding == "cost":
            monkeypatch.setattr(planner_module, "DECISIVE_MARGIN", float("inf"))
        pl = self.LAYERS[banding]().plan(a, b, m, phases=phases)
        assert len(pl.bands) == 1
        got = execute(pl, a, b, m)
        want = masked_spgemm_reference(a, b, m, algo="msa")
        assert_csr_equal(got, want, msg=f"layer={banding} phases={phases}")

    @pytest.mark.parametrize("partition", ["block", "cyclic", "balanced"])
    def test_partitioned(self, partition, square_problem):
        a, b, m = square_problem
        if partition == "cyclic":
            assert_round_robin_refused(a, b, m, threads=3)
            return
        pl = row_split(partition, a, b, m, threads=3)
        got = execute(pl, a, b, m)
        want = masked_spgemm_reference(a, b, m, algo="msa")
        assert_csr_equal(got, want, msg=partition)

    @pytest.mark.parametrize("panel", [5, 17])
    def test_panelled(self, panel, square_problem):
        """The caller's own column panels, each an auto plan."""
        a, b, m = square_problem
        for complement in (False, True):
            got = panelled(a, b, m, panel, algo="auto", complement=complement)
            want = masked_spgemm_reference(a, b, m, algo="msa",
                                           complement=complement)
            assert_csr_equal(got, want, msg=f"panel={panel} c={complement}")

    def test_threads_times_panels_times_bands(self, square_problem):
        """The maximally-composed plan: row parts on the pool."""
        a, b, m = square_problem
        pl = plan(a, b, m, threads=2, backend="process")
        got = execute(pl, a, b, m)
        assert_csr_equal(got, masked_spgemm_reference(a, b, m, algo="msa"))

    def test_machines(self, square_problem):
        """Every profile's plan — whatever it chose — computes the same."""
        a, b, m = square_problem
        want = masked_spgemm_reference(a, b, m, algo="msa")
        for profile in (HOST, HOST_NATIVE):
            assert_csr_equal(execute(Planner(profile).plan(a, b, m), a, b, m), want)

    def test_semirings(self, square_problem):
        a, b, m = square_problem
        got = masked_spgemm(a, b, m, algo="auto", semiring=PLUS_PAIR)
        want = masked_spgemm_reference(a, b, m, algo="msa", semiring=PLUS_PAIR)
        assert_csr_equal(got, want)


# ----------------------------------------------------------------------
# auto plans under a complemented mask
# ----------------------------------------------------------------------
class TestHybridComplement:
    def test_matches_oracle(self, triple):
        a, b, m = triple
        pl = Planner(HOST).plan(a, b, m, complement=True)
        got = execute(pl, a, b, m)
        assert_csr_equal(got, scipy_masked_spgemm(a, b, m, complement=True))

    def test_hybrid_complement_on_pull_regime(self):
        """Inputs whose plain-mask plan picks inner must still be
        complement-correct (routed away from inner)."""
        n = 96
        a = erdos_renyi(n, n, 12, seed=5)
        m = erdos_renyi(n, n, 1, seed=6)
        assert plan(a, a, m).algo == "inner"
        got = masked_spgemm(a, a, m, algo="auto", complement=True)
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
        out = masked_spgemm(a, b, m, algo="auto", counter=c)
        assert c.output_nnz == out.nnz
        assert c.flops > 0

    def test_panelled_counter(self, triple):
        a, b, m = triple
        c = OpCounter()
        out = panelled(a, b, m, 9, algo="hash", counter=c)
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
