"""Tests for local machine calibration."""

import pytest

from repro.machine import (
    RowCostModel,
    calibrate_machine,
    measure_touch_costs,
)
from repro.graphs import erdos_renyi


class TestMeasureTouchCosts:
    def test_returns_positive_costs(self):
        costs = measure_touch_costs((1 << 14, 1 << 20), touches=1 << 15)
        assert set(costs) == {1 << 14, 1 << 20}
        for v in costs.values():
            assert v > 0

    def test_larger_working_set_not_cheaper(self):
        """Random touches into a much larger array cannot be systematically
        cheaper (cache physics; allow 20% noise)."""
        costs = measure_touch_costs((1 << 14, 1 << 25), touches=1 << 17)
        assert costs[1 << 25] > 0.8 * costs[1 << 14]


class TestCalibrateMachine:
    @pytest.fixture(scope="class")
    def machine(self):
        return calibrate_machine(quick=True)

    def test_sane_config(self, machine):
        assert machine.cores >= 1
        assert machine.private_cache_bytes > 0
        assert machine.hit_cycles > 0
        assert machine.dram_cycles >= machine.hit_cycles
        if machine.llc_bytes:
            assert machine.llc_bytes > machine.private_cache_bytes
            assert machine.hit_cycles <= machine.llc_cycles <= machine.dram_cycles * 1.5

    def test_usable_by_cost_model(self, machine):
        a = erdos_renyi(256, 256, 6, seed=1)
        m = erdos_renyi(256, 256, 6, seed=2)
        model = RowCostModel(a, a, m, machine)
        for algo in ("msa", "hash", "inner"):
            assert model.estimate(algo).total_cycles > 0

    def test_model_regime_structure_survives_calibration(self, machine):
        """The three Figure-7 regimes must appear under calibrated
        constants too, not only under the Haswell preset."""
        n = 2048
        # mask much sparser than inputs -> inner
        a = erdos_renyi(n, n, 32, seed=3)
        m = erdos_renyi(n, n, 1, seed=4)
        model = RowCostModel(a, a, m, machine)
        t = {algo: model.estimate(algo).total_cycles
             for algo in ("inner", "msa", "hash", "heap")}
        assert min(t, key=t.get) == "inner"
        # inputs much sparser than mask -> heap family or accumulator,
        # never inner
        a2 = erdos_renyi(n, n, 1, seed=5)
        m2 = erdos_renyi(n, n, 48, seed=6)
        model2 = RowCostModel(a2, a2, m2, machine)
        t2 = {algo: model2.estimate(algo).total_cycles
              for algo in ("inner", "msa", "hash", "heap", "heapdot")}
        assert min(t2, key=t2.get) != "inner"


@pytest.mark.backend
class TestProcessCrossoverCalibration:
    """The host fitter (kernel, CSC and split costs; it prices no pool and
    spawns none)."""

    def test_calibrate_returns_new_config(self):
        from repro.machine import HOST, HostProfile, fit_host_profile, host_profile
        from repro.parallel import pool_size, shutdown_pool

        shutdown_pool()
        # the fitter measures the kernel tier that is live in this process
        base = host_profile()
        fitted, report = fit_host_profile(quick=True, repeats=1)
        assert fitted is not base and isinstance(fitted, HostProfile)
        assert fitted.candidates == base.candidates
        for algo in base.candidates:
            per_work, per_mask, per_row = getattr(fitted, f"{algo}_ns")
            assert per_work >= 0 and per_mask >= 0 and per_row >= 0
            assert per_work + per_mask + per_row > 0
            assert report["median_relative_error"][algo] >= 0
        assert fitted.csc_nnz_ns > 0
        # what the fitter does not measure carries over
        assert fitted.name == HOST.name
        assert "backend_overhead" not in report and pool_size() == 0
        # the checked-in profile is frozen and unchanged
        assert HOST == HostProfile()
