"""Prediction-ledger suite (``calibrate`` marker).

The modeled→measured loop, per executed unit:

1. Every executed unit leaves a prediction row — row bands on all three
   backends, work items on a grid plan, push/pull
   decisions in direction BFS —
   and every row pairs the plan's modeled cycles/bytes with the span's
   measured seconds and counter delta.
2. The counter deltas are bit-identical to the run's ``OpCounter``: the
   band spans partition exactly the work the run charged.
3. ``machine=`` is this host or a paper machine, and a paper machine that
   is no preset — a ``MachineConfig`` passed as an object — is bit-for-bit
   output-equivalent across serial/thread/process (a machine changes
   *decisions*, never values).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.apps.direction_bfs import direction_optimized_bfs
from repro.core import masked_spgemm
from repro.engine import Planner
from repro.graphs import erdos_renyi, relabel_by_degree, rmat
from repro.machine import (
    HASWELL,
    HOST,
    KNL,
    MACHINES,
    OpCounter,
    host_profile,
    resolve_machine,
)
from repro.observe import metrics, predictions, report, tracing
from repro.parallel import shutdown_pool
from repro.parallel.pool import process_backend_available
from repro.semiring import PLUS_PAIR, PLUS_TIMES

from .lattice import ODD

pytestmark = pytest.mark.calibrate

def _triple(seed=1, n=60):
    a = erdos_renyi(n, n, 5, seed=seed, values="uniform")
    b = erdos_renyi(n, n, 5, seed=seed + 1, values="uniform")
    m = erdos_renyi(n, n, 8, seed=seed + 2)
    return a, b, m


def _tc_low(scale=8, seed=5):
    return relabel_by_degree(rmat(scale, seed=seed).pattern()).tril(-1)


_BACKENDS = ["serial", "thread", "process"]


def _skip_unless_available(backend):
    if backend == "process" and not process_backend_available():
        pytest.skip("no shared-memory support")


# ----------------------------------------------------------------------
# 1. prediction rows exist for every executed unit, on every path
# ----------------------------------------------------------------------


class TestLedgerRows:
    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    @pytest.mark.parametrize("backend", _BACKENDS)
    @pytest.mark.parametrize("repeat", [False, True])
    def test_band_rows_cover_every_executed_band(self, backend, repeat):
        """``repeat`` traces the second of two equal calls: nothing the
        first leaves behind may change the rows."""
        _skip_unless_available(backend)
        a, b, m = _triple(seed=3)
        if repeat:
            masked_spgemm(a, b, m, algo="auto", backend=backend, semiring=PLUS_TIMES)
        with tracing() as tr:
            masked_spgemm(a, b, m, algo="auto", backend=backend, semiring=PLUS_TIMES)
        band_spans = [sp for sp in tr.spans if sp.name == "engine.band"]
        assert band_spans, "an auto run must execute at least one band"
        (run,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
        planned = run.attrs["plan"]
        if backend != "process":
            # in-process: "thread" exactly when the kernel runs on several
            assert (planned["backend"] == "thread") == (planned["threads"] > 1)
        rows = [r for r in predictions(tr)["rows"] if r["kind"] == "band"]
        assert len(rows) == len(band_spans)
        for row in rows:
            assert row["measured_seconds"] > 0.0
            assert row["counters"], "band rows must carry a counter delta"
            # the plan's machine name is recoverable from the trace, so
            # modeled cycles convert to seconds without an explicit machine
            assert row["modeled_seconds"] is not None
            assert row["attrs"]["backend"] == planned["backend"]

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_shard_cell_rows_with_apportioned_estimates(self, backend):
        _skip_unless_available(backend)
        low = _tc_low(scale=9, seed=1)
        with tracing() as tr:
            masked_spgemm(low, low, low, algo="msa", shards=(2, 2),
                          backend=backend, semiring=PLUS_PAIR)
        rows = [r for r in predictions(tr)["rows"]
                if r["kind"] == "cell"]
        cell_spans = [sp for sp in tr.spans if sp.name == "engine.cell"]
        assert rows and len(rows) == len(cell_spans)
        assert all(r["measured_seconds"] > 0.0 for r in rows)
        # forced-algo plans carry no cost sweep, so estimates may be
        # zero — but the keys must name distinct work items
        keys = {r["key"] for r in rows}
        assert len(keys) == len(rows)

    def test_sharded_auto_apportions_plan_totals(self):
        low = _tc_low(scale=9, seed=1)
        with tracing() as tr:
            masked_spgemm(low, low, low, algo="auto", shards=(2, 2),
                          backend="serial", semiring=PLUS_PAIR)
        rows = [r for r in predictions(tr)["rows"] if r["kind"] == "cell"]
        bands = [r for r in predictions(tr)["rows"] if r["kind"] == "band"]
        assert rows
        # the items' shares sum back to their bands' modeled totals
        assert sum(r["modeled_cycles"] for r in rows) == pytest.approx(
            sum(r["modeled_cycles"] for r in bands)
        )
        assert sum(r["modeled_cycles"] for r in rows) > 0.0

    def test_direction_rows_record_decision(self):
        g = rmat(8, seed=3).pattern()
        with tracing() as tr:
            direction_optimized_bfs(g, 0, machine="haswell")
        rows = [r for r in predictions(tr, machine=HASWELL)["rows"]
                if r["kind"] == "spmv-direction"]
        assert rows
        for row in rows:
            assert row["attrs"]["decision_source"] == "cost_model"
            assert row["attrs"]["direction"] in ("push", "pull")
            assert 0.0 < row["attrs"]["frontier_density"] <= 1.0
            assert row["modeled_cycles"] > 0.0

    def test_counter_deltas_bit_identical_to_opcounter(self):
        a, b, m = _triple(seed=11)
        counter = OpCounter()
        with tracing() as tr:
            masked_spgemm(a, b, m, algo="auto", backend="serial",
                          semiring=PLUS_TIMES, counter=counter)
        rows = [r for r in predictions(tr)["rows"] if r["kind"] == "band"]
        summed: dict = {}
        for row in rows:
            for k, v in (row["counters"] or {}).items():
                summed[k] = summed.get(k, 0) + v
        assert summed == {k: v for k, v in counter.as_dict().items() if v}

    def test_metrics_and_report_surface_the_ledger(self):
        low = _tc_low(scale=8, seed=5)
        with tracing() as tr:
            masked_spgemm(low, low, low, algo="auto", backend="serial",
                          semiring=PLUS_PAIR)
        mx = metrics(tr, machine=HASWELL)
        preds = mx["predictions"]
        assert preds["schema_version"] == 1
        assert any(r["kind"] == "band" for r in preds["rows"])
        assert "band" in preds["summary"]
        summary = preds["summary"]["band"]
        assert summary["rows"] >= 1
        assert summary["measured_seconds"] > 0.0
        assert summary["bias"] in ("optimistic", "pessimistic", "centered")
        assert "prediction ledger" in report(tr)

    def test_empty_trace_has_empty_ledger(self):
        with tracing() as tr:
            pass
        preds = metrics(tr, machine=HASWELL)["predictions"]
        assert preds["rows"] == [] and preds["summary"] == {}


# ----------------------------------------------------------------------
# 2. machine= is this host or a paper machine
# ----------------------------------------------------------------------


class TestFit:
    def test_resolve_machine_presets_and_fitted(self):
        assert resolve_machine(None) is host_profile()  # the live default: measured host
        for obj in (HASWELL, ODD, HOST):
            assert resolve_machine(obj) is obj
        assert resolve_machine("haswell") is HASWELL
        assert resolve_machine("KNL") is KNL
        for unknown in ("fitted", "no-such-machine"):
            with pytest.raises(ValueError) as err:
                resolve_machine(unknown)
            assert str(err.value) == (
                f"unknown machine {unknown!r}; expected None (this host), a "
                f"HostProfile, a MachineConfig or one of {sorted(MACHINES)}")
            with pytest.raises(ValueError, match="unknown machine"):
                Planner(unknown)
        # nothing in the environment names a machine
        code = ("from repro.engine import plan\n"
                "from repro.graphs import erdos_renyi\n"
                "m = erdos_renyi(32, 32, 3, seed=1)\n"
                "print(plan(m, m, m).machine)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   REPRO_MACHINE="knl", REPRO_MACHINE_FILE="nowhere.json")
        res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert res.stdout.split() == ["host"]


# ----------------------------------------------------------------------
# 3. a paper machine that is no preset changes decisions, never values
# ----------------------------------------------------------------------


class TestFittedEquivalence:
    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    def test_outputs_bit_for_bit_across_backends(self):
        low = _tc_low(scale=9, seed=7)
        ref = masked_spgemm(low, low, low, algo="auto", backend="serial",
                            semiring=PLUS_PAIR)
        with tracing() as tr:
            for backend in _BACKENDS:
                if backend == "process" and not process_backend_available():
                    continue
                got = masked_spgemm(low, low, low, algo="auto", backend=backend,
                                    machine=ODD, semiring=PLUS_PAIR)
                assert np.array_equal(got.indptr, ref.indptr), backend
                assert np.array_equal(got.indices, ref.indices), backend
                assert np.array_equal(got.data, ref.data), backend
        plans = [sp.attrs["plan"] for sp in tr.spans if sp.name == "engine.execute"]
        assert plans and {pl["machine"] for pl in plans} == {"odd"}
        # decisions: the modeled machine bands the rows the host gives to one kernel
        host = Planner().plan(low, low, low)
        assert any(len(pl["bands"]) != len(host.bands) or pl["threads"] != host.threads
                   for pl in plans)

    def test_direction_bfs_fitted_same_levels(self):
        g = rmat(8, seed=9).pattern()
        ref = direction_optimized_bfs(g, 0)
        got = direction_optimized_bfs(g, 0, machine=ODD)
        assert np.array_equal(got.levels, ref.levels)
        assert got.depth == ref.depth
