"""Prediction-ledger suite (``calibrate`` marker).

The modeled→measured loop, per executed unit:

1. Every executed unit leaves a prediction row — row bands on all three
   backends, the row parts of a process plan —
   and every row pairs the plan's modeled nanoseconds with the span's
   measured seconds and counter delta.
2. The counter deltas are bit-identical to the run's ``OpCounter``: the
   band spans partition exactly the work the run charged.
3. A plan is priced from a host profile only — no preset name, object or
   environment variable names a machine — and a profile that is no
   checked-in one is bit-for-bit output-equivalent across
   serial/thread/process (a profile changes *decisions*, never values).
   The ledger and the exporters take no ``machine=``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.engine import Planner, execute
from repro.graphs import erdos_renyi, relabel_by_degree, rmat
from repro.machine import HASWELL, HOST, OpCounter
from repro.observe import (
    Tracer,
    metrics,
    prediction_rows,
    predictions,
    report,
    tracing,
    write_metrics,
)
from repro.parallel import shutdown_pool
from repro.parallel.pool import process_backend_available
from repro.semiring import PLUS_PAIR, PLUS_TIMES

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
            # a trace through the engine is priced by the host profile, so
            # predicted cycles convert to seconds without an explicit machine
            assert row["modeled_seconds"] is not None
            assert row["attrs"]["backend"] == planned["backend"]

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_shard_cell_rows_with_apportioned_estimates(self, backend):
        """A process plan's row parts each leave a cell row, keyed
        ``cell:<band>,<part>``; an in-process plan is its band alone."""
        _skip_unless_available(backend)
        low = _tc_low(scale=9, seed=1)
        with tracing() as tr:
            execute(Planner().plan(low, low, low, algo="msa", threads=2, backend=backend),
                    low, low, low, semiring=PLUS_PAIR)
        rows = [r for r in predictions(tr)["rows"]
                if r["kind"] == "cell"]
        cell_spans = [sp for sp in tr.spans if sp.name == "engine.cell"]
        assert len(rows) == len(cell_spans) == (2 if backend == "process" else 0)
        assert all(r["measured_seconds"] > 0.0 for r in rows)
        # forced-algo plans carry no cost sweep, so estimates may be
        # zero — but the keys must name distinct work items
        assert sorted(r["key"] for r in rows) == (
            ["cell:0,0", "cell:0,1"] if backend == "process" else [])

    def test_sharded_auto_apportions_plan_totals(self):
        _skip_unless_available("process")
        low = _tc_low(scale=9, seed=1)
        with tracing() as tr:
            execute(Planner().plan(low, low, low, threads=2, backend="process"),
                    low, low, low, semiring=PLUS_PAIR)
        rows = [r for r in predictions(tr)["rows"] if r["kind"] == "cell"]
        bands = [r for r in predictions(tr)["rows"] if r["kind"] == "band"]
        assert rows
        # the items' shares sum back to their bands' modeled totals
        assert sum(r["modeled_cycles"] for r in rows) == pytest.approx(
            sum(r["modeled_cycles"] for r in bands)
        )
        assert sum(r["modeled_cycles"] for r in rows) > 0.0

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
        mx = metrics(tr)
        preds = mx["predictions"]
        assert preds["schema_version"] == 4
        assert all(set(row) == {"kind", "key", "algo", "modeled_cycles",
                                "modeled_seconds", "measured_seconds",
                                "counters", "pid", "attrs"} for row in preds["rows"])
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
        preds = metrics(tr)["predictions"]
        assert preds["rows"] == [] and preds["summary"] == {}

    def test_never_enabled_tracer_has_empty_ledger(self):
        """``None`` — tracing was never switched on — reads as an empty
        trace here too, as it does for ``metrics`` / ``report``."""
        assert prediction_rows(None) == []
        preds = predictions(None)
        assert preds["rows"] == [] and preds["summary"] == {}


# ----------------------------------------------------------------------
# 2. no machine= anywhere on the live path
# ----------------------------------------------------------------------


class TestFit:
    def test_resolve_machine_presets_and_fitted(self):
        """A plan is priced from a host profile: a preset, an unknown name
        or an environment variable never names the machine."""
        for unknown in ("haswell", HASWELL, "fitted", "no-such-machine"):
            with pytest.raises(ValueError, match="priced from a HostProfile"):
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

    def test_live_output_takes_no_machine(self, tmp_path):
        for call in (
            lambda: metrics(None, machine=HASWELL),
            lambda: write_metrics(tmp_path / "m.json", None, machine=HASWELL),
            lambda: Tracer().to_metrics(machine=HASWELL),
            lambda: predictions(None, machine=HASWELL),
            lambda: prediction_rows(None, machine=HASWELL),
        ):
            with pytest.raises(TypeError, match="machine"):
                call()


# ----------------------------------------------------------------------
# 3. a profile that is no checked-in one changes decisions, never values
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
        # msa, the host's pick on this triangle count, priced out
        odd = dataclasses.replace(HOST, name="odd", msa_ns=(1e6,) * 3)
        with tracing() as tr:
            for backend in _BACKENDS:
                if backend == "process" and not process_backend_available():
                    continue
                pl = Planner(odd).plan(low, low, low, backend=backend)
                got = execute(pl, low, low, low, semiring=PLUS_PAIR)
                assert np.array_equal(got.indptr, ref.indptr), backend
                assert np.array_equal(got.indices, ref.indices), backend
                assert np.array_equal(got.data, ref.data), backend
        plans = [sp.attrs["plan"] for sp in tr.spans if sp.name == "engine.execute"]
        assert plans and {pl["machine"] for pl in plans} == {"odd"}
        # decisions: the odd profile gives the rows to another kernel
        host = Planner(HOST).plan(low, low, low)
        assert host.algo == "msa"
        assert all(pl["bands"][0]["algo"] != "msa" for pl in plans)
