"""Prediction ledger + machine-fit suite (``calibrate`` marker).

The modeled→measured loop, closed end to end:

1. Every executed unit leaves a prediction row — row bands on all three
   backends (sessioned or not), work items on a grid plan, bucket
   chunks on the batched tier, push/pull decisions in direction BFS —
   and every row pairs the plan's modeled cycles/bytes with the span's
   measured seconds and counter delta.
2. The counter deltas are bit-identical to the run's ``OpCounter``: the
   band spans partition exactly the work the run charged.
3. ``python -m repro.machine fit`` is deterministic for a fixed history,
   improves the held-out scheme over the default config, and the fitted
   config is bit-for-bit output-equivalent across serial/thread/process
   (a machine config changes *decisions*, never values).
4. The disabled path stays free: the bucketed tier through the traced
   wrapper is within the same 2% envelope ``tests/test_observe.py``
   enforces for the per-row tier.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.apps.direction_bfs import direction_optimized_bfs
from repro.bench.regress import main as regress_main
from repro.core import masked_spgemm
from repro.core.kernels.msa_kernel import masked_spgemm_msa_fast
from repro.engine import ExecutionSession
from repro.graphs import erdos_renyi, relabel_by_degree, rmat
from repro.machine import (
    HASWELL,
    MachineConfig,
    OpCounter,
    evaluate_config,
    fit_machine,
    host_profile,
    load_fitted,
    load_fitted_payload,
    resolve_machine,
    samples_from_history,
    save_fitted,
)
from repro.machine.fit import _NON_WORK_COUNTERS, FITTED_PATH_ENV, MACHINE_ENV
from repro.observe import current, metrics, predictions, report, tracing
from repro.parallel import shutdown_pool
from repro.parallel.pool import process_backend_available
from repro.semiring import PLUS_PAIR, PLUS_TIMES

from .conftest import assert_overhead_per_call

pytestmark = pytest.mark.calibrate

HISTORY_PATH = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_history.json")


def _triple(seed=1, n=60):
    a = erdos_renyi(n, n, 5, seed=seed, values="uniform")
    b = erdos_renyi(n, n, 5, seed=seed + 1, values="uniform")
    m = erdos_renyi(n, n, 8, seed=seed + 2)
    return a, b, m


def _tc_low(scale=8, seed=5):
    return relabel_by_degree(rmat(scale, seed=seed).pattern()).tril(-1)


@pytest.fixture(scope="module")
def committed_history():
    with open(HISTORY_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fitted(committed_history):
    return fit_machine(committed_history, holdout="MCA-1P")


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
    @pytest.mark.parametrize("use_session", [False, True])
    def test_band_rows_cover_every_executed_band(self, backend, use_session):
        _skip_unless_available(backend)
        a, b, m = _triple(seed=3)
        session = ExecutionSession() if use_session else None
        try:
            with tracing() as tr:
                masked_spgemm(a, b, m, algo="auto", backend=backend,
                              semiring=PLUS_TIMES, session=session)
        finally:
            if session is not None:
                session.close()
        band_spans = [sp for sp in tr.spans if sp.name == "engine.band"]
        assert band_spans, "an auto run must execute at least one band"
        rows = [r for r in predictions(tr)["rows"] if r["kind"] == "band"]
        assert len(rows) == len(band_spans)
        for row in rows:
            assert row["measured_seconds"] > 0.0
            assert row["counters"], "band rows must carry a counter delta"
            # the plan's machine name is recoverable from the trace, so
            # modeled cycles convert to seconds without an explicit machine
            assert row["modeled_seconds"] is not None
            assert row["attrs"]["backend"] == backend

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

    def test_bucket_rows_on_batched_tier(self, numpy_tier):
        a, b, m = _triple(seed=7, n=120)
        with tracing() as tr:
            masked_spgemm(a, b, m, algo="msa", batch="bucket",
                          semiring=PLUS_TIMES)
        rows = [r for r in predictions(tr, machine=HASWELL)["rows"]
                if r["kind"] == "batch-bucket"]
        assert rows, "the bucketed tier must emit kernel.bucket rows"
        for row in rows:
            assert row["measured_seconds"] > 0.0
            assert row["attrs"]["bucket"] == int(row["key"].split(":")[1])

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
        want = {
            k: v for k, v in counter.as_dict().items()
            if v and k not in _NON_WORK_COUNTERS
        }
        summed = {k: v for k, v in summed.items()
                  if k not in _NON_WORK_COUNTERS}
        assert summed == want

    def test_metrics_and_report_surface_the_ledger(self):
        low = _tc_low(scale=8, seed=5)
        with tracing() as tr:
            masked_spgemm(low, low, low, algo="auto", backend="serial",
                          semiring=PLUS_PAIR, batch="bucket")
        mx = metrics(tr, machine=HASWELL)
        preds = mx["predictions"]
        assert preds["schema_version"] == 1
        assert any(r["kind"] == "band" for r in preds["rows"])
        assert "band" in preds["summary"]
        summary = preds["summary"]["band"]
        assert summary["rows"] >= 1
        assert summary["measured_seconds"] > 0.0
        assert summary["bias"] in ("optimistic", "pessimistic", "centered")
        # the batch census rides along in the same export
        assert mx["batch"]["rows_by_tier"]
        text = report(tr)
        assert "prediction ledger" in text
        assert "batch census" in text

    def test_empty_trace_has_empty_ledger(self):
        with tracing() as tr:
            pass
        preds = metrics(tr, machine=HASWELL)["predictions"]
        assert preds["rows"] == [] and preds["summary"] == {}


# ----------------------------------------------------------------------
# 2. the fit: deterministic, improving, loadable
# ----------------------------------------------------------------------


class TestFit:
    def test_fit_is_deterministic(self, committed_history, fitted):
        again = fit_machine(committed_history, holdout="MCA-1P")
        assert json.dumps(fitted.payload(), sort_keys=True) == json.dumps(
            again.payload(), sort_keys=True
        )

    def test_fit_improves_heldout_scheme(self, fitted):
        held = fitted.provenance["holdout"]
        assert held is not None and held["scheme"] == "MCA-1P"
        assert (held["fitted"]["median_abs_log10_ratio"]
                < held["default"]["median_abs_log10_ratio"]), (
            "the fitted config must beat the default on the held-out scheme"
        )

    def test_fit_reduces_residual_vs_default(self, committed_history,
                                             fitted):
        samples = samples_from_history(committed_history)
        fit_err = evaluate_config(fitted.machine, samples)
        base_err = evaluate_config(HASWELL, samples)
        assert (fit_err["median_abs_log10_ratio"]
                < base_err["median_abs_log10_ratio"])

    def test_provenance_carries_env_and_counts(self, fitted):
        prov = fitted.provenance
        assert prov["base"] == HASWELL.name
        assert prov["samples"] > 0
        assert prov["params_fitted"]
        assert "python" in prov["env"]

    def test_save_load_roundtrip(self, fitted, tmp_path):
        path = tmp_path / "fitted.json"
        save_fitted(fitted, path)
        assert load_fitted(path) == fitted.machine
        payload = load_fitted_payload(path)
        assert payload["provenance"] == json.loads(
            json.dumps(fitted.provenance)
        )

    def test_resolve_machine_presets_and_fitted(self, fitted, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv(MACHINE_ENV, raising=False)
        assert resolve_machine(None) is host_profile()  # the live default: measured host
        assert resolve_machine(HASWELL) is HASWELL
        assert resolve_machine("haswell") is HASWELL
        monkeypatch.delenv(FITTED_PATH_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            resolve_machine("fitted")
        path = tmp_path / "cal.json"
        save_fitted(fitted, path)
        monkeypatch.setenv(FITTED_PATH_ENV, str(path))
        got = resolve_machine("fitted")
        assert isinstance(got, MachineConfig)
        assert got == fitted.machine
        with pytest.raises(ValueError):
            resolve_machine("no-such-machine")

    def test_machine_env_sets_the_default(self, fitted, tmp_path,
                                          monkeypatch):
        """REPRO_MACHINE=fitted makes every machine-less call target the
        fitted config (the CI hook behind the calibrate job's equivalence
        re-run) — and results stay identical to the default config's."""
        from repro.engine import Planner

        path = tmp_path / "cal.json"
        save_fitted(fitted, path)
        # PLUS_PAIR sums exact integers, so the result is bitwise invariant
        # even when the fitted config picks different algorithms per band
        low = _tc_low(scale=8, seed=13)
        ref = masked_spgemm(low, low, low, algo="auto", semiring=PLUS_PAIR)
        monkeypatch.setenv(FITTED_PATH_ENV, str(path))
        monkeypatch.setenv(MACHINE_ENV, "fitted")
        assert Planner().machine == fitted.machine
        assert resolve_machine(None) == fitted.machine
        got = masked_spgemm(low, low, low, algo="auto", semiring=PLUS_PAIR)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)

    def test_fit_cli_writes_deterministic_payload(self, tmp_path):
        import subprocess
        import sys

        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(HISTORY_PATH), "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        for out in (out1, out2):
            res = subprocess.run(
                [sys.executable, "-m", "repro.machine", "fit",
                 "--history", HISTORY_PATH, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert res.returncode == 0, res.stderr
            assert "held-out" in res.stdout
        assert out1.read_text() == out2.read_text()


# ----------------------------------------------------------------------
# 3. machine="fitted" changes decisions, never values
# ----------------------------------------------------------------------


class TestFittedEquivalence:
    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    @pytest.fixture()
    def fitted_env(self, fitted, tmp_path, monkeypatch):
        path = tmp_path / "fitted.json"
        save_fitted(fitted, path)
        monkeypatch.setenv(FITTED_PATH_ENV, str(path))
        return path

    def test_outputs_bit_for_bit_across_backends(self, fitted_env):
        low = _tc_low(scale=9, seed=7)
        results = {}
        for backend in _BACKENDS:
            if backend == "process" and not process_backend_available():
                continue
            results[backend] = masked_spgemm(
                low, low, low, algo="auto", backend=backend,
                machine="fitted", semiring=PLUS_PAIR,
            )
        ref = masked_spgemm(low, low, low, algo="auto", backend="serial",
                            semiring=PLUS_PAIR)
        for backend, got in results.items():
            assert np.array_equal(got.indptr, ref.indptr), backend
            assert np.array_equal(got.indices, ref.indices), backend
            assert np.array_equal(got.data, ref.data), backend

    def test_fitted_session_equivalence(self, fitted_env):
        # PLUS_PAIR: exact integer sums, bitwise invariant to plan changes
        low = _tc_low(scale=8, seed=21)
        with ExecutionSession(machine="fitted") as sess:
            got = masked_spgemm(low, low, low, algo="auto",
                                semiring=PLUS_PAIR, session=sess)
            assert sess.machine.name == "fitted"
        ref = masked_spgemm(low, low, low, algo="auto", semiring=PLUS_PAIR)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)

    def test_direction_bfs_fitted_same_levels(self, fitted_env):
        g = rmat(8, seed=9).pattern()
        ref = direction_optimized_bfs(g, 0)
        got = direction_optimized_bfs(g, 0, machine="fitted")
        assert np.array_equal(got.levels, ref.levels)
        assert got.depth == ref.depth


# ----------------------------------------------------------------------
# 4. regress verdict provenance + disabled-path overhead
# ----------------------------------------------------------------------


class TestIntegration:
    def test_regress_verdict_carries_fitted_provenance(
            self, fitted, tmp_path, monkeypatch):
        out = tmp_path / "verdict.json"
        monkeypatch.delenv(FITTED_PATH_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        rc = regress_main(["--baseline", HISTORY_PATH,
                           "--head", HISTORY_PATH,
                           "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert "fitted_machine" in doc and doc["fitted_machine"] is None

        cal = tmp_path / "cal.json"
        save_fitted(fitted, cal)
        monkeypatch.setenv(FITTED_PATH_ENV, str(cal))
        rc = regress_main(["--baseline", HISTORY_PATH,
                           "--head", HISTORY_PATH,
                           "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["fitted_machine"]["samples"] == fitted.provenance["samples"]

    def test_history_records_carry_prediction_summary(self):
        from repro.bench.history import collect_record
        from repro.bench.runner import scheme_by_name

        n = 96
        a = erdos_renyi(n, n, 4, seed=1, values="uniform")
        m = erdos_renyi(n, n, 6, seed=2)
        rec = collect_record(
            scheme_by_name("MSA-1P"), "tiny", [(a, a, m, False)], repeats=1
        )
        assert "predictions" in rec
        # explicit-algo scheme runs land kernel spans, not engine bands;
        # the summary may be empty but the key must exist and be a dict
        assert isinstance(rec["predictions"], dict)

    def test_bucket_tier_disabled_overhead_under_two_percent(self):
        """The instrumented ``bucket_batches`` untraced path: one global
        read per call, one branch per chunk — inside the same absolute
        30 us-per-call budget as the tracer's disabled path
        (tests/test_observe.py)."""
        a, b, m = _triple()
        bare = masked_spgemm_msa_fast.__wrapped__
        assert current() is None
        assert_overhead_per_call(
            lambda: bare(a, b, m, semiring=PLUS_TIMES, batch="bucket"),
            lambda: masked_spgemm_msa_fast(a, b, m, semiring=PLUS_TIMES,
                                           batch="bucket"),
            budget_us=30,
        )
