"""Tests for continuous runtime telemetry (:mod:`repro.observe.runtime`).

The module docstring's design contract, as test classes:

1. :class:`RingSeries` is a bounded window with exact lifetime peaks —
   the window scrolls, ``vmax``/``mean`` do not forget.
2. The sampler installs/uninstalls like the tracer and every tick covers
   every series; sampling off costs one attribute check (<2% on an
   engine-execute loop with a sampler *installed but not started*, which
   is strictly harder than sampler-absent).
3. Worker heartbeats ride task results on the process backend: every pool
   pid reports, unsampled runs ship nothing, silent workers go stale.
4. :func:`drift` bands sampled summaries (and ledger log10 ratios) with
   the regression gate's MAD-sigma formula, and the regress/history
   integration carries the verdict end to end.
5. Acceptance: a sharded process-backend R-MAT TC run under the sampler
   is bit-for-bit identical to the sampler-off run, exports ring-buffer
   series through ``metrics()``, heartbeats from every pool pid, and a
   drift verdict against a seeded history baseline.
6. Leak hygiene: a subprocess that exits *without* calling
   ``shutdown_pool()`` still leaves no pool process and no shm segment
   behind (the import-time ``atexit`` hooks are the cleanup of last
   resort).

Process-backend tests carry the ``backend`` marker (CI's backend-smoke
job); the whole module carries ``runtime``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.bench import regress as bench_regress
from repro.bench.history import (
    SCHEMA_VERSION as HISTORY_SCHEMA_VERSION,
    runtime_summaries,
)
from repro.core import masked_spgemm
from repro.engine import ExecutionSession, Planner
from repro.engine.executor import execute
from repro.graphs import erdos_renyi, relabel_by_degree, rmat
from repro.machine import HASWELL
from repro.observe import metrics
from repro.observe import runtime as rt_mod
from repro.observe.runtime import (
    DEFAULT_STALE_AFTER_S,
    DRIFT_METRICS,
    SERIES_NAMES,
    RingSeries,
    RuntimeSampler,
    drift,
    drift_against_history,
    format_top,
    sampling,
    set_sampler,
    worker_heartbeat,
)
from repro.parallel import shutdown_pool
from repro.parallel.pool import (
    _worker_heartbeat,
    pool_pids,
    pool_stats,
    process_backend_available,
)
from repro.semiring import PLUS_PAIR, PLUS_TIMES

from .conftest import assert_overhead_per_call

pytestmark = pytest.mark.runtime


def _triple(seed=1):
    a = erdos_renyi(60, 60, 5, seed=seed, values="uniform")
    b = erdos_renyi(60, 60, 5, seed=seed + 1, values="uniform")
    m = erdos_renyi(60, 60, 8, seed=seed + 2)
    return a, b, m


# ----------------------------------------------------------------------
# 1. ring-buffer series
# ----------------------------------------------------------------------


class TestRingSeries:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingSeries(0)

    def test_below_capacity_keeps_order(self):
        s = RingSeries(8)
        for i in range(5):
            s.append(float(i), float(i * 10))
        assert len(s) == 5
        assert s.times() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert s.values() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert s.last == 40.0

    def test_wraparound_scrolls_window_oldest_first(self):
        s = RingSeries(4)
        for i in range(10):
            s.append(float(i), float(i))
        assert len(s) == 4
        assert s.values() == [6.0, 7.0, 8.0, 9.0]
        assert s.times() == [6.0, 7.0, 8.0, 9.0]
        assert s.last == 9.0

    def test_lifetime_stats_survive_scroll(self):
        """The peak scrolled out of the window at capacity 4; the exact
        lifetime max/mean/count must still report it."""
        s = RingSeries(4)
        values = [1.0, 99.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        for i, v in enumerate(values):
            s.append(float(i), v)
        assert 99.0 not in s.values()
        assert s.vmax == 99.0
        assert s.count == len(values)
        assert s.mean == pytest.approx(sum(values) / len(values))

    def test_export_payload(self):
        s = RingSeries(4)
        s.append(0.0, 5.0)
        out = s.export()
        assert out == {"t": [0.0], "v": [5.0], "max": 5.0, "mean": 5.0,
                       "count": 1}

    def test_empty_series(self):
        s = RingSeries(4)
        assert len(s) == 0 and s.last == 0.0 and s.mean == 0.0
        assert s.export()["t"] == []


# ----------------------------------------------------------------------
# 2. sampler lifecycle, install contract, disabled-path overhead
# ----------------------------------------------------------------------


class TestSamplerLifecycle:
    def test_no_sampler_installed_by_default(self):
        assert rt_mod.current() is None

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            RuntimeSampler(interval_s=0.0)

    def test_sampling_installs_starts_and_restores(self):
        assert rt_mod.current() is None
        with sampling(interval_s=0.01) as rt:
            assert rt_mod.current() is rt
            assert rt.samples >= 1  # start() samples eagerly
            time.sleep(0.05)
        assert rt_mod.current() is None
        assert rt._thread is None, "stop() must join the thread"
        assert rt.samples >= 2  # eager + loop and/or final stop() sample

    def test_sampling_restores_previous_on_error(self):
        outer = RuntimeSampler(interval_s=5.0)
        prev = set_sampler(outer)
        try:
            with pytest.raises(RuntimeError):
                with sampling(interval_s=5.0):
                    raise RuntimeError("boom")
            assert rt_mod.current() is outer
        finally:
            set_sampler(prev)

    def test_tick_covers_every_series(self):
        rt = RuntimeSampler(interval_s=1.0)
        tick = rt.sample_once()
        assert set(tick) == set(SERIES_NAMES)
        assert tick["rss_bytes"] > 0
        assert all(len(rt.series[name]) == 1 for name in SERIES_NAMES)

    def test_snapshot_and_export_shapes(self):
        rt = RuntimeSampler(interval_s=1.0)
        rt.sample_once()
        snap = rt.snapshot()
        assert snap["schema_version"] == rt_mod.RUNTIME_SCHEMA_VERSION
        assert snap["samples"] == 1
        for name in SERIES_NAMES:
            assert name in snap
        assert snap["workers"] == [] and snap["stale_pids"] == []

        out = rt.export()
        assert set(out["series"]) == set(SERIES_NAMES)
        assert out["series"]["rss_bytes"]["count"] == 1
        assert out["summary"]["samples"] == 1
        assert out["workers"] == {}

    def test_summary_scalars(self):
        rt = RuntimeSampler(interval_s=1.0)
        rt.sample_once()
        rt.note_call()
        summary = rt.summary()
        for key in ("samples", "interval_s", "peak_rss_bytes",
                    "peak_shm_bytes", "peak_segcache_bytes",
                    "peak_worker_rss_bytes", "peak_tasks_inflight",
                    "mean_cpu_percent", "mean_spans_per_s",
                    "mean_calls_per_s", "calls_completed", "workers_seen",
                    "heartbeats"):
            assert key in summary
        assert summary["peak_rss_bytes"] > 0
        assert summary["calls_completed"] == 1
        assert summary["workers_seen"] == 0

    def test_format_top_renders_without_workers(self):
        rt = RuntimeSampler(interval_s=1.0)
        rt.sample_once()
        text = format_top(rt)
        assert "repro runtime top" in text
        assert "no worker heartbeats yet" in text

    def test_disabled_path_overhead_under_two_percent(self):
        """The sampler-off contract, measured the hard way.

        Times an engine-execute loop with no sampler against the same loop
        with a sampler *installed but never started* — every per-call hook
        (the executor's ``_CALL_NOTE``, the pool's heartbeat flag) takes
        its enabled branch, but no background thread adds noise.  That is
        strictly more instrumentation than the true disabled path, so passing
        here implies the disabled bound.  An absolute budget like the tracer
        gate's: 40 us per engine call, whatever the kernels under it cost.
        """
        a, b, m = _triple()
        pl = Planner(HASWELL).plan(a, b, m)

        def run():
            execute(pl, a, b, m, semiring=PLUS_TIMES)

        def run_idle():
            prev = set_sampler(rt)
            try:
                run()
            finally:
                set_sampler(prev)

        assert rt_mod.current() is None
        rt = RuntimeSampler(interval_s=60.0)  # never started: no thread
        # install/uninstall rides inside the instrumented side's budget
        assert_overhead_per_call(run, run_idle, budget_us=40)
        assert rt_mod.current() is None
        assert rt.samples == 0, "an un-started sampler must never sample"
        assert rt.calls_completed > 0, "the note_call hook must have fired"


# ----------------------------------------------------------------------
# 3. worker heartbeats and staleness
# ----------------------------------------------------------------------


class TestHeartbeatIngest:
    def test_worker_heartbeat_payload(self):
        hb = worker_heartbeat(tasks_completed=3, cached_forms=2)
        assert hb["pid"] == os.getpid()
        assert hb["rss_bytes"] > 0
        assert hb["cpu_seconds"] >= 0.0
        assert hb["tasks_completed"] == 3 and hb["cached_forms"] == 2

    def test_pool_helper_skips_heartbeat_when_flag_off(self):
        class _Task:
            heartbeat = False

        assert _worker_heartbeat(_Task()) is None

        class _Flagged:
            heartbeat = True

        hb = _worker_heartbeat(_Flagged())
        assert hb is not None and hb["pid"] == os.getpid()

    def test_ingest_skips_none_and_builds_fleet(self):
        rt = RuntimeSampler(interval_s=1.0)
        rt.ingest_heartbeats([
            None,
            {"pid": 111, "rss_bytes": 1000, "cpu_seconds": 0.5,
             "tasks_completed": 2, "cached_forms": 1, "t": 0.0},
            {"pid": 111, "rss_bytes": 2000, "cpu_seconds": 0.9,
             "tasks_completed": 4, "cached_forms": 1, "t": 0.0},
            {"pid": 222, "rss_bytes": 500, "cpu_seconds": 0.1,
             "tasks_completed": 1, "cached_forms": 0, "t": 0.0},
        ])
        assert rt.worker_pids() == [111, 222]
        assert rt.heartbeats_ingested == 3
        fleet = {w["pid"]: w for w in rt.fleet()}
        assert fleet[111]["rss_bytes"] == 2000.0  # latest wins
        assert fleet[111]["peak_rss_bytes"] == 2000.0
        assert fleet[111]["tasks_completed"] == 4
        assert fleet[111]["heartbeats"] == 2
        assert rt.summary()["workers_seen"] == 2
        assert rt.summary()["peak_worker_rss_bytes"] == 2000.0

    def test_staleness_detector(self):
        rt = RuntimeSampler(interval_s=1.0, stale_after_s=1.0)
        rt.ingest_heartbeats([
            {"pid": 333, "rss_bytes": 1, "cpu_seconds": 0.0,
             "tasks_completed": 1, "cached_forms": 0, "t": 0.0},
        ])
        now = time.perf_counter()
        assert rt.stale_workers(now) == []
        assert rt.stale_workers(now + 2.0) == [333]
        assert 333 in set(rt.snapshot()["stale_pids"]) or \
            rt.stale_workers(now) == []  # snapshot uses real clock: not stale yet
        text = format_top(rt)
        assert "pid" in text and "333" in text

    def test_default_staleness_window(self):
        assert RuntimeSampler().stale_after_s == DEFAULT_STALE_AFTER_S


# ----------------------------------------------------------------------
# 4. drift detection: banding, ledger ratios, regress/history integration
# ----------------------------------------------------------------------


def _summary(**over) -> dict:
    base = {
        "samples": 50, "interval_s": 0.02,
        "peak_rss_bytes": 100e6, "peak_shm_bytes": 10e6,
        "peak_segcache_bytes": 1e6, "peak_worker_rss_bytes": 50e6,
        "peak_tasks_inflight": 4.0, "mean_cpu_percent": 80.0,
        "mean_spans_per_s": 1000.0, "mean_calls_per_s": 10.0,
        "calls_completed": 100, "workers_seen": 2, "heartbeats": 40,
    }
    base.update(over)
    return base


class TestDrift:
    def test_identical_head_is_ok(self):
        verdict = drift(_summary(), [_summary()] * 3)
        assert verdict["verdict"] == "ok"
        assert verdict["flagged"] == []
        for name in DRIFT_METRICS:
            assert verdict["metrics"][name]["status"] == "ok"

    def test_no_baseline(self):
        verdict = drift(_summary(), [])
        assert verdict["verdict"] == "no-baseline"
        assert all(v["status"] == "no-baseline"
                   for v in verdict["metrics"].values())

    def test_memory_spike_flags_high(self):
        """Identical baselines: MAD=0, so the band is the min_rel floor
        (0.25 * median); a 2x RSS jump clears it deterministically."""
        verdict = drift(_summary(peak_rss_bytes=200e6), [_summary()] * 3)
        assert verdict["verdict"] == "drift"
        assert verdict["flagged"] == ["peak_rss_bytes"]
        row = verdict["metrics"]["peak_rss_bytes"]
        assert row["status"] == "high" and row["bad_direction"] == "high"
        assert row["band"] == pytest.approx(0.25 * 100e6)

    def test_single_baseline_sample_uses_rel_floor(self):
        verdict = drift(_summary(peak_shm_bytes=100e6),
                        [_summary()])  # n=1: MAD is 0 by construction
        assert verdict["metrics"]["peak_shm_bytes"]["base_mad"] == 0.0
        assert "peak_shm_bytes" in verdict["flagged"]

    def test_memory_drop_is_not_flagged(self):
        verdict = drift(_summary(peak_rss_bytes=10e6), [_summary()] * 3)
        assert verdict["metrics"]["peak_rss_bytes"]["status"] == "low"
        assert verdict["verdict"] == "ok"  # lower memory is not an anomaly

    def test_throughput_flags_low_only(self):
        low = drift(_summary(mean_spans_per_s=100.0), [_summary()] * 3)
        assert low["flagged"] == ["mean_spans_per_s"]
        assert low["metrics"]["mean_spans_per_s"]["bad_direction"] == "low"
        high = drift(_summary(mean_spans_per_s=5000.0), [_summary()] * 3)
        assert high["verdict"] == "ok"  # faster is fine

    def test_band_parameters_pass_through(self):
        # min_rel=2.0 floors the band at 2x the median: nothing can flag
        verdict = drift(_summary(peak_rss_bytes=250e6), [_summary()] * 3,
                        k_mad=1.0, min_rel=2.0, max_rel=3.0)
        assert verdict["verdict"] == "ok"
        assert verdict["min_rel"] == 2.0 and verdict["max_rel"] == 3.0

    def test_defaults_come_from_regress(self):
        verdict = drift(_summary(), [_summary()])
        assert verdict["k_mad"] == bench_regress.DEFAULT_K_MAD
        assert verdict["min_rel"] == bench_regress.DEFAULT_MIN_REL
        assert verdict["max_rel"] == bench_regress.DEFAULT_MAX_REL

    def test_ledger_ratio_flags_either_direction(self):
        """All-identical baseline ratios: log10 median and MAD are both 0,
        so the band is 0 and *any* model-error movement flags — in either
        direction (optimistic and pessimistic drifts are equally news)."""
        base_ledger = {"band": {"ratio_median": 1.0}}
        for head_ratio in (10.0, 0.1):
            verdict = drift(
                _summary(), [_summary()] * 3,
                head_ledger={"band": {"ratio_median": head_ratio}},
                baseline_ledgers=[base_ledger] * 3,
            )
            assert "ledger:band:log10_ratio" in verdict["flagged"]
            row = verdict["metrics"]["ledger:band:log10_ratio"]
            assert row["bad_direction"] == "any"
        same = drift(
            _summary(), [_summary()] * 3,
            head_ledger={"band": {"ratio_median": 1.0}},
            baseline_ledgers=[base_ledger] * 3,
        )
        assert same["verdict"] == "ok"

    def test_ledger_nonpositive_or_missing_ratio_skipped(self):
        verdict = drift(
            _summary(), [_summary()],
            head_ledger={"band": {"ratio_median": 0.0},
                         "shard-cell": {"rows": 4}},
            baseline_ledgers=[{"band": {"ratio_median": 1.0}}],
        )
        assert not any(k.startswith("ledger:") for k in verdict["metrics"])

    def test_drift_against_history_payload(self):
        rec = {
            "scheme": "msa", "case": "tc", "backend": "process",
            "threads": 4, "runtime": _summary(),
            "predictions": {"band": {"ratio_median": 1.0}},
        }
        other = dict(rec, case="other")
        history = {"schema_version": HISTORY_SCHEMA_VERSION,
                   "runs": [{"records": [rec, other]},
                            {"records": [dict(rec)]}]}
        summaries, ledgers = runtime_summaries(history, "msa|tc|process|4")
        assert len(summaries) == 2 and len(ledgers) == 2

        verdict = drift_against_history(
            _summary(peak_rss_bytes=400e6), history,
            scheme="msa", case="tc", backend="process", threads=4,
        )
        assert verdict["verdict"] == "drift"
        assert "peak_rss_bytes" in verdict["flagged"]
        none = drift_against_history(
            _summary(), history, scheme="msa", case="absent",
        )
        assert none["verdict"] == "no-baseline"

    def test_unsampled_history_records_contribute_nothing(self):
        rec = {"scheme": "msa", "case": "tc", "backend": "serial",
               "threads": 1, "median_s": 0.1}
        history = {"schema_version": HISTORY_SCHEMA_VERSION,
                   "runs": [{"records": [rec]}]}
        assert runtime_summaries(history, "msa|tc|serial|1") == ([], [])


class TestRegressIntegration:
    @staticmethod
    def _record(**over) -> dict:
        rec = {
            "scheme": "msa", "case": "tc", "backend": "serial", "threads": 1,
            "median_s": 0.1, "mad_s": 0.001, "counters": {"flops": 10},
        }
        rec.update(over)
        return rec

    def test_unsampled_records_have_no_drift_verdict(self):
        row = bench_regress.compare_records(self._record(), self._record())
        assert row["runtime_drift"] is None

    def test_runtime_drift_rides_an_ok_timing_row(self):
        """Timing identical, memory doubled: the timing gate stays ok and
        the advisory drift verdict carries the anomaly."""
        base = self._record(runtime=_summary())
        head = self._record(runtime=_summary(peak_rss_bytes=200e6))
        row = bench_regress.compare_records(base, head)
        assert row["status"] == "ok"
        assert row["runtime_drift"]["verdict"] == "drift"
        assert "peak_rss_bytes" in row["runtime_drift"]["flagged"]

        verdict = bench_regress.compare_runs(
            {"records": [base]}, {"records": [head]}
        )
        assert verdict["verdict"] == "ok"  # advisory: does not gate
        assert verdict["runtime_drifts"] == ["msa|tc|serial|1"]
        text = bench_regress.render_report(verdict)
        assert "runtime drift" in text

    def test_matching_runtime_is_quiet(self):
        base = self._record(runtime=_summary())
        head = self._record(runtime=_summary())
        verdict = bench_regress.compare_runs(
            {"records": [base]}, {"records": [head]}
        )
        assert verdict["runtime_drifts"] == []
        assert "runtime drift" not in bench_regress.render_report(verdict)


class TestHistoryCollection:
    def test_collect_record_attaches_runtime_summary(self):
        from repro.bench.history import (
            RUNTIME_SAMPLE_INTERVAL_S,
            collect_record,
            record_key,
            scheme_by_name,
        )

        a, b, m = _triple(seed=4)
        rec = collect_record(
            scheme_by_name("MSA-1P"), "unit", [(a, b, m, False)],
            repeats=2, sample_runtime=True,
        )
        assert record_key(rec) == "MSA-1P|unit|serial|1"
        rt = rec["runtime"]
        assert rt["samples"] >= 1
        assert rt["interval_s"] == RUNTIME_SAMPLE_INTERVAL_S
        assert rt["peak_rss_bytes"] > 0
        assert rt_mod.current() is None, "collection must uninstall"

    def test_collect_record_without_flag_has_no_runtime(self):
        from repro.bench.history import collect_record, scheme_by_name

        a, b, m = _triple(seed=5)
        rec = collect_record(scheme_by_name("MSA-1P"), "unit",
                             [(a, b, m, False)], repeats=1)
        assert "runtime" not in rec


# ----------------------------------------------------------------------
# 5. process-backend acceptance (backend marker: CI smoke job)
# ----------------------------------------------------------------------


@pytest.mark.backend
@pytest.mark.skipif(
    not process_backend_available(), reason="no shared-memory support"
)
class TestProcessBackendRuntime:
    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    def test_sharded_tc_sampled_vs_unsampled_bitwise(self):
        """The acceptance run: sharded process-backend R-MAT TC under the
        sampler — per-worker heartbeats from every pool pid, ring-buffer
        series through ``metrics()``, a drift verdict against a seeded
        baseline, and a result bit-for-bit identical to the sampler-off
        run."""
        low = relabel_by_degree(rmat(10, seed=1).pattern()).tril(-1)
        # the preset pins the worker count the fleet assertions below need
        # (2 at this size); the host planner follows the available cores
        kwargs = dict(algo="msa", shards=(2, 2), backend="process",
                      semiring=PLUS_PAIR, machine="haswell")

        assert rt_mod.current() is None
        ref = masked_spgemm(low, low, low, **kwargs)

        with sampling(interval_s=0.02) as rt:
            with ExecutionSession() as session:
                # several sessioned iterations so task distribution touches
                # every pool worker at least once
                for _ in range(8):
                    got = masked_spgemm(low, low, low, session=session,
                                        **kwargs)
                    if set(rt.worker_pids()) >= set(pool_pids()):
                        break
            m = metrics(None)
            frame = format_top(rt)
        summary = rt.summary()

        # bit-for-bit: sampling never changes results
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)

        # every pool worker produced a heartbeat series
        pids = pool_pids()
        assert len(pids) >= 2
        assert set(rt.worker_pids()) == set(pids)
        for w in rt.fleet():
            assert w["rss_bytes"] > 0
            assert w["tasks_completed"] >= 1
            assert w["heartbeats"] >= 1
        assert summary["heartbeats"] >= len(pids)
        assert summary["workers_seen"] == len(pids)

        # ring buffers flow out through metrics() while installed
        run = m["runtime"]
        assert run["schema_version"] == rt_mod.RUNTIME_SCHEMA_VERSION
        assert set(run["series"]) == set(SERIES_NAMES)
        assert run["series"]["rss_bytes"]["count"] >= 1
        assert run["series"]["tasks_inflight"]["count"] >= 1
        assert set(run["workers"]) == {str(p) for p in pids}
        for payload in run["workers"].values():
            assert payload["rss_series"]["count"] >= 1
        json.dumps(m)  # exporter stays JSON-serializable with runtime data

        # the dashboard shows the fleet
        for pid in pids:
            assert str(pid) in frame

        # drift verdict against a seeded baseline: identical summaries
        # band to "ok", an inflated-memory head flags deterministically
        rec = {"scheme": "msa", "case": "tc_rmat", "backend": "process",
               "threads": 4, "runtime": dict(summary)}
        history = {"schema_version": HISTORY_SCHEMA_VERSION,
                   "runs": [{"records": [rec]}] * 3}
        ok = drift_against_history(summary, history, scheme="msa",
                                   case="tc_rmat", backend="process",
                                   threads=4)
        assert ok["verdict"] == "ok"
        bloated = dict(summary)
        bloated["peak_rss_bytes"] = summary["peak_rss_bytes"] * 3
        bad = drift_against_history(bloated, history, scheme="msa",
                                    case="tc_rmat", backend="process",
                                    threads=4)
        assert bad["verdict"] == "drift"
        assert "peak_rss_bytes" in bad["flagged"]

    def test_unsampled_run_ships_no_heartbeats(self):
        low = relabel_by_degree(rmat(9, seed=2).pattern()).tril(-1)
        assert rt_mod.current() is None
        masked_spgemm(low, low, low, algo="msa", shards=(2, 2),
                      backend="process", semiring=PLUS_PAIR)
        # install a sampler *after* the run: nothing was shipped to ingest
        rt = RuntimeSampler(interval_s=60.0)
        assert rt.worker_pids() == []
        assert rt.heartbeats_ingested == 0

    def test_pool_task_gauges(self):
        low = relabel_by_degree(rmat(10, seed=3).pattern()).tril(-1)
        before = pool_stats()["tasks_completed"]
        # the preset plans 2 workers at this size whatever the host's cores
        masked_spgemm(low, low, low, algo="msa", shards=(2, 2),
                      backend="process", semiring=PLUS_PAIR, machine="haswell")
        stats = pool_stats()
        assert stats["tasks_completed"] > before
        assert stats["tasks_inflight"] == 0  # all futures consumed
        assert stats["size"] >= 2
        assert sorted(stats["pids"]) == list(stats["pids"])


# ----------------------------------------------------------------------
# 6. leak hygiene: atexit cleans up after a run that never shuts down
# ----------------------------------------------------------------------


_LEAK_SCRIPT = r"""
import json, sys
from repro.core import masked_spgemm
from repro.engine import ExecutionSession
from repro.graphs import relabel_by_degree, rmat
from repro.parallel import shm
from repro.parallel.pool import pool_pids, process_backend_available
from repro.semiring import PLUS_PAIR

if not process_backend_available():
    print(json.dumps({"skip": True}))
    sys.exit(0)

low = relabel_by_degree(rmat(9, seed=7).pattern()).tril(-1)
with ExecutionSession() as session:
    masked_spgemm(low, low, low, algo="msa", shards=(2, 2),
                  backend="process", semiring=PLUS_PAIR, session=session)
    # report live state mid-session, then exit WITHOUT shutdown_pool():
    # the import-time atexit hooks must reap the pool and the segments
    print(json.dumps({
        "skip": False,
        "segments": list(shm.active_segments()),
        "pids": list(pool_pids()),
    }))
sys.exit(0)
"""


@pytest.mark.backend
@pytest.mark.skipif(
    not process_backend_available(), reason="no shared-memory support"
)
class TestLeakHygiene:
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
        assert state["segments"], "run must have published shm segments"
        assert state["pids"], "run must have spawned pool workers"

        # no segment survived the interpreter exit
        for name in state["segments"]:
            assert not os.path.exists(os.path.join("/dev/shm", name)), (
                f"leaked shared-memory segment {name}"
            )
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
