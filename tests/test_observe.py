"""Tests for the tracing & metrics layer (:mod:`repro.observe`).

Four contracts, in the order the module docstring states them:

1. Tracing off is (nearly) free — the kernel micro-benchmark through the
   ``traced_kernel`` wrapper stays within 2% of the undecorated kernel.
2. Spans nest correctly per thread: parent links, exception handling, and
   stack hygiene.
3. Spans cross processes: a process-backend run yields spans from at least
   two distinct worker pids, and the merged trace's counter totals are
   bit-for-bit equal to a serial run of the same problem.
4. Exports are valid: Chrome trace JSON round-trips and carries the plan,
   the metrics summary reproduces the OpCounter totals, and the report
   interleaves plan explanation with measured spans.

Cross-process tests carry the ``backend`` marker (CI's backend-smoke job);
the whole module carries ``trace``.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time

import numpy as np
import pytest

from repro.core.kernels.msa_kernel import masked_spgemm_msa_fast
from repro.engine import Planner
from repro.engine.executor import execute
from repro.graphs import erdos_renyi, rmat, relabel_by_degree
from repro.machine import HASWELL, OpCounter
from repro.observe import (
    Tracer,
    current,
    metrics,
    report,
    set_tracer,
    timed_span,
    tracing,
    write_chrome_trace,
    write_metrics,
)
from repro.parallel import parallel_masked_spgemm, shutdown_pool
from repro.parallel.pool import process_backend_available
from repro.semiring import PLUS_PAIR, PLUS_TIMES, Semiring
from repro.apps import triangle_count_detail
from .conftest import assert_overhead_per_call


pytestmark = pytest.mark.trace


def _triple(seed=1):
    a = erdos_renyi(60, 60, 5, seed=seed, values="uniform")
    b = erdos_renyi(60, 60, 5, seed=seed + 1, values="uniform")
    m = erdos_renyi(60, 60, 8, seed=seed + 2)
    return a, b, m


# ----------------------------------------------------------------------
# 1. disabled-path overhead
# ----------------------------------------------------------------------


class TestDisabledOverhead:
    def test_no_tracer_installed_by_default(self):
        assert current() is None

    def test_wrapper_overhead_under_two_percent(self):
        """`traced_kernel`'s disabled path: one global read per call.

        Times the decorated entry point against ``__wrapped__`` (the bare
        kernel) with tracing off.  The budget is absolute — 30 us per call,
        about what "2% of the kernel + a 10 us floor" allowed when the bound
        was set, and a few times the timer noise of a ~0.2 ms call on a
        busy host — so a faster kernel does not tighten it.
        """
        a, b, m = _triple()
        bare = masked_spgemm_msa_fast.__wrapped__
        assert current() is None
        assert_overhead_per_call(
            lambda: bare(a, b, m, semiring=PLUS_TIMES),
            lambda: masked_spgemm_msa_fast(a, b, m, semiring=PLUS_TIMES),
            budget_us=30,
        )

    def test_wrapped_attribute_reaches_bare_kernel(self):
        assert masked_spgemm_msa_fast.__wrapped__ is not masked_spgemm_msa_fast

    def test_timed_span_measures_without_tracer(self):
        assert current() is None
        with timed_span("x") as sp:
            time.sleep(0.001)
        assert sp.seconds >= 0.001


# ----------------------------------------------------------------------
# 2. span nesting / integrity
# ----------------------------------------------------------------------


class TestSpanIntegrity:
    def test_nesting_parent_links(self):
        with tracing() as tr:
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
                with tr.span("inner2"):
                    pass
        by_name = {sp.name: sp for sp in tr.spans}
        outer, inner, inner2 = by_name["outer"], by_name["inner"], by_name["inner2"]
        assert inner.parent_id == outer.span_id
        assert inner2.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.span_id != inner2.span_id
        assert all(sp.pid == os.getpid() for sp in tr.spans)
        assert tr.depth() == 0

    def test_exception_closes_span_and_tags_error(self):
        with tracing() as tr:
            with pytest.raises(ValueError):
                with tr.span("will_fail"):
                    raise ValueError("boom")
        (sp,) = tr.spans
        assert sp.name == "will_fail"
        assert sp.attrs["error"] == "ValueError"
        assert tr.depth() == 0

    def test_counter_delta_attached(self):
        c = OpCounter()
        c.flops = 100
        with tracing() as tr:
            with tr.span("work", counter=c):
                c.flops += 7
                c.output_nnz += 3
        (sp,) = tr.spans
        assert sp.counters == {"flops": 7, "output_nnz": 3}

    def test_tracing_restores_previous(self):
        assert current() is None
        with tracing() as outer_tr:
            assert current() is outer_tr
            with tracing() as inner_tr:
                assert current() is inner_tr
            assert current() is outer_tr
        assert current() is None

    def test_ingest_remaps_ids_preserves_structure(self):
        worker = Tracer()
        prev = set_tracer(None)  # make sure ids are local to `worker`
        try:
            with worker.span("parent"):
                with worker.span("child"):
                    pass
        finally:
            set_tracer(prev)
        records = worker.export()
        # mimic a foreign pid so track labelling is exercised
        for rec in records:
            rec["pid"] = 99999

        coord = Tracer()
        with coord.span("local"):
            pass
        coord.ingest(records)
        spans = {sp.name: sp for sp in coord.spans}
        assert spans["child"].parent_id == spans["parent"].span_id
        assert spans["parent"].parent_id is None
        assert spans["parent"].pid == 99999
        ids = [sp.span_id for sp in coord.spans]
        assert len(ids) == len(set(ids)), "ingested ids must not collide"

    @pytest.mark.parametrize("complement", [False, True])
    def test_two_phase_symbolic_pass_leaves_no_chunk_telemetry(
        self, numpy_tier, complement
    ):
        """The NumPy-tier symbolic pass is the push frame's count-only mode,
        chunked like a kernel but not one, and no chunk is a span: a traced
        2P call adds the symbolic span, with nothing under it, to the 1P
        call's kernel span."""
        from repro.core import masked_spgemm
        from repro.core.kernels.batch import per_row_flops, row_blocks
        from repro.core.kernels.msa_kernel import MSA_FLOP_BUDGET

        low = rmat(11, seed=3).pattern().tril(-1)
        # several chunks in both passes
        assert len(list(row_blocks(per_row_flops(low, low), MSA_FLOP_BUDGET))) > 1
        traces = {}
        for phases in (1, 2):
            with tracing() as traces[phases]:
                masked_spgemm(low, low, low, algo="msa", phases=phases,
                              complement=complement, semiring=PLUS_PAIR)
        one, two = traces[1], traces[2]
        assert [sp.name for sp in one.spans] == ["kernel.msa"]
        assert sorted(sp.name for sp in two.spans) == ["kernel.msa", "spgemm.symbolic"]
        assert all(sp.parent_id is None for sp in two.spans)


# ----------------------------------------------------------------------
# 3. engine / kernels emit spans; exports are valid
# ----------------------------------------------------------------------


class TestExports:
    @pytest.fixture(scope="class")
    def traced_tc(self):
        """One traced serial triangle count, shared across export tests."""
        g = rmat(8, seed=5)
        counter = OpCounter()
        with tracing() as tr:
            res = triangle_count_detail(
                g, algo="auto", backend="serial", counter=counter
            )
        return g, res, counter, tr

    def test_expected_span_names(self, traced_tc):
        _, _, _, tr = traced_tc
        names = {sp.name for sp in tr.spans}
        assert "tc.run" in names
        assert "tc.spgemm" in names
        assert "engine.execute" in names
        assert "engine.band" in names
        assert any(n.startswith("kernel.") for n in names)

    def test_chrome_trace_round_trips_with_plan(self, traced_tc, tmp_path):
        _, _, _, tr = traced_tc
        path = tmp_path / "tc.trace.json"
        write_chrome_trace(path, tr)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        x = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in x)
        execs = [e for e in x if e["name"] == "engine.execute"]
        assert execs and "plan" in execs[0]["args"], (
            "engine.execute event must carry the plan metadata"
        )
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["args"]["name"] == "coordinator" for e in meta)

    def test_metrics_reproduce_counter_totals(self, traced_tc):
        _, _, counter, tr = traced_tc
        m = metrics(tr, machine=HASWELL)
        want = {k: v for k, v in counter.as_dict().items() if v}
        assert m["counter_totals"] == want, (
            "leaf-span counter totals must equal the run's OpCounter"
        )
        assert m["seconds_by_phase"].get("numeric", 0.0) > 0.0
        assert m["bytes_moved_estimate"] > 0
        assert m["machine"] == HASWELL.name
        assert m["process_count"] == 1

    def test_metrics_json_serializable(self, traced_tc, tmp_path):
        _, _, _, tr = traced_tc
        path = tmp_path / "tc.metrics.json"
        write_metrics(path, tr, machine=HASWELL)
        doc = json.loads(path.read_text())
        assert doc["span_count"] == len(tr.spans)

    def test_report_interleaves_plan_and_spans(self, traced_tc):
        g, _, _, tr = traced_tc
        low = relabel_by_degree(g.pattern()).tril(-1)
        pl = Planner(HASWELL).plan(low, low, low)
        text = report(tr, plan=pl)
        assert "tc.run" in text
        assert "engine.execute" in text
        assert "modeled" in text.lower()

    def test_tracing_does_not_change_results(self, traced_tc):
        g, res, counter, _ = traced_tc
        ref_counter = OpCounter()
        ref = triangle_count_detail(
            g, algo="auto", backend="serial", counter=ref_counter
        )
        assert ref.triangles == res.triangles
        assert ref_counter.as_dict() == counter.as_dict()

    def test_apps_report_timings_untraced(self):
        assert current() is None
        g = rmat(7, seed=2)
        res = triangle_count_detail(g, algo="msa")
        assert res.total_seconds > 0
        assert res.spgemm_seconds > 0
        assert res.total_seconds >= res.spgemm_seconds


# ----------------------------------------------------------------------
# 4. cross-process span collection (backend marker: CI smoke job)
# ----------------------------------------------------------------------


@pytest.mark.backend
class TestProcessBackendTracing:
    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    @pytest.mark.skipif(
        not process_backend_available(), reason="no shared-memory support"
    )
    def test_worker_spans_and_counter_equivalence(self):
        low = relabel_by_degree(rmat(11, seed=1).pattern()).tril(-1)

        c_serial = OpCounter()
        ref = parallel_masked_spgemm(
            low, low, low, algo="msa", threads=4, backend="serial",
            semiring=PLUS_PAIR, counter=c_serial,
        )
        c_proc = OpCounter()
        with tracing() as tr:
            got = parallel_masked_spgemm(
                low, low, low, algo="msa", threads=4, backend="process",
                semiring=PLUS_PAIR, counter=c_proc,
            )

        # results and counters: bit-for-bit equal to the serial run
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)
        assert c_proc.as_dict() == c_serial.as_dict()

        # spans from >= 2 distinct worker pids, merged onto the timeline
        me = os.getpid()
        worker_pids = {sp.pid for sp in tr.spans if sp.pid != me}
        assert len(worker_pids) >= 2, (
            f"expected spans from >=2 worker processes, got {worker_pids}"
        )
        part = [sp for sp in tr.spans if sp.name == "engine.cell"]
        assert part and all(sp.pid != me for sp in part)
        assert all(sp.attrs.get("backend") == "process" for sp in part)
        kern = [sp for sp in tr.spans if sp.name.startswith("kernel.")]
        assert kern and all(sp.pid != me for sp in kern)

        # parent links survive the merge: every worker kernel span hangs
        # under a work-item span from the *same* pid (a flattened-ingest
        # id collision would cross-link kernels onto a foreign item)
        by_id = {sp.span_id: sp for sp in tr.spans}
        for sp in kern:
            parent = by_id[sp.parent_id]
            assert parent.name == "engine.cell"
            assert parent.pid == sp.pid
            assert parent.t0 <= sp.t0 and sp.t1 <= parent.t1

        # the merged trace's leaf counters reproduce the whole-run totals
        m = metrics(tr)
        want = {k: v for k, v in c_serial.as_dict().items() if v}
        assert m["counter_totals"] == want
        assert m["process_count"] >= 3  # coordinator + >=2 workers

    @pytest.mark.skipif(
        not process_backend_available(), reason="no shared-memory support"
    )
    def test_untraced_process_run_ships_no_spans(self):
        low = relabel_by_degree(rmat(9, seed=3).pattern()).tril(-1)
        assert current() is None
        out = parallel_masked_spgemm(
            low, low, low, algo="msa", threads=2, backend="process",
            semiring=PLUS_PAIR,
        )
        assert out.nnz >= 0  # ran; nothing to trace, nothing crashed


# ----------------------------------------------------------------------
# semiring fallback: loud, recorded on the plan
# ----------------------------------------------------------------------


class TestSemiringFallback:
    def test_unpicklable_semiring_warns_and_notes_plan(self, caplog):
        a, b, m = _triple(seed=9)
        weird = Semiring(
            "local_lambda", lambda x, y: x + y, lambda x, y: x * y
        )
        pl = Planner(HASWELL).plan(a, b, m, backend="process")
        assert pl.backend == "process"
        with caplog.at_level(logging.WARNING, logger="repro"):
            got = execute(pl, a, b, m, semiring=weird)
        assert any(
            "fell back to thread" in r.message for r in caplog.records
        ), "degradation must be logged on the repro logger"
        assert any("fell back to thread" in n for n in pl.notes), (
            "degradation must be recorded in the plan's notes"
        )
        ref = execute(
            Planner(HASWELL).plan(a, b, m, backend="serial"), a, b, m,
            semiring=weird,
        )
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.allclose(got.data, ref.data)


# ----------------------------------------------------------------------
# exporter edge cases: empty traces and zero-span batches
# ----------------------------------------------------------------------


class TestExportEdgeCases:
    def test_metrics_on_empty_trace(self):
        with tracing() as tr:
            pass
        m = metrics(tr, machine=HASWELL)
        assert m["span_count"] == 0
        assert m["counter_totals"] == {}
        assert m["bytes_moved_estimate"] == 0
        assert m["seconds_by_phase"] == {}

    def test_chrome_trace_on_empty_trace(self, tmp_path):
        with tracing() as tr:
            pass
        path = tmp_path / "empty.trace.json"
        write_chrome_trace(path, tr)
        doc = json.loads(path.read_text())
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []

    def test_report_on_empty_trace(self):
        with tracing() as tr:
            pass
        text = report(tr)
        assert isinstance(text, str)

    def test_ingest_zero_span_batch(self):
        with tracing() as tr:
            with tr.span("only.local"):
                pass
            tr.ingest([])
        assert [sp.name for sp in tr.spans] == ["only.local"]
        assert metrics(tr, machine=HASWELL)["span_count"] == 1

    def test_metrics_accepts_empty_span_list(self):
        m = metrics([], machine=HASWELL)
        assert m["span_count"] == 0 and m["counter_totals"] == {}

    def test_metrics_schema_version_leads_the_payload(self):
        from repro.observe import METRICS_SCHEMA_VERSION

        m = metrics([], machine=HASWELL)
        assert m["schema_version"] == METRICS_SCHEMA_VERSION
        assert next(iter(m)) == "schema_version"

    def test_metrics_on_never_enabled_tracer(self):
        """``metrics(None)`` — observability was never switched on — must
        export as cleanly as an empty trace."""
        m = metrics(None, machine=HASWELL)
        assert m["span_count"] == 0
        assert m["counter_totals"] == {}
        assert m["schema_version"] == 6
        assert set(m) == {
            "schema_version", "predictions", "span_count",
            "process_count", "wall_seconds", "seconds_by_name",
            "seconds_by_phase", "counter_totals", "bytes_moved_estimate",
            "machine",
        }
        json.dumps(m)

    def test_chrome_trace_on_never_enabled_tracer(self):
        from repro.observe import chrome_trace

        doc = chrome_trace(None)
        assert doc["traceEvents"] == []
        json.dumps(doc)

    def test_report_on_never_enabled_tracer(self):
        text = report(None)
        assert "0 spans" in text
        assert "(no spans recorded)" in text


class TestDemoCli:
    def test_printed_plan_is_the_executed_plan(self, tmp_path, capsys):
        """``python -m repro.observe`` reports the plan its traced call
        ran: the host planner's, not a modeled preset's."""
        from repro.observe.__main__ import main

        assert main(["--scale", "8", "--backend", "serial",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        planned = out.split("=== planned ===", 1)[1].split("=== measured", 1)[0]
        printed = [(algo, int(rows)) for algo, rows in re.findall(
            r"band \d+: algo=(\w+)\s+rows=(\d+)", planned)]
        doc = json.loads((tmp_path / "tc_rmat.trace.json").read_text())
        (run,) = [e for e in doc["traceEvents"] if e["name"] == "engine.execute"]
        executed = [(b["algo"], b["nrows"]) for b in run["args"]["plan"]["bands"]]
        assert printed and printed == executed


# ----------------------------------------------------------------------
# prediction-ledger bias flags (PR 8's summary statistics)
# ----------------------------------------------------------------------


class TestLedgerBiasFlags:
    @staticmethod
    def _rows(ratios, kind="band"):
        """Ledger rows with measured/modeled == each requested ratio."""
        return [
            {"kind": kind, "modeled_seconds": 0.001,
             "measured_seconds": 0.001 * r}
            for r in ratios
        ]

    def test_optimistic_when_model_undershoots(self):
        from repro.observe import misprediction_summary

        entry = misprediction_summary(self._rows([90.0, 100.0, 110.0]))["band"]
        assert entry["bias"] == "optimistic"
        assert entry["ratio_median"] == pytest.approx(100.0)

    def test_pessimistic_when_model_overshoots(self):
        from repro.observe import misprediction_summary

        entry = misprediction_summary(self._rows([0.01, 0.012, 0.009]))["band"]
        assert entry["bias"] == "pessimistic"

    def test_centered_inside_2x_both_ways(self):
        from repro.observe import misprediction_summary

        for ratios in ([0.9, 1.0, 1.1], [2.0], [0.5]):
            entry = misprediction_summary(self._rows(ratios))["band"]
            assert entry["bias"] == "centered", ratios

    def test_single_sample_mad_is_zero(self):
        from repro.observe import misprediction_summary

        entry = misprediction_summary(self._rows([3.0]))["band"]
        assert entry["with_model"] == 1
        assert entry["log10_ratio_mad"] == 0.0
        assert entry["bias"] == "optimistic"

    def test_all_identical_ratios_mad_is_zero(self):
        from repro.observe import misprediction_summary

        entry = misprediction_summary(self._rows([4.0] * 5))["band"]
        assert entry["log10_ratio_mad"] == 0.0
        assert entry["ratio_median"] == pytest.approx(4.0)

    def test_unmodeled_rows_counted_but_excluded_from_ratios(self):
        from repro.observe import misprediction_summary

        rows = self._rows([10.0, 10.0])
        rows.append({"kind": "band", "modeled_seconds": None,
                     "measured_seconds": 0.5})
        rows.append({"kind": "band", "modeled_seconds": 0.0,
                     "measured_seconds": 0.5})
        entry = misprediction_summary(rows)["band"]
        assert entry["rows"] == 4
        assert entry["with_model"] == 2
        assert entry["bias"] == "optimistic"

    def test_kinds_summarised_independently(self):
        from repro.observe import misprediction_summary

        rows = self._rows([100.0], kind="band") + \
            self._rows([0.01], kind="cell")
        summary = misprediction_summary(rows)
        assert summary["band"]["bias"] == "optimistic"
        assert summary["cell"]["bias"] == "pessimistic"
