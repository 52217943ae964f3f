"""Tests for the benchmark history store and regression gate.

The two acceptance anchors, asserted in the same test so they can never
drift apart: an artificially injected 2x hash slowdown is *always* flagged
(the ``max_rel`` band ceiling caps how much measured noise can excuse),
while comparing two identical runs never is (``delta = 0`` sits inside any
band).  Around them: record shape, append-only persistence, schema-version
refusal, and the two CLIs' exit-code contract (0 clean, 1 regression,
2 malformed input).

Collection happens once per module on a deliberately tiny pinned case set
(R-MAT scale 6, a 128-node mini-grid); everything downstream reuses that
run, so the suite stays CI-sized.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bench import history, regress
from repro.bench.history import (
    HISTORY_BASENAME,
    PINNED_SCHEME_NAMES,
    SCHEMA_VERSION,
    append_run,
    collect_run,
    env_fingerprint,
    latest_run,
    load_history,
    pinned_cases,
    record_key,
    run_artifact_name,
    write_run,
)
from repro.bench.regress import compare_records, compare_runs, render_report

pytestmark = pytest.mark.history


@pytest.fixture(scope="module")
def tiny_run():
    """One collected run over the miniature pinned case set."""
    cases = pinned_cases(rmat_scale=6, grid_n=128, grid_degrees=(2, 4))
    return collect_run(repeats=2, cases=cases, session_rmat_scale=6)


def _rec(median, mad=0.0, **overrides):
    base = {
        "scheme": "Hash-1P", "case": "c", "backend": "serial", "threads": 1,
        "repeats": 3, "median_s": median, "mad_s": mad,
        "samples_s": [median] * 3, "counters": {"flops": 10},
        "bytes_moved_estimate": 100, "probes": {},
    }
    base.update(overrides)
    return base


# ----------------------------------------------------------------------
# record collection
# ----------------------------------------------------------------------
class TestCollection:
    def test_run_shape(self, tiny_run):
        assert tiny_run["schema_version"] == SCHEMA_VERSION
        assert set(tiny_run["env"]) == {
            "git_sha", "python", "numpy", "cpu_count", "platform", "machine",
        }
        # 3 pinned schemes x (1 TC case + 2x2 grid cells), plus the
        # sessioned k-truss and sharded TC records
        assert len(tiny_run["records"]) == 17
        schemes = {r["scheme"] for r in tiny_run["records"]}
        assert schemes == set(PINNED_SCHEME_NAMES) | {"ktruss-delta", "tc-sharded"}

    def test_record_carries_work_certificate(self, tiny_run):
        for r in tiny_run["records"]:
            assert r["repeats"] == 2 and len(r["samples_s"]) == 2
            assert r["median_s"] > 0 and r["mad_s"] >= 0
            assert r["counters"].get("flops", 0) > 0
            if "session" in r:
                # sessioned records certify segment-registry telemetry
                # instead of probe histograms; work counters must exclude
                # the reuse counters (those live under "session").  The
                # serial k-truss certifies that the session took no digest.
                if r["backend"] == "auto":
                    assert r["session"]["fingerprint_digests"] == 0
                assert "plan_cache_hits" not in r["session"]
                assert "plan_cache_hits" not in r["counters"]
                continue
            assert r["bytes_moved_estimate"] > 0
            assert r["probes"], f"no probe histograms on {record_key(r)}"

    def test_median_and_mad_match_samples(self, tiny_run):
        r = tiny_run["records"][0]
        arr = np.asarray(r["samples_s"])
        assert r["median_s"] == pytest.approx(float(np.median(arr)))
        assert r["mad_s"] == pytest.approx(
            float(np.median(np.abs(arr - np.median(arr))))
        )

    def test_counters_deterministic_across_collections(self, tiny_run):
        # repeats must match tiny_run's: sessioned records report the LAST
        # repeat's counters, and the incremental ktruss-delta record only
        # reaches its steady state (patch vs fallback mix) from repeat 2 on.
        cases = pinned_cases(rmat_scale=6, grid_n=128, grid_degrees=(2, 4))
        again = collect_run(repeats=2, cases=cases, session_rmat_scale=6)
        by_key = {record_key(r): r for r in again["records"]}
        for r in tiny_run["records"]:
            assert by_key[record_key(r)]["counters"] == r["counters"]

    def test_record_key_identity(self):
        assert record_key(_rec(1.0)) == "Hash-1P|c|serial|1"

    def test_env_fingerprint_git_sha(self):
        assert len(env_fingerprint()["git_sha"]) == 40
        assert env_fingerprint(cwd="/")["git_sha"] == "unknown"


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
class TestPersistence:
    def test_append_load_roundtrip(self, tiny_run, tmp_path):
        path = tmp_path / HISTORY_BASENAME
        append_run(path, tiny_run)
        second = copy.deepcopy(tiny_run)
        append_run(path, second)
        hist = load_history(path)
        assert len(hist["runs"]) == 2
        assert latest_run(hist)["records"] == second["records"]

    def test_single_run_artifact_roundtrip(self, tiny_run, tmp_path):
        name = run_artifact_name(tiny_run)
        assert name.startswith("BENCH_") and name.endswith(".json")
        path = tmp_path / name
        write_run(path, tiny_run)
        with open(path) as fh:
            payload = json.load(fh)
        # latest_run accepts a bare artifact as well as a history file
        assert latest_run(payload)["env"] == tiny_run["env"]

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps(
            {"schema_version": SCHEMA_VERSION + 1, "runs": []}
        ))
        with pytest.raises(ValueError, match="schema_version"):
            load_history(path)
        with pytest.raises(ValueError, match="schema_version"):
            latest_run({"schema_version": SCHEMA_VERSION + 1, "records": []})

    def test_non_history_payload_refused(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema_version": 1, "nonsense": True}))
        with pytest.raises(ValueError, match="runs"):
            load_history(path)

    def test_empty_history_has_no_latest(self):
        with pytest.raises(ValueError, match="no runs"):
            latest_run({"schema_version": 1, "runs": []})


# ----------------------------------------------------------------------
# band arithmetic (pure, no collection)
# ----------------------------------------------------------------------
class TestBand:
    def test_identical_records_ok(self):
        c = compare_records(_rec(1.0, 0.1), _rec(1.0, 0.1))
        assert c["status"] == "ok" and c["delta_s"] == 0.0

    def test_two_x_flagged_even_with_huge_mad(self):
        # MAD as large as the median: without the max_rel ceiling the noise
        # band (5 * 1.4826 * 1.0) would swallow the 2x shift
        c = compare_records(_rec(1.0, 1.0), _rec(2.0, 1.0))
        assert c["status"] == "regressed"
        assert c["band_s"] == pytest.approx(0.5)  # max_rel * base

    def test_min_rel_floor_absorbs_quantisation(self):
        # zero MAD (repeats quantised identically) + 20% drift: inside the
        # floor — a noisy shared machine wobbles that much run to run
        c = compare_records(_rec(1.0, 0.0), _rec(1.20, 0.0))
        assert c["status"] == "ok"
        assert c["band_s"] == pytest.approx(0.25)

    def test_improvement_flagged_symmetrically(self):
        c = compare_records(_rec(1.0, 0.0), _rec(0.4, 0.0))
        assert c["status"] == "improved"

    def test_counters_changed_travels(self):
        head = _rec(2.0, counters={"flops": 999})
        c = compare_records(_rec(1.0), head)
        assert c["counters_changed"] is True


# ----------------------------------------------------------------------
# the acceptance anchors
# ----------------------------------------------------------------------
class TestRegressionGate:
    def test_identical_runs_pass_and_injected_2x_fails(self, tiny_run):
        """Both anchors together: same run twice -> ok; the same run with
        every hash record's median doubled -> regression on exactly the
        hash keys, deterministically (max_rel caps what noise can excuse).
        """
        clean = compare_runs(tiny_run, copy.deepcopy(tiny_run))
        assert clean["verdict"] == "ok"
        assert clean["regressions"] == [] and clean["improvements"] == []

        slowed = copy.deepcopy(tiny_run)
        hash_keys = []
        for r in slowed["records"]:
            if r["scheme"] == "Hash-1P":
                r["median_s"] *= 2.0
                r["samples_s"] = [s * 2.0 for s in r["samples_s"]]
                hash_keys.append(record_key(r))
        verdict = compare_runs(tiny_run, slowed)
        assert verdict["verdict"] == "regression"
        assert verdict["regressions"] == sorted(hash_keys)
        # counters did not change: the report can say "machine, not algorithm"
        for c in verdict["comparisons"]:
            assert c["counters_changed"] is False

    def test_missing_and_new_keys_reported(self, tiny_run):
        head = copy.deepcopy(tiny_run)
        dropped = head["records"].pop()
        added = _rec(1.0, case="novel")
        head["records"].append(added)
        verdict = compare_runs(tiny_run, head)
        assert record_key(dropped) in verdict["missing_in_head"]
        assert record_key(added) in verdict["new_in_head"]
        # absent keys are annotations, not regressions
        assert verdict["verdict"] == "ok"

    def test_env_mismatch_warns_but_ignores_sha(self, tiny_run):
        head = copy.deepcopy(tiny_run)
        head["env"]["git_sha"] = "f" * 40
        head["env"]["cpu_count"] = tiny_run["env"]["cpu_count"] + 1
        verdict = compare_runs(tiny_run, head)
        assert verdict["env_mismatch"] == ["cpu_count"]

    def test_render_report_marks_regressions(self, tiny_run):
        slowed = copy.deepcopy(tiny_run)
        for r in slowed["records"]:
            if r["scheme"] == "Hash-1P":
                r["median_s"] *= 2.0
        text = render_report(compare_runs(tiny_run, slowed))
        assert "verdict: REGRESSION" in text
        reg_lines = [ln for ln in text.splitlines() if "regressed" in ln]
        assert len(reg_lines) == 5
        assert all("!" in ln and "Hash-1P|" in ln for ln in reg_lines)
        clean_text = render_report(compare_runs(tiny_run, tiny_run))
        assert "verdict: OK" in clean_text


# ----------------------------------------------------------------------
# CLI exit-code contract
# ----------------------------------------------------------------------
class TestCLI:
    def _artifacts(self, tiny_run, tmp_path):
        base = tmp_path / "base.json"
        write_run(base, tiny_run)
        slowed = copy.deepcopy(tiny_run)
        for r in slowed["records"]:
            if r["scheme"] == "Hash-1P":
                r["median_s"] *= 2.0
        head = tmp_path / "head.json"
        write_run(head, slowed)
        return base, head

    def test_regress_clean_exits_zero(self, tiny_run, tmp_path, capsys):
        base, _ = self._artifacts(tiny_run, tmp_path)
        rc = regress.main(["--baseline", str(base), "--head", str(base)])
        assert rc == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_regress_regression_exits_one_and_writes_json(
        self, tiny_run, tmp_path, capsys
    ):
        base, head = self._artifacts(tiny_run, tmp_path)
        out = tmp_path / "verdict.json"
        rc = regress.main(["--baseline", str(base), "--head", str(head),
                           "--json", str(out)])
        assert rc == 1
        assert "verdict: REGRESSION" in capsys.readouterr().out
        verdict = json.loads(out.read_text())
        assert verdict["verdict"] == "regression"
        assert all(k.startswith("Hash-1P|") for k in verdict["regressions"])

    def test_regress_malformed_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert regress.main(["--baseline", str(bad)]) == 2
        assert "cannot load baseline" in capsys.readouterr().err
        assert regress.main(["--baseline", str(tmp_path / "absent.json")]) == 2

    def test_regress_accepts_history_baseline(self, tiny_run, tmp_path):
        hist = tmp_path / HISTORY_BASENAME
        append_run(hist, tiny_run)
        _, head = self._artifacts(tiny_run, tmp_path)
        assert regress.main(["--baseline", str(hist), "--head", str(head)]) == 1

    def test_history_cli_writes_artifact_and_appends(
        self, tmp_path, capsys, monkeypatch
    ):
        # shrink the pinned set the CLI collects so the test stays fast
        monkeypatch.setattr(
            history, "pinned_cases",
            lambda rmat_scale=8: pinned_cases(
                rmat_scale=rmat_scale, grid_n=64, grid_degrees=(2,)
            ),
        )
        hist = tmp_path / HISTORY_BASENAME
        rc = history.main(["--repeats", "1", "--rmat-scale", "5",
                           "--history", str(hist),
                           "--run-dir", str(tmp_path)])
        assert rc == 0
        loaded = load_history(hist)
        assert len(loaded["runs"]) == 1
        run = latest_run(loaded)
        artifact = tmp_path / run_artifact_name(run)
        assert artifact.exists()
        with open(artifact) as fh:
            assert latest_run(json.load(fh))["records"] == run["records"]

    def test_history_cli_skips_append_with_dash(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            history, "pinned_cases",
            lambda rmat_scale=8: pinned_cases(
                rmat_scale=rmat_scale, grid_n=64, grid_degrees=(2,)
            ),
        )
        monkeypatch.chdir(tmp_path)
        rc = history.main(["--repeats", "1", "--rmat-scale", "5",
                           "--history", "-", "--run-dir", str(tmp_path)])
        assert rc == 0
        assert not (tmp_path / HISTORY_BASENAME).exists()

    def test_the_commands_import_their_module_once(self):
        # runpy warns when the package has already imported what it is about
        # to execute as __main__
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for module in ("repro.bench.history", "repro.bench.regress"):
            subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
                env=env, check=True, capture_output=True,
            )

    def test_bench_main_baseline_delegates_to_regress(
        self, tiny_run, tmp_path, monkeypatch
    ):
        from repro.bench.__main__ import main as bench_main

        base, head = self._artifacts(tiny_run, tmp_path)
        # a fresh head collection would be slow; point the gate at the
        # prepared artifact by intercepting the delegated argv
        seen = {}

        def fake_regress(argv):
            seen["argv"] = argv
            return 1

        monkeypatch.setattr(regress, "main", fake_regress)
        rc = bench_main(["--baseline", str(base)])
        assert rc == 1
        assert seen["argv"][:2] == ["--baseline", str(base)]
