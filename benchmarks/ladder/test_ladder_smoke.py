"""Smoke test of the ladder benchmark (``python -m pytest benchmarks/ladder -q``).

Not part of tier-1 (``testpaths = ["tests"]``): it spawns the runner on
reduced scales and checks the harness, not the library.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("ktruss-rmat", "tc-rmat-msa")
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def run_quick(tmp_path: Path, trace: int) -> dict:
    out = tmp_path / f"quick-{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--quick", "--trace", str(trace),
           "--out", str(out)]
    for w in WORKLOADS:
        cmd += ["--workload", w]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert json.loads(out.read_text())["quick"] is True
    return last


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_equal_declared(tmp_path, trace, kind):
    declared = {(m["name"], m["unit"]) for m in DECLARED[kind]}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name, _ in declared)
    for w, line in run_quick(tmp_path, trace).items():
        emitted = {(name, m["unit"]) for name, m in line["metrics"].items()}
        assert emitted == declared, w
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 5


def test_compare_refuses_quick_results(tmp_path):
    import compare

    run_quick(tmp_path, 0)
    quick = json.loads((tmp_path / "quick-0.json").read_text())
    assert compare.compare(quick, quick) == 2


def test_corrupted_results_are_counted_as_failed():
    """The oracle is not vacuous: a wrong count fails, and so does a result
    that drifts from the round's first verified one."""
    import one_round
    import workloads

    w = workloads.build("tc-rmat-msa", 1, quick=True)
    honest = w.call
    assert one_round.measure(w, 0.0, min_calls=2)["failed"] == 0

    calls = []

    def drifting(**kw):
        result = honest(**kw)
        result.triangles += len(calls)  # right the first time, wrong after
        calls.append(1)
        return result

    w.call = drifting
    stats = one_round.measure(w, 0.0, min_calls=2)
    assert (stats["attempted"], stats["failed"]) == (4, 3)

    def wrong(**kw):
        result = honest(**kw)
        result.triangles += 1
        return result

    w.call = wrong
    stats = one_round.measure(w, 0.0, min_calls=2)
    assert stats["failed"] == stats["attempted"] == 4
