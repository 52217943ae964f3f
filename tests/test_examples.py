"""Smoke tests: the example scripts must run end-to-end.

Only the fast examples run in the default test suite; the longer ones are
covered by the benchmark harness and can be exercised with
``REPRO_RUN_ALL_EXAMPLES=1``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

FAST = ["quickstart.py", "graph_analytics.py", "model_explorer.py", "real_data.py"]
SLOW = [
    "triangle_counting.py",
    "betweenness_centrality.py",
    "ktruss_pruning.py",
    "density_explorer.py",
    "tree_inference.py",
]

RUN_ALL = os.environ.get("REPRO_RUN_ALL_EXAMPLES", "0") == "1"


def _run(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


@pytest.mark.parametrize("name", FAST)
def test_fast_examples_run(name):
    out = _run(name)
    assert out.strip()


@pytest.mark.parametrize("name", SLOW)
@pytest.mark.skipif(not RUN_ALL, reason="set REPRO_RUN_ALL_EXAMPLES=1")
def test_slow_examples_run(name):
    out = _run(name)
    assert out.strip()


def test_all_examples_exist():
    """Every example is listed in exactly one of FAST / SLOW, so a new or
    renamed one cannot drop out of the smoke run."""
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(FAST + SLOW)
