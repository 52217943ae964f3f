"""Compare two ladder result files: ``compare.py A.json B.json``.

Per workload x end-to-end metric, prints both values, the ratio B / A (A
is the base) and a verdict drawn only from the bounds in
``BENCHMARK.json``:

* ``better`` / ``worse``    - B moved past the metric's bound;
* ``within bound``          - it did not;
* ``unresolved (host drift)`` - a timing row whose two files disagree on
  the canary's own p50 by more than ``DRIFT``: the host moved, not the code.

``fail_frac`` is gated on any increase.  Exits 1 when any row is ``worse``,
2 when the files cannot be compared (quick or traced runs, different seeds).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

DRIFT = 0.10
TIMING = {"call_x_p50", "setup_s"}
DECLARED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def verdict(base: float, new: float, bound: float, better: str) -> str:
    worse_by = new / base - 1.0 if better == "lower" else base / new - 1.0
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "within bound"


def compare(a: dict, b: dict) -> int:
    """Print the table for two loaded result files; return the exit code."""
    for label, res in (("A", a), ("B", b)):
        if res["quick"] or res["traced"]:
            print(f"{label} is a --quick or --trace result: its end-to-end numbers mean nothing")
            return 2
    if a["host"]["seed"] != b["host"]["seed"]:
        print("A and B were run with different seeds (different inputs)")
        return 2
    print(f"A: {a['host']['git_sha']} dirty={a['host']['git_dirty']}   "
          f"B: {b['host']['git_sha']} dirty={b['host']['git_dirty']}")
    worse = False
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][w], b["workloads"][w]
        ca, cb = statistics.median(wa["canary_s"]), statistics.median(wb["canary_s"])
        drifted = abs(cb / ca - 1.0) > DRIFT
        print(f"{w}: canary p50 {ca:.4g} s -> {cb:.4g} s over "
              f"{len(wa['samples_s'])} / {len(wb['samples_s'])} samples")
        for m in DECLARED["end_to_end"]:
            va, vb = wa["metrics"][m["name"]]["value"], wb["metrics"][m["name"]]["value"]
            v = verdict(va, vb, m["bound"], m["better"])
            if drifted and m["name"] in TIMING:
                v = "unresolved (host drift)"
            worse |= v == "worse"
            print(f"  {m['name']:12s} A {va:10.4f}  B {vb:10.4f} {m['unit']:3s} "
                  f"B/A {vb / va:6.3f} (bound {m['bound']:.0%})  {v}")
        fa, fb = wa["failed"] / wa["attempted"], wb["failed"] / wb["attempted"]
        v = "worse" if fb > fa else "within bound"
        worse |= v == "worse"
        print(f"  {'fail_frac':12s} A {fa:10.4f}  B {fb:10.4f}     (any increase)  {v}")
    return int(worse)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(compare(*(json.loads(Path(p).read_text()) for p in sys.argv[1:])))
