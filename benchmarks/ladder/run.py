"""The masked-SpGEMM ladder: run the workloads, check every result against
the oracle, print every metric by name with its unit.

    python3 benchmarks/ladder/run.py --seed 1                 # all workloads, end-to-end
    python3 benchmarks/ladder/run.py --seed 1 --trace 1       # per-layer rungs
    python3 benchmarks/ladder/run.py --workload bc-rmat --seed 7 --seconds 10 --trace 0

Closed loop, one client, one call in flight.  Each workload is measured in
``ROUNDS`` fresh interpreters (``one_round.py``), interleaved round-robin
across the selected workloads so a slow period of the host hits them
alike; ``--seconds`` is the timed budget per workload, split over its
rounds.  End-to-end metrics come from untraced rounds only; ``--trace 1``
runs one traced round per workload instead and reports the per-layer
metrics.  Metric names, units and bounds live in ``BENCHMARK.json``; this
file refuses to emit a set of names that differs from the declared one.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from rungs import cores

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT_DIR = ROOT / "benchmarks" / "results" / "ladder"

ROUNDS = 4
CHILD_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_round(workload: str, seed: int, budget: float, quick: bool, trace_path=None) -> dict:
    """One fresh-interpreter round; returns the child's JSON plus
    ``setup_s`` (spawn -> first verified-or-not result, on the parent's
    monotonic clock, which child processes share)."""
    cmd = [sys.executable, str(HERE / "one_round.py"), "--workload", workload,
           "--seed", str(seed), "--budget", f"{budget:.3f}"]
    if quick:
        cmd.append("--quick")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    env = {**os.environ, **{k: "1" for k in PINNED}, "PYTHONHASHSEED": "0"}
    spawned = time.monotonic()
    # own process group: pool workers of a child that died are reaped too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"round of {workload} exited with {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_first"] - spawned if out["t_first"] is not None else None
    return out


def end_to_end(rounds: list) -> dict:
    """Pool the rounds of one workload into the end-to-end metrics."""
    # each timed call over the canary call that ran just before it: slow
    # periods of the host shorter than a round cancel inside the quotient
    quotients = [s / c for r in rounds for s, c in zip(r["samples"], r["canary"])]
    return {
        "call_x_p50": statistics.median(quotients),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }


def host_block(seed: int) -> dict:
    import numpy
    import scipy

    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "cores": cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def report(workload: str, kind: str, values: dict, skipped: dict) -> dict:
    """Print the ``kind`` metrics of one workload by name with unit and
    return them in the contract's ``{"value", "unit"}`` form.  A skipped
    rung prints as null with its reason; the contract line wants a number
    for every declared name, so it carries 0 there (only timings are ever
    skipped, and no timing measures 0)."""
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    if set(values) | set(skipped) != set(declared):
        odd = sorted((set(values) | set(skipped)) ^ set(declared))
        raise SystemExit(f"{workload}: emitted and declared {kind} metrics differ: {odd}")
    out = {}
    for name, unit in declared.items():
        if name in skipped:
            print(f"{workload:16s} {name:32s} null  # {skipped[name]}")
            out[name] = {"value": 0, "unit": unit}
        else:
            shown = values[name] if isinstance(values[name], int) else f"{values[name]:.6g}"
            print(f"{workload:16s} {name:32s} {shown} {unit}")
            out[name] = {"value": values[name], "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [w["name"] for w in DECLARED["workloads"]]
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DECLARED["run_seconds"],
                    help="timed seconds per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: scales reduced by 2, 1 round, 3 timed calls")
    ap.add_argument("--out", type=Path,
                    help="result file (default: under benchmarks/results/ladder)")
    args = ap.parse_args(argv)
    selected = args.workload or names
    traced = bool(args.trace)
    n_rounds = 1 if (args.quick or traced) else ROUNDS
    # a traced round samples like one untraced round, then runs its rungs
    budget = 0.0 if args.quick else args.seconds / ROUNDS

    rounds = {w: [] for w in selected}
    for _ in range(n_rounds):
        for w in selected:
            path = OUT_DIR / f"{w}.trace.json" if traced else None
            rounds[w].append(run_round(w, args.seed, budget, args.quick, path))

    result = {"host": host_block(args.seed), "quick": args.quick, "traced": traced,
              "seconds": args.seconds, "workloads": {}}
    lines = {}
    for w in selected:
        rs = rounds[w]
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        if traced:
            metrics = report(w, "per_layer", rs[0]["layers"], rs[0]["skipped"])
        else:
            metrics = report(w, "end_to_end", end_to_end(rs), {})
            print(f"{w:16s} {'fail_frac':32s} {failed / attempted:.6g} fraction"
                  f"  ({failed} of {attempted} calls)")
        lines[w] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}
        result["workloads"][w] = {
            **lines[w],
            "skipped": rs[0].get("skipped", {}),
            "setup_s_rounds": [r["setup_s"] for r in rs],
            "samples_s": [s for r in rs for s in r["samples"]],
            "canary_s": [s for r in rs for s in r["canary"]],
        }
    out = args.out or OUT_DIR / "{}seed{}{}{}.json".format(
        "quick-" if args.quick else "", args.seed,
        "-trace" if traced else "", "" if not args.workload else "-" + "+".join(selected))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    print(json.dumps(lines[selected[0]] if len(selected) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
