"""One round of one workload in a fresh interpreter (``run.py``'s child).

import ``repro`` -> generate inputs from the seed -> cold first call ->
oracle check (untimed) -> one warm-up call -> timed calls, each preceded
by one canary call -> read RSS -> shut the pool down.  With ``--trace`` the
per-layer rungs of :mod:`rungs` follow.  The last stdout line is one JSON
object for the parent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

MIN_CALLS = 3  # timed calls per round, however short the budget


def vm_hwm_mb(pid) -> float:
    """Peak resident set of ``pid`` in MB (``VmHWM``); for this process,
    ``ru_maxrss`` where ``/proc`` is absent."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def measure(w, budget_s: float, min_calls: int = MIN_CALLS) -> dict:
    """Run the round's calls on workload ``w`` and account for each.

    A call fails when it raises, when the round's first result mismatches
    the oracle, or when a later result differs from that first verified
    one (so nothing can pass once the first result was wrong).  Only the
    call itself is inside the timed region.
    """
    out = {"attempted": 0, "failed": 0, "samples": [], "canary": []}
    first = []  # [digest] once the first result passed the oracle

    def attempt(verify):
        out["attempted"] += 1
        t0 = time.perf_counter()
        try:
            result = w.call()
            dt = time.perf_counter() - t0
            done = time.monotonic()
            ok = verify(result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out["failed"] += 1
            return None, None
        if not ok:
            out["failed"] += 1
            return None, done
        return dt, done

    def against_oracle(result):
        if w.check(result):
            first.append(w.digest(result))
        return bool(first)

    def against_first(result):
        return bool(first) and w.digest(result) == first[0]

    out["cold_s"], out["t_first"] = attempt(against_oracle)
    attempt(against_first)  # warm-up
    w.canary()  # builds the canary's scipy operands
    deadline = time.perf_counter() + budget_s
    calls = 0
    while calls < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        w.canary()
        canary_s = time.perf_counter() - t0
        dt, _ = attempt(against_first)
        calls += 1
        if dt is not None:
            out["samples"].append(dt)
            out["canary"].append(canary_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="timed seconds")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace", metavar="PATH", help="also run the rungs; spans go to PATH")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import repro  # noqa: F401 - timed: part of the user's set-up cost
    from repro.parallel import pool, shm

    import workloads

    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    w = workloads.build(args.workload, args.seed, quick=args.quick)
    generate_s = time.perf_counter() - t0

    out = measure(w, args.budget)
    out.update(import_s=import_s, generate_s=generate_s, pool_workers=pool.pool_size())
    out["worker_rss_mb"] = sum(vm_hwm_mb(pid) for pid in pool.pool_pids())
    out["rss_mb"] = vm_hwm_mb("self") + out["worker_rss_mb"]
    if args.trace:
        import rungs

        out.update(rungs.trace(w, out, Path(args.trace)))
    pool.shutdown_pool()
    out["leaked_segments"] = len(shm.active_segments())
    if out["leaked_segments"]:
        out["failed"] = min(out["attempted"], out["failed"] + 1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
