"""Observability CLI: the traced demo run (the CI acceptance run)::

    python -m repro.observe --scale 12 --backend process --out trace-artifacts

Runs one triangle count on an R-MAT graph under the requested backend with
tracing enabled, writes the Chrome trace-event JSON and the flat metrics
JSON into ``--out``, prints the plan-vs-measured report, and cross-checks
the traced run's operation counters bit-for-bit against an untraced serial
run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..apps import triangle_count_detail
from ..engine import Planner
from ..graphs import lower_by_degree, rmat
from ..machine import HASWELL, OpCounter
from ..parallel.pool import process_backend_available, shutdown_pool
from . import tracing, write_chrome_trace, write_metrics
from .report import report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.observe")
    parser.add_argument("--scale", type=int, default=12,
                        help="R-MAT scale (2^scale vertices)")
    parser.add_argument("--backend", default="process",
                        choices=("serial", "thread", "process"))
    parser.add_argument("--out", default="trace-artifacts",
                        help="directory for trace + metrics JSON")
    args = parser.parse_args(argv)

    if args.backend == "process" and not process_backend_available():
        print("process backend unavailable on this platform", file=sys.stderr)
        return 2

    g = rmat(args.scale, seed=1)
    low = lower_by_degree(g)
    # the plan the traced call builds (the host planner, TC's phases=1),
    # for the report's plan section
    pl = Planner().plan(low, low, low, phases=1, backend=args.backend)

    # untraced serial run: the counter/result ground truth
    ref_counter = OpCounter()
    ref = triangle_count_detail(g, algo="auto", backend="serial",
                                counter=ref_counter)
    ref_triangles = ref.triangles

    counter = OpCounter()
    with tracing() as tr:
        res = triangle_count_detail(
            g, algo="auto", backend=args.backend, counter=counter
        )
    if args.backend == "process":
        shutdown_pool()

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "tc_rmat.trace.json")
    metrics_path = os.path.join(args.out, "tc_rmat.metrics.json")
    write_chrome_trace(trace_path, tr)
    write_metrics(metrics_path, tr, machine=HASWELL)

    print(report(tr, plan=pl))
    pids = sorted({sp.pid for sp in tr.spans})
    print(f"\nspans: {len(tr.spans)} across pids {pids}")
    print(f"trace  -> {trace_path}")
    print(f"metrics-> {metrics_path}")

    ok = True
    if res.triangles != ref_triangles:
        print(f"MISMATCH: traced {res.triangles} triangles, "
              f"serial reference {ref_triangles}", file=sys.stderr)
        ok = False
    if counter.as_dict() != ref_counter.as_dict():
        print("MISMATCH: traced-run counters differ from the serial "
              "reference:", file=sys.stderr)
        print(json.dumps({"traced": counter.as_dict(),
                          "serial": ref_counter.as_dict()}, indent=1),
              file=sys.stderr)
        ok = False
    if args.backend == "process" and len(pids) < 3:  # coordinator + 2 workers
        print(f"MISMATCH: expected spans from >=2 worker processes, "
              f"got pids {pids}", file=sys.stderr)
        ok = False
    print("counter totals match the serial reference" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
