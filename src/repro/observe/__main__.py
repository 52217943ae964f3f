"""Observability CLI: the traced demo run and the live runtime inspector.

Traced demo (the CI acceptance run)::

    python -m repro.observe --scale 12 --backend process --out trace-artifacts

Runs one triangle count on an R-MAT graph under the requested backend with
tracing enabled, writes the Chrome trace-event JSON and the flat metrics
JSON into ``--out``, prints the plan-vs-measured report, and cross-checks
the traced run's operation counters bit-for-bit against an untraced serial
run.

Live inspector::

    python -m repro.observe top --scale 10 --backend process
    python -m repro.observe top --json --iterations 3 > runtime.ndjson

Drives a sessioned 2x2-grid triangle-count workload while a
:class:`~repro.observe.runtime.RuntimeSampler` runs, and refreshes a
terminal dashboard (fleet table, sparkline series, cache/arena gauges)
every sampling interval.  ``--json`` swaps the dashboard for
newline-delimited :meth:`~repro.observe.runtime.RuntimeSampler.snapshot`
dicts — the machine-readable stream CI archives as an artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

from ..apps import triangle_count_detail
from ..engine import Planner
from ..graphs import lower_by_degree, rmat
from ..machine import HASWELL, OpCounter
from ..parallel.pool import process_backend_available, shutdown_pool
from . import tracing, write_chrome_trace, write_metrics
from .report import report
from .runtime import format_top, sampling


def trace_main(argv=None) -> int:
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
    # the same plan the auto path will build, for the report's plan section
    pl = Planner(HASWELL).plan(low, low, low, backend=args.backend)

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


def top_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.observe top")
    parser.add_argument("--scale", type=int, default=10,
                        help="R-MAT scale of the driven workload")
    parser.add_argument("--backend", default="process",
                        choices=("serial", "thread", "process"))
    parser.add_argument("--shards", type=int, nargs=2, default=(2, 2),
                        metavar=("R", "C"),
                        help="grid (row blocks, column panels) of the "
                             "driven workload")
    parser.add_argument("--iterations", type=int, default=0,
                        help="sessioned TC calls to drive (0 = by --duration)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="seconds to drive when --iterations is 0")
    parser.add_argument("--interval", type=float, default=0.25,
                        help="sampling + refresh interval in seconds")
    parser.add_argument("--json", action="store_true",
                        help="stream newline-delimited snapshots instead of "
                             "the dashboard")
    args = parser.parse_args(argv)

    backend = args.backend
    if backend == "process" and not process_backend_available():
        print("process backend unavailable; driving the thread backend",
              file=sys.stderr)
        backend = "thread"

    from ..core import masked_spgemm
    from ..engine import ExecutionSession
    from ..semiring import PLUS_PAIR

    g = rmat(args.scale, seed=1)
    low = lower_by_degree(g)
    errors: list = []
    stop = threading.Event()

    def drive() -> None:
        # the sessioned grid TC workload (docs/parallel.md): several pool
        # tasks per call, so every series — shm, queue depth, worker
        # heartbeats, segment-cache occupancy — has something to show
        try:
            with ExecutionSession() as session:
                t0 = time.perf_counter()
                i = 0
                while not stop.is_set():
                    masked_spgemm(
                        low, low, low, algo="msa",
                        shards=tuple(args.shards), backend=backend,
                        semiring=PLUS_PAIR, session=session,
                    )
                    i += 1
                    if args.iterations and i >= args.iterations:
                        break
                    if (not args.iterations
                            and time.perf_counter() - t0 >= args.duration):
                        break
        except Exception as exc:  # surfaced after the render loop
            errors.append(exc)

    worker = threading.Thread(target=drive, name="repro-top-workload")
    with sampling(interval_s=args.interval) as rt:
        worker.start()
        try:
            while worker.is_alive():
                worker.join(timeout=args.interval)
                if args.json:
                    print(json.dumps(rt.snapshot()), flush=True)
                else:
                    # ANSI clear + home, like top(1); harmless when piped
                    sys.stdout.write("\x1b[2J\x1b[H" + format_top(rt) + "\n")
                    sys.stdout.flush()
        except KeyboardInterrupt:
            stop.set()
            worker.join()
        # one final frame after the workload ends, with the last sample
        rt.sample_once()
        if args.json:
            print(json.dumps(rt.snapshot()), flush=True)
        else:
            print(format_top(rt))
    if backend == "process":
        shutdown_pool()
    if errors:
        print(f"workload failed: {errors[0]!r}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "top":
        return top_main(argv[1:])
    return trace_main(argv)


if __name__ == "__main__":
    sys.exit(main())
