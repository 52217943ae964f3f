"""Command-line figure regenerator.

Usage::

    python -m repro.bench --figure 8                  # one figure
    python -m repro.bench --all                       # every figure
    python -m repro.bench --figure 10 --machine knl --mode measured
    python -m repro.bench --figure 7 --scale-factor 2.0
    python -m repro.bench --figure 8 --mode measured --repeats 5 \
        --trace-dir results/traces                    # per-run artifacts
    python -m repro.bench --baseline BENCH_history.json  # regression gate

Prints the same rows/series/grids the paper's figures plot, as ASCII
tables (see ``benchmarks/`` for the asserting pytest harness).
``--repeats`` sets the timed repeats of measured-mode experiments;
``--trace-dir`` drops per-(scheme, case) Chrome-trace + metrics artifacts
there (the directory's parent must exist — a typo'd path is an error, not
a silently created tree).  ``--baseline`` skips the figures entirely and
runs the benchmark-history regression gate (:mod:`repro.bench.regress`)
against the given history file, propagating its exit code.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..machine import MACHINES
from . import experiments as exp
from .reporting import render_grid, render_profile, render_series

FIGURES = {
    7: "best scheme vs (mask density, input density) grid",
    8: "Triangle Counting profiles, our schemes",
    9: "Triangle Counting: ours vs SS:GB",
    10: "Triangle Counting GFLOPS vs R-MAT scale",
    11: "Triangle Counting strong scaling",
    12: "k-truss profiles, our schemes",
    13: "k-truss: ours vs SS:GB",
    14: "k-truss GFLOPS vs R-MAT scale",
    15: "Betweenness Centrality MTEPS vs R-MAT scale",
    16: "Betweenness Centrality profiles",
}


def run_figure(num: int, args) -> str:
    machine = MACHINES[args.machine]
    mode = args.mode
    sf = args.scale_factor
    if num == 7:
        res = exp.fig07_density_grid(machine=machine)
        return render_grid(
            "input_deg", "mask_deg", res.input_degrees, res.mask_degrees,
            res.winners, title=f"Figure 7 ({machine.name}, n={res.n})",
        )
    repeats = args.repeats
    trace_dir = args.trace_dir
    if num == 8:
        prof = exp.fig08_tc_profiles(mode=mode, machine=machine, scale_factor=sf,
                                     repeats=repeats, trace_dir=trace_dir)
        return render_profile(prof, title=f"Figure 8 — TC profiles ({mode})")
    if num == 9:
        prof = exp.fig09_tc_vs_ssgb(mode=mode, machine=machine, scale_factor=sf,
                                    repeats=repeats, trace_dir=trace_dir)
        return render_profile(prof, title=f"Figure 9 — TC vs SS:GB ({mode})")
    if num == 10:
        res = exp.fig10_tc_rmat_scaling(machine=machine, mode=mode)
        return render_series("scale", res.xs, res.series,
                             title=f"Figure 10 — TC GFLOPS ({machine.name})")
    if num == 11:
        res = exp.fig11_tc_strong_scaling(machine=machine)
        return render_series("threads", res.xs, res.series, fmt="{:.2f}",
                             title=f"Figure 11 — TC speedup ({machine.name})")
    if num == 12:
        prof = exp.fig12_ktruss_profiles(mode=mode, machine=machine,
                                         scale_factor=sf, repeats=repeats,
                                         trace_dir=trace_dir)
        return render_profile(prof, title=f"Figure 12 — k-truss profiles ({mode})")
    if num == 13:
        prof = exp.fig13_ktruss_vs_ssgb(mode=mode, machine=machine,
                                        scale_factor=sf, repeats=repeats,
                                        trace_dir=trace_dir)
        return render_profile(prof, title=f"Figure 13 — k-truss vs SS:GB ({mode})")
    if num == 14:
        res = exp.fig14_ktruss_rmat_scaling(machine=machine, mode=mode)
        return render_series("scale", res.xs, res.series,
                             title=f"Figure 14 — k-truss GFLOPS ({machine.name})")
    if num == 15:
        res = exp.fig15_bc_rmat_scaling(machine=machine, mode=mode,
                                        batch_size=args.bc_batch)
        return render_series("scale", res.xs, res.series,
                             title=f"Figure 15 — BC MTEPS ({machine.name})")
    if num == 16:
        prof = exp.fig16_bc_profiles(mode=mode, machine=machine,
                                     scale_factor=sf, batch_size=args.bc_batch,
                                     repeats=repeats, trace_dir=trace_dir)
        return render_profile(prof, title=f"Figure 16 — BC profiles ({mode})")
    raise ValueError(f"unknown figure {num}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
        epilog="Figures: " + "; ".join(f"{k}: {v}" for k, v in FIGURES.items()),
    )
    parser.add_argument("--figure", "-f", type=int, choices=sorted(FIGURES),
                        help="figure number to regenerate")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--mode", choices=("model", "measured"), default="model",
                        help="modeled machine time (default) or wall-clock")
    parser.add_argument("--machine", choices=sorted(MACHINES), default="haswell")
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="suite graph size multiplier")
    parser.add_argument("--bc-batch", type=int, default=32,
                        help="betweenness-centrality batch size")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timed repeats for measured-mode experiments")
    parser.add_argument("--trace-dir",
                        help="measured mode: write per-(scheme, case) trace "
                             "and metrics JSON artifacts here")
    parser.add_argument("--baseline",
                        help="run the history regression gate against this "
                             "BENCH_history.json instead of any figure")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if args.baseline is not None:
        from .regress import main as regress_main

        return regress_main(["--baseline", args.baseline,
                             "--repeats", str(args.repeats)])

    if not args.all and args.figure is None:
        parser.error("pass --figure N, --all, or --baseline")
    figures = sorted(FIGURES) if args.all else [args.figure]
    for num in figures:
        t0 = time.time()
        try:
            print(run_figure(num, args))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"[figure {num}: {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
