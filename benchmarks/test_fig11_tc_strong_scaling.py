"""Figure 11 — Triangle Counting strong scaling (thread count sweep) on an
R-MAT graph; paper: scale 20, 1-32 threads on Haswell and 1-68 on KNL.

Paper claim asserted: "all algorithms scaling well in all cases" — our
schemes reach near-linear speedup at the full core count of each machine.
The wall-clock series of the native MSA loop's in-kernel threads on this
host is printed beside the modeled Haswell curve at the same thread counts
(reported, not asserted: ``test_real_threads.py`` holds its gate).
"""

import pytest

from repro.bench import fig11_measured_threads, fig11_tc_strong_scaling, render_series
from repro.machine import HASWELL, KNL

THREADS = {
    "haswell": [1, 2, 4, 8, 16, 32],
    "knl": [1, 2, 4, 8, 17, 34, 68],
}


@pytest.mark.parametrize("machine", [HASWELL, KNL], ids=["haswell", "knl"])
def test_fig11_tc_strong_scaling(benchmark, machine, save_result):
    res = benchmark.pedantic(
        lambda: fig11_tc_strong_scaling(
            scale=13, machine=machine, thread_counts=THREADS[machine.name]
        ),
        rounds=1,
        iterations=1,
    )
    title = f"Figure 11 — TC strong scaling, R-MAT scale 13 ({machine.name})"
    save_result(
        render_series("threads", res.xs, res.series, title=title, fmt="{:.2f}"),
        data={"xs": res.xs, "series": res.series, "machine": machine.name},
        title=title,
    )

    full = res.xs[-1]
    for name, curve in res.series.items():
        # speedup starts at 1 and never exceeds the thread count
        assert curve[0] == pytest.approx(1.0)
        for p, s in zip(res.xs, curve):
            assert s <= p + 1e-6
        # monotone non-decreasing speedup
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:])), name

    # our row-parallel schemes scale near-linearly to the full machine
    for ours in ("MSA-1P", "Hash-1P", "MCA-1P", "Inner-1P"):
        assert res.series[ours][-1] >= 0.7 * full, (ours, res.series[ours][-1])

    # SS:DOT is held back by its serial per-call transpose (Amdahl)
    assert res.series["SS:DOT"][-1] < res.series["MSA-1P"][-1]


def test_fig11_measured_beside_modeled(benchmark, save_result):
    threads = [1, 2, 4]

    def run():
        modeled = fig11_tc_strong_scaling(scale=13, machine=HASWELL, thread_counts=threads)
        return modeled, fig11_measured_threads(thread_counts=threads)

    modeled, measured = benchmark.pedantic(run, rounds=1, iterations=1)
    series = {"Haswell MSA-1P (modeled)": modeled.series["MSA-1P"]}
    series.update({f"host {name} (measured)": curve for name, curve in measured.series.items()})
    title = "Figure 11 — TC strong scaling: modeled Haswell vs this host's in-kernel threads"
    save_result(render_series("threads", threads, series, title=title, fmt="{:.2f}"),
                data={"xs": threads, "series": series, "seconds": measured.seconds},
                title=title)
    assert all(curve[0] == pytest.approx(1.0) for curve in series.values())


def test_fig11_schedule_ablation(benchmark, save_result):
    """Ablation: OpenMP-style scheduling policies on the skewed R-MAT row
    profile — dynamic/guided must beat plain static blocks."""
    from repro.bench import tc_cases
    from repro.graphs import rmat
    from repro.machine import RowCostModel, simulate_makespan

    def run():
        g = rmat(12, seed=15)
        calls = tc_cases({"g": g})["g"]
        a, b, m, _ = calls[0]
        est = RowCostModel(a, b, m, HASWELL).estimate("msa")
        out = {}
        for sched in ("static", "cyclic", "dynamic", "guided"):
            out[sched] = simulate_makespan(
                est.row_cycles, 32, schedule=sched, chunk=4
            )
        return out

    spans = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Scheduling ablation (makespan cycles, 32 threads):"]
    for k, v in sorted(spans.items(), key=lambda kv: kv[1]):
        lines.append(f"  {k:8s} {v:.3e}")
    save_result("\n".join(lines))
    assert spans["dynamic"] <= spans["static"] + 1e-9
    assert spans["guided"] <= spans["static"] + 1e-9
