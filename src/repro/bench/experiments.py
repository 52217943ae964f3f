"""Per-figure experiment definitions.

One function per evaluation figure of the paper (see DESIGN.md's
per-experiment index).  Each returns a plain-data result object that the
``benchmarks/`` harness prints (via :mod:`repro.bench.reporting`) and
asserts the paper's qualitative shape on.  Parameters default to
laptop-scale versions of the paper's settings; every knob is exposed so a
beefier machine can push toward the paper's sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..machine import (
    HASWELL,
    MachineConfig,
    RowCostModel,
    simulate_makespan,
    speedup_curve,
    total_flops,
)
from ..semiring import PLUS_PAIR
from ..sparse import CSR
from ..graphs import erdos_renyi, load_all, lower_by_degree, rmat, suite_names
from ..apps import betweenness_centrality, ktruss, triangle_count_detail
from ..core.leaf import run_kernel
from .perfprofile import PerformanceProfile, performance_profile
from .runner import (
    Call,
    OUR_SCHEMES,
    OUR_SCHEMES_1P,
    SSGB_SCHEMES,
    Scheme,
    modeled_seconds,
    run_cases,
)

__all__ = [
    "fig07_density_grid",
    "fig08_tc_profiles",
    "fig09_tc_vs_ssgb",
    "fig10_tc_rmat_scaling",
    "fig11_measured_threads",
    "fig11_tc_strong_scaling",
    "fig12_ktruss_profiles",
    "fig13_ktruss_vs_ssgb",
    "fig14_ktruss_rmat_scaling",
    "fig15_bc_rmat_scaling",
    "fig16_bc_profiles",
    "BC_SUITE_EXCLUDE",
    "DensityGridResult",
    "ScalingResult",
    "tc_cases",
    "ktruss_cases",
    "bc_cases",
]


# ----------------------------------------------------------------------
# case builders: app -> list of masked SpGEMM calls per graph
# ----------------------------------------------------------------------
def tc_cases(graphs: Dict[str, CSR]) -> Dict[str, List[Call]]:
    """Triangle counting: one masked SpGEMM (L .* (L@L)) per graph."""
    cases = {}
    for name, g in graphs.items():
        log: List[Call] = []
        triangle_count_detail(g, algo="msa", call_log=log)
        cases[name] = log
    return cases


def ktruss_cases(graphs: Dict[str, CSR], k: int = 5) -> Dict[str, List[Call]]:
    """k-truss: the paper's ``(A, A, A)`` call per pruning round per graph
    (``delta=None``: the shipped default multiplies the whole graph once)."""
    cases = {}
    for name, g in graphs.items():
        log: List[Call] = []
        ktruss(g, k, algo="msa", call_log=log, delta=None)
        cases[name] = log
    return cases


def bc_cases(
    graphs: Dict[str, CSR], batch_size: int = 64, seed: int = 1
) -> Dict[str, List[Call]]:
    """Betweenness centrality: forward (complemented) + backward calls."""
    cases = {}
    for name, g in graphs.items():
        log: List[Call] = []
        betweenness_centrality(g, batch_size=batch_size, algo="msa", seed=seed,
                               call_log=log)
        cases[name] = log
    return cases


# ----------------------------------------------------------------------
# Figure 7: best scheme vs (mask density, input density)
# ----------------------------------------------------------------------
@dataclass
class DensityGridResult:
    """Winner per (input degree, mask degree) cell plus the full times."""

    input_degrees: List[int]
    mask_degrees: List[int]
    winners: Dict[Tuple[int, int], str]  #: (input_deg, mask_deg) -> scheme
    times: Dict[Tuple[int, int], Dict[str, float]]
    n: int
    machine: str

    def winner_set(self) -> set:
        return set(self.winners.values())


def fig07_density_grid(
    *,
    n: int = 4096,
    degrees: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    machine: MachineConfig = HASWELL,
    schemes: Optional[Sequence[Scheme]] = None,
    seed: int = 0,
) -> DensityGridResult:
    """Paper Figure 7: Erdős–Rényi inputs, sweep mask degree (x) and input
    degree (y), record the best-performing scheme per cell (cost model)."""
    schemes = list(schemes) if schemes is not None else list(OUR_SCHEMES_1P)
    winners: Dict[Tuple[int, int], str] = {}
    times: Dict[Tuple[int, int], Dict[str, float]] = {}
    for d_in in degrees:
        a = erdos_renyi(n, n, d_in, seed=seed + d_in)
        b = erdos_renyi(n, n, d_in, seed=seed + d_in + 1000)
        for d_m in degrees:
            m = erdos_renyi(n, n, d_m, seed=seed + d_m + 2000)
            model = RowCostModel(a, b, m, machine)
            cell: Dict[str, float] = {}
            for s in schemes:
                est = model.estimate(s.algo, phases=s.phases)
                span = simulate_makespan(est.row_cycles, machine.cores)
                cell[s.name] = machine.seconds(span + est.pre_cycles)
            times[(d_in, d_m)] = cell
            winners[(d_in, d_m)] = min(cell, key=cell.get)
    return DensityGridResult(
        input_degrees=list(degrees),
        mask_degrees=list(degrees),
        winners=winners,
        times=times,
        n=n,
        machine=machine.name,
    )


# ----------------------------------------------------------------------
# Figures 8/9, 12/13, 16: performance profiles over the suite
# ----------------------------------------------------------------------
def _suite_graphs(names: Optional[Sequence[str]], scale_factor: float) -> Dict[str, CSR]:
    return load_all(scale_factor, names=list(names) if names else None)


def fig08_tc_profiles(
    *,
    suite: Optional[Sequence[str]] = None,
    scale_factor: float = 1.0,
    mode: str = "model",
    machine: MachineConfig = HASWELL,
    schemes: Optional[Sequence[Scheme]] = None,
    repeats: int = 1,
    trace_dir: Optional[str] = None,
) -> PerformanceProfile:
    """Figure 8: TC performance profiles of our 12 schemes."""
    graphs = _suite_graphs(suite, scale_factor)
    cases = tc_cases(graphs)
    schemes = list(schemes) if schemes is not None else list(OUR_SCHEMES)
    if mode == "measured":
        schemes = [s for s in schemes if s.fast]
    times = run_cases(cases, schemes, mode=mode, machine=machine,
                      semiring=PLUS_PAIR, repeats=repeats, trace_dir=trace_dir)
    return performance_profile(times)


def fig09_tc_vs_ssgb(
    *,
    suite: Optional[Sequence[str]] = None,
    scale_factor: float = 1.0,
    mode: str = "model",
    machine: MachineConfig = HASWELL,
    repeats: int = 1,
    trace_dir: Optional[str] = None,
) -> PerformanceProfile:
    """Figure 9: our best TC schemes vs SS:DOT / SS:SAXPY."""
    graphs = _suite_graphs(suite, scale_factor)
    cases = tc_cases(graphs)
    ours = [s for s in OUR_SCHEMES_1P if s.name in ("MSA-1P", "MCA-1P", "Inner-1P", "Hash-1P")]
    times = run_cases(cases, ours + SSGB_SCHEMES, mode=mode, machine=machine,
                      semiring=PLUS_PAIR, repeats=repeats, trace_dir=trace_dir)
    return performance_profile(times)


def fig12_ktruss_profiles(
    *,
    suite: Optional[Sequence[str]] = None,
    scale_factor: float = 1.0,
    k: int = 5,
    mode: str = "model",
    machine: MachineConfig = HASWELL,
    schemes: Optional[Sequence[Scheme]] = None,
    repeats: int = 1,
    trace_dir: Optional[str] = None,
) -> PerformanceProfile:
    """Figure 12: k-truss performance profiles of our schemes."""
    graphs = _suite_graphs(suite, scale_factor)
    cases = ktruss_cases(graphs, k)
    schemes = list(schemes) if schemes is not None else list(OUR_SCHEMES)
    if mode == "measured":
        schemes = [s for s in schemes if s.fast]
    times = run_cases(cases, schemes, mode=mode, machine=machine,
                      semiring=PLUS_PAIR, repeats=repeats, trace_dir=trace_dir)
    return performance_profile(times)


def fig13_ktruss_vs_ssgb(
    *,
    suite: Optional[Sequence[str]] = None,
    scale_factor: float = 1.0,
    k: int = 5,
    mode: str = "model",
    machine: MachineConfig = HASWELL,
    repeats: int = 1,
    trace_dir: Optional[str] = None,
) -> PerformanceProfile:
    """Figure 13: our best k-truss schemes vs SS:GB."""
    graphs = _suite_graphs(suite, scale_factor)
    cases = ktruss_cases(graphs, k)
    ours = [s for s in OUR_SCHEMES_1P if s.name in ("MSA-1P", "Inner-1P", "Hash-1P", "MCA-1P")]
    times = run_cases(cases, ours + SSGB_SCHEMES, mode=mode, machine=machine,
                      semiring=PLUS_PAIR, repeats=repeats, trace_dir=trace_dir)
    return performance_profile(times)


#: Long-diameter suite graphs excluded from BC by default: level-synchronous
#: BFS needs thousands of iterations on them — the analogue of the paper
#: excluding cage15, delaunay_n24 and wb-edu "for their long running time".
BC_SUITE_EXCLUDE = frozenset({
    "road-s", "road-l", "grid2d-s", "grid2d-l", "grid2d-diag",
    "grid3d-s", "grid3d-l",
})


def fig16_bc_profiles(
    *,
    suite: Optional[Sequence[str]] = None,
    scale_factor: float = 1.0,
    batch_size: int = 64,
    mode: str = "model",
    machine: MachineConfig = HASWELL,
    repeats: int = 1,
    trace_dir: Optional[str] = None,
) -> PerformanceProfile:
    """Figure 16: BC profiles — schemes that support complement (the paper
    drops MCA, and excludes Heap/Inner/SS:DOT as prohibitively slow; we keep
    SS:SAXPY and our MSA/Hash 1P/2P)."""
    if suite is None:
        suite = [g for g in suite_names() if g not in BC_SUITE_EXCLUDE]
    graphs = _suite_graphs(suite, scale_factor)
    cases = bc_cases(graphs, batch_size=batch_size)
    keep = [s for s in OUR_SCHEMES if s.algo in ("msa", "hash")]
    keep += [s for s in SSGB_SCHEMES if s.name == "SS:SAXPY"]
    times = run_cases(cases, keep, mode=mode, machine=machine,
                      repeats=repeats, trace_dir=trace_dir)
    return performance_profile(times)


# ----------------------------------------------------------------------
# Figures 10/14/15: R-MAT scale sweeps; Figure 11: strong scaling
# ----------------------------------------------------------------------
@dataclass
class ScalingResult:
    """One curve per scheme over an x-axis (scale or threads)."""

    x_label: str
    xs: List[int]
    series: Dict[str, List[float]] = field(default_factory=dict)
    unit: str = ""
    machine: str = ""
    #: wall-clock seconds behind a measured series (same keys and xs)
    seconds: Dict[str, List[float]] = field(default_factory=dict)


def _rmat_graphs(scales: Sequence[int], seed: int = 3) -> Dict[str, CSR]:
    return {f"rmat-{s}": rmat(s, seed=seed + s) for s in scales}


def fig10_tc_rmat_scaling(
    *,
    scales: Sequence[int] = (6, 7, 8, 9, 10, 11, 12),
    machine: MachineConfig = HASWELL,
    mode: str = "model",
    schemes: Optional[Sequence[Scheme]] = None,
) -> ScalingResult:
    """Figure 10: TC GFLOPS vs R-MAT scale (paper: scales 8-20)."""
    schemes = list(schemes) if schemes is not None else (
        [s for s in OUR_SCHEMES_1P if s.name in ("MSA-1P", "Hash-1P", "MCA-1P", "Inner-1P")]
        + SSGB_SCHEMES
    )
    res = ScalingResult("scale", list(scales), unit="GFLOPS", machine=machine.name)
    graphs = _rmat_graphs(scales)
    cases = tc_cases(graphs)
    for s in schemes:
        curve = []
        for sc in scales:
            calls = cases[f"rmat-{sc}"]
            fl = sum(2 * total_flops(a, b) for a, b, _, _ in calls)
            if mode == "model":
                secs = modeled_seconds(s, calls, machine=machine)
            else:
                from .runner import measured_seconds

                secs = measured_seconds(s, calls, semiring=PLUS_PAIR)
            curve.append(fl / secs / 1e9 if secs > 0 else float("nan"))
        res.series[s.name] = curve
    return res


def fig11_tc_strong_scaling(
    *,
    scale: int = 13,
    machine: MachineConfig = HASWELL,
    thread_counts: Optional[Sequence[int]] = None,
    schemes: Optional[Sequence[Scheme]] = None,
    schedule: str = "dynamic",
    chunk: int = 4,
) -> ScalingResult:
    """Figure 11: TC strong scaling on one R-MAT graph (paper: scale 20,
    1..32 threads on Haswell / 1..68 on KNL)."""
    if thread_counts is None:
        thread_counts = [1, 2, 4, 8, 16, machine.cores]
    schemes = list(schemes) if schemes is not None else (
        [s for s in OUR_SCHEMES_1P if s.name in ("MSA-1P", "Hash-1P", "MCA-1P", "Inner-1P")]
        + SSGB_SCHEMES
    )
    g = rmat(scale, seed=3 + scale)
    calls = tc_cases({"g": g})["g"]
    a, b, m, _ = calls[0]
    res = ScalingResult("threads", [int(t) for t in thread_counts],
                        unit="speedup", machine=machine.name)
    for s in schemes:
        model = RowCostModel(a, b, m, machine)
        est = model.estimate(s.algo, phases=s.phases)
        curve = speedup_curve(est.row_cycles, thread_counts, schedule=schedule,
                              chunk=chunk, serial_cycles=est.pre_cycles)
        res.series[s.name] = [curve[int(t)] for t in thread_counts]
    return res


def fig11_measured_threads(
    *,
    scales: Sequence[int] = (14, 15, 16, 17),
    thread_counts: Sequence[int] = (1, 2, 4),
) -> ScalingResult:
    """Figure 11 in wall clock on this host: the ``msa`` kernel of R-MAT
    triangle counting (``L .* (L @ L)``, PLUS_PAIR) at each in-kernel thread
    count — the native row loop's own threads, no backend, no row parts.
    Best of 5, the counts interleaved and every timed call after an
    untimed one.  ``series`` holds one speedup curve over one thread per
    scale, ``seconds`` the best times; a count whose CSR bytes differ from
    one thread's raises ``AssertionError``."""
    res = ScalingResult("threads", [int(t) for t in thread_counts], unit="speedup",
                        machine="host")
    for scale in scales:
        low = lower_by_degree(rmat(scale, seed=3))
        best: Dict[int, float] = {}
        want = None  # the first count's bytes
        for _ in range(5):
            for p in res.xs:
                run_kernel(low, low, low, algo="msa", semiring=PLUS_PAIR, nthreads=p)
                t0 = time.perf_counter()
                c = run_kernel(low, low, low, algo="msa", semiring=PLUS_PAIR, nthreads=p)
                best[p] = min(best.get(p, np.inf), time.perf_counter() - t0)
                got = tuple(x.tobytes() for x in (c.indptr, c.indices, c.data))
                want = got if want is None else want
                if got != want:
                    raise AssertionError(f"rmat-{scale}: {p} threads changed the bytes")
        res.series[f"rmat-{scale}"] = [best[res.xs[0]] / best[p] for p in res.xs]
        res.seconds[f"rmat-{scale}"] = [best[p] for p in res.xs]
    return res


def fig14_ktruss_rmat_scaling(
    *,
    scales: Sequence[int] = (6, 7, 8, 9, 10, 11),
    k: int = 5,
    machine: MachineConfig = HASWELL,
    mode: str = "model",
    schemes: Optional[Sequence[Scheme]] = None,
) -> ScalingResult:
    """Figure 14: k-truss GFLOPS vs R-MAT scale."""
    schemes = list(schemes) if schemes is not None else (
        [s for s in OUR_SCHEMES_1P if s.name in ("MSA-1P", "Hash-1P", "Inner-1P", "MCA-1P")]
        + SSGB_SCHEMES
    )
    res = ScalingResult("scale", list(scales), unit="GFLOPS", machine=machine.name)
    graphs = _rmat_graphs(scales)
    cases = ktruss_cases(graphs, k)
    for s in schemes:
        curve = []
        for sc in scales:
            calls = cases[f"rmat-{sc}"]
            fl = sum(2 * total_flops(a, b) for a, b, _, _ in calls)
            if mode == "model":
                secs = modeled_seconds(s, calls, machine=machine)
            else:
                from .runner import measured_seconds

                secs = measured_seconds(s, calls, semiring=PLUS_PAIR)
            curve.append(fl / secs / 1e9 if secs > 0 else float("nan"))
        res.series[s.name] = curve
    return res


def fig15_bc_rmat_scaling(
    *,
    scales: Sequence[int] = (6, 7, 8, 9, 10),
    batch_size: int = 64,
    machine: MachineConfig = HASWELL,
    mode: str = "model",
    schemes: Optional[Sequence[Scheme]] = None,
) -> ScalingResult:
    """Figure 15: BC MTEPS vs R-MAT scale (paper: batch 512, scales 8-20)."""
    if schemes is None:
        schemes = [s for s in OUR_SCHEMES_1P if s.algo in ("msa", "hash")]
        schemes += [s for s in SSGB_SCHEMES]
    res = ScalingResult("scale", list(scales), unit="MTEPS", machine=machine.name)
    graphs = _rmat_graphs(scales)
    cases = bc_cases(graphs, batch_size=batch_size)
    for s in schemes:
        curve = []
        for sc in scales:
            calls = cases[f"rmat-{sc}"]
            g = graphs[f"rmat-{sc}"]
            needs_complement = any(c[3] for c in calls)
            if needs_complement and not s.supports_complement:
                curve.append(float("nan"))
                continue
            if mode == "model":
                secs = modeled_seconds(s, calls, machine=machine)
            else:
                from .runner import measured_seconds

                secs = measured_seconds(s, calls)
            teps = batch_size * g.nnz / secs if secs > 0 else float("nan")
            curve.append(teps / 1e6)
        res.series[s.name] = curve
    return res
