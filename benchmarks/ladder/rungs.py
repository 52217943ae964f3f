"""Per-layer rungs of the traced run.

The app call is run with ``call_log=[]`` to record its ``(a, b, mask,
complement)`` operand triples; every rung is then a call into one layer's
public function on those same operands, wrapped in a span.  A rung's value
is the median of ``REPS`` repetitions, each summed over the triples; a
rung whose first repetition takes longer than ``SLOW_S`` runs once, so the
traced run stays inside the benchmark's time budget.  Rungs that cannot
run here are reported in ``skipped`` with a reason, never as a number.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

import workloads
from spans import Recorder, duration

REPS = 3
SLOW_S = 0.25
TRACED_CALLS = 5  # plain/traced call pairs behind bench.trace_overhead_frac
#: the 2P symbolic sweep costs ~0.2-0.5 us per flop(AB) here; above this many
#: flops the rung alone would outlast the rest of the traced run
TWO_PHASE_MAX_FLOPS = 20_000_000
#: forced-algorithm rungs, msa first: its outputs are the other rungs' reference
ALGOS = ("msa", "hash", "mca", "inner", "esc")
#: masked_spgemm(algo="auto", **kwargs) rungs: name, kwargs, needs >= 2 cores
AUTO_RUNGS = (
    ("engine.auto_s", {}, False),
    ("parallel.serial_s", {"backend": "serial"}, False),
    ("parallel.thread_s", {"backend": "thread"}, True),
    ("parallel.process_s", {"backend": "process"}, True),
    ("parallel.shards2x2_s", {"shards": (2, 2)}, True),
)


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def trace(w, rnd: dict, span_path: Path) -> dict:
    """Run every rung on workload ``w``; ``rnd`` is the round's untraced
    measurement.  Returns ``{"layers": name -> value, "skipped": name ->
    reason}`` plus the extra attempted/failed counts of the rung calls."""
    import repro.semiring
    from repro import engine
    from repro.baselines import scipy_masked_spgemm
    from repro.core import masked_spgemm, supports_complement
    from repro.graphs import relabel_by_degree
    from repro.machine import OpCounter, total_flops
    from repro.parallel import pool, shm
    from repro.sparse import CSC, CSR

    sr = getattr(repro.semiring, w.semiring)
    rec = Recorder(w.name)
    val: Dict[str, float] = {}
    skipped: Dict[str, str] = {}
    acct = {"attempted": 0, "failed": 0}

    def timed(name: str, fn: Callable[[], object], verify=None, warm: bool = False) -> float:
        """Median seconds of ``fn`` under a ``name`` span (one ``rep`` child
        span per repetition); ``verify`` sees each return value untimed.
        ``warm`` runs ``fn`` once first, untimed: rungs that may respawn the
        worker pool would otherwise time the spawn, not the call."""
        if warm:
            fn()
        times: List[float] = []
        with rec.span(name):
            for _ in range(REPS):
                with rec.span("rep") as sp:
                    got = fn()
                times.append(duration(sp))
                if verify is not None:
                    verify(got)
                if times[0] > SLOW_S:
                    break
        val[name] = statistics.median(times)
        return val[name]

    def checked(result) -> None:
        acct["attempted"] += 1
        acct["failed"] += not w.check(result)

    # ---- apps: plain and traced calls alternate, each after a canary call
    # like the round's timed calls, so the quotient of each pair is tracing
    # overhead and not host drift; the traced call records the operand triples
    plain: List[float] = []
    plain_canary: List[float] = []
    traced: List[float] = []
    with rec.span("apps.call_traced"):
        for _ in range(TRACED_CALLS):
            t0 = time.perf_counter()
            w.canary()
            t1 = time.perf_counter()
            result = w.call()
            plain.append(time.perf_counter() - t1)
            plain_canary.append(t1 - t0)
            checked(result)
            w.canary()
            triples: list = []
            counter = OpCounter()
            with rec.span("rep") as sp:
                result = w.call(call_log=triples, counter=counter)
            traced.append(duration(sp))
            checked(result)
    samples, canary = rnd["samples"] + plain, rnd["canary"] + plain_canary
    p50 = statistics.median(samples)
    big = max((t[i] for t in triples for i in range(3)), key=lambda m: m.nnz)
    flops = sum(total_flops(a, b) for a, b, _, _ in triples)
    val["apps.call_s_p50"] = p50
    val["apps.call_x_p75"] = statistics.quantiles([s / c for s, c in zip(samples, canary)], n=4)[2]
    val["apps.gflops"] = 2.0 * flops / p50 / 1e9
    val["apps.spgemm_calls"] = len(triples)
    val["apps.iterations"] = getattr(result, "iterations", getattr(result, "depth", 1))
    val["apps.spgemm_frac"] = (
        result.spgemm_seconds / result.total_seconds if hasattr(result, "total_seconds") else 1.0
    )
    for field in ("forward", "backward"):
        if hasattr(result, f"{field}_seconds"):
            val[f"apps.bc_{field}_s"] = getattr(result, f"{field}_seconds")
        else:
            skipped[f"apps.bc_{field}_s"] = "not a betweenness workload"
    val["bench.canary_s_p50"] = statistics.median(canary)
    val["bench.samples"] = len(samples)
    val["bench.trace_overhead_frac"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    val["graphs.generate_s"] = rnd["generate_s"]
    val["parallel.pool_spawn_s"] = rnd["cold_s"] - p50
    val["parallel.pool_workers"] = rnd["pool_workers"]
    val["parallel.worker_rss_mb"] = rnd["worker_rss_mb"]
    for stat in ("plan_cache_hits", "segments_reused", "delta_fallbacks"):
        val[f"engine.{stat}"] = getattr(counter, stat)
    touched = counter.rows_patched + counter.rows_recomputed
    val["engine.rows_patched_frac"] = counter.rows_patched / touched if touched else 0.0

    # ---- the kernel-call helper: every output is checked ---------------
    reference: List[object] = []  # scipy view of the msa output per triple

    def multiply(**kw) -> list:
        return [
            masked_spgemm(a, b, m, complement=comp, semiring=sr, **kw)
            for a, b, m, comp in triples
        ]

    def matches_msa(outputs: list) -> None:
        """Pattern exactly, values to rtol 1e-9 (the first outputs seen are
        the msa rung's and become the reference)."""
        acct["attempted"] += len(outputs)
        if not reference:
            for c in outputs:
                ref = workloads.to_scipy(c).copy()
                ref.sort_indices()
                reference.append(ref)
        bad = sum(not workloads.csr_equal(c, r) for c, r in zip(outputs, reference))
        acct["failed"] += bad

    def spgemm(name: str, warm: bool = False, **kw) -> float:
        return timed(name, lambda: multiply(**kw), matches_msa, warm)

    def scipy_rung():
        for a, b, m, comp in triples:
            scipy_masked_spgemm(a, b, m, complement=comp)

    # ---- baselines + core ----------------------------------------------
    timed("baselines.scipy_s", scipy_rung)
    any_complement = any(comp for *_, comp in triples)
    forced = []
    for algo in ALGOS:
        if any_complement and not supports_complement(algo):
            skipped[f"core.{algo}_s"] = f"{algo} does not support the complemented mask"
            continue
        forced.append(spgemm(f"core.{algo}_s", algo=algo))
    for algo in ("msa", "hash"):
        for tier in ("perrow", "bucket"):
            spgemm(f"core.{algo}_{tier}_s", algo=algo, batch=tier)
    if flops <= TWO_PHASE_MAX_FLOPS:
        spgemm("core.msa_2p_s", algo="msa", phases=2)
    else:
        skipped["core.msa_2p_s"] = (
            f"flops(AB) = {flops} > {TWO_PHASE_MAX_FLOPS}: over the time budget"
        )
    val["core.best_forced_s"] = min(forced)
    val["core.vs_scipy_x"] = min(forced) / val["baselines.scipy_s"]
    val["core.flops"] = flops
    val["core.msa_gflops"] = 2.0 * flops / val["core.msa_s"] / 1e9
    msa_counter = OpCounter()
    multiply(algo="msa", counter=msa_counter)
    val["core.useful_flop_frac"] = msa_counter.flops / flops if flops else 0.0
    val["core.out_nnz"] = sum(r.nnz for r in reference)

    # ---- sparse -----------------------------------------------------------
    g = w.matrix
    timed("sparse.prepare_s", lambda: relabel_by_degree(g.pattern()).tril(-1))
    timed("sparse.transpose_s", g.transpose)
    timed("sparse.to_csc_s", lambda: [CSC.from_csr(b) for _, b, _, _ in triples])
    biggest = max(reference, key=lambda r: r.nnz)
    out = CSR(biggest.shape, biggest.indptr, biggest.indices, biggest.data)
    timed("sparse.coo_roundtrip_s", lambda: CSR.from_coo(out.shape, *out.to_coo()))

    # ---- engine ---------------------------------------------------------------
    plans = []

    def plan_rung():
        plans[:] = [engine.plan(a, b, m, complement=comp) for a, b, m, comp in triples]

    def execute_rung():
        return [
            engine.execute(pl, a, b, m, semiring=sr) for pl, (a, b, m, _) in zip(plans, triples)
        ]

    def forced_plan_rung():
        return [
            engine.execute(
                engine.plan(a, b, m, complement=comp, algo="msa", threads=1, backend="serial"),
                a, b, m, semiring=sr,
            )
            for a, b, m, comp in triples
        ]

    timed("engine.plan_s", plan_rung)
    timed("engine.forced_plan_s", forced_plan_rung, matches_msa)
    val["engine.dispatch_overhead_s"] = val["engine.forced_plan_s"] - val["core.msa_s"]
    timed("engine.fingerprint_s", lambda: engine.fingerprint_csr(big))
    rows = sum(pl.shape[0] for pl in plans)
    for algo in ALGOS:
        chosen = sum(pl.nrows_per_algo().get(algo, 0) for pl in plans)
        val[f"engine.plan_frac_{algo}"] = chosen / rows if rows else 0.0
    val["engine.plan_bands"] = sum(len(pl.bands) for pl in plans)
    val["engine.plan_threads"] = max(pl.threads for pl in plans)
    val["engine.plan_process"] = int(any(pl.backend == "process" for pl in plans))

    # ---- engine execution + parallel: only where the planner is on the path
    if not w.planned:
        why = "the workload forces its algorithm, so planner-chosen execution is off its path"
        for name in ("engine.execute_s", "engine.auto_regret_x", *(r[0] for r in AUTO_RUNGS)):
            skipped[name] = why
    else:
        timed("engine.execute_s", execute_rung, matches_msa, warm=True)
        for name, kw, parallel in AUTO_RUNGS:
            if parallel and cores() < 2:
                skipped[name] = "needs >= 2 cores (os.sched_getaffinity)"
            else:
                spgemm(name, warm=True, algo="auto", **kw)
        val["engine.auto_regret_x"] = val["engine.auto_s"] / val["core.best_forced_s"]
    pool.shutdown_pool()
    val["parallel.leaked_segments"] = len(shm.active_segments())

    # ---- apps again: the same app with the optional machinery off -------
    def app(name: str, **kw) -> float:
        return timed(name, lambda: w.call(**kw), checked)

    no_session = {"session": False} if "session" in w.accepts else {}
    app("apps.msa_s", algo="msa", **no_session)
    val["apps.auto_regret_x"] = p50 / val["apps.msa_s"]
    val["apps.glue_s"] = val["apps.msa_s"] - val["core.msa_s"]
    for opt, off in (("session", False), ("delta", None)):
        if opt in w.accepts:
            val[f"engine.{opt}_saving_s"] = app(f"engine.app_no{opt}_s", **{opt: off}) - p50
        else:
            why = f"the workload's call takes no {opt}= argument"
            skipped[f"engine.app_no{opt}_s"] = skipped[f"engine.{opt}_saving_s"] = why
    pool.shutdown_pool()

    val["fail_frac"] = (rnd["failed"] + acct["failed"]) / (rnd["attempted"] + acct["attempted"])
    rec.dump(span_path, {"workload": w.name, "values": val, "skipped": skipped})
    return {
        "layers": val,
        "skipped": skipped,
        "attempted": rnd["attempted"] + acct["attempted"],
        "failed": rnd["failed"] + acct["failed"],
    }
