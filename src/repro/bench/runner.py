"""Experiment runner: scheme definitions and timing (measured + modeled).

The paper evaluates 14 schemes (Section 8): {Inner, MSA, Hash, MCA, Heap,
HeapDot} x {1P, 2P} plus SS:DOT and SS:SAXPY.  This module defines them
once and provides the two ways of timing a masked SpGEMM call sequence:

* **measured** — wall-clock of the real kernels in this process.  Honest
  but CPython-flavoured: interpreter overhead compresses cache effects and
  the heap schemes (reference implementations) are orders of magnitude
  slower than the vectorized kernels, so the figure experiments time only
  the vectorized subset in measured mode.
* **modeled** — the Section-4-based cost model + makespan scheduler
  (:mod:`repro.machine`), evaluated per call and summed.  This is what
  reproduces the paper's *shapes* (see DESIGN.md substitutions).

An experiment is a set of *cases*, each a list of masked-SpGEMM calls
``(A, B, M, complement)`` (apps record theirs via ``call_log``); the runner
produces ``times[scheme][case]`` dictionaries ready for
:func:`repro.bench.perfprofile.performance_profile`.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..machine import HASWELL, MachineConfig, RowCostModel, simulate_makespan
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSR
from ..core import masked_spgemm
from ..baselines import ssgb_dot, ssgb_saxpy

__all__ = [
    "Scheme",
    "OUR_SCHEMES",
    "OUR_SCHEMES_1P",
    "SSGB_SCHEMES",
    "ALL_SCHEMES",
    "FAST_SCHEMES",
    "scheme_by_name",
    "measured_seconds",
    "modeled_seconds",
    "run_cases",
    "Call",
]

#: one masked-SpGEMM invocation: (A, B, mask, complement)
Call = Tuple[CSR, CSR, CSR, bool]


@dataclass(frozen=True)
class Scheme:
    """One evaluated scheme (paper Section 8 naming)."""

    name: str  #: e.g. "MSA-1P"
    algo: str  #: kernel key ("msa", ..., "ssgb_dot")
    phases: int  #: 1 or 2 (SS:GB schemes: 1)
    supports_complement: bool
    fast: bool  #: has a vectorized implementation (measured-mode eligible)


def _mk(algo: str, label: str, phases: int, compl: bool, fast: bool) -> Scheme:
    return Scheme(f"{label}-{phases}P", algo, phases, compl, fast)


OUR_SCHEMES: List[Scheme] = [
    _mk("inner", "Inner", 1, False, True),
    _mk("inner", "Inner", 2, False, True),
    _mk("msa", "MSA", 1, True, True),
    _mk("msa", "MSA", 2, True, True),
    _mk("hash", "Hash", 1, True, True),
    _mk("hash", "Hash", 2, True, True),
    _mk("mca", "MCA", 1, False, True),
    _mk("mca", "MCA", 2, False, True),
    _mk("heap", "Heap", 1, True, False),
    _mk("heap", "Heap", 2, True, False),
    _mk("heapdot", "HeapDot", 1, True, False),
    _mk("heapdot", "HeapDot", 2, True, False),
]

OUR_SCHEMES_1P: List[Scheme] = [s for s in OUR_SCHEMES if s.phases == 1]

SSGB_SCHEMES: List[Scheme] = [
    Scheme("SS:DOT", "ssgb_dot", 1, True, True),
    Scheme("SS:SAXPY", "ssgb_saxpy", 1, True, True),
]

ALL_SCHEMES: List[Scheme] = OUR_SCHEMES + SSGB_SCHEMES

FAST_SCHEMES: List[Scheme] = [s for s in ALL_SCHEMES if s.fast]

_BY_NAME = {s.name: s for s in ALL_SCHEMES}


def scheme_by_name(name: str) -> Scheme:
    return _BY_NAME[name]


def _run_call(scheme: Scheme, call: Call, semiring: Semiring) -> CSR:
    a, b, m, compl = call
    if scheme.algo == "ssgb_dot":
        return ssgb_dot(a, b, m, complement=compl, semiring=semiring)
    if scheme.algo == "ssgb_saxpy":
        return ssgb_saxpy(a, b, m, complement=compl, semiring=semiring)
    return masked_spgemm(
        a, b, m, algo=scheme.algo, phases=scheme.phases,
        complement=compl, semiring=semiring, impl="auto",
    )


def measured_seconds(
    scheme: Scheme,
    calls: Sequence[Call],
    *,
    semiring: Semiring = PLUS_TIMES,
    repeats: int = 1,
) -> float:
    """Wall-clock seconds to execute the call sequence (min over repeats)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for call in calls:
            _run_call(scheme, call, semiring)
        best = min(best, time.perf_counter() - t0)
    return best


def modeled_seconds(
    scheme: Scheme,
    calls: Sequence[Call],
    *,
    machine: MachineConfig = HASWELL,
    threads: Optional[int] = None,
    schedule: str = "dynamic",
    chunk: Optional[int] = None,
) -> float:
    """Modeled seconds for the call sequence on the given machine.

    ``threads`` defaults to the machine's core count (the paper uses all
    cores except in the scaling experiment).  ``chunk=None`` picks an
    adaptive dynamic-schedule chunk (~16 chunks per worker, the OpenMP
    rule of thumb)."""
    p = machine.cores if threads is None else threads
    total = 0.0
    for a, b, m, compl in calls:
        est = RowCostModel(a, b, m, machine, complement=compl).estimate(
            scheme.algo, phases=scheme.phases
        )
        c = chunk if chunk is not None else max(1, a.nrows // (16 * p))
        span = simulate_makespan(est.row_cycles, min(p, machine.cores),
                                 schedule=schedule, chunk=c)
        total += machine.seconds(span + est.pre_cycles)
    return total


def _artifact_slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-")


def _validate_trace_dir(trace_dir: str) -> str:
    """Create and return a usable trace-artifact directory.

    The directory itself may not exist yet, but its *parent* must, and the
    path must not name a file — silently materialising a whole missing tree
    (the old ``makedirs`` behaviour) turns a typo'd ``--trace-dir`` into a
    run whose artifacts land somewhere nobody looks."""
    path = os.path.abspath(trace_dir)
    if os.path.isfile(path):
        raise ValueError(f"trace_dir {trace_dir!r} is an existing file")
    parent = os.path.dirname(path)
    if not os.path.isdir(parent):
        raise ValueError(
            f"trace_dir {trace_dir!r}: parent directory {parent!r} does not exist"
        )
    os.makedirs(path, exist_ok=True)
    return path


def run_cases(
    cases: Mapping[str, Sequence[Call]],
    schemes: Sequence[Scheme],
    *,
    mode: str = "model",
    machine: MachineConfig = HASWELL,
    threads: Optional[int] = None,
    semiring: Semiring = PLUS_TIMES,
    repeats: int = 1,
    complement_required: bool = False,
    chunk: Optional[int] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, Dict[str, float]]:
    """Times for every (scheme, case): ``times[scheme.name][case_name]``.

    ``mode``: ``"model"`` or ``"measured"``.  Schemes that cannot run a
    case (complement unsupported) get ``inf`` — the Dolan–Moré convention.
    Every scheme passed is timed in measured mode, heap included: the
    figure experiments (:mod:`repro.bench.experiments`) pass only the
    ``fast`` schemes there.

    ``trace_dir`` (measured mode only): run each (scheme, case) under the
    tracer and drop a ``<scheme>__<case>.trace.json`` (Chrome trace-event)
    plus ``.metrics.json`` pair there — the per-run artifact that sits next
    to the experiment's JSON results (``repro.bench.reporting.save_json``).
    Ignored in model mode, where no kernels actually execute.
    """
    if mode not in ("model", "measured"):
        raise ValueError("mode must be 'model' or 'measured'")
    if trace_dir is not None and mode == "measured":
        trace_dir = _validate_trace_dir(trace_dir)
    out: Dict[str, Dict[str, float]] = {}
    for scheme in schemes:
        row: Dict[str, float] = {}
        for case_name, calls in cases.items():
            needs_complement = any(c[3] for c in calls)
            if needs_complement and not scheme.supports_complement:
                row[case_name] = float("inf")
                continue
            if complement_required and not scheme.supports_complement:
                row[case_name] = float("inf")
                continue
            if mode == "model":
                row[case_name] = modeled_seconds(
                    scheme, calls, machine=machine, threads=threads, chunk=chunk
                )
                continue
            if trace_dir is not None:
                from ..observe import tracing, write_chrome_trace, write_metrics

                with tracing() as tracer:
                    row[case_name] = measured_seconds(
                        scheme, calls, semiring=semiring, repeats=repeats,
                    )
                base = os.path.join(
                    trace_dir,
                    f"{_artifact_slug(scheme.name)}__{_artifact_slug(case_name)}",
                )
                write_chrome_trace(base + ".trace.json", tracer)
                write_metrics(base + ".metrics.json", tracer, machine=machine)
            else:
                row[case_name] = measured_seconds(
                    scheme, calls, semiring=semiring, repeats=repeats,
                )
        out[scheme.name] = row
    return out
