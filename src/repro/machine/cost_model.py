"""Per-row cost model for masked SpGEMM algorithms.

Why a model?  The paper's results are wall-clock measurements of C++/OpenMP
kernels on 32-core Haswell and 68-core KNL machines.  This reproduction runs
in CPython on a single core, where (a) the GIL forbids thread parallelism and
(b) interpreter overhead swamps cache effects.  The paper's *findings*,
however, are consequences of operation counts and memory traffic — which we
can compute exactly or near-exactly from the inputs — fed through a simple
memory-hierarchy cost function.  This module implements that function; the
scheduler (:mod:`repro.machine.scheduler`) turns per-row costs into parallel
makespans for the scaling figures.

The model charges, per output row ``i`` (notation as in the paper:
``u = A[i,:]``, ``m = M[i,:]``):

* the three mask-independent push patterns of Section 4.2 (A-row stream,
  B row-pointer randoms, B-row stanza reads),
* a streaming read of the mask row (every masked algorithm consumes it),
* algorithm-specific accumulator traffic, where a random touch into a
  working set of ``W`` bytes costs ``hit``, ``llc`` or ``dram`` cycles
  depending on how ``W`` compares with the machine's private-cache and LLC
  capacities (this is what makes MSA lose to Hash on large matrices and win
  on small ones, and what separates Haswell from KNL),
* a streaming write of the output row.

Two-phase (2P) variants are charged an additional symbolic sweep: the same
index traversal without value arithmetic (factor :data:`SYMBOLIC_FACTOR` of
the numeric index traffic), reproducing the paper's "1P beats 2P" finding.

The constants come from :class:`repro.machine.config.MachineConfig`.
Absolute predicted seconds are *not* claims about the paper's hardware;
every benchmark reports them only to compare algorithms with each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..sparse import CSR
from .config import MachineConfig
from .traffic import flops_per_row

__all__ = [
    "MODEL_ALGOS",
    "RowCostModel",
    "ModelEstimate",
    "estimate_row_cycles",
    "estimate_seconds",
    "SYMBOLIC_FACTOR",
]

#: Algorithms the model understands.  "ssgb_dot"/"ssgb_saxpy" model the
#: SuiteSparse:GraphBLAS baselines (see repro.baselines.ssgb).
MODEL_ALGOS = (
    "inner",
    "msa",
    "hash",
    "mca",
    "heap",
    "heapdot",
    "esc",
    "ssgb_dot",
    "ssgb_saxpy",
)

#: Relative cost of a symbolic sweep vs the numeric index traffic.
SYMBOLIC_FACTOR = 0.55

#: Expected probes per hash operation at load factor 0.25 (open addressing,
#: linear probing): ~ (1 + 1/(1-a)) / 2.
HASH_EXPECTED_PROBES = 1.17

#: Cycles per step of a branchy two-pointer sorted merge (vs 1.0 for a
#: streaming multiply-accumulate) — calibrates Inner vs push on the
#: comparable-density diagonal of Figure 7.
MERGE_CYCLES = 2.0

WORD = 8  # bytes per index/value word, as in the paper's analysis


def _random_touch_cycles(ws_bytes: np.ndarray, m: MachineConfig) -> np.ndarray:
    """Expected cycles for one random access into a working set of the given
    size: interpolates hit -> LLC -> DRAM as the set overflows each level."""
    ws = np.maximum(np.asarray(ws_bytes, dtype=np.float64), 1.0)
    p_priv = np.minimum(1.0, m.private_cache_bytes / ws)
    if m.llc_bytes > 0:
        p_llc = np.minimum(1.0, m.llc_bytes / ws)
        beyond = p_llc * m.llc_cycles + (1.0 - p_llc) * m.dram_cycles
    else:
        beyond = np.full_like(ws, m.dram_cycles)
    return p_priv * m.hit_cycles + (1.0 - p_priv) * beyond


def _stream_cycles(
    words: np.ndarray, m: MachineConfig, per_line: float | None = None
) -> np.ndarray:
    """Cycles to stream the given number of words at line granularity.

    ``per_line`` is the cost of one line fetch; defaults to DRAM, but
    callers pass a footprint-aware cost when the streamed structure may be
    cache-resident (the paper's analyses assume ``nnz >> Z``; Figure-7-size
    inputs violate that, and the crossovers depend on it)."""
    lines = np.asarray(words, dtype=np.float64) / (m.line_bytes / WORD)
    return lines * (m.dram_cycles if per_line is None else per_line)


@dataclass
class ModelEstimate:
    """Result of a model evaluation."""

    algo: str
    machine: str
    row_cycles: np.ndarray  #: modeled cycles per output row (numeric phase)
    pre_cycles: float  #: serial, non-row-parallel cycles (e.g. transpose)
    breakdown: Dict[str, float]  #: aggregate cycles by component

    @property
    def total_cycles(self) -> float:
        return float(self.row_cycles.sum() + self.pre_cycles)

    def seconds(self, machine: MachineConfig, threads: int = 1) -> float:
        """Serial-equivalent seconds at the given thread count assuming a
        perfectly balanced schedule (use the scheduler for real makespans)."""
        par = float(self.row_cycles.sum()) / max(1, threads)
        return machine.seconds(par + self.pre_cycles)


class RowCostModel:
    """Evaluates the per-row cost model for one (A, B, M, machine) tuple.

    The expensive derived statistics (per-row flops etc.) are computed once
    in the constructor and shared by every algorithm evaluation, so scanning
    all 14 schemes for a Figure-7-style grid is cheap.
    """

    def __init__(
        self,
        a: CSR,
        b: CSR,
        mask: CSR,
        machine: MachineConfig,
        *,
        complement: bool = False,
    ) -> None:
        if a.ncols != b.nrows:
            raise ValueError("inner dimensions of A and B do not agree")
        if mask.shape != (a.nrows, b.ncols):
            raise ValueError("mask shape must match the output shape")
        self.a, self.b, self.mask = a, b, mask
        self.machine = machine
        self.complement = complement
        self.n = b.ncols
        self.nnz_a = a.row_nnz().astype(np.float64)
        self.nnz_m = mask.row_nnz().astype(np.float64)
        self.flops = flops_per_row(a, b).astype(np.float64)
        n = max(1, self.n)
        # expected number of distinct columns produced by the unmasked row
        self.distinct = n * (1.0 - np.exp(-self.flops / n))
        if complement:
            # products landing outside the mask
            frac = 1.0 - self.nnz_m / n
            self.useful = self.flops * frac
            self.out_nnz = self.distinct * frac
        else:
            frac = np.minimum(1.0, self.nnz_m / n)
            self.useful = self.flops * frac
            self.out_nnz = np.minimum(self.nnz_m, self.distinct * frac + 1e-12)
        # footprint-aware per-access costs: the Section-4 analyses assume
        # nnz >> cache, but small/medium inputs are (partially) resident —
        # which is exactly what moves the Figure-7 crossovers and the
        # Haswell/KNL differences.
        b_bytes = (2 * b.nnz + b.nrows) * WORD
        a_bytes = (2 * a.nnz + a.nrows) * WORD
        m_bytes = (mask.nnz + mask.nrows) * WORD
        mach = machine
        self.b_touch = float(_random_touch_cycles(np.asarray([b_bytes]), mach)[0])
        self.a_touch = float(_random_touch_cycles(np.asarray([a_bytes]), mach)[0])
        self.m_touch = float(_random_touch_cycles(np.asarray([m_bytes]), mach)[0])

    # ------------------------------------------------------------------
    def _push_common(self) -> Dict[str, np.ndarray]:
        m = self.machine
        comp = {}
        comp["read_a"] = _stream_cycles(2.0 * self.nnz_a, m, self.a_touch)
        comp["b_rowptr"] = self.nnz_a * self.b_touch
        # stanza reads: line-granule streaming + one extra line per stanza
        comp["stanza"] = (
            _stream_cycles(2.0 * self.flops, m, self.b_touch)
            + self.nnz_a * self.b_touch
        )
        comp["read_mask"] = _stream_cycles(2.0 * self.nnz_m, m, self.m_touch)
        comp["write_out"] = _stream_cycles(2.0 * self.out_nnz, m)
        return comp

    def _finish(self, algo: str, comp: Dict[str, np.ndarray], pre: float = 0.0,
                phases: int = 1) -> ModelEstimate:
        rows = np.zeros(self.a.nrows, dtype=np.float64)
        for v in comp.values():
            rows = rows + v
        if phases == 2:
            # symbolic sweep: index traffic without value arithmetic
            sym = SYMBOLIC_FACTOR * (rows - comp.get("compute", 0.0))
            rows = rows + sym
            comp = dict(comp)
            comp["symbolic"] = sym
        breakdown = {k: float(np.sum(v)) for k, v in comp.items()}
        if pre:
            breakdown["pre"] = float(pre)
        return ModelEstimate(
            algo=algo,
            machine=self.machine.name,
            row_cycles=rows,
            pre_cycles=float(pre),
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------
    # individual algorithms
    # ------------------------------------------------------------------
    def msa(self, phases: int = 1) -> ModelEstimate:
        """MSA: dense length-n accumulator; cost dominated by random touches into a 2n-word working set."""
        m = self.machine
        comp = self._push_common()
        ws = 2.0 * self.n * WORD  # values + states, length-n each
        touch = _random_touch_cycles(np.full(self.a.nrows, ws), m)
        if self.complement:
            # setNotAllowed + inserts + gather via inserted-key list
            touches = self.nnz_m + self.flops + self.out_nnz
        else:
            # setAllowed + inserts + mask-ordered gather
            touches = 2.0 * self.nnz_m + self.flops
        comp["accumulator"] = touches * touch
        comp["compute"] = self.flops * m.flop_cycles
        return self._finish("msa", comp, phases=phases)

    def hash(self, phases: int = 1) -> ModelEstimate:
        """Hash: table sized by nnz(m) at load 0.25; compact but pays probe overhead and per-row init."""
        m = self.machine
        comp = self._push_common()
        if self.complement:
            # table sized by an upper bound on the row output
            slots = 4.0 * np.minimum(self.flops, float(self.n))
        else:
            slots = 4.0 * self.nnz_m  # load factor 0.25
        ws = 2.0 * slots * WORD
        touch = _random_touch_cycles(ws, m) + HASH_EXPECTED_PROBES * m.probe_cycles
        touches = 2.0 * self.nnz_m + self.flops
        comp["accumulator"] = touches * touch
        comp["accum_init"] = _stream_cycles(2.0 * slots, m) * 0.25  # memset, write-combined
        comp["compute"] = self.flops * m.flop_cycles
        return self._finish("hash", comp, phases=phases)

    def mca(self, phases: int = 1) -> ModelEstimate:
        """MCA: compact rank-indexed accumulator plus the Algorithm-3 two-pointer merge."""
        if self.complement:
            raise ValueError("MCA does not support complemented masks (paper, Sec. 8.4)")
        m = self.machine
        comp = self._push_common()
        ws = 2.0 * self.nnz_m * WORD
        touch = _random_touch_cycles(ws, m)
        comp["accumulator"] = (self.useful + 2.0 * self.nnz_m) * touch
        # two-pointer merge of the mask against every B row (Algorithm 3):
        comp["merge"] = (
            (self.nnz_a * self.nnz_m + self.flops) * MERGE_CYCLES * m.flop_cycles
        )
        comp["compute"] = self.useful * m.flop_cycles
        return self._finish("mca", comp, phases=phases)

    def _heap(self, algo: str, ninspect: float, phases: int) -> ModelEstimate:
        m = self.machine
        comp = self._push_common()
        logu = np.log2(np.maximum(2.0, self.nnz_a))
        if self.complement:
            # NInspect = 0: every product goes through the heap
            heap_ops = self.flops * logu
            inspect = np.zeros_like(self.flops)
        elif ninspect == 0:
            heap_ops = self.flops * logu
            inspect = np.zeros_like(self.flops)
        elif ninspect == np.inf:
            # HeapDot: only intersection elements enter the heap, but every
            # INSERT's inspection loop (Algorithm 5) re-scans the mask from
            # the *shared* cursor position, so the expected per-insert scan
            # is a constant fraction of the remaining mask row — the cost
            # that makes HeapDot noncompetitive on TC/k-truss (paper Sec. 8)
            # while still winning when flops(uB) is tiny (Figure 7's
            # inputs-much-sparser-than-mask corner).
            heap_ops = self.useful * logu
            inspect = (
                self.flops * (0.5 * self.nnz_m + 1.0) + self.nnz_a
            ) * MERGE_CYCLES
        else:
            # NInspect = 1: a product skips the heap when the current mask
            # element matches (probability ~ mask density).
            alpha = np.minimum(1.0, self.nnz_m / max(1, self.n))
            heap_ops = self.flops * (alpha + (1.0 - alpha) * logu)
            inspect = self.flops
        comp["heap"] = heap_ops * m.heap_cycles
        comp["inspect"] = inspect * m.flop_cycles
        comp["compute"] = self.useful * m.flop_cycles
        return self._finish(algo, comp, phases=phases)

    def heap(self, phases: int = 1) -> ModelEstimate:
        return self._heap("heap", 0 if self.complement else 1, phases)

    def heapdot(self, phases: int = 1) -> ModelEstimate:
        return self._heap("heapdot", 0 if self.complement else np.inf, phases)

    def esc(self, phases: int = 1) -> ModelEstimate:
        """Masked Expand-Sort-Compress (extension algorithm): no random
        accumulator traffic at all — a streaming mask filter (binary search
        per product) followed by a sort of the survivors."""
        m = self.machine
        comp = self._push_common()
        # filter: one binary search into the mask keys per product
        log_m = np.log2(np.maximum(2.0, self.nnz_m))
        comp["filter"] = self.flops * log_m * 0.5 * m.flop_cycles
        # sort survivors: comparison sort, streaming passes
        useful = np.maximum(1.0, self.useful)
        comp["sort"] = self.useful * np.log2(np.maximum(2.0, useful)) * (
            1.5 * m.flop_cycles
        )
        # compress: one streaming reduction pass
        comp["compute"] = self.useful * m.flop_cycles
        return self._finish("esc", comp, phases=phases)

    def inner(self, phases: int = 1, *, pre_transpose: bool = False) -> ModelEstimate:
        """Pull-based dot products (Section 4.1): mask-driven column fetches of B."""
        if self.complement:
            # A complemented inner product would have to evaluate every
            # position NOT in the mask — the paper deems this prohibitive
            # and excludes Inner from the BC benchmark.
            raise ValueError("inner-product algorithm does not support complement")
        m = self.machine
        avg_col = self.b.nnz / max(1, self.n)
        comp: Dict[str, np.ndarray] = {}
        comp["read_a"] = _stream_cycles(2.0 * self.nnz_a, m, self.a_touch)
        comp["read_mask"] = _stream_cycles(2.0 * self.nnz_m, m, self.m_touch)
        # Each mask nonzero streams one cold column of B (Section 4.1).  The
        # column start is a *dependent* load (indptr -> column data) that the
        # prefetcher cannot hide, unlike push's long sequential row sweeps —
        # charge it a latency penalty whenever B is not private-cache
        # resident.  This is what hands the comparable-density regime to the
        # accumulator schemes (paper Fig. 7) while leaving the sparse-mask
        # regime to Inner.
        b_bytes = (2 * self.b.nnz + self.b.nrows) * WORD
        latency = 0.75 * m.dram_cycles if b_bytes > m.private_cache_bytes else 0.0
        comp["col_fetch"] = self.nnz_m * (
            _stream_cycles(np.full(self.a.nrows, 2.0 * avg_col), m, self.b_touch)
            + self.b_touch
            + latency
        )
        # sorted-merge dot product per mask entry: branchy two-pointer walk
        comp["compute"] = (
            self.nnz_m * (self.nnz_a + avg_col) * MERGE_CYCLES * m.flop_cycles
        )
        comp["write_out"] = _stream_cycles(2.0 * self.out_nnz, m)
        pre = 0.0
        if pre_transpose:
            # building the CSC of B before the call (SS:GB behaviour in BC)
            pre = float(
                self.b.nnz
                * _random_touch_cycles(
                    np.asarray([2.0 * self.b.nnz * WORD]), m
                )[0]
            )
        return self._finish("inner", comp, pre=pre, phases=phases)

    def ssgb_dot(self, phases: int = 1) -> ModelEstimate:
        """SS:DOT baseline: Inner plus the per-call B transpose and library overhead."""
        if self.complement:
            # with a complemented mask the dot method cannot enumerate the
            # output from the mask; SS:GB falls back to materialising the
            # full product and filtering — the "very serious bottleneck"
            # the paper reports for SS:DOT in BC (Section 8.4)
            est = self.ssgb_saxpy(phases=1)
            return ModelEstimate(
                "ssgb_dot", est.machine, est.row_cycles,
                est.pre_cycles + self._transpose_cycles(), est.breakdown,
            )
        est = self.inner(phases=1, pre_transpose=True)
        # library per-call analysis/dispatch overhead
        pre = est.pre_cycles + 5e4
        return ModelEstimate("ssgb_dot", est.machine, est.row_cycles, pre, est.breakdown)

    def _transpose_cycles(self) -> float:
        """Cost of building the CSC of B before the call (SS:GB re-does this
        per call when the stored orientation does not match)."""
        ws = np.asarray([2.0 * self.b.nnz * WORD])
        return float(self.b.nnz * _random_touch_cycles(ws, self.machine)[0])

    def ssgb_saxpy(self, phases: int = 1) -> ModelEstimate:
        """SS:SAXPY: push-based SpGEMM over the FULL row (mask applied only
        when the row is emitted), with an SS:GB-style SPA/hash choice."""
        m = self.machine
        comp = self._push_common()
        # SPA over the full row vs hash sized by the unmasked row output
        ws_spa = np.full(self.a.nrows, 2.0 * self.n * WORD)
        spa_touch = _random_touch_cycles(ws_spa, m)
        slots = 4.0 * np.maximum(1.0, self.distinct)
        hash_touch = (
            _random_touch_cycles(2.0 * slots * WORD, m)
            + HASH_EXPECTED_PROBES * m.probe_cycles
        )
        touches = self.flops + self.distinct  # inserts + gather (no mask help)
        comp["accumulator"] = touches * np.minimum(spa_touch, hash_touch)
        # late mask application: merge emitted row with the mask row
        comp["mask_filter"] = (
            (self.distinct + self.nnz_m) * MERGE_CYCLES * m.flop_cycles
        )
        comp["compute"] = self.flops * m.flop_cycles
        return self._finish("ssgb_saxpy", comp, pre=5e4, phases=phases)

    # ------------------------------------------------------------------
    def estimate(self, algo: str, phases: int = 1) -> ModelEstimate:
        """Evaluate the model for one named algorithm."""
        key = algo.lower()
        if key not in MODEL_ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {MODEL_ALGOS}")
        return getattr(self, key)(phases=phases)


def estimate_row_cycles(
    a: CSR,
    b: CSR,
    mask: CSR,
    algo: str,
    machine: MachineConfig,
    *,
    phases: int = 1,
    complement: bool = False,
) -> ModelEstimate:
    """One-shot convenience wrapper around :class:`RowCostModel`."""
    return RowCostModel(a, b, mask, machine, complement=complement).estimate(
        algo, phases=phases
    )


def estimate_seconds(
    a: CSR,
    b: CSR,
    mask: CSR,
    algo: str,
    machine: MachineConfig,
    *,
    threads: int = 1,
    phases: int = 1,
    complement: bool = False,
    schedule: str = "dynamic",
    chunk: int = 64,
) -> float:
    """Modeled wall-clock seconds using the makespan scheduler."""
    from .scheduler import simulate_makespan

    est = estimate_row_cycles(
        a, b, mask, algo, machine, phases=phases, complement=complement
    )
    span = simulate_makespan(
        est.row_cycles, threads=min(threads, machine.cores), schedule=schedule, chunk=chunk
    )
    return machine.seconds(span + est.pre_cycles)
