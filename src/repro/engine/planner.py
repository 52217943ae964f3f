"""The :class:`Planner` — turns (A, B, M, machine) into an
:class:`~repro.engine.plan.ExecutionPlan`.

``machine`` plays one of two roles, and the planner prices rows accordingly:

* **the host** (``machine=None``, every shipped default): seconds come
  from the measured :class:`~repro.machine.HostProfile` — linear in
  ``flops(AB)``, mask nonzeros and pulled pairs.  A host plan is paid on
  every ``algo="auto"`` call, so it decides in the cheapest of three
  layers that can (:meth:`Planner._host_plan`; ``docs/engine.md``, "What a
  host plan costs"): one candidate needs no decision; whole-problem
  totals from the operand sizes decide a clear call, exact totals (one
  gather per entry) a close one; and only when a row split could repay
  its slicing and merging does a per-row census price every row.  Nothing
  prices workers: a plan runs in-process, on the threads the native row
  loop takes for the call's estimated work (:func:`host_workers`), unless
  the caller forces ``threads=`` or ``backend=`` (``docs/parallel.md``,
  "Who picks the backend"), so a plan is a function of operands, options
  and profile.
* **a paper machine** (``"haswell"``, ``"knl"`` or a
  :class:`~repro.machine.MachineConfig`): per-row *cycles* from
  :class:`repro.machine.RowCostModel` — Figure 7's regime map, computed
  rather than eyeballed — with the preset's core count.  This reproduces
  the paper's machines, not this one.

Either way the planner then fixes the 1P/2P phase strategy, the row
partition and the grid — ``1 x 1`` unless the caller spells one
(``shards=``, ``panel_width=``) or a memory budget asks for column panels.

Three banding policies:

* ``"cost"`` (default) — per-row argmin over the cost model, with small
  bands consolidated so dispatch overhead cannot swamp the win;
* ``"ratio"`` — the ratio heuristics of the original hybrid dispatcher
  (:func:`repro.core.classify_rows`), kept for ablations (modeled
  presets only: it reads the preset's cache capacity);
* ``"none"`` — one band, the cheapest whole-problem algorithm.

Only algorithms with vectorized fast kernels are candidates: the heap
schemes are reference-tier by design (the paper's algorithmic lower bound)
and are plannable only as a forced ``algo=``.  On the host the candidates
are the algorithms the profile carries coefficients for — the ones that
win somewhere on the Fig. 7 grid or R-MAT scale 10-13.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.leaf import (
    ALGO_LABELS,
    ALL_ALGOS,
    check_operands,
    classify_rows,
    kernel_threads,
    supports_complement,
)
from ..machine import HostProfile, RowCostModel, available_cores, flops_per_row, \
    pulls_per_row, resolve_machine
from ..machine.traffic import flops_per_entry, pulls_per_entry, row_sums
from ..parallel.executor import normalize_backend
from ..parallel.pool import process_backend_available
from .plan import PARTITIONS, ExecutionPlan, RowBand, ShardGrid

__all__ = ["Planner", "plan", "host_workers", "PLAN_CANDIDATES"]

#: default candidate set of a modeled preset: the fast-kernel algorithms the
#: executor can run at full speed (heap/heapdot are reference-only and
#: excluded).  The host's default is :attr:`HostProfile.candidates`.
PLAN_CANDIDATES = ("inner", "msa", "hash", "mca", "esc")

#: one-line regime rationale per algorithm (paper Sec. 4.3 / Fig. 7)
_REASONS = {
    "inner": "mask much sparser than the product work (pull regime)",
    "mca": "inputs much sparser than the mask (compact accumulator regime)",
    "msa": "comparable densities; dense accumulator is cache-cheap",
    "hash": "comparable densities; compact hash beats an overflowing SPA",
    "esc": "streaming expand-sort-compress cheapest (no accumulator traffic)",
}

_WORD = 8  # bytes per index/value word, as in the paper's analysis

#: modeled whole-problem cycles above which a *preset* plan with several
#: workers uses the process backend (paper-machine cycles, not host time:
#: it only keeps preset plans what they always were; a host plan never
#: picks the process backend, see :func:`host_workers`)
_MODELED_PROCESS_CROSSOVER_CYCLES = 2.0e6

#: cost banding on a modeled preset: bands carrying less than this fraction
#: of the modeled work are folded into the remaining candidates
#: (dispatch-overhead guard)
MIN_BAND_FRACTION = 0.02

#: a host plan's O(1) whole-problem estimates decide its algorithm when the
#: runner-up is predicted at least this many times slower than the cheapest;
#: a closer call is decided on the exact flop and pull totals
DECISIVE_MARGIN = 2.0

#: target rows per worker when choosing a worker count
ROWS_PER_THREAD = 512


def host_workers(a, b, threads: Optional[int], backend: Optional[str]):
    """``(threads, backend)`` of a host plan, from the caller's knobs.

    A ``process`` plan (only ever forced) cuts ``threads`` row parts for its
    pool workers: ``min(cores, rows / ROWS_PER_THREAD)`` unless forced.
    Every other plan runs in-process, and its ``threads`` is the count its
    native row loops run, :func:`~repro.core.leaf.kernel_threads` — 1 under
    ``backend="serial"``, else the caller's ``threads``, else every core
    once the call's estimated products reach the crossover, capped at
    ``nrows(A)``; it is ``"thread"`` when that is more than one, else
    ``"serial"``.
    """
    if backend == "process":
        if threads is None:
            threads = min(available_cores(), max(1, a.nrows // ROWS_PER_THREAD))
        return threads, backend
    threads = kernel_threads(a, b, threads=threads, backend=backend)
    return threads, "thread" if threads > 1 else "serial"


class Planner:
    """Constructs execution plans from matrix statistics + the cost model.

    Parameters
    ----------
    machine:
        ``None`` (default) plans for this host from its measured
        :class:`~repro.machine.HostProfile`; a :class:`MachineConfig` or
        preset name plans for that modeled machine.
    candidates:
        Algorithms the auto planner may select (default: the host
        profile's live set, or :data:`PLAN_CANDIDATES` for a preset).
    banding:
        ``"cost"``, ``"ratio"`` or ``"none"`` (see module docs).
    pull_ratio / push_ratio:
        Thresholds for ``banding="ratio"`` (see
        :func:`repro.core.classify_rows`).
    """

    def __init__(
        self,
        machine=None,
        *,
        candidates: Optional[Sequence[str]] = None,
        banding: str = "cost",
        pull_ratio: float = 8.0,
        push_ratio: float = 8.0,
    ) -> None:
        if banding not in ("cost", "ratio", "none"):
            raise ValueError("banding must be 'cost', 'ratio' or 'none'")
        self.machine = resolve_machine(machine)
        self.host = isinstance(self.machine, HostProfile)
        default = self.machine.candidates if self.host else PLAN_CANDIDATES
        self.candidates = tuple(candidates) if candidates is not None else default
        for c in self.candidates:
            if c not in ALL_ALGOS:
                raise ValueError(f"unknown candidate algorithm {c!r}")
            if self.host and c not in self.machine.candidates:
                raise ValueError(
                    f"the host profile has no measured coefficients for {c!r}; "
                    "force it with algo= or plan for a modeled preset"
                )
        if self.host and banding == "ratio":
            raise ValueError(
                "banding='ratio' reads a modeled machine's cache capacity; "
                "pass machine='haswell' (or another preset)"
            )
        self.banding = banding
        self.pull_ratio = pull_ratio
        self.push_ratio = push_ratio

    # ------------------------------------------------------------------
    def plan(
        self,
        a,
        b,
        mask,
        *,
        complement: bool = False,
        algo: Optional[str] = None,
        phases: Optional[int] = None,
        threads: Optional[int] = None,
        partition: Optional[str] = None,
        backend: Optional[str] = None,
        panel_width: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        shards=None,
        _b_csc=None,
    ) -> ExecutionPlan:
        """Build a plan for ``C = M .* (A @ B)`` (``!M`` with complement).

        Any of ``algo``, ``phases``, ``threads``, ``partition`` and
        ``backend`` may be forced; everything left ``None`` (or
        ``algo="auto"``) is decided by the cost model — except, on the
        host, the worker count and backend, which :func:`host_workers`
        resolves from the caller's knobs: in-process on the native loop's
        own thread count, or ``min(cores, rows / 512)`` pool workers under a
        forced ``backend="process"``.

        ``shards`` and ``panel_width`` are two spellings of the plan's one
        ``grid`` (see ``docs/parallel.md``): ``shards=(nrb, ncp)`` is an
        evenly-spaced grid of row blocks x column panels, an explicit
        :class:`~repro.engine.plan.ShardGrid` is honoured verbatim, and
        ``panel_width=w`` is the ``1 x K`` grid of width-``w`` column
        panels; giving both raises.  With neither, ``memory_budget_bytes``
        picks a panel width when B and the mask exceed it — the one budget
        rule — and otherwise the grid stays ``1 x 1``.

        On the host the decision itself costs what it can repay: see
        :meth:`_host_plan` for the three layers.  An in-process host plan
        also skips the partition's row-work CV and the final ``validate()``
        — it cuts no row parts, and is valid by construction.

        ``_b_csc`` is internal: the caller's ``b_csc=``, B's CSC when the
        call already has it.  Only then is ``inner`` not charged the CSC
        build, and a close call reads B's column counts off it instead of
        counting them.
        """
        check_operands(a, b, mask)
        if phases is not None and phases not in (1, 2):
            raise ValueError("phases must be 1 or 2")
        if partition is not None and partition not in PARTITIONS:
            raise ValueError("partition must be 'block', 'cyclic' or 'balanced'")
        if algo is not None and algo.lower() == "auto":
            algo = None

        notes: list = []
        if backend is not None:
            backend = normalize_backend(backend)
        if self.host:
            unforced = threads is None and backend is None
            threads, backend = host_workers(a, b, threads, backend)
            if unforced:  # nothing priced, nothing forced: say what the rule gave
                notes.append(
                    f"{backend} on {threads} of {self.machine.cores} available "
                    "core(s): in-kernel threads by the call's estimated work "
                    "(threads=, backend= force them)"
                )
        # per-row flops feed the row partition and a preset's backend; a
        # host plan reads them only to cut process row parts
        fl = (
            None if self.host and (backend != "process" or threads == 1)
            else flops_per_row(a, b)
        )
        estimates: Dict[str, float] = {}
        if algo is not None:
            bands, mode = self._forced_bands(a, algo, complement), "forced"
            chosen_phases = 1 if phases is None else phases
        elif self.host:
            bands, estimates = self._host_plan(
                a, b, mask, complement, notes, _b_csc
            )
            mode = "auto"
            # the symbolic sweep is pure extra work for these kernels (they
            # size scratch from the mask bound): 1P unless the caller asks
            chosen_phases = 1 if phases is None else phases
        else:
            model = RowCostModel(a, b, mask, self.machine, complement=complement)
            cand = self._supported(self.candidates, complement, notes)
            ests = {c: model.estimate(c, phases=1) for c in cand}
            estimates = {
                c: self.machine.seconds(e.total_cycles) for c, e in ests.items()
            }
            if self.banding == "ratio":
                bands, mode = self._ratio_bands(a, b, mask, complement, notes), "ratio"
            elif self.banding == "none":
                bands, mode = self._single_band(a, ests, model), "auto"
            else:
                bands, mode = self._cost_bands(a, ests, notes, model), "auto"
            chosen_phases = (
                phases if phases is not None else self._pick_phases(model, bands, notes)
            )

        if not self.host:
            if threads is None:
                threads = self._pick_threads(a.nrows, notes)
            if backend is None:
                backend = self._pick_backend(fl, bands, threads, notes)
        if partition is None:
            # no row parts: there is nothing to partition
            partition = "block" if fl is None else self._pick_partition(fl, notes)
        grid = self._pick_grid(
            b, mask, shards, panel_width, memory_budget_bytes, complement, notes
        )
        if mask.nnz == 0 and not complement:
            notes.append("mask is empty: the output is empty regardless of algorithm")

        pl = ExecutionPlan(
            shape=(a.nrows, b.ncols),
            bands=bands,
            complement=complement,
            phases=chosen_phases,
            threads=threads,
            partition=partition,
            backend=backend,
            grid=grid,
            machine=self.machine.name,
            mode=mode,
            estimates=estimates,
            notes=notes,
        )
        # an in-process host plan is valid by construction: every knob was
        # checked on the way in and its bands cover the rows once
        return pl if fl is None else pl.validate()

    # ------------------------------------------------------------------
    # banding policies
    # ------------------------------------------------------------------
    @staticmethod
    def _supported(candidates, complement: bool, notes) -> list:
        """The candidates that can run this mask (``inner``/``mca`` cannot
        run a complemented one)."""
        cand = [c for c in candidates if not complement or supports_complement(c)]
        if len(cand) < len(candidates):
            dropped = [c for c in candidates if c not in cand]
            notes.append(
                "complemented mask: dropped "
                + "/".join(ALGO_LABELS[c] for c in dropped)
                + " (no complement support)"
            )
        return cand

    def _host_plan(self, a, b, mask, complement: bool, notes, b_csc):
        """Bands and whole-problem estimates of a host plan, in three layers
        that each stop as soon as the decision is made:

        1. *nothing to decide* — one candidate can run the mask (a
           complemented one, or ``candidates=`` of one): its band;
        2. *O(1) totals* — every candidate's whole-problem nanoseconds from
           the operand sizes, ``flops ~ nnz(A) nnz(B) / nrows(B)`` and
           ``pulls ~ nnz(M) nnz(B) / ncols(B)``; unless the cheapest beats
           the runner-up by :data:`DECISIVE_MARGIN`, the exact totals
           (one gather each, no per-row array) decide instead;
        3. *a census only where a split can pay* — splitting rows saves at
           most the winner's total above the per-mask, per-row and per-call
           floor every plan pays; only when that exceeds one more band plus
           the slice+merge cost does :meth:`_host_bands` price each row.
        """
        host = self.machine
        cand = self._supported(self.candidates, complement, notes) or ["msa"]
        nrows, m_nnz = a.nrows, mask.nnz
        if nrows == 0:
            return [], {}
        # (ns per unit of work, per mask nonzero, per row) of each candidate
        coefs = [getattr(host, f"{c}_ns") for c in cand]
        pull = [c == "inner" for c in cand]
        # everything but the work term: mask entries, rows, the call, the CSC
        rest = [pm * m_nnz + pr * nrows + host.band_ns for _, pm, pr in coefs]
        if "inner" in cand and b_csc is None:
            rest[cand.index("inner")] += host.csc_nnz_ns * b.nnz
        flops = a.nnz * b.nnz / max(1, b.nrows)
        pulls = m_nnz * b.nnz / max(1, b.ncols)
        ns = [k[0] * (pulls if p else flops) + r for k, p, r in zip(coefs, pull, rest)]
        # a close call's exact work, one entry of A (flops) or M (pulls) each
        per_a = per_m = None
        if len(cand) > 1:
            first, second = sorted(ns)[:2]
            if second < DECISIVE_MARGIN * first:
                if not all(pull):
                    per_a = flops_per_entry(a, b)
                    flops = int(per_a.sum())
                if any(pull):
                    per_m = pulls_per_entry(b, mask, b_csc)
                    pulls = int(per_m.sum())
                ns = [k[0] * (pulls if p else flops) + r
                      for k, p, r in zip(coefs, pull, rest)]
        best = ns.index(min(ns))
        if len(cand) > 1 and self.banding == "cost":
            floor = (
                min(k[1] for k in coefs) * m_nnz
                + min(k[2] for k in coefs) * nrows + host.band_ns
            )
            split_ns = host.split_nnz_ns * (a.nnz + m_nnz)
            if ns[best] - floor > host.band_ns + split_ns:
                fl = flops_per_row(a, b) if per_a is None else row_sums(a, per_a)
                pl = None
                if any(pull):
                    pl = pulls_per_row(b, mask) if per_m is None else row_sums(mask, per_m)
                return self._host_bands(
                    a, b, mask, fl, pl, cand, notes, b_csc is not None
                )
            notes.append(
                f"one {cand[best]} band: no per-row split repays its "
                f"~{(split_ns + host.band_ns) * 1e-6:.2f} ms slice+merge cost"
            )
        band = RowBand(
            rows=np.arange(nrows, dtype=np.int64),
            algo=cand[best],
            reason=_REASONS[cand[best]],
            # nanoseconds: 1 "cycle" is 1 ns (HostProfile.seconds)
            est_cycles=float(ns[best]),
        )
        return [band], {c: float(t) * 1e-9 for c, t in zip(cand, ns)}

    def _host_bands(self, a, b, mask, fl, pl, cand, notes, csc_ready: bool):
        """Bands from the host profile's linear kernel costs.

        Every non-empty subset of the candidates is priced as "each row
        runs its cheapest member": the sum of those row costs, one fixed
        band cost per member, the CSC build if ``inner`` is a member
        (unless ``csc_ready``: B's CSC is already at hand) and — for a
        split plan — the measured per-nonzero cost of slicing A and M and
        merging the band results.  The cheapest subset wins, so rows are split exactly when
        the predicted saving exceeds what the split costs.  ``fl`` is
        ``flops_per_row(a, b)``, ``pl`` ``pulls_per_row(b, mask)`` (read
        only when ``inner`` is a candidate), ``cand`` the candidates that
        can run the mask.
        """
        host = self.machine
        m_rows = mask.row_nnz()
        cost = np.stack([
            host.row_ns(c, pl if c == "inner" else fl, m_rows) for c in cand
        ])
        setup = np.full(len(cand), host.band_ns)
        if "inner" in cand and not csc_ready:
            setup[cand.index("inner")] += host.csc_nnz_ns * b.nnz
        estimates = {
            c: float(cost[i].sum() + setup[i]) * 1e-9 for i, c in enumerate(cand)
        }
        split_ns = host.split_nnz_ns * (a.nnz + mask.nnz)
        best_ns, best = float("inf"), ()
        for size in range(1, len(cand) + 1):
            for members in combinations(range(len(cand)), size):
                idx = list(members)
                total = float(cost[idx].min(axis=0).sum() + setup[idx].sum())
                if size > 1:
                    total += split_ns
                if total < best_ns:
                    best_ns, best = total, idx
        winner = np.asarray(best)[np.argmin(cost[best], axis=0)]
        bands = []
        for i in best:
            rows = np.flatnonzero(winner == i).astype(np.int64)
            if rows.size:
                bands.append(
                    RowBand(
                        rows=rows,
                        algo=cand[i],
                        reason=_REASONS[cand[i]],
                        # nanoseconds: 1 "cycle" is 1 ns (HostProfile.seconds)
                        est_cycles=float(cost[i, rows].sum() + setup[i]),
                    )
                )
        if len(cand) > 1 and len(bands) == 1:
            notes.append(
                f"one {bands[0].algo} band: no per-row split repays its "
                f"~{(split_ns + host.band_ns) * 1e-6:.2f} ms slice+merge cost"
            )
        return bands, estimates

    def _forced_bands(self, a, algo: str, complement: bool):
        key = algo.lower()
        if key not in ALL_ALGOS:
            raise ValueError(
                f"unknown algorithm {algo!r}; expected one of {ALL_ALGOS}"
            )
        if complement and not supports_complement(key):
            raise ValueError(
                f"{ALGO_LABELS[key]} does not support complemented masks"
            )
        rows = np.arange(a.nrows, dtype=np.int64)
        return [RowBand(rows=rows, algo=key, reason="forced by caller")]

    def _single_band(self, a, ests, model):
        if a.nrows == 0:
            return []
        best = min(ests, key=lambda c: float(ests[c].total_cycles))
        return [
            RowBand(
                rows=np.arange(a.nrows, dtype=np.int64),
                algo=best,
                reason="modeled cheapest whole-problem algorithm",
                est_cycles=float(ests[best].total_cycles),
                est_bytes=float(model.row_bytes(best).sum()),
            )
        ]

    def _cost_bands(self, a, ests, notes, model):
        nrows = a.nrows
        if nrows == 0:
            return []
        cand = list(ests)
        cycles = np.stack([ests[c].row_cycles for c in cand])  # (ncand, nrows)
        winner = np.argmin(cycles, axis=0)
        win_cycles = cycles[winner, np.arange(nrows)]
        total = max(float(win_cycles.sum()), 1e-30)
        # consolidate: drop candidates whose winning rows carry a negligible
        # share of the modeled work, then re-pick among the survivors
        shares = {
            i: float(win_cycles[winner == i].sum()) / total for i in range(len(cand))
        }
        keep = [i for i, s in shares.items() if s >= MIN_BAND_FRACTION]
        if not keep:
            keep = [max(shares, key=shares.get)]
        if len(keep) < len(cand):
            folded = [cand[i] for i in range(len(cand)) if i not in keep and np.any(winner == i)]
            if folded:
                notes.append(
                    "folded negligible bands (" + ", ".join(folded) + ") into survivors"
                )
            sub = np.argmin(cycles[keep], axis=0)
            winner = np.asarray(keep)[sub]
        bands = []
        for i, c in enumerate(cand):
            rows = np.flatnonzero(winner == i).astype(np.int64)
            if rows.size == 0:
                continue
            bands.append(
                RowBand(
                    rows=rows,
                    algo=c,
                    reason=_REASONS.get(c, "modeled cheapest for these rows"),
                    est_cycles=float(cycles[i, rows].sum()),
                    est_bytes=float(model.row_bytes(c)[rows].sum()),
                )
            )
        return bands

    def _ratio_bands(self, a, b, mask, complement, notes):
        classes = classify_rows(
            a,
            b,
            mask,
            self.machine,
            pull_ratio=self.pull_ratio,
            push_ratio=self.push_ratio,
            complement=complement,
        )
        notes.append(
            f"ratio banding (pull_ratio={self.pull_ratio}, "
            f"push_ratio={self.push_ratio})"
        )
        return [
            RowBand(
                rows=np.asarray(rows, dtype=np.int64),
                algo=algo,
                reason=_REASONS.get(algo, "ratio-classified"),
            )
            for algo, rows in classes.items()
        ]

    # ------------------------------------------------------------------
    # scalar decisions
    # ------------------------------------------------------------------
    def _pick_phases(self, model, bands, notes) -> int:
        totals = {1: 0.0, 2: 0.0}
        for band in bands:
            for p in (1, 2):
                est = model.estimate(band.algo, phases=p)
                totals[p] += float(est.row_cycles[band.rows].sum())
        chosen = 1 if totals[1] <= totals[2] else 2
        other = 2 if chosen == 1 else 1
        notes.append(
            f"{chosen}P modeled {totals[other] / max(totals[chosen], 1e-30):.2f}x "
            f"cheaper than {other}P"
        )
        return chosen

    def _pick_threads(self, nrows: int, notes) -> int:
        threads = int(min(self.machine.cores, max(1, nrows // ROWS_PER_THREAD)))
        if threads > 1:
            notes.append(
                f"{threads} threads (~{ROWS_PER_THREAD} rows/worker, "
                f"{self.machine.cores}-core {self.machine.name})"
            )
        return threads

    def _pick_backend(self, fl, bands, threads: int, notes) -> str:
        """Backend of a modeled-preset plan.

        ``process`` pays a per-call dispatch overhead (publish operands into
        shared memory, attach in workers, pickle results back) that only
        amortises on large problems, so a preset plan selects it exactly
        when its modeled whole-problem work clears a fixed modeled-cycle
        crossover.  Below it, multi-worker plans stay on the cheap-to-enter
        thread backend; single-worker plans are serial by construction.
        """
        if threads <= 1:
            return "serial"
        work = float(sum(band.est_cycles for band in bands))
        if work <= 0.0:
            # forced plans carry no modeled cycles; fall back to the flop
            # count as a work proxy (an underestimate, hence conservative)
            work = float(fl.sum()) * self.machine.flop_cycles
        if work >= _MODELED_PROCESS_CROSSOVER_CYCLES and process_backend_available():
            notes.append(
                f"process backend: modeled work {work:.3g} cycles on "
                f"{self.machine.name} (zero-copy shm operands, persistent pool)"
            )
            return "process"
        notes.append(
            f"thread backend: modeled work {work:.3g} cycles on "
            f"{self.machine.name} is too small for the process pool"
        )
        return "thread"

    def _pick_partition(self, fl, notes) -> str:
        mean = float(fl.mean()) if fl.size else 0.0
        if mean <= 0:
            return "block"
        cv = float(fl.std()) / mean
        if cv > 0.25:
            notes.append(f"balanced partition (row-work CV {cv:.2f})")
            return "balanced"
        return "block"

    @staticmethod
    def _pick_grid(b, mask, shards, panel_width, budget_bytes, complement, notes):
        """Resolve ``shards`` / ``panel_width`` / the memory budget into the
        plan's one :class:`ShardGrid` (``None``: the 1x1 plain call)."""
        nrows, ncols = mask.shape
        if shards is not None and panel_width is not None:
            raise ValueError(
                "panel_width and shards are mutually exclusive: both spell "
                "the grid's column panels"
            )
        if panel_width is not None and panel_width <= 0:
            raise ValueError("panel_width must be positive")
        if shards is None and panel_width is None and budget_bytes is not None:
            if budget_bytes <= 0:
                raise ValueError("memory_budget_bytes must be positive")
            footprint = 2 * (b.nnz + mask.nnz) * _WORD
            if footprint > budget_bytes and ncols:
                panel_width = max(1, int(ncols * budget_bytes / footprint))
                notes.append(
                    f"column panels of width {panel_width} "
                    f"(working set ~{footprint} B > budget {budget_bytes} B)"
                )
        if isinstance(shards, ShardGrid):
            grid = shards.validate((nrows, ncols))
        elif shards is not None:
            if isinstance(shards, str) or len(shards) != 2:
                raise ValueError(
                    f"shards must be an (nrb, ncp) tuple or a ShardGrid, "
                    f"got {shards!r}"
                )
            if min(int(shards[0]), int(shards[1])) < 1:
                raise ValueError(f"shards counts must be >= 1, got {shards!r}")
            nrb = max(1, min(int(shards[0]), nrows))
            ncp = max(1, min(int(shards[1]), ncols))
            grid = ShardGrid.regular((nrows, ncols), nrb, ncp)
        elif panel_width is not None and panel_width < ncols:
            grid = ShardGrid(
                (0, nrows), tuple(range(0, ncols, panel_width)) + (ncols,)
            )
        else:
            return None
        if grid.ncells <= 1:
            notes.append("grid 1x1 degenerates to the plain call")
            return None
        notes.append(
            f"complemented mask: all {grid.ncells} grid cells run (an empty "
            "mask cell is dense under the complement)"
            if complement else
            f"grid {grid.nrb}x{grid.ncp}: cells whose mask cell is empty are "
            "dropped before dispatch"
        )
        return grid


def plan(a, b, mask, *, machine=None, **kwargs) -> ExecutionPlan:
    """One-shot convenience: ``Planner(machine).plan(a, b, mask, **kwargs)``."""
    return Planner(machine).plan(a, b, mask, **kwargs)
