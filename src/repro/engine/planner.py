"""The :class:`Planner` — turns (A, B, M, machine) into an
:class:`~repro.engine.plan.ExecutionPlan`.

``machine`` plays one of two roles, and the planner prices rows accordingly:

* **the host** (``machine=None``, every shipped default): per-row seconds
  come from the measured :class:`~repro.machine.HostProfile` — linear in
  ``flops(AB)``, mask nonzeros and pulled pairs, statistics computed once
  per plan.  Rows are split into bands only when the predicted saving
  beats the measured cost of slicing and merging.  Worker count and
  backend belong to the caller: one serial worker unless ``threads=`` or
  ``backend=`` says otherwise (``docs/parallel.md``, "Who picks the
  backend"), so a plan is a function of operands, options and profile.
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

from ..core.kernels.batch import (
    BATCH_TIERS,
    BATCHABLE_ALGOS,
    DEFAULT_BATCH_CROSSOVER_FLOPS,
    bucket_census,
)
from ..core.leaf import (
    ALGO_LABELS,
    ALL_ALGOS,
    check_operands,
    classify_rows,
    supports_complement,
)
from ..machine import HostProfile, RowCostModel, flops_per_row, pulls_per_row, \
    resolve_machine
from ..parallel.executor import normalize_backend
from ..parallel.pool import process_backend_available
from .plan import ExecutionPlan, RowBand, ShardGrid

__all__ = ["Planner", "plan", "PLAN_CANDIDATES"]

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
#: picks a backend, see :meth:`Planner._host_workers`)
_MODELED_PROCESS_CROSSOVER_CYCLES = 2.0e6

#: cost banding on a modeled preset: bands carrying less than this fraction
#: of the modeled work are folded into the remaining candidates
#: (dispatch-overhead guard)
MIN_BAND_FRACTION = 0.02

#: target rows per worker when choosing a worker count
ROWS_PER_THREAD = 512


def host_row_ns(host: HostProfile, algo: str, b, mask, fl) -> np.ndarray:
    """Measured-coefficient nanoseconds per output row for ``algo``
    (algorithms without coefficients are priced as ``msa``); ``fl`` is
    ``flops_per_row(a, b)``.  The planner and the delta engine's
    patch-or-full decision price rows with this one function."""
    if algo == "inner":
        return host.row_ns("inner", pulls_per_row(b, mask), mask.row_nnz())
    key = algo if algo in host.candidates else "msa"
    return host.row_ns(key, fl, mask.row_nnz())


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
        batch: Optional[str] = None,
        _csc_ready: bool = False,
    ) -> ExecutionPlan:
        """Build a plan for ``C = M .* (A @ B)`` (``!M`` with complement).

        Any of ``algo``, ``phases``, ``threads``, ``partition`` and
        ``backend`` may be forced; everything left ``None`` (or
        ``algo="auto"``) is decided by the cost model — except, on the
        host, the worker count and backend: one serial worker unless the
        caller forces ``threads`` (``"thread"`` follows) or a ``backend``
        (``min(cores, rows / 512)`` workers follow).

        ``shards`` and ``panel_width`` are two spellings of the plan's one
        ``grid`` (see ``docs/parallel.md``): ``shards=(nrb, ncp)`` is an
        evenly-spaced grid of row blocks x column panels, an explicit
        :class:`~repro.engine.plan.ShardGrid` is honoured verbatim, and
        ``panel_width=w`` is the ``1 x K`` grid of width-``w`` column
        panels; giving both raises.  With neither, ``memory_budget_bytes``
        picks a panel width when B and the mask exceed it — the one budget
        rule — and otherwise the grid stays ``1 x 1``.

        ``batch`` forces the fast kernels' batching tier (``"bucket"`` |
        ``"perrow"``; ``None``/``"auto"`` lets the planner decide per band
        against ``DEFAULT_BATCH_CROSSOVER_FLOPS``).  Tiers are
        bit-for-bit identical, so this is purely a performance choice; the
        resolved tier and the band's flops-size-class census land on each
        :class:`~repro.engine.plan.RowBand` for ``explain()``/``as_dict()``.

        ``_csc_ready`` is internal: :func:`~repro.engine.session.plan_call`
        sets it when the call already holds B's fingerprint and the memoised
        CSC behind it, and only then is ``inner`` not charged the CSC build.
        """
        check_operands(a, b, mask)
        if phases is not None and phases not in (1, 2):
            raise ValueError("phases must be 1 or 2")
        if algo is not None and algo.lower() == "auto":
            algo = None
        if batch is not None and batch not in BATCH_TIERS:
            raise ValueError(
                f"batch must be one of {BATCH_TIERS} or None, got {batch!r}"
            )

        notes: list = []
        fl = flops_per_row(a, b)  # shared by every decision below
        estimates: Dict[str, float] = {}
        if algo is not None:
            bands, mode = self._forced_bands(a, algo, complement), "forced"
            chosen_phases = 1 if phases is None else phases
        elif self.host:
            bands, estimates = self._host_bands(
                a, b, mask, fl, complement, notes, _csc_ready
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

        self._assign_batch(fl, bands, batch, notes)
        if backend is not None:
            backend = normalize_backend(backend)
        if self.host:
            threads, backend = self._host_workers(
                mask.nrows, threads, backend, notes
            )
        else:
            if threads is None:
                threads = self._pick_threads(a.nrows, notes)
            if backend is None:
                backend = self._pick_backend(fl, bands, threads, notes)
        if partition is None:
            partition = self._pick_partition(fl, notes)
        grid = self._pick_grid(
            b, mask, shards, panel_width, memory_budget_bytes, complement, notes
        )
        if mask.nnz == 0 and not complement:
            notes.append("mask is empty: the output is empty regardless of algorithm")

        return ExecutionPlan(
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
        ).validate()

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

    def _host_bands(self, a, b, mask, fl, complement: bool, notes, csc_ready: bool):
        """Bands from the host profile's linear kernel costs.

        Every non-empty subset of the candidates is priced as "each row
        runs its cheapest member": the sum of those row costs, one fixed
        band cost per member, the CSC build if ``inner`` is a member
        (unless ``csc_ready``: a session holding B's fingerprint and its
        memoised transpose says so) and — for a split plan — the
        measured per-nonzero cost of slicing A and M and merging the band
        results.  The cheapest subset wins, so rows are split exactly when
        the predicted saving exceeds what the split costs.
        """
        host = self.machine
        cand = self._supported(self.candidates, complement, notes) or ["msa"]
        if a.nrows == 0:
            return [], {}
        cost = np.stack([host_row_ns(host, c, b, mask, fl) for c in cand])
        setup = np.full(len(cand), host.band_ns)
        if "inner" in cand and not csc_ready:
            setup[cand.index("inner")] += host.csc_nnz_ns * b.nnz
        estimates = {
            c: float(cost[i].sum() + setup[i]) * 1e-9 for i, c in enumerate(cand)
        }
        split_ns = host.split_nnz_ns * (a.nnz + mask.nnz)
        sizes = (1,) if self.banding == "none" else range(1, len(cand) + 1)
        best_ns, best = float("inf"), ()
        for size in sizes:
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
    def _assign_batch(self, per, bands, forced, notes) -> None:
        """Resolve each band's kernel batching tier and bucket census.

        Batchable algorithms (MSA/Hash/ESC fast kernels) get the bucketed
        tier exactly when the band's upper-bound flops reach
        ``DEFAULT_BATCH_CROSSOVER_FLOPS`` (or whatever ``batch=`` forces);
        the rest are pinned to ``"perrow"``.  Both tiers are bit-for-bit identical,
        so this is a pure performance decision — recorded on the band, with
        a census note, so ``explain()`` shows what will run batched and why.
        """
        if not bands:
            return
        bucketed_rows = 0
        perrow_rows = 0
        any_batchable = False
        for band in bands:
            rows = np.asarray(band.rows)
            band_flops = int(per[rows].sum())
            band.buckets = bucket_census(per[rows])
            if band.algo not in BATCHABLE_ALGOS:
                band.batch = "perrow"
                continue
            any_batchable = True
            if forced is not None and forced != "auto":
                band.batch = forced
            elif band_flops >= DEFAULT_BATCH_CROSSOVER_FLOPS:
                band.batch = "bucket"
            else:
                band.batch = "perrow"
            if band.batch == "bucket":
                bucketed_rows += band.nrows
            else:
                perrow_rows += band.nrows
        if not any_batchable:
            return
        if forced is not None and forced != "auto":
            notes.append(f"batch tier forced to {forced!r} by caller")
        else:
            notes.append(
                f"batch tiers: {bucketed_rows} rows bucketed, "
                f"{perrow_rows} rows per-row "
                f"(crossover {DEFAULT_BATCH_CROSSOVER_FLOPS} upper-bound flops)"
            )

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

    def _host_workers(self, nrows: int, threads, backend, notes):
        """Worker count and backend of a host plan: the caller's.

        Nothing here is priced, so nothing is picked: with neither knob
        forced the plan is one serial worker.  A forced ``threads`` with no
        ``backend`` runs on ``"thread"`` (``parallel_masked_spgemm``'s own
        default); a forced parallel ``backend`` with no ``threads`` gets
        ``min(cores, rows / ROWS_PER_THREAD)`` workers.  The measured tables
        behind the rule are in ``docs/parallel.md`` ("Who picks the
        backend").
        """
        cores = self.machine.cores
        if threads is None and backend is None:
            notes.append(
                f"serial on {cores} available core(s): worker count and "
                "backend are the caller's (threads=, backend=)"
            )
            return 1, "serial"
        if threads is None:
            by_rows = max(1, nrows // ROWS_PER_THREAD)
            threads = 1 if backend == "serial" else min(cores, by_rows)
        if backend is None:
            backend = "thread" if threads > 1 else "serial"
        return threads, backend

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
