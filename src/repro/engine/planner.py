"""The :class:`Planner` — turns (A, B, M) into an
:class:`~repro.engine.plan.ExecutionPlan`, priced from this host.

Seconds come from the measured :class:`~repro.machine.HostProfile` —
linear in ``flops(AB)``, mask nonzeros and pulled pairs.  A plan is paid on
every ``algo="auto"`` call, so it decides in the cheaper of two layers
that can (:meth:`Planner._host_plan`; ``docs/engine.md``, "What a host plan
costs"): one candidate needs no decision; whole-problem totals from the
operand sizes decide a clear call, exact totals (one gather per entry) a
close one.  Either way the plan is one band: one algorithm runs every row,
as in every figure of the paper.  Nothing prices workers: a plan runs
in-process, on the threads the native row loop takes for the call's
estimated work (:func:`host_workers`), unless the caller forces
``threads=`` or ``backend=`` (``docs/parallel.md``, "Who picks the
backend"), so a plan is a function of operands, options and profile.

The paper's machines are not priced here: their per-row cycles are
:class:`repro.machine.RowCostModel`'s, which the figure experiments read
directly.  Only algorithms with vectorized fast kernels are candidates —
the ones the profile carries coefficients for, which win somewhere on the
Fig. 7 grid or R-MAT scale 10-13; the heap schemes are reference-tier by
design (the paper's algorithmic lower bound).  Every algorithm stays
plannable as a forced ``algo=``.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional

from ..core.leaf import (
    ALGO_LABELS,
    ALL_ALGOS,
    algo_key,
    check_operands,
    kernel_threads,
    supports_complement,
)
from ..machine import HostProfile, available_cores, host_profile
from ..machine.traffic import flops_per_entry, pulls_per_entry
from ..parallel.executor import normalize_backend
from .plan import ExecutionPlan, RowBand, check_phases, check_threads

__all__ = ["Planner", "plan", "planner_for", "host_workers"]

#: one-line regime rationale per algorithm (paper Sec. 4.3 / Fig. 7)
_REASONS = {
    "inner": "mask much sparser than the product work (pull regime)",
    "mca": "inputs much sparser than the mask (compact accumulator regime)",
    "msa": "comparable densities; dense accumulator is cache-cheap",
    "hash": "comparable densities; compact hash beats an overflowing SPA",
    "esc": "streaming expand-sort-compress cheapest (no accumulator traffic)",
}

#: a host plan's O(1) whole-problem estimates decide its algorithm when the
#: runner-up is predicted at least this many times slower than the cheapest;
#: a closer call is decided on the exact flop and pull totals
DECISIVE_MARGIN = 2.0

#: target rows per pool worker of an unforced ``backend="process"`` count
ROWS_PER_THREAD = 512


def host_workers(a, b, threads: Optional[int], backend: Optional[str]):
    """``(threads, backend)`` of every plan from the caller's knobs.

    A forced ``threads`` must be an ``int`` >= 1 (not a ``bool``).  A
    ``process`` plan (only ever forced) cuts ``threads`` row parts for its
    pool workers: ``min(cores, rows / ROWS_PER_THREAD)`` unless forced.
    Every other plan runs in-process, and its ``threads`` is the count its
    native row loops run, :func:`~repro.core.leaf.kernel_threads` — 1 under
    ``backend="serial"``, else the caller's ``threads``, else every core
    once the call's estimated products reach the crossover, capped at
    ``nrows(A)``; it is ``"thread"`` when that is more than one, else
    ``"serial"``.
    """
    if threads is not None:
        check_threads(threads)
    if backend == "process":
        if threads is None:
            threads = min(available_cores(), max(1, a.nrows // ROWS_PER_THREAD))
        return threads, backend
    threads = kernel_threads(a, b, threads=threads, backend=backend)
    return threads, "thread" if threads > 1 else "serial"


class Planner:
    """Constructs execution plans from matrix statistics and the measured
    kernel costs of this host.

    Parameters
    ----------
    profile:
        The :class:`~repro.machine.HostProfile` plans are priced from;
        ``None`` (default) is :func:`repro.machine.host_profile`, the one
        fitted on the kernel tier this process runs.  A paper machine (a
        :class:`~repro.machine.MachineConfig` or a preset name) is not a
        profile: its costs are :class:`repro.machine.RowCostModel`'s.  The
        profile's ``candidates`` are the algorithms the auto planner may
        select; each needs the profile's measured coefficients.
    """

    def __init__(self, profile: Optional[HostProfile] = None) -> None:
        if profile is None:
            profile = host_profile()
        elif not isinstance(profile, HostProfile):
            raise ValueError(
                f"a plan is priced from a HostProfile, not "
                f"{getattr(profile, 'name', profile)!r}: a paper machine's "
                "per-row cycles are repro.machine.RowCostModel's"
            )
        self.profile = profile
        self.candidates = tuple(profile.candidates)
        for c in self.candidates:
            if c not in ALL_ALGOS:
                raise ValueError(f"unknown candidate algorithm {c!r}")
            if getattr(profile, f"{c}_ns", None) is None:
                raise ValueError(
                    f"the host profile has no measured coefficients for {c!r}; "
                    "force it with algo="
                )

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
        backend: Optional[str] = None,
        _b_csc=None,
    ) -> ExecutionPlan:
        """Build a plan for ``C = M .* (A @ B)`` (``!M`` with complement).

        Any of ``algo``, ``phases``, ``threads`` and ``backend`` may be
        forced; ``algo`` left ``None`` (or ``"auto"``) is decided from the
        profile, ``phases`` left ``None`` is 1.  The worker count and
        backend are never priced: :func:`host_workers` resolves them from
        the caller's knobs — in-process on the native loop's own thread
        count, or ``min(cores, rows / 512)`` pool workers under a forced
        ``backend="process"``.

        The decision itself costs what it can repay: see :meth:`_host_plan`
        for its two layers.  A plan skips the final ``validate()``: it is
        valid by construction.

        ``_b_csc`` is internal: the caller's ``b_csc=``, B's CSC when the
        call already has it.  Only then is ``inner`` not charged the CSC
        build, and a close call reads B's column counts off it instead of
        counting them.
        """
        check_operands(a, b, mask, _b_csc)
        if phases is not None:
            check_phases(phases)
        if algo is not None:
            algo = algo_key(algo)
            if algo == "auto":
                algo = None

        notes: list = []
        if backend is not None:
            backend = normalize_backend(backend)
        unforced = threads is None and backend is None
        threads, backend = host_workers(a, b, threads, backend)
        if unforced:  # nothing priced, nothing forced: say what the rule gave
            notes.append(
                f"{backend} on {threads} of {self.profile.cores} available "
                "core(s): in-kernel threads by the call's estimated work "
                "(threads=, backend= force them)"
            )
        estimates: Dict[str, float] = {}
        if algo is not None:
            bands, mode = self._forced_bands(a, algo, complement), "forced"
        else:
            bands, estimates = self._host_plan(
                a, b, mask, complement, notes, _b_csc
            )
            mode = "auto"

        if mask.nnz == 0 and not complement:
            notes.append("mask is empty: the output is empty regardless of algorithm")

        # valid by construction: every knob was checked on the way in and
        # the one band covers every row
        return ExecutionPlan(
            shape=(a.nrows, b.ncols),
            bands=bands,
            complement=complement,
            # the symbolic sweep is pure extra work for these kernels (they
            # size scratch from the mask bound): 1P unless the caller asks
            phases=1 if phases is None else phases,
            threads=threads,
            backend=backend,
            machine=self.profile.name,
            mode=mode,
            estimates=estimates,
            notes=notes,
        )

    # ------------------------------------------------------------------
    # bands
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
        """The one band and the whole-problem estimates of a host plan,
        decided in the first of two layers that can:

        1. *nothing to decide* — one candidate can run the mask (a
           complemented one, or a profile's only one): its band;
        2. *totals* — every candidate's whole-problem nanoseconds from the
           operand sizes, ``flops ~ nnz(A) nnz(B) / nrows(B)`` and
           ``pulls ~ nnz(M) nnz(B) / ncols(B)``; unless the cheapest beats
           the runner-up by :data:`DECISIVE_MARGIN`, the exact totals (one
           gather each, no per-row array) decide instead.
        """
        host = self.profile
        cand = self._supported(self.candidates, complement, notes) or ["msa"]
        nrows, m_nnz = a.nrows, mask.nnz
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
        if len(cand) > 1:
            first, second = sorted(ns)[:2]
            if second < DECISIVE_MARGIN * first:
                # a close call: the exact work, one entry of A (flops) or M
                # (pulls) each
                if not all(pull):
                    flops = int(flops_per_entry(a, b).sum())
                if any(pull):
                    pulls = int(pulls_per_entry(b, mask, b_csc).sum())
                ns = [k[0] * (pulls if p else flops) + r
                      for k, p, r in zip(coefs, pull, rest)]
        best = ns.index(min(ns))
        band = RowBand(
            nrows=nrows,
            algo=cand[best],
            reason=_REASONS[cand[best]],
            # nanoseconds: 1 "cycle" is 1 ns (HostProfile.seconds)
            est_cycles=float(ns[best]),
        )
        return [band], {c: float(t) * 1e-9 for c, t in zip(cand, ns)}

    @staticmethod
    def _forced_bands(a, algo: str, complement: bool):
        if complement and not supports_complement(algo):
            raise ValueError(
                f"{ALGO_LABELS[algo]} does not support complemented masks"
            )
        return [RowBand(nrows=a.nrows, algo=algo, reason="forced by caller")]


def plan(a, b, mask, **kwargs) -> ExecutionPlan:
    """One-shot convenience: ``Planner().plan(a, b, mask, **kwargs)``."""
    return Planner().plan(a, b, mask, **kwargs)


@functools.lru_cache(maxsize=8)
def planner_for(profile: HostProfile) -> Planner:
    """The planner of a host profile, shared by every call priced from it
    (a planner holds no per-call state)."""
    return Planner(profile)
