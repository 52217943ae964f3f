"""The :class:`ExecutionPlan` — an explicit, inspectable record of *how* a
masked SpGEMM will be executed.

A plan fixes every decision the runtime used to scatter across four
competing entry points:

* **the band** — which algorithm runs the output rows: one band over
  every row (the regime of Figure 7 / Section 4.3 the whole product falls
  in),
* **phases** — the 1P/2P output-formation strategy of Section 6,
* **threads / backend** — how many workers carry out Section 3's
  coarse-grained row parallelism and on which executor (``serial`` |
  ``thread`` | ``process`` — the shared-memory worker pool, which cuts
  flop-balanced row parts).

Plans are produced by :class:`repro.engine.Planner` (priced from the
measured host profile) or
constructed by hand, and consumed by :func:`repro.engine.execute`.  They are
plain data: no matrix references, so a plan can be logged, serialised
(:meth:`ExecutionPlan.as_dict`) and replayed on equal-shaped inputs.
:meth:`ExecutionPlan.explain` renders the *why* — benchmarks and docs print
it so algorithm choices are auditable rather than folklore.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.leaf import ALL_ALGOS, supports_complement

__all__ = ["RowBand", "ExecutionPlan"]


def check_threads(threads) -> None:
    """A worker count is an ``int`` >= 1 (a ``bool`` is not one)."""
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
        raise ValueError(f"threads must be positive, got {threads!r}")


def check_phases(phases) -> None:
    """A phase count is the ``int`` 1 or 2 (a ``bool`` or a float is not)."""
    if isinstance(phases, bool) or not isinstance(phases, numbers.Integral) or phases not in (1, 2):
        raise ValueError(f"phases must be 1 or 2, got {phases!r}")


@dataclass
class RowBand:
    """The output rows bound to one algorithm: a plan's one band owns
    every row."""

    nrows: int  #: the output rows ``0 .. nrows - 1``
    algo: str  #: kernel key ("msa", "hash", "mca", "inner", "esc", ...)
    reason: str = ""  #: one-line rationale recorded by the planner
    #: predicted nanoseconds for this band (0 if not priced), stored as
    #: "cycles" of the host profile (``HostProfile.seconds``: 1 "cycle" is
    #: 1 ns); the prediction ledger pairs it with the measured seconds
    est_cycles: float = 0.0


@dataclass
class ExecutionPlan:
    """Every decision needed to run ``C = M .* (A @ B)`` (or ``!M``).

    ``bands`` is one band over every output row.  ``estimates`` holds
    the planner's whole-problem seconds per candidate algorithm (for
    :meth:`explain`), predicted from the host profile's measured kernel
    costs; ``notes`` records free-form planner decisions.
    """

    shape: Tuple[int, int]  #: output (and mask) shape
    bands: List[RowBand]
    complement: bool = False
    phases: int = 1  #: 1 (one-phase) or 2 (symbolic + numeric)
    threads: int = 1
    backend: str = "thread"  #: "serial" | "thread" | "process"
    #: the name of the HostProfile the plan was priced from
    machine: str = "host"
    mode: str = "auto"  #: "auto" | "forced"
    estimates: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def algos(self) -> Tuple[str, ...]:
        """The algorithm of each band: one, in a valid plan."""
        return tuple(band.algo for band in self.bands)

    @property
    def algo(self) -> Optional[str]:
        """The algorithm of the plan's one band (None for any other shape)."""
        return self.bands[0].algo if len(self.bands) == 1 else None

    def nrows_per_algo(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for band in self.bands:
            out[band.algo] = out.get(band.algo, 0) + band.nrows
        return out

    # ------------------------------------------------------------------
    def validate(self) -> "ExecutionPlan":
        """Check internal consistency; raises ValueError on a broken plan."""
        nrows = self.shape[0]
        check_phases(self.phases)
        check_threads(self.threads)
        if self.backend not in ("serial", "thread", "process"):
            raise ValueError("backend must be 'serial', 'thread' or 'process'")
        if len(self.bands) != 1:
            raise ValueError(
                "a plan has one band covering every output row exactly "
                f"once, got {len(self.bands)} bands"
            )
        (band,) = self.bands
        if band.algo not in ALL_ALGOS:
            raise ValueError(f"plan references unknown algorithm {band.algo!r}")
        if self.complement and not supports_complement(band.algo):
            raise ValueError(
                f"plan routes a complemented mask to {band.algo!r}, "
                "which does not support complement"
            )
        if band.nrows != nrows:
            raise ValueError(
                f"a plan's band must cover every output row exactly once: "
                f"it has {band.nrows} of {nrows}"
            )
        return self

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-able summary (row sets abbreviated to counts)."""
        return {
            "shape": list(self.shape),
            "complement": self.complement,
            "phases": self.phases,
            "threads": self.threads,
            "backend": self.backend,
            "machine": self.machine,
            "mode": self.mode,
            "bands": [
                {
                    "algo": band.algo,
                    "nrows": band.nrows,
                    "reason": band.reason,
                    "est_cycles": band.est_cycles,
                }
                for band in self.bands
            ],
            "estimates_seconds": dict(self.estimates),
            "notes": list(self.notes),
        }

    def explain(self) -> str:
        """Human-readable account of what will run and why."""
        nrows = max(1, self.shape[0])
        lines = [
            f"ExecutionPlan[{self.mode}] for {self.shape[0]}x{self.shape[1]} "
            f"output on {self.machine} "
            f"({'complemented' if self.complement else 'plain'} mask)",
            f"  phases={self.phases}P  threads={self.threads} "
            f"({self.backend} backend)",
        ]
        for i, band in enumerate(self.bands):
            pct = 100.0 * band.nrows / nrows
            # est_cycles holds predicted ns
            cyc = f", ~{band.est_cycles * 1e-6:.3g} ms predicted" if band.est_cycles else ""
            why = f" — {band.reason}" if band.reason else ""
            lines.append(
                f"  band {i}: algo={band.algo:<7s} rows={band.nrows}"
                f" ({pct:.1f}%){cyc}{why}"
            )
        if self.estimates:
            ranked = sorted(self.estimates.items(), key=lambda kv: kv[1])
            pretty = "  <  ".join(f"{k} {v:.3e}s" for k, v in ranked)
            lines.append(
                f"  predicted candidates on {self.machine} (fastest first): {pretty}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.explain()
