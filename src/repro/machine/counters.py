"""Operation counters for instrumented kernel runs.

The paper's conclusions are driven by *how much work* and *what memory
traffic* each algorithm incurs (Sections 4.1-4.3), not by constant factors of
a particular ISA.  The reference kernels therefore record a small set of
architecture-neutral counters which the machine model (:mod:`repro.machine.
cost_model`) converts to predicted times.

Counter semantics:

* ``flops`` — semiring multiply-add pairs actually evaluated.  For a masked
  algorithm that skips masked-out products this is smaller than
  ``flops(AB)``.
* ``useful_flops`` — multiply-adds that land on an unmasked output entry
  (identical for all correct algorithms on the same problem; the difference
  ``flops - useful_flops`` is the wasted work the mask could have saved).
* ``accum_inserts`` / ``accum_removes`` / ``accum_allowed`` — accumulator
  interface traffic (Section 5.1).
* ``hash_probes`` — linear-probing steps in the hash accumulator.
* ``heap_pushes`` / ``heap_pops`` — priority-queue traffic (each costs
  ``O(log nnz(u))``).
* ``mask_scans`` — mask entries inspected (MCA/Heap iterate the mask).
* ``accum_init`` — accumulator cells initialised (MSA pays ``ncols`` once,
  amortised across rows via the reset-list trick; Hash pays
  ``nnz(m)/load_factor`` per row).
* ``spa_resets`` — cells cleared when recycling a dense accumulator.
* ``symbolic_flops`` — work done in a 2P symbolic phase (every 2P call
  runs its sweep; nothing is memoised across calls).
* ``plan_cache_hits`` / ``segments_reused`` / ``rows_recomputed`` / ``rows_patched`` / ``delta_fallbacks`` are kept
  for stored snapshots and the ladder's traced rungs; nothing charges
  them (no plan, segment or row survives a call), so they stay 0.

Schema growth: counters cross process and file boundaries (pool workers
pickle them back; trace exports store their dict form), so every
consumer of *another* counter's fields must tolerate a field the producer
predates.  :meth:`OpCounter.merge` treats a missing field as 0 and
:meth:`OpCounter.diff` accepts snapshots shorter than the current field
list — adding a counter must never make old payloads unreadable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["OpCounter"]


@dataclass
class OpCounter:
    """Mutable bundle of operation counts for one kernel invocation."""

    flops: int = 0
    useful_flops: int = 0
    accum_inserts: int = 0
    accum_removes: int = 0
    accum_allowed: int = 0
    hash_probes: int = 0
    heap_pushes: int = 0
    heap_pops: int = 0
    mask_scans: int = 0
    accum_init: int = 0
    spa_resets: int = 0
    symbolic_flops: int = 0
    output_nnz: int = 0
    # kept for stored snapshots and the ladder's traced rungs; always 0
    # (appended last: snapshots taken before the schema grew keep reading
    # correctly through diff())
    plan_cache_hits: int = 0
    segments_reused: int = 0
    rows_recomputed: int = 0
    rows_patched: int = 0
    delta_fallbacks: int = 0

    def merge(self, other: "OpCounter") -> "OpCounter":
        """Accumulate another counter into this one (in place).

        ``other`` may be an older-schema counter (unpickled from a worker
        running previous code, or reconstructed from a stored dict) that
        lacks recently added fields; those merge as 0 instead of raising.
        """
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name, 0))
        return self

    def snapshot(self) -> tuple:
        """Cheap immutable snapshot of every field (for :meth:`diff`)."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def diff(self, before: Optional[tuple]) -> dict:
        """Non-zero per-field deltas since a :meth:`snapshot`.

        ``before=None`` means "since zero" — the full current state.  A
        snapshot shorter than the current field list (taken before a
        schema grew) reads as 0 for the missing trailing fields.  The
        tracer (:mod:`repro.observe`) attaches these deltas to spans so a
        nested span reports exactly the operations charged *inside* it.
        """
        out = {}
        for i, f in enumerate(fields(self)):
            base = before[i] if before is not None and i < len(before) else 0
            delta = getattr(self, f.name) - base
            if delta:
                out[f.name] = delta
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "OpCounter":
        """Rebuild from :meth:`as_dict` output, ignoring unknown keys — a
        newer producer's extra counters must not break an older reader."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: int(v) for k, v in payload.items() if k in known})

    def total_ops(self) -> int:
        """A scalar summary: every counted event, each weighted 1."""
        return sum(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "OpCounter":
        return OpCounter(**self.as_dict())
