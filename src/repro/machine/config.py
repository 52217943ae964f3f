"""Machine configurations for the cost model.

Two presets mirror the paper's testbeds (Section 7):

* ``HASWELL`` — 2x Intel Xeon E5-2698v3, 32 cores total, 2.3 GHz, 40 MB
  shared L3, 256 KB L2 per core.
* ``KNL`` — Intel Xeon Phi 7250, 68 cores, 1.4 GHz, **no L3**, 1 MB L2
  shared per 2-core tile (0.5 MB effective per core).

The model only needs a handful of parameters: per-core "effective private
cache" capacity (what an accumulator must fit into to be cheap), last-level
capacity, line size, core count, and rough throughput/latency constants.
The constants are calibrated so *relative* algorithm behaviour matches the
paper; absolute times are not meaningful and EXPERIMENTS.md never claims
they are.  For the same reason a preset never steers live execution unless
asked to by name: calls that pass no ``machine=`` are planned from the
measured :class:`repro.machine.host.HostProfile` of this interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineConfig", "HASWELL", "KNL", "MACHINES"]


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of a modeled shared-memory machine."""

    name: str
    cores: int
    ghz: float
    line_bytes: int = 64
    #: capacity an accumulator effectively has per core (L2-ish)
    private_cache_bytes: int = 256 * 1024
    #: last-level cache capacity shared by all cores (0 = none)
    llc_bytes: int = 40 * 1024 * 1024
    #: amortised cycles for a cache-resident access (scatter/gather)
    hit_cycles: float = 1.5
    #: cycles for an LLC hit (only if llc_bytes > 0)
    llc_cycles: float = 40.0
    #: cycles for a DRAM access (per cache line, amortised)
    dram_cycles: float = 200.0
    #: cycles per arithmetic op (semiring multiply-add)
    flop_cycles: float = 1.0
    #: cycles per hash probe / heap op beyond the memory cost
    probe_cycles: float = 3.0
    heap_cycles: float = 8.0

    def seconds(self, cycles: float) -> float:
        """Convert modeled cycles to seconds."""
        return cycles / (self.ghz * 1e9)


HASWELL = MachineConfig(
    name="haswell",
    cores=32,
    ghz=2.3,
    private_cache_bytes=256 * 1024,
    llc_bytes=40 * 1024 * 1024,
)

# KNL: no L3; MCDRAM acts as a high-bandwidth memory, so DRAM penalty is a
# bit lower, but the missing LLC is what drives the paper's MSA-vs-Inner
# differences between the two machines.
KNL = MachineConfig(
    name="knl",
    cores=68,
    ghz=1.4,
    private_cache_bytes=512 * 1024,
    llc_bytes=0,
    llc_cycles=0.0,
    dram_cycles=170.0,
)

MACHINES = {m.name: m for m in (HASWELL, KNL)}
