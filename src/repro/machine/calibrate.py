"""Calibrate a MachineConfig from measurements on the local host.

The Haswell/KNL presets reproduce the *paper's* machines.  This module fits
the same *modeled* constants (cache capacities, touch costs) to the local
host for the cost-model studies; live planning does not use them — it reads
the measured kernel coefficients of :mod:`repro.machine.host`.

* random-touch cost vs working-set size (a scatter microbenchmark at
  several sizes) gives ``hit_cycles`` / ``llc_cycles`` / ``dram_cycles``
  and the capacity breakpoints;
* a streaming pass gives the line-fetch cost;
* ``os.cpu_count()`` gives the core count.

Measurements run through the same vectorized primitives the fast kernels
use (``np.add.at`` scatter, contiguous reads), so the calibrated model
predicts *this process's* kernel behaviour, amortised Python overhead
included.  Times are converted to "cycles" at a nominal frequency — only
ratios matter to the model.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

import numpy as np

from .config import MachineConfig

__all__ = ["measure_touch_costs", "calibrate_machine"]

NOMINAL_GHZ = 1.0  # 1 cycle == 1 ns in calibrated configs


def _time_best(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_touch_costs(
    sizes_bytes: Tuple[int, ...] = (1 << 14, 1 << 17, 1 << 20, 1 << 23, 1 << 26),
    touches: int = 1 << 19,
    seed: int = 0,
) -> Dict[int, float]:
    """ns per random scatter touch into arrays of the given byte sizes."""
    rng = np.random.default_rng(seed)
    out: Dict[int, float] = {}
    vals = np.ones(touches)
    for size in sizes_bytes:
        n = max(1, size // 8)
        target = np.zeros(n)
        idx = rng.integers(0, n, size=touches)

        def body(target=target, idx=idx):
            np.add.at(target, idx, vals)

        body()  # warm-up
        out[size] = _time_best(body) / touches * 1e9
    return out


def _stream_cost_ns_per_line(nbytes: int = 1 << 26, line: int = 64) -> float:
    src = np.zeros(nbytes // 8)
    dst = np.zeros_like(src)

    def body():
        np.add(src, 1.0, out=dst)

    body()
    secs = _time_best(body)
    return secs / (nbytes / line) * 1e9


def calibrate_machine(name: str = "local", *, quick: bool = True) -> MachineConfig:
    """Fit a :class:`MachineConfig` to the local host.

    ``quick=True`` uses smaller buffers (sub-second total); ``False``
    measures with larger sweeps for more stable constants.
    """
    sizes = (1 << 14, 1 << 18, 1 << 22, 1 << 25) if quick else (
        1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26
    )
    touches = 1 << 18 if quick else 1 << 21
    costs = measure_touch_costs(sizes, touches=touches)
    sizes_sorted: List[int] = sorted(costs)
    hit_ns = costs[sizes_sorted[0]]
    dram_ns = costs[sizes_sorted[-1]]
    mid = sizes_sorted[len(sizes_sorted) // 2]
    llc_ns = costs[mid]
    # breakpoints: private capacity = largest size within 1.5x of the hit
    # cost; LLC capacity = largest size within 1.5x of the mid cost
    private = max(
        (s for s in sizes_sorted if costs[s] <= 1.5 * hit_ns),
        default=sizes_sorted[0],
    )
    llc = max(
        (s for s in sizes_sorted if costs[s] <= 1.5 * llc_ns),
        default=private,
    )
    line_ns = _stream_cost_ns_per_line(1 << 24 if quick else 1 << 26)
    cores = os.cpu_count() or 1
    ghz = NOMINAL_GHZ
    return MachineConfig(
        name=name,
        cores=cores,
        ghz=ghz,
        private_cache_bytes=int(private),
        llc_bytes=int(llc) if llc > private else 0,
        hit_cycles=max(0.25, hit_ns * ghz),
        llc_cycles=max(0.5, llc_ns * ghz),
        dram_cycles=max(1.0, dram_ns * ghz, line_ns * ghz),
    )
