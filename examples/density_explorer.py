#!/usr/bin/env python3
"""Density explorer: who wins where? (paper Figure 7 + Section 4.3)

Sweeps mask density against input density on Erdős–Rényi matrices and
prints the winning algorithm per cell, three ways:

1. the machine cost model on the Haswell preset (the paper's Figure 7),
2. the same on the KNL preset (no L3 — watch the regions move),
3. measured wall-clock of the vectorized kernels in this process.

Also prints the plan ``algo="auto"`` makes for a dense-A, sparse-mask
problem: one ``inner`` band over every row, priced from this host's
measured kernel costs.

Run:  python examples/density_explorer.py
"""

import time

from repro.bench import fig07_density_grid, render_grid
from repro import engine
from repro.core import masked_spgemm
from repro.graphs import erdos_renyi
from repro.machine import HASWELL, KNL
from repro.sparse import CSC


def modeled_grids() -> None:
    degrees = (1, 4, 16, 64)
    for machine in (HASWELL, KNL):
        res = fig07_density_grid(n=4096, degrees=degrees, machine=machine)
        print(render_grid(
            "input_deg", "mask_deg",
            res.input_degrees, res.mask_degrees, res.winners,
            title=f"modeled winners on {machine.name} (n=4096)",
        ))
        print()


def measured_grid() -> None:
    degrees = (2, 8, 32)
    n = 4000
    winners = {}
    for d_in in degrees:
        a = erdos_renyi(n, n, d_in, seed=d_in)
        b = erdos_renyi(n, n, d_in, seed=d_in + 99)
        b_csc = CSC.from_csr(b)
        for d_m in degrees:
            m = erdos_renyi(n, n, d_m, seed=d_m + 7)
            best, best_t = None, float("inf")
            for algo in ("msa", "hash", "mca", "inner"):
                t0 = time.perf_counter()
                masked_spgemm(a, b, m, algo=algo,
                              b_csc=b_csc if algo == "inner" else None)
                t = time.perf_counter() - t0
                if t < best_t:
                    best, best_t = algo, t
            winners[(d_in, d_m)] = best
    print(render_grid(
        "input_deg", "mask_deg", list(degrees), list(degrees), winners,
        title=f"measured winners in this process (n={n}, vectorized kernels)",
    ))
    print()


def auto_plan_demo() -> None:
    n = 3000
    a = erdos_renyi(n, n, 24, seed=1)
    b = erdos_renyi(n, n, 12, seed=2)
    m = erdos_renyi(n, n, 2, seed=3)
    print("the auto plan of a (dense A, sparse mask) problem:")
    print(engine.plan(a, b, m).explain())


def main() -> None:
    modeled_grids()
    measured_grid()
    auto_plan_demo()


if __name__ == "__main__":
    main()
