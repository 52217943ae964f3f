"""Ablation — the hybrid per-row dispatcher (the paper's future work,
Section 9).

The hybrid routes each output row to the accumulator the Figure-7 regimes
favour.  This bench builds a *mixed-regime* problem (half the rows are
mask-sparse pull territory, half are comparable-density push territory) and
shows the modeled cost of routing every row to its cheapest algorithm
beating every fixed single-algorithm scheme, plus a wall-clock
correctness/overhead check of the real per-row dispatch, ``algo="auto"``.
"""

import numpy as np

from repro.baselines import scipy_masked_spgemm
from repro.core import masked_spgemm
from repro.graphs import erdos_renyi
from repro.machine import HASWELL, RowCostModel, simulate_makespan
from repro.sparse import CSR


def mixed_regime_problem(n=4096, seed=0):
    """Rows 0..n/2: dense inputs + sparse mask (inner regime).
    Rows n/2..n: sparse inputs + dense mask (push/mca regime)."""
    rng = np.random.default_rng(seed)
    half = n // 2

    def band(nr_lo, nr_hi, deg, ncols):
        m = int((nr_hi - nr_lo) * deg)
        rows = rng.integers(nr_lo, nr_hi, size=m)
        cols = rng.integers(0, ncols, size=m)
        return rows, cols

    ar1 = band(0, half, 48, n)
    ar2 = band(half, n, 2, n)
    a = CSR.from_coo(
        (n, n),
        np.concatenate([ar1[0], ar2[0]]),
        np.concatenate([ar1[1], ar2[1]]),
        np.ones(ar1[0].shape[0] + ar2[0].shape[0]),
    ).pattern()
    b = erdos_renyi(n, n, 16, seed=seed + 1)
    mr1 = band(0, half, 1, n)
    mr2 = band(half, n, 48, n)
    mask = CSR.from_coo(
        (n, n),
        np.concatenate([mr1[0], mr2[0]]),
        np.concatenate([mr1[1], mr2[1]]),
        np.ones(mr1[0].shape[0] + mr2[0].shape[0]),
    ).pattern()
    return a, b, mask


def test_hybrid_modeled_cost_beats_fixed_schemes(benchmark, save_result):
    a, b, mask = mixed_regime_problem()

    def run():
        model = RowCostModel(a, b, mask, HASWELL)
        fixed = {}
        per_algo_rows = {}
        for algo in ("inner", "msa", "hash", "mca"):
            est = model.estimate(algo)
            per_algo_rows[algo] = est.row_cycles
            fixed[algo] = simulate_makespan(est.row_cycles, 32, chunk=8)
        # hybrid: each row routed to its modeled argmin
        hybrid_rows = np.min(np.stack(list(per_algo_rows.values())), axis=0)
        fixed["hybrid"] = simulate_makespan(hybrid_rows, 32, chunk=8)
        return fixed

    spans = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Hybrid ablation (modeled makespan cycles, mixed-regime input):"]
    for name, v in sorted(spans.items(), key=lambda kv: kv[1]):
        lines.append(f"  {name:8s} {v:.4e}")
    save_result("\n".join(lines))

    fixed_best = min(v for k, v in spans.items() if k != "hybrid")
    assert spans["hybrid"] <= fixed_best * 1.001


def test_hybrid_wallclock_correct_and_competitive(benchmark):
    a, b, mask = mixed_regime_problem(n=2048, seed=3)
    got = benchmark.pedantic(
        lambda: masked_spgemm(a, b, mask, algo="auto"), rounds=1, iterations=1
    )
    want = scipy_masked_spgemm(a, b, mask)
    assert got.drop_zeros(1e-14).equals(want)
