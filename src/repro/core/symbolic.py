"""Symbolic phase for two-phase (2P) masked SpGEMM — paper Section 6.

The symbolic phase inspects only indices (no value arithmetic) and returns
the exact number of output nonzeros per row.  The NumPy tier's numeric
``msa`` / ``hash`` / ``esc`` bodies write into an allocation of exactly that
size; the native MSA loop allocates the 1P bound below whatever the phases,
so there the counts only cross-check its rows.  The paper's finding — reproduced by the
cost model and asserted by the benches — is that for *masked* SpGEMM the
mask already bounds the output so well that paying a second sweep (2P) is
usually slower than the one-phase (1P) approach; this module exists so both
variants are real code paths, not just cost-model annotations.

Also provides the 1P scratch-size bound: ``min(nnz(m_i), flops_i)`` per row
for a plain mask (the mask is the paper's "good initial approximation" for
the output size), and ``min(flops_i, ncols - distinct(m_i))`` for a
complemented mask (a row has no more distinct columns than products, nor
than the columns its mask leaves open); the native MSA loop sizes a
complemented output at this bound's total, by the same formula in C
(``msa_bound``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..machine import OpCounter, flops_per_row, total_flops
from ..sparse import CSR
from .kernels import native as _native
from .kernels.arena import get_arena
from .kernels.batch import DenseRank, push_product
from .kernels.msa_kernel import MSA_DENSE_BUDGET, MSA_FLOP_BUDGET

__all__ = ["symbolic_masked", "one_phase_bound"]


def symbolic_masked(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    counter: Optional[OpCounter] = None,
    flop_budget: int = MSA_FLOP_BUDGET,
    nthreads: int = 1,
) -> np.ndarray:
    """Exact per-row output nonzero counts of ``M .* (A @ B)`` (pattern
    only).  Index traversal mirrors the numeric MSA pass — ``native.c``'s
    count-only row loop (set-allowed, erase-on-hit, count; complement:
    first-touch count; on ``nthreads`` threads), else the push frame's
    count-only mode over the dense-rank strategy — and every inspected
    product is charged to ``counter.symbolic_flops``."""
    a, b, mask = (x._sort_indices(nthreads) for x in (a, b, mask))
    n = b.ncols
    lib = _native.load()  # pattern only: every semiring and dtype is eligible
    if lib is not None:
        out = np.zeros(a.nrows, dtype=np.int64)
        _native.validate(lib, (a, b, mask), a.ncols == b.nrows and mask.shape == (a.nrows, n))
        arena = get_arena()
        with arena.lease("native.state", np.uint8, 0) as state, \
                arena.lease("native.touched", np.int64, None) as touched:
            lib.repro_symbolic(int(complement), a.nrows, n, nthreads, *(
                x.ctypes.data for x in (a.indptr, a.indices, b.indptr, b.indices,
                                        mask.indptr, mask.indices, state.require(nthreads * n),
                                        touched.require(nthreads * n if complement else 0),
                                        out)))
    else:
        out = push_product(
            a, b, mask, DenseRank(), complement=complement,
            flop_budget=flop_budget, dense_budget=MSA_DENSE_BUDGET, count_only=True,
        )
    if counter is not None:
        counter.symbolic_flops += total_flops(a, b)
    return out


def one_phase_bound(
    a: CSR, b: CSR, mask: CSR, *, complement: bool = False
) -> Tuple[np.ndarray, int]:
    """Per-row scratch bound and its total for the 1P approach.  Under a
    complemented mask a row's length counts as its distinct columns only where
    they strictly increase, else as 0: the bound holds for a ``check=False``
    mask that repeats or misorders a column too."""
    fl = flops_per_row(a, b)
    if complement:
        distinct = mask.row_nnz()
        j, p = mask.indices, mask.indptr
        drop = np.flatnonzero(j[1:] <= j[:-1]) + 1  # not above the entry before
        rows = np.searchsorted(p, drop, side="right") - 1
        distinct[rows[p[rows] != drop]] = 0  # ... inside its row
        bound = np.minimum(fl, b.ncols - distinct)
    else:
        bound = np.minimum(mask.row_nnz(), fl)
    return bound, int(bound.sum())
