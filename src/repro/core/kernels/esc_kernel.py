"""Masked ESC (Expand-Sort-Compress) kernel — an extension algorithm.

ESC is the GPU-style SpGEMM family of Liu & Vinter (the paper's ref [28])
and Bell/Dalton's cusp: *expand* all scalar products, *sort* them by output
coordinate, *compress* equal keys with the semiring add.  It needs no
random-access accumulator at all — its "accumulator" is the sort — which
makes it attractive where scatter is expensive (GPUs, SIMD) and expensive
where flops(AB) is large (the sort touches every product, masked or not).

This reproduction adds a **masked** ESC variant (not part of the paper's
14 schemes; clearly an extension, see DESIGN.md §7): the mask is applied
*between expand and sort*, by a batched membership test of product keys
against the sorted mask keys, so the sort only sees surviving products.
The masked filter converts ESC's cost from
``O(flops·log(flops))`` to ``O(flops + useful·log(useful))`` — the same
work-saving the accumulator schemes get, obtained with sorting machinery.

Complement support is natural (flip the membership test).

The steps are the push frame's (:mod:`repro.core.kernels.batch`) over
:class:`~.batch.SortCompress`, on blocks of at most ``FINE_FLOP_BUDGET``
products: nothing of ESC's observes where a block ends, and cache-sized
sorts are faster (``docs/kernels.md``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...machine import OpCounter
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSR
from .expand import FINE_FLOP_BUDGET
from .batch import Chunk, SortCompress, push_product

__all__ = ["masked_spgemm_esc_fast"]


@traced_kernel("esc")
def masked_spgemm_esc_fast(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    flop_budget: int = FINE_FLOP_BUDGET,
    row_nnz: Optional[np.ndarray] = None,
) -> CSR:
    """Vectorized masked Expand-Sort-Compress (see module docs).

    ``row_nnz`` optionally carries the exact two-phase symbolic bound, so
    finished rows are written straight into the final CSR arrays and
    checked against it.
    """
    return push_product(
        a, b, mask, SortCompress(), complement=complement, semiring=semiring,
        counter=counter, flop_budget=flop_budget, row_nnz=row_nnz, charge=_charge,
    )


def _charge(counter: OpCounter, ch: Chunk) -> None:
    counter.accum_inserts += ch.products
    counter.flops += ch.kept

