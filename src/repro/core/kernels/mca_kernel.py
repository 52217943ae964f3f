"""Vectorized MCA kernel.

The fast counterpart of Algorithm 3: the push frame over the sorted-rank
accumulator (:class:`repro.core.kernels.batch.SortedRank`, which describes
the algorithm) on contiguous flop-budget row blocks.  The batched
``searchsorted`` of product keys into the block's sorted mask keys replaces
the reference's two-pointer walk; both realize the "compute the rank of
column j inside the mask row" step of Section 5.4, and products absent from
the mask are dropped *before* the multiply.

MCA does not support complemented masks (the compressed space has no slots
for out-of-mask columns); the dispatcher enforces this.
"""

from __future__ import annotations

from typing import Optional

from ...machine import OpCounter
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSR
from .expand import DEFAULT_FLOP_BUDGET
from .batch import Chunk, SortedRank, push_product

__all__ = ["masked_spgemm_mca_fast"]


@traced_kernel("mca")
def masked_spgemm_mca_fast(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    flop_budget: int = DEFAULT_FLOP_BUDGET,
) -> CSR:
    """Vectorized MCA masked SpGEMM (see module docs)."""
    if complement:
        raise ValueError("MCA does not support complemented masks (paper, Sec. 8.4)")
    return push_product(
        a, b, mask, SortedRank("mca", semiring), complement=False,
        semiring=semiring, counter=counter, flop_budget=flop_budget,
        charge=_charge,
    )


# the frame never expands a row without mask entries: nothing to merge
# against, nothing charged
def _charge(counter: OpCounter, ch: Chunk) -> None:
    counter.accum_inserts += ch.products
    counter.mask_scans += ch.products
    counter.flops += ch.kept
    counter.accum_removes += ch.nm

