"""The paper's primary contribution: masked SpGEMM algorithms.

Public entry points:

* :func:`masked_spgemm` — the front door over all algorithms/variants;
  ``algo="auto"`` routes through the cost-model execution engine
  (:mod:`repro.engine`), which plans per-row-band algorithms, 1P/2P
  phases, row partitioning and optional column panels.
* :func:`masked_spgemm_hybrid` — the future-work per-row hybrid: the
  front door with a ratio-banded planner forced.
* :func:`masked_spgemm_chunked` — the memory-bounded panelled front: the
  front door with ``panel_width`` forced.
* :func:`gustavson_spgemm` / :func:`spgemm_saxpy_fast` — plain SpGEMM.
* :func:`masked_spgemm_multiply_then_mask` — the Figure-1 baseline.
* :mod:`repro.core.accumulators` — MSA / Hash / MCA / Heap.
"""

from . import accumulators, kernels
from ..sparse.ops import column_panels, restrict_columns
from .kernels.saxpy_kernel import masked_spgemm_multiply_then_mask, spgemm_saxpy_fast
from .masked_spgemm import (
    ALGO_LABELS,
    ALGOS,
    ALL_ALGOS,
    EXTENSION_ALGOS,
    classify_rows,
    masked_spgemm,
    masked_spgemm_chunked,
    masked_spgemm_hybrid,
    supports_complement,
)
from .reference import gustavson_spgemm, masked_spgemm_reference
from .spmv import masked_spmv, masked_spmv_pull, masked_spmv_push
from .symbolic import one_phase_bound, symbolic_masked

__all__ = [
    "accumulators",
    "kernels",
    "column_panels",
    "masked_spgemm_chunked",
    "restrict_columns",
    "classify_rows",
    "masked_spgemm_hybrid",
    "masked_spgemm_multiply_then_mask",
    "spgemm_saxpy_fast",
    "ALGO_LABELS",
    "ALGOS",
    "ALL_ALGOS",
    "EXTENSION_ALGOS",
    "masked_spgemm",
    "supports_complement",
    "gustavson_spgemm",
    "masked_spgemm_reference",
    "masked_spmv",
    "masked_spmv_pull",
    "masked_spmv_push",
    "one_phase_bound",
    "symbolic_masked",
]
