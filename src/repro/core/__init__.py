"""The paper's primary contribution: masked SpGEMM algorithms.

Public entry points:

* :func:`masked_spgemm` — the front door over all algorithms/variants;
  ``algo="auto"`` routes through the execution engine
  (:mod:`repro.engine`), which plans one algorithm for every row from
  this host's measured kernel costs.
* :func:`gustavson_spgemm` / :func:`spgemm_saxpy_fast` — plain SpGEMM.
* :func:`masked_spgemm_multiply_then_mask` — the Figure-1 baseline.
* :mod:`repro.core.accumulators` — MSA / Hash / MCA / Heap.
"""

from . import accumulators, kernels
from .kernels.saxpy_kernel import masked_spgemm_multiply_then_mask, spgemm_saxpy_fast
from .masked_spgemm import (
    ALGO_LABELS,
    ALGOS,
    ALL_ALGOS,
    EXTENSION_ALGOS,
    masked_spgemm,
    supports_complement,
)
from .reference import gustavson_spgemm, masked_spgemm_reference
from .symbolic import one_phase_bound, symbolic_masked

__all__ = [
    "accumulators",
    "kernels",
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
    "one_phase_bound",
    "symbolic_masked",
]
