"""Cost-model-driven execution engine for masked SpGEMM.

The paper's Section 9 future work — hybrid, regime-aware algorithm
selection — realised as an explicit three-stage pipeline:

1. :class:`Planner` (or the one-shot :func:`plan`) inspects the matrices'
   statistics, the :class:`~repro.machine.MachineConfig` and the per-row
   cost model, and emits an
2. :class:`ExecutionPlan` — an inspectable record of per-row-band algorithm
   choices, 1P/2P phase strategy, thread count + backend and the
   grid (row blocks x column panels, 1x1 by default), with
   :meth:`~ExecutionPlan.explain` for auditability — which
3. :func:`execute` runs as one loop over work items (band x row part x
   column panel), threading a single :class:`~repro.machine.OpCounter`
   through every stage.

``masked_spgemm(..., algo="auto")``, ``masked_spgemm_hybrid`` and
``parallel_masked_spgemm`` are spellings of one front door over this pipeline (:func:`plan_and_execute`); the engine
runs :func:`repro.core.leaf.run_kernel` and never calls the door back.
"""

from .executor import execute, plan_and_execute
from .plan import ExecutionPlan, RowBand, ShardGrid
from .planner import PLAN_CANDIDATES, Planner, plan
from .fingerprint import Fingerprint, fingerprint_csr

__all__ = [
    "ExecutionPlan",
    "RowBand",
    "ShardGrid",
    "Planner",
    "plan",
    "PLAN_CANDIDATES",
    "execute",
    "plan_and_execute",
    "Fingerprint",
    "fingerprint_csr",
]
