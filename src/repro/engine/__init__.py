"""Execution engine for masked SpGEMM, priced from this host's measured
kernel costs.

Regime-aware algorithm selection (Fig. 7 / Section 4.3: one algorithm for
the whole product, as in every figure of the paper) realised as an
explicit three-stage pipeline:

1. :class:`Planner` (or the one-shot :func:`plan`) inspects the matrices'
   statistics and prices the candidates from this host's measured
   :class:`~repro.machine.HostProfile`, and emits an
2. :class:`ExecutionPlan` — an inspectable record of the algorithm (one
   band over every row), 1P/2P phase strategy and thread count + backend,
   with :meth:`~ExecutionPlan.explain` for auditability — which
3. :func:`execute` runs as the plain kernel call or, on the process
   backend, as flop-balanced row parts on the worker pool, threading a
   single :class:`~repro.machine.OpCounter` through every stage.

``masked_spgemm(..., algo="auto")`` — the one front door — runs this
pipeline with the planner of the call's kernel tier; :func:`plan` ->
:func:`execute` is the same pipeline with the plan in the caller's hands
(and a thread count the caller may force).  The engine runs
:func:`repro.core.leaf.run_kernel` and never calls the door back.
"""

from .executor import execute
from .plan import ExecutionPlan, RowBand
from .planner import Planner, plan
from .fingerprint import Fingerprint, fingerprint_csr

__all__ = [
    "ExecutionPlan",
    "RowBand",
    "Planner",
    "plan",
    "execute",
    "Fingerprint",
    "fingerprint_csr",
]
