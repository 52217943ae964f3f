"""Machine model: operation counters, cache simulator, analytic traffic
formulas (paper Section 4), per-row cost model, and a parallel-schedule
simulator used for the scaling experiments.

See DESIGN.md ("Substitutions") for why the reproduction pairs real
wall-clock kernels with this model instead of relying on CPython wall-clock
alone.
"""

from .cache import AccessTrace, CacheSim
from .calibrate import calibrate_machine, measure_touch_costs
from .config import HASWELL, KNL, MACHINES, MachineConfig
from .cost_model import (
    MODEL_ALGOS,
    DirectionEstimate,
    ModelEstimate,
    RowCostModel,
    estimate_row_cycles,
    estimate_seconds,
    estimate_spmv_direction,
)
from .counters import OpCounter
from .host import (
    HOST,
    HOST_NATIVE,
    HostProfile,
    available_cores,
    fit_host_profile,
    host_profile,
    resolve_machine,
)
from .kernel_traces import TRACEABLE_ALGOS, build_trace, replay_miss_rate
from .report import breakdown_table, explain
from .scheduler import SCHEDULES, simulate_makespan, speedup_curve
from .traffic import (
    TrafficBreakdown,
    flops_per_row,
    pull_traffic_words,
    pulls_per_row,
    push_common_traffic_words,
    total_flops,
    useful_flops_per_row,
)

__all__ = [
    "AccessTrace",
    "CacheSim",
    "calibrate_machine",
    "HOST",
    "HOST_NATIVE",
    "HostProfile",
    "host_profile",
    "available_cores",
    "fit_host_profile",
    "measure_touch_costs",
    "HASWELL",
    "KNL",
    "MACHINES",
    "MachineConfig",
    "MODEL_ALGOS",
    "ModelEstimate",
    "DirectionEstimate",
    "RowCostModel",
    "estimate_row_cycles",
    "estimate_seconds",
    "estimate_spmv_direction",
    "OpCounter",
    "resolve_machine",
    "TRACEABLE_ALGOS",
    "build_trace",
    "replay_miss_rate",
    "breakdown_table",
    "explain",
    "SCHEDULES",
    "simulate_makespan",
    "speedup_curve",
    "TrafficBreakdown",
    "flops_per_row",
    "pull_traffic_words",
    "pulls_per_row",
    "push_common_traffic_words",
    "total_flops",
    "useful_flops_per_row",
]
