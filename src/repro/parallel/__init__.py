"""Row-parallel execution: the process backend's row partitioner, the
backend names and row-slicing primitives (:mod:`repro.parallel.executor`),
and the shared-memory process backend (segment publication in
:mod:`repro.parallel.shm`, the persistent worker pool and the one task
type its workers run in :mod:`repro.parallel.pool`).  The code that cuts
a process plan into row parts lives in :mod:`repro.engine.executor`."""

from .executor import (
    BACKENDS,
    normalize_backend,
    row_block,
)
from .partition import balanced_partition
from .pool import (
    pool_size,
    process_backend_available,
    process_pool,
    shutdown_pool,
)
from .shm import SegmentGroup, active_segments, attach_csr

__all__ = [
    "BACKENDS",
    "normalize_backend",
    "row_block",
    "balanced_partition",
    "pool_size",
    "process_backend_available",
    "process_pool",
    "shutdown_pool",
    "SegmentGroup",
    "active_segments",
    "attach_csr",
]
