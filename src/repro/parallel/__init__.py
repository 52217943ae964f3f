"""Row-parallel execution: partitioners, the backend names and row-slicing
primitives (:mod:`repro.parallel.executor`, which also re-exports the
row-parallel spelling of the front door, ``parallel_masked_spgemm``), and the
shared-memory process backend (segment publication in
:mod:`repro.parallel.shm`, the persistent worker pool and the one task
type every backend runs in :mod:`repro.parallel.pool`).  The loop that
cuts a plan into tasks lives in :mod:`repro.engine.executor`."""

from .executor import (
    BACKENDS,
    normalize_backend,
    parallel_masked_spgemm,
    row_block,
    row_slice,
)
from .partition import (
    balanced_partition,
    block_partition,
    chunk_schedule,
    cyclic_partition,
)
from .pool import (
    pool_size,
    process_backend_available,
    process_pool,
    shutdown_pool,
)
from .segment_cache import SegmentCache
from .shm import SegmentGroup, active_segments, attach_csr

__all__ = [
    "BACKENDS",
    "normalize_backend",
    "parallel_masked_spgemm",
    "row_block",
    "row_slice",
    "balanced_partition",
    "block_partition",
    "chunk_schedule",
    "cyclic_partition",
    "pool_size",
    "process_backend_available",
    "process_pool",
    "shutdown_pool",
    "SegmentCache",
    "SegmentGroup",
    "active_segments",
    "attach_csr",
]
