"""Row-parallel masked SpGEMM: the backend names and the row-slicing
primitives.

The execution engine (:mod:`repro.engine.executor`) runs every plan on
one of three backends:

* ``"serial"`` / ``"thread"`` — in-process: the plain kernel call, in the
  caller's thread on ``plan.threads`` threads inside the native row loop
  (``"serial"`` is the count 1; the NumPy bodies always run on one);
* ``"process"`` — the shared-memory multiprocess backend and the one
  fan-out: the rows are cut into ``plan.threads`` parts, operands are
  published once into named shared segments (:mod:`repro.parallel.shm`),
  workers in a persistent pool (:mod:`repro.parallel.pool`) attach them as
  zero-copy views, run their parts on one thread each, and per-part COO
  results come back by pickle.

All three produce bit-for-bit identical matrices and identical merged
``OpCounter`` totals (but ``hash_probes``, which hash tables sized per
row part make depend on the pool's parts); ``tests/test_backends.py``
enforces it.  This module
holds the backend names and what the parts are sliced with
(:func:`row_block`).
"""

from __future__ import annotations

from ..sparse import CSR

__all__ = [
    "row_block",
    "normalize_backend",
    "BACKENDS",
]

#: the backend names
BACKENDS = ("serial", "thread", "process")


def normalize_backend(backend: str) -> str:
    """The lower-case backend name; raise on unknown ones."""
    key = str(backend).lower()
    if key not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return key


def row_block(mat: CSR, lo: int, hi: int) -> CSR:
    """Compact CSR of rows ``[lo, hi)`` — shape ``(hi - lo, ncols)``.

    The row frame is not kept, so a partition's slice costs ``O(hi - lo)``
    pointer work, ``O(nrows)`` across all parts.  ``indices``/``data`` are
    views into the parent; the caller re-offsets output row ids by ``lo``
    when merging.
    """
    start, stop = int(mat.indptr[lo]), int(mat.indptr[hi])
    return CSR(
        (hi - lo, mat.ncols),
        mat.indptr[lo : hi + 1] - start,
        mat.indices[start:stop],
        mat.data[start:stop],
        sorted_indices=mat.sorted_indices,
        check=False,
    )

