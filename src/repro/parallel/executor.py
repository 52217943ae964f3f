"""Row-parallel masked SpGEMM: the backend names and the row-slicing
primitives.

The execution engine (:mod:`repro.engine.executor`) cuts every plan into
work items — band x row part x column panel — and runs them on one of
three backends:

* ``"serial"`` — items run one after another in the caller's thread
  (deterministic baseline; also what ``threads=1`` degenerates to);
* ``"thread"`` — a ``ThreadPoolExecutor``: cheap to enter, operands
  shared for free.  Whether the parts overlap is the kernel tier's doing:
  the native loops release the GIL (measured 1.1-1.35x over serial at
  R-MAT scale 16-17 on two cores), the NumPy bodies re-take it between
  array passes (measured 1.5-2x *slower* than serial at scale 15-17);
* ``"process"`` — the shared-memory multiprocess backend: operands are
  published once into named shared segments (:mod:`repro.parallel.shm`),
  workers in a persistent pool (:mod:`repro.parallel.pool`) attach them as
  zero-copy views, and per-item COO results come back by pickle.

All three produce bit-for-bit identical matrices and identical merged
``OpCounter`` totals; ``tests/test_backends.py`` enforces it.  This module
holds what the items are sliced with (:func:`row_block`,
:func:`row_slice`).  :func:`parallel_masked_spgemm` is a spelling of
:func:`repro.core.masked_spgemm` and lives beside it (so that module may
not import this one at module level); its name stays importable here.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.masked_spgemm import parallel_masked_spgemm  # re-export only
from ..sparse import CSR

__all__ = [
    "parallel_masked_spgemm",
    "row_slice",
    "row_block",
    "normalize_backend",
    "BACKENDS",
]

#: canonical backend names (aliases: "threads" -> "thread")
BACKENDS = ("serial", "thread", "process")


def normalize_backend(backend: str) -> str:
    """Map aliases to canonical backend names; raise on unknown ones."""
    key = str(backend).lower()
    if key == "threads":  # historical spelling
        key = "thread"
    if key not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS} (or 'threads'), got {backend!r}"
        )
    return key


def _contiguous_range(rows: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` when ``rows`` is a contiguous ascending range, else None."""
    if rows.size == 0:
        return None
    lo, hi = int(rows[0]), int(rows[-1]) + 1
    if hi - lo == rows.size and bool(np.all(np.diff(rows) >= 1)):
        return lo, hi
    return None


def row_slice(mat: CSR, rows: np.ndarray) -> CSR:
    """CSR holding only the given rows (shape preserved, other rows empty).

    When ``rows`` is a contiguous ascending range this is a cheap slice of
    the index structure: the full-range case returns ``mat`` itself (no
    allocation at all), and a proper sub-range builds its ``indptr`` from a
    calloc'd zeros array touching only ``[lo, hi]`` plus the tail —
    ``indices``/``data`` stay views into the parent.  Scattered row sets
    fall back to :meth:`CSR.select_rows`.

    For contiguous row parts prefer :func:`row_block`, which drops the
    empty frame entirely instead of carrying an ``nrows+1`` pointer array
    per part.
    """
    rows = np.asarray(rows)
    rng = _contiguous_range(rows)
    if rng is None:
        return mat.select_rows(rows)
    lo, hi = rng
    if lo == 0 and hi == mat.nrows:
        return mat  # the slice is the whole matrix; reuse it outright
    start, stop = int(mat.indptr[lo]), int(mat.indptr[hi])
    # calloc: the zero prefix costs no explicit fill
    indptr = np.zeros(mat.nrows + 1, dtype=mat.indptr.dtype)
    np.subtract(mat.indptr[lo : hi + 1], start, out=indptr[lo : hi + 1])
    if stop != start:
        indptr[hi + 1 :] = stop - start
    return CSR(
        mat.shape,
        indptr,
        mat.indices[start:stop],
        mat.data[start:stop],
        sorted_indices=mat.sorted_indices,
        check=False,
    )


def row_block(mat: CSR, lo: int, hi: int) -> CSR:
    """Compact CSR of rows ``[lo, hi)`` — shape ``(hi - lo, ncols)``.

    Unlike :func:`row_slice` this does not preserve the row frame, so a
    partition's slice costs ``O(hi - lo)`` instead of ``O(nrows)`` — across
    ``p`` partitions the pointer work totals ``O(nrows)`` rather than
    ``O(nrows * p)``.  ``indices``/``data`` are views into the parent; the
    caller re-offsets output row ids by ``lo`` when merging.
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

