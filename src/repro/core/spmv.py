"""Masked sparse matrix-vector products (push and pull).

The paper traces masking back to SpMV: "the concept of masking has been
first applied to sparse-matrix-vector multiplication to implement the
direction-optimized graph traversal" (Section 4, citing Beamer et al. and
Yang et al.).  This module provides that primitive —

    y = m .* (x^T A)        (row vector times matrix, GraphBLAS vxm)

in both orientations:

* **push** — driven by the nonzeros of ``x``: scatter each ``x_k * A[k,:]``
  into an accumulator, filtered by the mask (a single-row Masked SpGEMM);
* **pull** — driven by the nonzeros of the mask: for each allowed output
  position ``j``, gather the dot product ``x . A[:, j]`` (needs A's CSC).

These are exactly the frontier-expansion kernels of direction-optimized
BFS; :func:`repro.apps.direction_optimized_bfs` switches between them by
frontier density, reproducing the push-pull optimization the paper's
masking story begins with.

Vectors are dense NumPy arrays with an explicit boolean pattern (a dense
representation keeps the kernels simple; sparse frontiers pass their
indices via the ``pattern`` arguments).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..machine import OpCounter
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSC, CSR

__all__ = ["masked_spmv_push", "masked_spmv_pull"]


def _as_indices(pattern: np.ndarray, n: int) -> np.ndarray:
    """The index array of a length-``n`` boolean pattern or of an index
    pattern; a boolean pattern of another length, or an index outside
    ``[0, n)``, is a ``ValueError`` (a negative index would alias from the
    end)."""
    pattern = np.asarray(pattern)
    if pattern.dtype == bool:
        if pattern.shape != (n,):
            raise ValueError(f"boolean pattern must have length {n}, got shape {pattern.shape}")
        return np.flatnonzero(pattern)
    idx = pattern.astype(np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"pattern index out of range [0, {n})")
    return idx


def masked_spmv_push(
    a: CSR,
    x_vals: np.ndarray,
    x_pattern: np.ndarray,
    mask_pattern: np.ndarray,
    *,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Push ``y = m .* (x^T A)``: expand the rows selected by ``x``.

    Parameters
    ----------
    a:
        The matrix (CSR; rows are the "from" dimension of ``x^T A``).
    x_vals:
        Dense length-``a.nrows`` value array of the input vector.
    x_pattern / mask_pattern:
        Boolean arrays or index arrays selecting the nonzeros of ``x`` and
        of the mask.

    Returns
    -------
    (y_vals, y_pattern):
        Dense values and a boolean pattern of the output.
    """
    xs = _as_indices(x_pattern, a.nrows)
    n = a.ncols
    allowed = np.zeros(n, dtype=bool)
    midx = _as_indices(mask_pattern, n)
    allowed[midx] = True
    if complement:
        allowed = ~allowed
    y = np.full(n, semiring.add_identity, dtype=np.float64)
    hit = np.zeros(n, dtype=bool)
    if xs.shape[0]:
        starts = a.indptr[xs]
        counts = a.indptr[xs + 1] - starts
        total = int(counts.sum())
        if total:
            ofs = np.repeat(np.cumsum(counts) - counts, counts)
            pos = np.arange(total, dtype=np.int64) - ofs + np.repeat(starts, counts)
            cols = a.indices[pos]
            vals = semiring.mult_ufunc(
                np.repeat(x_vals[xs], counts), a.data[pos]
            )
            keep = allowed[cols]
            if counter is not None:
                counter.accum_inserts += total
                counter.flops += int(keep.sum())
            semiring.add_ufunc.at(y, cols[keep], np.asarray(vals)[keep])
            hit[cols[keep]] = True
    return y, hit


def masked_spmv_pull(
    a_csc: CSC,
    x_vals: np.ndarray,
    x_pattern: np.ndarray,
    mask_pattern: np.ndarray,
    *,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pull ``y = m .* (x^T A)``: for each masked output position, gather
    from its in-neighbours.  Complement is not supported (like Inner)."""
    n = a_csc.ncols
    in_x = np.zeros(a_csc.nrows, dtype=bool)
    in_x[_as_indices(x_pattern, a_csc.nrows)] = True
    y = np.full(n, semiring.add_identity, dtype=np.float64)
    hit = np.zeros(n, dtype=bool)
    midx = _as_indices(mask_pattern, n)
    if midx.shape[0] == 0:
        return y, hit
    starts = a_csc.indptr[midx]
    counts = a_csc.indptr[midx + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return y, hit
    ofs = np.repeat(np.cumsum(counts) - counts, counts)
    pos = np.arange(total, dtype=np.int64) - ofs + np.repeat(starts, counts)
    rows = a_csc.indices[pos]
    slot = np.repeat(midx, counts)
    keep = in_x[rows]
    if counter is not None:
        counter.mask_scans += int(midx.shape[0])
        counter.flops += int(keep.sum())
    vals = semiring.mult_ufunc(x_vals[rows[keep]], a_csc.data[pos[keep]])
    semiring.add_ufunc.at(y, slot[keep], np.asarray(vals))
    hit[slot[keep]] = True
    return y, hit
