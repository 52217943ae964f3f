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

__all__ = ["masked_spmv_push", "masked_spmv_pull", "masked_spmv"]


def _as_indices(pattern: np.ndarray) -> np.ndarray:
    pattern = np.asarray(pattern)
    if pattern.dtype == bool:
        return np.flatnonzero(pattern)
    return pattern.astype(np.int64)


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
    xs = _as_indices(x_pattern)
    n = a.ncols
    allowed = np.zeros(n, dtype=bool)
    midx = _as_indices(mask_pattern)
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
    xs = _as_indices(x_pattern)
    in_x[xs] = True
    y = np.full(n, semiring.add_identity, dtype=np.float64)
    hit = np.zeros(n, dtype=bool)
    midx = _as_indices(mask_pattern)
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


#: ``direction="auto"`` pulls when the pulled work is this many times
#: smaller than the pushed expansion
PULL_FACTOR = 4.0


def masked_spmv(
    a: CSR,
    x_vals: np.ndarray,
    x_pattern: np.ndarray,
    mask_pattern: np.ndarray,
    *,
    direction: str = "auto",
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    a_csc: Optional[CSC] = None,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Direction-optimized masked SpMV.

    ``direction``: ``"push"``, ``"pull"`` or ``"auto"``.  Auto chooses pull
    when the pulled work is :data:`PULL_FACTOR` times smaller than the
    expansion work would be (the Section 4.3 criterion for vectors) and a
    CSC of ``A`` is available;
    complemented masks always push (pull cannot enumerate the complement).
    """
    if direction not in ("push", "pull", "auto"):
        raise ValueError("direction must be 'push', 'pull' or 'auto'")
    xs = _as_indices(x_pattern)
    midx = _as_indices(mask_pattern)
    if direction == "auto":
        if complement or a_csc is None:
            direction = "push"
        else:
            push_work = int(np.sum(a.row_nnz()[xs])) if xs.shape[0] else 0
            pull_work = int(np.sum(a_csc.col_nnz()[midx])) if midx.shape[0] else 0
            direction = "pull" if pull_work * PULL_FACTOR < push_work else "push"
    if direction == "pull":
        if complement:
            raise ValueError("pull direction cannot apply a complemented mask")
        csc = a_csc if a_csc is not None else CSC.from_csr(a)
        return masked_spmv_pull(
            csc, x_vals, x_pattern, mask_pattern, semiring=semiring, counter=counter
        )
    return masked_spmv_push(
        a, x_vals, x_pattern, mask_pattern,
        complement=complement, semiring=semiring, counter=counter,
    )
