"""GraphBLAS-style operations: mxm / vxm / mxv with masks and descriptors.

``mxm`` is the paper's subject: ``C<M> = A (+.x) B`` dispatches to any of
the masked SpGEMM algorithms via the descriptor's ``algo`` field, exactly
how the paper's benchmark harness swaps algorithms behind the GraphBLAS
interface (Section 7).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import masked_spgemm, spgemm_saxpy_fast
from ..core.spmv import masked_spmv
from ..machine import OpCounter
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import ewise_add, mask_pattern
from .objects import Descriptor, Matrix, Vector

__all__ = ["mxm", "vxm", "mxv", "DEFAULT_DESC"]

DEFAULT_DESC = Descriptor()


def mxm(
    a: Matrix,
    b: Matrix,
    *,
    mask: Optional[Matrix] = None,
    semiring: Semiring = PLUS_TIMES,
    desc: Descriptor = DEFAULT_DESC,
    out: Optional[Matrix] = None,
    counter: Optional[OpCounter] = None,
) -> Matrix:
    """``C<M> = A (+.x) B`` — (masked) matrix-matrix multiply.

    Without a mask this is a plain SpGEMM.  With a mask, the descriptor's
    ``algo`` selects the masked SpGEMM algorithm (the paper's Inner / MSA /
    Hash / MCA / Heap / HeapDot, or ``"auto"`` — spelled ``"hybrid"`` too —
    for the planner's per-row bands) and ``phases`` the 1P/2P strategy.
    ``out`` plus ``replace=False`` merges the result into an existing
    matrix (union; new values win), the slice of GraphBLAS accumulation
    the applications use.
    """
    if mask is None:
        c = spgemm_saxpy_fast(a.csr, b.csr, semiring=semiring, counter=counter)
    else:
        c = masked_spgemm(
            a.csr,
            b.csr,
            mask.csr,
            algo="auto" if desc.algo == "hybrid" else desc.algo,
            phases=desc.phases,
            complement=desc.mask_complement,
            semiring=semiring,
            counter=counter,
        )
    if out is not None and not desc.replace:
        keep = mask_pattern(out.csr, c, complement=True) if c.nnz else out.csr
        c = ewise_add(keep, c, op=semiring.add_ufunc)
    return Matrix(c)


def vxm(
    v: Vector,
    a: Matrix,
    *,
    mask: Optional[Vector] = None,
    semiring: Semiring = PLUS_TIMES,
    desc: Descriptor = DEFAULT_DESC,
    counter: Optional[OpCounter] = None,
) -> Vector:
    """``w<m> = v (+.x) A`` — (masked) row-vector times matrix.

    Uses the direction-optimized masked SpMV kernels; ``desc.algo`` of
    ``"inner"`` forces pull, anything else pushes, and ``"hybrid"`` lets
    the work heuristic decide.
    """
    x_vals = np.zeros(a.nrows)
    x_vals[v.indices] = v.values
    x_pat = v.pattern_bool()
    if mask is None:
        m_pat = np.ones(a.ncols, dtype=bool)
        complement = False
    else:
        m_pat = mask.pattern_bool()
        complement = desc.mask_complement
    direction = {"inner": "pull", "hybrid": "auto"}.get(desc.algo, "push")
    y, hit = masked_spmv(
        a.csr, x_vals, x_pat, m_pat,
        direction=direction, complement=complement,
        semiring=semiring, counter=counter,
    )
    idx = np.flatnonzero(hit)
    return Vector.from_coo(a.ncols, idx, y[idx])


def mxv(
    a: Matrix,
    v: Vector,
    *,
    mask: Optional[Vector] = None,
    semiring: Semiring = PLUS_TIMES,
    desc: Descriptor = DEFAULT_DESC,
    counter: Optional[OpCounter] = None,
) -> Vector:
    """``w<m> = A (+.x) v`` — matrix times column vector (via A^T vxm)."""
    return vxm(v, Matrix(a.csr.transpose()), mask=mask, semiring=semiring,
               desc=desc, counter=counter)
