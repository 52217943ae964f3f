"""GraphBLAS-flavoured Matrix / Vector wrappers.

The paper's applications are "implemented within the GraphBLAS
specifications, substituting Masked SpGEMM operations with calls to
different algorithms investigated in this work" (Section 7).  This
subpackage provides that interface: a thin, typed veneer over
:mod:`repro.sparse` and :mod:`repro.core` following the GraphBLAS C API's
shape — ``mxm(C, mask, semiring, A, B, desc)`` — so the applications read
like their LAGraph counterparts and the masked-SpGEMM algorithm is a
pluggable descriptor field.

Only the slice of GraphBLAS the paper's applications need is implemented
(this is not a full GraphBLAS): matrices/vectors with patterns, masks and
complements, mxm / vxm / mxv, eWiseMult / eWiseAdd, apply, select, reduce,
extract and assign-like construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from ..sparse import CSR, ewise_add, ewise_mult, mask_pattern, reduce_sum

__all__ = ["Matrix", "Vector", "Descriptor"]


@dataclass(frozen=True)
class Descriptor:
    """Operation descriptor (the GraphBLAS ``GrB_Descriptor``).

    Attributes
    ----------
    mask_complement:
        Use the complement of the mask (GrB_COMP).
    mask_structure:
        Use only the mask's pattern (this library always does; the flag is
        accepted for API familiarity).
    replace:
        Clear the output before writing (GrB_REPLACE).  Without replace,
        unwritten entries of the output are kept (GraphBLAS accumulation
        with the implicit "second" accumulator).
    algo:
        Which masked SpGEMM algorithm backs ``mxm``: one of
        :data:`repro.core.ALGOS`, or ``"auto"`` / ``"hybrid"`` (the
        planner's per-row bands, :mod:`repro.engine`).
    phases:
        1 or 2 (one-phase / two-phase output formation).
    """

    mask_complement: bool = False
    mask_structure: bool = True
    replace: bool = True
    algo: str = "msa"
    phases: int = 1


class Matrix:
    """A GraphBLAS-style sparse matrix (wraps :class:`repro.sparse.CSR`)."""

    __slots__ = ("csr",)

    def __init__(self, csr: CSR):
        self.csr = csr

    # -- construction ---------------------------------------------------
    @classmethod
    def new(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(CSR.empty((nrows, ncols)))

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals=None) -> "Matrix":
        return cls(CSR.from_coo((nrows, ncols), rows, cols, vals))

    @classmethod
    def from_dense(cls, dense) -> "Matrix":
        return cls(CSR.from_dense(np.asarray(dense)))

    @classmethod
    def from_csr(cls, csr: CSR) -> "Matrix":
        return cls(csr)

    # -- properties -------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.csr.shape

    @property
    def nrows(self) -> int:
        return self.csr.nrows

    @property
    def ncols(self) -> int:
        return self.csr.ncols

    @property
    def nvals(self) -> int:
        """GraphBLAS ``GrB_Matrix_nvals``."""
        return self.csr.nnz

    # -- element access ---------------------------------------------------
    def __getitem__(self, idx: Tuple[int, int]) -> Optional[float]:
        i, j = idx
        cols, vals = self.csr.row(i)
        pos = np.searchsorted(cols, j)
        if pos < cols.shape[0] and cols[pos] == j:
            return float(vals[pos])
        return None  # implicit zero

    def to_dense(self) -> np.ndarray:
        return self.csr.to_dense()

    def dup(self) -> "Matrix":
        return Matrix(self.csr.copy())

    def transpose(self) -> "Matrix":
        return Matrix(self.csr.transpose())

    def pattern(self) -> "Matrix":
        return Matrix(self.csr.pattern())

    # -- GraphBLAS-style operations (also available as free functions) ----
    def ewise_mult(self, other: "Matrix", op: Callable = np.multiply) -> "Matrix":
        return Matrix(ewise_mult(self.csr, other.csr, op=op))

    def ewise_add(self, other: "Matrix", op: Callable = np.add) -> "Matrix":
        return Matrix(ewise_add(self.csr, other.csr, op=op))

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Matrix":
        """GrB_apply: unary function on every stored value."""
        out = self.csr.copy()
        out.data[:] = fn(out.data)
        return Matrix(out)

    def select(self, keep: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> "Matrix":
        """GxB_select: keep entries where ``keep(rows, cols, vals)`` is True."""
        rows, cols, vals = self.csr.to_coo()
        mask = np.asarray(keep(rows, cols, vals), dtype=bool)
        return Matrix(CSR.from_coo(self.shape, rows[mask], cols[mask], vals[mask]))

    def reduce_scalar(self, op: Callable = np.add) -> float:
        """GrB_reduce to scalar."""
        if op is np.add:
            return reduce_sum(self.csr)
        if self.nvals == 0:
            return 0.0
        return float(op.reduce(self.csr.data))

    def reduce_rows(self, op=np.add) -> "Vector":
        """GrB_reduce along rows -> column vector."""
        from ..sparse import row_reduce

        dense = row_reduce(self.csr, op=op)
        return Vector.from_dense(dense)

    def extract_row(self, i: int) -> "Vector":
        cols, vals = self.csr.row(i)
        return Vector.from_coo(self.ncols, cols, vals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"gb.Matrix({self.nrows}x{self.ncols}, nvals={self.nvals})"


class Vector:
    """A GraphBLAS-style sparse vector (stored as a 1 x n Matrix row)."""

    __slots__ = ("_row",)

    def __init__(self, row: CSR):
        if row.nrows != 1:
            raise ValueError("vector storage must be a single-row CSR")
        self._row = row

    @classmethod
    def new(cls, size: int) -> "Vector":
        return cls(CSR.empty((1, size)))

    @classmethod
    def from_coo(cls, size: int, idx, vals=None) -> "Vector":
        idx = np.asarray(idx, dtype=np.int64)
        return cls(
            CSR.from_coo((1, size), np.zeros(idx.shape[0], dtype=np.int64), idx, vals)
        )

    @classmethod
    def from_dense(cls, dense) -> "Vector":
        dense = np.asarray(dense, dtype=np.float64)
        idx = np.flatnonzero(dense)
        return cls.from_coo(dense.shape[0], idx, dense[idx])

    @property
    def size(self) -> int:
        return self._row.ncols

    @property
    def nvals(self) -> int:
        return self._row.nnz

    @property
    def indices(self) -> np.ndarray:
        return self._row.indices

    @property
    def values(self) -> np.ndarray:
        return self._row.data

    def __getitem__(self, i: int) -> Optional[float]:
        return Matrix(self._row)[0, i]

    def to_dense(self) -> np.ndarray:
        return self._row.to_dense()[0]

    def as_row_matrix(self) -> Matrix:
        return Matrix(self._row)

    def dup(self) -> "Vector":
        return Vector(self._row.copy())

    def pattern_bool(self) -> np.ndarray:
        out = np.zeros(self.size, dtype=bool)
        out[self.indices] = True
        return out

    def reduce_scalar(self, op: Callable = np.add) -> float:
        return Matrix(self._row).reduce_scalar(op)

    def ewise_mult(self, other: "Vector", op: Callable = np.multiply) -> "Vector":
        """Element-wise multiply (pattern intersection)."""
        return Vector(ewise_mult(self._row, other._row, op=op))

    def ewise_add(self, other: "Vector", op: Callable = np.add) -> "Vector":
        """Element-wise add (pattern union)."""
        return Vector(ewise_add(self._row, other._row, op=op))

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Vector":
        """GrB_apply on a vector."""
        out = self._row.copy()
        out.data[:] = fn(out.data)
        return Vector(out)

    def select(self, keep: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "Vector":
        """Keep entries where ``keep(indices, values)`` is True."""
        idx, vals = self.indices, self.values
        mask = np.asarray(keep(idx, vals), dtype=bool)
        return Vector.from_coo(self.size, idx[mask], vals[mask])

    def mask_out(self, other: "Vector", *, complement: bool = False) -> "Vector":
        """Structural masking of a vector by another's pattern."""
        return Vector(mask_pattern(self._row, other._row, complement=complement))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"gb.Vector(size={self.size}, nvals={self.nvals})"
