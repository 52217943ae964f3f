"""Doubly-compressed sparse storage (DCSR) — the hypersparse case.

Buluç & Gilbert [10] (the paper's heap-algorithm source) introduced DCSR
for *hypersparse* matrices (``nnz < nrows``), where CSR's dense ``indptr``
wastes O(nrows) space on empty rows: DCSR stores row pointers only for the
rows that have nonzeros, plus the list of those row ids.

SS:GB uses DCSR/DCSC for its hypersparse case (paper Section 3).  This
reproduction's kernels are CSR-centric (like the paper's, "to isolate the
algorithmic tradeoffs"), so the doubly-compressed format is a storage
tier only: k-truss iterations and BC frontiers become hypersparse quickly.
The execution engine does not use it — its grid (``docs/parallel.md``)
cuts plain CSR operands into zero-copy row blocks and column panels.

Arrays:

* ``rows`` — ids of the ``nzr`` nonempty rows, strictly increasing;
* ``indptr`` — length ``nzr + 1`` offsets into ``indices``/``data``;
* ``indices`` / ``data`` — as CSR.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .csr import CSR, INDEX_DTYPE, VALUE_DTYPE

__all__ = ["DCSR"]


class DCSR:
    """Doubly-compressed sparse row matrix."""

    __slots__ = ("shape", "rows", "indptr", "indices", "data")

    def __init__(self, shape, rows, indptr, indices, data, *, check=True):
        self.shape = (int(shape[0]), int(shape[1]))
        self.rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        if check:
            self.check()

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, mat: CSR) -> "DCSR":
        """Compress a CSR matrix (empty rows drop out of the row list).

        Already-sorted inputs take the fast path: ``sort_indices`` returns
        the matrix itself, and the ``indices``/``data`` arrays are shared
        (neither format ever mutates them).  Unsorted inputs canonicalise
        through ``sort_indices``, which materialises fresh arrays — so no
        copy is needed in either case.
        """
        mat = mat.sort_indices()
        nnz_per_row = mat.row_nnz()
        nz_rows = np.flatnonzero(nnz_per_row).astype(INDEX_DTYPE)
        indptr = np.concatenate(
            ([0], np.cumsum(nnz_per_row[nz_rows]))
        ).astype(INDEX_DTYPE)
        return cls(
            mat.shape, nz_rows, indptr, mat.indices, mat.data, check=False
        )

    def to_csr(self) -> CSR:
        """Expand back to plain CSR."""
        nrows = self.shape[0]
        counts = np.zeros(nrows, dtype=INDEX_DTYPE)
        counts[self.rows] = np.diff(self.indptr)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(INDEX_DTYPE)
        return CSR(self.shape, indptr, self.indices.copy(), self.data.copy(),
                   sorted_indices=True)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def nzr(self) -> int:
        """Number of nonempty rows (the compression win vs CSR)."""
        return int(self.rows.shape[0])

    def storage_words(self) -> int:
        """Index+value words stored (the hypersparse saving: compare with
        a CSR's ``nrows + 1 + 2 * nnz``)."""
        return self.nzr + (self.nzr + 1) + 2 * self.nnz

    def is_hypersparse(self) -> bool:
        return self.nnz < self.shape[0]

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row by *original* id (binary search over the row list)."""
        pos = np.searchsorted(self.rows, i)
        if pos < self.nzr and self.rows[pos] == i:
            lo, hi = self.indptr[pos], self.indptr[pos + 1]
            return self.indices[lo:hi], self.data[lo:hi]
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return empty, np.empty(0, dtype=VALUE_DTYPE)

    def iter_nonempty_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(row_id, cols, vals)`` for nonempty rows only — the
        iteration pattern that makes hypersparse SpGEMM O(nzr), not
        O(nrows)."""
        for p in range(self.nzr):
            lo, hi = self.indptr[p], self.indptr[p + 1]
            yield int(self.rows[p]), self.indices[lo:hi], self.data[lo:hi]

    # ------------------------------------------------------------------
    def check(self) -> "DCSR":
        """Validate structural invariants; raise ``ValueError`` on breakage."""
        if self.rows.shape[0] + 1 != self.indptr.shape[0]:
            raise ValueError("indptr length must be nzr + 1")
        if self.rows.shape[0]:
            if np.any(np.diff(self.rows) <= 0):
                raise ValueError("row ids must be strictly increasing")
            if self.rows[0] < 0 or self.rows[-1] >= self.shape[0]:
                raise ValueError("row id out of range")
            if np.any(np.diff(self.indptr) <= 0):
                raise ValueError("DCSR rows must be nonempty")
        if self.indptr[0] != 0 or self.indptr[-1] != self.nnz:
            raise ValueError("indptr must span [0, nnz]")
        if self.nnz and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise ValueError("column index out of range")
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DCSR(shape={self.shape}, nnz={self.nnz}, nzr={self.nzr}, "
            f"hypersparse={self.is_hypersparse()})"
        )
