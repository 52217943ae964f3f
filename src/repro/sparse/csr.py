"""Compressed Sparse Row (CSR) matrix container.

This is the storage format used throughout the reproduction, mirroring the
paper's choice (Section 2.1): three arrays — row pointers ``indptr``, column
indices ``indices`` and values ``data``.  The container is deliberately thin:
kernels operate on the raw NumPy arrays, and the class mostly provides
construction, validation, conversion and structural helpers.

Invariants (checked by :meth:`CSR.check`):

* ``indptr`` has length ``nrows + 1``, is non-decreasing, starts at 0 and
  ends at ``nnz``.
* ``indices`` and ``data`` have length ``nnz``.
* all column indices are in ``[0, ncols)``.
* when ``sorted_indices`` is claimed, column indices are strictly increasing
  within each row (which also implies no duplicates).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["CSR", "rows_entries"]

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64


def rows_entries(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the CSR entry positions of a scattered row set.

    Returns ``(pos, local)``: ``pos`` indexes ``indices``/``data`` for every
    entry of the given rows (rows in the order given, entries in CSR order
    within a row), ``local`` is the position of each entry's row *within*
    ``rows``.
    """
    starts = indptr.take(rows)
    counts = indptr.take(rows + 1) - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        e = np.empty(0, dtype=INDEX_DTYPE)
        return e, e.copy()
    pos = np.repeat(starts - (ends - counts), counts)
    pos += np.arange(total, dtype=INDEX_DTYPE)
    local = np.repeat(np.arange(rows.size, dtype=INDEX_DTYPE), counts)
    return pos, local


def _bucket_order(keys, nbuckets: int, ints=None, vals=None, *, order: bool = False,
                  rows=None, nthreads: Optional[int] = None, backend: Optional[str] = None):
    """Stable counting sort of the int64 ``keys`` in ``[0, nbuckets)`` on the
    native tier (``repro_bucket_order`` in ``core/kernels/native.c``).

    Returns ``(start, order, ints, vals)`` — the ``nbuckets + 1`` bucket
    offsets, the sorting permutation (``None`` unless asked for) and the
    two payload arrays in key order — or ``None`` when the library is
    unavailable or disabled, and the caller runs its NumPy body.  The
    permutation is ``np.argsort(keys, kind="stable")``'s, so both bodies
    build the same bytes.  8-byte ``vals`` ride the sorting pass; others
    are gathered after it.  Given ``rows`` (the ``indptr`` of a CSR whose
    column ids the keys are), the int payload is each entry's row id and
    ``ints`` is not read.  The pass runs on ``native.scatter_threads(len(keys),
    nthreads, backend)`` threads (``nthreads``: the count the caller owns);
    the bytes do not depend on it.
    """
    from ..core.kernels import native  # lazy: importing repro.sparse never imports repro.core

    lib = native.load()
    if lib is None:
        return None
    keys = np.ascontiguousarray(keys, dtype=INDEX_DTYPE)
    n, nrows = keys.shape[0], 0
    if rows is not None:
        rows, ints, nrows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE), None, rows.shape[0] - 1
    elif ints is not None:
        ints = np.ascontiguousarray(ints, dtype=INDEX_DTYPE)
    rides = vals is not None and vals.dtype.itemsize == 8
    if rides:
        vals = np.ascontiguousarray(vals)
    start = np.empty(nbuckets + 1, dtype=INDEX_DTYPE)
    perm = np.empty_like(keys) if order or (vals is not None and not rides) else None
    ints_out = np.empty_like(keys) if rows is not None or ints is not None else None
    vals_out = np.empty_like(vals) if rides else None
    args = (keys, rows, start, perm, ints, ints_out, vals if rides else None, vals_out)
    ptrs = [None if x is None else x.ctypes.data for x in args]
    if nrows < 0 or lib.repro_bucket_order(
        n, nbuckets, ptrs[0], nrows, *ptrs[1:],
        native.scatter_threads(n, nthreads, backend),
    ):
        raise ValueError("index out of range")
    if vals is not None and not rides:
        vals_out = vals.take(perm)
    return start, perm, ints_out, vals_out


def _lower_by_degree(a: "CSR", perm: np.ndarray, nthreads: Optional[int] = None,
                     backend: Optional[str] = None):
    """``tril(P A P^T, -1)`` of the pattern of the square ``a``, vertex ``i``
    of the result being vertex ``perm[i]`` of ``a`` (a permutation), built
    by the native tier's count pass and two counting scatters
    (``repro_lower_by_degree`` in ``core/kernels/native.c``): sorted rows,
    all-ones values.  All three run on ``native.scatter_threads(nnz(a),
    nthreads, backend)`` threads; the bytes do not depend on it.

    ``None`` when the library is unavailable or disabled, when ``a`` does
    not describe a CSR (a bad ``indptr`` or column index) or when a
    coordinate of the result is stored twice: the caller's NumPy body then
    raises or sums duplicates, and is the reference the bytes match.
    """
    from ..core.kernels import native  # lazy, as in _bucket_order

    lib = native.load()
    n, nnz = a.nrows, a.nnz
    if lib is None or a.indptr.shape != (n + 1,) or perm.shape != (n,):
        return None
    indptr, indices, perm = (np.ascontiguousarray(x, dtype=INDEX_DTYPE)
                             for x in (a.indptr, a.indices, perm))
    new_id, up, lp = (np.empty(k, dtype=INDEX_DTYPE) for k in (n, n + 1, n + 1))
    uj, lj = np.empty(nnz, dtype=INDEX_DTYPE), np.empty(nnz, dtype=INDEX_DTYPE)
    got = lib.repro_lower_by_degree(
        n, indptr.ctypes.data, indices.ctypes.data, nnz,
        *(x.ctypes.data for x in (perm, new_id, up, uj, lp, lj)),
        native.scatter_threads(nnz, nthreads, backend))
    if got < 0:
        return None
    return CSR(a.shape, lp, lj[:got], np.ones(got, dtype=VALUE_DTYPE),
               sorted_indices=True, check=False)


class CSR:
    """A CSR sparse matrix over NumPy arrays.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    indptr, indices, data:
        The standard CSR arrays.  They are converted to the canonical dtypes
        (int64 indices, float64 values by default) but **not** copied when
        already canonical.
    sorted_indices:
        Declare that each row's column indices are strictly increasing.  Most
        kernels in :mod:`repro.core` require sorted, duplicate-free rows; use
        :meth:`sort_indices` to establish the invariant.
    check:
        Validate the invariants at construction time.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "sorted_indices")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        sorted_indices: bool = False,
        check: bool = True,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        if data.dtype.kind in "fc":
            self.data = np.ascontiguousarray(data)
        else:
            self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        self.sorted_indices = bool(sorted_indices)
        if check:
            self.check()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: Tuple[int, int], dtype=VALUE_DTYPE) -> "CSR":
        """An all-zero matrix of the given shape."""
        return cls(
            shape,
            np.zeros(shape[0] + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=dtype),
            sorted_indices=True,
            check=False,
        )

    @classmethod
    def from_coo(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray | None = None,
        *,
        sum_duplicates: bool = True,
    ) -> "CSR":
        """Build a CSR matrix from coordinate triples.

        Duplicate ``(row, col)`` entries are summed (``sum_duplicates=True``,
        the default) or rejected: a run of duplicates becomes its first value
        plus the rest in input order, an entry stored once keeps its value
        bit for bit.  The result has sorted row segments and owns its arrays.
        """
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        if vals is None:
            vals = np.ones(rows.shape[0], dtype=VALUE_DTYPE)
        else:
            vals = np.asarray(vals)
            if vals.dtype.kind not in "fc":
                vals = vals.astype(VALUE_DTYPE)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have identical shapes")
        nrows, ncols = int(shape[0]), int(shape[1])
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("column index out of range")
        # Order by (row, col) with a stable sort, so duplicates meet in input
        # order.  Input whose fused key is already non-decreasing is left
        # alone; otherwise two counting passes (column, then row) where their
        # O(max(nrows, ncols)) offsets are in proportion to the entries, one
        # stable sort of the fused key where not (and on the NumPy tier), and
        # lexsort where the key overflows an int64.  All three agree.
        nnz, order = rows.size, None
        if nrows * ncols >= 2**63:
            order = np.lexsort((cols, rows))
        else:
            key = rows * INDEX_DTYPE(ncols) + cols
            if nnz > 1 and not (key[1:] >= key[:-1]).all():
                if max(nrows, ncols) <= 4 * nnz + 1024:
                    by_col = _bucket_order(cols, ncols, rows, order=True)
                    by_row = by_col and _bucket_order(by_col[2], nrows, by_col[1])
                    order = by_row[2] if by_row else None
                if order is None:
                    order = np.argsort(key, kind="stable")
        if order is None:  # the result never aliases the caller's arrays
            cols, vals = cols.copy(), vals.copy()
        else:
            rows, cols, vals = rows.take(order), cols.take(order), vals.take(order)
        if nnz:
            dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if dup.any():
                if not sum_duplicates:
                    raise ValueError("duplicate coordinates present")
                # each run of duplicates starts from its first value and adds
                # the rest in input order; an entry stored once is not touched
                # (``0.0 + v`` would lose the sign of a stored -0.0)
                keep = np.concatenate(([True], ~dup))
                again = np.flatnonzero(dup) + 1
                rows, cols, summed = rows[keep], cols[keep], vals[keep]
                np.add.at(summed, (np.cumsum(keep) - 1)[again], vals[again])
                vals = summed
        indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
        return cls((nrows, ncols), indptr, cols, vals, sorted_indices=True, check=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSR":
        """Build from a 2-D dense array, dropping explicit zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("dense array must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def from_segment_arrays(
        cls,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        sorted_indices: bool = False,
    ) -> "CSR":
        """Rewrap the three CSR arrays without copying or re-validating.

        The zero-copy counterpart of :meth:`segment_arrays` used by the
        shared-memory executor (:mod:`repro.parallel.shm`): the arrays are
        typically views into attached shared segments whose invariants were
        established by the publishing process, so ``check`` is skipped.  The
        arrays must already be contiguous and of the canonical dtypes or the
        constructor will fall back to copying.
        """
        return cls(
            shape, indptr, indices, data, sorted_indices=sorted_indices, check=False
        )

    def segment_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(indptr, indices, data)`` arrays in publication order.

        Together with ``shape`` and ``sorted_indices`` this is everything a
        peer process needs to rebuild the matrix via
        :meth:`from_segment_arrays` without a round trip through COO.
        """
        return self.indptr, self.indices, self.data

    @classmethod
    def from_scipy(cls, mat) -> "CSR":
        """Build from a ``scipy.sparse`` matrix (used by tests/oracles)."""
        m = mat.tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(
            m.shape,
            m.indptr.astype(INDEX_DTYPE),
            m.indices.astype(INDEX_DTYPE),
            m.data.astype(VALUE_DTYPE),
            sorted_indices=True,
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def row_nnz(self) -> np.ndarray:
        """Array of per-row nonzero counts."""
        return np.diff(self.indptr)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the column indices and values of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(i, cols, vals)`` for every row (including empty rows)."""
        for i in range(self.nrows):
            cols, vals = self.row(i)
            yield i, cols, vals

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check(self) -> "CSR":
        """Validate structural invariants; raise ``ValueError`` on breakage."""
        nrows, ncols = self.shape
        if self.indptr.shape[0] != nrows + 1:
            raise ValueError("indptr has wrong length")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape[0] != nnz or self.data.shape[0] != nnz:
            raise ValueError("indices/data length mismatch with indptr")
        self._check_columns()
        if self.sorted_indices and nnz:
            d = np.diff(self.indices)
            starts = self.indptr[1:-1]
            bad = d <= 0
            bad[starts[(starts > 0) & (starts < nnz)] - 1] = False
            if bad.any():
                raise ValueError("indices not strictly increasing within rows")
        return self

    def _check_columns(self) -> None:
        """``ValueError`` unless every stored column index is in ``[0, ncols)``
        (``take`` would wrap a negative one)."""
        if self.nnz and (self.indices.min() < 0 or self.indices.max() >= self.ncols):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    # conversions / structural ops
    # ------------------------------------------------------------------
    def copy(self) -> "CSR":
        return CSR(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            sorted_indices=self.sorted_indices,
            check=False,
        )

    def astype(self, dtype) -> "CSR":
        return CSR(
            self.shape,
            self.indptr,
            self.indices,
            self.data.astype(dtype),
            sorted_indices=self.sorted_indices,
            check=False,
        )

    def row_ids(self) -> np.ndarray:
        """The row index of every stored entry, in storage order."""
        return np.repeat(np.arange(self.nrows, dtype=INDEX_DTYPE), np.diff(self.indptr))

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, vals)`` coordinate arrays (copies)."""
        return self.row_ids(), self.indices.copy(), self.data.copy()

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows, cols, vals = self.to_coo()
        np.add.at(out, (rows, cols), vals)
        return out

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (tests/oracles only)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    def sort_indices(self) -> "CSR":
        """Return an equivalent CSR with sorted, duplicate-summed rows."""
        if self.sorted_indices:
            return self
        rows, cols, vals = self.to_coo()
        return CSR.from_coo(self.shape, rows, cols, vals)

    def transpose(self) -> "CSR":
        """Transpose.  The result has sorted rows (CSR of the transpose is
        the CSC of the original, so this also serves as the CSC builder).

        Sorted, duplicate-free rows transpose by one *stable* sort on the
        column id alone (entries are already row-major, so stability keeps
        each output row ascending): the native tier's counting pass, which
        writes the row ids from ``indptr`` and moves the values as it goes,
        or an LSD radix pass per 16-bit digit, which NumPy runs as a
        counting sort.  Anything else goes through :meth:`from_coo`, which
        also sums duplicates."""
        return self._transpose()

    def _transpose(self, nthreads: Optional[int] = None, backend: Optional[str] = None) -> "CSR":
        """:meth:`transpose`, its counting pass on the caller's thread count
        (``native.scatter_threads(nnz, nthreads, backend)``)."""
        if not self.sorted_indices:
            return CSR.from_coo((self.ncols, self.nrows), self.indices, self.row_ids(), self.data)
        moved = None
        if self.indptr.shape == (self.nrows + 1,):  # else row_ids() below raises
            moved = _bucket_order(self.indices, self.ncols, vals=self.data, rows=self.indptr,
                                  nthreads=nthreads, backend=backend)
        if moved is not None:
            indptr, _, rows, data = moved
        else:
            rows = self.row_ids()
            order = np.argsort(self.indices.astype(np.uint16), kind="stable")
            shift = 16
            while max(self.ncols - 1, 0) >> shift:  # (0 - 1) >> 16 is -1: never false
                digit = (self.indices[order] >> shift).astype(np.uint16)
                order = order[np.argsort(digit, kind="stable")]
                shift += 16
            indptr = np.zeros(self.ncols + 1, dtype=INDEX_DTYPE)
            np.cumsum(np.bincount(self.indices, minlength=self.ncols), out=indptr[1:])
            rows, data = rows[order], self.data[order]
        return CSR(
            (self.ncols, self.nrows), indptr, rows, data, sorted_indices=True, check=False
        )

    def pattern(self) -> "CSR":
        """Same structure with all stored values set to 1.0."""
        return CSR(
            self.shape,
            self.indptr,
            self.indices,
            np.ones(self.nnz, dtype=VALUE_DTYPE),
            sorted_indices=self.sorted_indices,
            check=False,
        )

    def drop_zeros(self, tol: float = 0.0) -> "CSR":
        """Remove stored entries with ``|value| <= tol``."""
        keep = np.abs(self.data) > tol
        if keep.all():
            return self
        return self._keep_entries(keep).sort_indices()

    def select_rows(self, mask_or_index: np.ndarray) -> "CSR":
        """Keep only rows selected by a boolean mask or index array; other
        rows become empty (the shape is unchanged)."""
        sel = np.zeros(self.nrows, dtype=bool)
        sel[mask_or_index] = True
        keep = np.repeat(sel, np.diff(self.indptr))
        return self._keep_entries(keep).sort_indices()

    def permute(self, perm: np.ndarray) -> "CSR":
        """Symmetric permutation ``P A P^T`` for a square matrix: row and
        column ``i`` of the result is row/column ``perm[i]`` of ``self``."""
        if self.nrows != self.ncols:
            raise ValueError("permute requires a square matrix")
        perm = np.asarray(perm, dtype=INDEX_DTYPE)
        n = self.nrows
        if (
            perm.shape != (n,)
            or (n and (perm.min() < 0 or perm.max() >= n))
            or not (np.bincount(perm, minlength=n) == 1).all()
        ):
            raise ValueError("perm must be a permutation of range(n)")
        self._check_columns()
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n, dtype=INDEX_DTYPE)
        # rows gathered in their new order arrive grouped by new row, so the
        # NumPy tier's stable sort only reorders columns within rows
        pos, new_rows = rows_entries(self.indptr, perm)
        return CSR.from_coo(
            self.shape, new_rows, inv.take(self.indices.take(pos)),
            self.data.take(pos),
        )

    def _keep_entries(self, keep: np.ndarray) -> "CSR":
        """Entries whose flag in the boolean ``keep`` (one per stored entry)
        is set: a filter of the three arrays, which keeps entry order and
        so sortedness (no COO round trip, no sort)."""
        kept = np.flatnonzero(keep)
        return CSR(
            self.shape, np.searchsorted(kept, self.indptr),
            self.indices.take(kept), self.data.take(kept),
            sorted_indices=self.sorted_indices, check=False,
        )

    def _diagonals(self) -> np.ndarray:
        """``col - row`` of every stored entry."""
        return self.indices - self.row_ids()

    def tril(self, k: int = -1) -> "CSR":
        """Lower-triangular part (entries with ``col - row <= k``)."""
        return self._keep_entries(self._diagonals() <= k).sort_indices()

    def triu(self, k: int = 1) -> "CSR":
        """Upper-triangular part (entries with ``col - row >= k``)."""
        return self._keep_entries(self._diagonals() >= k).sort_indices()

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def equals(self, other: "CSR", *, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Structural and numerical equality (after canonicalisation)."""
        if self.shape != other.shape:
            return False
        a, b = self.sort_indices(), other.sort_indices()
        if a.nnz != b.nnz:
            return False
        return (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.allclose(a.data, b.data, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSR(shape={self.shape}, nnz={self.nnz}, "
            f"sorted={self.sorted_indices}, dtype={self.data.dtype})"
        )
