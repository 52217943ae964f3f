"""Element-wise and structural operations on CSR matrices.

These are the substrate operations the paper's applications need around the
masked SpGEMM core: element-wise multiply (``.*``, used to apply masks and in
triangle counting), element-wise add, complement-aware masking, reductions,
and structural set operations on patterns.

All binary ops require matching shapes and operate on *sorted* CSR inputs
(callers get an automatic canonicalisation via ``CSR.sort_indices``), after
``native.validate`` has range-checked both operands on either kernel tier.
They are row merges of the two sorted entry lists: :func:`pattern_union`
and :func:`locate`, which ``ewise_mult`` and ``mask_pattern`` are built on,
run as C loops on the native tier (``core/kernels/native.c``); the NumPy
bodies stay as the fallback and the byte reference.  ``ewise_add`` is the
NumPy merge on both tiers.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .csr import CSR, INDEX_DTYPE, VALUE_DTYPE

__all__ = [
    "ewise_mult",
    "ewise_add",
    "locate",
    "mask_pattern",
    "apply_mask",
    "reduce_sum",
    "row_reduce",
    "pattern_union",
    "pattern_intersection",
    "pattern_difference",
    "nnz_overlap",
]


def _operands(a: CSR, b: CSR):
    """``(lib, a, b)``: the native library (``None`` on the NumPy tier) and
    the canonical forms of two operands of one shape, each range-checked by
    ``native.validate`` first — on both tiers, so a ``check=False`` CSR that
    lies about its indices is the same error everywhere."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    from ..core.kernels import native  # lazy: importing repro.sparse never imports repro.core

    lib = native.load()
    native.validate(lib, (a, b), True)
    return lib, a.sort_indices(), b.sort_indices()


def _search(a: CSR, b: CSR):
    """NumPy body of the row merges: where each entry of ``b`` goes among
    ``a``'s (its insertion position) and whether ``a`` stores it, by one
    ``searchsorted`` of row-major keys ``row * width + col``.  Where
    ``nrows * ncols`` overflows an int64 each column id is replaced by its
    rank among the columns either side stores: same order, and it fits."""
    ca, cb, width = a.indices, b.indices, a.ncols
    if max(a.nrows, 1) * width >= 2**63:
        cols = np.unique(np.concatenate((ca, cb)))
        ca, cb, width = np.searchsorted(cols, ca), np.searchsorted(cols, cb), cols.shape[0]
    ka, kb = a.row_ids() * width + ca, b.row_ids() * width + cb
    pos = np.searchsorted(ka, kb)
    if not ka.shape[0]:
        return pos, np.zeros(kb.shape[0], dtype=bool)
    return pos, ka[np.minimum(pos, ka.shape[0] - 1)] == kb


def _locate(lib, a: CSR, b: CSR) -> np.ndarray:
    if lib is None:
        pos, found = _search(a, b)
        return np.where(found, pos, -1)
    pos = np.empty(b.nnz, dtype=INDEX_DTYPE)
    lib.repro_locate(a.nrows, *(x.ctypes.data for x in (a.indptr, a.indices, b.indptr,
                                                         b.indices, pos)))
    return pos


def locate(a: CSR, b: CSR) -> np.ndarray:
    """For each stored entry of ``b``, its index among the stored entries of
    ``a``, or ``-1`` where ``a`` stores nothing at that position — both in
    canonical (sorted) entry order, which is the storage order of every
    masked product.  It aligns a sub-pattern's values with a pattern's:
    ``vals = np.zeros(a.nnz); vals[locate(a, b)] = b.data``.

    A two-pointer walk of each pair of rows on the native tier
    (``repro_locate``), so no ``row * ncols + col`` key can overflow.
    """
    return _locate(*_operands(a, b))


def ewise_mult(a: CSR, b: CSR, op: Callable = np.multiply) -> CSR:
    """Element-wise multiply (set *intersection* of patterns).

    ``op`` may be any binary ufunc-like callable applied to the matched
    values; the default is multiplication, matching GraphBLAS ``eWiseMult``
    on the arithmetic semiring.
    """
    lib, a, b = _operands(a, b)
    at = _locate(lib, b, a)
    kept = np.flatnonzero(at >= 0)
    return CSR(a.shape, np.searchsorted(kept, a.indptr), a.indices.take(kept),
               op(a.data.take(kept), b.data.take(at.take(kept))),
               sorted_indices=True, check=False)


def _splice(a: CSR, b: CSR):
    """NumPy body of the unions: ``(indptr, cols, a_at, new, at, pos, both)``
    -- the union's rows and columns, where ``a``'s entries land in it, which
    of ``b``'s entries ``a`` lacks and where they land, and :func:`_search`'s
    answer for ``b``'s entries."""
    pos, both = _search(a, b)
    new = np.flatnonzero(~both)  # b's entries that a lacks ...
    at = pos[new] + np.arange(new.shape[0], dtype=INDEX_DTYPE)  # ... and where they land
    total = a.nnz + new.shape[0]
    from_a = np.ones(total, dtype=bool)
    from_a[at] = False
    a_at = np.flatnonzero(from_a)
    cols = np.empty(total, dtype=INDEX_DTYPE)
    cols[a_at], cols[at] = a.indices, b.indices[new]
    indptr = a.indptr.copy()
    indptr[1:] += np.cumsum(np.bincount(b.row_ids()[new], minlength=a.nrows))
    return indptr, cols, a_at, new, at, pos, both


def ewise_add(a: CSR, b: CSR, op: Callable = np.add) -> CSR:
    """Element-wise add (set *union* of patterns): ``op(a, b)`` where both
    matrices store an entry, the stored value — bit for bit — elsewhere.

    A merge of the two sorted entry lists, so nothing is sorted again: it
    locates ``b``'s entries among ``a``'s, combines the ones present in place
    and splices the rest in between.
    """
    _, a, b = _operands(a, b)
    indptr, cols, a_at, new, at, pos, both = _splice(a, b)
    shared = pos[both]
    combined = op(a.data[shared], b.data[both])
    vals = np.empty(cols.shape[0], dtype=np.result_type(a.data, b.data, combined))
    vals[a_at], vals[at] = a.data, b.data[new]
    vals[a_at[shared]] = combined
    return CSR(a.shape, indptr, cols, vals, sorted_indices=True, check=False)


def mask_pattern(mat: CSR, mask: CSR, *, complement: bool = False) -> CSR:
    """Keep entries of ``mat`` whose position is (not, if complemented) in
    the pattern of ``mask``.  Values of the mask are ignored — only its
    structure matters, as in the paper (Section 2)."""
    lib, mat, mask = _operands(mat, mask)
    inside = _locate(lib, mask, mat) >= 0
    return mat._keep_entries(~inside if complement else inside)


# Alias with the GraphBLAS-flavoured name used by the apps.
apply_mask = mask_pattern


def reduce_sum(mat: CSR) -> float:
    """Sum of all stored values (GraphBLAS ``reduce`` to scalar with +)."""
    return float(mat.data.sum())


def row_reduce(mat: CSR, op: Callable = np.add) -> np.ndarray:
    """Reduce each row to a scalar with ``op`` (dense length-nrows output).
    Rows with no entries reduce to 0."""
    out = np.zeros(mat.nrows, dtype=VALUE_DTYPE)
    if mat.nnz == 0:
        return out
    getattr(op, "at", np.add.at)(out, mat.row_ids(), mat.data)
    return out


def pattern_union(a: CSR, b: CSR) -> CSR:
    """Structural union with all values 1: one row merge of the two patterns
    and one ones array on the native tier (``repro_pattern_union``); the NumPy
    tier's ``ewise_add`` of the two canonical patterns is the byte reference."""
    lib, a, b = _operands(a, b)
    if lib is None:
        return ewise_add(a.pattern(), b.pattern(), op=np.maximum)
    indptr = np.empty(a.nrows + 1, dtype=INDEX_DTYPE)
    cols = np.empty(a.nnz + b.nnz, dtype=INDEX_DTYPE)
    nnz = lib.repro_pattern_union(a.nrows, *(x.ctypes.data for x in (
        a.indptr, a.indices, b.indptr, b.indices, indptr, cols)))
    cols.resize(nnz, refcheck=False)  # in place, where the rows overlapped
    return CSR(a.shape, indptr, cols, np.ones(nnz), sorted_indices=True, check=False)


def pattern_intersection(a: CSR, b: CSR) -> CSR:
    """Structural intersection with all values 1."""
    return ewise_mult(a.pattern(), b.pattern(), op=np.minimum)


def pattern_difference(a: CSR, b: CSR) -> CSR:
    """Entries of ``a`` not present in ``b`` (values kept from ``a``)."""
    return mask_pattern(a, b, complement=True)


def nnz_overlap(a: CSR, b: CSR) -> int:
    """Number of positions stored in both matrices.  Used by benches to
    report mask/output overlap (Figure 1's motivation)."""
    return pattern_intersection(a, b).nnz
