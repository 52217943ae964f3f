"""Vertex relabeling helpers.

Triangle counting (paper Section 8.2) requires "vertices in the original
graph [to] be sorted in non-increasing order of their degrees" before taking
``L = tril(A)`` — the standard trick [29] that bounds the work of
``L .* (L @ L)``.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSR
from ..sparse.csr import _bucket_order, _lower_by_degree

__all__ = ["degree_sort_permutation", "relabel_by_degree", "lower_by_degree"]


def degree_sort_permutation(a: CSR, *, ascending: bool = False) -> np.ndarray:
    """Permutation ``perm`` such that vertex ``i`` of the relabeled graph is
    vertex ``perm[i]`` of the original, ordered by degree (non-increasing by
    default).  Ties broken by vertex id for determinism.

    A stable counting sort over ``maxdeg - deg`` (``deg - mindeg`` when
    ascending) on the native tier, a stable ``argsort`` of the same keys on
    the NumPy tier: both are ``np.lexsort((np.arange(n), -deg))``'s
    permutation, byte for byte."""
    deg = a.row_nnz()
    if not deg.size:
        return np.empty(0, dtype=np.int64)
    key = deg - deg.min() if ascending else deg.max() - deg
    span = int(key.max()) + 1
    if span <= a.nnz + 1:  # always, unless indptr is malformed
        moved = _bucket_order(key, span, np.arange(a.nrows, dtype=np.int64))
        if moved is not None:
            return moved[2]
    return np.argsort(key, kind="stable").astype(np.int64, copy=False)


def relabel_by_degree(a: CSR, *, ascending: bool = False) -> CSR:
    """Symmetric permutation of a square adjacency so that degrees are
    non-increasing (the triangle-counting preprocessing step)."""
    return a.permute(degree_sort_permutation(a, ascending=ascending))


def lower_by_degree(a: CSR) -> CSR:
    """The triangle-counting operand ``L = tril(P A P^T, -1)`` of the pattern
    of the square ``a``, ``P`` its non-increasing degree order: the bytes of
    ``relabel_by_degree(a.pattern()).tril(-1)``, built without the permuted
    copy.

    The native tier builds it in two counting scatters and sorts nothing
    (:func:`repro.sparse.csr._lower_by_degree`).  The NumPy body — the
    no-compiler tier and the reference, which also runs where the loop
    finds a bad index or a coordinate of ``L`` stored twice — relabels the
    coordinates, keeps ``col < row`` and orders that half with
    :meth:`CSR.from_coo`, which sums the duplicates as ``permute`` does."""
    if a.nrows != a.ncols:
        raise ValueError("permute requires a square matrix")
    perm = degree_sort_permutation(a)
    low = _lower_by_degree(a, perm)
    if low is not None:
        return low
    a._check_columns()
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(a.nrows, dtype=perm.dtype)
    rows, cols = np.repeat(new_id, a.row_nnz()), new_id.take(a.indices)
    low = np.flatnonzero(cols < rows)
    return CSR.from_coo(a.shape, rows.take(low), cols.take(low))
