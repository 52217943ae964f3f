"""Element-wise and structural operations on CSR matrices.

These are the substrate operations the paper's applications need around the
masked SpGEMM core: element-wise multiply (``.*``, used to apply masks and in
triangle counting), element-wise add, complement-aware masking, reductions,
structural set operations on patterns, and the column split the execution
engine's grid uses.

All binary ops require matching shapes and operate on *sorted* CSR inputs
(callers get an automatic canonicalisation via ``CSR.sort_indices``).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .csr import CSR, INDEX_DTYPE, VALUE_DTYPE

__all__ = [
    "ewise_mult",
    "ewise_add",
    "mask_pattern",
    "apply_mask",
    "reduce_sum",
    "row_reduce",
    "pattern_union",
    "pattern_intersection",
    "pattern_difference",
    "nnz_overlap",
    "column_panels",
    "split_columns",
    "restrict_columns",
]


def _coo(mat: CSR):
    """``(keys, rows, cols, vals)`` of the canonical form of ``mat``: row-major
    flat keys and the coordinate arrays, read-only views where they can be."""
    mat = mat.sort_indices()
    rows = mat.row_ids()
    return rows * mat.ncols + mat.indices, rows, mat.indices, mat.data


def _find(keys: np.ndarray, queries: np.ndarray):
    """Where each of ``queries`` sits among the sorted ``keys``: the insertion
    positions and the flags of the queries that are present."""
    pos = np.searchsorted(keys, queries)
    if not keys.shape[0]:
        return pos, np.zeros(queries.shape[0], dtype=bool)
    return pos, keys[np.minimum(pos, keys.shape[0] - 1)] == queries


def ewise_mult(a: CSR, b: CSR, op: Callable = np.multiply) -> CSR:
    """Element-wise multiply (set *intersection* of patterns).

    ``op`` may be any binary ufunc-like callable applied to the matched
    values; the default is multiplication, matching GraphBLAS ``eWiseMult``
    on the arithmetic semiring.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ka, ra, ca, va = _coo(a)
    kb, _, _, vb = _coo(b)
    ia, match = _find(kb, ka)
    vals = op(va[match], vb[ia[match]])
    return CSR.from_coo(a.shape, ra[match], ca[match], vals)


def ewise_add(a: CSR, b: CSR, op: Callable = np.add) -> CSR:
    """Element-wise add (set *union* of patterns): ``op(a, b)`` where both
    matrices store an entry, the stored value — bit for bit — elsewhere.

    A merge of the two sorted entry lists: ``b``'s keys are located among
    ``a``'s, the ones present combine in place and the rest are spliced in
    between, so nothing is sorted again.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if op is np.add and a.nrows * a.ncols >= 2**63:
        # no flat key fits an int64: from_coo's lexsort path sums the overlap
        (_, ra, ca, va), (_, rb, cb, vb) = _coo(a), _coo(b)
        return CSR.from_coo(
            a.shape, np.concatenate([ra, rb]), np.concatenate([ca, cb]),
            np.concatenate([va, vb]),
        )
    ka, _, ca, va = _coo(a)
    kb, rb, cb, vb = _coo(b)
    pos, both = _find(ka, kb)
    new = np.flatnonzero(~both)  # b's entries that a lacks ...
    at = pos[new] + np.arange(new.shape[0], dtype=INDEX_DTYPE)  # ... and where they land
    total = ka.shape[0] + new.shape[0]
    from_a = np.ones(total, dtype=bool)
    from_a[at] = False
    a_at = np.flatnonzero(from_a)
    cols = np.empty(total, dtype=INDEX_DTYPE)
    cols[a_at], cols[at] = ca, cb[new]
    shared = pos[both]
    combined = op(va[shared], vb[both])
    vals = np.empty(total, dtype=np.result_type(va, vb, combined))
    vals[a_at], vals[at] = va, vb[new]
    vals[a_at[shared]] = combined
    indptr = a.indptr.copy()
    indptr[1:] += np.cumsum(np.bincount(rb[new], minlength=a.nrows))
    return CSR(a.shape, indptr, cols, vals, sorted_indices=True, check=False)


def mask_pattern(mat: CSR, mask: CSR, *, complement: bool = False) -> CSR:
    """Keep entries of ``mat`` whose position is (not, if complemented) in
    the pattern of ``mask``.  Values of the mask are ignored — only its
    structure matters, as in the paper (Section 2)."""
    if mat.shape != mask.shape:
        raise ValueError(f"shape mismatch: {mat.shape} vs {mask.shape}")
    km, rm, cm, vm = _coo(mat)
    inside = _find(_coo(mask)[0], km)[1]
    keep = ~inside if complement else inside
    return CSR.from_coo(mat.shape, rm[keep], cm[keep], vm[keep])


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
    """Structural union with all values 1."""
    return ewise_add(a.pattern(), b.pattern(), op=np.maximum)


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


def column_panels(ncols: int, panel_width: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(lo, hi)`` panel bounds."""
    if panel_width <= 0:
        raise ValueError("panel_width must be positive")
    for lo in range(0, ncols, panel_width):
        yield lo, min(ncols, lo + panel_width)


def split_columns(mat: CSR, bounds: Sequence[int]) -> List[CSR]:
    """Cut ``mat`` into the column panels ``[bounds[k], bounds[k+1])``.

    One binning pass for all ``K = len(bounds) - 1`` panels: a
    ``searchsorted`` against ``bounds`` names each entry's panel and a
    stable sort by panel keeps the (row, col) order inside every panel, so
    each panel comes out as a finished sorted CSR of width
    ``bounds[k+1] - bounds[k]`` with column ids rebased to the panel.
    Entries outside ``[bounds[0], bounds[-1])`` are dropped; the bounds
    ``(0, ncols)`` return ``mat`` itself.  Every panel keeps the full row
    frame, so ``panel.indptr[hi] - panel.indptr[lo]`` is the nonzero count
    of rows ``[lo, hi)`` in that panel — what the executor's mask pruning
    reads.
    """
    mat = mat.sort_indices()
    bounds = np.asarray(bounds, dtype=INDEX_DTYPE)
    npanels = bounds.size - 1
    if npanels == 1 and bounds[0] == 0 and bounds[1] == mat.ncols:
        return [mat]
    rows = mat.row_ids()
    panel = np.searchsorted(bounds, mat.indices, side="right") - 1
    order = np.argsort(panel, kind="stable")
    cuts = np.searchsorted(panel[order], np.arange(npanels + 1))
    out: List[CSR] = []
    for k in range(npanels):
        idx = order[cuts[k] : cuts[k + 1]]
        indptr = np.zeros(mat.nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(rows[idx], minlength=mat.nrows), out=indptr[1:])
        out.append(
            CSR(
                (mat.nrows, int(bounds[k + 1] - bounds[k])),
                indptr,
                mat.indices[idx] - bounds[k],
                mat.data[idx],
                sorted_indices=True,
                check=False,
            )
        )
    return out


def restrict_columns(mat: CSR, lo: int, hi: int) -> CSR:
    """Columns ``[lo, hi)`` of ``mat`` as a narrow CSR of width ``hi-lo``."""
    return split_columns(mat, (lo, hi))[0]
