"""Analytic memory-traffic formulas from Section 4 of the paper.

These reproduce, verbatim, the paper's asymptotic traffic analyses:

* Pull-based (inner-product) algorithm, Section 4.1::

      traffic = nnz(A) + nnz(M) * (1 + nnz(B)/n)

  (rows of A are reused; every mask nonzero triggers a cold fetch of a
  column of B of average length ``nnz(B)/n``).

* Push-based row-by-row algorithms, Section 4.2 — the three mask- and
  accumulator-independent access patterns::

      pattern 1 (read A rows, unit stride)      : O(nnz(A))
      pattern 2 (B row pointers, random)        : O(nnz(A) * L)
      pattern 3 (B rows, stanza reads)          : O(flops(AB))

  Patterns 4 (accumulator scatter) and 5 (output write) depend on the
  accumulator and are modeled in :mod:`repro.machine.cost_model`.

All quantities are in *words* (the paper's unit: one word per index or
value).  ``L`` is the number of words per cache line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSR

__all__ = [
    "flops_per_row",
    "pulls_per_row",
    "total_flops",
    "useful_flops_per_row",
    "pull_traffic_words",
    "push_common_traffic_words",
    "TrafficBreakdown",
]


def flops_per_row(a: CSR, b: CSR) -> np.ndarray:
    """``flops(A[i,:] @ B)`` for every row i: the number of scalar products a
    push-based algorithm evaluates *without* a mask.  (The paper counts one
    "flop" per multiply; we follow that convention.)"""
    return _row_sums(a, b.row_nnz()[a.indices])


def pulls_per_row(b: CSR, mask: CSR) -> np.ndarray:
    """``sum_{j in M[i,:]} nnz(B[:,j])`` for every row i: the (mask nonzero,
    B column entry) pairs the pull-based inner kernel fetches — the exact
    per-row form of Section 4.1's ``nnz(M) * nnz(B)/n`` expectation."""
    col_nnz = np.bincount(b.indices, minlength=b.ncols)
    return _row_sums(mask, col_nnz[mask.indices])


def _row_sums(mat: CSR, per_entry: np.ndarray) -> np.ndarray:
    """Per-row sums of one int64 per stored entry: exact, one ``reduceat``
    over the non-empty rows (whose entry ranges tile the array, so each
    segment ends where the next begins)."""
    out = np.zeros(mat.nrows, dtype=np.int64)
    starts = mat.indptr[:-1]
    nonempty = starts < mat.indptr[1:]
    if per_entry.shape[0]:
        out[nonempty] = np.add.reduceat(per_entry, starts[nonempty])
    return out


def total_flops(a: CSR, b: CSR) -> int:
    """``flops(AB)`` — scalar multiplications of the unmasked product."""
    return int(flops_per_row(a, b).sum())


def useful_flops_per_row(a: CSR, b: CSR, mask: CSR) -> np.ndarray:
    """Scalar products that land on an *unmasked* output position — the
    irreducible work any correct masked algorithm must perform.

    Computed exactly via a boolean SpGEMM restricted to the mask pattern.
    Cost is O(flops(AB)); used by benches for GFLOPS-style metrics.
    """
    out = np.zeros(a.nrows, dtype=np.int64)
    n = mask.ncols
    allowed = np.zeros(n, dtype=bool)
    for i in range(a.nrows):
        mcols, _ = mask.row(i)
        if mcols.shape[0] == 0:
            continue
        allowed[mcols] = True
        acols, _ = a.row(i)
        cnt = 0
        for k in acols:
            bcols, _ = b.row(int(k))
            cnt += int(allowed[bcols].sum())
        out[i] = cnt
        allowed[mcols] = False
    return out


@dataclass(frozen=True)
class TrafficBreakdown:
    """Words moved, split by the paper's access patterns."""

    read_inputs: float
    row_pointers: float
    stanza_reads: float
    accumulator: float
    output_write: float

    @property
    def total(self) -> float:
        return (
            self.read_inputs
            + self.row_pointers
            + self.stanza_reads
            + self.accumulator
            + self.output_write
        )


def pull_traffic_words(a: CSR, b: CSR, mask: CSR) -> float:
    """Section 4.1 traffic of the inner-product algorithm, in words."""
    n = b.ncols if b.ncols else 1
    return float(a.nnz + mask.nnz * (1.0 + b.nnz / n))


def push_common_traffic_words(a: CSR, b: CSR, line_words: int = 8) -> TrafficBreakdown:
    """Section 4.2 traffic common to all push-based algorithms (patterns
    1-3).  Accumulator and output terms are zero here; the cost model adds
    them per algorithm."""
    fl = total_flops(a, b)
    return TrafficBreakdown(
        read_inputs=float(2 * a.nnz),  # indices + values
        row_pointers=float(a.nnz * line_words),
        stanza_reads=float(2 * fl),
        accumulator=0.0,
        output_write=0.0,
    )
