"""Row partitioners for the process backend.

The paper parallelizes across output rows with OpenMP (Section 3: "plenty of
coarse-grained parallelism across rows").  The process backend cuts the
rows into parts for its pool workers with :func:`balanced_partition`:
contiguous blocks balanced by a per-row weight (flops per row), the standard
prefix-sum splitting used when static scheduling must fight skewed row
costs; when every weight is zero the blocks are of about equal row count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["balanced_partition"]


def balanced_partition(weights: np.ndarray, n_parts: int) -> np.ndarray:
    """The ``n_parts + 1`` bounds of contiguous blocks with ~equal total
    weight (prefix-sum splitting), or of ~equal row count when every weight
    is zero: block ``p`` is rows ``[bounds[p], bounds[p + 1])``."""
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    prefix = np.concatenate(([0.0], np.cumsum(w)))
    total = prefix[-1]
    if total <= 0:
        return np.linspace(0, n, n_parts + 1).astype(np.int64)
    targets = np.linspace(0, total, n_parts + 1)
    cuts = np.searchsorted(prefix, targets[1:-1], side="left")
    return np.maximum.accumulate(np.concatenate(([0], cuts, [n])).astype(np.int64))
