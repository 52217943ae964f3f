"""Row partitioners for the process backend.

The paper parallelizes across output rows with OpenMP (Section 3: "plenty of
coarse-grained parallelism across rows").  The process backend cuts a band's
rows into parts for its pool workers with :func:`balanced_partition`:
contiguous blocks balanced by a per-row weight (flops per row), the standard
prefix-sum splitting used when static scheduling must fight skewed row
costs; when every weight is zero the blocks are of about equal row count.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["balanced_partition"]


def balanced_partition(weights: np.ndarray, n_parts: int) -> List[np.ndarray]:
    """Contiguous blocks with ~equal total weight (prefix-sum splitting), or
    of ~equal row count when every weight is zero."""
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    prefix = np.concatenate(([0.0], np.cumsum(w)))
    total = prefix[-1]
    if total <= 0:
        bounds = np.linspace(0, n, n_parts + 1).astype(np.int64)
    else:
        targets = np.linspace(0, total, n_parts + 1)
        cuts = np.searchsorted(prefix, targets[1:-1], side="left")
        bounds = np.concatenate(([0], cuts, [n])).astype(np.int64)
        bounds = np.maximum.accumulate(bounds)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(n_parts)]
