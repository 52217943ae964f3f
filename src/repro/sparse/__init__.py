"""Sparse-matrix substrate: CSR/CSC containers, element-wise ops, IO.

The paper works exclusively in CSR (CSC only for the pull-based inner
product); this subpackage provides those formats over raw NumPy arrays plus
the structural helpers the applications need (masking, triangular extraction,
degree-sorted relabeling lives in :mod:`repro.graphs.relabel`).
"""

from .csr import CSR
from .csc import CSC
from .ops import (
    apply_mask,
    ewise_add,
    ewise_mult,
    locate,
    mask_pattern,
    nnz_overlap,
    pattern_difference,
    pattern_intersection,
    pattern_union,
    reduce_sum,
    row_reduce,
)
from .io import load_npz, read_mtx, save_npz, write_mtx

__all__ = [
    "CSR",
    "CSC",
    "apply_mask",
    "ewise_add",
    "ewise_mult",
    "locate",
    "mask_pattern",
    "nnz_overlap",
    "pattern_difference",
    "pattern_intersection",
    "pattern_union",
    "reduce_sum",
    "row_reduce",
    "read_mtx",
    "write_mtx",
    "save_npz",
    "load_npz",
]
