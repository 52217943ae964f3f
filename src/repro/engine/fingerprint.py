"""Content fingerprints of CSR operands.

A :class:`Fingerprint` names an operand by its bytes: a blake2b digest
over its structure and one over its values, so a new object with equal
bytes has the same fingerprint and an operand written to in place does
not.  Nothing in a call reads one; :func:`fingerprint_csr` is the cost of
keying work on operand content, timed by the benchmark ladder's
``engine.fingerprint_s`` rung.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..sparse import CSR

__all__ = ["Fingerprint", "fingerprint_csr"]


@dataclass(frozen=True)
class Fingerprint:
    """Content identity of a CSR operand.

    ``structure`` digests ``(shape, sorted_indices, row counts, indices)``
    and ``values`` digests ``data``.  Equal fingerprints ⇒ equal bytes (up
    to digest collision, 128-bit blake2b — negligible).
    """

    shape: Tuple[int, int]
    nnz: int
    structure: str
    values: str


def fingerprint_csr(mat: CSR) -> Fingerprint:
    """Digest a CSR operand in one linear pass over its three arrays: one
    blake2b over ``(shape, sorted flag, row counts, indices)``, one over
    the value dtype and ``data``."""
    hs = hashlib.blake2b(digest_size=16)
    hs.update(f"{mat.shape[0]}x{mat.shape[1]}|{int(mat.sorted_indices)}".encode())
    hs.update(np.ascontiguousarray(np.diff(mat.indptr)))
    hs.update(np.ascontiguousarray(mat.indices))
    hv = hashlib.blake2b(mat.data.dtype.str.encode(), digest_size=16)
    hv.update(np.ascontiguousarray(mat.data))
    return Fingerprint(mat.shape, mat.nnz, hs.hexdigest(), hv.hexdigest())
