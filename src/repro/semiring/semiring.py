"""GraphBLAS-style semirings.

The paper (Section 2) notes that graph algorithms run Masked SpGEMM over
various semirings; the algorithm descriptions use the arithmetic semiring for
simplicity, and we do the same, but every kernel in :mod:`repro.core`
accepts any :class:`Semiring`.  The applications use:

* Triangle Counting — ``PLUS_PAIR`` (each matched pair contributes 1).
* k-truss — ``PLUS_PAIR`` on the pruned adjacency structure.
* Betweenness Centrality — ``PLUS_TIMES`` (path-count accumulation).
* BFS — ``MIN_FIRST`` / ``ANY_PAIR``-style traversal.

A semiring bundles a commutative, associative *add* monoid (with identity)
and a *multiply* operator.  The kernels use the scalar callables for the
reference implementations and the NumPy ufunc counterparts in the
vectorized fast paths.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Semiring",
    "PLUS_TIMES",
    "PLUS_PAIR",
    "PLUS_AND",
    "MIN_PLUS",
    "MAX_TIMES",
    "OR_AND",
    "MIN_FIRST",
    "PLUS_FIRST",
    "PLUS_SECOND",
    "STANDARD_SEMIRINGS",
]


@dataclass(frozen=True)
class Semiring:
    """A semiring ``(add, add_identity, mult)``.

    Attributes
    ----------
    name:
        Display name, e.g. ``"plus_times"``.
    add:
        Scalar binary addition ``(x, y) -> x (+) y``.
    mult:
        Scalar binary multiplication ``(a, b) -> a (x) b``.
    add_identity:
        The identity of the add monoid (the "zero").
    add_ufunc / mult_ufunc:
        Vectorized counterparts.  ``add_ufunc`` must support ``.at`` and
        ``.reduceat`` for the fast kernels; ``mult_ufunc`` is applied
        elementwise to aligned arrays.
    """

    name: str
    add: Callable[[float, float], float]
    mult: Callable[[float, float], float]
    add_identity: float = 0.0
    add_ufunc: np.ufunc = field(default=np.add)
    mult_ufunc: Callable = field(default=np.multiply)

    def multiply(self, a, b):
        """Scalar semiring multiply."""
        return self.mult(a, b)

    def plus(self, x, y):
        """Scalar semiring add."""
        return self.add(x, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name})"


def _pair(a, b):
    """GraphBLAS PAIR operator: 1 whenever both operands exist."""
    return 1.0


def _pair_ufunc(a, b):
    return np.ones(np.broadcast(a, b).shape, dtype=np.float64)


def _first(a, b):
    return a


def _first_ufunc(a, b):
    return np.broadcast_arrays(a, b)[0].astype(np.float64, copy=True)


def _second(a, b):
    return b


def _second_ufunc(a, b):
    return np.broadcast_arrays(a, b)[1].astype(np.float64, copy=True)


def _and(a, b):
    return float(bool(a) and bool(b))


def _and_ufunc(a, b):
    return np.logical_and(a, b).astype(np.float64)


# ``+`` and ``*`` are ``operator.add`` / ``operator.mul``, not lambdas: CPython
# specialises a lambda's ``x + y`` for floats and de-specialises it once a NumPy
# scalar passes through, and the two paths add two NaNs of opposite sign in
# opposite operand order -- the sign bit of a NaN sum would depend on what the
# process ran before.
PLUS_TIMES = Semiring("plus_times", operator.add, operator.mul)

PLUS_PAIR = Semiring(
    "plus_pair", operator.add, _pair, add_ufunc=np.add, mult_ufunc=_pair_ufunc
)

PLUS_AND = Semiring(
    "plus_and", operator.add, _and, add_ufunc=np.add, mult_ufunc=_and_ufunc
)

MIN_PLUS = Semiring(
    "min_plus",
    min,
    operator.add,
    add_identity=np.inf,
    add_ufunc=np.minimum,
    mult_ufunc=np.add,
)

MAX_TIMES = Semiring(
    "max_times",
    max,
    operator.mul,
    add_identity=-np.inf,
    add_ufunc=np.maximum,
    mult_ufunc=np.multiply,
)

OR_AND = Semiring(
    "or_and",
    lambda x, y: float(bool(x) or bool(y)),
    _and,
    add_ufunc=np.logical_or,
    mult_ufunc=_and_ufunc,
)

MIN_FIRST = Semiring(
    "min_first",
    min,
    _first,
    add_identity=np.inf,
    add_ufunc=np.minimum,
    mult_ufunc=_first_ufunc,
)

PLUS_FIRST = Semiring(
    "plus_first", operator.add, _first, add_ufunc=np.add, mult_ufunc=_first_ufunc
)

PLUS_SECOND = Semiring(
    "plus_second",
    operator.add,
    _second,
    add_ufunc=np.add,
    mult_ufunc=_second_ufunc,
)

STANDARD_SEMIRINGS = {
    s.name: s
    for s in (
        PLUS_TIMES,
        PLUS_PAIR,
        PLUS_AND,
        MIN_PLUS,
        MAX_TIMES,
        OR_AND,
        MIN_FIRST,
        PLUS_FIRST,
        PLUS_SECOND,
    )
}
