"""Sparse deep neural network inference with masked SpGEMM.

The MIT/GraphChallenge Sparse DNN benchmark drives layered sparse
matrix products: activations ``Y`` (batch x neurons, sparse) flow through
sparse weight layers ``W_l`` as

    Y <- ReLU(Y @ W_l + bias_l)

Masked SpGEMM gives this pipeline a *budgeted* variant: keeping only the
top-k activations per sample (activation sparsification, standard in
sparse-DNN inference) means the next layer's product needs only those
output columns — which is a masked product whose mask is the surviving
activation pattern's reachable set.  This module implements:

* :func:`sparse_dnn_forward` — exact layered inference (plain SpGEMM),
* :func:`sparse_dnn_forward_topk` — per-layer top-k sparsified inference
  where each layer is computed through :func:`repro.core.masked_spgemm`
  with the candidate mask built from the surviving activations,
* :func:`random_sparse_dnn` — a synthetic RadiX-net-style network.

It is an extension application in the spirit of the paper's intro (masked
SpGEMM beyond graph analytics), with the exact variant as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..engine import resolve_session
from ..machine import OpCounter
from ..semiring import PLUS_TIMES
from ..sparse import CSR
from ..core import masked_spgemm, spgemm_saxpy_fast

__all__ = [
    "SparseDNN",
    "random_sparse_dnn",
    "sparse_dnn_forward",
    "sparse_dnn_forward_topk",
    "DNNResult",
]


@dataclass
class SparseDNN:
    """A layered sparse network: weights[l] is (neurons x neurons) CSR."""

    weights: List[CSR]
    biases: List[float]

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def neurons(self) -> int:
        return self.weights[0].nrows

    def validate(self) -> "SparseDNN":
        if len(self.biases) != len(self.weights):
            raise ValueError("one bias per layer required")
        n = self.neurons
        for w in self.weights:
            if w.shape != (n, n):
                raise ValueError("all layers must be square and same size")
        return self


def random_sparse_dnn(
    neurons: int = 1024,
    depth: int = 4,
    fan_in: int = 16,
    bias: float = -0.3,
    seed: int = 0,
) -> SparseDNN:
    """A synthetic sparse network: every neuron reads ``fan_in`` random
    inputs with positive-skewed weights; a negative bias induces activation
    sparsity through ReLU (the GraphChallenge recipe)."""
    rng = np.random.default_rng(seed)
    weights = []
    for _l in range(depth):
        rows = np.repeat(np.arange(neurons), fan_in)
        cols = rng.integers(0, neurons, size=neurons * fan_in)
        vals = rng.normal(0.25, 0.5, size=neurons * fan_in)
        weights.append(CSR.from_coo((neurons, neurons), rows, cols, vals))
    return SparseDNN(weights, [bias] * depth).validate()


@dataclass
class DNNResult:
    """Final activations + per-layer statistics."""

    activations: CSR
    nnz_per_layer: List[int] = field(default_factory=list)
    flops: int = 0
    counter: OpCounter = field(default_factory=OpCounter)


def _relu_bias(y: CSR, bias: float) -> CSR:
    out = y.copy()
    out.data[:] = np.maximum(0.0, out.data + bias)
    return out.drop_zeros()


def sparse_dnn_forward(
    net: SparseDNN,
    x: CSR,
    *,
    counter: Optional[OpCounter] = None,
) -> DNNResult:
    """Exact layered inference: ``Y <- ReLU(Y @ W_l + bias)`` per layer.

    The bias is applied only to positions with a stored value (sparse-DNN
    convention: inactive neurons stay inactive)."""
    counter = counter if counter is not None else OpCounter()
    y = x
    nnzs = []
    for w, b in zip(net.weights, net.biases):
        y = spgemm_saxpy_fast(y, w, counter=counter)
        y = _relu_bias(y, b)
        nnzs.append(y.nnz)
    return DNNResult(activations=y, nnz_per_layer=nnzs,
                     flops=counter.flops, counter=counter)


def _topk_rows(y: CSR, k: int) -> CSR:
    """Keep the k largest activations per row."""
    rows_out = []
    cols_out = []
    vals_out = []
    for i in range(y.nrows):
        cols, vals = y.row(i)
        if cols.shape[0] > k:
            part = np.argpartition(-vals, k - 1)[:k]
            cols, vals = cols[part], vals[part]
        rows_out.append(np.full(cols.shape[0], i, dtype=np.int64))
        cols_out.append(cols)
        vals_out.append(vals)
    return CSR.from_coo(
        y.shape,
        np.concatenate(rows_out) if rows_out else np.empty(0, np.int64),
        np.concatenate(cols_out) if cols_out else np.empty(0, np.int64),
        np.concatenate(vals_out) if vals_out else np.empty(0),
    )


def sparse_dnn_forward_topk(
    net: SparseDNN,
    x: CSR,
    *,
    top_k: int = 32,
    algo: str = "auto",
    counter: Optional[OpCounter] = None,
    session=None,
    delta="auto",
) -> DNNResult:
    """Budgeted inference: after each layer keep only the top-k activations
    per sample, and compute the next layer as a *masked* product restricted
    to the columns reachable from the survivors.

    The candidate mask for layer ``l`` is ``pattern(Y_sparse @ pattern(W_l))``
    — exactly the reachable output positions — built with a cheap boolean
    product on the already-sparsified ``Y``; the masked numeric product then
    prices only those positions.  With ``top_k >= max row nnz`` this equals
    the exact forward pass.

    The weight layers are constant across batches, so a long-lived
    ``session`` (an :class:`~repro.engine.ExecutionSession`; default:
    loop-local for ``algo="auto"``, ``False`` disables) keeps their
    published segments warm across process-backend calls.  ``delta``
    (default ``"auto"``; ignored without a session) threads the layers
    through the incremental engine — per-layer operands change
    wholesale, so the first transition is priced, runs full and the
    engine stops tracking the problem (``docs/incremental.md``).
    """
    counter = counter if counter is not None else OpCounter()
    session, owned = resolve_session(session, auto=(algo == "auto"))
    y = x
    nnzs = []
    try:
        for w, b in zip(net.weights, net.biases):
            y = _topk_rows(y, top_k)
            # reachable output pattern of the sparsified activations
            mask = spgemm_saxpy_fast(y.pattern(), w.pattern()).pattern()
            y = masked_spgemm(y, w, mask, algo=algo, semiring=PLUS_TIMES,
                              counter=counter, session=session,
                              delta=delta if session is not None else None)
            y = _relu_bias(y, b)
            nnzs.append(y.nnz)
    finally:
        if owned and session is not None:
            session.close()
    return DNNResult(activations=y, nnz_per_layer=nnzs,
                     flops=counter.flops, counter=counter)
