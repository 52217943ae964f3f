"""Tree-based extreme multi-label inference via masked SpGEMM.

The paper's introduction cites Etter et al. [21] ("Accelerating inference
for sparse extreme multi-label ranking trees") as a masked-SpGEMM
application beyond graph analytics.  The computation: a *probabilistic
label tree* (PLT) ranks a huge label set by beam search — each tree level
holds a weight matrix ``W_l`` (rows = tree nodes at level l, columns =
features), queries are sparse feature vectors ``X`` (batch x features),
and level ``l`` scores only the *children of the current beam*:

    S_l = M_l .* (X @ W_l^T)

where the mask ``M_l`` (batch x nodes_l) holds exactly the beam-children
pairs.  The beam keeps the top-``beam_width`` scoring nodes per query and
descends.  The mask is what makes this fast: without it, every query would
score every node at every level.

This module implements the PLT structure, the beam-search inference on top
of :func:`repro.core.masked_spgemm.masked_values` (each level's scores read
at its mask's entries), and an unmasked ("score everything")
reference for validation/benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..machine import OpCounter
from ..semiring import PLUS_TIMES
from ..sparse import CSR
from ..core.masked_spgemm import masked_values

__all__ = ["LabelTree", "beam_search_inference", "exhaustive_inference",
           "random_label_tree", "InferenceResult"]


@dataclass
class LabelTree:
    """A probabilistic label tree.

    ``levels[l]`` is the weight matrix of level ``l`` as CSR with shape
    ``(n_nodes_l, n_features)``; ``children[l][p]`` lists the level-``l+1``
    node ids under node ``p`` of level ``l``.  Level 0 is the root level
    (often a handful of coarse clusters); the last level's nodes are the
    labels themselves.
    """

    levels: List[CSR]
    children: List[List[np.ndarray]]

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def n_labels(self) -> int:
        return self.levels[-1].nrows

    def validate(self) -> "LabelTree":
        if len(self.children) != len(self.levels) - 1:
            raise ValueError("children must link consecutive levels")
        for l, kids in enumerate(self.children):
            if len(kids) != self.levels[l].nrows:
                raise ValueError(f"level {l}: children list length mismatch")
            seen = np.concatenate([k for k in kids]) if kids else np.empty(0)
            n_next = self.levels[l + 1].nrows
            if seen.shape[0] != n_next or np.unique(seen).shape[0] != n_next:
                raise ValueError(
                    f"level {l}: children must partition level {l + 1}"
                )
        return self


def random_label_tree(
    n_features: int,
    branching: int = 8,
    depth: int = 3,
    nnz_per_node: int = 12,
    seed: int = 0,
) -> LabelTree:
    """A synthetic PLT with ``branching**(l+1)`` nodes at level ``l``.

    Built bottom-up like a real probabilistic label tree: leaf (label)
    weight rows are sparse random vectors, and every internal node's row is
    the (sparsified) mean of its children's rows — so a parent's score
    predicts its subtree's scores and beam search is informative.
    """
    rng = np.random.default_rng(seed)
    children: List[List[np.ndarray]] = []
    # leaf level
    n_leaves = branching**depth
    rows = np.repeat(np.arange(n_leaves), nnz_per_node)
    cols = rng.integers(0, n_features, size=n_leaves * nnz_per_node)
    vals = rng.normal(size=n_leaves * nnz_per_node)
    leaf = CSR.from_coo((n_leaves, n_features), rows, cols, vals)
    levels = [leaf]
    # internal levels: parent row = mean of children rows, truncated to the
    # heaviest nnz_per_node entries (a sparsified subtree summary)
    cur = leaf
    for l in range(depth - 1, 0, -1):
        n_nodes = branching**l
        kid_ids = np.arange(n_nodes * branching).reshape(n_nodes, branching)
        p_rows: List[int] = []
        p_cols: List[int] = []
        p_vals: List[float] = []
        for p in range(n_nodes):
            acc: dict = {}
            for c in kid_ids[p]:
                ccols, cvals = cur.row(int(c))
                for j, v in zip(ccols, cvals):
                    acc[int(j)] = acc.get(int(j), 0.0) + float(v) / branching
            top = sorted(acc.items(), key=lambda kv: -abs(kv[1]))
            for j, v in top[: nnz_per_node * 2]:
                p_rows.append(p)
                p_cols.append(j)
                p_vals.append(v)
        parent = CSR.from_coo(
            (n_nodes, n_features),
            np.asarray(p_rows, dtype=np.int64),
            np.asarray(p_cols, dtype=np.int64),
            np.asarray(p_vals),
        )
        levels.insert(0, parent)
        children.insert(0, [kid_ids[p] for p in range(n_nodes)])
        cur = parent
    return LabelTree(levels, children).validate()


@dataclass
class InferenceResult:
    """Top-k labels and scores per query, plus work statistics."""

    labels: np.ndarray  #: (batch, k) label ids (-1 padding)
    scores: np.ndarray  #: (batch, k) scores
    masked_flops: int = 0
    counter: OpCounter = field(default_factory=OpCounter)


def _topk_per_row(scores: CSR, k: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Top-k (indices, values) of each row of a CSR score matrix."""
    out = []
    for i in range(scores.nrows):
        cols, vals = scores.row(i)
        if cols.shape[0] <= k:
            order = np.argsort(-vals, kind="stable")
        else:
            part = np.argpartition(-vals, k - 1)[:k]
            order = part[np.argsort(-vals[part], kind="stable")]
        out.append((cols[order], vals[order]))
    return out


def beam_search_inference(
    tree: LabelTree,
    x: CSR,
    *,
    beam_width: int = 4,
    top_k: int = 5,
    algo: str = "auto",
    counter: Optional[OpCounter] = None,
) -> InferenceResult:
    """Masked-SpGEMM beam search over the label tree.

    At each level the mask contains, for every query, exactly the children
    of its current beam nodes, so the masked product prices only
    ``batch * beam * branching`` dot products instead of
    ``batch * n_nodes``.
    """
    counter = counter if counter is not None else OpCounter()
    batch = x.nrows

    def masked_scores(mask: CSR, level: int) -> CSR:
        """The masked product read at every mask candidate: one the product
        missed (no shared features) scores 0 and must stay rankable (it may
        beat negative scores)."""
        wt = tree.levels[level].transpose()  # features x nodes
        vals = masked_values(x, wt, mask, algo=algo, semiring=PLUS_TIMES,
                             counter=counter)
        return CSR(mask.shape, mask.indptr, mask.indices, vals)

    # level 0: beam over all root nodes (scored exhaustively — tiny)
    full_mask = CSR.from_dense(np.ones((batch, tree.levels[0].nrows)))
    scores = masked_scores(full_mask, 0)
    beams = _topk_per_row(scores, beam_width)

    for l in range(1, tree.depth):
        kids = tree.children[l - 1]
        m_rows: List[int] = []
        m_cols: List[int] = []
        for q in range(batch):
            beam_nodes, _ = beams[q]
            for p in beam_nodes:
                ch = kids[int(p)]
                m_rows.extend([q] * len(ch))
                m_cols.extend(ch.tolist())
        n_nodes = tree.levels[l].nrows
        mask = CSR.from_coo(
            (batch, n_nodes),
            np.asarray(m_rows, dtype=np.int64),
            np.asarray(m_cols, dtype=np.int64),
            np.ones(len(m_rows)),
        )
        scores = masked_scores(mask, l)
        width = beam_width if l + 1 < tree.depth else top_k
        beams = _topk_per_row(scores, width)

    labels = np.full((batch, top_k), -1, dtype=np.int64)
    vals = np.zeros((batch, top_k))
    for q, (cols, sc) in enumerate(beams):
        k = min(top_k, cols.shape[0])
        labels[q, :k] = cols[:k]
        vals[q, :k] = sc[:k]
    return InferenceResult(labels=labels, scores=vals,
                           masked_flops=counter.flops, counter=counter)


def exhaustive_inference(
    tree: LabelTree,
    x: CSR,
    *,
    top_k: int = 5,
    counter: Optional[OpCounter] = None,
) -> InferenceResult:
    """Reference: score every leaf label with a full (unmasked) product."""
    counter = counter if counter is not None else OpCounter()
    from ..core import spgemm_saxpy_fast

    wt = tree.levels[-1].transpose()
    scores = spgemm_saxpy_fast(x, wt, counter=counter)
    # rank over ALL labels (implicit zeros included) — a label the query
    # shares no features with scores 0, which outranks negative scores
    dense = scores.to_dense()
    labels = np.full((x.nrows, top_k), -1, dtype=np.int64)
    vals = np.zeros((x.nrows, top_k))
    for q in range(x.nrows):
        row = dense[q]
        part = np.argpartition(-row, min(top_k, row.shape[0]) - 1)[:top_k]
        order = part[np.argsort(-row[part], kind="stable")]
        order = order[np.argsort(-row[order], kind="stable")]
        labels[q, : order.shape[0]] = order
        vals[q, : order.shape[0]] = row[order]
    return InferenceResult(labels=labels, scores=vals,
                           masked_flops=counter.flops, counter=counter)
