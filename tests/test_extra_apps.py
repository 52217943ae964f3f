"""Tests for the tree-based extreme multi-label inference extension (the
masked-SpGEMM use the paper's introduction cites as ref. [21])."""

import contextlib

import numpy as np
import pytest

from repro.apps import beam_search_inference, exhaustive_inference, random_label_tree
from repro.apps.tree_inference import LabelTree, _topk_per_row
from repro.core import masked_spgemm
from repro.core.kernels import native
from repro.graphs import erdos_renyi
from repro.machine import OpCounter
from repro.semiring import PLUS_TIMES
from repro.sparse import CSR, ewise_add, mask_pattern


def _beam_search_reference(tree, x, *, beam_width, top_k, algo, counter):
    """Beam search as it stood before its scores were read at the mask: the
    masked product, the mask entries it missed as explicit zeros, and their
    union -- kept here as the reference the shipped body is judged by."""
    batch = x.nrows

    def masked_scores(mask, level):
        s = masked_spgemm(x, tree.levels[level].transpose(), mask, algo=algo,
                          semiring=PLUS_TIMES, counter=counter)
        zeros = mask_pattern(mask, s, complement=True)
        zeros = CSR(zeros.shape, zeros.indptr, zeros.indices, np.zeros(zeros.nnz),
                    sorted_indices=zeros.sorted_indices, check=False)
        return ewise_add(s, zeros)

    beams = _topk_per_row(masked_scores(CSR.from_dense(np.ones((batch, tree.levels[0].nrows))), 0),
                          beam_width)
    for l in range(1, tree.depth):
        pairs = [(q, c) for q, (nodes, _) in enumerate(beams)
                 for p in nodes for c in tree.children[l - 1][int(p)]]
        rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        mask = CSR.from_coo((batch, tree.levels[l].nrows), rows, cols, np.ones(rows.shape[0]))
        beams = _topk_per_row(masked_scores(mask, l),
                              beam_width if l + 1 < tree.depth else top_k)
    labels = np.full((batch, top_k), -1, dtype=np.int64)
    vals = np.zeros((batch, top_k))
    for q, (cols, sc) in enumerate(beams):
        k = min(top_k, cols.shape[0])
        labels[q, :k], vals[q, :k] = cols[:k], sc[:k]
    return labels, vals


class TestLabelTree:
    def test_random_tree_shape(self):
        tree = random_label_tree(100, branching=3, depth=4, seed=1)
        assert tree.depth == 4
        assert [lvl.nrows for lvl in tree.levels] == [3, 9, 27, 81]
        assert tree.n_labels == 81
        tree.validate()

    def test_validate_rejects_bad_children(self):
        tree = random_label_tree(50, branching=2, depth=2, seed=2)
        tree.children[0][0] = np.array([0])  # drops a child
        with pytest.raises(ValueError, match="partition"):
            tree.validate()

    def test_validate_rejects_length_mismatch(self):
        tree = random_label_tree(50, branching=2, depth=3, seed=3)
        bad = LabelTree(tree.levels, tree.children[:1])
        with pytest.raises(ValueError, match="consecutive"):
            bad.validate()


class TestTreeInference:
    @pytest.fixture(scope="class")
    def setup(self):
        tree = random_label_tree(300, branching=4, depth=3, seed=7)
        x = erdos_renyi(12, 300, 20, seed=8)
        return tree, x

    def test_full_beam_equals_exhaustive(self, setup):
        tree, x = setup
        full = beam_search_inference(tree, x, beam_width=tree.n_labels, top_k=4)
        ex = exhaustive_inference(tree, x, top_k=4)
        assert np.allclose(full.scores, ex.scores)

    @pytest.mark.parametrize("algo", ["msa", "hash", "mca"])
    def test_algorithms_agree(self, algo, setup):
        tree, x = setup
        base = beam_search_inference(tree, x, beam_width=3, top_k=3, algo="msa")
        got = beam_search_inference(tree, x, beam_width=3, top_k=3, algo=algo)
        assert np.allclose(got.scores, base.scores)
        assert np.array_equal(got.labels, base.labels)

    @pytest.mark.parametrize("tier", ["native", "numpy"])
    @pytest.mark.parametrize("algo", ["auto", "msa", "inner", "hash", "mca"])
    def test_matches_the_reference_union(self, algo, tier, setup):
        """Scores read at the mask's entries give the labels, score bytes and
        counters of the product + explicit zeros + union they replace."""
        tree, x = setup
        for beam in (1, 4):
            c, ref_c = OpCounter(), OpCounter()
            with (native.disabled() if tier == "numpy" else contextlib.nullcontext()):
                got = beam_search_inference(tree, x, beam_width=beam, top_k=3,
                                            algo=algo, counter=c)
                labels, scores = _beam_search_reference(tree, x, beam_width=beam, top_k=3,
                                                        algo=algo, counter=ref_c)
            assert got.labels.tobytes() == labels.tobytes(), beam
            assert got.scores.tobytes() == scores.tobytes(), beam
            assert c.as_dict() == ref_c.as_dict(), beam

    def test_narrow_beam_saves_flops(self, setup):
        tree, x = setup
        narrow = beam_search_inference(tree, x, beam_width=2, top_k=3)
        wide = beam_search_inference(tree, x, beam_width=16, top_k=3)
        assert narrow.masked_flops < wide.masked_flops

    def test_exhaustive_bounds_every_beam(self, setup):
        """The exhaustive optimum upper-bounds any beam's best score.
        (Note: beam search is NOT monotone in beam width — a wider beam can
        evict a narrow beam's winning path — so only the exhaustive bound
        is a real invariant.)"""
        tree, x = setup
        ex = exhaustive_inference(tree, x, top_k=1)
        for width in (1, 2, 4, 16):
            res = beam_search_inference(tree, x, beam_width=width, top_k=1)
            assert np.all(res.scores[:, 0] <= ex.scores[:, 0] + 1e-12), width

    def test_recall_reasonable_at_small_beam(self, setup):
        tree, x = setup
        ex = exhaustive_inference(tree, x, top_k=3)
        res = beam_search_inference(tree, x, beam_width=4, top_k=3)
        recall = np.isin(res.labels, ex.labels).mean()
        assert recall > 0.5

    def test_labels_in_range(self, setup):
        tree, x = setup
        res = beam_search_inference(tree, x, beam_width=2, top_k=5)
        valid = res.labels[res.labels >= 0]
        assert valid.max(initial=0) < tree.n_labels
