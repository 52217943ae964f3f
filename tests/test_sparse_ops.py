"""Unit tests for element-wise / structural sparse operations."""

import contextlib

import numpy as np
import pytest

from repro.core.kernels import native
from repro.sparse import (
    CSC,
    CSR,
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

from .conftest import assert_csr_equal, random_csr


class TestEwiseMult:
    def test_matches_scipy(self):
        a = random_csr(20, 15, 4, seed=1)
        b = random_csr(20, 15, 4, seed=2)
        want = CSR.from_scipy(a.to_scipy().multiply(b.to_scipy()).tocsr())
        assert_csr_equal(ewise_mult(a, b), want)

    def test_disjoint_patterns_empty(self):
        a = CSR.from_coo((2, 2), [0], [0], [1.0])
        b = CSR.from_coo((2, 2), [1], [1], [1.0])
        assert ewise_mult(a, b).nnz == 0

    def test_custom_op(self):
        a = CSR.from_coo((1, 2), [0, 0], [0, 1], [5.0, 2.0])
        b = CSR.from_coo((1, 2), [0, 0], [0, 1], [3.0, 7.0])
        m = ewise_mult(a, b, op=np.maximum)
        assert np.array_equal(m.data, [5.0, 7.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ewise_mult(CSR.empty((2, 2)), CSR.empty((2, 3)))

    def test_empty_operand(self):
        a = random_csr(5, 5, 2, seed=3)
        assert ewise_mult(a, CSR.empty((5, 5))).nnz == 0
        assert ewise_mult(CSR.empty((5, 5)), a).nnz == 0


class TestEwiseAdd:
    def test_matches_scipy(self):
        a = random_csr(20, 15, 4, seed=4)
        b = random_csr(20, 15, 4, seed=5)
        want = CSR.from_scipy((a.to_scipy() + b.to_scipy()).tocsr())
        assert_csr_equal(ewise_add(a, b), want)

    def test_generic_op_union_semantics(self):
        a = CSR.from_coo((1, 3), [0, 0], [0, 1], [2.0, 3.0])
        b = CSR.from_coo((1, 3), [0, 0], [1, 2], [10.0, 4.0])
        m = ewise_add(a, b, op=np.maximum)
        assert np.array_equal(m.to_dense(), [[2.0, 10.0, 4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ewise_add(CSR.empty((2, 2)), CSR.empty((3, 2)))


class TestMaskPattern:
    def test_keeps_only_masked(self):
        a = random_csr(15, 15, 4, seed=6)
        m = random_csr(15, 15, 4, seed=7)
        kept = mask_pattern(a, m)
        want = CSR.from_scipy(a.to_scipy().multiply(m.pattern().to_scipy()).tocsr())
        assert_csr_equal(kept, want)

    def test_mask_values_ignored(self):
        a = CSR.from_coo((1, 2), [0, 0], [0, 1], [3.0, 4.0])
        m = CSR.from_coo((1, 2), [0], [1], [99.0])
        kept = mask_pattern(a, m)
        assert kept.nnz == 1
        assert kept.to_dense()[0, 1] == 4.0

    def test_complement_partition(self):
        """mask(X, M) + mask(X, !M) == X — the complement identity."""
        a = random_csr(20, 20, 5, seed=8)
        m = random_csr(20, 20, 5, seed=9)
        inside = mask_pattern(a, m)
        outside = mask_pattern(a, m, complement=True)
        assert inside.nnz + outside.nnz == a.nnz
        assert_csr_equal(ewise_add(inside, outside), a)

    def test_empty_mask_complement_keeps_all(self):
        a = random_csr(6, 6, 2, seed=10)
        assert_csr_equal(mask_pattern(a, CSR.empty((6, 6)), complement=True), a)

    def test_empty_mask_keeps_none(self):
        a = random_csr(6, 6, 2, seed=11)
        assert mask_pattern(a, CSR.empty((6, 6))).nnz == 0


class TestKeyOverflow:
    """Shapes whose row-major key ``row * ncols + col`` wraps an int64: with
    ``ncols = 2**62 + 1``, cell ``(4, 1)``'s key wraps onto ``(0, 5)``'s."""

    @pytest.mark.parametrize("tier", ["native", "numpy"])
    def test_entries_in_different_cells_never_match(self, tier):
        shape = (8, 2**62 + 1)
        a = CSR.from_coo(shape, [0, 3], [5, 9], [2.0, 1.0])
        b = CSR.from_coo(shape, [3, 4], [9, 1], [4.0, 3.0])
        with native.disabled() if tier == "numpy" else contextlib.nullcontext():
            assert ewise_mult(a, b).to_coo()[2].tolist() == [4.0]
            assert mask_pattern(a, b).indices.tolist() == [9]
            assert mask_pattern(a, b, complement=True).indices.tolist() == [5]
            assert ewise_add(a, b).data.tolist() == [2.0, 5.0, 3.0]
            assert locate(a, b).tolist() == [1, -1]


class TestReductions:
    def test_reduce_sum(self):
        a = random_csr(10, 10, 3, seed=12)
        assert reduce_sum(a) == pytest.approx(a.to_dense().sum())

    def test_row_reduce_add(self):
        a = random_csr(10, 10, 3, seed=13)
        assert np.allclose(row_reduce(a), a.to_dense().sum(axis=1))

    def test_row_reduce_empty(self):
        assert np.array_equal(row_reduce(CSR.empty((4, 4))), np.zeros(4))


class TestPatternSetOps:
    def test_union_intersection_difference_consistency(self):
        a = random_csr(18, 18, 4, seed=14)
        b = random_csr(18, 18, 4, seed=15)
        u = pattern_union(a, b)
        i = pattern_intersection(a, b)
        d_ab = pattern_difference(a, b)
        d_ba = pattern_difference(b, a)
        # |A u B| = |A| + |B| - |A n B|
        assert u.nnz == a.nnz + b.nnz - i.nnz
        # A = (A \ B) u (A n B)
        assert d_ab.nnz + i.nnz == a.nnz
        assert d_ba.nnz + i.nnz == b.nnz

    def test_nnz_overlap(self):
        a = CSR.from_coo((2, 2), [0, 1], [0, 1], [1.0, 1.0])
        b = CSR.from_coo((2, 2), [0, 1], [0, 0], [1.0, 1.0])
        assert nnz_overlap(a, b) == 1


class TestCSC:
    def test_from_csr_columns(self):
        a = random_csr(10, 7, 3, seed=16)
        c = CSC.from_csr(a)
        dense = a.to_dense()
        for j in range(7):
            rows, vals = c.col(j)
            col = np.zeros(10)
            col[rows] = vals
            assert np.allclose(col, dense[:, j])

    def test_roundtrip(self):
        a = random_csr(10, 7, 3, seed=17)
        assert_csr_equal(CSC.from_csr(a).to_csr(), a)

    def test_col_nnz(self):
        a = random_csr(10, 7, 3, seed=18)
        c = CSC.from_csr(a)
        assert np.array_equal(c.col_nnz(), (a.to_dense() != 0).sum(axis=0))

    def test_to_dense(self):
        a = random_csr(6, 5, 2, seed=19)
        assert np.allclose(CSC.from_csr(a).to_dense(), a.to_dense())

    def test_shape_validation(self):
        a = random_csr(4, 5, 2, seed=20)
        with pytest.raises(ValueError, match="incompatible"):
            CSC((5, 5), a)


def _hypersparse():
    """10 nonzeros spread over 100000 rows (a hypersparse matrix)."""
    return CSR.from_coo(
        (100000, 100), np.arange(0, 100000, 10000), np.arange(10), np.arange(1.0, 11.0)
    )


class TestDCSR:
    """The hypersparse cases the doubly-compressed format (deleted: nothing
    ran on it) was pinned on, held by CSR — the one row format,
    whose only cost there is its ``nrows + 1`` row pointer."""

    def test_roundtrip(self):
        a = random_csr(50, 40, 2, seed=30)
        h = _hypersparse()
        for m in (a, h):
            assert_csr_equal(CSR.from_coo(m.shape, *m.to_coo()), m)
            assert_csr_equal(m.transpose().transpose(), m)

    def test_hypersparse_storage_win(self):
        a = _hypersparse()
        # entries cost nnz words each; only the row pointer grows with nrows
        assert a.indices.size == a.data.size == a.nnz == 10
        assert a.indptr.size == a.nrows + 1
        # and the kernels run on it as on any operand
        from repro.baselines import scipy_masked_spgemm
        from repro.core import masked_spgemm

        rows, cols, _ = a.to_coo()
        b = CSR.from_coo((100, 100), np.arange(10), np.arange(10) + 1, np.ones(10))
        m = CSR.from_coo(a.shape, rows, cols + 1, np.ones(10))
        out = masked_spgemm(a, b, m, algo="msa")
        assert out.nnz == 10
        assert_csr_equal(out, scipy_masked_spgemm(a, b, m))

    def test_row_lookup(self):
        a = random_csr(30, 30, 2, seed=31).sort_indices()
        dense = a.to_dense()
        for i in range(30):
            cols, vals = a.row(i)
            assert np.array_equal(cols, np.flatnonzero(dense[i]))
            assert np.array_equal(vals, dense[i, cols])

    def test_iter_nonempty_skips_empty(self):
        a = CSR.from_coo((10, 10), [2, 7], [1, 3], [1.0, 2.0])
        assert np.flatnonzero(a.row_nnz()).tolist() == [2, 7]
        assert [i for i, cols, _ in a.iter_rows() if cols.size] == [2, 7]

    def test_check_rejects_malformed(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSR((3, 5), np.array([0, 2, 1, 2]), np.array([0, 1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            CSR((1, 5), np.array([0, 2]), np.array([1, 1]), np.array([1.0, 1.0]),
                sorted_indices=True)

    def test_empty_matrix(self):
        e = CSR.empty((5, 5))
        assert e.nnz == 0 and not e.row_nnz().any()
        assert e.transpose().nnz == 0


class TestDCSREdgeCases:
    """Round-trip and ``check()`` edge cases of those hypersparse shapes."""

    def test_sorted_input_shares_arrays(self):
        a = random_csr(40, 30, 3, seed=40).sort_indices()
        # the sorted fast path must not copy the payload arrays
        assert a.sort_indices() is a

    def test_unsorted_input_canonicalises(self):
        a = CSR((4, 4), np.array([0, 0, 2, 2, 3]), np.array([3, 0, 2]),
                np.array([1.0, 2.0, 3.0]))
        s = a.sort_indices()
        assert s.sorted_indices and s.indices.tolist() == [0, 3, 2]
        assert s.data.tolist() == [2.0, 1.0, 3.0]

    def test_zero_row_matrix(self):
        e = CSR.empty((0, 7))
        assert e.shape == (0, 7) and e.indptr.tolist() == [0]
        assert e.transpose().shape == (7, 0)

    def test_single_hypersparse_row(self):
        a = CSR.from_coo((10000, 4), [9999], [2], [5.0])
        cols, vals = a.row(9999)
        assert np.array_equal(cols, [2]) and np.array_equal(vals, [5.0])
        cols, vals = a.row(0)  # an empty row: empty, not an error
        assert cols.size == 0 and vals.size == 0
        assert_csr_equal(CSR.from_coo(a.shape, *a.to_coo()), a)

    def test_check_rejects_bad_indptr_and_indices(self):
        with pytest.raises(ValueError, match="wrong length"):
            CSR((5, 5), np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError, match="length mismatch"):
            CSR((1, 5), np.array([0, 2]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError, match="column index out of range"):
            CSR((1, 5), np.array([0, 1]), np.array([5]), np.array([1.0]))
