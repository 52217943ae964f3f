"""Unit tests for element-wise / structural sparse operations."""

import numpy as np
import pytest

from repro.sparse import (
    CSC,
    CSR,
    ewise_add,
    ewise_mult,
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


class TestDCSR:
    def test_roundtrip(self):
        from repro.sparse import DCSR

        a = random_csr(50, 40, 2, seed=30)
        d = DCSR.from_csr(a)
        assert_csr_equal(d.to_csr(), a)

    def test_hypersparse_storage_win(self):
        from repro.sparse import DCSR

        # 10 nonzeros in a 100000-row matrix
        a = CSR.from_coo(
            (100000, 100),
            np.arange(0, 100000, 10000),
            np.arange(10),
            np.ones(10),
        )
        d = DCSR.from_csr(a)
        assert d.is_hypersparse()
        assert d.nzr == 10
        csr_words = a.nrows + 1 + 2 * a.nnz
        assert d.storage_words() < csr_words / 1000

    def test_row_lookup(self):
        from repro.sparse import DCSR

        a = random_csr(30, 30, 2, seed=31)
        d = DCSR.from_csr(a)
        for i in range(30):
            c1, v1 = a.sort_indices().row(i)
            c2, v2 = d.row(i)
            assert np.array_equal(c1, c2)
            assert np.array_equal(v1, v2)

    def test_iter_nonempty_skips_empty(self):
        from repro.sparse import DCSR

        a = CSR.from_coo((10, 10), [2, 7], [1, 3], [1.0, 2.0])
        d = DCSR.from_csr(a)
        visited = [i for i, _, _ in d.iter_nonempty_rows()]
        assert visited == [2, 7]

    def test_check_rejects_malformed(self):
        from repro.sparse import DCSR

        with pytest.raises(ValueError, match="strictly increasing"):
            DCSR((5, 5), np.array([2, 1]), np.array([0, 1, 2]),
                 np.array([0, 1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="nonempty"):
            DCSR((5, 5), np.array([1, 2]), np.array([0, 0, 1]),
                 np.array([0]), np.array([1.0]))

    def test_empty_matrix(self):
        from repro.sparse import DCSR

        d = DCSR.from_csr(CSR.empty((5, 5)))
        assert d.nzr == 0 and d.nnz == 0
        assert d.to_csr().nnz == 0


class TestDCSREdgeCases:
    """Round-trip and ``check()`` edge cases for the shard storage tier."""

    def test_sorted_input_shares_arrays(self):
        from repro.sparse import DCSR

        a = random_csr(40, 30, 3, seed=40).sort_indices()
        d = DCSR.from_csr(a)
        # the sorted fast path must not copy the payload arrays
        assert d.indices is a.indices
        assert d.data is a.data
        assert_csr_equal(d.to_csr(), a)

    def test_unsorted_input_canonicalises(self):
        from repro.sparse import DCSR

        a = CSR.from_coo((4, 4), [1, 1, 3], [3, 0, 2], [1.0, 2.0, 3.0])
        d = DCSR.from_csr(a)
        assert_csr_equal(d.to_csr(), a.sort_indices())

    def test_zero_row_matrix(self):
        from repro.sparse import DCSR

        d = DCSR.from_csr(CSR.empty((0, 7)))
        assert d.nzr == 0 and d.to_csr().shape == (0, 7)

    def test_single_hypersparse_row(self):
        from repro.sparse import DCSR

        a = CSR.from_coo((10000, 4), [9999], [2], [5.0])
        d = DCSR.from_csr(a)
        assert d.nzr == 1 and d.is_hypersparse()
        cols, vals = d.row(9999)
        assert np.array_equal(cols, [2]) and np.array_equal(vals, [5.0])
        cols, vals = d.row(0)  # absent row: empty, not an error
        assert cols.size == 0 and vals.size == 0
        assert_csr_equal(d.to_csr(), a)

    def test_check_rejects_bad_indptr_and_indices(self):
        from repro.sparse import DCSR

        with pytest.raises(ValueError, match="nzr \\+ 1"):
            DCSR((5, 5), np.array([1]), np.array([0]), np.array([0]),
                 np.array([1.0]))
        with pytest.raises(ValueError, match="row id out of range"):
            DCSR((5, 5), np.array([5]), np.array([0, 1]), np.array([0]),
                 np.array([1.0]))
        with pytest.raises(ValueError, match=r"span \[0, nnz\]"):
            DCSR((5, 5), np.array([1]), np.array([0, 2]), np.array([0]),
                 np.array([1.0]))
        with pytest.raises(ValueError, match="column index out of range"):
            DCSR((5, 5), np.array([1]), np.array([0, 1]), np.array([5]),
                 np.array([1.0]))
