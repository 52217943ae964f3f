"""Unit tests for the CSR container."""

import io

import numpy as np
import pytest

from repro.sparse import CSR, read_mtx, write_mtx

from .conftest import assert_csr_equal, random_csr


class TestConstruction:
    def test_empty(self):
        m = CSR.empty((3, 4))
        assert m.shape == (3, 4)
        assert m.nnz == 0
        assert m.to_dense().shape == (3, 4)
        assert not m.to_dense().any()

    def test_from_coo_basic(self):
        m = CSR.from_coo((2, 3), [0, 1, 1], [2, 0, 1], [1.0, 2.0, 3.0])
        dense = np.array([[0, 0, 1.0], [2.0, 3.0, 0]])
        assert np.array_equal(m.to_dense(), dense)
        assert m.sorted_indices

    def test_from_coo_sums_duplicates(self):
        m = CSR.from_coo((2, 2), [0, 0, 0], [1, 1, 1], [1.0, 2.0, 3.0])
        assert m.nnz == 1
        assert m.to_dense()[0, 1] == 6.0

    def test_from_coo_rejects_duplicates_when_asked(self):
        with pytest.raises(ValueError, match="duplicate"):
            CSR.from_coo((2, 2), [0, 0], [1, 1], [1.0, 2.0], sum_duplicates=False)

    def test_from_coo_default_values_are_ones(self):
        m = CSR.from_coo((2, 2), [0, 1], [0, 1])
        assert np.array_equal(m.data, [1.0, 1.0])

    def test_from_coo_bounds_check(self):
        with pytest.raises(ValueError, match="row index"):
            CSR.from_coo((2, 2), [2], [0], [1.0])
        with pytest.raises(ValueError, match="column index"):
            CSR.from_coo((2, 2), [0], [5], [1.0])

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        d = rng.random((7, 5))
        d[d < 0.6] = 0.0
        m = CSR.from_dense(d)
        assert np.allclose(m.to_dense(), d)

    def test_from_scipy_roundtrip(self):
        a = random_csr(20, 30, 3, seed=5)
        again = CSR.from_scipy(a.to_scipy())
        assert_csr_equal(again, a)

    def test_mismatched_coo_lengths(self):
        with pytest.raises(ValueError, match="identical shapes"):
            CSR.from_coo((2, 2), [0, 1], [0], [1.0, 2.0])


class TestValidation:
    def test_check_rejects_bad_indptr_length(self):
        with pytest.raises(ValueError, match="indptr"):
            CSR((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_check_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSR((2, 2), np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    def test_check_rejects_out_of_range_column(self):
        with pytest.raises(ValueError, match="column index"):
            CSR((2, 2), np.array([0, 1, 2]), np.array([0, 5]), np.array([1.0, 1.0]))

    def test_check_rejects_unsorted_when_claimed(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSR(
                (1, 4),
                np.array([0, 2]),
                np.array([2, 1]),
                np.array([1.0, 1.0]),
                sorted_indices=True,
            )

    def test_sorted_check_allows_row_boundaries(self):
        # row 0 ends with col 3, row 1 starts with col 0 — legal
        m = CSR(
            (2, 4),
            np.array([0, 2, 4]),
            np.array([1, 3, 0, 2]),
            np.ones(4),
            sorted_indices=True,
        )
        assert m.nnz == 4

    def test_sorted_check_with_empty_leading_rows(self):
        m = CSR(
            (3, 4),
            np.array([0, 0, 2, 2]),
            np.array([0, 2]),
            np.ones(2),
            sorted_indices=True,
        )
        assert m.row(0)[0].shape[0] == 0
        assert m.row(1)[0].shape[0] == 2


class TestAccessors:
    def test_row_views(self):
        m = CSR.from_coo((3, 5), [0, 0, 2], [1, 3, 4], [1.0, 2.0, 3.0])
        cols, vals = m.row(0)
        assert np.array_equal(cols, [1, 3])
        assert np.array_equal(vals, [1.0, 2.0])
        cols1, _ = m.row(1)
        assert cols1.shape[0] == 0

    def test_row_nnz(self):
        m = CSR.from_coo((3, 5), [0, 0, 2], [1, 3, 4], [1.0, 2.0, 3.0])
        assert np.array_equal(m.row_nnz(), [2, 0, 1])

    def test_iter_rows_covers_all(self):
        m = random_csr(10, 10, 3, seed=2)
        seen = 0
        for i, cols, vals in m.iter_rows():
            seen += cols.shape[0]
            assert cols.shape == vals.shape
        assert seen == m.nnz


class TestTransforms:
    def test_transpose_involution(self):
        a = random_csr(15, 25, 4, seed=7)
        assert_csr_equal(a.transpose().transpose(), a)

    def test_transpose_matches_scipy(self):
        a = random_csr(15, 25, 4, seed=8)
        assert_csr_equal(a.transpose(), CSR.from_scipy(a.to_scipy().T.tocsr()))

    def test_tril_triu_partition(self):
        a = random_csr(20, 20, 5, seed=9)
        low = a.tril(-1)
        up = a.triu(1)
        diag = a.tril(0).triu(0)
        assert low.nnz + up.nnz + diag.nnz == a.nnz

    def test_tril_matches_scipy(self):
        import scipy.sparse as sp

        a = random_csr(20, 20, 5, seed=10)
        assert_csr_equal(a.tril(-1), CSR.from_scipy(sp.tril(a.to_scipy(), -1).tocsr()))

    def test_pattern_sets_ones(self):
        a = random_csr(10, 10, 3, seed=11)
        p = a.pattern()
        assert p.nnz == a.nnz
        assert np.array_equal(p.data, np.ones(a.nnz))

    def test_drop_zeros(self):
        m = CSR.from_coo((2, 3), [0, 0, 1], [0, 1, 2], [0.0, 2.0, 0.0])
        d = m.drop_zeros()
        assert d.nnz == 1
        assert d.to_dense()[0, 1] == 2.0

    def test_permute_symmetric(self):
        a = random_csr(12, 12, 3, seed=12)
        perm = np.random.default_rng(0).permutation(12)
        p = a.permute(perm)
        da, dp = a.to_dense(), p.to_dense()
        assert np.allclose(dp, da[np.ix_(perm, perm)])

    def test_permute_identity(self):
        a = random_csr(9, 9, 3, seed=13)
        assert_csr_equal(a.permute(np.arange(9)), a)

    def test_permute_rejects_non_square(self):
        a = random_csr(4, 5, 2, seed=14)
        with pytest.raises(ValueError, match="square"):
            a.permute(np.arange(4))

    def test_permute_rejects_bad_perm(self):
        a = random_csr(4, 4, 2, seed=15)
        for bad in ([0, 0, 1, 2], [0, 1, 2, 4], [0, 1, 2, -1], [0, 1, 2], [0, 1, 2, 3, 3],
                    [[0, 1], [2, 3]]):
            with pytest.raises(ValueError, match="perm must be a permutation of range"):
                a.permute(np.array(bad))
        assert CSR.empty((0, 0)).permute(np.empty(0, dtype=np.int64)).shape == (0, 0)

    def test_select_rows(self):
        a = random_csr(10, 8, 3, seed=16)
        sel = a.select_rows(np.array([2, 5]))
        assert sel.shape == a.shape
        d = sel.to_dense()
        full = a.to_dense()
        assert np.allclose(d[2], full[2])
        assert np.allclose(d[5], full[5])
        others = [i for i in range(10) if i not in (2, 5)]
        assert not d[others].any()

    def test_select_rows_boolean_mask(self):
        a = random_csr(6, 6, 2, seed=17)
        mask = np.zeros(6, dtype=bool)
        mask[1] = True
        sel = a.select_rows(mask)
        assert sel.row_nnz()[1] == a.row_nnz()[1]
        assert sel.nnz == a.row_nnz()[1]

    def test_astype(self):
        a = random_csr(5, 5, 2, seed=18)
        b = a.astype(np.float32)
        assert b.data.dtype == np.float32

    def test_to_coo_roundtrip(self):
        a = random_csr(14, 9, 3, seed=19)
        rows, cols, vals = a.to_coo()
        again = CSR.from_coo(a.shape, rows, cols, vals)
        assert_csr_equal(again, a)


# ----------------------------------------------------------------------
# sort-free structural ops against their COO-round-trip predecessors
# ----------------------------------------------------------------------
def _from_coo_lexsort(shape, rows, cols, vals):
    """``CSR.from_coo`` as it was: lexsort, then sum duplicate runs."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            keep = np.concatenate(([True], ~dup))
            out = np.zeros(int(keep.sum()), dtype=vals.dtype)
            np.add.at(out, np.cumsum(keep) - 1, vals)
            rows, cols, vals = rows[keep], cols[keep], out
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSR(shape, indptr, cols, vals, sorted_indices=True, check=False)


def _tril_roundtrip(g, k):
    r, c, v = g.to_coo()
    keep = c - r <= k
    return _from_coo_lexsort(g.shape, r[keep], c[keep], v[keep])


def _triu_roundtrip(g, k):
    r, c, v = g.to_coo()
    keep = c - r >= k
    return _from_coo_lexsort(g.shape, r[keep], c[keep], v[keep])


def _drop_zeros_roundtrip(g, tol):
    keep = np.abs(g.data) > tol
    if keep.all():
        return g
    r, c, v = g.to_coo()
    return _from_coo_lexsort(g.shape, r[keep], c[keep], v[keep])


def _select_rows_roundtrip(g, sel):
    flag = np.zeros(g.nrows, dtype=bool)
    flag[sel] = True
    r, c, v = g.to_coo()
    keep = flag[r]
    return _from_coo_lexsort(g.shape, r[keep], c[keep], v[keep])


def _permute_roundtrip(g, perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.nrows)
    r, c, v = g.to_coo()
    return _from_coo_lexsort(g.shape, inv[r], inv[c], v)


def _assert_bitwise(got: CSR, want: CSR):
    assert got.shape == want.shape and got.sorted_indices
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


def _noncanonical(n, nnz, seed, dtype=np.float64):
    """Unsorted rows with duplicate coordinates (values sum in input order)."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, n, size=nnz))
    cols = rng.integers(0, n, size=nnz)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CSR((n, n), indptr, cols, (rng.random(nnz) - 0.5).astype(dtype))


class TestSortFreeStructuralOps:
    def _operands(self):
        yield random_csr(40, 40, 5, seed=1)
        yield _noncanonical(30, 400, seed=2)
        yield _noncanonical(30, 400, seed=3, dtype=np.float32)
        yield CSR.empty((7, 7))
        yield random_csr(1, 1, 1, seed=4)

    def test_from_coo_matches_lexsort(self):
        rng = np.random.default_rng(5)
        for dtype in (np.float64, np.float32):
            rows = rng.integers(0, 25, size=600)
            cols = rng.integers(0, 31, size=600)  # duplicates guaranteed
            vals = (rng.random(600) - 0.5).astype(dtype)
            _assert_bitwise(CSR.from_coo((25, 31), rows, cols, vals),
                            _from_coo_lexsort((25, 31), rows, cols, vals))
        _assert_bitwise(CSR.from_coo((3, 3), [], [], []),
                        _from_coo_lexsort((3, 3), [], [], np.empty(0)))

    def test_from_coo_key_overflow_takes_the_fallback(self):
        # nrows * ncols >= 2**63: row * ncols + col does not fit an int64
        shape = (5, 2**62)
        rows = [4, 0, 4, 4, 2]
        cols = [2**62 - 1, 7, 3, 2**62 - 1, 2**61]
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        got = CSR.from_coo(shape, rows, cols, vals)
        _assert_bitwise(got, _from_coo_lexsort(shape, rows, cols, vals))
        assert got.indices.tolist() == [7, 2**61, 3, 2**62 - 1]
        assert got.data.tolist() == [2.0, 5.0, 3.0, 5.0]

    def test_tril_triu_match_the_roundtrip(self):
        for g in self._operands():
            for k in (-3, -1, 0, 1, 2):
                _assert_bitwise(g.tril(k), _tril_roundtrip(g, k))
                _assert_bitwise(g.triu(k), _triu_roundtrip(g, k))

    def test_tril_does_not_alias_its_input(self):
        g = random_csr(10, 10, 3, seed=6)
        low = g.tril(10)  # keeps everything
        assert low.nnz == g.nnz
        low.data[:] = -1.0
        assert not (g.data == -1.0).any()

    def test_drop_zeros_matches_the_roundtrip(self):
        for g in self._operands():
            for tol in (0.0, 0.2, 0.45, 1.0):  # all kept .. none kept
                want = _drop_zeros_roundtrip(g, tol)
                got = g.drop_zeros(tol)
                if want is g:
                    assert got is g
                else:
                    _assert_bitwise(got, want)
        g = random_csr(20, 20, 4, seed=8)
        g.data[::3] = 0.0
        _assert_bitwise(g.drop_zeros(), _drop_zeros_roundtrip(g, 0.0))

    def test_select_rows_matches_the_roundtrip(self):
        for i, g in enumerate(self._operands()):
            rng = np.random.default_rng(20 + i)
            for sel in (
                np.arange(g.nrows),  # all kept
                np.empty(0, dtype=np.int64),  # none kept
                rng.choice(g.nrows, size=g.nrows // 2, replace=False),
                rng.random(g.nrows) < 0.3,  # boolean mask
            ):
                _assert_bitwise(g.select_rows(sel), _select_rows_roundtrip(g, sel))

    def test_keep_entries_is_an_order_preserving_filter(self):
        # the shared filter itself (k-truss builds A' and R with it): rows
        # 0 and 3 empty, row 2 emptied by the filter, unsorted input stays
        # in its entry order and keeps its unsorted flag
        g = CSR((5, 6), [0, 0, 3, 5, 5, 7], [4, 1, 2, 5, 0, 3, 1],
                np.arange(7.0))
        keep = np.array([1, 0, 1, 0, 0, 1, 1], dtype=bool)
        got = g._keep_entries(keep)
        assert not got.sorted_indices
        assert got.indptr.tolist() == [0, 0, 2, 2, 2, 4]
        assert got.indices.tolist() == [4, 2, 3, 1]
        assert got.data.tolist() == [0.0, 2.0, 5.0, 6.0]
        for flags in (np.ones(7, dtype=bool), np.zeros(7, dtype=bool)):
            got = g._keep_entries(flags)
            want = g if flags.all() else CSR.empty(g.shape)
            assert got.check() is got
            assert got.indptr.tolist() == want.indptr.tolist()
            assert got.indices.tolist() == want.indices.tolist()
        # filtering commutes with sorting (order = the sort's permutation)
        order = [1, 2, 0, 4, 3, 6, 5]
        _assert_bitwise(g.sort_indices()._keep_entries(keep[order]),
                        g._keep_entries(keep).sort_indices())

    def test_permute_matches_the_roundtrip(self):
        for i, g in enumerate(self._operands()):
            perm = np.random.default_rng(10 + i).permutation(g.nrows)
            _assert_bitwise(g.permute(perm), _permute_roundtrip(g, perm))
        g = random_csr(12, 12, 4, seed=7)
        _assert_bitwise(g.permute(np.arange(12)), g)


class TestEquality:
    def test_equals_self(self):
        a = random_csr(10, 10, 3, seed=20)
        assert a.equals(a.copy())

    def test_equals_ignores_construction_order(self):
        m1 = CSR.from_coo((2, 2), [0, 1], [1, 0], [1.0, 2.0])
        m2 = CSR.from_coo((2, 2), [1, 0], [0, 1], [2.0, 1.0])
        assert m1.equals(m2)

    def test_not_equals_different_value(self):
        m1 = CSR.from_coo((2, 2), [0], [1], [1.0])
        m2 = CSR.from_coo((2, 2), [0], [1], [1.5])
        assert not m1.equals(m2)

    def test_not_equals_different_shape(self):
        m1 = CSR.empty((2, 2))
        m2 = CSR.empty((2, 3))
        assert not m1.equals(m2)


class TestMatrixMarketIO:
    def test_roundtrip(self):
        a = random_csr(12, 9, 3, seed=21)
        buf = io.StringIO()
        write_mtx(buf, a)
        buf.seek(0)
        again = read_mtx(buf)
        assert_csr_equal(again, a)

    def test_symmetric_expansion(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "1 1 5.0\n"
            "2 1 1.0\n"
            "3 2 2.0\n"
        )
        m = read_mtx(io.StringIO(text))
        d = m.to_dense()
        assert d[0, 0] == 5.0
        assert d[1, 0] == d[0, 1] == 1.0
        assert d[2, 1] == d[1, 2] == 2.0
        assert m.nnz == 5  # diagonal not duplicated

    def test_pattern_field(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"
        m = read_mtx(io.StringIO(text))
        assert np.array_equal(m.data, [1.0, 1.0])

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="MatrixMarket"):
            read_mtx(io.StringIO("nope\n1 1 0\n"))

    def test_rejects_unsupported_symmetry(self):
        text = "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n"
        with pytest.raises(ValueError, match="symmetry"):
            read_mtx(io.StringIO(text))

    def test_file_roundtrip(self, tmp_path):
        a = random_csr(8, 8, 2, seed=22)
        path = tmp_path / "m.mtx"
        write_mtx(path, a)
        assert_csr_equal(read_mtx(path), a)


class TestNpzIO:
    def test_roundtrip(self, tmp_path):
        from repro.sparse import load_npz, save_npz

        a = random_csr(15, 12, 3, seed=40)
        path = tmp_path / "m.npz"
        save_npz(path, a)
        assert_csr_equal(load_npz(path), a)

    def test_preserves_sorted_flag(self, tmp_path):
        from repro.sparse import load_npz, save_npz

        a = random_csr(8, 8, 2, seed=41)
        path = tmp_path / "m.npz"
        save_npz(path, a)
        assert load_npz(path).sorted_indices == a.sorted_indices

    def test_rejects_foreign_archive(self, tmp_path):
        import numpy as np

        from repro.sparse import load_npz

        path = tmp_path / "bad.npz"
        np.savez(path, format=np.array("coo"), junk=np.zeros(3))
        with pytest.raises(ValueError, match="unsupported"):
            load_npz(path)


class TestMtxFuzz:
    """Property-based round-trips and malformed-input behaviour for the
    MatrixMarket reader."""

    def test_roundtrip_random_matrices(self):
        import io

        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31))
        @settings(max_examples=30, deadline=None)
        def roundtrip(nr, nc, seed):
            rng = np.random.default_rng(seed)
            nnz = int(rng.integers(0, nr * nc // 2 + 1))
            rows = rng.integers(0, nr, size=nnz)
            cols = rng.integers(0, nc, size=nnz)
            vals = rng.normal(size=nnz)
            m = CSR.from_coo((nr, nc), rows, cols, vals)
            buf = io.StringIO()
            write_mtx(buf, m)
            buf.seek(0)
            assert_csr_equal(read_mtx(buf), m)

        roundtrip()

    @pytest.mark.parametrize("text", [
        "",  # empty file
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",  # array
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
        "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
    ])
    def test_malformed_headers_rejected(self, text):
        import io

        with pytest.raises(ValueError):
            read_mtx(io.StringIO(text))

    def test_comments_skipped(self):
        import io

        text = ("%%MatrixMarket matrix coordinate real general\n"
                "% a comment\n% another\n"
                "2 2 1\n1 2 3.5\n")
        m = read_mtx(io.StringIO(text))
        assert m.to_dense()[0, 1] == 3.5

    def test_values_preserved_to_full_precision(self):
        import io

        v = 0.1234567890123456789
        m = CSR.from_coo((1, 1), [0], [0], [v])
        buf = io.StringIO()
        write_mtx(buf, m)
        buf.seek(0)
        again = read_mtx(buf)
        assert again.data[0] == m.data[0]  # %.17g is lossless for float64
