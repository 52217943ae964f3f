"""Property-based tests (hypothesis) on the core data structures and the
masked SpGEMM invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import scipy_masked_spgemm
from repro.core import ALGOS, masked_spgemm, supports_complement
from repro.core.accumulators import MSA, HashAccumulator
from repro.machine import simulate_makespan
from repro.sparse import CSR, ewise_add, ewise_mult, mask_pattern

from .conftest import assert_csr_equal, panelled

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def coo_matrix(draw, max_dim=24, max_nnz=60):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-8, 8, allow_nan=False, allow_infinity=False, width=32),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return CSR.from_coo(
        (nrows, ncols), np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64), np.array(vals),
    )


@st.composite
def spgemm_triple(draw, max_dim=16, max_nnz=48):
    m_ = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))

    def mat(nr, nc):
        nnz = draw(st.integers(0, max_nnz))
        rows = draw(st.lists(st.integers(0, nr - 1), min_size=nnz, max_size=nnz))
        cols = draw(st.lists(st.integers(0, nc - 1), min_size=nnz, max_size=nnz))
        vals = draw(
            st.lists(
                st.floats(-4, 4, allow_nan=False, allow_infinity=False, width=32),
                min_size=nnz,
                max_size=nnz,
            )
        )
        return CSR.from_coo(
            (nr, nc), np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64), np.array(vals),
        )

    return mat(m_, k), mat(k, n), mat(m_, n)


# ----------------------------------------------------------------------
# CSR structural properties
# ----------------------------------------------------------------------


class TestCSRProperties:
    @given(coo_matrix())
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold(self, m):
        m.check()
        assert m.nnz == int(m.indptr[-1])

    @given(coo_matrix())
    @settings(max_examples=60, deadline=None)
    def test_dense_roundtrip(self, m):
        assert_csr_equal(CSR.from_dense(m.to_dense()), m.drop_zeros())

    @given(coo_matrix())
    @settings(max_examples=60, deadline=None)
    def test_transpose_involution(self, m):
        assert_csr_equal(m.transpose().transpose(), m)

    @given(coo_matrix())
    @settings(max_examples=60, deadline=None)
    def test_scipy_roundtrip(self, m):
        assert_csr_equal(CSR.from_scipy(m.to_scipy()), m)

    @given(coo_matrix())
    @settings(max_examples=40, deadline=None)
    def test_tril_triu_diag_partition(self, m):
        if m.nrows != m.ncols:
            return
        total = m.tril(-1).nnz + m.triu(1).nnz + m.tril(0).triu(0).nnz
        assert total == m.nnz


class TestEwiseProperties:
    @given(coo_matrix(max_dim=12))
    @settings(max_examples=40, deadline=None)
    def test_mult_with_self_squares(self, m):
        sq = ewise_mult(m, m)
        assert np.allclose(sq.to_dense(), m.to_dense() ** 2)

    @given(coo_matrix(max_dim=12), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_add_commutes(self, m, seed):
        rng = np.random.default_rng(seed)
        other = CSR.from_dense(
            (rng.random(m.shape) < 0.2) * rng.random(m.shape)
        )
        assert_csr_equal(ewise_add(m, other), ewise_add(other, m))

    @given(coo_matrix(max_dim=12), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_mask_partition_identity(self, m, seed):
        """mask(X, M) + mask(X, !M) == X for arbitrary X, M."""
        rng = np.random.default_rng(seed)
        mask = CSR.from_dense((rng.random(m.shape) < 0.3).astype(float))
        inside = mask_pattern(m, mask)
        outside = mask_pattern(m, mask, complement=True)
        assert inside.nnz + outside.nnz == m.nnz
        assert_csr_equal(ewise_add(inside, outside), m)


# ----------------------------------------------------------------------
# masked SpGEMM properties
# ----------------------------------------------------------------------


class TestMaskedSpGEMMProperties:
    @given(spgemm_triple())
    @settings(max_examples=25, deadline=None)
    def test_all_algorithms_match_oracle(self, triple):
        a, b, m = triple
        want = scipy_masked_spgemm(a, b, m)
        for algo in ALGOS:
            got = masked_spgemm(a, b, m, algo=algo, impl="auto")
            assert_csr_equal(got, want, msg=algo)

    @given(spgemm_triple())
    @settings(max_examples=20, deadline=None)
    def test_complement_algorithms_match_oracle(self, triple):
        a, b, m = triple
        want = scipy_masked_spgemm(a, b, m, complement=True)
        for algo in ALGOS:
            if not supports_complement(algo):
                continue
            got = masked_spgemm(a, b, m, algo=algo, impl="auto", complement=True)
            assert_csr_equal(got, want, msg=algo)

    @given(spgemm_triple())
    @settings(max_examples=20, deadline=None)
    def test_output_within_mask(self, triple):
        a, b, m = triple
        got = masked_spgemm(a, b, m, algo="msa")
        outside = mask_pattern(got, m, complement=True)
        assert outside.nnz == 0

    @given(spgemm_triple())
    @settings(max_examples=20, deadline=None)
    def test_symbolic_equals_numeric_nnz(self, triple):
        from repro.core import symbolic_masked

        a, b, m = triple
        got = masked_spgemm(a, b, m, algo="hash")
        assert np.array_equal(symbolic_masked(a, b, m), got.row_nnz())


# ----------------------------------------------------------------------
# accumulator state machines under random op sequences
# ----------------------------------------------------------------------


class TestAccumulatorProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["allow", "insert", "remove"]),
                st.integers(0, 15),
                st.floats(-4, 4, allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_msa_and_hash_agree_with_model(self, ops):
        """MSA and Hash must implement identical semantics; a dict-based
        model accumulator defines them."""
        msa = MSA(16, lambda x, y: x + y)
        hsh = HashAccumulator(16, lambda x, y: x + y)
        allowed = set()
        values = {}
        for op, key, val in ops:
            if op == "allow":
                msa.set_allowed(key)
                hsh.set_allowed(key)
                allowed.add(key)
            elif op == "insert":
                msa.insert(key, val)
                hsh.insert(key, val)
                if key in allowed:
                    values[key] = values.get(key, 0.0) + val
            else:
                want = values.pop(key, None)
                got_msa = msa.remove(key)
                got_hsh = hsh.remove(key)
                allowed.discard(key)
                if want is None:
                    assert got_msa is None and got_hsh is None
                else:
                    assert got_msa is not None and got_hsh is not None
                    assert abs(got_msa - want) < 1e-9
                    assert abs(got_hsh - want) < 1e-9


# ----------------------------------------------------------------------
# scheduler bounds
# ----------------------------------------------------------------------


class TestSchedulerProperties:
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=200),
        st.integers(1, 16),
        st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_list_scheduling_bounds(self, costs, p, chunk):
        costs = np.asarray(costs)
        span = simulate_makespan(costs, p, schedule="dynamic", chunk=chunk)
        total = costs.sum()
        chunk_sums = [costs[i : i + chunk].sum() for i in range(0, len(costs), chunk)]
        max_chunk = max(chunk_sums)
        assert span >= max(total / p, max_chunk) - 1e-6
        assert span <= total / p + max_chunk + 1e-6


class TestChunkedProperties:
    @given(spgemm_triple(), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_panel_width_invariant(self, triple, panel):
        """Column panels of any width, in the caller's own spelling, are the
        plain call."""
        a, b, m = triple
        want = masked_spgemm(a, b, m, algo="msa")
        got = panelled(a, b, m, panel, algo="msa")
        assert_csr_equal(got, want)


class TestOrientationProperties:
    @given(spgemm_triple())
    @settings(max_examples=25, deadline=None)
    def test_row_column_agree(self, triple):
        """Column by column — the row algorithm on ``(B^T A^T)^T`` — agrees."""
        a, b, m = triple
        row = masked_spgemm(a, b, m, algo="hash")
        col = masked_spgemm(b.transpose(), a.transpose(), m.transpose(),
                            algo="hash").transpose()
        assert_csr_equal(col, row)
