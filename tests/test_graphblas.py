"""The GraphBLAS operations the paper's applications use (Section 7), each
on its one direct spelling in this library:

* ``C<M> = A (+.x) B`` is :func:`repro.core.masked_spgemm` (``algo=``,
  ``phases=``, ``complement=``, ``semiring=``); without a mask it is
  :func:`repro.core.spgemm_saxpy_fast`;
* accumulation into an existing output (no replace) is
  ``ewise_add(mask_pattern(out, c, complement=True), c)``;
* matrix and vector methods are :mod:`repro.sparse` ops on a ``CSR`` (a
  vector is a one-row ``CSR``).
"""

import numpy as np
import pytest

from repro.core import (
    ALGOS,
    masked_spgemm,
    spgemm_saxpy_fast,
    supports_complement,
)
from repro.graphs import erdos_renyi_graph
from repro.semiring import PLUS_PAIR
from repro.sparse import (
    CSR,
    ewise_add,
    ewise_mult,
    mask_pattern,
    reduce_sum,
    row_reduce,
)

from .conftest import random_csr


@pytest.fixture
def abm():
    a = random_csr(30, 25, 4, seed=1)
    b = random_csr(25, 35, 4, seed=2)
    m = random_csr(30, 35, 6, seed=3)
    return a, b, m


def vector(size, idx, vals=None):
    """A sparse vector as a one-row CSR."""
    idx = np.asarray(idx, dtype=np.int64)
    return CSR.from_coo((1, size), np.zeros(idx.shape[0], dtype=np.int64), idx, vals)


def dense_product(a, b):
    return a.to_dense() @ b.to_dense()


class TestMatrix:
    def test_construction_paths_agree(self):
        dense = np.zeros((4, 5))
        dense[1, 2] = 3.0
        dense[3, 0] = -1.0
        m1 = CSR.from_dense(dense)
        m2 = CSR.from_coo((4, 5), [1, 3], [2, 0], [3.0, -1.0])
        assert np.array_equal(m1.to_dense(), m2.to_dense())
        assert m1.nnz == 2

    def test_new_is_empty(self):
        m = CSR.empty((3, 4))
        assert m.nnz == 0
        assert m.shape == (3, 4)

    def test_getitem_implicit_zero(self):
        m = CSR.from_coo((3, 3), [0], [1], [5.0])
        cols, vals = m.row(0)
        assert cols.tolist() == [1] and vals.tolist() == [5.0]
        assert m.row(1)[0].size == 0

    def test_dup_is_independent(self):
        m = CSR.from_coo((2, 2), [0], [0], [1.0])
        d = m.copy()
        d.data[0] = 9.0
        assert m.data[0] == 1.0

    def test_apply(self):
        m = CSR.from_coo((2, 2), [0, 1], [0, 1], [2.0, -3.0])
        sq = ewise_mult(m, m)
        assert sq.to_dense().tolist() == [[4.0, 0.0], [0.0, 9.0]]

    def test_select_offdiagonal(self):
        m = CSR.from_dense(np.ones((3, 3)))
        off = ewise_add(m.tril(-1), m.triu(1))
        assert off.nnz == 6

    def test_reduce(self):
        m = CSR.from_dense(np.arange(6).reshape(2, 3).astype(float))
        assert reduce_sum(m) == 15.0
        assert np.array_equal(row_reduce(m), [3.0, 12.0])

    def test_extract_row(self):
        m = CSR.from_coo((3, 4), [1, 1], [0, 3], [2.0, 7.0])
        cols, vals = m.row(1)
        assert cols.tolist() == [0, 3] and vals.tolist() == [2.0, 7.0]

    def test_transpose_pattern(self):
        m = CSR.from_coo((2, 3), [0], [2], [4.0])
        t = m.transpose()
        assert t.shape == (3, 2)
        assert t.to_dense()[2, 0] == 4.0
        assert m.pattern().to_dense()[0, 2] == 1.0


class TestVector:
    def test_roundtrip(self):
        v = CSR.from_dense(np.array([[0.0, 2.0, 0.0, 3.0]]))
        assert v.nnz == 2
        assert np.array_equal(v.to_dense()[0], [0, 2, 0, 3])

    def test_pattern_bool(self):
        v = vector(5, [1, 4], [1.0, 1.0])
        assert np.array_equal(v.pattern().to_dense()[0] != 0,
                              [False, True, False, False, True])

    def test_reduce(self):
        assert reduce_sum(vector(5, [0, 2], [1.5, 2.5])) == 4.0


class TestMxm:
    def test_unmasked_matches_dense(self, abm):
        a, b, _ = abm
        c = spgemm_saxpy_fast(a, b)
        assert np.allclose(c.to_dense(), dense_product(a, b))

    # "hybrid" is the paper's per-row mix of algorithms, spelled algo="auto"
    @pytest.mark.parametrize("algo", list(ALGOS) + ["hybrid"])
    def test_masked_all_algorithms(self, algo, abm):
        a, b, m = abm
        c = masked_spgemm(a, b, m, algo="auto" if algo == "hybrid" else algo)
        want = dense_product(a, b) * (m.to_dense() != 0)
        assert np.allclose(c.to_dense(), want)

    @pytest.mark.parametrize("algo", [x for x in ALGOS if supports_complement(x)])
    def test_complement(self, algo, abm):
        a, b, m = abm
        c = masked_spgemm(a, b, m, algo=algo, complement=True)
        want = dense_product(a, b) * (m.to_dense() == 0)
        assert np.allclose(c.to_dense(), want)

    def test_semiring(self, abm):
        a, b, m = abm
        c = masked_spgemm(a, b, m, semiring=PLUS_PAIR)
        want = dense_product(a.pattern(), b.pattern()) * (m.to_dense() != 0)
        assert np.allclose(c.to_dense(), want)

    def test_accumulate_without_replace(self, abm):
        """New values win where the product wrote; the output keeps its
        entries everywhere else."""
        a, b, m = abm
        base = CSR.from_coo((30, 35), [0, 29], [0, 34], [100.0, 200.0])
        c = masked_spgemm(a, b, m)
        got = ewise_add(mask_pattern(base, c, complement=True), c).to_dense()
        want = dense_product(a, b) * (m.to_dense() != 0)
        written = c.to_dense() != 0
        kept = base.to_dense()
        assert np.allclose(got[written], want[written])
        assert np.array_equal(got[~written], kept[~written])

    def test_hybrid_complement(self, abm):
        """``auto`` takes a complemented mask: the planner routes every row
        away from inner / mca, which lack complement support."""
        a, b, m = abm
        c = masked_spgemm(a, b, m, algo="auto", complement=True)
        want = dense_product(a, b) * (m.to_dense() == 0)
        assert np.allclose(c.to_dense(), want)

    def test_2p_descriptor(self, abm):
        a, b, m = abm
        c1 = masked_spgemm(a, b, m, phases=1)
        c2 = masked_spgemm(a, b, m, phases=2)
        assert np.array_equal(c1.to_dense(), c2.to_dense())


class TestTriangleCountViaGB:
    def test_tc_pipeline(self):
        """The paper's TC pipeline: one masked product and a reduction."""
        from repro.apps import triangle_count

        g = erdos_renyi_graph(80, 6, seed=11)
        low = g.pattern().tril(-1)
        c = masked_spgemm(low, low, low, algo="mca", semiring=PLUS_PAIR)
        assert int(reduce_sum(c)) == triangle_count(g, relabel=False)


class TestVectorEwiseOps:
    def test_ewise_mult_intersection(self):
        v1 = vector(6, [0, 2, 4], [2.0, 3.0, 4.0])
        v2 = vector(6, [2, 4, 5], [10.0, 0.5, 7.0])
        out = ewise_mult(v1, v2)
        assert out.indices.tolist() == [2, 4]
        assert out.data.tolist() == [30.0, 2.0]

    def test_ewise_add_union(self):
        v1 = vector(4, [0, 1], [1.0, 2.0])
        v2 = vector(4, [1, 3], [5.0, 9.0])
        assert np.array_equal(ewise_add(v1, v2).to_dense()[0], [1.0, 7.0, 0.0, 9.0])

    def test_apply(self):
        v = vector(3, [1], [-4.0])
        out = CSR(v.shape, v.indptr, v.indices, np.abs(v.data))
        assert out.to_dense()[0, 1] == 4.0

    def test_select(self):
        v = vector(5, [0, 1, 2], [1.0, -2.0, 3.0])
        _, idx, vals = v.to_coo()
        pos = vector(5, idx[vals > 0], vals[vals > 0])
        assert pos.indices.tolist() == [0, 2]

    def test_mask_out(self):
        v = vector(5, [0, 1, 2], [1.0, 2.0, 3.0])
        m = vector(5, [1, 4])
        assert mask_pattern(v, m).nnz == 1
        assert mask_pattern(v, m, complement=True).nnz == 2

    def test_custom_ops(self):
        v1 = vector(3, [0, 1], [5.0, 1.0])
        v2 = vector(3, [0, 1], [2.0, 8.0])
        assert ewise_mult(v1, v2, op=np.maximum).data.tolist() == [5.0, 8.0]
