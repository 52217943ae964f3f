"""The sparse substrate on both tiers (``repro.sparse`` + ``repro_bucket_order``).

One differential suite: every construction that orders entries — ``from_coo``,
``transpose`` / ``CSC.from_csr``, ``sort_indices``, ``permute``, the fused
triangle-counting prepare, ``ewise_add`` / ``ewise_mult`` — run with the native
library and inside ``native.disabled()`` (the NumPy bodies), asserting equal
bytes or equal exceptions, over the inputs that make ordering hard: empty,
one row, one column, presorted, two sorted runs, random, duplicates with
special values, hypersparse shapes, overflowing shapes, bad indices, narrow
and wide value types, concurrent callers.  scipy's COO -> CSR conversion is
the outside oracle.
"""

import contextlib
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.triangle_counting import _prepare
from repro.core.kernels import native
from repro.graphs import erdos_renyi_graph, relabel_by_degree, rmat
from repro.sparse import CSC, CSR, ewise_add, ewise_mult

from .conftest import NativeSpy, native_required

needs_native = native_required()
# inf + -inf among the special duplicate values is NaN on purpose
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

SPECIAL = np.array([1.0, -1.0, 0.5, np.nan, np.inf, -np.inf, -0.0, 0.0])


def _bytes(m):
    m = m.to_transposed_csr() if isinstance(m, CSC) else m
    return (m.shape, m.sorted_indices, m.data.dtype.str, m.indptr.tobytes(),
            m.indices.tobytes(), m.data.tobytes())


def _both_tiers(build):
    """``build()`` on the native tier and on the NumPy tier: the two results,
    or the two exceptions, must be equal."""
    def outcome():
        try:
            return _bytes(build())
        except (ValueError, IndexError) as exc:
            return type(exc), str(exc)

    got = outcome()
    with native.disabled():
        want = outcome()
    assert got == want
    return got


def _coo_cases():
    rng = np.random.default_rng(0)

    def random(n, m, nnz, vals=None):
        v = rng.random(nnz) if vals is None else rng.choice(vals, size=nnz)
        return (n, m), rng.integers(0, n, nnz), rng.integers(0, m, nnz), v

    yield "empty", ((0, 0), [], [], [])
    yield "no-entries", ((5, 7), [], [], [])
    yield "one-row", random(1, 50, 200)
    yield "one-column", random(50, 1, 200)
    yield "one-entry", ((3, 3), [2], [1], [4.0])
    shape, r, c, v = random(40, 30, 500)
    order = np.lexsort((c, r))
    yield "random", (shape, r, c, v)
    yield "presorted", (shape, r[order], c[order], v[order])
    yield "reversed", (shape, r[order][::-1], c[order][::-1], v[order][::-1])
    half = order.size // 2
    runs = np.concatenate([np.sort(order[:half]), np.sort(order[half:])])
    yield "two-sorted-runs", (shape, r[order][runs], c[order][runs], v[order][runs])
    yield "duplicates-special", random(6, 5, 400, SPECIAL)
    yield "all-one-cell", ((4, 4), np.full(9, 2), np.full(9, 3), SPECIAL[np.arange(9) % 8])
    yield "float32", (shape, r, c, v.astype(np.float32))
    yield "complex", (shape, r, c, v + 1j * v[::-1])
    yield "integer-values", (shape, r, c, np.arange(r.size))
    yield "hypersparse", random(10**6, 10**6, 50)  # K >> nnz: the argsort path
    yield "key-overflow", ((5, 2**62), [4, 0, 4, 4, 2], [2**62 - 1, 7, 3, 2**62 - 1, 2**61],
                           [1.0, 2.0, 3.0, 4.0, 5.0])  # lexsort path
    yield "non-contiguous", (shape, r[::2], c[::2], v[::2])


COO = dict(_coo_cases())


def _csr_cases():
    for name in ("empty", "no-entries", "one-row", "one-column", "random", "duplicates-special",
                 "float32", "complex", "hypersparse"):
        shape, r, c, v = COO[name]
        yield name, CSR.from_coo(shape, r, c, v)
    # rows written unsorted with a repeated column: canonicalised on the way
    yield "unsorted-dup", CSR((3, 8), np.array([0, 4, 4, 7]), np.array([5, 2, 2, 0, 6, 1, 1]),
                              np.array([1.0, -0.0, -0.0, 0.5, np.nan, -1.0, 3.0]))
    yield "zero-columns", CSR.empty((4, 0))
    yield "wide-columns", CSR.from_coo((3, 70000), [0, 2, 2], [69999, 65536, 3], [1.0, 2.0, 3.0])


CSRS = dict(_csr_cases())


class TestDifferential:
    @pytest.mark.parametrize("name", COO)
    def test_from_coo(self, name):
        shape, r, c, v = COO[name]
        got = _both_tiers(lambda: CSR.from_coo(shape, r, c, v))
        mat = CSR.from_coo(shape, r, c, v).check()
        assert got == _bytes(mat) and mat.sorted_indices

    @pytest.mark.parametrize("name", CSRS)
    def test_transpose_csc_and_sort_indices(self, name):
        mat = CSRS[name]
        _both_tiers(mat.transpose)
        _both_tiers(lambda: CSC.from_csr(mat))
        _both_tiers(mat.sort_indices)
        back = mat.transpose().transpose()
        assert _bytes(back) == _bytes(mat.sort_indices())

    @pytest.mark.parametrize("name", ["empty", "random", "duplicates-special", "float32"])
    def test_ewise_ops(self, name):
        shape, r, c, v = COO[name]
        a = CSR.from_coo(shape, r, c, v)
        # a second pattern that overlaps the first in part
        b = CSR.from_coo(shape, np.asarray(c, dtype=np.int64)[::-1] % max(shape[0], 1),
                         np.asarray(r, dtype=np.int64)[::-1] % max(shape[1], 1), v)
        for op in (ewise_add, ewise_mult):
            _both_tiers(lambda: op(a, b))
            _both_tiers(lambda: op(a, a))
            _both_tiers(lambda: op(a, CSR.empty(shape)))

    @pytest.mark.parametrize(
        "graph",
        [rmat(8, seed=3), erdos_renyi_graph(300, 6, seed=2), CSR.empty((5, 5)),
         CSR.from_coo((3, 3), [0, 1, 1, 2], [1, 0, 2, 1], np.ones(4))],
        ids=["rmat", "er", "empty", "path"],
    )
    def test_permute_and_the_fused_prepare(self, graph):
        perm = np.random.default_rng(4).permutation(graph.nrows)
        _both_tiers(lambda: graph.permute(perm))
        fused = _both_tiers(lambda: _prepare(graph, True))
        assert fused == _bytes(relabel_by_degree(graph.pattern()).tril(-1))
        assert _bytes(_prepare(graph, False)) == _bytes(graph.pattern().tril(-1))

    def test_fused_prepare_sums_duplicates_like_permute(self):
        g = CSR((3, 3), np.array([0, 2, 4, 6]), np.array([1, 1, 0, 0, 1, 0]), np.ones(6))
        assert _both_tiers(lambda: _prepare(g, True)) == _bytes(
            relabel_by_degree(g.pattern()).tril(-1))
        with pytest.raises(ValueError, match="square"):
            _prepare(CSR.empty((2, 3)), True)

    @pytest.mark.parametrize("bad", [-1, 7], ids=["negative", "past-the-end"])
    def test_bad_indices_raise_alike_and_write_nothing(self, bad):
        r, c, v = np.array([3, 1, 0, 2]), np.array([0, 2, 1, 3]), np.arange(4.0)
        for rows, cols, msg in ((np.where(r == 1, bad, r), c, "row index out of range"),
                                (r, np.where(c == 1, bad, c), "column index out of range")):
            before = rows.copy(), cols.copy(), v.copy()
            assert _both_tiers(lambda: CSR.from_coo((4, 4), rows, cols, v)) == (ValueError, msg)
            assert all(np.array_equal(x, y) for x, y in zip(before, (rows, cols, v)))
        # a check=False CSR that lies about its indices: an error, never a wild write
        liar = CSR((2, 3), np.array([0, 1, 2]), np.array([0, bad]), np.ones(2),
                   sorted_indices=True, check=False)
        for scope in (contextlib.nullcontext, native.disabled):
            with scope(), pytest.raises(ValueError):
                liar.transpose()

    def test_duplicate_runs_start_from_their_first_value(self):
        # only the run is summed: the -0.0 stored once keeps its sign bit
        got = CSR.from_coo((2, 2), [0, 1, 1], [0, 1, 1], [-0.0, 1.0, 1.0])
        assert got.data.tolist() == [0.0, 2.0] and np.signbit(got.data[0])
        run = CSR.from_coo((1, 1), [0, 0], [0, 0], [-0.0, -0.0])
        assert np.signbit(run.data[0])  # -0.0 + -0.0, not 0.0 + -0.0 + -0.0
        # ewise_add follows the same rule: a + b where both store, else the stored value
        z = CSR.from_coo((2, 2), [0, 1], [0, 1], [-0.0, 1.0])
        w = CSR.from_coo((2, 2), [1], [1], [1.0])
        assert _bytes(ewise_add(z, w)) == _bytes(got)
        with pytest.raises(ValueError, match="duplicate"):
            CSR.from_coo((2, 2), [1, 1], [1, 1], [1.0, 1.0], sum_duplicates=False)

    def test_result_never_aliases_presorted_input(self):
        r, c, v = np.array([0, 0, 1]), np.array([0, 2, 1]), np.array([1.0, 2.0, 3.0])
        mat = CSR.from_coo((2, 3), r, c, v)
        assert not np.shares_memory(mat.indices, c) and not np.shares_memory(mat.data, v)


@needs_native
class TestTheNativeLoop:
    @pytest.fixture
    def spy(self, monkeypatch):
        spy = NativeSpy(native.load())
        monkeypatch.setattr(native, "_lib", spy)
        return spy

    def test_shuffled_edge_list_reaches_the_counting_sort(self, spy):
        """The guard against a silent fallback making this file vacuous."""
        g = rmat(10, seed=1)
        r, c, v = g.to_coo()
        order = np.random.default_rng(0).permutation(r.size)
        spy.calls.clear()  # the generator went through from_coo itself
        got = CSR.from_coo(g.shape, r[order], c[order], v[order])
        assert spy.calls == ["repro_bucket_order"] * 2  # column pass, row pass
        assert _bytes(got) == _bytes(g)
        g.transpose()
        assert spy.calls == ["repro_bucket_order"] * 3

    def test_presorted_and_hypersparse_inputs_skip_it(self, spy):
        g = rmat(8, seed=1)
        spy.calls.clear()
        CSR.from_coo(g.shape, *g.to_coo())  # already in order: nothing to sort
        shape, r, c, v = COO["hypersparse"]  # offsets would dwarf the entries
        CSR.from_coo(shape, r, c, v)
        shape, r, c, v = COO["key-overflow"]
        CSR.from_coo(shape, r, c, v)
        assert not spy.calls

    def test_permutation_is_the_stable_argsort(self):
        from repro.sparse.csr import _bucket_order

        rng = np.random.default_rng(1)
        keys = rng.integers(0, 17, 5000)
        ints, vals = rng.integers(0, 99, 5000), rng.random(5000)
        for v in (vals, vals.astype(np.float32), vals + 1j, None):
            start, order, ints_out, vals_out = _bucket_order(keys, 17, ints, v, order=True)
            want = np.argsort(keys, kind="stable")
            assert np.array_equal(order, want) and np.array_equal(ints_out, ints[want])
            assert np.array_equal(start, np.searchsorted(keys[want], np.arange(18)))
            assert v is None or (vals_out.dtype == v.dtype and np.array_equal(vals_out, v[want]))
        with pytest.raises(ValueError, match="out of range"):
            _bucket_order(np.array([0, 17]), 17, np.zeros(2, dtype=np.int64))

    def test_two_threads_ordering_concurrently(self):
        rng = np.random.default_rng(2)
        jobs = []
        for _ in range(2):
            r, c = rng.integers(0, 300, 20000), rng.integers(0, 300, 20000)
            v = rng.random(20000)
            with native.disabled():
                jobs.append(((r, c, v), _bytes(CSR.from_coo((300, 300), r, c, v))))
        failures = []

        def work(args, want):
            for _ in range(20):
                if _bytes(CSR.from_coo((300, 300), *args)) != want:
                    failures.append(args)

        threads = [threading.Thread(target=work, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and not failures


# ----------------------------------------------------------------------
# the outside oracle
# ----------------------------------------------------------------------
@st.composite
def coo_inputs(draw):
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    nnz = draw(st.integers(0, 60))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = draw(st.lists(st.integers(-4, 4), min_size=nnz, max_size=nnz))
    if draw(st.booleans()):  # presorted input takes the no-sort path
        order = np.lexsort((cols, rows))
        rows, cols, vals = (np.asarray(x)[order].tolist() for x in (rows, cols, vals))
    return (nrows, ncols), np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64), \
        np.asarray(vals, dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(coo_inputs())
def test_from_coo_and_transpose_match_scipy(case):
    """Small-integer values, so duplicate sums are exact in any order."""
    shape, r, c, v = case
    want = sp.coo_matrix((v, (r, c)), shape=shape).tocsr()
    want.sum_duplicates()
    want.sort_indices()
    for scope in (native.disabled, contextlib.nullcontext):
        with scope():
            got = CSR.from_coo(shape, r, c, v)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)
            t, want_t = got.transpose(), want.T.tocsr()
            want_t.sort_indices()
            assert np.array_equal(t.indptr, want_t.indptr)
            assert np.array_equal(t.indices, want_t.indices)
            assert np.array_equal(t.data, want_t.data)
            both = ewise_add(got, got)
            assert np.array_equal(both.indices, want.indices)
            assert np.array_equal(both.data, 2 * want.data)
