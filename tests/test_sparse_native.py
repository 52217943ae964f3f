"""The sparse substrate on both tiers (``repro.sparse`` + ``repro_bucket_order``).

One differential suite: every construction that orders entries — ``from_coo``,
``transpose`` / ``CSC.from_csr``, ``sort_indices``, ``permute``, the fused
triangle-counting prepare, the element-wise ops and ``locate`` — run with the native
library and inside ``native.disabled()`` (the NumPy bodies), asserting equal
bytes or equal exceptions, over the inputs that make ordering hard: empty,
one row, one column, presorted, two sorted runs, random, duplicates with
special values, hypersparse shapes, overflowing shapes, bad indices, narrow
and wide value types, concurrent callers.  scipy's COO -> CSR conversion is
the outside oracle.
"""

import contextlib
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import betweenness_centrality, triangle_count
from repro.apps.triangle_counting import _prepare
from repro.core import masked_spgemm
from repro.core.kernels import native
from repro.engine import execute, plan
from repro.graphs import (
    degree_sort_permutation, erdos_renyi, erdos_renyi_graph, lower_by_degree, relabel_by_degree,
    rmat,
)
from repro.parallel.pool import Task, run_task
from repro.semiring import PLUS_TIMES
from repro.sparse import CSC, CSR, ewise_add, ewise_mult, locate, mask_pattern, pattern_union
from repro.sparse.csr import _bucket_order, _lower_by_degree

from .conftest import NativeSpy, native_required

needs_native = native_required()
# inf + -inf among the special duplicate values is NaN on purpose
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

SPECIAL = np.array([1.0, -1.0, 0.5, np.nan, np.inf, -np.inf, -0.0, 0.0])


def _bytes(m):
    if isinstance(m, np.ndarray):  # locate's positions
        return m.dtype.str, m.tobytes()
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


def _ewise_pairs():
    """``(a, b)`` operand pairs of one shape for the element-wise ops."""
    for name in ("empty", "random", "duplicates-special", "float32"):
        shape, r, c, v = COO[name]
        # a second pattern that overlaps the first in part
        yield name, (CSR.from_coo(shape, r, c, v), CSR.from_coo(
            shape, np.asarray(c, dtype=np.int64)[::-1] % max(shape[0], 1),
            np.asarray(r, dtype=np.int64)[::-1] % max(shape[1], 1), v))
    nan_a, nan_b = np.float64(np.nan), -np.float64(np.nan)  # payloads differ in the sign bit
    yield "nan-both", (CSR.from_coo((2, 3), [0, 0, 0, 1], [0, 1, 2, 2], [nan_a, -0.0, -0.0, 1.0]),
                       CSR.from_coo((2, 3), [0, 0, 1], [0, 1, 0], [nan_b, 0.0, np.nan]))
    u = CSRS["unsorted-dup"]  # canonicalised on the way in
    yield "unsorted-dup", (u, CSR.from_coo(u.shape, [0, 0, 2, 2], [2, 3, 1, 7],
                                           [np.nan, 1.0, 2.0, -0.0]))
    yield "zero-columns", (CSRS["zero-columns"], CSR.empty((4, 0)))
    # ncols = 2**62 + 1: the flat key of (4, 1) wraps onto that of (0, 5)
    yield "key-overflow", (CSR.from_coo((8, 2**62 + 1), [0, 3, 7], [5, 9, 2**62], [1.0, 2.0, 3.0]),
                           CSR.from_coo((8, 2**62 + 1), [3, 4, 7], [9, 1, 2**62], [4.0, 5.0, 6.0]))


EWISE = dict(_ewise_pairs())
EWISE_OPS = (ewise_add, ewise_mult, mask_pattern,
             lambda x, y: mask_pattern(x, y, complement=True), locate, pattern_union)


def _graph_cases():
    """Square patterns for ``permute`` and the triangle-counting prepare."""
    yield "rmat", rmat(8, seed=3)
    yield "er", erdos_renyi_graph(300, 6, seed=2)
    yield "empty", CSR.empty((5, 5))
    yield "path", CSR.from_coo((3, 3), [0, 1, 1, 2], [1, 0, 2, 1], np.ones(4))
    # a directed graph: tril(P A P^T) is not triu(P A P^T) transposed
    yield "non-symmetric", erdos_renyi(300, 300, 6, seed=5)
    g = rmat(8, seed=4)
    r, c, _ = g.to_coo()
    loops = np.arange(0, g.nrows, 3)
    yield "self-loops", CSR.from_coo(g.shape, np.r_[r, loops], np.r_[c, loops])
    yield "isolated", CSR.from_coo((12, 12), [2, 5, 5, 9, 9, 2], [5, 2, 9, 5, 2, 9], np.ones(6))
    order = np.lexsort((-g.indices, g.row_ids()))  # every row written back to front
    yield "unsorted-rows", CSR(g.shape, g.indptr, g.indices[order], g.data)
    yield "one-vertex", CSR((1, 1), np.array([0, 1]), np.array([0]), np.ones(1))


GRAPHS = dict(_graph_cases())


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

    @pytest.mark.parametrize("name", EWISE)
    def test_ewise_ops(self, name):
        a, b = EWISE[name]
        empty = CSR.empty(a.shape)
        for op in EWISE_OPS:
            for x, y in ((a, b), (b, a), (a, a), (a, empty), (empty, a)):
                _both_tiers(lambda: op(x, y))

    def test_ewise_add_special_values(self):
        a, b = EWISE["nan-both"]
        got = _both_tiers(lambda: ewise_add(a, b))
        data = np.frombuffer(got[-1], dtype=np.float64)
        # NaN + NaN keeps a's payload; -0.0 + 0.0 is +0.0; a lone -0.0 keeps its sign
        assert data[0].tobytes() == a.data[0].tobytes()
        assert data[1].tobytes() == np.float64(0.0).tobytes()
        assert data[2].tobytes() == np.float64(-0.0).tobytes()

    def test_locate(self):
        a = CSR.from_coo((3, 6), [0, 0, 1, 2, 2], [1, 4, 0, 2, 5], np.arange(5.0))
        b = CSR.from_coo((3, 6), [0, 2, 0, 1, 2, 0], [4, 5, 0, 3, 2, 1], np.ones(6))
        for scope in (contextlib.nullcontext, native.disabled):
            with scope():
                # b's entries in order: (0,0) (0,1) (0,4) (1,3) (2,2) (2,5)
                assert locate(a, b).tolist() == [-1, 0, 1, -1, 3, 4]
                assert locate(b, a).tolist() == [1, 2, -1, 4, 5]
                assert locate(CSR.empty(a.shape), b).tolist() == [-1] * 6
                assert locate(a, CSR.empty(a.shape)).shape == (0,)
                assert locate(a, b).dtype == np.int64

    @pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS.keys())
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
        # the element-wise ops range-check both operands on either tier
        honest = CSR.from_coo((2, 3), [0, 1], [0, 2], [1.0, 2.0])
        broken = CSR((2, 3), np.array([0, 2, 1]), np.array([0, 1]), np.ones(2), check=False)
        for op in EWISE_OPS:
            for x, y in ((liar, honest), (honest, liar)):
                assert _both_tiers(lambda: op(x, y)) == (IndexError, "column index out of range")
            assert _both_tiers(lambda: op(honest, broken)) == (
                ValueError, "indptr / indices / data do not describe a CSR of this shape")
        # ... and one that ``take`` would have wrapped (-1) or refused with an
        # IndexError: relabelling it raises as from_coo does
        liar = CSR((3, 3), np.array([0, 2, 3, 4]), np.array([1, bad, 0, 0]), np.ones(4),
                   check=False)
        for build in (lambda: _prepare(liar, True), lambda: liar.permute(np.array([2, 0, 1]))):
            assert _both_tiers(build) == (ValueError, "column index out of range")

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

    def test_the_fused_prepare_reaches_its_loop(self, spy):
        g = rmat(10, seed=1)
        spy.calls.clear()
        got = _prepare(g, True)
        # the degree order's counting sort, then the two scatters
        assert spy.calls == ["repro_bucket_order", "repro_lower_by_degree"]
        assert _bytes(got) == _bytes(relabel_by_degree(g.pattern()).tril(-1))
        # (1, 0) stored twice: the loop declines and the NumPy body sums it, as permute does
        dup = CSR((3, 3), np.array([0, 2, 4, 6]), np.array([1, 1, 0, 0, 1, 0]), np.ones(6))
        spy.calls.clear()
        got = _prepare(dup, True)
        assert spy.calls.count("repro_lower_by_degree") == 1
        assert _bytes(got) == _bytes(relabel_by_degree(dup.pattern()).tril(-1))
        assert got.data.tolist() == [2.0, 1.0, 1.0]

    def test_degree_order_is_the_lexsort(self):
        for g in GRAPHS.values():
            deg = g.row_nnz()
            for ascending, key in ((False, -deg), (True, deg)):
                want = np.lexsort((np.arange(g.nrows), key))
                for scope in (contextlib.nullcontext, native.disabled):
                    with scope():
                        got = degree_sort_permutation(g, ascending=ascending)
                    assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_permutation_is_the_stable_argsort(self):
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
        _order_concurrently()


def _order_concurrently():
    """Two Python threads each order their own edge list 20 times; every
    result must be the NumPy body's."""
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


def _scatter_cases():
    """``(keys, nbuckets)``: what makes per-thread ranges hard."""
    rng = np.random.default_rng(5)
    yield "duplicate-keys", (rng.integers(0, 17, 6000), 17)
    hub = np.where(rng.random(6000) < 0.9, 42, rng.integers(0, 100, 6000))
    yield "hub-bucket", (hub, 100)  # one bucket holds 90 % of the keys
    yield "empty-buckets", (rng.choice([3, 500, 501, 1998], 6000), 2000)
    yield "one-bucket", (np.zeros(6000, dtype=np.int64), 1)
    yield "sorted-keys", (np.sort(rng.integers(0, 50, 6000)), 50)
    yield "k-much-larger-than-n", (rng.integers(0, 10**6, 300), 10**6)  # table rule: serial


SCATTERS = dict(_scatter_cases())


def _union_pairs():
    """``(x, y)`` pairs of one shape from the lattice's adversarial sets: every
    two of ``(a, b, mask)`` that share a shape, and the mask with its masked
    product (a sub-pattern) and with its complemented one (disjoint from it:
    BC's and BFS's visited-set merge)."""
    from .lattice import ADVERSARIAL

    for name, (a, b, m) in ADVERSARIAL.items():
        abm = (a, b, m)
        pairs = [(x, y) for x in abm for y in abm if x.shape == y.shape]
        pairs += [(m, masked_spgemm(a, b, m, algo="msa")),
                  (m, masked_spgemm(a, b, m, algo="msa", complement=True))]
        yield name, pairs


@needs_native
class TestPatternUnion:
    """``pattern_union`` (k-truss's symmetric pattern) on the
    native merge against the NumPy body, over the lattice's operands."""

    @pytest.fixture(scope="class")
    def pairs(self):
        return dict(_union_pairs())

    def test_native_is_the_numpy_bytes(self, pairs):
        for name, these in pairs.items():
            for x, y in these:
                got = _both_tiers(lambda: pattern_union(x, y))
                assert set(np.frombuffer(got[-1], dtype=np.float64)) <= {1.0}, name


@needs_native
class TestThreadedScatter:
    """Per-thread input ranges (``docs/kernels.md``, "The ordering loop"):
    the same permutation, offsets and payloads at every thread count."""

    @pytest.fixture(autouse=True)
    def every_size_threads(self, monkeypatch):
        monkeypatch.setattr(native, "PREPARE_PARALLEL_NNZ", 0)

    @pytest.mark.parametrize("name", SCATTERS)
    def test_scatter_is_the_stable_argsort_at_every_thread_count(self, name):
        keys, k = SCATTERS[name]
        rng = np.random.default_rng(6)
        ints, vals = rng.integers(-9, 9, keys.size), rng.random(keys.size)
        want = np.argsort(keys, kind="stable")
        starts = np.searchsorted(keys[want], np.arange(k + 1))
        for nthreads in (1, 2, 3):
            start, order, ints_out, vals_out = _bucket_order(keys, k, ints, vals, order=True,
                                                             nthreads=nthreads)
            assert np.array_equal(order, want), nthreads
            assert np.array_equal(start, starts), nthreads
            assert np.array_equal(ints_out, ints[want]), nthreads
            assert vals_out.tobytes() == vals[want].tobytes(), nthreads

    @pytest.mark.parametrize("name", [*CSRS, "hub-row", "hub-column"])
    def test_transpose_payloads_at_every_thread_count(self, name):
        hub = rmat(10, seed=2)
        mat = {"hub-row": hub, "hub-column": hub.transpose(), **CSRS}[name].sort_indices()
        with native.disabled():
            want = _bytes(mat.transpose())
        for nthreads in (1, 2, 3):
            assert _bytes(mat._transpose(nthreads)) == want, nthreads
            assert _bytes(CSC(mat.shape, mat._transpose(nthreads))) == _bytes(
                CSC.from_csr(mat)), nthreads

    def test_two_callers_each_scattering_on_every_core(self):
        _order_concurrently()  # over the (patched) crossover: two OpenMP teams at once

    def test_out_of_range_key_raises_and_writes_nothing(self):
        lib = native.load()
        keys = np.arange(6000, dtype=np.int64) % 7
        for bad in (-1, 7):
            keys[4321] = bad
            outs = [np.full(n, -5, dtype=np.int64) for n in (8, 6000, 6000)]
            start, order, idst = outs
            got = lib.repro_bucket_order(6000, 7, keys.ctypes.data, 0, None, start.ctypes.data,
                                         order.ctypes.data, keys.ctypes.data, idst.ctypes.data,
                                         None, None, 2)
            assert got == -1 and all((x == -5).all() for x in outs)
            with pytest.raises(ValueError, match="out of range"):
                _bucket_order(keys, 7, keys, order=True, nthreads=2)
        # a transpose whose indptr does not describe its entries is refused too
        liar = CSR((2, 3), np.array([0, 2, 1]), np.array([0, 1]), np.ones(2),
                   sorted_indices=True, check=False)
        with pytest.raises(ValueError):
            liar._transpose(2)

    @pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS.keys())
    def test_triangle_operand_at_two_threads(self, graph):
        perm = degree_sort_permutation(graph)
        with native.disabled():
            want = _bytes(lower_by_degree(graph))
        one, two = (_lower_by_degree(graph, perm, k) for k in (1, 2))
        assert (one is None) == (two is None)
        for got in (one, two):
            assert got is None or _bytes(got) == want
        assert _bytes(lower_by_degree(graph)) == want

    def test_triangle_operand_stored_twice_declines_at_two_threads(self):
        # (1, 0) stored twice: the loop returns -3 at any count, NumPy sums it
        dup = CSR((3, 3), np.array([0, 2, 4, 6]), np.array([1, 1, 0, 0, 1, 0]), np.ones(6))
        perm = degree_sort_permutation(dup)
        assert _lower_by_degree(dup, perm, 1) is None and _lower_by_degree(dup, perm, 2) is None
        with native.disabled():
            want = _bytes(lower_by_degree(dup))
        assert _bytes(lower_by_degree(dup)) == want


@needs_native
class TestScatterThreadCounts:
    """Who passes which count: ``backend="serial"`` and a pool work item reach
    ``native.c`` on one thread; every other caller passes the count it owns."""

    @pytest.fixture
    def spy(self, monkeypatch):
        monkeypatch.setattr(native, "PREPARE_PARALLEL_NNZ", 0)  # every size may thread
        spy = NativeSpy(native.load())
        monkeypatch.setattr(native, "_lib", spy)
        return spy

    def test_serial_backend_scatters_on_one_thread(self, spy):
        g = rmat(9, seed=3)
        a, b, m = (erdos_renyi(r, c, d, seed=d) for r, c, d in ((60, 50, 6), (50, 70, 5),
                                                                 (60, 70, 2)))
        spy.args.clear()  # the generators ordered their edges on every core
        masked_spgemm(a, b, m, algo="inner", backend="serial")  # the kernel's CSC build
        masked_spgemm(a, b, m, algo="auto", backend="serial")  # the executor's, if it plans inner
        triangle_count(g, backend="serial")  # TC's prepare: degree order and both scatters
        betweenness_centrality(g, np.arange(4), backend="serial")  # BC's transpose
        assert spy.threads("repro_lower_by_degree") == [1]
        assert spy.threads("repro_bucket_order") and set(spy.threads("repro_bucket_order")) == {1}
        spy.args.clear()
        execute(plan(a, b, m, algo="inner", threads=2, backend="thread"), a, b, m)
        assert spy.threads("repro_bucket_order") == [2]  # the count the plan owns

    def test_a_pool_work_item_scatters_on_one_thread(self, spy):
        a, b, m = (erdos_renyi(r, c, d, seed=d) for r, c, d in ((60, 50, 6), (50, 70, 5),
                                                                 (60, 70, 2)))
        spy.args.clear()
        task = Task(a=a, b=b, mask=m, b_csc=None, rows=(0, a.nrows),
                    algo="inner", phases=1, complement=False, impl="auto", semiring=PLUS_TIMES)
        r, c, v, _, _ = run_task(task)
        assert spy.threads("repro_bucket_order") == [1]
        want = masked_spgemm(a, b, m, algo="inner")
        assert np.array_equal(r, want.row_ids()) and np.array_equal(c, want.indices)

    def test_a_forked_child_scatters_on_one_thread(self):
        """libgomp's thread pool does not survive ``fork``: a forked child
        that entered a threaded region after the parent had used one would
        hang.  ``native.threads_for`` answers 1 in a forked child, so a
        transpose and a ``from_coo`` above the crossover there return."""
        code = (
            "import os\n"
            "import numpy as np\n"
            "from repro.core.kernels import native\n"
            "from repro.graphs import erdos_renyi\n"
            "from repro.sparse import CSR\n"
            "b = erdos_renyi(4096, 4096, 64, seed=1)\n"
            "assert b.nnz >= native.PREPARE_PARALLEL_NNZ\n"
            "r, c, v = b.to_coo()\n"
            "o = np.random.default_rng(0).permutation(r.size)\n"
            "fields = ('indptr', 'indices', 'data')\n"
            "t = b._transpose(2)  # two threads in the parent first\n"
            "want = [getattr(x, f).tobytes() for x in (t, b) for f in fields]\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    ok = native.threads_for(1, threads=2) == 1 == native.scatter_threads(1 << 40)\n"
            "    got = (b.transpose(), CSR.from_coo(b.shape, r[o], c[o], v[o]))\n"
            "    ok = ok and [getattr(x, f).tobytes() for x in got for f in fields] == want\n"
            "    os._exit(0 if ok else 3)\n"
            "assert os.waitpid(pid, 0)[1] == 0\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            out, err = "", "hung"
        finally:  # the forked child too
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert out == "ok\n", err[-3000:]


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
