"""Tests for the row partitioner, the row-slicing primitives and
row-parallel calls (a forced thread count, spelled ``plan(..., threads=,
backend=)`` -> ``execute``)."""

import inspect

import numpy as np
import pytest

from repro.baselines import scipy_masked_spgemm
from repro.core import masked_spgemm
from repro.engine import Planner, execute, plan
from repro.machine import OpCounter, simulate_makespan
from repro.parallel import balanced_partition, pool_size
from repro.parallel.executor import row_block
from repro.parallel.pool import _rows_of

from .conftest import assert_csr_equal, random_csr


def _parts(bounds):
    """The row ranges ``[lo, hi)`` that ``balanced_partition``'s bounds cut."""
    return [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _check_partition(bounds, n):
    """Bounds from 0 to n, non-decreasing: every row in exactly one part."""
    assert bounds[0] == 0 and bounds[-1] == n
    assert np.all(np.diff(bounds) >= 0)


def _parallel(a, b, m, *, threads, algo="msa", backend="thread", counter=None, **kw):
    """A row-parallel call: ``threads`` forced on a plan the caller holds."""
    pl = plan(a, b, m, algo=algo, threads=threads, backend=backend, **kw)
    return execute(pl, a, b, m, counter=counter)


class TestPartitioners:
    @pytest.mark.parametrize("n,p", [(10, 3), (100, 7), (5, 8), (0, 2), (64, 1)])
    def test_block_covers_all(self, n, p):
        """Unweighted rows are cut into contiguous blocks of about equal
        count."""
        bounds = balanced_partition(np.zeros(n), p)
        assert len(bounds) == p + 1
        _check_partition(bounds, n)
        sizes = np.diff(bounds)
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n,p", [(10, 3), (100, 7), (5, 8), (64, 1)])
    def test_cyclic_covers_all(self, n, p):
        """Round-robin rows live on only as the makespan simulator's
        ``cyclic`` schedule (the process backend cuts flop-balanced blocks):
        it hands every row out once, so unit rows finish in ``ceil(n / p)``
        and weighted ones on the heaviest stride."""
        assert simulate_makespan(np.ones(n), p, schedule="cyclic") == -(-n // p)
        w = np.arange(1.0, n + 1)
        want = max(w[i::p].sum() for i in range(p))
        assert simulate_makespan(w, p, schedule="cyclic") == want

    def test_balanced_covers_all(self):
        w = np.random.default_rng(0).random(97)
        _check_partition(balanced_partition(w, 5), 97)

    def test_balanced_actually_balances(self):
        # one heavy prefix: balanced splits must not put everything in part 0
        w = np.zeros(100)
        w[:10] = 100.0
        w[10:] = 1.0
        sums = [w[p].sum() for p in _parts(balanced_partition(w, 5))]
        assert max(sums) < 0.5 * w.sum()

    def test_balanced_contiguous(self):
        w = np.random.default_rng(1).random(50)
        bounds = balanced_partition(w, 4)
        assert len(bounds) == 5 and bounds.dtype == np.int64
        _check_partition(bounds, 50)

    def test_balanced_zero_weights(self):
        _check_partition(balanced_partition(np.zeros(10), 3), 10)

    def test_invalid_parts(self):
        for weights in (np.zeros(10), np.ones(4)):
            for bad in (0, -1):
                with pytest.raises(ValueError):
                    balanced_partition(weights, bad)


class TestRowSlice:
    """A work item's rows ``[lo, hi)`` of an operand (``pool._rows_of``):
    the operand itself for the full range, else the zero-copy
    :func:`row_block` and the offset that lifts its row ids back."""

    def test_contiguous_matches_select_rows(self):
        a = random_csr(30, 20, 4, seed=71)
        for lo, hi in [(0, 30), (0, 1), (5, 12), (29, 30), (7, 7)]:
            got, offset = _rows_of(a, (lo, hi))
            want = a.select_rows(np.arange(lo, hi, dtype=np.int64))
            r, c, v = got.to_coo()
            wr, wc, wv = want.to_coo()
            assert np.array_equal(r + offset, wr)
            assert np.array_equal(c, wc)
            assert np.array_equal(v, wv)

    def test_contiguous_fast_path_shares_buffers(self):
        a = random_csr(30, 20, 4, seed=72)
        sliced, offset = _rows_of(a, (5, 15))
        # views into the parent's arrays, not copies
        assert offset == 5 and sliced.nrows == 10
        assert np.shares_memory(sliced.indices, a.indices)
        assert np.shares_memory(sliced.data, a.data)

    def test_empty_rows(self):
        a = random_csr(10, 8, 2, seed=75)
        got, _ = _rows_of(a, (4, 4))
        assert got.shape == (0, a.ncols) and got.nnz == 0

    def test_full_range_returns_same_matrix(self):
        # the degenerate one-partition case must not copy anything
        a = random_csr(20, 12, 3, seed=76)
        got, offset = _rows_of(a, (0, 20))
        assert got is a and offset == 0


class TestRowBlock:
    """row_block is the compact (hi-lo)-row slice the partitioned executor
    uses internally: O(block) indptr work instead of O(nrows)."""

    def test_matches_select_rows_after_offset(self):
        a = random_csr(30, 20, 4, seed=81)
        for lo, hi in [(0, 30), (0, 1), (5, 12), (29, 30)]:
            got = row_block(a, lo, hi)
            want = a.select_rows(np.arange(lo, hi, dtype=np.int64))
            assert got.shape == (hi - lo, 20)
            r, c, v = got.to_coo()
            wr, wc, wv = want.to_coo()
            assert np.array_equal(r + lo, wr)
            assert np.array_equal(c, wc)
            assert np.array_equal(v, wv)

    def test_indptr_cost_is_block_local(self):
        a = random_csr(1000, 10, 2, seed=82)
        got = row_block(a, 500, 510)
        assert got.indptr.shape[0] == 11  # hi - lo + 1, not nrows + 1
        assert np.shares_memory(got.indices, a.indices)
        assert np.shares_memory(got.data, a.data)


class TestThreadsOneFastPath:
    def test_threads_must_be_positive(self, small_triple):
        a, b, m = small_triple
        for bad in (0, -1, -7):
            with pytest.raises(ValueError, match="threads"):
                _parallel(a, b, m, threads=bad)

    def test_single_thread_builds_no_pool(self, small_triple):
        # threads=1 must run in-process on one thread without standing up
        # any worker pool, whichever backend is named
        from repro.parallel import shutdown_pool

        shutdown_pool()
        a, b, m = small_triple
        for backend in ("thread", "process"):
            got = _parallel(a, b, m, threads=1, backend=backend)
            assert pool_size() == 0
            assert_csr_equal(got, scipy_masked_spgemm(a, b, m))


class TestParallelDriver:
    @pytest.mark.parametrize("partition", ["block", "cyclic", "balanced"])
    @pytest.mark.parametrize("backend", ["serial", pytest.param("thread", id="threads")])
    def test_matches_oracle(self, partition, backend, small_triple):
        """The row splits the deleted partition option named, as spelled now:
        equal-count blocks are the native row loop's own (its in-kernel
        threads), flop-balanced parts the process pool's, and round-robin
        rows no spelling at all: the planner takes no ``partition``
        keyword."""
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m)
        if partition == "block":
            got = _parallel(a, b, m, threads=4, backend=backend)
        else:
            if partition == "cyclic":
                assert partition not in repr(inspect.signature(Planner.plan))
            got = _parallel(a, b, m, threads=4, backend=backend)
        assert_csr_equal(got, want)

    @pytest.mark.parametrize("algo", ["msa", "hash", "mca", "inner"])
    def test_all_fast_algos(self, algo, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m)
        got = _parallel(a, b, m, algo=algo, threads=3)
        assert_csr_equal(got, want)

    def test_complement(self, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m, complement=True)
        got = _parallel(a, b, m, threads=4, complement=True)
        assert_csr_equal(got, want)

    def test_more_threads_than_rows(self):
        a = random_csr(3, 5, 2, seed=61)
        b = random_csr(5, 4, 2, seed=62)
        m = random_csr(3, 4, 2, seed=63)
        got = _parallel(a, b, m, threads=16)
        assert_csr_equal(got, scipy_masked_spgemm(a, b, m))

    def test_single_thread(self, small_triple):
        a, b, m = small_triple
        got = _parallel(a, b, m, threads=1)
        assert_csr_equal(got, scipy_masked_spgemm(a, b, m))

    def test_counter_merged_across_workers(self, small_triple):
        a, b, m = small_triple
        serial = OpCounter()
        _parallel(a, b, m, threads=1, counter=serial)
        merged = OpCounter()
        _parallel(a, b, m, threads=4, counter=merged)
        # work decomposition must not change the total useful flops
        assert merged.flops == serial.flops
        assert merged.output_nnz == serial.output_nnz

    def test_deterministic_regardless_of_threads(self, small_triple):
        a, b, m = small_triple
        r1 = _parallel(a, b, m, threads=1)
        r4 = _parallel(a, b, m, threads=4, backend="process")
        assert r1.equals(r4)

    def test_validation(self, small_triple):
        a, b, m = small_triple
        for bad in (0, 2.5, "2"):
            with pytest.raises(ValueError, match="threads must be positive"):
                _parallel(a, b, m, threads=bad)
        # one name per backend: "threads" was a second spelling of "thread"
        for bad in ("mpi", "threads"):
            with pytest.raises(ValueError, match="backend must be one of"):
                _parallel(a, b, m, threads=2, backend=bad)
        assert "partition" not in inspect.signature(Planner.plan).parameters
