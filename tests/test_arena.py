"""Tests for the kernel scratch arena (repro.core.kernels.arena).

The arena's contract is subtle enough to pin down explicitly:

* a buffer at rest in the arena holds ``fill`` in every cell (the kernels'
  dirty-cell resets maintain this), so a cache hit needs no initialisation;
* an exception inside a lease discards the buffer — a crashed kernel can
  never poison a later call with a half-dirty accumulator;
* the kernels that use it (MSA / Hash / ESC fast paths) must produce
  identical results on reused buffers, including after a poisoning attempt.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines import scipy_masked_spgemm
from repro.core import masked_spgemm
from repro.core.kernels import ScratchArena, arena_stats, clear_arena, get_arena

from .conftest import assert_csr_equal, random_csr


class TestScratchArena:
    def test_miss_then_hit(self):
        arena = ScratchArena()
        with arena.lease("k", np.float64, 0.0) as lease:
            buf = lease.require(100)
            assert buf.shape == (100,)
            assert np.all(buf == 0.0)
        assert arena.misses == 1
        with arena.lease("k", np.float64, 0.0) as lease:
            again = lease.require(100)
            assert np.shares_memory(again, buf)
        assert arena.hits == 1

    def test_fill_invariant_on_growth(self):
        arena = ScratchArena()
        with arena.lease("k", np.float64, 7.5) as lease:
            small = lease.require(10)
            assert np.all(small == 7.5)
            big = lease.require(1000)  # growth reallocates, refilled
            assert np.all(big == 7.5)

    def test_geometric_growth(self):
        arena = ScratchArena()
        with arena.lease("k", np.int64, 0) as lease:
            lease.require(100)
            lease.require(101)  # grows to max(101, 150)
            assert lease.array.shape[0] == 150

    def test_exception_discards_buffer(self):
        arena = ScratchArena()
        with pytest.raises(RuntimeError):
            with arena.lease("k", np.float64, 0.0) as lease:
                lease.require(50)[:] = 123.0  # dirty it
                raise RuntimeError("kernel died")
        assert arena.discarded == 1
        # next lease must miss and come back clean
        with arena.lease("k", np.float64, 0.0) as lease:
            assert np.all(lease.require(50) == 0.0)
        assert arena.misses == 2

    def test_dtype_change_does_not_alias(self):
        arena = ScratchArena()
        with arena.lease("k", np.float64, 0.0) as lease:
            lease.require(8)
        with arena.lease("k", np.bool_, False) as lease:
            buf = lease.require(8)
            assert buf.dtype == np.bool_
        assert arena.misses == 2

    def test_nested_lease_same_key_misses(self):
        arena = ScratchArena()
        with arena.lease("k", np.float64, 0.0) as outer:
            a = outer.require(10)
            with arena.lease("k", np.float64, 0.0) as inner:
                b = inner.require(10)
                assert not np.shares_memory(a, b)

    def test_fill_none_is_uninitialised(self):
        arena = ScratchArena()
        with arena.lease("k", np.float64, None) as lease:
            buf = lease.require(10)
            buf[:] = 3.0  # fully overwritten by contract; no reset needed
        with arena.lease("k", np.float64, None) as lease:
            assert lease.require(10).shape == (10,)

    def test_clear_and_stats(self):
        arena = ScratchArena()
        with arena.lease("k", np.float64, 0.0) as lease:
            lease.require(64)
        stats = arena.stats()
        assert stats["buffers"] == 1 and stats["nbytes"] == 64 * 8
        arena.clear()
        assert arena.stats()["buffers"] == 0

    def test_thread_local_arenas_are_distinct(self):
        seen = {}

        def grab(name):
            seen[name] = get_arena()

        t = threading.Thread(target=grab, args=("worker",))
        t.start()
        t.join()
        assert seen["worker"] is not get_arena()


class TestKernelsOnReusedBuffers:
    """The fast kernels must be call-order independent: repeated and
    interleaved invocations over the shared arena give identical results."""

    @pytest.fixture(autouse=True)
    def _fresh_arena(self):
        clear_arena()
        yield
        clear_arena()

    @pytest.mark.parametrize("algo", ["msa", "hash", "esc"])
    @pytest.mark.parametrize("complement", [False, True])
    def test_repeated_calls_identical(self, algo, complement):
        a = random_csr(40, 30, 4, seed=21)
        b = random_csr(30, 50, 4, seed=22)
        m = random_csr(40, 50, 6, seed=23)
        want = scipy_masked_spgemm(a, b, m, complement=complement)
        first = masked_spgemm(
            a, b, m, algo=algo, impl="fast", complement=complement
        )
        assert_csr_equal(first, want)
        for _ in range(3):  # now hitting warm buffers
            again = masked_spgemm(
                a, b, m, algo=algo, impl="fast", complement=complement
            )
            assert np.array_equal(again.indptr, first.indptr)
            assert np.array_equal(again.indices, first.indices)
            assert np.array_equal(again.data, first.data)
        stats = arena_stats()
        assert stats["hits"] > 0

    def test_interleaved_algos_and_sizes(self):
        triples = [
            (random_csr(12, 9, 2, seed=s), random_csr(9, 15, 3, seed=s + 1),
             random_csr(12, 15, 4, seed=s + 2))
            for s in (31, 41)
        ] + [
            (random_csr(60, 45, 5, seed=51), random_csr(45, 30, 4, seed=52),
             random_csr(60, 30, 6, seed=53))
        ]
        for _ in range(2):
            for a, b, m in triples:
                for algo in ("msa", "hash", "esc"):
                    got = masked_spgemm(a, b, m, algo=algo, impl="fast")
                    assert_csr_equal(got, scipy_masked_spgemm(a, b, m))

    def test_failed_call_does_not_poison_next(self):
        a = random_csr(20, 20, 3, seed=61)
        m = random_csr(20, 20, 3, seed=62)
        masked_spgemm(a, a, m, algo="msa", impl="fast")  # warm the arena
        wrong = random_csr(7, 5, 2, seed=63)
        with pytest.raises(ValueError):
            masked_spgemm(a, wrong, m, algo="msa", impl="fast")
        got = masked_spgemm(a, a, m, algo="msa", impl="fast")
        assert_csr_equal(got, scipy_masked_spgemm(a, a, m))

    def test_exception_mid_chunk_discards_the_rank_lease(self, monkeypatch, numpy_tier):
        from repro.core.kernels import batch

        a = random_csr(20, 20, 3, seed=61)
        m = random_csr(20, 20, 3, seed=62)
        want = scipy_masked_spgemm(a, a, m)
        masked_spgemm(a, a, m, algo="msa", impl="fast")  # park msa.rank
        assert "msa.rank" in get_arena()._buffers

        def boom(*args, **kwargs):
            raise RuntimeError("mid-chunk")

        monkeypatch.setattr(batch, "product_values", boom)
        before = arena_stats()["discarded"]
        with pytest.raises(RuntimeError, match="mid-chunk"):
            masked_spgemm(a, a, m, algo="msa", impl="fast")
        monkeypatch.undo()
        assert arena_stats()["discarded"] > before
        assert "msa.rank" not in get_arena()._buffers
        assert_csr_equal(masked_spgemm(a, a, m, algo="msa", impl="fast"), want)

    def test_inner_rank_lease_is_left_clean_or_discarded(self, numpy_tier):
        import dataclasses

        from repro.semiring import PLUS_TIMES

        a = random_csr(20, 20, 3, seed=61)
        m = random_csr(20, 20, 3, seed=62)
        want = scipy_masked_spgemm(a, a, m)
        assert_csr_equal(masked_spgemm(a, a, m, algo="inner", impl="fast"), want)
        parked = get_arena()._buffers["inner.rank"]
        assert parked.dtype == np.int32 and not parked.any()

        def boom(x, y):
            raise RuntimeError("mid-block")

        bad = dataclasses.replace(PLUS_TIMES, name="boom", mult_ufunc=boom)
        before = arena_stats()["discarded"]
        with pytest.raises(RuntimeError, match="mid-block"):
            masked_spgemm(a, a, m, algo="inner", impl="fast", semiring=bad)
        assert arena_stats()["discarded"] > before
        assert "inner.rank" not in get_arena()._buffers
        assert_csr_equal(masked_spgemm(a, a, m, algo="inner", impl="fast"), want)

    def test_nonzero_identity_semiring_buffers(self):
        # MIN_PLUS has +inf identity: its value buffers must not be shared
        # with PLUS_TIMES's zero-filled ones (fill is part of the key)
        from repro.semiring import MIN_PLUS

        a = random_csr(15, 15, 3, seed=71)
        m = random_csr(15, 15, 4, seed=72)
        plus = masked_spgemm(a, a, m, algo="msa", impl="fast")
        tropical = masked_spgemm(a, a, m, algo="msa", impl="fast", semiring=MIN_PLUS)
        plus2 = masked_spgemm(a, a, m, algo="msa", impl="fast")
        assert np.array_equal(plus.data, plus2.data)
        assert not np.array_equal(plus.data, tropical.data)
