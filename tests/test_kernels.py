"""Unit tests for the vectorized kernel machinery (expansion, vector hash
table, block iteration) — the parts of the fast tier with their own logic."""

import contextlib

import numpy as np
import pytest

from repro.core.kernels import (
    DEFAULT_FLOP_BUDGET,
    VectorHashTable,
    expand_products,
    iter_row_blocks,
    row_keys,
)
from repro.core import masked_spgemm
from repro.core.kernels import native
from repro.core.kernels.msa_kernel import masked_spgemm_msa_fast
from repro.core.kernels.hash_kernel import masked_spgemm_hash_fast
from repro.core.symbolic import symbolic_masked
from repro.baselines import scipy_masked_spgemm
from repro.machine import OpCounter, total_flops
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES
from repro.sparse import CSR

from .conftest import assert_csr_equal, random_csr
from .test_native import OPERANDS, _bytes


class TestExpandProducts:
    def test_count_equals_flops(self):
        a = random_csr(20, 15, 4, seed=1)
        b = random_csr(15, 18, 4, seed=2)
        rows, cols, vals = expand_products(a, b, 0, 20, PLUS_TIMES)
        assert rows.shape[0] == total_flops(a, b)

    def test_products_correct(self):
        a = random_csr(10, 8, 3, seed=3)
        b = random_csr(8, 9, 3, seed=4)
        rows, cols, vals = expand_products(a, b, 0, 10, PLUS_TIMES)
        # summing the expansion reproduces the full product
        dense = np.zeros((10, 9))
        np.add.at(dense, (rows, cols), vals)
        want = a.to_dense() @ b.to_dense()
        assert np.allclose(dense, want)

    def test_row_range(self):
        a = random_csr(10, 8, 3, seed=5)
        b = random_csr(8, 9, 3, seed=6)
        rows, _, _ = expand_products(a, b, 3, 7, PLUS_TIMES)
        if rows.shape[0]:
            assert rows.min() >= 3
            assert rows.max() < 7

    def test_empty_range(self):
        a = random_csr(10, 8, 3, seed=7)
        b = random_csr(8, 9, 3, seed=8)
        rows, cols, vals = expand_products(a, b, 2, 2, PLUS_TIMES)
        assert rows.shape[0] == 0

    def test_grouped_by_row(self):
        a = random_csr(12, 10, 3, seed=9)
        b = random_csr(10, 10, 3, seed=10)
        rows, _, _ = expand_products(a, b, 0, 12, PLUS_TIMES)
        assert np.all(np.diff(rows) >= 0)


class TestIterRowBlocks:
    def test_covers_all_rows(self):
        a = random_csr(50, 40, 5, seed=11)
        b = random_csr(40, 45, 5, seed=12)
        blocks = list(iter_row_blocks(a, b, flop_budget=100))
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 50
        for (l1, h1), (l2, h2) in zip(blocks, blocks[1:]):
            assert h1 == l2
            assert l1 < h1

    def test_budget_respected(self):
        from repro.machine import flops_per_row

        a = random_csr(50, 40, 5, seed=13)
        b = random_csr(40, 45, 5, seed=14)
        fl = flops_per_row(a, b)
        for lo, hi in iter_row_blocks(a, b, flop_budget=100):
            if hi - lo > 1:  # single oversized rows are allowed
                assert fl[lo:hi].sum() <= 100

    def test_one_big_block_when_budget_large(self):
        a = random_csr(20, 20, 3, seed=15)
        b = random_csr(20, 20, 3, seed=16)
        blocks = list(iter_row_blocks(a, b, DEFAULT_FLOP_BUDGET))
        assert blocks == [(0, 20)]


class TestRowKeys:
    def test_bijective(self):
        rows = np.array([0, 1, 2, 2])
        cols = np.array([5, 0, 3, 4])
        keys = row_keys(rows, cols, 10)
        assert np.array_equal(keys // 10, rows)
        assert np.array_equal(keys % 10, cols)

    def test_ordering(self):
        # row-major ordering is preserved
        keys = row_keys(np.array([0, 0, 1]), np.array([1, 2, 0]), 100)
        assert np.all(np.diff(keys) > 0)


class TestVectorHashTable:
    def test_insert_lookup_roundtrip(self):
        t = VectorHashTable(100)
        keys = np.arange(0, 1000, 10, dtype=np.int64)
        slots = t.insert(keys)
        found, s2 = t.lookup(keys)
        assert found.all()
        assert np.array_equal(slots, s2)

    def test_absent_keys(self):
        t = VectorHashTable(10)
        t.insert(np.array([1, 2, 3], dtype=np.int64))
        found, _ = t.lookup(np.array([4, 5, 1], dtype=np.int64))
        assert np.array_equal(found, [False, False, True])

    def test_colliding_keys_resolve(self):
        t = VectorHashTable(8)
        cap = t.cap
        keys = np.array([3, 3 + cap, 3 + 2 * cap, 7], dtype=np.int64)
        slots = t.insert(keys)
        assert len(set(slots.tolist())) == 4  # all distinct slots
        found, s2 = t.lookup(keys)
        assert found.all()
        assert np.array_equal(slots, s2)

    def test_idempotent_insert(self):
        t = VectorHashTable(8)
        k = np.array([42], dtype=np.int64)
        s1 = t.insert(k)
        s2 = t.insert(k)
        assert s1[0] == s2[0]

    def test_probe_counting(self):
        c = OpCounter()
        t = VectorHashTable(8, counter=c)
        t.insert(np.array([1, 2, 3], dtype=np.int64))
        assert c.hash_probes >= 3

    def test_capacity_power_of_two_and_load(self):
        for n in (1, 5, 33, 1000):
            t = VectorHashTable(n)
            assert t.cap & (t.cap - 1) == 0
            assert t.cap >= 4 * n

    def test_empty_lookup(self):
        t = VectorHashTable(4)
        found, slots = t.lookup(np.empty(0, dtype=np.int64))
        assert found.shape[0] == 0


class TestKernelBlocking:
    """Fast kernels must be invariant to the flop-budget blocking."""

    @pytest.mark.parametrize("budget", [1, 17, 1000, DEFAULT_FLOP_BUDGET])
    def test_msa_blocking_invariant(self, budget, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m)
        got = masked_spgemm_msa_fast(a, b, m, flop_budget=budget)
        assert_csr_equal(got, want, msg=f"budget={budget}")

    @pytest.mark.parametrize("budget", [1, 17, 1000])
    def test_hash_blocking_invariant(self, budget, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m)
        got = masked_spgemm_hash_fast(a, b, m, flop_budget=budget)
        assert_csr_equal(got, want)

    @pytest.mark.parametrize("dense_budget", [8, 64, 1 << 22])
    def test_msa_dense_budget_invariant(self, dense_budget, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m)
        got = masked_spgemm_msa_fast(a, b, m, dense_budget=dense_budget)
        assert_csr_equal(got, want)

    def test_counters_track_products(self, small_triple):
        a, b, m = small_triple
        c = OpCounter()
        masked_spgemm_msa_fast(a, b, m, counter=c)
        assert c.accum_inserts == total_flops(a, b)
        assert c.accum_allowed == m.nnz


def _random_values(mat: CSR, seed: int) -> CSR:
    """``mat``'s pattern with finite random values (the operand sets carry
    NaN / inf / signed zeros, which no tolerance comparison survives)."""
    mat = mat.sort_indices()
    data = np.random.default_rng(seed).uniform(-1.0, 1.0, mat.nnz)
    return CSR(mat.shape, mat.indptr, mat.indices, data, sorted_indices=True)


@pytest.mark.batch  # the native-tier CI job runs this marker with both tiers live
class TestCrossAlgorithmIdentity:
    """The byte-identity classes of the push algorithms (docs/kernels.md):
    with a plain mask ``msa``, ``mca`` and ``hash`` accumulate each output
    cell sequentially in product order, with a complemented mask ``hash``
    and ``esc`` both stable-sort and segment-reduce — so within a class the
    CSR bytes are equal, and each agrees with the reference tier.  And the 2P symbolic pass counts exactly what
    the numeric pass emits, on both kernel tiers."""

    CLASSES = ((False, ("msa", "mca", "hash")), (True, ("hash", "esc")))

    @pytest.mark.parametrize("name", OPERANDS)
    def test_classes_are_byte_equal(self, name, numpy_tier):
        a, b, m = OPERANDS[name]
        ra, rb = _random_values(a, 1), _random_values(b, 2)
        for sr, x, y in ((PLUS_TIMES, ra, rb), (PLUS_PAIR, a, b), (MIN_PLUS, ra, rb)):
            for complement, algos in self.CLASSES:
                want = masked_spgemm(x, y, m, algo="msa", impl="reference",
                                     complement=complement, semiring=sr)
                first = None
                for algo in algos:
                    got = masked_spgemm(x, y, m, algo=algo,
                                        complement=complement, semiring=sr)
                    case = (name, sr.name, complement, algo)
                    first = got if first is None else first
                    assert _bytes(got) == _bytes(first), case
                    assert_csr_equal(got, want, msg=str(case))

    @pytest.mark.parametrize("name", OPERANDS)
    @pytest.mark.parametrize("tier", ("numpy", "native"))
    @pytest.mark.parametrize("complement", (False, True))
    def test_symbolic_counts_what_numeric_emits(self, name, tier, complement):
        if tier == "native" and native.load() is None:
            pytest.skip("no C compiler: native tier unavailable")
        a, b, m = OPERANDS[name]
        with native.disabled() if tier == "numpy" else contextlib.nullcontext():
            counter = OpCounter()
            counts = symbolic_masked(a, b, m, complement=complement, counter=counter)
            numeric = masked_spgemm(a, b, m, algo="msa", complement=complement,
                                    semiring=PLUS_PAIR)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.diff(numeric.indptr))
        assert counter.symbolic_flops == total_flops(a.sort_indices(), b.sort_indices())
        assert {k for k, v in counter.as_dict().items() if v} <= {"symbolic_flops"}
