"""Batched kernel tier: helper invariants, boundary cases and bit-for-bit
equivalence of the bucketed tier against the per-row tier.

The contract under test (docs/kernels.md): ``batch="bucket"`` and
``batch="perrow"`` produce identical matrices (values included) and
identical ``OpCounter`` totals — on every backend, with and without
sessions, fused (2P + symbolic bound) or not — and the native-tier seam
(:mod:`repro.core.kernels.native`) never changes results whichever side
dispatches.  ``batch=`` is how the *NumPy* bodies chunk rows (the native
loops have no chunks), so everything but the seam class runs on the NumPy
tier; ``tests/test_native.py`` is the native-vs-NumPy differential.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.baselines import scipy_masked_spgemm
from repro.core.kernels import native
from repro.core.kernels.batch import (
    BATCH_TIERS,
    DEFAULT_BATCH_CROSSOVER_FLOPS,
    FusedSlab,
    bucket_batches,
    bucket_census,
    bucket_ids,
    expand_keys,
    per_row_flops,
    plan_flop_blocks,
    product_values,
    resolve_tier,
)
from repro.core.kernels.expand import expand_products
from repro.core.kernels.hash_kernel import VectorHashTable, masked_spgemm_hash_fast
from repro.core.kernels.msa_kernel import MSA_FLOP_BUDGET, masked_spgemm_msa_fast
from repro.core.masked_spgemm import masked_spgemm
from repro.engine import ExecutionSession, Planner, execute
from repro.graphs import erdos_renyi, rmat
from repro.machine import OpCounter
from repro.observe import probes as _probes
from repro.parallel.pool import shutdown_pool
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES, STANDARD_SEMIRINGS
from repro.sparse import CSR, read_mtx

from .conftest import NativeSpy, native_required

pytestmark = pytest.mark.batch

DATA = Path(__file__).parent.parent / "data"
BATCHABLE = ("msa", "hash", "esc")
BACKENDS = ("serial", "thread", "process")


def _rand_csr(nr, nc, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random((nr, nc)) < density
    rows, cols = np.nonzero(dense)
    vals = rng.random(rows.size)
    return CSR.from_coo(
        (nr, nc), rows.astype(np.int64), cols.astype(np.int64), vals
    )


def _identical(c1: CSR, c2: CSR) -> bool:
    return (
        c1.shape == c2.shape
        and np.array_equal(c1.indptr, c2.indptr)
        and np.array_equal(c1.indices, c2.indices)
        and np.array_equal(c1.data, c2.data)
    )


def _run(a, b, m, algo, tier, **kw):
    counter = OpCounter()
    out = masked_spgemm(
        a, b, m, algo=algo, batch=tier, counter=counter, **kw
    )
    return out, counter.as_dict()


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pool()


@pytest.fixture(autouse=True)
def _numpy_bodies(request):
    if request.cls is TestCompiledSeam:
        yield
    else:
        with native.disabled():
            yield


# ----------------------------------------------------------------------
# helper invariants
# ----------------------------------------------------------------------
class TestHelpers:
    def _greedy_reference(self, per_row, budget):
        """The historical per-row greedy walk, kept as the oracle."""
        blocks, lo, acc = [], 0, 0
        for i, f in enumerate(per_row):
            if acc > 0 and acc + int(f) > budget:
                blocks.append((lo, i))
                lo, acc = i, 0
            acc += int(f)
        if lo < len(per_row):
            blocks.append((lo, len(per_row)))
        return blocks

    def test_plan_flop_blocks_matches_greedy_walk(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(0, 40))
            per = rng.integers(0, 50, size=n).astype(np.int64)
            # salt with zero runs and mega-rows — the historical edge cases
            if n and trial % 3 == 0:
                per[rng.integers(0, n)] = 0
            if n and trial % 5 == 0:
                per[rng.integers(0, n)] = 10_000
            budget = int(rng.integers(1, 60))
            got = list(plan_flop_blocks(per, budget))
            assert got == self._greedy_reference(per, budget)

    def test_bucket_ids_are_bit_lengths(self):
        per = np.array([0, 1, 2, 3, 4, 7, 8, 1023, 1024], dtype=np.int64)
        want = [int(x).bit_length() for x in per]
        assert bucket_ids(per).tolist() == want

    def test_bucket_batches_partition_rows_exactly_once(self):
        rng = np.random.default_rng(1)
        per = rng.integers(0, 4096, size=300).astype(np.int64)
        per[:40] = 0
        seen = np.zeros(per.size, dtype=np.int64)
        for b, rows in bucket_batches(per, flop_budget=256, width_cap=16):
            assert rows.size <= 16
            assert bool(np.all(np.diff(rows) > 0))  # ascending within chunk
            assert bool(np.all(bucket_ids(per[rows]) == b))
            np.add.at(seen, rows, 1)
        assert bool(np.all(seen == 1))

    def test_bucket_batches_skips_empty_bucket_on_request(self):
        per = np.array([0, 0, 5, 0, 9], dtype=np.int64)
        got = [r for _, r in bucket_batches(per, 64, include_empty=False)]
        assert sorted(int(x) for rows in got for x in rows) == [2, 4]

    def test_bucket_census(self):
        per = np.array([0, 0, 1, 2, 3, 8], dtype=np.int64)
        assert bucket_census(per) == {0: 2, 1: 1, 2: 2, 4: 1}
        assert bucket_census(np.empty(0, dtype=np.int64)) == {}

    def test_resolve_tier_crossover_and_validation(self):
        a = _rand_csr(20, 20, 0.3, 0)
        b = _rand_csr(20, 20, 0.3, 1)
        total = int(per_row_flops(a, b).sum())
        assert resolve_tier(a, b, "auto", crossover=total + 1) == "perrow"
        assert resolve_tier(a, b, "auto", crossover=total) == "bucket"
        assert resolve_tier(a, b, "bucket", crossover=10**12) == "bucket"
        with pytest.raises(ValueError, match="batch must be one of"):
            resolve_tier(a, b, "bogus")
        assert DEFAULT_BATCH_CROSSOVER_FLOPS == 1 << 18
        assert resolve_tier(a, b, "auto") == "perrow"

    def test_expand_keys_reproduces_expand_products(self):
        a = _rand_csr(25, 18, 0.25, 2)
        b = _rand_csr(18, 30, 0.25, 3)
        rows = np.arange(a.nrows, dtype=np.int64)
        p_keys, p_bpos, a_pos, ends = expand_keys(a, b, rows, rows)
        pr, pc, pv = expand_products(a, b, 0, a.nrows, PLUS_TIMES)
        assert np.array_equal(p_keys, pr * b.ncols + pc)
        assert np.array_equal(b.indices[p_bpos], pc)
        # lazily multiplying any subset equals filtering the eager products
        for idx in (np.arange(pv.size), np.flatnonzero(pc % 3 == 0)):
            lazy = product_values(PLUS_TIMES, a, b, a_pos, ends, p_bpos, idx)
            assert np.array_equal(lazy, pv[idx])
        ones = product_values(PLUS_PAIR, a, b, a_pos, ends, p_bpos, idx)
        assert np.array_equal(ones, np.ones(idx.size))

    def test_fused_slab_detects_symbolic_mismatch(self):
        slab = FusedSlab((2, 4), np.array([1, 1], dtype=np.int64))
        with pytest.raises(AssertionError, match="symbolic/numeric mismatch"):
            slab.write_rows(
                np.array([0]), np.array([2]), np.array([1, 2]), np.array([1.0, 2.0])
            )
        slab2 = FusedSlab((2, 4), np.array([1, 1], dtype=np.int64))
        slab2.write_rows(np.array([0]), np.array([1]), np.array([1]), np.array([1.0]))
        with pytest.raises(AssertionError, match="symbolic/numeric mismatch"):
            slab2.finish()


# ----------------------------------------------------------------------
# bucket boundary cases
# ----------------------------------------------------------------------
class TestBucketBoundaries:
    def _assert_tiers_identical(self, a, b, m, *, semiring=PLUS_TIMES):
        for algo in BATCHABLE:
            for complement in (False, True):
                for phases in (1, 2):
                    o1, c1 = _run(
                        a, b, m, algo, "perrow",
                        complement=complement, phases=phases,
                        semiring=semiring,
                    )
                    o2, c2 = _run(
                        a, b, m, algo, "bucket",
                        complement=complement, phases=phases,
                        semiring=semiring,
                    )
                    assert _identical(o1, o2), (algo, complement, phases)
                    assert c1 == c2, (algo, complement, phases)

    def test_empty_rows(self):
        # half of A's rows (and a few mask rows) are structurally empty —
        # they land in bucket 0 and must emit/charge exactly nothing
        a = _rand_csr(30, 20, 0.3, 10)
        keep = np.repeat(np.arange(30, dtype=np.int64)[::2], a.row_nnz()[::2])
        sel = np.isin(
            np.repeat(np.arange(30, dtype=np.int64), a.row_nnz()), keep
        )
        rows, cols, vals = a.to_coo()
        a = CSR.from_coo((30, 20), rows[sel], cols[sel], vals[sel])
        b = _rand_csr(20, 25, 0.3, 11)
        m = _rand_csr(30, 25, 0.4, 12)
        self._assert_tiers_identical(a, b, m)

    def test_all_rows_empty(self):
        a = CSR.empty((8, 6))
        b = _rand_csr(6, 7, 0.5, 13)
        m = _rand_csr(8, 7, 0.5, 14)
        self._assert_tiers_identical(a, b, m)

    def test_single_mega_row_dominates_its_bucket(self):
        # one row expands to ~nc*k products (far over any chunk budget on
        # its own), the rest are tiny — exercises the over-budget
        # one-row-chunk path and bucket skew
        nr, k, nc = 20, 40, 40
        rng = np.random.default_rng(15)
        rows = [np.zeros(k, dtype=np.int64)]
        cols = [np.arange(k, dtype=np.int64)]
        for i in range(1, nr):
            rows.append(np.full(1, i, dtype=np.int64))
            cols.append(rng.integers(0, k, size=1).astype(np.int64))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        a = CSR.from_coo((nr, k), rows, cols, rng.random(rows.size))
        b = _rand_csr(k, nc, 0.6, 16)
        m = _rand_csr(nr, nc, 0.5, 17)
        per = per_row_flops(a, b)
        assert int(per[0]) > 4 * int(per[1:].max())
        self._assert_tiers_identical(a, b, m)

    def test_all_rows_one_bucket(self):
        # uniform 4-nnz rows against a uniform B: a single size class
        nr, k, nc = 24, 16, 16
        rng = np.random.default_rng(18)
        cols = np.stack([
            rng.choice(k, size=4, replace=False) for _ in range(nr)
        ]).astype(np.int64)
        rows = np.repeat(np.arange(nr, dtype=np.int64), 4)
        a = CSR.from_coo((nr, k), rows, cols.ravel(), rng.random(rows.size))
        bc = np.stack([
            rng.choice(nc, size=3, replace=False) for _ in range(k)
        ]).astype(np.int64)
        b = CSR.from_coo(
            (k, nc),
            np.repeat(np.arange(k, dtype=np.int64), 3),
            bc.ravel(),
            rng.random(3 * k),
        )
        m = _rand_csr(nr, nc, 0.5, 19)
        assert len(bucket_census(per_row_flops(a, b))) == 1
        self._assert_tiers_identical(a, b, m)

    def test_tiny_flop_budget_forces_many_chunks(self):
        g = rmat(7, seed=5).pattern().tril(-1)
        for algo in BATCHABLE:
            c1 = OpCounter()
            c2 = OpCounter()
            kern = masked_spgemm  # same entry, different tiers
            o1 = kern(g, g, g, algo=algo, batch="perrow", counter=c1,
                      semiring=PLUS_PAIR)
            o2 = kern(g, g, g, algo=algo, batch="bucket", counter=c2,
                      semiring=PLUS_PAIR)
            assert _identical(o1, o2) and c1.as_dict() == c2.as_dict()

    def test_non_add_semiring_equivalence(self):
        # MIN_PLUS routes around the native seam (add_ufunc is minimum)
        a = _rand_csr(30, 30, 0.2, 20)
        b = _rand_csr(30, 30, 0.2, 21)
        m = _rand_csr(30, 30, 0.4, 22)
        self._assert_tiers_identical(a, b, m, semiring=MIN_PLUS)


# ----------------------------------------------------------------------
# the one MSA body against the reference tier, on adversarial operands
# ----------------------------------------------------------------------
def _bits(c: CSR):
    return (c.shape, c.indptr.tobytes(), c.indices.tobytes(), c.data.tobytes())


def _signed_csr(nr, nc, density, seed, dtype=np.float64):
    g = _rand_csr(nr, nc, density, seed)
    vals = (g.data - 0.5).astype(dtype)
    return CSR(g.shape, g.indptr, g.indices, vals, sorted_indices=True)


def _without_rows(g: CSR, rows) -> CSR:
    r, c, v = g.to_coo()
    keep = ~np.isin(r, rows)
    return CSR.from_coo(g.shape, r[keep], c[keep], v[keep])


def _adversarial():
    a = _signed_csr(24, 18, 0.3, 40)
    b = _signed_csr(18, 20, 0.3, 41)
    m = _rand_csr(24, 20, 0.4, 42)
    evens = np.arange(0, 24, 2)
    yield "empty-mask-rows", a, b, _without_rows(m, evens)
    yield "empty-a-rows", _without_rows(a, evens), b, m
    yield "mask-without-nonzeros", a, b, CSR.empty((24, 20))
    yield "one-column", a, _signed_csr(18, 1, 0.6, 43), _rand_csr(24, 1, 0.7, 44)
    yield "float32", _signed_csr(24, 18, 0.3, 45, np.float32), \
        _signed_csr(18, 20, 0.3, 46, np.float32), m
    # no explicit zeros: the reference's first insert keeps a -0.0 product's
    # sign where the fast tier's 0.0 + -0.0 does not
    ints = np.random.default_rng(47).choice([-3, -2, -1, 1, 2, 3], size=a.nnz)
    yield "int-valued", CSR(a.shape, a.indptr, a.indices, ints,
                            sorted_indices=True), b, m
    # 1*1 + (-1)*1: a PLUS sum that cancels to exactly 0.0 stays SET
    yield "cancelling-sum", \
        CSR.from_coo((1, 2), [0, 0], [0, 1], [1.0, -1.0]), \
        CSR.from_coo((2, 1), [0, 1], [0, 0], [1.0, 1.0]), \
        CSR.from_coo((1, 1), [0], [0], [1.0])


def _msa_charges(a, b, m, complement, reference: OpCounter) -> dict:
    """What one MSA call charges: every field is a per-row sum, so the
    totals follow from the operands and the reference tier's exact
    useful-flop and output counts."""
    want = OpCounter().as_dict()
    out = reference.output_nnz
    want.update(
        accum_allowed=m.nnz,
        accum_inserts=int(per_row_flops(a, b).sum()),
        flops=reference.flops,
        accum_removes=out if complement else m.nnz,
        spa_resets=out + m.nnz if complement else m.nnz,
        output_nnz=out,
    )
    return want


class TestMsaAgainstReference:
    """Values bitwise equal to the pseudocode-faithful reference tier, and
    ``OpCounter``s equal to the kernel's per-row-sum charges, over
    semirings x complement x phases x batch."""

    @pytest.mark.parametrize(
        "a, b, m", [pytest.param(*t[1:], id=t[0]) for t in _adversarial()]
    )
    def test_adversarial_operands(self, a, b, m):
        for sr in STANDARD_SEMIRINGS.values():
            fast = {}
            for complement in (False, True):
                ref_c = OpCounter()
                want = masked_spgemm(
                    a, b, m, algo="msa", impl="reference",
                    complement=complement, semiring=sr, counter=ref_c,
                )
                charges = {1: _msa_charges(a, b, m, complement, ref_c)}
                for phases in (1, 2):
                    for tier in BATCH_TIERS:
                        got, got_c = _run(
                            a, b, m, "msa", tier, phases=phases,
                            complement=complement, semiring=sr,
                        )
                        where = (sr.name, complement, phases, tier)
                        if a.data.dtype == np.float64:
                            assert _bits(got) == _bits(want), where
                        else:
                            # the scalar reference rounds float32 products
                            # differently; the fast tiers still agree bitwise
                            assert got.indices.tobytes() == want.indices.tobytes()
                            assert np.allclose(got.data, want.data, rtol=1e-5)
                            assert _bits(got) == _bits(
                                fast.setdefault(complement, got)), where
                        # 2P adds the symbolic sweep's charges: the same
                        # for every tier, whatever they are
                        assert got_c == charges.setdefault(phases, got_c), where
                assert {
                    k: v for k, v in charges[2].items() if charges[1][k] != v
                }.keys() <= {"symbolic_flops"}

    def test_cancelled_sum_is_emitted(self):
        _, a, b, m = list(_adversarial())[-1]
        out = masked_spgemm(a, b, m, algo="msa")
        assert out.nnz == 1 and out.data[0] == 0.0

    @pytest.mark.parametrize("tier", ("bucket", "perrow"))
    @pytest.mark.parametrize("complement", (False, True))
    def test_chunk_budgets_do_not_change_results(self, tier, complement):
        # a mega-row above flop_budget gets a chunk of its own, and a dense
        # budget below ncols clamps every chunk to one row
        a = _signed_csr(20, 40, 0.1, 50)
        a = CSR.from_coo(a.shape, *(np.concatenate(x) for x in zip(
            a.to_coo(), (np.zeros(40, np.int64), np.arange(40), np.ones(40)))))
        b = _signed_csr(40, 30, 0.6, 51)
        m = _rand_csr(20, 30, 0.5, 52)
        assert int(per_row_flops(a, b)[0]) > 64
        for sr in (PLUS_TIMES, MIN_PLUS):
            want_c = OpCounter()
            want = masked_spgemm(a, b, m, algo="msa", impl="reference",
                                 complement=complement, semiring=sr,
                                 counter=want_c)
            for budgets in ({"flop_budget": 64}, {"dense_budget": 29},
                            {"flop_budget": 1, "dense_budget": 1}):
                got_c = OpCounter()
                got = masked_spgemm_msa_fast(
                    a, b, m, batch=tier, complement=complement, semiring=sr,
                    counter=got_c, **budgets,
                )
                assert _bits(got) == _bits(want), (sr.name, budgets)
                assert got_c.as_dict() == _msa_charges(
                    a, b, m, complement, want_c
                ), (sr.name, budgets)

    def test_mega_row_above_the_default_flop_budget(self):
        k = 400
        a = CSR.from_coo((3, k), np.zeros(k, np.int64), np.arange(k),
                         np.linspace(-1.0, 1.0, k))
        b = _signed_csr(k, k, 0.9, 53)
        m = _rand_csr(3, k, 0.5, 54)
        assert int(per_row_flops(a, b)[0]) > MSA_FLOP_BUDGET
        ref = scipy_masked_spgemm(a, b, m)
        for tier in BATCH_TIERS:
            got = masked_spgemm(a, b, m, algo="msa", batch=tier)
            assert np.array_equal(got.indices, ref.indices)
            assert np.allclose(got.data, ref.data, rtol=1e-12, atol=1e-12)
        assert _bits(masked_spgemm(a, b, m, algo="msa", batch="bucket")) == \
            _bits(masked_spgemm(a, b, m, algo="msa", batch="perrow"))


#: ``probing()`` exports of the two-body kernel this one replaced, on
#: ``rmat(7, seed=5).pattern().tril(-1)`` with PLUS_PAIR, keyed
#: ``tier/complement``: histogram -> (count, total, max, leading buckets)
_PINNED_MSA_PROBES = {
    "bucket/False": {
        "batch.bucket_occupancy": (10, 128, 29, [0, 0, 1, 3, 2, 4]),
        "mask.row_hits": (128, 743, 31, [21, 13, 24, 34, 25, 11]),
        "mask.row_misses": (128, 205, 6, [8, 70, 41, 9]),
        "msa.reset_cells": (10, 948, 278, [0, 0, 1, 1, 1, 2, 0, 2, 1, 2]),
        "msa.touched_per_mask_pct": (10, 603, 85, [1, 0, 0, 0, 0, 0, 3, 6]),
    },
    "bucket/True": {
        "batch.bucket_occupancy": (10, 128, 29, [0, 0, 1, 3, 2, 4]),
        "msa.reset_cells": (10, 2920, 1011, [0, 0, 1, 1, 1, 1, 0, 0, 2, 2, 2]),
    },
    "perrow/False": {
        "mask.row_hits": (128, 743, 31, [21, 13, 24, 34, 25, 11]),
        "mask.row_misses": (128, 205, 6, [8, 70, 41, 9]),
        "msa.reset_cells": (1, 948, 948, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
        "msa.touched_per_mask_pct": (1, 78, 78, [0, 0, 0, 0, 0, 0, 0, 1]),
    },
    "perrow/True": {
        "msa.reset_cells": (1, 2920, 2920, [0] * 12 + [1]),
    },
}


class TestMsaProbes:
    @pytest.mark.parametrize("case", sorted(_PINNED_MSA_PROBES))
    def test_histograms_match_the_replaced_kernel(self, case):
        tier, complement = case.split("/")
        g = rmat(7, seed=5).pattern().tril(-1)
        with _probes.probing() as pr:
            masked_spgemm(g, g, g, algo="msa", batch=tier,
                          complement=complement == "True", semiring=PLUS_PAIR)
        got = {
            name: (h["count"], h["total"], h["max"], h["buckets"])
            for name, h in pr.export().items()
        }
        want = {
            name: (count, total, top, lead + [0] * (16 - len(lead)))
            for name, (count, total, top, lead) in
            _PINNED_MSA_PROBES[case].items()
        }
        assert got == want


# ----------------------------------------------------------------------
# backend equivalence: karate / ER / R-MAT x serial / thread / process
# ----------------------------------------------------------------------
def _graphs():
    karate = read_mtx(DATA / "karate.mtx")
    er = erdos_renyi(48, 48, 3, seed=7, values="uniform")
    rm = rmat(6, seed=3)
    return [("karate", karate), ("er", er), ("rmat", rm)]


@pytest.fixture(scope="module", params=_graphs(), ids=lambda p: p[0])
def graph(request):
    return request.param[1]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algo", BATCHABLE)
    def test_bucket_matches_perrow_across_backends(self, graph, backend, algo):
        g = graph
        results = {}
        for tier in ("perrow", "bucket"):
            pl = Planner().plan(
                g, g, g, algo=algo, threads=3, backend=backend, batch=tier,
            )
            counter = OpCounter()
            results[tier] = (
                execute(pl, g, g, g, semiring=PLUS_PAIR, counter=counter),
                counter.as_dict(),
            )
        assert _identical(results["perrow"][0], results["bucket"][0])
        assert results["perrow"][1] == results["bucket"][1]

    @pytest.mark.parametrize("use_session", (False, True), ids=("nosess", "sess"))
    def test_sessions_do_not_change_results(self, graph, use_session):
        g = graph
        base = {}
        for algo in BATCHABLE:
            base[algo], _ = _run(g, g, g, algo, "perrow", phases=2,
                                 semiring=PLUS_PAIR)
        session = ExecutionSession() if use_session else None
        for _ in range(2):  # second pass exercises the bound memo / fusion
            for algo in BATCHABLE:
                out = masked_spgemm(
                    g, g, g, algo=algo, batch="bucket", phases=2,
                    semiring=PLUS_PAIR, session=session,
                )
                assert _identical(out, base[algo])
        if use_session:
            # the bound memo is keyed on operand structure, so all three
            # algos share entries; every memo-served bucket call fused
            stats = session.stats()
            assert stats["bound_cache_hits"] >= len(BATCHABLE)
            assert stats["fused_numeric_hits"] == stats["bound_cache_hits"]

    def test_probe_histograms_match_between_tiers_for_hash(self, graph):
        """The kernel's arithmetic chain lengths (``_lookup_chains``)
        against the per-key walk, ``VectorHashTable.lookup``, over the same
        tables: equal ``hash_probes`` and ``hash.probe_chain`` histogram."""
        g = graph.sort_indices()
        budget = 200  # several blocks, so several table geometries
        keys = g.row_ids() * g.ncols + g.indices
        for complement in (False, True):
            runs = {}
            for tier in ("perrow", "bucket"):
                counter = OpCounter()
                with _probes.probing() as pr:
                    masked_spgemm_hash_fast(
                        g, g, g, batch=tier, complement=complement,
                        semiring=PLUS_PAIR, counter=counter, flop_budget=budget)
                runs[tier] = (counter.hash_probes, pr.export())
            # the blocks, and so the tables, are the same under every spelling
            assert runs["perrow"] == runs["bucket"]

            walked = OpCounter()
            with _probes.probing() as pr:
                chain = pr.hist("hash.probe_chain")
                for lo, hi in plan_flop_blocks(per_row_flops(g, g), budget):
                    m_keys = keys[g.indptr[lo]:g.indptr[hi]]
                    if m_keys.size == 0 and not complement:
                        continue  # nothing is allowed: nothing is looked up
                    table = VectorHashTable(max(1, m_keys.size), walked,
                                            chain_hist=chain)
                    table.insert(m_keys)
                    block = np.arange(lo, hi, dtype=np.int64)
                    table.lookup(expand_keys(g, g, block, block)[0])
            probes, export = runs["bucket"]
            assert probes == walked.hash_probes > 0
            assert export["hash.probe_chain"] == pr.export()["hash.probe_chain"]
            assert export["hash.probe_chain"]["total"] == probes


# ----------------------------------------------------------------------
# symbolic/numeric fusion
# ----------------------------------------------------------------------
class TestFusion:
    def test_fused_matches_two_pass(self, graph):
        g = graph
        for algo in BATCHABLE:
            for complement in (False, True):
                o1, c1 = _run(g, g, g, algo, "perrow", phases=2,
                              complement=complement, semiring=PLUS_PAIR)
                o2, c2 = _run(g, g, g, algo, "bucket", phases=2,
                              complement=complement, semiring=PLUS_PAIR)
                assert _identical(o1, o2), (algo, complement)
                assert c1 == c2, (algo, complement)

    def test_fused_output_is_clean_csr(self):
        g = rmat(6, seed=9).pattern().tril(-1)
        out = masked_spgemm(g, g, g, algo="hash", batch="bucket", phases=2,
                            semiring=PLUS_PAIR)
        assert out.sorted_indices
        assert int(out.indptr[-1]) == out.indices.shape[0] == out.data.shape[0]

    def test_fusion_requires_two_phases(self):
        # 1P has no symbolic bound: bucket tier must still assemble via COO
        g = rmat(6, seed=9).pattern().tril(-1)
        o1 = masked_spgemm(g, g, g, algo="msa", batch="bucket", phases=1,
                           semiring=PLUS_PAIR)
        o2 = masked_spgemm(g, g, g, algo="msa", batch="perrow", phases=1,
                           semiring=PLUS_PAIR)
        assert _identical(o1, o2)

    def test_session_fusion_telemetry_only_counts_memo_hits(self):
        g = rmat(6, seed=4).pattern().tril(-1)
        session = ExecutionSession()
        masked_spgemm(g, g, g, algo="hash", batch="bucket", phases=2,
                      semiring=PLUS_PAIR, session=session)
        assert session.stats()["fused_numeric_hits"] == 0  # first: a miss
        masked_spgemm(g, g, g, algo="hash", batch="bucket", phases=2,
                      semiring=PLUS_PAIR, session=session)
        assert session.stats()["fused_numeric_hits"] == 1


# ----------------------------------------------------------------------
# planner / plan reporting
# ----------------------------------------------------------------------
class TestPlanReporting:
    def test_bands_carry_batch_and_census(self):
        g = rmat(7, seed=5).pattern().tril(-1)
        pl = Planner().plan(g, g, g, batch="bucket")
        d = pl.as_dict()
        assert d["bands"]
        for band, entry in zip(pl.bands, d["bands"]):
            assert entry["batch"] == band.batch
            assert entry["buckets"] == {int(k): int(v)
                                        for k, v in band.buckets.items()}
            assert band.batch in BATCH_TIERS

    def test_explain_renders_tier_and_census(self):
        g = rmat(7, seed=5).pattern().tril(-1)
        text = Planner().plan(g, g, g, batch="bucket").explain()
        assert "batch=" in text and "buckets{" in text
        assert "batch tier forced to 'bucket' by caller" in text

    def test_auto_note_mentions_crossover(self):
        g = rmat(7, seed=5).pattern().tril(-1)
        text = Planner().plan(g, g, g).explain()
        assert "crossover" in text and "batch tiers:" in text

    def test_machine_crossover_drives_auto(self):
        """One crossover, the frame's: a forced plan's band buckets exactly
        when ``resolve_tier`` would, on the host and on a preset alike."""
        for scale in (10, 11):  # 258170 and 781363 flops around 1 << 18
            g = rmat(scale, seed=5).pattern().tril(-1)
            want = resolve_tier(g, g, "auto")
            assert want == ("bucket" if scale == 11 else "perrow")
            for machine in (None, "haswell"):
                for algo in BATCHABLE:
                    (band,) = Planner(machine).plan(g, g, g, algo=algo).bands
                    assert band.batch == want, (scale, machine, algo)

    def test_invalid_batch_values_rejected(self):
        g = rmat(6, seed=5).pattern().tril(-1)
        with pytest.raises(ValueError, match="batch"):
            masked_spgemm(g, g, g, algo="msa", batch="bogus")
        with pytest.raises(ValueError, match="batch"):
            Planner().plan(g, g, g, batch="bogus")
        pl = Planner().plan(g, g, g)
        pl.bands[0].batch = "bogus"
        with pytest.raises(ValueError, match="batch tier"):
            pl.validate()

    def test_non_batchable_algos_pinned_perrow(self):
        g = rmat(7, seed=5).pattern().tril(-1)
        pl = Planner().plan(g, g, g, algo="inner", batch="bucket")
        assert all(b.batch == "perrow" for b in pl.bands)
        out = execute(pl, g, g, g, semiring=PLUS_PAIR)
        ref = masked_spgemm(g, g, g, algo="inner", semiring=PLUS_PAIR)
        assert _identical(out, ref)


# ----------------------------------------------------------------------
# native-tier seam (successor of the numba ``add_at`` seam)
# ----------------------------------------------------------------------
needs_native = native_required()


class TestCompiledSeam:
    def test_status_shape(self):
        st = native.status()
        assert set(st) == {"loaded", "path", "reason"}
        assert st["loaded"] == (st["reason"] is None) == (st["path"] is not None)
        with native.disabled():
            assert native.status() == {"loaded": False, "path": None,
                                       "reason": "disabled"}

    def test_numpy_fallback_matches_native(self):
        a = _rand_csr(30, 40, 0.2, 30)
        b = _rand_csr(40, 30, 0.2, 31)
        m = _rand_csr(30, 30, 0.4, 32)
        for algo, complement in (("msa", False), ("msa", True), ("inner", False)):
            got = _run(a, b, m, algo, "auto", complement=complement)
            with native.disabled():
                want = _run(a, b, m, algo, "auto", complement=complement)
            assert _identical(got[0], want[0]) and got[1] == want[1]

    @needs_native
    def test_seam_dispatches_compiled_when_eligible(self, monkeypatch):
        spy = NativeSpy(native.load())
        monkeypatch.setattr(native, "_lib", spy)
        g = rmat(6, seed=3).pattern().tril(-1)
        with native.disabled():
            ref = masked_spgemm(g, g, g, algo="msa", semiring=PLUS_PAIR)
        assert not spy.kernel_calls
        out = masked_spgemm(g, g, g, algo="msa", semiring=PLUS_PAIR)
        assert spy.kernel_calls == ["repro_msa"], "native seam was never exercised"
        masked_spgemm(g, g, g, algo="inner", semiring=PLUS_PAIR)
        masked_spgemm(g, g, g, algo="msa", semiring=PLUS_PAIR, phases=2)
        assert {"repro_inner", "repro_symbolic"} <= set(spy.kernel_calls)
        assert _identical(out, ref)

    def test_seam_bypasses_compiled_for_non_add_semirings(self, monkeypatch):
        a = _rand_csr(20, 20, 0.3, 33)
        with native.disabled():
            want = masked_spgemm(a, a, a, algo="msa", semiring=MIN_PLUS)
            want32 = masked_spgemm(a.astype(np.float32), a, a, algo="msa")
        spy = NativeSpy(native.load())
        if spy.lib is not None:  # without a compiler there is no tier to bypass
            monkeypatch.setattr(native, "_lib", spy)
        assert _identical(masked_spgemm(a, a, a, algo="msa", semiring=MIN_PLUS), want)
        assert _identical(masked_spgemm(a, a, a, algo="inner", semiring=MIN_PLUS), want)
        assert _identical(masked_spgemm(a.astype(np.float32), a, a, algo="msa"), want32)
        with _probes.probing():
            masked_spgemm(a, a, a, algo="msa")  # probes installed: NumPy body
        # no kernel loop ran; the CSC build under ``inner`` is the substrate's
        # counting pass, which no semiring gates
        assert not spy.kernel_calls, spy.kernel_calls

    @needs_native
    def test_compiled_tier_bitwise_equivalence(self):
        g = rmat(7, seed=5).pattern().tril(-1)
        for algo in ("msa", "inner"):
            for phases in (1, 2):
                got = _run(g, g, g, algo, "auto", semiring=PLUS_PAIR, phases=phases)
                with native.disabled():
                    want = _run(g, g, g, algo, "auto", semiring=PLUS_PAIR,
                                phases=phases)
                assert _identical(got[0], want[0]) and got[1] == want[1]
