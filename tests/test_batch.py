"""The push frame's row chunker: helper invariants, boundary cases and
bit-for-bit equivalence across chunk budgets and ``batch=`` spellings.

The contract under test (docs/kernels.md): the NumPy tier cuts every
push-frame call into contiguous flop-budget row blocks (:func:`row_blocks`),
and how many blocks a call gets changes no value and no ``OpCounter`` total
(Hash's ``hash_probes`` aside: its tables are per block).  The kept
``masked_spgemm(batch=)`` spellings — ``"auto"``, ``"perrow"``,
``"bucket"`` — select nothing: identical matrices (values included) and
counters on every backend, fused (2P + symbolic bound) or not.  The native-tier seam
(:mod:`repro.core.kernels.native`) never changes results whichever side
dispatches.  The native loops have no chunks, so everything but the seam
class runs on the NumPy tier; ``tests/test_native.py`` is the
native-vs-NumPy differential.
"""

import contextlib
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import scipy_masked_spgemm
from repro.core.kernels import native
from repro.core.kernels.batch import (
    FusedSlab,
    expand_keys,
    per_row_flops,
    plan_flop_blocks,
    product_values,
    row_blocks,
)
from repro.core.kernels.esc_kernel import masked_spgemm_esc_fast
from repro.core.kernels.expand import expand_products
from repro.core.kernels.hash_kernel import VectorHashTable, masked_spgemm_hash_fast
from repro.core.kernels.msa_kernel import MSA_FLOP_BUDGET, masked_spgemm_msa_fast
from repro.core.masked_spgemm import ALL_ALGOS, masked_spgemm
from repro.engine import Planner, execute
from repro.graphs import erdos_renyi, rmat
from repro.machine import OpCounter
from repro.parallel.pool import shutdown_pool
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES, STANDARD_SEMIRINGS
from repro.sparse import CSR, read_mtx

from .conftest import NativeSpy, native_required

pytestmark = pytest.mark.batch

DATA = Path(__file__).parent.parent / "data"
BATCHABLE = ("msa", "hash", "esc")
#: the push-frame kernels' fast entry points, whose chunk budgets the
#: boundary cases vary
FAST = {"msa": masked_spgemm_msa_fast, "hash": masked_spgemm_hash_fast,
        "esc": masked_spgemm_esc_fast}
#: the spellings ``masked_spgemm(batch=)`` accepts
SPELLINGS = ("auto", "bucket", "perrow")
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


def _assert_chunking_free(algo, a, b, m, **kw):
    """The fast kernel at one productive row per chunk (``flop_budget=1``)
    gives the default budgets' bytes and counters — Hash's ``hash_probes``
    aside (one table per block)."""
    runs = []
    for budget in ({}, {"flop_budget": 1}):
        counter = OpCounter()
        out = FAST[algo](a, b, m, counter=counter, **budget, **kw)
        charged = counter.as_dict()
        if algo == "hash":
            del charged["hash_probes"]
        runs.append((out, charged))
    (o1, c1), (o2, c2) = runs
    assert _identical(o1, o2) and c1 == c2, (algo, kw)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pool()


@pytest.fixture(autouse=True)
def _numpy_bodies(request):
    if request.cls in (TestCompiledSeam, TestKeptKeyword):
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

    def test_row_blocks_partition_rows_exactly_once(self):
        rng = np.random.default_rng(1)
        per = rng.integers(0, 4096, size=300).astype(np.int64)
        per[:40] = 0
        per[100] = 10_000  # a mega-row over the budget on its own
        for width in (None, 16):
            chunks = list(row_blocks(per, flop_budget=256 * 16, max_width=width))
            # contiguous and in order: together they are every row once
            assert np.array_equal(np.concatenate(chunks), np.arange(per.size))
            for rows in chunks:
                assert bool(np.all(np.diff(rows) == 1))
                assert width is None or rows.size <= width
                # within budget, or one productive row (plus leading
                # zero-flop rows riding along) that busts it alone
                assert (int(per[rows].sum()) <= 256 * 16
                        or np.count_nonzero(per[rows]) == 1)
        assert list(row_blocks(np.empty(0, np.int64), 64)) == []

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
# row-chunk boundary cases
# ----------------------------------------------------------------------
class TestBucketBoundaries:
    """Empty rows, no rows, a mega-row and rows all of one size: one-row
    chunks give the default budgets' bytes and counters, and each
    ``batch=`` spelling (``"bucket"`` among them) the plain call's."""

    def _assert_tiers_identical(self, a, b, m, *, semiring=PLUS_TIMES):
        for algo in BATCHABLE:
            for complement in (False, True):
                _assert_chunking_free(algo, a, b, m, complement=complement,
                                      semiring=semiring)
                for phases in (1, 2):
                    kw = dict(complement=complement, phases=phases, semiring=semiring)
                    o1, c1 = _run(a, b, m, algo, "auto", **kw)
                    for tier in SPELLINGS[1:]:
                        o2, c2 = _run(a, b, m, algo, tier, **kw)
                        assert _identical(o1, o2), (algo, complement, phases, tier)
                        assert c1 == c2, (algo, complement, phases, tier)

    def test_empty_rows(self):
        # half of A's rows (and a few mask rows) are structurally empty —
        # zero-flop rows ride along in a chunk and must emit/charge nothing
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
        # one-row-chunk path
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
        # uniform 4-nnz rows against a uniform 3-nnz B: every row expands
        # to the same 12 products
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
        assert set(per_row_flops(a, b).tolist()) == {12}
        self._assert_tiers_identical(a, b, m)

    def test_tiny_flop_budget_forces_many_chunks(self):
        g = rmat(7, seed=5).pattern().tril(-1)
        per = per_row_flops(g, g)
        assert len(list(row_blocks(per, 1))) >= np.count_nonzero(per) > 1
        for algo in BATCHABLE:
            for complement in (False, True):
                _assert_chunking_free(algo, g, g, g, complement=complement,
                                      semiring=PLUS_PAIR)

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
    # a row a plain mask allows nothing in is never expanded
    expanded = per_row_flops(a, b) if complement else per_row_flops(a, b)[np.diff(m.indptr) != 0]
    want.update(
        accum_allowed=m.nnz,
        accum_inserts=int(expanded.sum()),
        flops=reference.flops,
        accum_removes=out if complement else m.nnz,
        spa_resets=out + m.nnz if complement else m.nnz,
        output_nnz=out,
    )
    return want


class TestMsaAgainstReference:
    """Values bitwise equal to the pseudocode-faithful reference tier, and
    ``OpCounter``s equal to the kernel's per-row-sum charges, over
    semirings x complement x phases x ``batch=`` spelling."""

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
                    for tier in SPELLINGS:
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
                        # for every spelling, whatever they are
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
        # budget below ncols clamps every chunk to one row; the door's
        # batch= spelling gives the default budgets' call
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
            charges = _msa_charges(a, b, m, complement, want_c)
            for budgets in ({"flop_budget": 64}, {"dense_budget": 29},
                            {"flop_budget": 1, "dense_budget": 1}):
                got_c = OpCounter()
                got = masked_spgemm_msa_fast(
                    a, b, m, complement=complement, semiring=sr,
                    counter=got_c, **budgets,
                )
                assert _bits(got) == _bits(want), (sr.name, budgets)
                assert got_c.as_dict() == charges, (sr.name, budgets)
            got, got_c = _run(a, b, m, "msa", tier, complement=complement, semiring=sr)
            assert _bits(got) == _bits(want) and got_c == charges, sr.name

    def test_mega_row_above_the_default_flop_budget(self):
        k = 400
        a = CSR.from_coo((3, k), np.zeros(k, np.int64), np.arange(k),
                         np.linspace(-1.0, 1.0, k))
        b = _signed_csr(k, k, 0.9, 53)
        m = _rand_csr(3, k, 0.5, 54)
        assert int(per_row_flops(a, b)[0]) > MSA_FLOP_BUDGET
        ref = scipy_masked_spgemm(a, b, m)
        for tier in SPELLINGS:
            got = masked_spgemm(a, b, m, algo="msa", batch=tier)
            assert np.array_equal(got.indices, ref.indices)
            assert np.allclose(got.data, ref.data, rtol=1e-12, atol=1e-12)
        assert _bits(masked_spgemm(a, b, m, algo="msa", batch="bucket")) == \
            _bits(masked_spgemm(a, b, m, algo="msa", batch="perrow"))


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
        """The kept spellings on every backend, with the kept ``shards=``
        spelling too: each is the call without it."""
        g = graph
        results = {
            tier: _run(g, g, g, algo, tier, shards=(3, 1), backend=backend,
                       semiring=PLUS_PAIR)
            for tier in SPELLINGS
        }
        for tier in ("perrow", "bucket"):
            assert _identical(results["auto"][0], results[tier][0]), tier
            assert results["auto"][1] == results[tier][1], tier

    @pytest.mark.parametrize("use_session", (False, True), ids=("nosess", "sess"))
    def test_sessions_do_not_change_results(self, graph, use_session):
        """The fused spellings repeat exactly: nothing is kept between
        calls.  ``sess`` first offers each call a session, which the door
        refuses (sessions were removed) without changing what follows."""
        g = graph
        base = {}
        for algo in BATCHABLE:
            base[algo], _ = _run(g, g, g, algo, "perrow", phases=2,
                                 semiring=PLUS_PAIR)
            if use_session:
                with pytest.raises(TypeError, match="session"):
                    masked_spgemm(g, g, g, algo=algo, batch="bucket", phases=2,
                                  semiring=PLUS_PAIR, session=False)
        for _ in range(2):  # a second pass: nothing is kept between calls
            for algo in BATCHABLE:
                out = masked_spgemm(
                    g, g, g, algo=algo, batch="bucket", phases=2,
                    semiring=PLUS_PAIR,
                )
                assert _identical(out, base[algo])

    def test_probe_histograms_match_between_tiers_for_hash(self, graph):
        """The kernel's arithmetic chain lengths (``_lookup_chains``)
        against the per-key walk, ``VectorHashTable.lookup``, over the same
        tables: equal ``hash_probes``."""
        g = graph.sort_indices()
        budget = 200  # several blocks, so several table geometries
        keys = g.row_ids() * g.ncols + g.indices
        for complement in (False, True):
            counter = OpCounter()
            masked_spgemm_hash_fast(
                g, g, g, complement=complement,
                semiring=PLUS_PAIR, counter=counter, flop_budget=budget)

            walked = OpCounter()
            for lo, hi in plan_flop_blocks(per_row_flops(g, g), budget):
                m_keys = keys[g.indptr[lo]:g.indptr[hi]]
                if m_keys.size == 0 and not complement:
                    continue  # nothing is allowed: nothing is looked up
                table = VectorHashTable(max(1, m_keys.size), walked)
                table.insert(m_keys)
                block = np.arange(lo, hi, dtype=np.int64)
                if not complement:  # nor in a row whose mask row is empty
                    block = block[np.diff(g.indptr)[block] != 0]
                table.lookup(expand_keys(g, g, block, block)[0])
            assert counter.hash_probes == walked.hash_probes > 0


# ----------------------------------------------------------------------
# symbolic/numeric fusion
# ----------------------------------------------------------------------
class TestFusion:
    def test_fused_matches_two_pass(self, graph):
        """2P writes rows into the slab its symbolic bound sized: the 1P
        bytes, and the 1P charges plus the symbolic sweep's."""
        g = graph
        for algo in BATCHABLE:
            for complement in (False, True):
                o1, c1 = _run(g, g, g, algo, "perrow", phases=1,
                              complement=complement, semiring=PLUS_PAIR)
                o2, c2 = _run(g, g, g, algo, "bucket", phases=2,
                              complement=complement, semiring=PLUS_PAIR)
                assert _identical(o1, o2), (algo, complement)
                moved = {k for k in c1 if c1[k] != c2[k]}
                assert moved == {"symbolic_flops"}, (algo, complement)

    def test_fused_output_is_clean_csr(self):
        g = rmat(6, seed=9).pattern().tril(-1)
        out = masked_spgemm(g, g, g, algo="hash", batch="bucket", phases=2,
                            semiring=PLUS_PAIR)
        assert out.sorted_indices
        assert int(out.indptr[-1]) == out.indices.shape[0] == out.data.shape[0]

    def test_fusion_requires_two_phases(self):
        # 1P has no symbolic bound: the frame places rows by its chunks'
        # own row counts, and the result is the fused call's
        g = rmat(6, seed=9).pattern().tril(-1)
        o1 = masked_spgemm(g, g, g, algo="msa", batch="bucket", phases=1,
                           semiring=PLUS_PAIR)
        o2 = masked_spgemm(g, g, g, algo="msa", batch="perrow", phases=2,
                           semiring=PLUS_PAIR)
        assert _identical(o1, o2)


# ----------------------------------------------------------------------
# the kept keyword
# ----------------------------------------------------------------------
class TestPlanReporting:
    def test_invalid_batch_values_rejected(self):
        g = rmat(6, seed=5).pattern().tril(-1)
        for algo in ("msa", "auto"):
            with pytest.raises(ValueError, match="batch"):
                masked_spgemm(g, g, g, algo=algo, batch="bogus")
        # nothing past the front door takes it: plans carry no tier
        with pytest.raises(TypeError, match="batch"):
            Planner().plan(g, g, g, batch="perrow")
        with pytest.raises(TypeError, match="batch"):
            execute(Planner().plan(g, g, g), g, g, g, batch="perrow")
        assert "batch" not in Planner().plan(g, g, g).as_dict()["bands"][0]


class TestKeptKeyword:
    """``masked_spgemm(batch=)`` and ``masked_spgemm(shards=)`` stay
    validated spellings that select nothing: on both kernel tiers, every
    algorithm and ``algo="auto"``, each accepted value returns the bytes and
    ``OpCounter`` of the call without it."""

    @pytest.mark.parametrize("tier", ("native", "numpy"))
    def test_every_spelling_is_the_plain_call(self, tier):
        a = _signed_csr(40, 30, 0.15, 60)
        b = _signed_csr(30, 50, 0.15, 61)
        m = _rand_csr(40, 50, 0.3, 62)
        with native.disabled() if tier == "numpy" else contextlib.nullcontext():
            for algo in ("auto",) + ALL_ALGOS:
                for complement in (False, True):
                    if complement and algo in ("inner", "mca"):
                        continue
                    for phases in (1, 2):
                        kw = dict(algo=algo, complement=complement, phases=phases)
                        counter = OpCounter()
                        want = masked_spgemm(a, b, m, counter=counter, **kw)
                        for spelling in SPELLINGS:
                            got, got_c = _run(a, b, m, algo, spelling, complement=complement,
                                              phases=phases)
                            where = (algo, complement, phases, spelling)
                            assert _bits(got) == _bits(want), where
                            assert got_c == counter.as_dict(), where
                        for shards in ((1, 1), (2, 2), [3, 1]):
                            got, got_c = _run(a, b, m, algo, "auto", complement=complement,
                                              phases=phases, shards=shards)
                            where = (algo, complement, phases, shards)
                            assert _bits(got) == _bits(want), where
                            assert got_c == counter.as_dict(), where
            with pytest.raises(ValueError, match="batch must be one of"):
                masked_spgemm(a, b, m, batch="Bucket")
            for bad in ((0, 2), (2,), (2.0, 2), (True, 1), "auto"):
                with pytest.raises(ValueError, match="shards must be None or a pair"):
                    masked_spgemm(a, b, m, shards=bad)


# ----------------------------------------------------------------------
# native-tier seam (successor of the numba ``add_at`` seam)
# ----------------------------------------------------------------------
needs_native = native_required()


class TestCompiledSeam:
    def test_status_shape(self):
        st = native.status()
        assert set(st) == {"loaded", "path", "reason", "openmp", "wait_policy"}
        assert st["loaded"] == (st["reason"] is None) == (st["path"] is not None)
        assert st["openmp"] in (st["loaded"], False)
        assert (st["wait_policy"] is None) == (not st["openmp"])
        with native.disabled():
            assert native.status() == {"loaded": False, "path": None, "reason": "disabled",
                                       "openmp": False, "wait_policy": None}

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
