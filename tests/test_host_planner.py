"""Host-truthful planning: ``machine=None`` plans from the measured
:class:`~repro.machine.HostProfile` and the cores this process may use;
explicit presets keep the modeled plans they always produced.

Everything here is deterministic — decisions are read off plans, never off
a wall clock (``benchmarks/test_auto_regret.py`` is the wall-clock gate).
The classes that pin decisions of the NumPy tier's ``HOST`` coefficients run
under the ``numpy_tier`` fixture; ``TestNativeProfile`` pins the same
decisions under ``HOST_NATIVE``, which needs no compiler to plan from.
Also holds the bitwise old-vs-new checks of the kernel rewrites that rode
along: the ``inner`` lookup (block search, then the dense rank array) and
the radix ``CSR.transpose``.
"""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.core.kernels.expand import row_keys
from repro.core.kernels.inner_kernel import masked_spgemm_inner_fast
from repro.engine import ExecutionSession, Planner, plan
from repro.graphs import erdos_renyi, relabel_by_degree, rmat
from repro.machine import HOST, HOST_NATIVE, HostProfile, OpCounter
from repro.observe import tracing
from repro.parallel import shutdown_pool
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES, Semiring
from repro.sparse import CSC, CSR

from .conftest import native_required


def _tc(scale, seed=1):
    low = relabel_by_degree(rmat(scale, seed=seed).pattern()).tril(-1)
    return low, low, low


def _er(n, d_in, d_mask, seed=0):
    return (
        erdos_renyi(n, n, d_in, seed=seed),
        erdos_renyi(n, n, d_in, seed=seed + 1),
        erdos_renyi(n, n, d_mask, seed=seed + 2),
    )


def _bitwise(x: CSR, y: CSR) -> bool:
    return x.shape == y.shape and all(
        p.dtype == q.dtype and np.array_equal(p, q)
        for p, q in zip(x.segment_arrays(), y.segment_arrays())
    )


#: a profile whose kernels are 1000x slower: small test operands then carry
#: the predicted seconds of a huge problem
SLOW = dataclasses.replace(
    HOST,
    msa_ns=tuple(1e3 * c for c in HOST.msa_ns),
    mca_ns=tuple(1e3 * c for c in HOST.mca_ns),
    inner_ns=tuple(1e3 * c for c in HOST.inner_ns),
)


@pytest.mark.usefixtures("numpy_tier")
class TestHostChoices:
    def test_default_machine_is_the_checked_in_profile(self):
        assert Planner().machine is HOST
        assert HOST == HostProfile()  # constants, nothing measured at import
        assert plan(*_tc(8)).machine == "host"

    def test_tc_plans_one_serial_msa_band(self):
        pl = plan(*_tc(10))
        assert [band.algo for band in pl.bands] == ["msa"]
        assert pl.bands[0].is_full(pl.shape[0])
        assert (pl.threads, pl.backend, pl.phases) == (1, "serial", 1)

    def test_dense_product_sparse_mask_plans_inner(self):
        """The scaled-down er-sparse-mask ladder workload (Fig. 7 pull
        regime): every row pulls."""
        pl = plan(*_er(1024, 64, 4))
        assert pl.nrows_per_algo() == {"inner": 1024}
        assert (pl.threads, pl.backend) == (1, "serial")

    def test_inputs_sparser_than_mask_plans_mca(self):
        assert plan(*_er(1024, 1, 64)).nrows_per_algo() == {"mca": 1024}

    @pytest.mark.parametrize("d_in,d_mask", [(1, 64), (16, 16), (64, 1)])
    def test_complement_never_plans_inner_or_mca(self, d_in, d_mask):
        pl = plan(*_er(256, d_in, d_mask), complement=True)
        assert set(pl.algos()) == {"msa"}
        assert any("complemented mask: dropped" in n for n in pl.notes)

    def test_estimates_cover_the_live_candidates_in_seconds(self):
        a, b, m = _er(512, 16, 16)
        pl = plan(a, b, m)
        assert set(pl.estimates) == set(HOST.candidates)
        best = min(pl.estimates, key=pl.estimates.get)
        assert pl.algo == best
        assert sum(band.est_cycles for band in pl.bands) * 1e-9 == pytest.approx(
            pl.estimates[best]
        )

    def test_memoised_csc_is_not_charged_again(self):
        # ... when the call holds the fingerprint that guards the memo; a
        # call without one rebuilds the CSC, so it is charged the build
        a, b, m = _er(512, 64, 1)
        cold = plan(a, b, m).estimates["inner"]
        with ExecutionSession() as s:
            s.csc_of(b, s.fingerprint(b))
            assert b._csc_memo is not None
            assert plan(a, b, m).estimates["inner"] == cold
            assert s.plan(a, b, m).estimates["inner"] == cold
            with s.call():
                s.fingerprint(b)  # what the delta engine does before planning
                warm = s.plan(a, b, m).estimates["inner"]
        assert cold - warm == pytest.approx(HOST.csc_nnz_ns * b.nnz * 1e-9)

    def test_rows_split_only_when_the_saving_beats_the_split(self):
        """Half the rows pull-regime, half push-regime: two bands; the same
        plan under a profile where splitting is ruinous: one band."""
        n = 2048
        a = erdos_renyi(n, n, 64, seed=1)
        b = erdos_renyi(n, n, 64, seed=2)
        sparse = erdos_renyi(n, n, 1, seed=3).select_rows(np.arange(n // 2))
        dense = erdos_renyi(n, n, 256, seed=4).select_rows(np.arange(n // 2, n))
        r1, c1, v1 = sparse.to_coo()
        r2, c2, v2 = dense.to_coo()
        m = CSR.from_coo(
            (n, n), np.concatenate([r1, r2]), np.concatenate([c1, c2]),
            np.concatenate([v1, v2]),
        )
        pl = plan(a, b, m)
        per = pl.nrows_per_algo()
        assert set(per) == {"inner", "msa"} and abs(per["inner"] - n // 2) < n // 8
        costly = dataclasses.replace(HOST, split_nnz_ns=1e6)
        assert len(Planner(costly).plan(a, b, m).bands) == 1
        # a split plan still computes the same matrix as either forced call
        got = masked_spgemm(a, b, m, algo="auto")
        assert _bitwise(got, masked_spgemm(a, b, m, algo="msa"))

    def test_unmeasured_candidates_are_rejected(self):
        with pytest.raises(ValueError, match="no measured coefficients"):
            Planner(candidates=("msa", "hash"))
        with pytest.raises(ValueError, match="ratio"):
            Planner(banding="ratio")
        assert Planner("haswell", candidates=("msa", "hash")).candidates == ("msa", "hash")

    def test_forced_algorithms_stay_available(self):
        a, b, m = _er(128, 4, 4)
        for algo in ("hash", "esc", "heap"):
            pl = plan(a, b, m, algo=algo)
            assert pl.algo == algo and pl.mode == "forced"

    @pytest.mark.parametrize("triple", [_tc(9), _er(256, 16, 2), _er(256, 1, 32)])
    def test_auto_is_bitwise_the_forced_call_it_chose(self, triple):
        a, b, m = triple
        pl = plan(a, b, m)
        assert pl.algo is not None
        for sr in (PLUS_TIMES, PLUS_PAIR):
            got = masked_spgemm(a, b, m, algo="auto", semiring=sr)
            assert _bitwise(got, masked_spgemm(a, b, m, algo=pl.algo, semiring=sr))


class TestNativeProfile:
    """The same decisions under the native tier's coefficients."""

    def test_default_machine_follows_the_kernel_tier(self):
        from repro.core.kernels import native

        want = HOST if native.load() is None else HOST_NATIVE
        assert Planner().machine is want
        assert HOST_NATIVE.name == "host" and plan(*_tc(8)).machine == "host"
        # only the coefficients of what has a C loop — the two kernels, the
        # per-call cost, the CSC build — and the live set differ
        same = dataclasses.replace(
            HOST_NATIVE, candidates=HOST.candidates, msa_ns=HOST.msa_ns,
            inner_ns=HOST.inner_ns, band_ns=HOST.band_ns, csc_nnz_ns=HOST.csc_nnz_ns,
        )
        assert same == HOST

    def test_ladder_shapes_keep_their_plans(self):
        planner = Planner(HOST_NATIVE)
        tc = planner.plan(*_tc(10))
        assert [band.algo for band in tc.bands] == ["msa"]
        assert (tc.threads, tc.backend, tc.phases) == (1, "serial", 1)
        er = planner.plan(*_er(1024, 64, 4))
        assert er.nrows_per_algo() == {"inner": 1024}
        assert (er.threads, er.backend) == (1, "serial")

    def test_mca_is_forced_only(self):
        planner = Planner(HOST_NATIVE)
        a, b, m = _er(1024, 1, 64)  # the NumPy profile's mca regime
        pl = planner.plan(a, b, m)
        assert pl.nrows_per_algo() == {"msa": 1024}
        assert set(pl.estimates) == {"inner", "msa"}
        with pytest.raises(ValueError, match="no measured coefficients"):
            Planner(HOST_NATIVE, candidates=("mca",))
        forced = planner.plan(a, b, m, algo="mca")
        assert forced.algos() == ("mca",)
        assert _bitwise(masked_spgemm(a, b, m, algo="mca"), masked_spgemm(a, b, m, algo="auto"))

    def test_rows_still_split_when_the_saving_beats_the_split(self):
        # (denser inputs than the NumPy-profile test: the C loops shrink the
        # saving per row, the slice+merge cost per nonzero is what it was)
        n = 2048
        a = erdos_renyi(n, n, 256, seed=1)
        b = erdos_renyi(n, n, 256, seed=2)
        sparse = erdos_renyi(n, n, 1, seed=3).select_rows(np.arange(n // 2))
        dense = erdos_renyi(n, n, 1024, seed=4).select_rows(np.arange(n // 2, n))
        m = CSR.from_coo(
            (n, n), *(np.concatenate(parts) for parts in zip(sparse.to_coo(), dense.to_coo()))
        )
        per = Planner(HOST_NATIVE).plan(a, b, m).nrows_per_algo()
        assert set(per) == {"inner", "msa"} and abs(per["inner"] - n // 2) < n // 8


@native_required()
class TestACallIsPricedFromTheTierThatRunsIt:
    """``HOST_NATIVE`` prices only what the C loops run: a semiring or dtype
    they do not take is planned from the NumPy bodies' ``HOST``."""

    @staticmethod
    def _auto_plan(a, b, m, **kw):
        with tracing() as tr:
            masked_spgemm(a, b, m, algo="auto", **kw)
        (span,) = [sp for sp in tr.spans if sp.name == "engine.execute"]
        return span.attrs["plan"]

    def test_ineligible_calls_plan_as_under_host(self):
        a, b, m = _er(1024, 1, 64)  # the NumPy profile's mca regime
        want = Planner(HOST).plan(a, b, m).as_dict()
        assert set(want["estimates_seconds"]) == set(HOST.candidates)
        assert [band["algo"] for band in want["bands"]] == ["mca"]
        assert self._auto_plan(a, b, m, semiring=MIN_PLUS) == want
        assert self._auto_plan(a.astype(np.float32), b.astype(np.float32), m) == want
        with ExecutionSession() as s:  # built on HOST_NATIVE
            assert s.machine is HOST_NATIVE
            assert self._auto_plan(a, b, m, semiring=MIN_PLUS, session=s) == want
            assert s.plan(a, b, m, semiring=MIN_PLUS).as_dict() == want
        # a machine the caller names is the caller's
        named = self._auto_plan(a, b, m, semiring=MIN_PLUS, machine=HOST_NATIVE)
        assert named == Planner(HOST_NATIVE).plan(a, b, m).as_dict()

    def test_eligible_calls_keep_the_native_profile(self):
        a, b, m = _er(1024, 1, 64)
        want = Planner(HOST_NATIVE).plan(a, b, m).as_dict()
        assert set(want["estimates_seconds"]) == {"inner", "msa"}
        assert self._auto_plan(a, b, m) == want  # PLUS_TIMES, float64
        # PLUS_PAIR reads no values, so their dtype does not matter
        assert self._auto_plan(a.astype(np.float32), b.astype(np.float32), m,
                               semiring=PLUS_PAIR) == want
        with ExecutionSession() as s:
            assert self._auto_plan(a, b, m, session=s) == want
        assert plan(a, b, m).as_dict() == want  # no call, no semiring: the live tier


class TestWorkersFollowTheHost:
    @pytest.fixture(autouse=True)
    def _cold_pool(self):
        shutdown_pool()
        yield
        shutdown_pool()

    @pytest.mark.parametrize("triple", [_tc(8), _tc(11), _er(1024, 64, 4)])
    def test_threads_never_exceed_available_cores(self, triple):
        cores = len(os.sched_getaffinity(0))
        for planner in (Planner(), Planner(SLOW)):
            pl = planner.plan(*triple)
            assert 1 <= pl.threads <= cores
            assert (pl.threads == 1) == (pl.backend == "serial")

    @pytest.mark.parametrize("profile", [HOST, SLOW], ids=["host", "slow"])
    def test_one_core_always_plans_serial(self, monkeypatch, profile):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for triple in (_tc(8), _tc(11), _er(1024, 64, 4)):
            pl = Planner(profile).plan(*triple)
            assert (pl.threads, pl.backend) == (1, "serial")
            assert any("1 available core" in n for n in pl.notes)
            # a forced parallel backend still gets a single worker
            assert Planner(profile).plan(*triple, backend="process").threads == 1

    def test_pool_only_when_predicted_work_repays_it(self, monkeypatch):
        """Nothing prices the pool, so nothing unforced enters it — however
        much kernel work the profile predicts — and nothing reads it: the
        same call plans the same whether the pool is cold or warm."""
        import repro.parallel.pool as pool

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        triple = _tc(11)
        for profile in (None, SLOW):
            plans = []
            for live in (0, 4):
                monkeypatch.setattr(pool, "_POOL_WORKERS", live)
                assert pool.pool_size() == live
                plans.append(Planner(profile).plan(*triple))
            cold, warm = plans
            assert (cold.threads, cold.backend) == (1, "serial")
            assert cold.as_dict() == warm.as_dict()
            assert any("serial on 4 available core(s)" in n for n in cold.notes)
            assert not any("pool" in n for n in cold.notes)

    def test_forced_knobs_are_honoured(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        triple = _tc(11)
        for profile in (None, SLOW):
            by_threads = Planner(profile).plan(*triple, threads=3)
            assert (by_threads.threads, by_threads.backend) == (3, "thread")
            forced = Planner(profile).plan(*triple, backend="process")
            assert (forced.backend, forced.threads) == ("process", 4)
        assert Planner().plan(*triple, backend="thread").threads == 4
        assert Planner().plan(*triple, backend="serial").threads == 1
        assert Planner().plan(*triple, threads=1).backend == "serial"
        both = Planner().plan(*triple, threads=2, backend="process")
        assert (both.threads, both.backend) == (2, "process")


class TestPresetsUnchanged:
    """Explicit ``machine=`` keeps the modeled plans (digests and cycle
    estimates captured at the commit before the host planner landed)."""

    @staticmethod
    def _digest(pl):
        h = hashlib.blake2b(digest_size=8)
        for band in pl.bands:
            h.update(band.algo.encode())
            h.update(np.asarray(band.rows, dtype=np.int64).tobytes())
            h.update(band.batch.encode())
        return h.hexdigest()

    def test_haswell_tc_bands(self):
        pl = plan(*_tc(10), machine="haswell")
        assert pl.nrows_per_algo() == {"inner": 310, "msa": 99, "esc": 615}
        assert self._digest(pl) == "a45275c2717d195c"
        assert [round(b.est_cycles, 3) for b in pl.bands] == [
            87931.194, 307062.818, 346556.459,
        ]
        assert (pl.phases, pl.threads, pl.backend, pl.partition) == (
            1, 2, "thread", "balanced",
        )
        assert pl.machine == "haswell"

    def test_knl_and_complement_bands(self):
        a = erdos_renyi(512, 512, 16, seed=1)
        b = erdos_renyi(512, 512, 16, seed=2)
        m = erdos_renyi(512, 512, 2, seed=3)
        pl = plan(a, b, m, machine="knl")
        assert pl.nrows_per_algo() == {"inner": 505, "esc": 7}
        assert self._digest(pl) == "ac291b527f32d381"
        assert [round(b.est_cycles, 3) for b in pl.bands] == [89662.266, 2193.962]
        plc = plan(a, b, m, machine="haswell", complement=True)
        assert plc.nrows_per_algo() == {"msa": 512}
        assert round(plc.bands[0].est_cycles, 3) == 5464637.082

    def test_session_plan_cache_separates_host_and_presets(self):
        a, b, m = _tc(9)
        with ExecutionSession() as s:
            host_plan = s.plan(a, b, m)
            preset_plan = s.plan(a, b, m, machine="haswell")
            assert (host_plan.machine, preset_plan.machine) == ("host", "haswell")
            # no plan cache to mix them up: each call plans for its machine
            assert s.plan(a, b, m).as_dict() == host_plan.as_dict()
            assert s.plan(a, b, m, machine="haswell").as_dict() == preset_plan.as_dict()
            assert s.fingerprint_digests == 0
        with ExecutionSession(machine="haswell") as s:
            assert s.plan(a, b, m).machine == "haswell"
            assert s.plan(a, b, m, machine=HOST).machine == "host"


@pytest.mark.usefixtures("numpy_tier")
class TestExplain:
    def test_explain_reports_predictions_cores_and_the_pool_decision(self):
        """... which is the caller's: the note names the two keywords."""
        pl = plan(*_tc(10))
        text = pl.explain()
        assert "predicted candidates on host" in text
        for algo in HOST.candidates:
            assert f"{algo} " in text
        cores = len(os.sched_getaffinity(0))
        assert (
            f"serial on {cores} available core(s): worker count and backend "
            "are the caller's (threads=, backend=)"
        ) in text
        assert "pool" not in text and "crossover_cycles" not in text
        # forced knobs need no explaining
        assert "available core" not in plan(*_tc(10), threads=2).explain()
        assert pl.as_dict()["estimates_seconds"] == pl.estimates


# ----------------------------------------------------------------------
# kernel rewrites: bitwise against the code they replaced
# ----------------------------------------------------------------------
def _inner_before(a, b, mask, *, semiring=PLUS_TIMES, counter=None, pull_budget=1 << 22):
    """The inner kernel as it was: per-mask-nonzero block walk, a binary
    search of every pulled pair in A's flat keys, COO output through
    ``from_coo``."""
    a, mask = a.sort_indices(), mask.sort_indices()
    n = b.ncols
    if a.nnz == 0 or b.nnz == 0 or mask.nnz == 0:
        if counter is not None:
            counter.mask_scans += mask.nnz
        return CSR.empty((a.nrows, n))
    csc = CSC.from_csr(b)
    a_rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_nnz())
    a_keys = row_keys(a_rows, a.indices, a.ncols)
    m_rows_all = np.repeat(np.arange(mask.nrows, dtype=np.int64), mask.row_nnz())
    m_cols_all = mask.indices
    pulls = csc.col_nnz()[m_cols_all]
    out_rows, out_cols, out_vals = [], [], []
    lo, nmask = 0, m_cols_all.shape[0]
    while lo < nmask:
        acc, hi = 0, lo
        while hi < nmask and (acc == 0 or acc + pulls[hi] <= pull_budget):
            acc += int(pulls[hi])
            hi += 1
        m_rows, m_cols = m_rows_all[lo:hi], m_cols_all[lo:hi]
        if counter is not None:
            counter.mask_scans += hi - lo
        starts = csc.indptr[m_cols]
        counts = csc.indptr[m_cols + 1] - starts
        total = int(counts.sum())
        if total == 0:
            lo = hi
            continue
        ofs = np.repeat(np.cumsum(counts) - counts, counts)
        pos = np.arange(total, dtype=np.int64) - ofs + np.repeat(starts, counts)
        slot = np.repeat(np.arange(hi - lo, dtype=np.int64), counts)
        keys = row_keys(m_rows[slot], csc.indices[pos], a.ncols)
        idx = np.minimum(np.searchsorted(a_keys, keys), a_keys.shape[0] - 1)
        match = a_keys[idx] == keys
        if counter is not None:
            counter.flops += int(match.sum())
        prods = semiring.mult_ufunc(a.data[idx[match]], csc.data[pos][match])
        vals = np.full(hi - lo, semiring.add_identity, dtype=np.float64)
        hit = np.zeros(hi - lo, dtype=bool)
        semiring.add_ufunc.at(vals, slot[match], prods)
        hit[slot[match]] = True
        out_rows.append(m_rows[hit])
        out_cols.append(m_cols[hit])
        out_vals.append(vals[hit])
        if counter is not None:
            counter.useful_flops += int(hit.sum())
        lo = hi
    rows = np.concatenate(out_rows)
    if counter is not None:
        counter.output_nnz += int(rows.shape[0])
    return CSR.from_coo((a.nrows, n), rows, np.concatenate(out_cols), np.concatenate(out_vals))


def _with_duplicates(shape, nnz, seed):
    """Unsorted CSR with repeated (row, col) entries (not canonical)."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, shape[0], size=nnz))
    cols = rng.integers(0, max(1, shape[1] // 4), size=nnz)
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSR(shape, indptr, cols, rng.random(nnz) + 0.5, sorted_indices=False)


def _empty_rows(mat, keep_every=3):
    return mat.select_rows(np.arange(0, mat.nrows, keep_every))


REWRITE_INPUTS = {
    "random": lambda: _er(96, 6, 5, seed=11),
    "rectangular": lambda: (
        erdos_renyi(40, 70, 5, seed=1), erdos_renyi(70, 55, 4, seed=2),
        erdos_renyi(40, 55, 6, seed=3),
    ),
    "hypersparse": lambda: _er(5000, 0.01, 0.02, seed=5),
    "empty-rows": lambda: tuple(_empty_rows(x) for x in _er(90, 5, 5, seed=7)),
    "duplicates": lambda: (
        _with_duplicates((60, 60), 400, 1), _with_duplicates((60, 60), 400, 2),
        _with_duplicates((60, 60), 500, 3),
    ),
    "empty": lambda: (CSR.empty((7, 9)), CSR.empty((9, 4)), CSR.empty((7, 4))),
    "tc": lambda: _tc(8),
}


@pytest.mark.parametrize("name", sorted(REWRITE_INPUTS))
class TestKernelRewritesBitwise:
    def test_inner_matches_the_kernel_it_replaced(self, name):
        a, b, m = REWRITE_INPUTS[name]()
        max_sr = Semiring("max_plus_test", np.maximum, np.add, -np.inf)
        for sr in (PLUS_TIMES, PLUS_PAIR, max_sr):
            for budget in (1, 37, 1 << 17):
                want_c = OpCounter()
                want = _inner_before(a, b, m, semiring=sr, counter=want_c, pull_budget=budget)
                # the dense rank array: default budget, one below most
                # inputs' ncols(A) (one row per block), and a degenerate one
                for dense in (1 << 20, 50, 1):
                    got_c = OpCounter()
                    got = masked_spgemm_inner_fast(
                        a, b, m, semiring=sr, counter=got_c, pull_budget=budget,
                        dense_budget=dense,
                    )
                    assert _bitwise(got, want), (name, sr.name, budget, dense)
                    assert got.sorted_indices
                    assert got_c.as_dict() == want_c.as_dict(), (name, sr.name, budget, dense)

    def test_transpose_matches_the_lexsort_build(self, name):
        for mat in REWRITE_INPUTS[name]():
            rows, cols, vals = mat.to_coo()
            want = CSR.from_coo((mat.ncols, mat.nrows), cols, rows, vals)
            got = mat.transpose()
            assert _bitwise(got, want) and got.sorted_indices
            got.check()
            assert _bitwise(CSC.from_csr(mat).to_transposed_csr(), want)


def test_transpose_wide_matrix_uses_both_radix_digits():
    """Column ids above 2**16 need the second 16-bit pass."""
    mat = erdos_renyi(50, 200_000, 40, seed=9)
    rows, cols, vals = mat.to_coo()
    want = CSR.from_coo((mat.ncols, mat.nrows), cols, rows, vals)
    assert int(mat.indices.max()) >= 1 << 16
    assert _bitwise(mat.transpose(), want)
    assert _bitwise(mat.transpose().transpose(), mat)


def test_from_coo_indptr_counts_rows():
    got = CSR.from_coo((5, 4), [4, 0, 4, 2], [1, 3, 0, 2], [1.0, 2.0, 3.0, 4.0])
    assert got.indptr.tolist() == [0, 1, 1, 2, 2, 4]
    assert got.indptr.dtype == np.int64
    got.check()
