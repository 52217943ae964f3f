"""Tests for the SS:GB baseline stand-ins and ``algo="auto"``, which runs
one algorithm over every row where the paper's future-work hybrid would
split them."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import scipy_masked_spgemm, scipy_spgemm, ssgb_dot, ssgb_saxpy
from repro.core import masked_spgemm
from repro.engine import Planner, execute
from repro.engine.planner import DECISIVE_MARGIN
from repro.graphs import erdos_renyi
from repro.machine import HOST, HOST_NATIVE, OpCounter
from repro.semiring import PLUS_PAIR
from repro.sparse import CSR

from .conftest import assert_csr_equal


class TestScipyOracle:
    def test_plain(self, small_triple):
        a, b, _ = small_triple
        want = CSR.from_scipy((a.to_scipy() @ b.to_scipy()).tocsr())
        assert_csr_equal(scipy_spgemm(a, b), want)

    def test_masked_and_complement_partition(self, small_triple):
        a, b, m = small_triple
        inside = scipy_masked_spgemm(a, b, m)
        outside = scipy_masked_spgemm(a, b, m, complement=True)
        full = scipy_spgemm(a, b).drop_zeros(1e-14)
        assert inside.nnz + outside.nnz == full.nnz


class TestSSGBBaselines:
    @pytest.mark.parametrize("fn", [ssgb_dot, ssgb_saxpy], ids=["dot", "saxpy"])
    def test_plain_mask(self, fn, small_triple):
        a, b, m = small_triple
        assert_csr_equal(fn(a, b, m), scipy_masked_spgemm(a, b, m))

    @pytest.mark.parametrize("fn", [ssgb_dot, ssgb_saxpy], ids=["dot", "saxpy"])
    def test_complement(self, fn, small_triple):
        a, b, m = small_triple
        assert_csr_equal(
            fn(a, b, m, complement=True),
            scipy_masked_spgemm(a, b, m, complement=True),
        )

    def test_agree_with_our_kernels(self, small_triple):
        a, b, m = small_triple
        ours = masked_spgemm(a, b, m, algo="msa")
        assert_csr_equal(ssgb_dot(a, b, m), ours)
        assert_csr_equal(ssgb_saxpy(a, b, m), ours)

    def test_saxpy_pays_full_flops(self, small_triple):
        """SS:SAXPY's defining behaviour: it computes every product, mask or
        no mask — our masked kernels compute only the useful ones."""
        from repro.machine import total_flops

        a, b, m = small_triple
        c_saxpy, c_ours = OpCounter(), OpCounter()
        ssgb_saxpy(a, b, m, counter=c_saxpy)
        masked_spgemm(a, b, m, algo="msa", counter=c_ours, impl="reference")
        assert c_saxpy.flops == total_flops(a, b)
        assert c_ours.flops < c_saxpy.flops

    def test_semiring_support(self, small_triple):
        a, b, m = small_triple
        want = masked_spgemm(a, b, m, algo="msa", semiring=PLUS_PAIR)
        assert_csr_equal(ssgb_saxpy(a, b, m, semiring=PLUS_PAIR), want)
        assert_csr_equal(ssgb_dot(a, b, m, semiring=PLUS_PAIR), want)


class TestHybrid:
    """The per-row hybrid the paper leaves as future work is not built:
    ``algo="auto"`` runs one algorithm over every row, the cheapest the
    host profile predicts for the whole product."""

    def test_matches_oracle(self, small_triple):
        a, b, m = small_triple
        pl = Planner(HOST).plan(a, b, m)
        assert len(pl.bands) == 1
        assert_csr_equal(execute(pl, a, b, m), scipy_masked_spgemm(a, b, m))
        assert_csr_equal(masked_spgemm(a, b, m, algo="auto"), scipy_masked_spgemm(a, b, m))

    def test_classification_covers_all_rows(self, small_triple):
        a, b, m = small_triple
        (band,) = Planner(HOST).plan(a, b, m).bands
        assert band.nrows == a.nrows

    def test_classification_regimes(self):
        n = 256
        planner = Planner(HOST)
        # dense inputs + sparse mask -> inner
        a = erdos_renyi(n, n, 24, seed=1)
        b = erdos_renyi(n, n, 24, seed=2)
        m = erdos_renyi(n, n, 1, seed=3)
        assert planner.plan(a, b, m).nrows_per_algo() == {"inner": n}
        # sparse inputs + dense mask -> mca
        a2 = erdos_renyi(n, n, 1, seed=4)
        m2 = erdos_renyi(n, n, 32, seed=5)
        assert planner.plan(a2, a2, m2).nrows_per_algo() == {"mca": n}

    def test_machine_dependent_accumulator(self):
        # the push regime's accumulator follows the kernel tier's profile:
        # MCA on the NumPy bodies, MSA on the C loops (which have no MCA)
        n = 1024
        a = erdos_renyi(n, n, 1, seed=6)
        b = erdos_renyi(n, n, 1, seed=7)
        m = erdos_renyi(n, n, 64, seed=8)
        assert Planner(HOST).plan(a, b, m).algo == "mca"
        assert Planner(HOST_NATIVE).plan(a, b, m).algo == "msa"

    def test_mixed_density_correctness(self):
        """A matrix with wildly different row regimes still multiplies
        correctly through the one band the planner picks."""
        n = 200
        rng = np.random.default_rng(0)
        rows, cols = [], []
        # half the rows dense, half nearly empty
        for i in range(n // 2):
            cs = rng.choice(n, size=30, replace=False)
            rows += [i] * 30
            cols += cs.tolist()
        for i in range(n // 2, n):
            rows.append(i)
            cols.append(int(rng.integers(n)))
        a = CSR.from_coo((n, n), np.array(rows), np.array(cols),
                         rng.random(len(rows)))
        m = erdos_renyi(n, n, 8, seed=10)
        want = scipy_masked_spgemm(a, a, m)
        assert_csr_equal(execute(Planner(HOST).plan(a, a, m), a, a, m), want)
        assert_csr_equal(masked_spgemm(a, a, m, algo="auto"), want)

    def test_thresholds_exposed(self, small_triple):
        """The thresholds are the profile's: the whole-problem margin that
        ends a clear call, and the measured per-unit costs.  They change
        routing, not results."""
        a, b, m = small_triple
        assert DECISIVE_MARGIN == 2.0
        host = Planner(HOST).plan(a, b, m)
        costly = dataclasses.replace(HOST, **{f"{host.algo}_ns": (1e6,) * 3})
        other = Planner(costly).plan(a, b, m)
        assert other.algo != host.algo
        assert_csr_equal(execute(host, a, b, m), execute(other, a, b, m))

    def test_empty_inputs(self):
        e = CSR.empty((5, 5))
        out = masked_spgemm(e, e, e, algo="auto")
        assert out.nnz == 0
        assert execute(Planner(HOST).plan(e, e, e), e, e, e).nnz == 0
