"""Counter consistency between the reference and fast tiers.

The machine model consumes operation profiles; if the two implementation
tiers disagreed about how much countable work an algorithm does, the model
would silently describe neither.  These tests pin the counters that are
tier-independent by definition:

* ``flops`` — useful (mask-surviving) multiplies: identical across tiers
  and across algorithms (every correct masked algorithm does exactly the
  useful work, given lazy INSERT semantics);
* ``accum_inserts`` — products offered to the accumulator: equals
  ``flops(AB)`` for the push algorithms in both tiers;
* ``output_nnz`` — identical everywhere.
"""

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.machine import OpCounter, total_flops, useful_flops_per_row

from .conftest import random_csr


@pytest.fixture(scope="module")
def triple():
    a = random_csr(60, 50, 5, seed=81)
    b = random_csr(50, 70, 5, seed=82)
    m = random_csr(60, 70, 8, seed=83)
    return a, b, m


PUSH_ACCUM_ALGOS = ["msa", "hash", "esc"]


class TestUsefulFlops:
    @pytest.mark.parametrize("algo", ["msa", "hash", "mca", "esc", "heap",
                                      "heapdot", "inner"])
    @pytest.mark.parametrize("impl", ["reference", "auto"])
    def test_flops_equal_exact_useful(self, algo, impl, triple):
        a, b, m = triple
        c = OpCounter()
        masked_spgemm(a, b, m, algo=algo, impl=impl, counter=c)
        assert c.flops == useful_flops_per_row(a, b, m).sum(), (algo, impl)

    @pytest.mark.parametrize("algo", PUSH_ACCUM_ALGOS)
    def test_inserts_equal_total_flops_both_tiers(self, algo, triple):
        a, b, m = triple
        for impl in ("reference", "auto"):
            c = OpCounter()
            masked_spgemm(a, b, m, algo=algo, impl=impl, counter=c)
            assert c.accum_inserts == total_flops(a, b), (algo, impl)

    @pytest.mark.parametrize("algo", ["msa", "hash", "mca", "inner", "esc"])
    def test_output_nnz_counter(self, algo, triple):
        a, b, m = triple
        c = OpCounter()
        out = masked_spgemm(a, b, m, algo=algo, impl="auto", counter=c)
        assert c.output_nnz == out.nnz


class TestMaskSavings:
    def test_sparser_mask_fewer_flops(self):
        a = random_csr(100, 100, 8, seed=84)
        b = random_csr(100, 100, 8, seed=85)
        flops = []
        for deg in (1, 4, 16, 64):
            m = random_csr(100, 100, deg, seed=86)
            c = OpCounter()
            masked_spgemm(a, b, m, algo="msa", counter=c)
            flops.append(c.flops)
        assert flops == sorted(flops)
        assert flops[0] < flops[-1]

    def test_complement_flops_are_the_complement(self, triple):
        """useful(M) + useful(!M) == flops(AB), measured by counters."""
        a, b, m = triple
        c_in, c_out = OpCounter(), OpCounter()
        masked_spgemm(a, b, m, algo="msa", counter=c_in)
        masked_spgemm(a, b, m, algo="msa", complement=True, counter=c_out)
        assert c_in.flops + c_out.flops == total_flops(a, b)


class TestHashProbeAccounting:
    def test_probe_counts_reasonable_both_tiers(self, triple):
        """At load factor 0.25, expected probes/op stay below 2 in both the
        scalar and the batched hash tables."""
        a, b, m = triple
        for impl in ("reference", "auto"):
            c = OpCounter()
            masked_spgemm(a, b, m, algo="hash", impl=impl, counter=c)
            ops = c.accum_allowed + c.accum_inserts + c.accum_removes
            assert c.hash_probes >= 1
            assert c.hash_probes <= 2.5 * max(1, ops), impl


class TestSchemaGrowth:
    """Counters cross process and file boundaries (worker pickles, the
    trace exports' stored dicts); an older payload must stay readable
    after the field list grows."""

    class _OldCounter:
        """Stand-in for a counter pickled before new fields existed."""

        def __init__(self, **kw):
            for k, v in kw.items():
                setattr(self, k, v)

    def test_merge_tolerates_missing_fields(self):
        c = OpCounter(flops=3, hash_probes=2)
        c.merge(self._OldCounter(flops=5))
        assert c.flops == 8
        assert c.hash_probes == 2  # absent on the old producer: merged as 0

    def test_diff_tolerates_short_snapshot(self):
        c = OpCounter(flops=7, output_nnz=4)
        short = (3,)  # snapshot taken when only `flops` existed
        d = c.diff(short)
        assert d["flops"] == 4
        assert d["output_nnz"] == 4  # missing trailing fields read as 0

    def test_diff_none_means_since_zero(self):
        c = OpCounter(flops=2)
        assert c.diff(None) == {"flops": 2}

    def test_from_dict_ignores_unknown_keys(self):
        payload = {"flops": 9, "a_future_counter": 123}
        c = OpCounter.from_dict(payload)
        assert c.flops == 9
        assert not hasattr(c, "a_future_counter")

    def test_from_dict_roundtrip(self):
        c = OpCounter(flops=1, mask_scans=5, output_nnz=2)
        assert OpCounter.from_dict(c.as_dict()).as_dict() == c.as_dict()
