"""Unit tests for the four masked accumulators (paper Section 5).

These exercise the SETALLOWED/INSERT/REMOVE state machines of Figures 3
and 5 directly, including the lazy-evaluation contract of INSERT (masked-out
products must never evaluate their value lambda).
"""

import numpy as np
import pytest

from repro.core.accumulators import (
    ALLOWED,
    MCA,
    MSA,
    NOTALLOWED,
    SET,
    HashAccumulator,
    HashComplement,
    MSAComplement,
    table_capacity,
)
from repro.machine import OpCounter

ADD = lambda x, y: x + y  # noqa: E731


def make_msa(n=16):
    return MSA(n, ADD)


def make_hash(n=16):
    return HashAccumulator(n, ADD)


MASKED_FACTORIES = [make_msa, make_hash]


@pytest.mark.parametrize("factory", MASKED_FACTORIES, ids=["msa", "hash"])
class TestMaskedStateMachine:
    def test_insert_without_allow_is_discarded(self, factory):
        acc = factory()
        acc.insert(3, 7.0)
        assert acc.remove(3) is None

    def test_lambda_not_evaluated_when_discarded(self, factory):
        acc = factory()
        evaluated = []
        acc.insert(3, lambda: evaluated.append(1) or 1.0)
        assert evaluated == []  # the paper's lazy INSERT contract

    def test_lambda_evaluated_when_allowed(self, factory):
        acc = factory()
        acc.set_allowed(3)
        evaluated = []
        acc.insert(3, lambda: evaluated.append(1) or 2.5)
        assert evaluated == [1]
        assert acc.remove(3) == 2.5

    def test_accumulation(self, factory):
        acc = factory()
        acc.set_allowed(5)
        acc.insert(5, 1.0)
        acc.insert(5, 2.0)
        acc.insert(5, 3.5)
        assert acc.remove(5) == pytest.approx(6.5)

    def test_allowed_but_never_inserted_returns_none(self, factory):
        acc = factory()
        acc.set_allowed(4)
        assert acc.remove(4) is None

    def test_remove_clears_key(self, factory):
        acc = factory()
        acc.set_allowed(2)
        acc.insert(2, 1.0)
        assert acc.remove(2) == 1.0
        # after REMOVE "all values with the specified key are removed"
        assert acc.remove(2) is None

    def test_set_allowed_idempotent(self, factory):
        acc = factory()
        acc.set_allowed(1)
        acc.set_allowed(1)
        acc.insert(1, 2.0)
        assert acc.remove(1) == 2.0

    def test_keys_independent(self, factory):
        acc = factory()
        acc.set_allowed(0)
        acc.set_allowed(7)
        acc.insert(0, 1.0)
        acc.insert(7, 9.0)
        assert acc.remove(7) == 9.0
        assert acc.remove(0) == 1.0

    def test_reset_restores_default(self, factory):
        acc = factory()
        acc.set_allowed(3)
        acc.insert(3, 1.0)
        acc.reset()
        acc.insert(3, 5.0)  # NOTALLOWED again -> discarded
        assert acc.remove(3) is None

    def test_reuse_across_rows(self, factory):
        acc = factory()
        for row in range(5):
            acc.set_allowed(row)
            acc.insert(row, float(row))
            assert acc.remove(row) == float(row)
            acc.reset()

    def test_custom_monoid(self, factory):
        acc = factory()
        acc.add = min
        acc.set_allowed(2)
        acc.insert(2, 4.0)
        acc.insert(2, 1.0)
        acc.insert(2, 9.0)
        assert acc.remove(2) == 1.0


class TestMSASpecifics:
    def test_states_array_transitions(self):
        acc = MSA(8, ADD)
        assert acc.states[3] == NOTALLOWED
        acc.set_allowed(3)
        assert acc.states[3] == ALLOWED
        acc.insert(3, 1.0)
        assert acc.states[3] == SET
        acc.remove(3)
        assert acc.states[3] == NOTALLOWED

    def test_counter_instrumentation(self):
        c = OpCounter()
        acc = MSA(8, ADD, counter=c)
        acc.set_allowed(1)
        acc.insert(1, 1.0)
        acc.insert(2, 1.0)  # discarded
        acc.remove(1)
        assert c.accum_allowed == 1
        assert c.accum_inserts == 2
        assert c.accum_removes == 1
        assert c.flops == 1  # only the allowed insert multiplied


class TestHashSpecifics:
    def test_table_capacity_load_factor(self):
        # capacity must keep load factor <= 0.25 and be a power of two
        for keys in (1, 3, 7, 16, 100):
            cap = table_capacity(keys)
            assert cap >= keys / 0.25
            assert cap & (cap - 1) == 0

    def test_no_resizing_needed_at_capacity(self):
        acc = HashAccumulator(50, ADD)
        for k in range(50):
            acc.set_allowed(k * 131)
            acc.insert(k * 131, 1.0)
        for k in range(50):
            assert acc.remove(k * 131) == 1.0

    def test_full_table_raises_instead_of_probing_forever(self):
        from repro.core.accumulators import HashComplement

        acc = HashComplement(1, ADD)
        for k in range(acc.capacity):
            acc.set_not_allowed(k)
        # every slot holds another key: a lookup ends, a new key is refused
        assert acc.remove(acc.capacity) is None
        with pytest.raises(RuntimeError, match="over capacity"):
            acc.insert(acc.capacity, 1.0)

    def test_probe_counting(self):
        c = OpCounter()
        acc = HashAccumulator(4, ADD, counter=c)
        acc.set_allowed(1)
        assert c.hash_probes >= 1

    def test_colliding_keys(self):
        # keys that collide modulo the table size must still be distinct
        acc = HashAccumulator(4, ADD)
        cap = acc.capacity
        k1, k2 = 3, 3 + cap
        acc.set_allowed(k1)
        acc.set_allowed(k2)
        acc.insert(k1, 1.0)
        acc.insert(k2, 2.0)
        assert acc.remove(k1) == 1.0
        assert acc.remove(k2) == 2.0


class TestMCA:
    def test_two_state_machine(self):
        acc = MCA(4, ADD)
        # every key is ALLOWED from the start: no set_allowed needed
        acc.insert(0, 2.0)
        acc.insert(0, 3.0)
        assert acc.remove(0) == 5.0
        assert acc.remove(1) is None

    def test_set_allowed_is_free_but_bounds_checked(self):
        acc = MCA(4, ADD)
        acc.set_allowed(2)  # no-op
        with pytest.raises(IndexError):
            acc.set_allowed(9)

    def test_remove_restores_allowed(self):
        acc = MCA(3, ADD)
        acc.insert(1, 1.0)
        assert acc.remove(1) == 1.0
        acc.insert(1, 7.0)
        assert acc.remove(1) == 7.0

    def test_no_complement_support(self):
        acc = MCA(3, ADD)
        assert not acc.supports_complement
        with pytest.raises(NotImplementedError):
            acc.set_not_allowed(0)

    def test_reset(self):
        acc = MCA(3, ADD)
        acc.insert(0, 1.0)
        acc.reset()
        assert acc.remove(0) is None


COMPL_FACTORIES = [
    lambda: MSAComplement(16, ADD),
    lambda: HashComplement(16, ADD),
]


@pytest.mark.parametrize("factory", COMPL_FACTORIES, ids=["msa-c", "hash-c"])
class TestComplementAccumulators:
    def test_default_allowed(self, factory):
        acc = factory()
        acc.insert(3, 4.0)
        assert acc.remove(3) == 4.0

    def test_not_allowed_discards(self, factory):
        acc = factory()
        acc.set_not_allowed(3)
        evaluated = []
        acc.insert(3, lambda: evaluated.append(1) or 1.0)
        assert evaluated == []
        assert acc.remove(3) is None

    def test_inserted_keys_tracked(self, factory):
        acc = factory()
        acc.set_not_allowed(5)
        acc.insert(1, 1.0)
        acc.insert(9, 2.0)
        acc.insert(5, 3.0)  # discarded
        acc.insert(1, 4.0)  # accumulate, no duplicate key entry
        assert sorted(acc.inserted_keys()) == [1, 9]

    def test_reset_restores_default(self, factory):
        acc = factory()
        acc.set_not_allowed(2)
        acc.insert(4, 1.0)
        acc.reset()
        # 2 is allowed again, 4 is cleared
        acc.insert(2, 5.0)
        assert acc.remove(2) == 5.0
        assert acc.remove(4) is None

    def test_accumulation(self, factory):
        acc = factory()
        acc.insert(7, 1.5)
        acc.insert(7, 2.5)
        assert acc.remove(7) == 4.0

    def test_supports_complement_flag(self, factory):
        assert factory().supports_complement
