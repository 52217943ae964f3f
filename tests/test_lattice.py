"""A fixed sample of the option lattice (``tests/lattice.py``) under tier-1.

Every sampled call is checked against the reference tier (same pattern,
values to rounding), against the plain forced call of its algorithm (same
bytes; same work counters where the counters are additive) and for the
invariant everything downstream rests on: each output row is stored
column-ascending.  The full factorial and the parent-vs-change comparison
are ``python -m tests.lattice`` (CONTRIBUTING.md).
"""

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.machine import OpCounter

from . import lattice

SAMPLE = 250
#: session / delta telemetry: what a call reused, not what it computed
TELEMETRY = ("segments_reused", "bytes_republished", "rows_recomputed",
             "rows_patched", "delta_fallbacks")
#: algorithms whose work counters are additive under row slicing
ADDITIVE = ("inner", "msa", "mca", "esc")


@pytest.fixture(scope="module")
def calls():
    """``(case, options, call id, CSR | Exception, OpCounter)`` per call of
    the sample, on the kernel tier this process runs."""
    out = []
    with lattice.tier_scope("native"):
        for case in lattice.sample(SAMPLE):
            for call_id, result, counter in lattice.execute(case):
                out.append((case, dict(case.options), call_id, result, counter))
    return out


def _work(counter):
    return {k: v for k, v in counter.as_dict().items() if k not in TELEMETRY}


def _operands(case, call_id):
    a, b, m, semiring = lattice.OPERANDS[case.operands]
    if call_id.endswith(":mutated"):
        a, b, m = lattice.mutated(a, b, m)
    return a, b, m, semiring


def _plain(memo, case, call_id, **kw):
    """The plain front-door call on the case's operands, memoised."""
    key = (case.operands, call_id.endswith(":mutated"), tuple(sorted(kw.items())))
    if key not in memo:
        a, b, m, semiring = _operands(case, call_id)
        counter = OpCounter()
        memo[key] = masked_spgemm(a, b, m, semiring=semiring, counter=counter, **kw), counter
    return memo[key]


def test_the_sample_is_fixed_and_spans_the_axes():
    chosen = lattice.sample(SAMPLE)
    assert chosen == lattice.sample(SAMPLE) and abs(len(chosen) - SAMPLE) < 20
    assert {case.door for case in chosen} == set(lattice.DOORS)
    assert {case.operands for case in chosen} == set(lattice.OPERANDS)
    seen = {}
    for case in chosen:
        for key, value in case.options:
            seen.setdefault(key, set()).add(value)
    assert seen["algo"] == set(lattice.ALGOS)
    assert seen["backend"] == set(lattice.BACKENDS) | {"auto"}
    assert seen["grid"] == set(lattice.GRIDS)
    assert seen["session"] == set(lattice.SESSIONS)
    assert seen["delta"] == set(lattice.DELTAS)
    assert seen["threads"] == set(lattice.THREADS)
    assert seen["machine"] == set(lattice.MACHINES[1:])
    assert seen["orientation"] == {"row", "column"}


def test_only_a_sessionless_forced_delta_raises(calls):
    for case, options, call_id, result, _ in calls:
        if isinstance(result, Exception):
            assert options.get("delta") == "force" and options["session"] != "own", (
                call_id, result)
            assert str(result) == "delta='force' requires a caching ExecutionSession"


def test_sample_matches_the_reference_tier(calls):
    memo = {}
    for case, options, call_id, got, _ in calls:
        if isinstance(got, Exception):
            continue
        want, _ = _plain(memo, case, call_id, algo="msa", impl="reference",
                         complement=options["complement"])
        assert got.shape == want.shape, call_id
        assert np.array_equal(got.indptr, want.indptr), call_id
        assert np.array_equal(got.indices, want.indices), call_id
        assert np.allclose(got.data, want.data, rtol=1e-12, atol=0, equal_nan=True), call_id
        # every kernel emits each row column-ascending: delta splicing, the
        # grid merge and the apps' searchsorted alignments rest on it
        keys = got.row_ids() * (got.ncols + 1) + got.indices
        assert np.all(np.diff(keys) > 0), call_id


def test_forced_spellings_are_the_plain_call(calls):
    """Same bytes as ``masked_spgemm(algo=X)`` on every door, backend, grid,
    session and delta; same work counters where nothing was sliced away."""
    memo, checked = {}, 0
    for case, options, call_id, got, counter in calls:
        if (
            isinstance(got, Exception) or case.door == "hybrid"
            or options["algo"] == "auto" or options.get("orientation") == "column"
        ):
            continue
        phases = options.get("phases", 1)
        want, plain = _plain(memo, case, call_id, algo=options["algo"], phases=phases,
                             complement=options["complement"])
        assert lattice.csr_digest(got) == lattice.csr_digest(want), call_id
        checked += 1
        # (an item whose mask part is empty is dropped before dispatch, its
        # products never expanded: grids, panels and the all-empty mask)
        if (
            options["algo"] in ADDITIVE and case.door != "chunked"
            and options.get("grid") is None and options.get("delta") is None
            and case.operands != "empty-mask"
        ):
            assert _work(counter) == _work(plain), call_id
    assert checked > SAMPLE // 2


def test_compare_reports_what_the_exception_table_does_not_cover():
    hashed = "native/rmat-10-tc/masked_spgemm/algo=hash,complement=False,backend=thread"
    forced = "native/random/masked_spgemm/algo=msa,complement=False,backend=thread"
    left = {
        hashed: {"csr": "aa", "counter": {"flops": 5, "hash_probes": 9}},
        forced: {"csr": "bb", "counter": {"flops": 7}},
        "native/random/hybrid/complement=False,impl=auto": {"error": "ValueError: x"},
    }
    same, covered = lattice.compare(left, left)
    assert same == [] and covered == 0
    right = {
        hashed: {"csr": "aa", "counter": {"flops": 5, "hash_probes": 11}},
        forced: {"csr": "bb", "counter": {"flops": 8, "hash_probes": 1}},
        "native/random/hybrid/complement=False,impl=auto": {"csr": "cc", "counter": {}},
    }
    findings, covered = lattice.compare(left, right)
    assert covered == 1  # hash_probes of the hash call; not of the msa call
    assert findings == [
        "native/random/hybrid/complement=False,impl=auto: ValueError: x != cc",
        f"{forced}: counters flops 7 != 8, hash_probes 0 != 1",
    ]
    del right[hashed]
    assert lattice.compare(left, right)[0][-1] == f"{hashed}: only in the first"
