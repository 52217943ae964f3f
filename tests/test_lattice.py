"""A fixed sample of the option lattice (``tests/lattice.py``) under tier-1.

Every sampled call is checked against the reference tier (same pattern,
values to rounding), against the plain forced call of its algorithm (same
bytes; same work counters where the counters are additive) and for the
invariant everything downstream rests on: each output row is stored
column-ascending.  The full factorial and the parent-vs-change comparison
are ``python -m tests.lattice`` (CONTRIBUTING.md).
"""

import functools
import re

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.core.leaf import run_kernel
from repro.core.masked_spgemm import masked_values
from repro.machine import OpCounter

from . import lattice

SAMPLE = 210
#: algorithms whose work counters are additive under row slicing
ADDITIVE = ("inner", "msa", "mca", "esc")


@pytest.fixture(scope="module")
def calls():
    """``(case, options, call id, CSR | Exception, OpCounter)`` per call of
    the sample, on the kernel tier this process runs."""
    out = []
    with lattice.tier_scope("native"):
        for case in lattice.sample(SAMPLE):
            out.append((case, dict(case.options), *lattice.execute(case)))
    return out


def _plain(memo, case, **kw):
    """The plain front-door call on the case's operands, memoised."""
    key = (case.operands, tuple(sorted(kw.items())))
    if key not in memo:
        a, b, m, semiring = lattice.OPERANDS[case.operands]
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
    assert seen["backend"] == set(lattice.BACKENDS)
    assert seen["threads"] == set(lattice.THREADS)
    # one spelling per choice: no orientation, grid, panel width or
    # partition axis, and no machine axis (every plan is priced from the
    # host profile)
    assert set(seen) == {"algo", "complement", "phases", "backend",
                         "threads", "nthreads"}
    # every sampled nthreads=k call comes with the nthreads=1 twin it is
    # compared with, here and at the size CI digests
    for n in (SAMPLE, 2000):
        ids = {case.id for case in lattice.sample(n)}
        for call_id in ids:
            k = re.search(r"nthreads=\d+", call_id)
            if k:
                assert call_id.replace(k.group(0), "nthreads=1") in ids, (n, call_id)


def test_sample_matches_the_reference_tier(calls):
    memo = {}
    for case, options, call_id, got, _ in calls:
        assert not isinstance(got, Exception), (call_id, got)
        want, _ = _plain(memo, case, algo="msa", impl="reference",
                         complement=options["complement"])
        assert got.shape == want.shape, call_id
        assert np.array_equal(got.indptr, want.indptr), call_id
        assert np.array_equal(got.indices, want.indices), call_id
        assert np.allclose(got.data, want.data, rtol=1e-12, atol=0, equal_nan=True), call_id
        # every kernel emits each row column-ascending: the row-part merge
        # and the apps' searchsorted alignments rest on it
        keys = got.row_ids() * (got.ncols + 1) + got.indices
        assert np.all(np.diff(keys) > 0), call_id


def test_forced_spellings_are_the_plain_call(calls):
    """Same bytes as ``masked_spgemm(algo=X)`` on every door and backend;
    the same work counters for the algorithms whose counters add up over
    row parts."""
    memo, checked = {}, 0
    for case, options, call_id, got, counter in calls:
        if options["algo"] == "auto":
            continue
        phases = options.get("phases", 1)
        want, plain = _plain(memo, case, algo=options["algo"], phases=phases,
                             complement=options["complement"])
        assert lattice.csr_digest(got) == lattice.csr_digest(want), call_id
        checked += 1
        if options["algo"] in ADDITIVE:
            assert counter.as_dict() == plain.as_dict(), call_id
    assert checked > SAMPLE // 2


def test_compare_reports_what_the_exception_table_does_not_cover():
    hashed = "native/rmat-10-tc/masked_spgemm/algo=hash,complement=False,backend=thread"
    forced = "native/random/masked_spgemm/algo=msa,complement=False,backend=thread"
    leaf = "native/random/kernel/algo=msa,complement=False,phases=1,nthreads=2"
    left = {
        hashed: {"csr": "aa", "counter": {"flops": 5, "hash_probes": 9}},
        forced: {"csr": "bb", "counter": {"flops": 7}},
        leaf: {"error": "ValueError: x"},
    }
    same, covered = lattice.compare(left, left)
    assert same == [] and covered == 0
    right = {
        hashed: {"csr": "aa", "counter": {"flops": 5, "hash_probes": 11}},
        forced: {"csr": "bb", "counter": {"flops": 8, "hash_probes": 1}},
        leaf: {"csr": "cc", "counter": {}},
    }
    findings, covered = lattice.compare(left, right)
    assert covered == 1  # hash_probes of the hash call; not of the msa call
    assert findings == [
        f"{leaf}: ValueError: x != cc",
        f"{forced}: counters flops 7 != 8, hash_probes 0 != 1",
    ]
    del right[hashed]
    assert lattice.compare(left, right)[0][-1] == f"{hashed}: only in the first"


def test_in_kernel_threads_change_nothing():
    """Every ``nthreads`` case of the enumeration, on both tiers, records
    exactly what its ``nthreads=1`` twin does: CSR bytes and counters."""
    kernel = [case for case in lattice.cases() if case.door == "kernel"]
    records = {}
    for tier in lattice.TIERS:
        with lattice.tier_scope(tier):
            for case in kernel:
                call_id, result, counter = lattice.execute(case)
                records[f"{tier}/{call_id}"] = lattice.record(result, counter)
    assert len(records) == len(lattice.TIERS) * len(lattice.OPERANDS) * len(
        lattice.KERNEL_CALLS) * len(lattice.PHASES) * len(lattice.NTHREADS)
    assert not any("error" in r for r in records.values())
    assert lattice.thread_axis_findings(records) == []
    one = "native/random/kernel/algo=msa,complement=False,phases=1,nthreads=1"
    more = [one.replace("nthreads=1", f"nthreads={k}") for k in lattice.NTHREADS[1:]]
    assert lattice.thread_axis_findings(dict(records, **{one: {"csr": "x"}})) == [
        f"{k}: {records[k]} != {one}: {{'csr': 'x'}}" for k in more]


def test_aligned_values_are_the_scattered_product():
    """The alignment axis: every plain-mask ``kernel`` case (``msa`` and
    ``inner`` at ``nthreads`` 1 / 2 / 4, 1P and 2P) and the sample's
    plain-mask front-door cases, on both tiers, read at the mask's entries
    (``run_kernel(aligned=True)`` / ``masked_values``) are their CSR
    products scattered there: the same bytes, errors and counters.  On the repeated-column mask
    the first entry of a column takes its value; ``inner``'s 2P
    cross-check compares the aligned hits with the symbolic total there and
    raises, as the CSR call does."""
    kernel = [case for case in lattice.cases() if case.door == "kernel"]
    front = [case for case in lattice.sample(SAMPLE) if case.door == "masked_spgemm"]
    cases = lattice.alignment_cases(kernel + front)
    assert {case.operands for case in cases} == set(lattice.ALIGNMENT_OPERANDS)
    assert {dict(case.options).get("nthreads") for case in cases} == {None, *lattice.NTHREADS}
    assert lattice.alignment_findings(cases) == []
    (case,) = [case for case in cases if case.operands == "repeated-column" and dict(
        case.options) == dict(algo="inner", complement=False, phases=2, nthreads=1)]
    _, got, _ = lattice.execute(case._replace(options=case.options[:1] + case.options[2:]),
                                door=functools.partial(run_kernel, aligned=True))
    assert "symbolic/numeric mismatch" in str(got)
    a, b, m, _ = lattice.ALIGNMENT_OPERANDS["repeated-column"]
    values = run_kernel(a, b, m, algo="msa", aligned=True)
    # row 0 repeats column 0: only its first entry holds the product
    assert values[0] != 0 and not values[1:m.indptr[1]].any()


def test_visited_bitmap_is_the_complemented_csr_call():
    """The visited axis: every complemented ``kernel`` case (``msa`` at
    ``nthreads`` 1 / 2 / 4, 1P on the bits and 2P through the CSR fallback)
    and the sample's complemented front-door cases, with every one on the
    ``empty-rows`` set (each algorithm, backend and phase count), on both tiers, run on the mask's visited bitmap give the bytes,
    errors and counters of the call on the CSR mask, and leave the bitmap
    holding the mask's cells plus the product's: on 200 columns (a tail word)
    with a fully visited row too, and on every set with empty A rows."""
    kernel = [case for case in lattice.cases() if case.door == "kernel"]
    front = [case for case in lattice.sample(SAMPLE) if case.door == "masked_spgemm"]
    front += [case for case in lattice.cases()
              if case.door == "masked_spgemm" and case.operands == "empty-rows"]
    cases = lattice.visited_cases(kernel + front)
    assert {case.operands for case in cases} == set(lattice.CASE_OPERANDS) - {
        "unsorted-dup", "repeated-column"}  # rows that repeat or misorder a column
    assert {dict(case.options).get("nthreads") for case in cases} == {None, *lattice.NTHREADS}
    assert {dict(case.options)["algo"] for case in cases} == {
        algo for algo in lattice.ALGOS if algo not in ("inner", "mca")}
    assert lattice.visited_findings(cases) == []


def test_aligned_values_refuse_a_complemented_mask():
    """A complemented product has no value at a mask entry: ``masked_values``
    refuses it instead of returning zeros."""
    a, b, m, _ = lattice.OPERANDS["rmat-10-tc"]
    for algo in ("msa", "auto"):
        with pytest.raises(ValueError, match="complemented product has none"):
            masked_values(a, b, m, algo=algo, complement=True)
