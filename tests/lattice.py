"""The option lattice of ``C = M .* (A @ B)``, enumerated once.

Bit-for-bit identity of values *and* ``OpCounter``s across every spelling
of a call is the library's contract.  This module is that contract as
data: the axes (front door x ``algo`` x complement x phases x batch x
orientation x backend x threads x grid x session x delta x machine x
kernel tier), the operand sets they run over (the adversarial sets of
``tests/test_native.py`` plus an R-MAT triangle-counting triple) and one
record per call — ``(case id, blake2b of the CSR bytes, OpCounter)``; a
call that raises records the error's type and text instead.

Three consumers:

* ``python -m tests.lattice --digest out.json`` runs the enumeration (both
  kernel tiers; ``--sample N`` an evenly spaced N-case subset) and writes
  the records;
* ``python -m tests.lattice --compare a.json b.json`` prints every case id
  whose digest or counters differ outside :data:`EXCEPTIONS` and exits
  non-zero if there is one — the parent-vs-change identity check of a
  refactor (CONTRIBUTING.md: clone the parent, copy this file in, digest
  both trees, compare).  Both sides run the cases in the same order, and
  need to: a sessioned ``algo="auto"`` call prices ``inner`` by whether B's
  CSC is already memoised on the operand, so what ran before can move its
  plan — the bytes never, the counters of a handful of calls;
* ``tests/test_lattice.py`` runs a fixed sample under tier-1 against the
  reference tier.

The factorial is full where the axes interact (serial spellings; planned
dispatch: backend x grid x session x delta) and one axis at a time
elsewhere, ~35k calls per tier (see :func:`cases`).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import re
import sys
from itertools import product
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core import (
    masked_spgemm,
    masked_spgemm_chunked,
    masked_spgemm_hybrid,
    supports_complement,
)
from repro.core.kernels import native
from repro.engine import ExecutionSession
from repro.graphs import erdos_renyi, relabel_by_degree, rmat
from repro.machine import KNL, OpCounter
from repro.parallel import parallel_masked_spgemm, shutdown_pool
from repro.semiring import PLUS_PAIR, PLUS_TIMES
from repro.sparse import CSR

# ----------------------------------------------------------------------
# operand sets
# ----------------------------------------------------------------------
#: values that make float identity hard: NaN, infinities, signed zeros and
#: small integers whose sums cancel to 0.0
SPECIAL = np.array([1.0, -1.0, 2.0, -2.0, 0.5, np.nan, np.inf, -np.inf, -0.0, 0.0])


def _special(mat: CSR, seed: int) -> CSR:
    rng = np.random.default_rng(seed)
    data = rng.choice(SPECIAL, size=mat.nnz, p=[0.2, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.1, 0.05])
    return CSR(mat.shape, mat.indptr, mat.indices, data, sorted_indices=True, check=False)


def _er(nr, nc, deg, seed):
    return _special(erdos_renyi(nr, nc, deg, seed=seed), seed)


def _with_empty_rows(mat: CSR, every: int) -> CSR:
    return mat.select_rows(np.flatnonzero(np.arange(mat.nrows) % every))


def _mega_row():
    a = erdos_renyi(48, 64, 2, seed=11).to_dense()
    a[7, :] = 1.0  # one row touches every row of B
    r, c = np.nonzero(a)
    return _special(CSR.from_coo(a.shape, r, c, np.ones(r.size)), 12)


def _unsorted_with_duplicates():
    # rows written back to front with one entry repeated: sort_indices()
    # canonicalises (sorts, sums the duplicate) on both tiers alike
    indptr = np.array([0, 4, 4, 7])
    indices = np.array([5, 2, 2, 0, 6, 1, 1])
    data = np.array([1.0, 2.0, -2.0, 0.5, 1.0, -1.0, 3.0])
    return CSR((3, 8), indptr, indices, data, sorted_indices=False)


def _adversarial():
    yield "random", _er(40, 30, 4, 1), _er(30, 50, 4, 2), _er(40, 50, 6, 3)
    yield "empty-rows", _with_empty_rows(_er(40, 30, 4, 4), 3), _er(30, 50, 4, 5), \
        _with_empty_rows(_er(40, 50, 6, 6), 2)
    yield "empty-mask", _er(20, 20, 3, 7), _er(20, 20, 3, 8), CSR.empty((20, 20))
    yield "empty-a", CSR.empty((20, 20)), _er(20, 20, 3, 9), _er(20, 20, 3, 10)
    yield "empty-b", _er(20, 20, 3, 13), CSR.empty((20, 20)), _er(20, 20, 3, 14)
    yield "one-column", _er(30, 30, 3, 15), _er(30, 1, 1, 16), _er(30, 1, 1, 17)
    yield "mega-row", _mega_row(), _er(64, 64, 3, 18), _er(48, 64, 8, 19)
    yield "rect-64x4096", _er(64, 4096, 64, 20), _er(4096, 4096, 2, 21), _er(64, 4096, 16, 22)
    # complement output (~40k cells) far beyond the first capacity guess
    yield "dense-out", _er(200, 200, 20, 23), _er(200, 200, 20, 24), _er(200, 200, 2, 25)
    u = _unsorted_with_duplicates()
    yield "unsorted-dup", u, _er(8, 8, 3, 26), u
    yield from _hit_buffer_edges()


#: ``native.c``'s MSA rows park the products that meet the mask in a buffer
#: of this many hits and accumulate them when it fills
H = int(re.search(r"^#define HITS (\d+)$", native.SOURCE.read_text(), re.M).group(1))


def _rows(shape, rows, seed) -> CSR:
    """The CSR whose row ``i`` holds the ascending columns ``rows[i]``, valued
    by :func:`_special`."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return _special(CSR(shape, indptr, np.concatenate(rows).astype(np.int64),
                        np.ones(indptr[-1]), sorted_indices=True, check=False), seed)


def _hit_buffer_edges():
    """Operand sets on the edges of the hit buffer, sized from ``H``."""
    # B's rows hold one entry each, in column k mod H, so an A row of e
    # entries expands to e products and a cell's products lie H apart: on
    # both sides of a flush.  Per size, one mask row allows every column a
    # product can reach (H-1, H, H+1 and 2H+3 hits; none under the
    # complement), one only the column none can (no hit; every product
    # under the complement) and one only column 0 (hits H entries of A apart)
    sizes = (H - 1, H, H + 1, 2 * H + 3)
    yield ("hits-at-the-edge",
           _rows((12, sizes[-1]), [np.arange(e) for e in sizes] * 3, 27),
           _rows((sizes[-1], H + 1), [[k % H] for k in range(sizes[-1])], 28),
           _rows((12, H + 1), [np.arange(H)] * 4 + [[H]] * 4 + [[0]] * 4, 29))
    # B rows of 1, H, H-1, 7 and 2H+3 (longer than the buffer) entries; A
    # rows that fill the buffer exactly (1 + H-1), by one too many (1 + H),
    # twice over, and meet the long row behind a part-filled buffer; every
    # product of mask rows 1-3 and 5 hits, about half of the others'
    n = 2 * H + 3
    b = _rows((5, n), [[n - 1], np.arange(0, n, 2)[:H], np.arange(1, n, 2)[:H - 1],
                       np.arange(7) * 3, np.arange(n)], 30)
    fills = [[4], [0, 1], [0, 2], [1, 2], [2, 3, 4], [0, 1, 2, 3, 4], [3, 4], [1, 3]]
    half = erdos_renyi(8, n, H, seed=32)
    mask = _rows((8, n), [np.arange(n) if i in (1, 2, 3, 5) else half.indices[lo:hi]
                          for i, (lo, hi) in enumerate(zip(half.indptr, half.indptr[1:]))], 32)
    yield "long-b-row", _rows((8, 5), fills, 31), b, mask
    # complement: rows 0 and 3 (no mask entry) touch every column and then
    # meet more products, and the ~12 H cells of output outgrow the first
    # capacity guess in a row that has already flushed
    behind = min(H + 88, n - 1)  # a masked column the first flush has gone by
    mask = _rows((12, n), [[]] + [[5, behind]] * 2 + [[]] + [[i] for i in range(8)], 33)
    yield "full-touch", _rows((12, 5), [[0, 1, 2, 3, 4]] * 4 + fills, 34), b, mask


#: the adversarial ``(a, b, mask)`` sets (``tests/test_native.py`` runs its
#: differential suite over the same ones)
ADVERSARIAL = {name: (a, b, m) for name, a, b, m in _adversarial()}

_TC = relabel_by_degree(rmat(10, seed=3).pattern()).tril(-1)

#: every operand set of the lattice with the semiring it multiplies on: the
#: adversarial ones on PLUS_TIMES (the special values matter), the 1024-row
#: triangle-counting triple (A = B = M: the only set a host plan cuts into
#: two row parts) on PLUS_PAIR
OPERANDS = {name: (*abm, PLUS_TIMES) for name, abm in ADVERSARIAL.items()}
OPERANDS["rmat-10-tc"] = (_TC, _TC, _TC, PLUS_PAIR)

# ----------------------------------------------------------------------
# axes
# ----------------------------------------------------------------------
TIERS = ("native", "numpy")
DOORS = {
    "masked_spgemm": masked_spgemm,
    "hybrid": masked_spgemm_hybrid,
    "chunked": masked_spgemm_chunked,
    "parallel": parallel_masked_spgemm,
}
ALGOS = ("auto", "inner", "msa", "hash", "mca", "heap", "heapdot", "esc")
PHASES = (1, 2)
BATCHES = ("auto", "perrow", "bucket")
ORIENTATIONS = ("row", "column")
BACKENDS = (None, "serial", "thread", "process")
GRIDS = (None, (2, 2), (1, 3))
SESSIONS = (None, False, "own")  # "own": three calls — cold, warm, mutated
DELTAS = (None, "auto", "force")
#: a paper machine that is no preset, passed as an object
ODD = dataclasses.replace(KNL, name="odd", cores=3, hit_cycles=6.0)
MACHINES = (None, "haswell", ODD)
THREADS = (1, 2, 3)
PARTITIONS = ("block", "cyclic", "balanced")

#: what two runs of one call id may disagree on, as ``(counter name,
#: call-id pattern, why)``; anything else that differs is a finding
EXCEPTIONS = (
    (
        "hash_probes",
        r"algo=(hash|auto)\b",
        "the hash table is sized per block of rows, so probe counts are not "
        "additive under row slicing: a change in how many row parts a call "
        "is cut into moves them",
    ),
)


def excepted(call_id: str, what: str) -> bool:
    return any(
        what == name and re.search(pattern, call_id) for name, pattern, _ in EXCEPTIONS
    )


class Case(NamedTuple):
    """One point of the lattice: a front door, an operand set and the
    keyword options of the call (``session="own"`` expands to three calls)."""

    door: str
    operands: str
    options: Tuple[Tuple[str, object], ...]

    @property
    def id(self) -> str:
        opts = ",".join(f"{k}={getattr(v, 'name', v)}" for k, v in self.options)
        return f"{self.operands}/{self.door}/{opts}"


#: the heap schemes are pure-Python reference loops, 0.4-1.5 s per call on
#: the two largest sets: there they run the serial spellings only
SERIAL_ONLY = {name: ("heap", "heapdot") for name in ("dense-out", "rmat-10-tc")}
SERIAL_ONLY["hits-at-the-edge"] = ("heapdot",)  # 0.6 s per plain-mask call


def _algo_complement(skip=()):
    for algo in ALGOS:
        for complement in (False, True):
            if algo not in skip and (
                not complement or algo == "auto" or supports_complement(algo)
            ):
                yield algo, complement


def cases() -> Iterator[Case]:
    """Every case of one kernel tier, in a fixed order."""
    for name in OPERANDS:
        def case(door, **options):
            return Case(door, name, tuple(options.items()))

        # serial spellings of the door: full factorial
        for (algo, comp), phases, batch, orientation in product(
            _algo_complement(), PHASES, BATCHES, ORIENTATIONS
        ):
            yield case("masked_spgemm", algo=algo, complement=comp, phases=phases,
                       batch=batch, orientation=orientation)
        # planned dispatch: full factorial at 1P / auto batch / row
        planned = list(_algo_complement(skip=SERIAL_ONLY.get(name, ())))
        for (algo, comp), backend, grid, session, delta in product(
            planned, BACKENDS, GRIDS, SESSIONS, DELTAS
        ):
            yield case("masked_spgemm", algo=algo, complement=comp, backend=backend,
                       grid=grid, session=session, delta=delta)
        # a modeled preset plans its own bands, workers and backend
        for comp, backend, grid, machine in product(
            (False, True), BACKENDS, GRIDS, MACHINES[1:]
        ):
            yield case("masked_spgemm", algo="auto", complement=comp, backend=backend,
                       grid=grid, machine=machine)
        for comp, impl in product((False, True), ("auto", "fast", "reference")):
            yield case("hybrid", complement=comp, impl=impl)
        for (algo, comp), phases, width in product(planned, PHASES, (7, 4096)):
            yield case("chunked", algo=algo, complement=comp, phases=phases,
                       panel_width=width)
        for (algo, comp), backend, threads, partition in product(
            planned, BACKENDS[1:] + ("auto",), THREADS, PARTITIONS
        ):
            yield case("parallel", algo=algo, complement=comp, backend=backend,
                       threads=threads, partition=partition)
        for (algo, comp), phases, batch in product(planned, PHASES, BATCHES[1:]):
            yield case("parallel", algo=algo, complement=comp, phases=phases,
                       batch=batch, backend="thread", threads=2)


def sample(n: Optional[int]) -> List[Case]:
    """About ``n`` cases of the enumeration (all of them for ``None``),
    evenly spaced within each front door's share and at least six per
    door: the same ones every time."""
    every = list(cases())
    if n is None or n >= len(every):
        return every
    chosen = []
    for door in DOORS:
        mine = [case for case in every if case.door == door]
        k = min(len(mine), max(6, round(n * len(mine) / len(every))))
        chosen += [mine[i * len(mine) // k] for i in range(k)]
    return chosen


# ----------------------------------------------------------------------
# running a case
# ----------------------------------------------------------------------
def mutated(a: CSR, b: CSR, m: CSR):
    """The triple with a seventh of A's values changed (aliases kept)."""
    data = a.data.copy()
    data[::7] = data[::7] * 2.0 + 1.0
    a2 = CSR(a.shape, a.indptr, a.indices, data,
             sorted_indices=a.sorted_indices, check=False)
    return a2, (a2 if b is a else b), (a2 if m is a else m)


def execute(case: Case):
    """Run one case; yields ``(call id, CSR | Exception, OpCounter)`` per
    call — one, or three under ``session="own"``."""
    a, b, m, semiring = OPERANDS[case.operands]
    options = dict(case.options)
    if "grid" in options:
        options["shards"] = options.pop("grid")
    door = DOORS[case.door]

    def call(triple, **extra):
        counter = OpCounter()
        try:
            out = door(*triple, semiring=semiring, counter=counter, **options, **extra)
        except Exception as err:  # recorded, compared like any other outcome
            out = err
        return out, counter

    if options.get("session") != "own":
        yield (case.id, *call((a, b, m)))
        return
    del options["session"]
    with ExecutionSession() as own:
        for step, triple in (("cold", (a, b, m)), ("warm", (a, b, m)),
                             ("mutated", mutated(a, b, m))):
            yield (f"{case.id}:{step}", *call(triple, session=own))


def csr_digest(c: CSR) -> str:
    """blake2b of the CSR's shape, dtypes and bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((c.shape, c.indptr.dtype.str, c.indices.dtype.str, c.data.dtype.str)).encode())
    for arr in (c.indptr, c.indices, c.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def record(out, counter: OpCounter) -> dict:
    """The JSON record of one call (zero counters dropped)."""
    if isinstance(out, Exception):
        return {"error": f"{type(out).__name__}: {out}"}
    return {"csr": csr_digest(out),
            "counter": {k: v for k, v in counter.as_dict().items() if v}}


@contextlib.contextmanager
def tier_scope(tier: str):
    """Run the body on one kernel tier; pool workers are forked with the
    tier they will keep, so none survives a switch."""
    shutdown_pool()
    with native.disabled() if tier == "numpy" else contextlib.nullcontext():
        try:
            yield
        finally:
            shutdown_pool()


def digest(n: Optional[int] = None, tiers=TIERS) -> Dict[str, dict]:
    """``{"<tier>/<call id>": record}`` over ``sample(n)`` on each tier."""
    chosen, out = sample(n), {}
    for tier in tiers:
        with tier_scope(tier):
            for case in chosen:
                for call_id, result, counter in execute(case):
                    out[f"{tier}/{call_id}"] = record(result, counter)
    return out


# ----------------------------------------------------------------------
# comparing two digests
# ----------------------------------------------------------------------
def compare(left: Dict[str, dict], right: Dict[str, dict]) -> Tuple[List[str], int]:
    """``(findings, excepted)``: one line per call id that is missing on a
    side or whose outcome / counters differ outside :data:`EXCEPTIONS`, and
    how many counter differences the table covered."""
    findings, covered = [], 0
    for call_id in sorted(set(left) | set(right)):
        x, y = left.get(call_id), right.get(call_id)
        if x is None or y is None:
            findings.append(f"{call_id}: only in the {'second' if x is None else 'first'}")
            continue
        if x.get("csr") != y.get("csr") or x.get("error") != y.get("error"):
            findings.append(
                f"{call_id}: {x.get('csr') or x['error']} != {y.get('csr') or y['error']}"
            )
            continue
        cx, cy = x.get("counter", {}), y.get("counter", {})
        moved = sorted(k for k in set(cx) | set(cy) if cx.get(k, 0) != cy.get(k, 0))
        allowed = [k for k in moved if excepted(call_id, k)]
        covered += len(allowed)
        moved = [k for k in moved if k not in allowed]
        if moved:
            findings.append(
                f"{call_id}: counters "
                + ", ".join(f"{k} {cx.get(k, 0)} != {cy.get(k, 0)}" for k in moved)
            )
    return findings, covered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.lattice", description=__doc__.split("\n")[0])
    parser.add_argument("--digest", metavar="OUT", help="run the lattice, write its records")
    parser.add_argument("--sample", type=int, metavar="N",
                        help="digest N evenly spaced cases instead of all")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the call ids two digest files disagree on")
    args = parser.parse_args(argv)
    if (args.digest is None) == (args.compare is None):
        parser.error("give exactly one of --digest OUT and --compare A B")
    if args.digest:
        records = digest(args.sample)
        with open(args.digest, "w") as fh:
            json.dump({"native": native.status()["loaded"], "records": records},
                      fh, indent=0, sort_keys=True)
        errors = sum("error" in r for r in records.values())
        print(f"{len(records)} calls ({errors} raised) -> {args.digest}")
        return 0
    docs = []
    for path in args.compare:
        with open(path) as fh:
            docs.append(json.load(fh))
    if docs[0]["native"] != docs[1]["native"]:
        print("warning: the native tier was loaded on one side only")
    findings, covered = compare(docs[0]["records"], docs[1]["records"])
    print("\n".join(findings))
    print(f"{len(docs[0]['records'])} / {len(docs[1]['records'])} calls, "
          f"{len(findings)} differ, {covered} counter differences excepted")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
