"""The machine this interpreter runs on: measured costs for live planning.

:class:`~repro.machine.MachineConfig` presets model the *paper's* machines
(cycles of a C implementation on Haswell/KNL) and stay the instrument for
reproducing its figures.  They say nothing about what a kernel costs in
this process, so every live decision — which algorithm, how many bands —
is priced from a :class:`HostProfile` instead: a handful of checked-in
nanoseconds-per-unit coefficients of the fast kernels.  There are two
checked-in sets, one per kernel tier: :data:`HOST` (the NumPy bodies) and
:data:`HOST_NATIVE` (the C row loops of ``core/kernels/native.c``);
:func:`host_profile` returns the one for the tier this process runs.

The kernels' wall time is linear in statistics the planner already has:

* push kernels (``msa``, ``mca``): ``flops(A[i,:] B)`` products expanded and
  ``nnz(M[i,:])`` mask entries scattered/gathered per row;
* ``inner``: pulled pairs ``sum_{(i,j) in M} nnz(B[:,j])`` plus a per-mask-
  nonzero term, and ``nnz(B)`` for the CSC build, which every call pays
  unless it holds the fingerprint of a memoised one;
* every kernel call / row band: a fixed cost, and for a split plan the row
  slicing and the final merge, linear in the sliced nonzeros.

Nothing here prices a worker: the count and the backend are the caller's
(``docs/parallel.md``, "Who picks the backend"); :attr:`HostProfile.cores`
only caps what a forced parallel ``backend=`` gets.

:data:`HOST` / :data:`HOST_NATIVE` hold the coefficients fitted by
:func:`fit_host_profile` (``python -m repro.machine host``; medians of
five runs) on the Fig. 7 density grid and R-MAT triangle counting;
``benchmarks/test_auto_regret.py`` is the wall-clock check that planning
from them stays within 1.15x of the best forced algorithm.  Nothing here
runs at import or on a first call.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Tuple

import numpy as np

from .calibrate import _time_best
from .config import MACHINES, MachineConfig

__all__ = [
    "HostProfile",
    "HOST",
    "HOST_NATIVE",
    "host_profile",
    "resolve_machine",
    "available_cores",
    "fit_host_profile",
]


def available_cores() -> int:
    """Cores this process may run on (affinity mask, not the box's total)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclasses.dataclass(frozen=True)
class HostProfile:
    """Measured per-unit costs of the fast kernels on this interpreter.

    ``*_ns`` triples are ``(ns per unit of work, ns per mask nonzero, ns per
    output row)`` where the unit of work is a flop(AB) for the push kernels
    and a pulled (mask nonzero, B column entry) pair for ``inner``.
    ``candidates`` is the live set — the algorithms that win somewhere on
    the Fig. 7 grid or R-MAT scale 10-13 under this tier's kernels; the
    rest stay available as a forced ``algo=``.
    """

    name: str = "host"
    candidates: Tuple[str, ...] = ("inner", "msa", "mca")
    msa_ns: Tuple[float, float, float] = (8.0, 18.0, 390.0)
    mca_ns: Tuple[float, float, float] = (39.5, 8.9, 175.0)
    inner_ns: Tuple[float, float, float] = (8.6, 32.2, 182.0)
    #: CSC build (``CSR.transpose``: this tier's radix passes) per nnz(B),
    #: charged to ``inner`` unless the call already holds the fingerprint
    #: that guards a memoised transpose (``ExecutionSession.csc_of``)
    csc_nnz_ns: float = 14.1
    #: fixed cost of one kernel call (one row band)
    band_ns: float = 85e3
    #: extra cost of a *split* plan per nonzero of A and M: row slicing of
    #: both operands plus the COO merge of the band results
    split_nnz_ns: float = 27.4
    #: delta patch (``repro.engine.delta``): per nonzero *moved* — the dirty
    #: rows of A and M sliced out plus the previous result spliced
    splice_nnz_ns: float = 27.3
    #: what an engaged delta slot pays on every call, per stored nonzero of
    #: the distinct operands and the previous result: hash pass, row diff,
    #: dirty-row propagation and the state's private result copy
    delta_nnz_ns: float = 38.0

    @property
    def cores(self) -> int:
        return available_cores()

    def seconds(self, cycles: float) -> float:
        """Plans priced here store predicted nanoseconds where a modeled
        machine's plans store cycles: 1 "cycle" is 1 ns."""
        return cycles * 1e-9

    def row_ns(self, algo: str, work: np.ndarray, mask_nnz: np.ndarray) -> np.ndarray:
        """Predicted kernel nanoseconds per output row."""
        per_work, per_mask, per_row = getattr(self, f"{algo}_ns")
        return per_work * work + per_mask * mask_nnz + per_row


#: the checked-in profile of the NumPy kernel bodies
HOST = HostProfile()

#: the checked-in profile of the native tier (``core/kernels/native.c``):
#: ``msa`` / ``inner`` / the per-call cost / the CSC build (one counting
#: pass) re-fitted with the C loops live.
#: ``mca`` has no native loop and native ``msa`` beats every call the NumPy
#: profile gives to ``mca``, so it is forced-only here like hash / esc.
HOST_NATIVE = dataclasses.replace(
    HOST,
    candidates=("inner", "msa"),
    msa_ns=(1.13, 2.27, 27.5),
    inner_ns=(1.51, 5.85, 29.0),
    csc_nnz_ns=9.3,
    band_ns=53.2e3,
)


def host_profile(semiring=None, *values) -> HostProfile:
    """The profile a ``machine=None`` plan is priced from: the one fitted
    on the kernel tier that runs it — :data:`HOST_NATIVE` when the native
    library loads (built on first use, so the first host plan may pay the
    one-time compile), :data:`HOST` otherwise.  Given a call's ``semiring``
    and the value arrays its kernel reads, the tier is that call's:
    ``HOST_NATIVE`` only if the library has a loop for them
    (``native.kernels``; a custom semiring or float32 values run the NumPy
    bodies and are priced from theirs)."""
    from ..core.kernels import native

    live = native.load() if semiring is None else native.kernels(semiring, *values)
    return HOST if live is None else HOST_NATIVE


def resolve_machine(machine):
    """Resolve a ``machine=`` argument: ``None`` is this host
    (:func:`host_profile`), a :class:`HostProfile` or
    :class:`~repro.machine.MachineConfig` is itself, and a string names one
    of the paper's machines (``"haswell"``, ``"knl"``; any case)."""
    if machine is None:
        return host_profile()
    if isinstance(machine, (MachineConfig, HostProfile)):
        return machine
    if isinstance(machine, str):
        preset = MACHINES.get(machine.lower())
        if preset is None:
            raise ValueError(
                f"unknown machine {machine!r}; expected None (this host), a "
                f"HostProfile, a MachineConfig or one of {sorted(MACHINES)}"
            )
        return preset
    raise TypeError(
        f"machine must be a MachineConfig, a HostProfile, a name or None, "
        f"got {type(machine)!r}"
    )


# ----------------------------------------------------------------------
# the fitter that produced HOST's constants
# ----------------------------------------------------------------------
def nonneg_lstsq(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Deterministic non-negative weighted least squares.

    Solves ``min |w * (x @ theta - y)|`` and enforces ``theta >= 0`` by
    iteratively dropping columns whose coefficient comes out non-positive
    (they get 0) and re-solving.  All-zero columns are dropped up front.
    """
    theta = np.zeros(x.shape[1], dtype=np.float64)
    active = [j for j in range(x.shape[1]) if float(np.abs(x[:, j]).sum()) > 0.0]
    while active:
        sol, *_ = np.linalg.lstsq(x[:, active] * w[:, None], y * w, rcond=None)
        bad = [k for k, t in enumerate(sol) if t <= 0.0]
        if not bad:
            theta[active] = sol
            break
        active = [j for k, j in enumerate(active) if k not in bad]
    return theta


def _tc_triple(scale: int):
    """The triangle-counting operand ``L`` of an R-MAT graph (A = B = M)."""
    from ..graphs import relabel_by_degree, rmat

    return relabel_by_degree(rmat(scale, seed=3).pattern()).tril(-1)


def _calibration_triples(quick: bool):
    """The Fig. 7 ER density grid plus R-MAT triangle-counting triples."""
    from ..graphs import erdos_renyi
    from ..semiring import PLUS_PAIR, PLUS_TIMES

    n = 1024 if quick else 4096
    degrees = (1, 8, 32) if quick else (1, 4, 16, 64)
    for d in degrees:
        a = erdos_renyi(n, n, d, seed=d)
        b = erdos_renyi(n, n, d, seed=d + 1000)
        for dm in degrees:
            yield a, b, erdos_renyi(n, n, dm, seed=dm + 2000), PLUS_TIMES
    # other row counts separate the per-row and fixed terms from the
    # per-nonzero ones: a short-fat operand and two small square ones
    yield erdos_renyi(64, n, 64, seed=7), b, erdos_renyi(64, n, 64, seed=8), PLUS_TIMES
    for small in (128, 512):
        yield tuple(erdos_renyi(small, small, 4, seed=small + i) for i in range(3)) + (
            PLUS_TIMES,
        )
    for scale in (8, 9) if quick else (10, 11, 12, 13):
        low = _tc_triple(scale)
        yield low, low, low, PLUS_PAIR


def fit_host_profile(*, quick: bool = False, repeats: int = 3) -> Tuple[HostProfile, dict]:
    """Measure this interpreter and fit a :class:`HostProfile` for the
    kernel tier that is live (:func:`host_profile`; run it inside
    ``native.disabled()`` to fit the NumPy bodies on a host that has the
    native tier).

    Times every live kernel on the calibration triples, regresses each
    algorithm's seconds on ``(work, mask nnz, rows, 1)`` by relative-error
    non-negative least squares (:func:`nonneg_lstsq`, weights ``1 / y``: a
    2x miss on a microsecond call matters as much as on a millisecond one),
    times the CSC build, a two-band split and the delta engine's splice
    and per-call bookkeeping, and returns ``(profile, report)``
    — ``report`` carries the raw samples and per-algorithm median relative
    error so the constants can be audited.  Takes about a minute
    (``quick``: seconds, for tests).
    """
    from ..core.masked_spgemm import masked_spgemm
    from ..engine import execute, plan
    from ..parallel.executor import row_slice
    from ..sparse import CSC, changed_rows
    from ..sparse.diff import block_digest_pair
    from .traffic import flops_per_row, pulls_per_row

    base = host_profile()  # the live tier: fit under native.disabled() for HOST
    samples: Dict[str, list] = {algo: [] for algo in base.candidates}
    csc_rows, split_rows, splice_rows, delta_rows = [], [], [], []
    for a, b, m, sr in _calibration_triples(quick):
        csc = CSC.from_csr(b)
        flops = int(flops_per_row(a, b).sum())
        work = {"msa": flops, "mca": flops, "inner": int(pulls_per_row(b, m).sum())}
        for algo in base.candidates:
            def call():
                return masked_spgemm(a, b, m, algo=algo, semiring=sr, b_csc=csc)

            # untimed first: the previous algorithm's temporaries leave the
            # allocator cold for this one (test_auto_regret times the same way)
            call()
            samples[algo].append((work[algo], m.nnz, a.nrows, 1.0, _time_best(call, repeats)))
        csc_rows.append((b.nnz, _time_best(lambda: CSC.from_csr(b), repeats)))
        one = plan(a, b, m, algo="msa", threads=1, backend="serial")
        two = dataclasses.replace(
            one,
            bands=[
                dataclasses.replace(one.bands[0], rows=one.bands[0].rows[: a.nrows // 2]),
                dataclasses.replace(one.bands[0], rows=one.bands[0].rows[a.nrows // 2 :]),
            ],
        )
        t_one = _time_best(lambda: execute(one, a, b, m, semiring=sr), repeats)
        t_two = _time_best(lambda: execute(two, a, b, m, semiring=sr), repeats)
        split_rows.append((a.nnz + m.nnz, max(0.0, t_two - t_one)))
        if a is m:  # the iterative apps' shape: A = B = M, one row in four changed
            nxt = a.select_rows(np.flatnonzero(np.arange(a.nrows) % 4))
            c, dirty = execute(one, a, b, m, semiring=sr), changed_rows(a, nxt)
            moved = 2 * (a.nnz - nxt.nnz) + c.nnz
            splice_rows.append((moved, _time_best(
                lambda: (row_slice(a, dirty), row_slice(m, dirty), c.replace_rows(dirty, c)),
                repeats,
            )))
            delta_rows.append((nxt.nnz + c.nnz, _time_best(
                lambda: (block_digest_pair(nxt), changed_rows(a, nxt), CSC.from_csr(nxt), c.copy()),
                repeats,
            )))

    changes: dict = {}
    fixed_ns = []
    errors: Dict[str, float] = {}
    for algo, rows in samples.items():
        data = np.asarray(rows, dtype=np.float64)
        x, y = data[:, :4], data[:, 4] * 1e9
        theta = nonneg_lstsq(x, y, 1.0 / y)
        changes[f"{algo}_ns"] = tuple(float(t) for t in theta[:3])
        fixed_ns.append(float(theta[3]))
        errors[algo] = float(np.median(np.abs(x @ theta - y) / y))

    def median_ns_per_nnz(pairs) -> float:
        nnz, secs = np.asarray(pairs, dtype=np.float64).T
        return float(np.median(secs / np.maximum(nnz, 1.0)) * 1e9)

    changes.update(
        csc_nnz_ns=median_ns_per_nnz(csc_rows),
        band_ns=float(np.median(fixed_ns)),
        split_nnz_ns=median_ns_per_nnz(split_rows),
        splice_nnz_ns=median_ns_per_nnz(splice_rows),
        delta_nnz_ns=median_ns_per_nnz(delta_rows),
    )
    report = {
        "cores": available_cores(),
        "median_relative_error": errors,
        "samples": {k: [list(r) for r in v] for k, v in samples.items()},
    }
    return dataclasses.replace(base, **changes), report
