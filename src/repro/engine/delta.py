"""Delta-aware masked SpGEMM: recompute only the rows a change can reach.

The paper's iterative applications mutate their operands by a small edge
set per round — k-truss prunes a monotonically shrinking support set
(Section 8.3), MCL's expansion matrix converges, a streaming graph window
slides by a few edges — yet ``C = M .* (A @ B)`` decomposes row-
independently (Buluç & Gilbert), so a change can only affect the output
rows it *reaches*:

* a changed row ``i`` of A (structure or values) dirties output row ``i``;
* a changed row ``j`` of B dirties every output row ``i`` with
  ``A[i, j] != 0`` — found through the session's CSC memo of the *current*
  A (exact: if the new row ``i`` does not reference ``j``, a change in
  ``B[j, :]`` cannot affect it, and if row ``i`` itself changed it is
  already dirty);
* a mask row whose *structure* changed dirties that output row (mask
  values never influence the product, complemented or not).

:func:`delta_execute` diffs consecutive operands against the state cached
on the :class:`~repro.engine.ExecutionSession` — chunked block digests
(:func:`repro.sparse.block_digests`) localise changes, an exact per-row
refinement (:func:`repro.sparse.changed_rows`) inside dirty blocks names
them — and resolves a :class:`DeltaPlan`.  Execution then takes the patch
path: the cached full plan's row bands are intersected with the dirty set
into a ``partial`` :class:`~repro.engine.ExecutionPlan` (same algorithms,
phases, backend, threads and grid), only the work items that own dirty
rows run, and the output is spliced into the cached result via
:meth:`~repro.sparse.CSR.replace_rows`.

Bit-for-bit contract: every kernel in this library assembles each output
row from the same k-set in ascending order regardless of banding, backend
or tier, so a patched row equals the row a full recompute would produce —
in values *and* structure.  The patch differs only in work, which the
``rows_recomputed`` / ``rows_patched`` / ``delta_fallbacks`` counters and
the ``engine.delta`` prediction-ledger rows certify.

Fallback policy: ``delta="auto"`` prices the patch the way the planner
prices everything else — the host profile's per-row nanoseconds summed over
the dirty rows, plus the measured per-nonzero cost of slicing/splicing and
of the bookkeeping an engaged slot pays on every call (hash pass, diff,
state copy) — against the same sum over all rows.  When the patch does not
win, the call falls through to the ordinary sessioned plan-and-execute
path (``delta_fallbacks`` is charged) and the slot *disengages*: for the
rest of the session it runs exactly as ``delta=None`` would — no state, no
digest, no result copy.  A fraction passed as ``delta=`` keeps the plain
dirty-row-share rule (and stays engaged); ``delta="force"`` disables the
fallback — the test hook that proves the patch path alone is exact.
See ``docs/incremental.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Tuple

import numpy as np

from ..machine import HostProfile, OpCounter, flops_per_row, host_profile
from ..observe import tracer as _obs
from ..sparse import CSR, changed_rows, dirty_blocks
from ..sparse.diff import DELTA_BLOCK_ROWS
from .plan import ExecutionPlan, RowBand
from .planner import host_row_ns

__all__ = ["DeltaPlan", "delta_execute"]


@dataclasses.dataclass(frozen=True)
class DeltaPlan:
    """Resolved dirty-row analysis for one incremental call.

    Plain data, produced by the diff stage and consumed by the patch
    stage; surfaced on the ``engine.delta`` span for the prediction
    ledger.  ``dirty_rows`` is the union of the three propagation
    channels (sorted, unique).
    """

    nrows: int
    dirty_rows: np.ndarray  #: output rows that must be recomputed
    a_dirty: np.ndarray  #: rows of A that changed (structure or values)
    b_touched: np.ndarray  #: output rows dirtied through changed B rows
    mask_dirty: np.ndarray  #: mask rows whose structure changed

    @property
    def dirty_count(self) -> int:
        return int(self.dirty_rows.size)

    @property
    def fraction(self) -> float:
        return self.dirty_count / max(1, self.nrows)


class _DeltaState:
    """Everything one (problem-slot, session) pair retains between calls."""

    __slots__ = (
        "a", "b", "mask", "fa", "fb", "fm",
        "da", "db", "dm", "plan", "result",
    )

    def __init__(self, a, b, mask, fa, fb, fm, da, db, dm, plan, result):
        self.a, self.b, self.mask = a, b, mask
        self.fa, self.fb, self.fm = fa, fb, fm
        self.da, self.db, self.dm = da, db, dm
        self.plan = plan
        self.result = result


def resolve_delta(delta) -> Optional[float]:
    """Normalise the ``delta=`` knob to the dirty-row share above which a
    call falls back: ``None`` is the priced ``"auto"`` rule, ``"force"``
    never falls back."""
    if delta in ("auto", True):
        return None
    if delta == "force":
        return float("inf")
    if isinstance(delta, (int, float)) and not isinstance(delta, bool):
        frac = float(delta)
        if not (0.0 < frac <= 1.0):
            raise ValueError(
                f"a numeric delta= threshold must lie in (0, 1], got {delta!r}"
            )
        return frac
    raise ValueError(
        "delta must be 'auto', 'force', a dirty-fraction threshold in "
        f"(0, 1] or None, got {delta!r}"
    )


def _dirty_rows(old, d_old, new, d_new, *, values: bool) -> np.ndarray:
    """Exact dirty rows of one operand between two calls: the block digest
    vectors (``d_old`` is the one stored with the state) localise the
    change and :func:`changed_rows` names the rows inside dirty blocks."""
    blocks = dirty_blocks(d_old, d_new)
    if blocks.size == 0:
        return np.empty(0, dtype=np.int64)
    spans = [
        np.arange(
            int(bi) * DELTA_BLOCK_ROWS,
            min(new.nrows, (int(bi) + 1) * DELTA_BLOCK_ROWS),
            dtype=np.int64,
        )
        for bi in blocks
    ]
    return changed_rows(old, new, rows=np.concatenate(spans), values=values)


def _propagate_b(session, a, fa, b_changed: np.ndarray) -> np.ndarray:
    """Output rows dirtied by changed B rows: ``{i : A[i, j] != 0}`` for
    changed ``j``, through the session's CSC memo of the current A."""
    if b_changed.size == 0:
        return b_changed
    a_csc = session.csc_of(a, fa)
    starts = a_csc.indptr[b_changed]
    lens = a_csc.indptr[b_changed + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    off = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    return np.unique(a_csc.indices[np.repeat(starts, lens) + off])


def _patch_plan(plan: ExecutionPlan, dirty: np.ndarray, nrows: int) -> ExecutionPlan:
    """Restrict a cached full plan to the dirty rows.

    Algorithm assignment, phases, partition, threads, backend and grid
    are inherited — the bit-for-bit contract makes a stale assignment
    safe, and inheriting it keeps the patch on the same work-item loop
    (and the same published segments) as the full run.
    Modeled cycles/bytes are scaled by each band's surviving row share so
    the prediction ledger prices the patch, not the full problem.
    """
    sel = np.zeros(nrows, dtype=bool)
    sel[dirty] = True
    bands = []
    for band in plan.bands:
        rows = np.asarray(band.rows)
        keep = rows[sel[rows]]
        if keep.size == 0:
            continue
        share = keep.size / max(1, rows.size)
        bands.append(
            RowBand(
                rows=keep,
                algo=band.algo,
                reason=(band.reason + " [delta]") if band.reason else "delta patch",
                est_cycles=band.est_cycles * share,
                est_bytes=band.est_bytes * share,
                batch=band.batch,
            )
        )
    return dataclasses.replace(
        plan, bands=bands, mode="delta", partial=True, estimates={},
        notes=[f"delta patch: {int(dirty.size)}/{nrows} rows dirty"],
    )


def _patch_pays(host: HostProfile, plan, a, b, mask, dirty, result_nnz: int) -> bool:
    """The priced ``delta="auto"`` rule: is recomputing ``dirty`` under the
    cached ``plan``'s algorithm assignment, splicing it into the previous
    result and keeping the slot engaged predicted cheaper than a full run?"""
    fl = flops_per_row(a, b)
    is_dirty = np.zeros(a.nrows, dtype=bool)
    is_dirty[dirty] = True
    full = patch = 0.0
    for band in plan.bands:
        ns = host_row_ns(host, band.algo, b, mask, fl)[band.rows]
        hit = is_dirty[band.rows]
        full += float(ns.sum()) + host.band_ns
        if hit.any():
            patch += float(ns[hit].sum()) + host.band_ns
    moved = int(a.row_nnz()[dirty].sum() + mask.row_nnz()[dirty].sum()) + result_nnz
    kept = sum(m.nnz for m in {id(m): m for m in (a, b, mask)}.values()) + result_nnz
    return patch + host.splice_nnz_ns * moved + host.delta_nnz_ns * kept < full


def delta_execute(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    session,
    delta,
    slot: tuple,
    full_run: Callable[[], Tuple[ExecutionPlan, CSR]],
    run: Callable[[ExecutionPlan], CSR],
    counter: Optional[OpCounter] = None,
) -> CSR:
    """Incremental ``C = M .* (A @ B)`` against the session's cached state.

    Called by :func:`repro.engine.plan_and_execute` inside the session's
    call scope, which also supplies the two things this module does not
    spell itself: ``full_run()`` — the ordinary sessioned plan-and-execute
    of this very call, returning ``(plan, result)`` — and ``run(plan)``,
    which executes a given plan on the same operands and options.  ``slot``
    keys the problem (shapes, options, forced knobs): one delta state per
    slot.

    The first call on a slot (and any call whose operand shapes changed,
    whose patch does not pay, or whose session state was invalidated) runs
    ``full_run``; while the slot is engaged it caches operands, block
    digests, plan and result, and subsequent calls diff, patch and splice.
    Results are bit-for-bit identical to a full recompute in every case.
    """
    threshold = resolve_delta(delta)
    priced = threshold is None
    nrows = a.nrows

    def full():
        if counter is not None:
            counter.rows_recomputed += nrows
        return full_run()

    if priced and slot in session._delta_off:
        return full()[1]

    fa, fb, fm = (
        session.fingerprint(a),
        session.fingerprint(b),
        session.fingerprint(mask),
    )
    da, db = session.block_digests(a)[1], session.block_digests(b)[1]
    dm = session.block_digests(mask)[0]

    def store(plan, result):
        # ``result`` must be private to the state: callers own what a call
        # returned, and writing into it must not reach later hits and patches
        session._delta_store(
            slot, _DeltaState(a, b, mask, fa, fb, fm, da, db, dm, plan, result)
        )

    state = session._delta_get(slot)
    if state is None or (state.fa.shape, state.fb.shape, state.fm.shape) != (
        fa.shape, fb.shape, fm.shape
    ):
        pl, c = full()
        store(pl, c.copy())
        return c

    # an operand written to in place since the state was stored is its own
    # "old" version: the content to diff against is gone
    overwritten = (
        (a is state.a and fa.key != state.fa.key)
        or (b is state.b and fb.key != state.fb.key)
        or (mask is state.mask and fm.structure_key != state.fm.structure_key)
    )
    empty = np.empty(0, dtype=np.int64)
    if overwritten:
        a_dirty = np.arange(nrows, dtype=np.int64)
        m_dirty = b_touched = empty
    else:
        a_dirty = _dirty_rows(state.a, state.da, a, da, values=True)
        # the iterative apps pass one matrix in several roles (k-truss:
        # A = B = M): its rows are diffed once, and as a mask its
        # structural changes are already among A's dirty rows
        b_changed = a_dirty if (b is a and state.b is state.a) else _dirty_rows(
            state.b, state.db, b, db, values=True
        )
        m_dirty = empty if (mask is a and state.mask is state.a) else _dirty_rows(
            state.mask, state.dm, mask, dm, values=False
        )
        b_touched = _propagate_b(session, a, fa, b_changed)
    dirty = np.unique(np.concatenate([a_dirty, m_dirty, b_touched]))
    dplan = DeltaPlan(
        nrows=nrows, dirty_rows=dirty, a_dirty=a_dirty,
        b_touched=b_touched, mask_dirty=m_dirty,
    )

    if dplan.dirty_count == 0:
        # identical problem, or differing bytes that cannot reach the
        # output (mask values only)
        session.delta_hits += 1
        if counter is not None:
            counter.rows_patched += nrows
        store(state.plan, state.result)
        return state.result.copy()

    if priced:
        host = session.machine if isinstance(session.machine, HostProfile) \
            else host_profile()
        fall_back = not _patch_pays(
            host, state.plan, a, b, mask, dirty, state.result.nnz
        )
    else:
        fall_back = dplan.fraction > threshold
    if fall_back:
        session.delta_fallbacks += 1
        if counter is not None:
            counter.delta_fallbacks += 1
        pl, c = full()
        if priced:  # the slot did not cover its bookkeeping: disengage
            session._delta.pop(slot)
            session._delta_off.add(slot)
        else:
            store(pl, c.copy())
        return c

    patched = _patch_plan(state.plan, dirty, nrows)
    tr = _obs.current()
    patch_cm = (
        tr.span(
            "engine.delta",
            {
                "rows_recomputed": dplan.dirty_count,
                "rows_patched": nrows - dplan.dirty_count,
                "dirty_fraction": dplan.fraction,
                "a_dirty": int(a_dirty.size),
                "b_touched": int(b_touched.size),
                "mask_dirty": int(m_dirty.size),
                "est_cycles": float(sum(bd.est_cycles for bd in patched.bands)),
                "est_bytes": float(sum(bd.est_bytes for bd in patched.bands)),
                "backend": patched.backend,
            },
            counter=counter,
        )
        if tr is not None else _obs.NULL_SPAN
    )
    with patch_cm:
        c_patch = run(patched.validate())
        result = state.result.replace_rows(dirty, c_patch)
    session.delta_patches += 1
    if counter is not None:
        counter.rows_recomputed += dplan.dirty_count
        counter.rows_patched += nrows - dplan.dirty_count
    store(state.plan, result.copy())
    return result
