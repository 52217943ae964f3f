"""Benchmark history store: append-only, schema-versioned timing records.

Every performance claim the repo makes ("the hash kernel got faster",
"nothing regressed") needs a *before* to compare against.  This module is
that before: a pinned, CI-sized case set (the R-MAT triangle-count call
sequence plus a Figure-7-style Erdős–Rényi mini-grid) timed with ``k``
repeats per (scheme, case, backend, threads) key, reduced to **median +
MAD** — robust statistics a noisy shared runner cannot fake out the way it
fakes out a single min — and written to two places:

* ``BENCH_history.json`` — the append-only log, in the working directory
  unless ``--history`` names another (none is committed: wall clock only
  compares within one machine, ``docs/observability.md``).  Each
  :func:`collect_run` appends one *run* (environment fingerprint +
  records); runs are ordered by append, and carry the git SHA, so the log
  needs no wall-clock timestamps.
* ``BENCH_<sha>.json`` — the single run as a standalone artifact, the file
  a CI job uploads and ``python -m repro.bench.regress`` consumes as
  ``--head``.

Besides wall seconds every record carries the run's *work certificate*:
the leaf-span operation-counter totals and modeled bytes-moved from the
metrics exporter, and the accumulator probe histograms
(:mod:`repro.observe.probes`).  Counters are deterministic — when a timing
regression arrives together with unchanged counters, the cause is the
machine, not the algorithm; when the counters moved too, the diff is
algorithmic.  That distinction is exactly what a time-only store cannot
make.

CLI::

    python -m repro.bench.history --repeats 5          # append + BENCH_<sha>.json
    python -m repro.bench.history --history /dev/null  # artifact only

See :mod:`repro.bench.regress` for the comparison gate and
``docs/observability.md`` for a walkthrough of reading its report.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..graphs import erdos_renyi, rmat
from ..machine import HASWELL, OpCounter
from ..observe import metrics as _metrics
from ..observe import probing, tracing
from ..semiring import PLUS_PAIR
from .experiments import tc_cases
from .runner import Call, Scheme, measured_sample_seconds, scheme_by_name

__all__ = [
    "SCHEMA_VERSION",
    "HISTORY_BASENAME",
    "PINNED_SCHEME_NAMES",
    "env_fingerprint",
    "pinned_cases",
    "pinned_schemes",
    "record_key",
    "collect_record",
    "session_app_records",
    "collect_run",
    "load_history",
    "append_run",
    "write_run",
    "latest_run",
    "run_artifact_name",
]

#: bump when a record's shape changes; readers refuse newer majors
SCHEMA_VERSION = 1

HISTORY_BASENAME = "BENCH_history.json"

#: the pinned measured subset: fast 1-phase schemes covering all three
#: accumulator families the probes instrument
PINNED_SCHEME_NAMES = ("MSA-1P", "Hash-1P", "MCA-1P")


# ----------------------------------------------------------------------
# environment fingerprint
# ----------------------------------------------------------------------
def _git_sha(cwd: Optional[str] = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except Exception:
        return "unknown"


def env_fingerprint(cwd: Optional[str] = None) -> dict:
    """Where a run happened: enough to refuse apples-to-oranges comparisons
    (the regression gate warns when fingerprints differ) without trying to
    capture the machine exhaustively."""
    return {
        "git_sha": _git_sha(cwd),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# the pinned case set
# ----------------------------------------------------------------------
def pinned_cases(
    *,
    rmat_scale: int = 8,
    grid_n: int = 512,
    grid_degrees: Sequence[int] = (2, 8),
    seed: int = 3,
) -> Dict[str, List[Call]]:
    """The CI-sized case set every history run times.

    ``tc-rmat-<scale>`` is the triangle-count call log on an R-MAT graph
    (the paper's scaling workload, Section 8.2); the ``er-*`` cells are a
    mini Figure-7 grid — Erdős–Rényi input/mask degree combinations that
    put each accumulator in a different regime.  Deterministic seeds: two
    runs of the same tree time literally the same call sequences.
    """
    graphs = {f"tc-rmat-{rmat_scale}": rmat(rmat_scale, seed=seed + rmat_scale)}
    cases: Dict[str, List[Call]] = tc_cases(graphs)
    for d_in in grid_degrees:
        a = erdos_renyi(grid_n, grid_n, d_in, seed=seed + d_in)
        b = erdos_renyi(grid_n, grid_n, d_in, seed=seed + d_in + 1000)
        for d_m in grid_degrees:
            m = erdos_renyi(grid_n, grid_n, d_m, seed=seed + d_m + 2000)
            cases[f"er{grid_n}-in{d_in}-m{d_m}"] = [(a, b, m, False)]
    return cases


def pinned_schemes() -> List[Scheme]:
    return [scheme_by_name(n) for n in PINNED_SCHEME_NAMES]


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
def record_key(record: dict) -> str:
    """The identity a record is matched on across runs."""
    return "|".join(
        str(record[k]) for k in ("scheme", "case", "backend", "threads")
    )


def collect_record(
    scheme: Scheme,
    case_name: str,
    calls: Sequence[Call],
    *,
    repeats: int = 3,
    semiring=PLUS_PAIR,
    backend: str = "serial",
    threads: int = 1,
) -> dict:
    """Time one (scheme, case) key and attach its work certificate.

    The timed repeats run untraced (observability off is the configuration
    being measured); one *extra* pass runs under the tracer and probes to
    collect counter totals, modeled bytes-moved and the accumulator
    histograms.  Counters are deterministic, so one pass is exact.
    """
    samples = measured_sample_seconds(
        scheme, calls, semiring=semiring, repeats=repeats
    )
    arr = np.asarray(samples, dtype=float)
    median = float(np.median(arr))
    mad = float(np.median(np.abs(arr - np.median(arr))))
    with tracing() as tracer, probing() as probes:
        measured_sample_seconds(scheme, calls, semiring=semiring, repeats=1,
                                counter=OpCounter())
        mx = _metrics(tracer, machine=HASWELL, probes=probes)
    return {
        "scheme": scheme.name,
        "case": case_name,
        "backend": backend,
        "threads": threads,
        "repeats": len(samples),
        "median_s": median,
        "mad_s": mad,
        "samples_s": [float(s) for s in samples],
        "counters": mx["counter_totals"],
        "bytes_moved_estimate": mx["bytes_moved_estimate"],
        "probes": mx["probes"],
        # per-kind misprediction summary from the traced pass (summary only
        # — the full rows would bloat the history; fit regresses counters)
        "predictions": mx["predictions"]["summary"],
    }


def session_app_records(
    *,
    repeats: int = 3,
    rmat_scale: int = 8,
    seed: int = 3,
    bc_batch: int = 32,
    k: int = 5,
) -> List[dict]:
    """Timing records for the session-enabled iterative apps.

    Unlike the pinned scheme records (deliberately sessionless — they are
    the cold-start baseline), these run k-truss and betweenness centrality
    end-to-end with ONE :class:`~repro.engine.ExecutionSession` shared
    across all repeats, the intended usage pattern.  Each record carries
    the session's cache telemetry under ``"session"`` so the regression
    gate (:mod:`repro.bench.regress`) can tell "the cache stopped hitting"
    apart from "the kernels got slower".

    ``tc-sharded`` is the grid twin of the TC workload
    (``docs/parallel.md``): the same triangle-count masked SpGEMM run as a
    ``shards=(2, 2)`` process-backend call, sessioned so the repeats
    certify segment reuse in the cache telemetry — which now counts
    per-operand / per-column-panel segments (A once, two B panels, two
    mask panels), not per-shard DCSR segments, so its ``segments_reused``
    is not comparable with records taken before the grid unification.

    ``ktruss-delta`` is the decrementing twin of ``ktruss-session``
    (``docs/algorithms.md``, "k-truss"): the same pruning loop at its default
    ``delta="auto"``, so rounds after the first decrement the support by
    two products over the removed edges (``ktruss-session`` pins
    ``delta=None`` so it stays the full-recompute sessioned baseline).

    ``tc-batched`` is the bucketed-tier twin (``docs/kernels.md``): the
    TC masked SpGEMM forced onto ``batch="bucket"`` with ``phases=2``,
    sessioned so repeats after the first fuse the numeric pass against
    the memoised symbolic bound (``fused_numeric_hits`` in the session
    telemetry certifies it).
    """
    from ..apps import betweenness_centrality, ktruss
    from ..core import masked_spgemm
    from ..engine import ExecutionSession

    g = rmat(rmat_scale, seed=seed + rmat_scale)
    low = g.pattern().tril(-1)
    apps = (
        ("ktruss-session", "auto",
         lambda s, c: ktruss(g, k, algo="auto", counter=c, session=s,
                             delta=None)),
        ("ktruss-delta", "auto",
         lambda s, c: ktruss(g, k, algo="auto", counter=c, session=s,
                             delta="auto")),
        ("bc-session", "auto",
         lambda s, c: betweenness_centrality(
             g, batch_size=bc_batch, algo="auto", seed=1, counter=c,
             session=s)),
        ("tc-sharded", "process",
         lambda s, c: masked_spgemm(
             low, low, low, algo="msa", shards=(2, 2), backend="process",
             semiring=PLUS_PAIR, counter=c, session=s)),
        ("tc-batched", "serial",
         lambda s, c: masked_spgemm(
             low, low, low, algo="hash", batch="bucket", phases=2,
             semiring=PLUS_PAIR, counter=c, session=s)),
    )
    records: List[dict] = []
    for name, backend, run_app in apps:
        samples: List[float] = []
        with ExecutionSession() as session:
            for _ in range(max(1, repeats)):
                # fresh counter per repeat: work counters are identical on
                # every pass (the session guarantees it), so keeping the
                # last makes the certificate independent of ``repeats``
                counter = OpCounter()
                t0 = time.perf_counter()
                run_app(session, counter)
                samples.append(time.perf_counter() - t0)
            stats = session.stats()
        arr = np.asarray(samples, dtype=float)
        records.append({
            "scheme": name,
            "case": f"rmat-{rmat_scale}",
            "backend": backend,
            "threads": 0,
            "repeats": len(samples),
            "median_s": float(np.median(arr)),
            "mad_s": float(np.median(np.abs(arr - np.median(arr)))),
            "samples_s": [float(s) for s in samples],
            "counters": {
                f: getattr(counter, f)
                for f in counter.__dataclass_fields__
                # session counters vary with cache warmth, not work; they
                # live under "session" where the gate reads them as cache
                # telemetry instead of a work-certificate change
                if f not in ("plan_cache_hits", "segments_reused",
                             "bytes_republished")
            },
            "session": stats,
        })
    return records


def collect_run(
    *,
    repeats: int = 3,
    cases: Optional[Dict[str, List[Call]]] = None,
    schemes: Optional[Sequence[Scheme]] = None,
    cwd: Optional[str] = None,
    include_session_apps: bool = True,
    session_rmat_scale: int = 8,
) -> dict:
    """One history run: environment fingerprint + a record per key.

    ``include_session_apps`` appends the :func:`session_app_records`
    (sessioned k-truss / BC, at R-MAT scale ``session_rmat_scale``) to
    the pinned sessionless scheme records.
    """
    cases = cases if cases is not None else pinned_cases()
    schemes = list(schemes) if schemes is not None else pinned_schemes()
    records = [
        collect_record(s, name, calls, repeats=repeats)
        for s in schemes
        for name, calls in cases.items()
    ]
    if include_session_apps:
        records.extend(session_app_records(repeats=repeats,
                                           rmat_scale=session_rmat_scale))
    return {
        "schema_version": SCHEMA_VERSION,
        "env": env_fingerprint(cwd),
        "records": records,
    }


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def _check_schema(payload: dict, path) -> None:
    ver = payload.get("schema_version")
    if not isinstance(ver, int) or ver > SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {ver!r} not readable by this tree "
            f"(supports <= {SCHEMA_VERSION})"
        )


def load_history(path) -> dict:
    """Load an append-only history file (``{"schema_version", "runs"}``)."""
    with open(path) as fh:
        payload = json.load(fh)
    _check_schema(payload, path)
    if not isinstance(payload.get("runs"), list):
        raise ValueError(f"{path}: not a history file (no 'runs' list)")
    return payload


def append_run(path, run: dict) -> dict:
    """Append ``run`` to the history at ``path`` (created if missing);
    returns the updated history payload.  Append-only by construction —
    existing runs are never rewritten, so the file is a log, not a cache."""
    if os.path.exists(path):
        history = load_history(path)
    else:
        history = {"schema_version": SCHEMA_VERSION, "runs": []}
    history["runs"].append(run)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(history, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)
    return history


def write_run(path, run: dict) -> None:
    """Write a single run as a standalone artifact (``BENCH_<sha>.json``)."""
    with open(path, "w") as fh:
        json.dump(run, fh, indent=1)
        fh.write("\n")


def latest_run(payload: dict) -> dict:
    """The newest run of a history payload, or the payload itself when it
    already *is* a single-run artifact (has ``records``, no ``runs``)."""
    _check_schema(payload, "<payload>")
    if "records" in payload and "runs" not in payload:
        return payload
    runs = payload.get("runs") or []
    if not runs:
        raise ValueError("history holds no runs")
    return runs[-1]


def run_artifact_name(run: dict) -> str:
    sha = (run.get("env") or {}).get("git_sha", "unknown")
    return f"BENCH_{sha[:12] if sha != 'unknown' else sha}.json"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.history",
        description="Collect a benchmark history run over the pinned case set.",
    )
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per (scheme, case) key")
    parser.add_argument("--history", default=HISTORY_BASENAME,
                        help="append-only history file to extend "
                             "(default: %(default)s; '-' skips the append)")
    parser.add_argument("--run-dir", default=".",
                        help="directory for the standalone BENCH_<sha>.json")
    parser.add_argument("--rmat-scale", type=int, default=8,
                        help="R-MAT scale of the pinned TC case and the "
                             "sessioned app records")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    run = collect_run(repeats=args.repeats,
                      cases=pinned_cases(rmat_scale=args.rmat_scale),
                      session_rmat_scale=args.rmat_scale)
    artifact = os.path.join(args.run_dir, run_artifact_name(run))
    write_run(artifact, run)
    print(f"wrote {artifact} ({len(run['records'])} records)")
    if args.history != "-":
        history = append_run(args.history, run)
        print(f"appended run #{len(history['runs'])} to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
