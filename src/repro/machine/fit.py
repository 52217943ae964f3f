"""History-fitted machine calibration: close the modeled→measured loop.

:mod:`repro.machine.calibrate` measures the *host* with micro-benchmarks;
this module goes the other way and fits :class:`MachineConfig` cycle
parameters to the **application measurements the repo already records** —
the work certificates (operation counters) and median seconds of
``BENCH_history.json`` runs, or the per-band prediction rows of
:mod:`repro.observe.ledger`.

The model being fitted is the counter-linear form the cost model and
:func:`repro.observe.estimated_bytes_moved` share: a record that measured
``y`` seconds and counted ``flops``/``hash_probes``/``heap ops``/
accumulator touches/moved bytes is predicted as::

    y ≈ ( flop_cycles  * (flops + symbolic_flops)
        + probe_cycles * hash_probes
        + heap_cycles  * (heap_pushes + heap_pops)
        + hit_cycles   * (accumulator + mask touches)
        + dram_cycles  * (bytes_moved / line_bytes) ) / (ghz * 1e9)

Fitting is a deterministic robust regression: relative-error weighted
least squares with non-negativity enforced by dropping violating columns
(those parameters keep the base config's values).  The result is persisted
as a **versioned fitted config** (``.repro_machine.json``) with provenance
— sample count, residual statistics, a held-out evaluation and the
environment fingerprint — and every ``machine=`` argument in the engine
accepts the string ``"fitted"`` to load it (:func:`resolve_machine`).

Fitted configs use the nominal 1 GHz convention of
:mod:`repro.machine.calibrate`: one modeled cycle is one nanosecond of
host time, so ``seconds()`` returns honest wall-clock predictions.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Iterable, List, Optional

import numpy as np

from .config import HASWELL, MACHINES, MachineConfig
from .host import HostProfile, host_profile

__all__ = [
    "FIT_SCHEMA_VERSION",
    "FITTED_PARAMS",
    "DEFAULT_FITTED_PATH",
    "FITTED_PATH_ENV",
    "MACHINE_ENV",
    "FitResult",
    "default_machine",
    "samples_from_history",
    "samples_from_predictions",
    "fit_machine",
    "evaluate_config",
    "nonneg_lstsq",
    "save_fitted",
    "load_fitted",
    "load_fitted_payload",
    "resolve_machine",
]

FIT_SCHEMA_VERSION = 1

#: the MachineConfig parameters the fit may replace
FITTED_PARAMS = (
    "hit_cycles",
    "dram_cycles",
    "flop_cycles",
    "probe_cycles",
    "heap_cycles",
)

#: default on-disk location of the fitted config (cwd-relative), overridable
#: via the environment variable below or an explicit path argument
DEFAULT_FITTED_PATH = ".repro_machine.json"
FITTED_PATH_ENV = "REPRO_MACHINE_FILE"

#: environment variable naming a modeled machine ("haswell" | "knl" |
#: "fitted") to plan for, in place of the measured host profile, in every
#: call that does not pass one explicitly
MACHINE_ENV = "REPRO_MACHINE"

#: nominal clock of a fitted config: 1 cycle == 1 ns of host time
NOMINAL_GHZ = 1.0

#: counter fields that are session telemetry, not work — never features
_NON_WORK_COUNTERS = ("plan_cache_hits", "segments_reused", "bytes_republished")

#: regression feature columns, in order; counts are divided by ghz*1e9
#: when building the design matrix
_CYCLE_FEATURES = (
    "flop_cycles",
    "probe_cycles",
    "heap_cycles",
    "hit_cycles",
    "dram_cycles",
)


@dataclasses.dataclass(frozen=True)
class FitResult:
    """A fitted config plus everything needed to audit it."""

    machine: MachineConfig
    provenance: Dict

    def payload(self) -> dict:
        """The JSON document :func:`save_fitted` persists."""
        return {
            "schema_version": FIT_SCHEMA_VERSION,
            "machine": dataclasses.asdict(self.machine),
            "provenance": self.provenance,
        }


# ----------------------------------------------------------------------
# sample extraction
# ----------------------------------------------------------------------
def _touch_words(counters: Dict[str, int]) -> float:
    g = counters.get
    return float(
        g("accum_inserts", 0)
        + g("accum_removes", 0)
        + g("accum_init", 0)
        + g("spa_resets", 0)
        + g("mask_scans", 0)
        + 2 * g("output_nnz", 0)
    )


def _feature_row(counters: Dict[str, int], bytes_moved: float,
                 base: MachineConfig) -> Dict[str, float]:
    g = counters.get
    return {
        "flop_cycles": float(g("flops", 0) + g("symbolic_flops", 0)),
        "probe_cycles": float(g("hash_probes", 0)),
        "heap_cycles": float(g("heap_pushes", 0) + g("heap_pops", 0)),
        "hit_cycles": _touch_words(counters),
        "dram_cycles": float(bytes_moved) / float(max(1, base.line_bytes)),
    }


def samples_from_history(history: dict, *, base: MachineConfig = HASWELL
                         ) -> List[dict]:
    """Fit samples from a ``BENCH_history.json`` document.

    One sample per record carrying both a work certificate (counters) and a
    positive measured median; session-telemetry counters are ignored.
    """
    samples: List[dict] = []
    for run in history.get("runs", ()):
        for rec in run.get("records", ()):
            counters = rec.get("counters") or {}
            counters = {
                k: v for k, v in counters.items() if k not in _NON_WORK_COUNTERS
            }
            med = float(rec.get("median_s") or 0.0)
            if not counters or med <= 0.0:
                continue
            samples.append(
                {
                    "scheme": rec.get("scheme"),
                    "case": rec.get("case"),
                    "backend": rec.get("backend", "serial"),
                    "seconds": med,
                    "features": _feature_row(
                        counters, rec.get("bytes_moved_estimate", 0), base
                    ),
                }
            )
    return samples


def samples_from_predictions(payload: dict, *, base: MachineConfig = HASWELL,
                             backend: str = "serial") -> List[dict]:
    """Fit samples from a prediction-ledger payload
    (:func:`repro.observe.predictions`): one per row that carries counters."""
    from ..observe.exporters import estimated_bytes_moved

    samples: List[dict] = []
    for row in payload.get("rows", ()):
        counters = row.get("counters") or {}
        counters = {
            k: v for k, v in counters.items() if k not in _NON_WORK_COUNTERS
        }
        sec = float(row.get("measured_seconds") or 0.0)
        if not counters or sec <= 0.0:
            continue
        samples.append(
            {
                "scheme": row.get("kind"),
                "case": row.get("key"),
                "backend": row.get("attrs", {}).get("backend", backend),
                "seconds": sec,
                "features": _feature_row(
                    counters, estimated_bytes_moved(counters), base
                ),
            }
        )
    return samples


# ----------------------------------------------------------------------
# the regression
# ----------------------------------------------------------------------
def _predict_seconds(sample: dict, params: Dict[str, float], ghz: float) -> float:
    cycles = sum(
        params[name] * sample["features"][name] for name in _CYCLE_FEATURES
    )
    return cycles / (ghz * 1e9)


def evaluate_config(machine: MachineConfig, samples: Iterable[dict]) -> dict:
    """Aggregate modeled/measured ratio error of a config over samples.

    The headline number is the median absolute log10 ratio — 0 means the
    model nails every sample, 1 means it is 10x off in the median.
    """
    params = {name: float(getattr(machine, name)) for name in _CYCLE_FEATURES}
    logs: List[float] = []
    for s in samples:
        modeled = _predict_seconds(s, params, machine.ghz)
        if modeled > 0.0 and s["seconds"] > 0.0:
            logs.append(abs(float(np.log10(s["seconds"] / modeled))))
    if not logs:
        return {"samples": 0, "median_abs_log10_ratio": None}
    return {
        "samples": len(logs),
        "median_abs_log10_ratio": float(np.median(logs)),
        "max_abs_log10_ratio": float(np.max(logs)),
    }


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


def _solve(samples: List[dict]) -> Dict[str, float]:
    """Fit the cycle parameters to the samples.

    Rows are weighted by ``1/seconds`` so the fit minimises *relative*
    error (a 2x miss on a microsecond record matters as much as on a
    millisecond one).  Parameters the fit drops (see :func:`nonneg_lstsq`)
    are absent from the result and keep the base config's values.
    """
    y = np.asarray([s["seconds"] for s in samples], dtype=np.float64)
    # feature counts -> seconds at the nominal clock
    x = np.asarray(
        [[s["features"][name] for name in _CYCLE_FEATURES] for s in samples],
        dtype=np.float64,
    ) / (NOMINAL_GHZ * 1e9)
    theta = nonneg_lstsq(x, y, 1.0 / np.maximum(y, 1e-12))
    return {
        name: float(t) for name, t in zip(_CYCLE_FEATURES, theta) if t > 0.0
    }


def fit_machine(
    history: dict,
    *,
    base: MachineConfig = HASWELL,
    name: str = "fitted",
    holdout: Optional[str] = None,
    samples: Optional[List[dict]] = None,
) -> FitResult:
    """Fit a :class:`MachineConfig` to accumulated measurements.

    ``history`` is a loaded ``BENCH_history.json`` document (ignored when
    explicit ``samples`` are passed).  ``holdout`` names a scheme excluded
    from the fit and used to evaluate generalisation — the provenance
    records both the fitted and the base config's error on it, which is
    the acceptance check ``python -m repro.machine fit`` prints.

    The fit is deterministic: same history, same result, bit for bit.
    """
    if samples is None:
        samples = samples_from_history(history, base=base)
    if not samples:
        raise ValueError(
            "no fit samples: the history carries no records with work "
            "certificates (counters) and positive measured medians"
        )
    fit_set = [s for s in samples if holdout is None or s["scheme"] != holdout]
    held = [s for s in samples if holdout is not None and s["scheme"] == holdout]
    if not fit_set:
        raise ValueError(f"holdout {holdout!r} excluded every fit sample")
    params = _solve(fit_set)
    if not params:
        raise ValueError("degenerate fit: every feature column was empty")

    values: Dict[str, float] = {}
    for pname in _CYCLE_FEATURES:
        values[pname] = params.get(pname, float(getattr(base, pname)))
    machine = dataclasses.replace(
        base,
        name=name,
        ghz=NOMINAL_GHZ,
        hit_cycles=values["hit_cycles"],
        dram_cycles=values["dram_cycles"],
        flop_cycles=values["flop_cycles"],
        probe_cycles=values["probe_cycles"],
        heap_cycles=values["heap_cycles"],
    )

    residual = evaluate_config(machine, fit_set)
    provenance: Dict = {
        "base": base.name,
        "samples": len(fit_set),
        "params_fitted": sorted(params),
        "residual": residual,
        "holdout": None,
        "env": _env_fingerprint(),
    }
    if holdout is not None:
        provenance["holdout"] = {
            "scheme": holdout,
            "samples": len(held),
            "fitted": evaluate_config(machine, held),
            "default": evaluate_config(base, held),
        }
    return FitResult(machine=machine, provenance=provenance)


def _env_fingerprint() -> dict:
    """Environment provenance (lazy import: bench pulls in the apps)."""
    try:
        from ..bench.history import env_fingerprint

        return env_fingerprint(os.getcwd())
    except Exception:  # pragma: no cover - bench should always import
        return {}


# ----------------------------------------------------------------------
# persistence + resolution
# ----------------------------------------------------------------------
def _fitted_path(path: Optional[str]) -> str:
    if path is not None:
        return str(path)
    return os.environ.get(FITTED_PATH_ENV) or DEFAULT_FITTED_PATH


def save_fitted(result: FitResult, path: Optional[str] = None) -> str:
    """Persist a fit result; returns the path written."""
    target = _fitted_path(path)
    with open(target, "w") as fh:
        json.dump(result.payload(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return target


def load_fitted_payload(path: Optional[str] = None) -> Optional[dict]:
    """The raw fitted-config document, or ``None`` when absent/invalid."""
    target = _fitted_path(path)
    if not os.path.exists(target):
        return None
    try:
        with open(target) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if payload.get("schema_version") != FIT_SCHEMA_VERSION:
        return None
    return payload


def load_fitted(path: Optional[str] = None) -> MachineConfig:
    """Load the persisted fitted config (``machine="fitted"``'s target).

    Looks at ``path``, then ``$REPRO_MACHINE_FILE``, then
    ``./.repro_machine.json``; raises with a pointer to the fit CLI when
    nothing is there.
    """
    payload = load_fitted_payload(path)
    if payload is None:
        raise FileNotFoundError(
            f"no fitted machine config at {_fitted_path(path)!r}; run "
            "`python -m repro.machine fit` (see docs/calibration.md) or set "
            f"${FITTED_PATH_ENV}"
        )
    fields = {f.name for f in dataclasses.fields(MachineConfig)}
    doc = {k: v for k, v in payload["machine"].items() if k in fields}
    return MachineConfig(**doc)


def default_machine():
    """What plans are priced from when no ``machine=`` is given anywhere.

    The measured profile of this interpreter
    (:func:`~repro.machine.host.host_profile`: ``HOST_NATIVE`` when the
    native kernel tier loads, ``HOST`` otherwise), unless the
    ``REPRO_MACHINE`` environment variable names a preset or ``"fitted"``
    — the hook CI uses to re-run entire equivalence
    suites under a modeled config without touching a single call site.
    """
    name = os.environ.get(MACHINE_ENV, "").strip()
    if not name:
        return host_profile()
    return resolve_machine(name)


def resolve_machine(machine, *, default=None):
    """Resolve a ``machine=`` argument.

    ``None`` is the live default (``default`` when given, else
    :func:`default_machine`: the measured host profile).  A
    :class:`MachineConfig` or :class:`HostProfile` passes through; a string
    names a modeled preset (``"haswell"``, ``"knl"``) or the persisted
    ``"fitted"`` config.
    """
    if machine is None:
        return default if default is not None else default_machine()
    if isinstance(machine, (MachineConfig, HostProfile)):
        return machine
    if isinstance(machine, str):
        key = machine.lower()
        if key == "fitted":
            return load_fitted()
        if key in MACHINES:
            return MACHINES[key]
        raise ValueError(
            f"unknown machine {machine!r}; expected a MachineConfig, one of "
            f"{sorted(MACHINES)} or 'fitted'"
        )
    raise TypeError(
        f"machine must be a MachineConfig, a HostProfile, a name or None, "
        f"got {type(machine)!r}"
    )
