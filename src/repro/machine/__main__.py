"""CLI for the machine model.

``python -m repro.machine fit`` fits :class:`MachineConfig` cycle
parameters to the measurements accumulated in ``BENCH_history.json`` (see
:mod:`repro.machine.fit` and ``docs/calibration.md``) and persists the
fitted config with provenance.  The fit is deterministic for a fixed
history, so CI can assert the output bit for bit.

``python -m repro.machine host`` measures this interpreter and prints, as
JSON, whether the native kernel tier loaded and, per tier (``numpy`` and,
when loaded, ``native``), the :class:`HostProfile` coefficients live
planning reads next to the values checked in as
:data:`repro.machine.host.HOST` / :data:`~repro.machine.host.HOST_NATIVE`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .config import MACHINES
from .fit import (
    DEFAULT_FITTED_PATH,
    evaluate_config,
    fit_machine,
    load_fitted,
    samples_from_history,
    save_fitted,
)


def _cmd_fit(args: argparse.Namespace) -> int:
    with open(args.history) as fh:
        history = json.load(fh)
    base = MACHINES[args.base]
    result = fit_machine(
        history, base=base, name=args.name, holdout=args.holdout
    )
    path = save_fitted(result, args.out)
    if args.json:
        json.dump(result.payload(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    prov = result.provenance
    m = result.machine
    print(f"fitted machine config written to {path}")
    print(
        f"  samples={prov['samples']}  params fitted: "
        + ", ".join(prov["params_fitted"])
    )
    print(
        f"  flop={m.flop_cycles:.3g}  hit={m.hit_cycles:.3g} "
        f"dram={m.dram_cycles:.3g}  probe={m.probe_cycles:.3g} "
        f"heap={m.heap_cycles:.3g} cycles (1 cycle = 1 ns)"
    )
    res = prov["residual"]
    print(
        f"  fit residual: median |log10 ratio| = "
        f"{res['median_abs_log10_ratio']:.3f} over {res['samples']} samples"
    )
    held = prov.get("holdout")
    if held:
        f_err = held["fitted"]["median_abs_log10_ratio"]
        d_err = held["default"]["median_abs_log10_ratio"]
        verdict = "improved" if (f_err or 0) < (d_err or 0) else "NOT improved"
        print(
            f"  held-out {held['scheme']}: fitted {f_err:.3f} vs "
            f"default {d_err:.3f} median |log10 ratio| ({verdict})"
        )
    return 0


def _cmd_host(args: argparse.Namespace) -> int:
    import dataclasses

    from ..core.kernels import native
    from .host import HOST, HOST_NATIVE, fit_host_profile

    st = native.status()
    doc = {
        "native": "loaded" if st["loaded"] else f"unavailable ({st['reason']})",
        "checked_in": {"numpy": dataclasses.asdict(HOST),
                       "native": dataclasses.asdict(HOST_NATIVE)},
        "measured": {}, "report": {},
    }
    tiers = {"numpy": native.disabled}
    if st["loaded"]:
        tiers["native"] = contextlib.nullcontext
    for tier, scope in tiers.items():
        with scope():
            profile, report = fit_host_profile(quick=args.quick)
        if not args.samples:
            del report["samples"]
        doc["measured"][tier] = dataclasses.asdict(profile)
        doc["report"][tier] = report
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    machine = load_fitted(args.path)
    with open(args.history) as fh:
        history = json.load(fh)
    samples = samples_from_history(history)
    print(json.dumps(evaluate_config(machine, samples), indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.machine",
        description="machine-model utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser(
        "fit", help="fit MachineConfig parameters to recorded history"
    )
    fit.add_argument("--history", default="BENCH_history.json",
                     help="BENCH_history.json to fit against")
    fit.add_argument("--out", default=DEFAULT_FITTED_PATH,
                     help="where to write the fitted config")
    fit.add_argument("--base", default="haswell", choices=sorted(MACHINES),
                     help="config supplying unfitted parameters")
    fit.add_argument("--name", default="fitted",
                     help="name of the fitted config")
    fit.add_argument("--holdout", default="MCA-1P",
                     help="scheme held out of the fit for evaluation "
                          "(empty string disables)")
    fit.add_argument("--json", action="store_true",
                     help="print the full payload as JSON")
    fit.set_defaults(func=_cmd_fit)

    host = sub.add_parser(
        "host", help="measure this interpreter's HostProfile coefficients"
    )
    host.add_argument("--quick", action="store_true",
                      help="small calibration triples (seconds; noisy)")
    host.add_argument("--samples", action="store_true",
                      help="include the raw timing samples in the report")
    host.set_defaults(func=_cmd_host)

    show = sub.add_parser(
        "show", help="evaluate the persisted fitted config against a history"
    )
    show.add_argument("--path", default=None)
    show.add_argument("--history", default="BENCH_history.json")
    show.set_defaults(func=_cmd_show)

    args = parser.parse_args(argv)
    if getattr(args, "holdout", None) == "":
        args.holdout = None
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
