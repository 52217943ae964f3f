"""CLI for the machine model.

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.machine",
        description="machine-model utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    host = sub.add_parser(
        "host", help="measure this interpreter's HostProfile coefficients"
    )
    host.add_argument("--quick", action="store_true",
                      help="small calibration triples (seconds; noisy)")
    host.add_argument("--samples", action="store_true",
                      help="include the raw timing samples in the report")
    host.set_defaults(func=_cmd_host)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
