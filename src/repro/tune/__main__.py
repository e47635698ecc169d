"""CLI for the runtime profile.

Usage::

    python -m repro.tune report            # profile one app run, print it
    python -m repro.tune report --app volna --steps 5 --out profile.json
"""

from __future__ import annotations

import argparse
import json
import sys


def _build_sim(app: str, backend: str):
    from ..core import Runtime
    from ..mesh import make_airfoil_mesh, make_tri_mesh

    rt = Runtime(backend)
    if app == "airfoil":
        from ..apps.airfoil import AirfoilSim

        return AirfoilSim(make_airfoil_mesh(48, 24), runtime=rt), rt
    if app == "volna":
        from ..apps.volna import VolnaSim

        return VolnaSim(make_tri_mesh(40, 30, 100_000.0, 75_000.0),
                        runtime=rt), rt
    if app == "aero":
        from ..apps.aero import AeroSim

        return AeroSim(make_airfoil_mesh(24, 12), runtime=rt), rt
    raise SystemExit(f"unknown app {app!r} (airfoil, volna, aero)")


def cmd_report(args) -> int:
    sim, rt = _build_sim(args.app, args.backend)
    sim.run(args.steps)
    report = {
        "app": args.app,
        "backend": args.backend,
        "steps": args.steps,
        "profile": rt.stats()["profile"],
    }
    text = json.dumps(report, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"[saved {args.out}]")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tune",
        description="Runtime profile reports.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    rep = sub.add_parser("report", help="run one app and dump its "
                         "per-loop/per-chain profile")
    rep.add_argument("--app", default="airfoil",
                     choices=("airfoil", "volna", "aero"))
    rep.add_argument("--backend", default="auto",
                     help='runtime backend (default "auto")')
    rep.add_argument("--steps", type=int, default=3)
    rep.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args(argv)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
