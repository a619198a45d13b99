#!/usr/bin/env python3
"""Integrate a fan of trajectories from shifted starting points.

Writes one CSV per start plus a gnuplot script overlaying them, and prints
where each run ended (completed / node event / domain exit). Useful for
eyeballing how orbits organize around nodal stagnation points.
"""

import argparse
import os

import numpy as np

from qhj3d.cli import run_trajectory
from qhj3d.scenario import parse_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("scenario")
    ap.add_argument("--count", type=int, default=7)
    ap.add_argument("--spread", type=float, default=0.4,
                    help="half-width of the fan of starts along x")
    ap.add_argument("--outdir", default="portrait")
    args = ap.parse_args()

    with open(args.scenario) as handle:
        scenario = parse_scenario(handle.read())
    os.makedirs(args.outdir, exist_ok=True)
    r0 = np.array(scenario.trajectory.r0)

    csvs = []
    for i, dx in enumerate(np.linspace(-args.spread, args.spread, args.count)):
        start = r0 + np.array([dx, 0.0, 0.0])
        out = os.path.join(args.outdir, f"traj_{i:02d}.csv")
        trajectory = run_trajectory(scenario, r0=tuple(start), out=out)
        term = trajectory.termination
        tag = term.status + (f"/{term.kind}" if term.kind else "")
        print(f"start x={start[0]:+.3f}: {len(trajectory.states):4d} states, "
              f"{tag} at t={term.t:.4f}")
        csvs.append(os.path.basename(out))

    script = os.path.join(args.outdir, "portrait.gp")
    with open(script, "w") as handle:
        handle.write("set datafile separator ','\n")
        handle.write("set key off\nset xlabel 'x'\nset ylabel 'y'\n")
        parts = ", ".join(f"'{name}' using 2:3 with lines" for name in csvs)
        handle.write(f"plot {parts}\n")
    print(f"wrote {script}")


if __name__ == "__main__":
    main()
