#!/usr/bin/env python3
"""Residual sweep over the mixing constants (a, b).

For a fixed solution field the whole construction is exact for any a != 0,
so the residual landscape is a map of floating-point noise, not physics.
Prints a table of max |qshje| and max continuity residual per mixing and
writes mixing_sweep.csv.
"""

import argparse

import numpy as np

from qhj3d import (
    ReducedActionField,
    continuity_identity_from_sample,
    qshje_from_sample,
    sample,
    sparse_grid,
)
from qhj3d.errors import OK
from qhj3d.scenario import build_field, parse_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("scenario", help="scenario file providing the field")
    ap.add_argument("--n", type=int, default=13, help="grid points per axis")
    ap.add_argument("--amax", type=float, default=5.0)
    ap.add_argument("--bmax", type=float, default=5.0)
    ap.add_argument("--steps", type=int, default=7)
    ap.add_argument("--out", default="mixing_sweep.csv")
    args = ap.parse_args()

    scenario = parse_scenario(open(args.scenario).read())
    field = build_field(scenario)
    grid = sparse_grid(scenario.verify.bounds, (args.n,) * 3)

    rows = []
    print(f"{'a':>8} {'b':>8} {'max |qshje|':>14} {'max continuity':>16} {'skipped':>8}")
    for a in np.linspace(-args.amax, args.amax, args.steps):
        if a == 0.0:
            continue
        for b in np.linspace(-args.bmax, args.bmax, args.steps):
            action = ReducedActionField(field, float(a), float(b))
            s = sample(action, grid)
            used = s.status == OK
            worst_q = float(np.max(np.abs(qshje_from_sample(action, s))[used], initial=0.0))
            worst_c = float(np.max(continuity_identity_from_sample(action, s)[used], initial=0.0))
            skipped = int(np.count_nonzero(~used))
            print(f"{a:8.3f} {b:8.3f} {worst_q:14.3e} {worst_c:16.3e} {skipped:8d}")
            rows.append((a, b, worst_q, worst_c, skipped))

    with open(args.out, "w") as handle:
        handle.write("a,b,max_qshje,max_continuity,skipped\n")
        for row in rows:
            handle.write(",".join(format(v, ".17g") for v in row) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
