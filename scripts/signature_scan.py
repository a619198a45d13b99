#!/usr/bin/env python3
"""Map the metric signature of a scenario's field over a 2D slice.

Classically allowed regions tend to be Riemannian (+++); forbidden regions
flip components negative and admit no real quantum-coordinate Jacobian.
Prints an ASCII map (one character per point) and a census.

Legend: '+' all components positive, digits 1..3 = number of negative
components, 'o' nodal, 'x' momentum-singular, '.' outside the domain.
"""

import argparse

import numpy as np

from qhj3d import a_upper_from_sample, sample
from qhj3d.errors import NODAL, NODE_SINGULAR, OUT_OF_DOMAIN
from qhj3d.scenario import build_action, parse_scenario

STATUS_CHARS = {NODAL: "o", NODE_SINGULAR: "x", OUT_OF_DOMAIN: "."}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("scenario")
    ap.add_argument("--plane", default="xy", choices=["xy", "xz", "yz"])
    ap.add_argument("--offset", type=float, default=0.3,
                    help="coordinate of the remaining axis")
    ap.add_argument("--n", type=int, default=41)
    args = ap.parse_args()

    scenario = parse_scenario(open(args.scenario).read())
    action = build_action(scenario)
    bounds = dict(zip("xyz", scenario.verify.bounds))
    ax1, ax2 = args.plane
    other = ({"x", "y", "z"} - {ax1, ax2}).pop()

    # Rows run down the ax2 axis from its upper bound, columns along ax1.
    coords = {ax1: np.linspace(*bounds[ax1], args.n)[None, :],
              ax2: np.linspace(*bounds[ax2], args.n)[::-1, None],
              other: args.offset}
    s = sample(action, (coords["x"], coords["y"], coords["z"]))
    a_upper, status = a_upper_from_sample(action, s)
    n_neg = sum((a < 0).astype(int) for a in a_upper)
    chars = np.where(n_neg == 0, "+", n_neg.astype(str))
    for code, ch in STATUS_CHARS.items():
        chars = np.where(status == code, ch, chars)
    lines = ["".join(row) for row in chars]
    names, counts = np.unique(chars, return_counts=True)
    census = {str(n): int(c) for n, c in zip(names, counts)}

    print(f"{ax1}-{ax2} plane at {other} = {args.offset}, "
          f"{ax1} in {bounds[ax1]}, {ax2} in {bounds[ax2]}")
    for line in lines:
        print(line)
    print("census:", dict(sorted(census.items())))


if __name__ == "__main__":
    main()
