"""The continuity law in divergence form, which the tests check.

The package compares the two closed forms of the probability flux,
R^2 grad S0 = hbar a (phi grad theta - theta grad phi), point by point
(hj_core.continuity_identity_from_sample). Here the law itself,
div(R^2 grad S0) = 0, is checked by central differences of R and grad S0
read off hj_core.sample, so a node or a wall meets a shifted copy by the
kernel's rules.
"""

import math

from qhj3d.arrays import as_coords, where
from qhj3d.errors import OK
from qhj3d.hj_core import sample

# Central-difference step along each axis.
DIVERGENCE_STEP = 1e-5


def continuity_divergence(action, r):
    """|div(R^2 grad S0)| at r, a point or coordinate arrays that broadcast
    together, from six sample calls: r moved by +-DIVERGENCE_STEP along
    each axis in turn. Over arrays it reads NaN where any of a point's
    copies is undefined; at a point it raises what sample raises at the
    first undefined copy."""
    coords = as_coords(r)
    div, ok = 0.0, True
    for mu in range(3):
        flux = []
        for step in (DIVERGENCE_STEP, -DIVERGENCE_STEP):
            shifted = list(coords)
            shifted[mu] = coords[mu] + step
            s = sample(action, shifted)
            ok = ok & (s.status == OK)
            flux.append(s.amplitude**2 * s.grad_s0[mu])
        div = div + (flux[0] - flux[1]) / (2.0 * DIVERGENCE_STEP)
    return where(ok, abs(div), math.nan)
