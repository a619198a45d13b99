"""Array-generic elementary operations.

The evaluation chain (axis solutions -> field -> action -> metric) is
written once and runs on two kinds of input: Python floats for a single
point (trajectories) and numpy arrays that broadcast against each other
for many points (grids, metric batches). These helpers let one body serve
both. On floats they use builtins and plain conditionals, which allocate
nothing; on arrays they use the numpy ufuncs. The choice follows the type
of the argument, never a caller's flag. Where a body tests the type once
per call instead (a point branch), it calls math or numpy directly.
"""

from __future__ import annotations

import numpy as np


def maximum(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def where(cond, a, b):
    """a where cond holds, else b; a plain conditional for a scalar cond."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def zeros_like(x):
    """+0.0 in the shape of x: a float for a float, an array for an array."""
    return 0.0 * abs(x)


def all_true(cond) -> bool:
    return bool(cond.all()) if isinstance(cond, np.ndarray) else bool(cond)


def at_point(status) -> bool:
    """Whether an evaluation covered one point, which reports a bad status
    by raising, rather than arrays, which report it per point."""
    return not isinstance(status, np.ndarray)


def stack(parts):
    """Per-axis values as one float array with the axis last: shape (3,)
    at a point, the broadcast shape of the parts plus (3,) over arrays."""
    if any(isinstance(p, np.ndarray) for p in parts):
        return np.stack(np.broadcast_arrays(*parts), axis=-1)
    return np.array(parts, dtype=float)


def as_coords(r) -> tuple:
    """The three coordinates of r: floats for a point (a 3-sequence or a
    length-3 array), or the given arrays, which must broadcast together."""
    return tuple([c if isinstance(c, np.ndarray) else float(c) for c in r])


def sparse_grid(bounds, counts) -> tuple:
    """The counts[0] x counts[1] x counts[2] grid spanning bounds, as three
    arrays of shapes (n0, 1, 1), (1, n1, 1), (1, 1, n2): each axis is held
    once, and arithmetic on them broadcasts to the full grid in ij order."""
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, counts)]
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
