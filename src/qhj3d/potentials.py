"""Separable 3D potentials: V(r) = Vx(x) + Vy(y) + Vz(z).

Separability is the structural choice that lets the field builder obtain
two independent real 3D Schrodinger solutions as products of 1D solutions,
so each axis carries its own one-dimensional potential. All objects here
are immutable and safe for concurrent evaluation. Every evaluation takes
a float or an array of coordinates and returns the same kind.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from .arrays import all_true, zeros_like
from .errors import OutOfDomain

AXES = ("x", "y", "z")

FULL_LINE = (-math.inf, math.inf)

EPS = float(np.finfo(float).eps)


def check_finite(value, name: str) -> float:
    """value as a float; ValueError unless it is one finite real number."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _padded(lo, hi) -> tuple[float, float]:
    """[lo, hi] widened by 4 EPS max(1, |lo|, |hi|) over its finite edges: the
    one domain tolerance. Private, so bench/tracer.py never counts it."""
    eps = 4.0 * EPS * max((1.0, *(abs(e) for e in (lo, hi) if math.isfinite(e))))
    return lo - eps, hi + eps


class AxisPotential:
    """One-axis contribution to a separable potential."""

    kind: str = "base"

    @property
    def domain(self) -> tuple[float, float]:
        return FULL_LINE

    def contains(self, x):
        """Whether x lies in the domain, up to rounding at its edges."""
        lo, hi = _padded(*self.domain)
        return (lo <= x) & (x <= hi)

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def derivative(self, x: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Free(AxisPotential):
    """V = 0, as arrays.zeros_like(x) computes it, without the extra call."""

    kind = "free"

    def __call__(self, x: float) -> float:
        return 0.0 * abs(x)

    def derivative(self, x: float) -> float:
        return 0.0 * abs(x)


@dataclass(frozen=True)
class HarmonicOscillator(AxisPotential):
    """V = (1/2) m0 omega^2 x^2. The mass is the scenario mass m0."""

    omega: float
    mass: float = 1.0

    kind = "harmonic"

    def __post_init__(self):
        if not check_finite(self.omega, "omega") > 0:
            raise ValueError("omega must be positive")
        if not check_finite(self.mass, "mass") > 0:
            raise ValueError("mass must be positive")
        try:
            stiffness = self.mass * self.omega**2
        except OverflowError:
            stiffness = math.inf
        if not (math.isfinite(stiffness) and stiffness != 0.0):
            raise ValueError(f"m omega^2 must be finite and nonzero, got {stiffness!r} "
                             f"(mass = {self.mass!r}, omega = {self.omega!r})")

    def __call__(self, x: float) -> float:
        return 0.5 * self.mass * self.omega**2 * x * x

    def derivative(self, x: float) -> float:
        return self.mass * self.omega**2 * x


@dataclass(frozen=True)
class LinearRamp(AxisPotential):
    """V = slope * x."""

    slope: float

    kind = "linear"

    def __post_init__(self):
        check_finite(self.slope, "slope")

    def __call__(self, x: float) -> float:
        return self.slope * x

    def derivative(self, x: float) -> float:
        return self.slope + zeros_like(x)


def _not_a_knot_slopes(x, y) -> tuple[float, ...]:
    """Node slopes of the not-a-knot cubic spline through (x, y), 4 or more
    ascending nodes (de Boor, ch. IV): second derivative continuous inside,
    third across the second node from each end; O(n) elimination, positive
    pivots. ValueError unless divided differences and slopes are finite."""
    h = [b - a for a, b in zip(x, x[1:])]
    delta = [(b - a) / dx for a, b, dx in zip(y, y[1:], h)]
    # rows i of lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = h + [d1]  # lower[0] is not read
    diag = [h[1]] + [2.0 * (a + b) for a, b in zip(h, h[1:])] + [h[-2]]
    upper = [d0] + h[:-1] + [0.0]
    rhs = ([((h[0] + 2.0 * d0) * h[1] * delta[0] + h[0] ** 2 * delta[1]) / d0]
           + [3.0 * (b * da + a * db) for a, b, da, db in zip(h, h[1:], delta, delta[1:])]
           + [(h[-1] ** 2 * delta[-2] + (2.0 * d1 + h[-1]) * h[-2] * delta[-1]) / d1])
    for i in range(1, len(x)):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(len(x) - 2, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1]) / diag[i]
    if not all(map(math.isfinite, rhs)):
        raise ValueError("tabulated values overflow the spline's divided differences or slopes")
    return tuple(rhs)


@dataclass(frozen=True)
class Tabulated(AxisPotential):
    """Not-a-knot cubic spline through (grid, values) nodes.

    Cubic order keeps the second derivative continuous, which the Numerov
    recurrence and the amplitude Hessian both need. Each cell holds the
    cubic Hermite interpolant of the node values and slopes at its ends,
    summed from the constant term up as scipy's CubicSpline sums it; inside
    the rounding pad past the grid, the end cell's cubic. Queries further
    out raise OutOfDomain.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]
    _slopes: tuple[float, ...] = dc_field(init=False, repr=False, compare=False, default=())

    kind = "tabulated"

    def __post_init__(self):
        grid = tuple(check_finite(g, "grid") for g in np.atleast_1d(self.grid))
        values = tuple(check_finite(v, "values") for v in np.atleast_1d(self.values))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if len(grid) < 4:
            raise ValueError("tabulated potential needs at least 4 points")
        if len(grid) != len(values):
            raise ValueError("grid and values must have equal length")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("tabulated grid must be strictly ascending")
        object.__setattr__(self, "_slopes", _not_a_knot_slopes(grid, values))

    @property
    def domain(self) -> tuple[float, float]:
        return (self.grid[0], self.grid[-1])

    def _cubic(self, x):
        """(t, y, s, c2, c3): the cubic y + s t + c2 t^2 + c3 t^3 of the cell
        [left, right) that holds x, clamped to the end cells, at t = x - left."""
        if not all_true(self.contains(x)):
            raise OutOfDomain(f"x={x} outside tabulated grid [{self.grid[0]}, {self.grid[-1]}]")
        g, y, s = self.grid, self.values, self._slopes
        if isinstance(x, np.ndarray):
            g, y, s = np.asarray(g), np.asarray(y), np.asarray(s)
            i = np.clip(np.searchsorted(g, x, side="right") - 1, 0, len(g) - 2)
        else:
            i = min(max(bisect.bisect_right(g, x) - 1, 0), len(g) - 2)
        h = g[i + 1] - g[i]
        delta = (y[i + 1] - y[i]) / h
        e = (s[i] + s[i + 1] - 2.0 * delta) / h
        return x - g[i], y[i], s[i], (delta - s[i]) / h - e, e / h

    def __call__(self, x: float) -> float:
        t, y, s, c2, c3 = self._cubic(x)
        return y + s * t + c2 * (t * t) + c3 * (t * t * t)

    def derivative(self, x: float) -> float:
        t, _, s, c2, c3 = self._cubic(x)
        return s + 2.0 * c2 * t + 3.0 * c3 * (t * t)


POTENTIALS = {cls.kind: cls for cls in (Free, HarmonicOscillator, LinearRamp, Tabulated)}


def axis_potential(kind: str, params: dict, mass: float = 1.0) -> AxisPotential:
    """The axis potential of a kind from its constructor's fields, all but
    mass (which comes from the scenario); ValueError for any broken rule."""
    if kind not in POTENTIALS:
        raise ValueError(f"unknown potential kind {kind!r}")
    cls = POTENTIALS[kind]
    fields = [f.name for f in dataclasses.fields(cls) if f.init]
    names = [name for name in fields if name != "mass"]
    if set(params) != set(names):
        wanted = "exactly " + " and ".join(names) if names else "no parameters"
        raise ValueError(f"{kind} takes {wanted}")
    if "mass" in fields:
        params = {**params, "mass": mass}
    return cls(**params)


@dataclass(frozen=True)
class SeparablePotential:
    """Exactly three axis potentials, in (x, y, z) order."""

    x: AxisPotential
    y: AxisPotential
    z: AxisPotential

    @property
    def axes(self) -> tuple[AxisPotential, AxisPotential, AxisPotential]:
        return (self.x, self.y, self.z)

    def gradient(self, r) -> np.ndarray:
        return np.array([ax.derivative(float(c)) for ax, c in zip(self.axes, r)])

