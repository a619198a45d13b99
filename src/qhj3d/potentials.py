"""Separable 3D potentials: V(r) = Vx(x) + Vy(y) + Vz(z).

Separability is the structural choice that lets the field builder obtain
two independent real 3D Schrodinger solutions as products of 1D solutions,
so each axis carries its own one-dimensional potential. All objects here
are immutable and safe for concurrent evaluation. Every evaluation takes
a float or an array of coordinates and returns the same kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.interpolate import CubicSpline

from .arrays import all_true, as_coords, like, zeros_like
from .errors import OutOfDomain

AXES = ("x", "y", "z")

FULL_LINE = (-math.inf, math.inf)

EPS = float(np.finfo(float).eps)


class AxisPotential:
    """One-axis contribution to a separable potential."""

    kind: str = "base"

    @property
    def domain(self) -> tuple[float, float]:
        return FULL_LINE

    def contains(self, x):
        """Whether x lies in the domain, up to rounding at its edges."""
        lo, hi = self.domain
        eps = 4.0 * EPS * max(1.0, abs(lo), abs(hi))
        return (lo - eps <= x) & (x <= hi + eps)

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def derivative(self, x: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Free(AxisPotential):
    """V = 0."""

    kind = "free"

    def __call__(self, x: float) -> float:
        return zeros_like(x)

    def derivative(self, x: float) -> float:
        return zeros_like(x)


@dataclass(frozen=True)
class HarmonicOscillator(AxisPotential):
    """V = (1/2) m0 omega^2 x^2. The mass is the scenario mass m0."""

    omega: float
    mass: float = 1.0

    kind = "harmonic"

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if not self.mass > 0:
            raise ValueError("mass must be positive")

    def __call__(self, x: float) -> float:
        return 0.5 * self.mass * self.omega**2 * x * x

    def derivative(self, x: float) -> float:
        return self.mass * self.omega**2 * x


@dataclass(frozen=True)
class LinearRamp(AxisPotential):
    """V = slope * x."""

    slope: float

    kind = "linear"

    def __call__(self, x: float) -> float:
        return self.slope * x

    def derivative(self, x: float) -> float:
        return self.slope + zeros_like(x)


@dataclass(frozen=True)
class Tabulated(AxisPotential):
    """Cubic interpolation through (grid, values) nodes.

    Cubic order keeps the second derivative continuous, which the Numerov
    recurrence and the amplitude Hessian both need. Queries outside the
    grid raise OutOfDomain.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]
    _spline: CubicSpline = dc_field(init=False, repr=False, compare=False, default=None)
    _dspline: CubicSpline = dc_field(init=False, repr=False, compare=False, default=None)

    kind = "tabulated"

    def __post_init__(self):
        grid = tuple(float(g) for g in self.grid)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if len(grid) < 4:
            raise ValueError("tabulated potential needs at least 4 points")
        if len(grid) != len(values):
            raise ValueError("grid and values must have equal length")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("tabulated grid must be strictly ascending")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("tabulated values must be finite")
        spline = CubicSpline(grid, values)
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_dspline", spline.derivative())

    @property
    def domain(self) -> tuple[float, float]:
        return (self.grid[0], self.grid[-1])

    def _check(self, x) -> None:
        if not all_true(self.contains(x)):
            lo, hi = self.domain
            raise OutOfDomain(f"x={x} outside tabulated grid [{lo}, {hi}]")

    def __call__(self, x: float) -> float:
        self._check(x)
        return like(x, self._spline(x))

    def derivative(self, x: float) -> float:
        self._check(x)
        return like(x, self._dspline(x))


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


def evaluate(potential: SeparablePotential, r) -> tuple[float, tuple[float, float, float]]:
    """Total V(r) and the three per-axis contributions."""
    per_axis = tuple(ax(c) for ax, c in zip(potential.axes, as_coords(r)))
    return sum(per_axis), per_axis
