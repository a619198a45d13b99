"""Separable 3D potentials: V(r) = Vx(x) + Vy(y) + Vz(z).

Separability is the structural choice that lets the field builder obtain
two independent real 3D Schrodinger solutions as products of 1D solutions,
so each axis carries its own one-dimensional potential. All objects here
are immutable and safe for concurrent evaluation. Every evaluation takes
a float or an array of coordinates and returns the same kind.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from .arrays import all_true, like, zeros_like
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


@dataclass(frozen=True)
class Tabulated(AxisPotential):
    """Cubic interpolation through (grid, values) nodes.

    Cubic order keeps the second derivative continuous, which the Numerov
    recurrence and the amplitude Hessian both need. Queries outside the
    grid raise OutOfDomain.
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]
    _spline: object = dc_field(init=False, repr=False, compare=False, default=None)
    _dspline: object = dc_field(init=False, repr=False, compare=False, default=None)

    kind = "tabulated"

    def __post_init__(self):
        # scipy is imported here, and only for a tabulated potential: its
        # import costs more than the rest of the package together
        from scipy.interpolate import CubicSpline

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

