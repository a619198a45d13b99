"""Per-axis Schrodinger solution pairs and separable 3D solution fields.

Every axis contributes two independent real solutions of

    u'' = (2 m0 / hbar^2) (V_axis(x) - E_axis) u,

either from a small analytic catalog or from the Numerov recurrence, held
together in one AxisSolution. A 3D field is a pair of linear combinations
of per-axis product terms, all at the same per-axis energies, so every
term solves the 3D equation at E = sum(E_axis) and second derivatives are
exact via the ODE identity.

Every evaluation here is array-generic (see arrays.py): at a point it takes
and returns floats, and on arrays that broadcast together (one 1-D array
per axis for a grid) it evaluates each axis once on its own coordinates and
forms the 3D products by broadcasting.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .arrays import all_true, as_coords, sparse_grid
from .errors import (
    OK,
    OUT_OF_DOMAIN,
    DegenerateICs,
    InconsistentEnergy,
    OutOfDomain,
    Overflow,
    ProportionalSolutions,
    UnknownCatalogEntry,
)
from .potentials import AXES, FULL_LINE, AxisPotential, Free, SeparablePotential, _padded, check_finite

SELECTORS = ("u1", "u2")

# Independence / activity probe threshold, in scenario units.
PROBE_EPS = 1e-12

# Largest Numerov grid; a node costs a few hundred bytes of tables.
MAX_NUMEROV_STEPS = 1_000_000

# Numerov sweep guard on |u|; a larger value (or NaN) raises Overflow. The
# field multiplies three axis values and R^2 squares the product, so the
# guard keeps (1e50)^6 = 1e300 finite. Term coefficients and mixing
# constants share the bound, well below the 1e154 that overflows a square.
OVERFLOW_LIMIT = 1e50

# RK4 substeps per grid cell when seeding the anchor's neighbours.
RK4_SUBSTEPS = 32

# Points per axis of assemble_field's independence/activity probe grid.
PROBE_POINTS = 5


def _ode_scale(m0, hbar):
    """The prefactor 2 m0/hbar^2 of _ode_factor. An AxisSolutionPair keeps
    its own (ode_scale); the Numerov build computes it once per solve."""
    return 2.0 * m0 / hbar**2


def _ode_factor(v, e_axis, scale):
    """(2 m0/hbar^2)(v - E_axis) at the potential value v, given the
    prefactor scale = _ode_scale(m0, hbar): the u''/u factor that the field
    kernel and the Numerov recurrence both use. The product runs left to
    right as in 2.0 * m0 / hbar**2 * (v - E_axis), so a kept prefactor
    gives the same bits."""
    return scale * (v - e_axis)


def check_ode_scale(m0, hbar):
    """ValueError unless the prefactor 2 m0/hbar^2 (_ode_scale) is a
    finite normal float: neither it nor its reciprocal hbar^2/2 m0, which
    the quantum potential uses, may overflow or vanish."""
    try:
        scale = _ode_scale(m0, hbar)
    except ArithmeticError:  # hbar^2 overflowed, or underflowed to 0
        scale = math.nan
    if not (math.isfinite(scale) and scale >= sys.float_info.min):
        raise ValueError(f"2 m0 / hbar^2 must be finite and nonzero, got {scale!r} "
                         f"(m0 = {m0!r}, hbar = {hbar!r})")


@dataclass(frozen=True)
class AxisSolution:
    """Both real solutions of one axis and their slopes from one
    evaluation: jet(x) is ((u1, u2), (u1', u2')). value(x) is its first
    half and derivative(x) its second.

    Second derivatives are not stored: u'' = _ode_factor(V, E) * u, so they
    are exactly consistent with the equation the solutions satisfy -- never
    a double finite difference.
    """

    jet: Callable[[float], tuple]

    def value(self, x: float) -> tuple:
        return self.jet(x)[0]

    def derivative(self, x: float) -> tuple:
        return self.jet(x)[1]


@dataclass(frozen=True)
class AxisSolutionPair:
    """Two independent solutions (basis) at a common axis energy."""

    axis: str
    e_axis: float
    basis: AxisSolution
    potential: AxisPotential
    m0: float
    hbar: float
    domain: tuple[float, float]

    @cached_property
    def ode_scale(self) -> float:
        """2 m0/hbar^2, the prefactor of every _ode_factor on this axis."""
        return _ode_scale(self.m0, self.hbar)

    @cached_property
    def wronskian_ref(self) -> float:
        """The Wronskian at the left domain edge, or at 0 on an unbounded
        domain; its constancy over the domain certifies independence."""
        lo = self.domain[0]
        return wronskian(self, lo if math.isfinite(lo) else 0.0)

    def contains(self, x: float) -> bool:
        """Whether x lies in the axis domain and the potential's (padded)."""
        lo, hi = self._bounds
        return (lo <= x) & (x <= hi)

    @cached_property
    def _bounds(self) -> tuple[float, float]:
        """The intersection of the padded axis and potential domains."""
        (lo, hi), (p_lo, p_hi) = _padded(*self.domain), _padded(*self.potential.domain)
        return max(lo, p_lo), min(hi, p_hi)

    @cached_property
    def anchor(self) -> float:
        """A point of the domain, evaluated in place of coordinates outside it."""
        lo, hi = self.domain
        return min(max(0.0, lo), hi)

    def probe_interval(self) -> tuple[float, float]:
        """Bounded interval used for independence/activity probing."""
        lo, hi = self.domain
        if math.isfinite(lo) and math.isfinite(hi):
            inset = 0.05 * (hi - lo)
            return (lo + inset, hi - inset)
        return (-2.0, 2.0)


def wronskian(pair: AxisSolutionPair, x: float) -> float:
    """u1(x) u2'(x) - u2(x) u1'(x); constant over the domain in exact math."""
    if not all_true(pair.contains(x)):
        raise OutOfDomain(f"x={x} outside axis {pair.axis} domain {pair.domain}")
    (u1, u2), (d1, d2) = pair.basis.jet(x)
    return u1 * d2 - u2 * d1


# ---------------------------------------------------------------------------
# Analytic catalog
# ---------------------------------------------------------------------------

def _free_wave(params):
    k = check_finite(params["k"], "k")
    if k == 0.0:
        raise ValueError("k must be nonzero (use zero_energy_free)")
    return k, FULL_LINE


def _box_wave(params):
    length = check_finite(params["L"], "L")
    n = check_finite(params["n"], "n")
    if not length > 0:
        raise ValueError("L must be positive")
    if n != int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return int(n) * math.pi / length, (0.0, length)


# Entry -> (parameter names, checked (wavenumber k, domain) from the
# parameters). Every entry is free motion at E = (hbar k)^2 / 2 m0: free(k)
# with (u1, u2) = (sin kx, cos kx), box(L, n) = free(n pi / L) restricted to
# (0, L), and zero_energy_free (k = 0) with (1, x).
CATALOG = {
    "free": (("k",), _free_wave),
    "zero_energy_free": ((), lambda params: (0.0, FULL_LINE)),
    "box": (("L", "n"), _box_wave),
}


def _catalog_wave(kind, params):
    if kind not in CATALOG:
        raise UnknownCatalogEntry(f"no catalog entry named {kind!r}")
    return CATALOG[kind][1](dict(params or {}))


def catalog_energy(kind, params=None, e_axis=None, *, m0=1.0, hbar=1.0):
    """Axis energy of a catalog entry, after checking the entry, its
    parameters and, when given, agreement with a supplied e_axis.

    Raises UnknownCatalogEntry, ValueError for an invalid parameter or a
    non-finite energy, or InconsistentEnergy when e_axis conflicts."""
    k, _ = _catalog_wave(kind, params)
    try:
        expected = (hbar * k) ** 2 / (2.0 * m0)
    except OverflowError:
        expected = math.inf
    if not math.isfinite(expected):
        raise ValueError(f"{kind}: energy (hbar k)^2 / 2 m0 is not finite")
    if e_axis is not None and abs(e_axis - expected) > 1e-12 * max(1.0, abs(expected)):
        raise InconsistentEnergy(
            f"{kind}: E_axis={e_axis} conflicts with parameter value {expected}"
        )
    return expected


def solve_axis_analytic(kind, params=None, e_axis=None, *, m0=1.0, hbar=1.0, axis="x"):
    """Closed-form solution pair of a CATALOG entry."""
    energy = catalog_energy(kind, params, e_axis, m0=m0, hbar=hbar)
    k, domain = _catalog_wave(kind, params)
    # Each jet picks math or numpy once per call, from the type of k x.
    if k != 0.0:
        def jet(x):
            kx = k * x
            if isinstance(kx, np.ndarray):
                s, c = np.sin(kx), np.cos(kx)
            else:
                s, c = math.sin(kx), math.cos(kx)
            return (s, c), (k * c, -k * s)
    else:
        def jet(x):
            zero = 0.0 * abs(x)  # arrays.zeros_like(x)
            one = 1.0 + zero
            return (one, x), (zero, one)
    return AxisSolutionPair(axis=axis, e_axis=energy, basis=AxisSolution(jet), potential=Free(),
                            m0=m0, hbar=hbar, domain=domain)


# ---------------------------------------------------------------------------
# Numerov backend
# ---------------------------------------------------------------------------

class _QuinticTable:
    """Quintic Hermite interpolant of two stacked Numerov columns, with
    domain guard.

    On each cell [x_i, x_i + h] a column is sum_k c_k t^k in t = (x - x_i)/h,
    matching u, u' and u'' at both ends of the cell: the interpolant is C^2
    and satisfies the ODE at every node. The grid is uniform, so a point
    finds its cell without a search. jet(x) evaluates the two columns and
    their slopes from one cell lookup. ode_cache holds the table's ODE
    residual per cell once a pair has asked for it (_cell_ode_residuals).
    """

    def __init__(self, lo, hi, u, du, ddu):
        """u, du, ddu: u, u' and u'' of the two columns at the n + 1 uniform
        nodes spanning [lo, hi], each of shape (2, n + 1)."""
        self.lo, self.hi = float(lo), float(hi)
        self.h = h = (self.hi - self.lo) / (u.shape[1] - 1)
        self.bounds = _padded(self.lo, self.hi)  # what the lookups accept
        y0, y1 = u[:, :-1], u[:, 1:]
        d0, d1 = h * du[:, :-1], h * du[:, 1:]
        s0, s1 = h * h * ddu[:, :-1], h * h * ddu[:, 1:]
        # c3 + c4 + c5 = a, 3 c3 + 4 c4 + 5 c5 = b, 6 c3 + 12 c4 + 20 c5 = c
        a = y1 - y0 - d0 - 0.5 * s0
        b = d1 - d0 - s0
        c = s1 - s0
        # shape (column, power, cell): a gather over cells keeps each
        # coefficient of each column contiguous
        self.coef = np.stack((y0, d0, 0.5 * s0, 10.0 * a - 4.0 * b + 0.5 * c,
                              -15.0 * a + 7.0 * b - c, 6.0 * a - 3.0 * b + 0.5 * c), axis=1)
        self.coef.flags.writeable = False  # solves share tables (_SOLVED)
        self.ode_cache = None

    def _cell(self, x):
        """The two columns' coefficients of the cell holding x, indexed
        [column][power] (nested lists at a point), and t in that cell."""
        lo, hi = self.bounds
        point = not isinstance(x, np.ndarray)
        if not (lo <= x <= hi if point else ((lo <= x) & (x <= hi)).all()):
            raise OutOfDomain(f"x={x} outside Numerov table [{self.lo}, {self.hi}]")
        s = (x - self.lo) / self.h
        last = self.coef.shape[2] - 1
        if point:
            i = min(int(s), last)
            return self.coef[:, :, i].tolist(), s - i
        i = np.minimum(s.astype(np.intp), last)
        return np.take(self.coef, i, axis=2), s - i

    def jet(self, x):
        """((u1, u2), (u1', u2')) at x: each column sum_k c_k t^k and its
        slope, by Horner's rule on the cell's coefficients."""
        ((a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5)), t = self._cell(x)
        u1 = ((((a5 * t + a4) * t + a3) * t + a2) * t + a1) * t + a0
        u2 = ((((b5 * t + b4) * t + b3) * t + b2) * t + b1) * t + b0
        d1 = (((5.0 * a5 * t + 4.0 * a4) * t + 3.0 * a3) * t + 2.0 * a2) * t + a1
        d2 = (((5.0 * b5 * t + 4.0 * b4) * t + 3.0 * b3) * t + 2.0 * b2) * t + b1
        return (u1, u2), (d1 / self.h, d2 / self.h)


def _numerov_table(pair: AxisSolutionPair) -> _QuinticTable | None:
    """The table behind a Numerov pair's basis; None for any other jet, a
    catalog pair's plain function or a method of some other object."""
    table = getattr(pair.basis.jet, "__self__", None)
    return table if isinstance(table, _QuinticTable) else None


# Fractions of a cell at which _cell_ode_residuals probes a Numerov table:
# away from the nodes, where the table matches u'' = f u by construction.
ODE_PROBES = (0.25, 0.5, 0.75)


def _cell_ode_residuals(table: _QuinticTable, pair: AxisSolutionPair) -> np.ndarray:
    """One read-only float per cell of table: the largest
    |u'' - f u| / max(|f u|, 1) over both columns and the probes ODE_PROBES
    of the cell, with u and u'' from the cell's own quintic and f the
    factor that the field kernel forms for pair (_axis_eval), not the
    factor that built the table.

    The residual is relative where |f u| > 1, so that it does not grow with
    a solution that grows through a forbidden region, and absolute where
    f u vanishes, at turning points and nodes. A residual that overflows,
    as on a step so fine that h^2 underflows, reads inf or NaN.

    The table keeps the last result with the equation it answers
    (potential, e_axis, scale) in ode_cache, so the pairs that share a
    table (_SOLVED) compute it once, and only when something reads it."""
    equation = (pair.potential, pair.e_axis, pair.ode_scale)
    if table.ode_cache is not None and table.ode_cache[0] == equation:
        return table.ode_cache[1]
    c = table.coef  # (column, power, cell)
    cells = np.arange(c.shape[2])
    worst = np.zeros(c.shape[2])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in ODE_PROBES:
            u = ((((c[:, 5] * t + c[:, 4]) * t + c[:, 3]) * t + c[:, 2]) * t + c[:, 1]) * t + c[:, 0]
            upp = (((20.0 * c[:, 5] * t + 12.0 * c[:, 4]) * t + 6.0 * c[:, 3]) * t + 2.0 * c[:, 2]) / table.h**2
            x = table.lo + table.h * (cells + t)
            fu = _ode_factor(pair.potential(x), pair.e_axis, pair.ode_scale) * u
            worst = np.maximum(worst, np.max(np.abs(upp - fu) / np.maximum(np.abs(fu), 1.0), axis=0))
    worst.flags.writeable = False
    table.ode_cache = (equation, worst)
    return worst


def ode_residual(pair: AxisSolutionPair, lo: float, hi: float) -> tuple:
    """The pair's ODE residual over [lo, hi], inside its domain: the
    largest _cell_ode_residuals value of the cells that meet [lo, hi], and
    the midpoint of that cell. A catalog pair solves its equation in closed
    form and gives (0.0, None)."""
    table = _numerov_table(pair)
    if table is None:
        return 0.0, None
    residuals = _cell_ode_residuals(table, pair)
    first = min(int((lo - table.lo) / table.h), len(residuals) - 1)
    last = max(math.ceil((hi - table.lo) / table.h), first + 1)
    cells = residuals[first:last]
    i = int(np.argmax(cells))
    return float(cells[i]), table.lo + table.h * (first + i + 0.5)


def _rk4_segment(factor, x0, u, up, x1):
    """March (u, u') across one grid cell with RK4 substeps, where
    factor(x) is the u''/u factor.

    Only used to seed the neighbour of the anchor point; RK4_SUBSTEPS
    substeps make the seed error negligible against the Numerov truncation
    error.
    """
    h = (x1 - x0) / RK4_SUBSTEPS
    x = x0
    for _ in range(RK4_SUBSTEPS):
        k1u, k1p = up, factor(x) * u
        k2u = up + 0.5 * h * k1p
        k2p = factor(x + 0.5 * h) * (u + 0.5 * h * k1u)
        k3u = up + 0.5 * h * k2p
        k3p = factor(x + 0.5 * h) * (u + 0.5 * h * k2u)
        k4u = up + h * k3p
        k4p = factor(x + h) * (u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        up = up + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        x += h
    return u, up


def _numerov_fill(table, fvals, h, i0, axis):
    """Run the three-point recurrence outward from i0 in both directions,
    on both columns of the (2, n) table at once.

    Each column's entry i0 and its immediate neighbours present in the
    table must already be seeded. w = 1 - (h^2/12) f is the Numerov
    weight; the two columns share each step's p and w. The recurrence runs
    on Python lists, where one step costs less than numpy element access,
    and the table is written back once. The finished table is then checked
    in one vectorized pass: a value past OVERFLOW_LIMIT, or NaN after an
    overflow, raises Overflow.
    """
    n = table.shape[1]
    a, b = table.tolist()
    w = (1.0 - (h * h / 12.0) * fvals).tolist()
    p = (2.0 + (5.0 * h * h / 6.0) * fvals).tolist()
    for i in range(i0 + 1, n - 1):
        pi, wl, wr = p[i], w[i - 1], w[i + 1]
        a[i + 1] = (pi * a[i] - wl * a[i - 1]) / wr
        b[i + 1] = (pi * b[i] - wl * b[i - 1]) / wr
    for i in range(i0 - 1, 0, -1):
        pi, wl, wr = p[i], w[i - 1], w[i + 1]
        a[i - 1] = (pi * a[i] - wr * a[i + 1]) / wl
        b[i - 1] = (pi * b[i] - wr * b[i + 1]) / wl
    table[:] = (a, b)
    if not np.all(np.abs(table) <= OVERFLOW_LIMIT):
        raise Overflow(f"axis {axis}: |u| exceeded {OVERFLOW_LIMIT:g} during Numerov sweep")


def _five_point_derivative(u, h):
    """O(h^4) first derivative of the table, one-sided at the edges."""
    n = len(u)
    up = np.empty(n)
    up[2:-2] = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * h)
    up[0] = (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2] + 16.0 * u[3] - 3.0 * u[4]) / (12.0 * h)
    up[1] = (-3.0 * u[0] - 10.0 * u[1] + 18.0 * u[2] - 6.0 * u[3] + u[4]) / (12.0 * h)
    up[-2] = (3.0 * u[-1] + 10.0 * u[-2] - 18.0 * u[-3] + 6.0 * u[-4] - u[-5]) / (12.0 * h)
    up[-1] = (25.0 * u[-1] - 48.0 * u[-2] + 36.0 * u[-3] - 16.0 * u[-4] + 3.0 * u[-5]) / (12.0 * h)
    return up


def numerov_grid(e_axis, domain, step, ic1, ic2, ic_at=None):
    """The argument rules of solve_axis_numerov, checked without running it
    (ValueError, or DegenerateICs for parallel ICs). Returns x_lo, x_hi, the
    number of intervals, the anchor node index and the ICs as floats."""
    anchor = () if ic_at is None else (ic_at,)
    if not all(math.isfinite(v) for v in (e_axis, *domain, step, *ic1, *ic2, *anchor)):
        raise ValueError("e_axis, domain, step, ic1, ic2 and ic_at must be finite")
    x_lo, x_hi = float(domain[0]), float(domain[1])
    if not x_lo < x_hi:
        raise ValueError("domain needs lo < hi")
    if not step > 0.0:
        raise ValueError("step must be positive")
    steps = (x_hi - x_lo) / step
    if steps < 16:
        raise ValueError("domain must span at least 16 steps")
    if not steps <= MAX_NUMEROV_STEPS:
        raise ValueError(f"domain must span at most {MAX_NUMEROV_STEPS} steps")
    if ic_at is not None and not x_lo <= ic_at <= x_hi:
        raise ValueError("ic_at must lie inside the domain")
    (v1, s1), (v2, s2) = (float(ic1[0]), float(ic1[1])), (float(ic2[0]), float(ic2[1]))
    det = v1 * s2 - v2 * s1
    scale = max(abs(v1), abs(s1), 1.0) * max(abs(v2), abs(s2), 1.0)
    if abs(det) <= 1e-12 * scale:
        raise DegenerateICs("ic1 and ic2 are parallel as (value, slope) vectors")
    n_int = int(round(steps))
    i0 = 0 if ic_at is None else int(round((float(ic_at) - x_lo) / ((x_hi - x_lo) / n_int)))
    return x_lo, x_hi, n_int, i0, (v1, s1), (v2, s2)


def _numerov_solve(factor, x_lo, x_hi, n_int, i0, ics, axis) -> _QuinticTable:
    """The quintic table of the two solutions of u'' = factor(x) u whose
    (value, slope) pairs ics hold at node i0 of the n_int uniform intervals
    spanning [x_lo, x_hi]."""
    h = (x_hi - x_lo) / n_int
    xs = np.linspace(x_lo, x_hi, n_int + 1)
    tables = np.zeros((2, n_int + 1))
    # an overflow on the way to the table is caught by _numerov_fill's check
    with np.errstate(over="ignore", invalid="ignore"):
        fvals = factor(xs)
        for u, (value, slope) in zip(tables, ics):
            u[i0] = value
            if i0 + 1 <= n_int:
                u[i0 + 1], _ = _rk4_segment(factor, xs[i0], value, slope, xs[i0 + 1])
            if i0 - 1 >= 0:
                u[i0 - 1], _ = _rk4_segment(factor, xs[i0], value, slope, xs[i0 - 1])
        _numerov_fill(tables, fvals, h, i0, axis)
    du = np.array([_five_point_derivative(u, h) for u in tables])
    return _QuinticTable(x_lo, x_hi, tables, du, fvals * tables)


# Solved pairs, least recently used first, keyed by the repr of all that a
# solve reads: exact for floats (-0.0 included) and package potentials; an
# id-based repr's object stays alive in its entry, so its id is not reused.
# Three is one scenario's worth. A failed solve is not kept.
_SOLVED = {}


def solve_axis_numerov(axis_potential, e_axis, domain, step, ic1, ic2, *,
                       m0=1.0, hbar=1.0, axis="x", ic_at=None):
    """Numerov solution pair for u'' = (2 m0/hbar^2)(V - E_axis) u.

    ic1 and ic2 are (value, slope) pairs anchored at ic_at (default: the
    left edge). Anchoring at an interior point integrates outward in both
    directions, which is the stable way to follow a solution that decays
    into classically forbidden regions on either side.

    Each node carries u, u' from O(h^4) five-point stencils, and
    u'' = f u with the factor f the recurrence used; values and derivatives
    between the nodes come from one quintic Hermite table over the two
    solutions (_QuinticTable). Calls that read equal inputs share one
    solved pair, relabelled with their axis (_SOLVED).
    """
    x_lo, x_hi, n_int, i0, (v1, s1), (v2, s2) = numerov_grid(e_axis, domain, step, ic1, ic2, ic_at)
    key = repr((axis_potential, e_axis, x_lo, x_hi, n_int, i0, v1, s1, v2, s2, m0, hbar))
    pair = _SOLVED.pop(key, None)
    if pair is None:
        scale = _ode_scale(m0, hbar)
        factor = lambda x: _ode_factor(axis_potential(x), e_axis, scale)
        table = _numerov_solve(factor, x_lo, x_hi, n_int, i0, ((v1, s1), (v2, s2)), axis)
        pair = AxisSolutionPair(
            axis=axis, e_axis=float(e_axis), basis=AxisSolution(table.jet),
            potential=axis_potential, m0=m0, hbar=hbar, domain=(x_lo, x_hi),
        )
    _SOLVED[key] = pair
    if len(_SOLVED) > 3:
        del _SOLVED[next(iter(_SOLVED))]
    return replace(pair, axis=axis)


# ---------------------------------------------------------------------------
# 3D field assembly and evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionField3D:
    """theta(r), phi(r) as coefficient-weighted sums of product terms.

    Terms are (coefficient, (sel_x, sel_y, sel_z)) with sel in {u1, u2}.
    active_axes flags the axes along which the field actually varies; the
    flat axes carry no quantum correction and no motion.
    """

    pairs: tuple[AxisSolutionPair, AxisSolutionPair, AxisSolutionPair]
    theta_terms: tuple[tuple[float, tuple[str, str, str]], ...]
    phi_terms: tuple[tuple[float, tuple[str, str, str]], ...]
    e: float
    hbar: float
    m0: float
    active_axes: tuple[bool, bool, bool]

    @property
    def potential(self) -> SeparablePotential:
        return SeparablePotential(*(p.potential for p in self.pairs))

    @cached_property
    def _indexed_terms(self) -> tuple:
        """theta_terms and phi_terms with each selector mapped to its index
        in SELECTORS, which keys an axis's jets in _axis_eval's cache."""
        return _indexed(self.theta_terms), _indexed(self.phi_terms)

    @cached_property
    def _axes(self) -> tuple:
        """What _axis_eval reads of each pair, bound once (_bind_axes)."""
        return _bind_axes(self.pairs)


class FieldSample(NamedTuple):
    """Values, gradients and diagonal second partials of theta and phi, the
    potential V, and the status (OK or OUT_OF_DOMAIN).

    Per-axis quantities are (x, y, z) tuples. At a point every entry is a
    float; over arrays every entry has the broadcast shape, and points
    outside the domain hold the values at the axis anchors.

    An evaluation with hessian=True also holds, for theta and phi, the
    Hessian hessian[nu][mu] = d_nu d_mu, whose diagonal is the second
    partials; otherwise it is None.

    A read-only record that builds in a fraction of a frozen dataclass's
    time: the trajectory loop builds one per right-hand side.
    """

    theta: float
    phi: float
    grad_theta: tuple
    grad_phi: tuple
    second_theta: tuple
    second_phi: tuple
    v: float
    status: int
    hessian_theta: tuple | None = None
    hessian_phi: tuple | None = None


def normalize_terms(terms, which):
    """(coefficient, (sel_x, sel_y, sel_z)) tuples; ValueError for a
    coefficient that is not finite or exceeds OVERFLOW_LIMIT in magnitude,
    selectors other than three of SELECTORS, or an empty list."""
    out = []
    for entry in terms:
        coef = check_finite(entry[0], f"{which}: coefficient")
        if abs(coef) > OVERFLOW_LIMIT:
            raise ValueError(f"{which}: |coefficient| must be at most {OVERFLOW_LIMIT:g}, got {coef!r}")
        sels = tuple(entry[1])
        if len(sels) != 3 or any(s not in SELECTORS for s in sels):
            raise ValueError(f"{which}: selectors must be three of {SELECTORS}, got {sels}")
        out.append((coef, sels))
    if not out:
        raise ValueError(f"{which}: at least one product term required")
    return tuple(out)


def _indexed(terms) -> tuple:
    """terms with each selector replaced by its index in SELECTORS."""
    return tuple((coef, tuple(SELECTORS.index(sel) for sel in sels)) for coef, sels in terms)


def _bind_axes(pairs) -> tuple:
    """Per pair, what _axis_eval reads: the padded bounds (lo, hi) of
    AxisSolutionPair.contains, the anchor, the potential, E_axis, the
    ode_scale and the basis jet."""
    return tuple((*pair._bounds, pair.anchor, pair.potential, pair.e_axis, pair.ode_scale,
                  pair.basis.jet) for pair in pairs)


def _axis_eval(axes, coords):
    """Per-axis jets (u, u', u'') for u1 and u2, indexed 0 and 1 as in
    SELECTORS, the summed axis potentials, and whether every coordinate
    lies inside its axis domain; axes is _bind_axes of the pairs.

    Each axis is evaluated once on its own coordinate (a float, or an array
    for many points). A coordinate outside its domain is evaluated at the
    axis anchor instead, so one stray point never stops an array
    evaluation; the returned flag marks it. The domain test and the anchor
    are those of AxisSolutionPair.contains and np.where, taken as a plain
    conditional on a float.
    """
    cache = []
    v = 0.0
    inside = True
    for (lo, hi, anchor, potential, e_axis, scale, jet), x in zip(axes, coords):
        if isinstance(x, np.ndarray):
            ok = (lo <= x) & (x <= hi)
            x = np.where(ok, x, anchor)
        else:
            ok = lo <= x <= hi
            if not ok:
                x = anchor
        v_axis = potential(x)
        c = _ode_factor(v_axis, e_axis, scale)
        (u1, u2), (d1, d2) = jet(x)
        cache.append(((u1, d1, c * u1), (u2, d2, c * u2)))
        v = v + v_axis
        inside = inside & ok
    return cache, v, inside


def _out_of_domain(pairs, coords) -> OutOfDomain:
    """The OutOfDomain of a point whose coordinates coords (floats) are not
    all inside their axis domains, naming the first axis that fails."""
    pair, x = next((p, x) for p, x in zip(pairs, coords) if not p.contains(x))
    return OutOfDomain(f"axis {pair.axis}: {x} outside domain {pair.domain}")


def _combine(terms, cache, hessian=False):
    """Value, gradient and diagonal second partials of a sum of products,
    whose terms carry selector indices (_indexed); hessian=True adds the
    Hessian, indexed [nu][mu].

    Per-axis factors broadcast into the products. Sums start from +0.0 and
    run in term order, so a point and a grid entry take the same steps.
    """
    value = g0 = g1 = g2 = e0 = e1 = e2 = 0.0
    h01 = h02 = h12 = 0.0
    jets0, jets1, jets2 = cache
    for coef, (sel0, sel1, sel2) in terms:
        f0, f1, f2 = jets0[sel0], jets1[sel1], jets2[sel2]
        u0, u1, u2 = f0[0], f1[0], f2[0]
        d0, d1, d2 = f0[1], f1[1], f2[1]
        c0, c1 = coef * u0, coef * u1
        # o_mu: coef times the values of the two axes other than mu
        o0, o1, o2 = c1 * u2, c0 * u2, c0 * u1
        value = value + o2 * u2
        g0, g1, g2 = g0 + d0 * o0, g1 + d1 * o1, g2 + d2 * o2
        e0, e1, e2 = e0 + f0[2] * o0, e1 + f1[2] * o1, e2 + f2[2] * o2
        if hessian:
            c2 = coef * u2
            h01, h02, h12 = h01 + d0 * d1 * c2, h02 + d0 * d2 * c1, h12 + d1 * d2 * c0
    if not hessian:
        return value, (g0, g1, g2), (e0, e1, e2)
    return value, (g0, g1, g2), (e0, e1, e2), ((e0, h01, h02), (h01, e1, h12), (h02, h12, e2))


def evaluate_field(field: SolutionField3D, r, hessian=False) -> FieldSample:
    """theta and phi with exact second partials at r: a point, or three
    coordinate arrays that broadcast together (see arrays.sparse_grid).
    hessian=True adds their Hessians (see FieldSample).

    A point outside the domain raises OutOfDomain; over arrays such points
    are marked OUT_OF_DOMAIN in the status.
    """
    coords = as_coords(r)
    cache, v, inside = _axis_eval(field._axes, coords)
    if isinstance(inside, np.ndarray):
        status = np.where(inside, OK, OUT_OF_DOMAIN)
    elif inside:
        status = OK
    else:
        raise _out_of_domain(field.pairs, coords)
    theta_terms, phi_terms = field._indexed_terms
    theta, grad_t, sec_t, *hess_t = _combine(theta_terms, cache, hessian)
    phi, grad_p, sec_p, *hess_p = _combine(phi_terms, cache, hessian)
    return FieldSample(theta, phi, grad_t, grad_p, sec_t, sec_p, v, status, *hess_t, *hess_p)


def assemble_field(pairs: Sequence[AxisSolutionPair], theta_terms, phi_terms) -> SolutionField3D:
    """Build a 3D field and certify theta/phi independence on a probe grid.

    Raises ProportionalSolutions if max |phi grad(theta) - theta grad(phi)|
    over the probe grid stays below the independence threshold.
    """
    pairs = tuple(pairs)
    if len(pairs) != 3:
        raise ValueError("exactly three axis pairs required")
    for pair, label in zip(pairs, AXES):
        if pair.axis != label:
            raise ValueError(f"pairs must be in (x, y, z) order; got axis {pair.axis!r} in slot {label!r}")
    hbar, m0 = pairs[0].hbar, pairs[0].m0
    if any(pair.hbar != hbar or pair.m0 != m0 for pair in pairs[1:]):
        raise ValueError("all pairs must share hbar and m0")

    theta_terms = normalize_terms(theta_terms, "theta")
    phi_terms = normalize_terms(phi_terms, "phi")

    probe = sparse_grid([p.probe_interval() for p in pairs], (PROBE_POINTS,) * 3)
    cache, _, _ = _axis_eval(_bind_axes(pairs), probe)
    th, gt, _ = _combine(_indexed(theta_terms), cache)
    ph, gp, _ = _combine(_indexed(phi_terms), cache)
    gt, gp = np.array(gt), np.array(gp)
    max_cross = float(np.max(np.abs(ph * gt - th * gp)))
    max_grad = np.max(np.maximum(np.abs(gt), np.abs(gp)), axis=(1, 2, 3))
    if max_cross <= PROBE_EPS:
        raise ProportionalSolutions(
            f"theta and phi look proportional: max |phi grad(theta) - theta grad(phi)| = {max_cross:.3e}"
        )

    return SolutionField3D(
        pairs=pairs,
        theta_terms=theta_terms,
        phi_terms=phi_terms,
        e=sum(p.e_axis for p in pairs),
        hbar=hbar,
        m0=m0,
        active_axes=tuple(bool(g > PROBE_EPS) for g in max_grad),
    )
