import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhj3d import OutOfDomain
from qhj3d.potentials import (
    Free,
    HarmonicOscillator,
    LinearRamp,
    SeparablePotential,
    Tabulated,
    axis_potential,
)

coords = st.floats(min_value=-50, max_value=50, allow_nan=False)


def per_axis_values(pot, r):
    """The three axis potentials of pot, each at its coordinate of r."""
    return tuple(ax(float(c)) for ax, c in zip(pot.axes, r))


def test_all_free_is_zero():
    pot = SeparablePotential(Free(), Free(), Free())
    per_axis = per_axis_values(pot, (3.0, -1.0, 2.0))
    assert sum(per_axis) == 0.0
    assert per_axis == (0.0, 0.0, 0.0)


def test_harmonic_axis_value():
    pot = SeparablePotential(HarmonicOscillator(omega=1.0, mass=1.0), Free(), Free())
    per_axis = per_axis_values(pot, (2.0, 0.0, 0.0))
    assert sum(per_axis) == pytest.approx(2.0)
    assert per_axis[0] == pytest.approx(2.0)
    assert per_axis[1:] == (0.0, 0.0)


def test_linear_ramp_value():
    pot = SeparablePotential(LinearRamp(slope=3.0), Free(), Free())
    per_axis = per_axis_values(pot, (1.5, 7.0, -7.0))
    assert sum(per_axis) == pytest.approx(4.5)
    assert per_axis == (pytest.approx(4.5), 0.0, 0.0)


def test_tabulated_reproduces_nodes_exactly():
    grid = (0.0, 0.5, 1.0, 2.0, 3.5)
    values = (0.0, 0.3, 1.0, 4.0, 12.25)
    tab = Tabulated(grid, values)
    for g, v in zip(grid, values):
        assert tab(g) == pytest.approx(v, abs=1e-14)


def test_tabulated_out_of_domain():
    tab = Tabulated((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 4.0, 9.0))
    with pytest.raises(OutOfDomain):
        tab(3.5)
    with pytest.raises(OutOfDomain):
        tab(-0.1)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        Tabulated((0.0, 1.0, 0.5, 2.0), (0.0, 0.0, 0.0, 0.0))  # not ascending
    with pytest.raises(ValueError):
        Tabulated((0.0, 1.0, 2.0), (0.0, 0.0, 0.0))  # too few points
    with pytest.raises(ValueError):
        Tabulated((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, math.inf, 9.0))


def test_harmonic_validation():
    with pytest.raises(ValueError):
        HarmonicOscillator(omega=0.0, mass=1.0)
    with pytest.raises(ValueError):
        HarmonicOscillator(omega=-2.0, mass=1.0)


@given(x=coords, y=coords, z=coords, xp=coords)
def test_separability(x, y, z, xp):
    """Changing one coordinate changes the total by that axis's share only."""
    pot = SeparablePotential(HarmonicOscillator(omega=2.0, mass=1.5),
                             LinearRamp(slope=-1.0), Free())
    p1 = per_axis_values(pot, (x, y, z))
    p2 = per_axis_values(pot, (xp, y, z))
    assert sum(p1) - sum(p2) == pytest.approx(p1[0] - p2[0], rel=1e-12, abs=1e-9)
    assert p1[1] == p2[1] and p1[2] == p2[2]


def test_gradient_matches_finite_differences():
    pot = SeparablePotential(HarmonicOscillator(omega=1.3, mass=2.0),
                             LinearRamp(slope=0.7),
                             Tabulated((-2.0, -1.0, 0.0, 1.0, 2.0), (4.0, 1.0, 0.0, 1.0, 4.0)))
    r = np.array([0.4, -1.1, 0.3])
    grad = pot.gradient(r)
    h = 1e-6
    for mu in range(3):
        shift = np.zeros(3)
        shift[mu] = h
        fd = (sum(per_axis_values(pot, r + shift)) - sum(per_axis_values(pot, r - shift))) / (2 * h)
        assert grad[mu] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_axis_potentials_are_array_generic():
    """An array of coordinates gives the values of the single points, and a
    single point gives a float."""
    xs = np.linspace(-2.0, 2.0, 41)
    pots = (Free(), HarmonicOscillator(omega=1.3, mass=2.0), LinearRamp(slope=0.7),
            Tabulated((-2.0, -1.0, 0.0, 1.0, 2.0), (4.0, 1.0, 0.0, 1.0, 4.0)))
    for pot in pots:
        for f in (pot, pot.derivative):
            values = f(xs)
            assert values.shape == xs.shape
            assert np.array_equal(values, [f(float(x)) for x in xs])
            assert type(f(0.5)) is float
    with pytest.raises(OutOfDomain):
        pots[-1](np.array([0.0, 2.5]))


def test_axis_potential_by_kind():
    assert axis_potential("free", {}) == Free()
    assert axis_potential("harmonic", {"omega": 2.0}, mass=3.0) == HarmonicOscillator(omega=2.0, mass=3.0)
    assert axis_potential("linear", {"slope": -0.5}) == LinearRamp(slope=-0.5)
    tab = axis_potential("tabulated", {"grid": (0.0, 1.0, 2.0, 3.0), "values": (0.0, 1.0, 4.0, 9.0)})
    assert tab.domain == (0.0, 3.0)


@pytest.mark.parametrize("kind, params", [
    ("morse", {}),
    ("free", {"k": 1.0}),
    ("harmonic", {}),
    ("harmonic", {"omega": 1.0, "slope": 1.0}),
    ("harmonic", {"omega": math.inf}),
    ("harmonic", {"omega": (1.0, 2.0)}),
    ("linear", {"slope": math.nan}),
    ("tabulated", {"grid": (0.0, 1.0, math.nan, 3.0), "values": (0.0, 0.0, 0.0, 0.0)}),
    ("tabulated", {"grid": 1.0, "values": 1.0}),
])
def test_axis_potential_rejects(kind, params):
    with pytest.raises(ValueError):
        axis_potential(kind, params)
