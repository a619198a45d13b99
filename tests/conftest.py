import json

import pytest

from qhj3d import (
    ReducedActionField,
    assemble_field,
    solve_axis_analytic,
    solve_axis_numerov,
)
from qhj3d.potentials import HarmonicOscillator


def strict_json(text):
    """text parsed as JSON; AssertionError on NaN, Infinity or -Infinity."""
    def reject(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def zero_pair(axis):
    return solve_axis_analytic("zero_energy_free", axis=axis)


def make_free_field(k=1.0):
    """theta = sin(kx), phi = cos(kx), embedded along x. E = k^2/2."""
    return assemble_field(
        [solve_axis_analytic("free", {"k": k}, axis="x"), zero_pair("y"), zero_pair("z")],
        [(1.0, ("u1", "u1", "u1"))],
        [(1.0, ("u2", "u1", "u1"))],
    )


def make_field_2d():
    """theta = sin(x+y), phi = cos(x) cos(y). E = 1."""
    return assemble_field(
        [solve_axis_analytic("free", {"k": 1.0}, axis="x"),
         solve_axis_analytic("free", {"k": 1.0}, axis="y"),
         zero_pair("z")],
        [(1.0, ("u1", "u2", "u1")), (1.0, ("u2", "u1", "u1"))],
        [(1.0, ("u2", "u2", "u1"))],
    )


def make_box_field(length=3.0, n=2):
    return assemble_field(
        [solve_axis_analytic("box", {"L": length, "n": n}, axis="x"),
         zero_pair("y"), zero_pair("z")],
        [(1.0, ("u1", "u1", "u1"))],
        [(1.0, ("u2", "u1", "u1"))],
    )


@pytest.fixture(scope="session")
def free_field():
    return make_free_field()


@pytest.fixture(scope="session")
def field_2d():
    return make_field_2d()


@pytest.fixture(scope="session")
def box_field():
    return make_box_field()


@pytest.fixture(scope="session")
def free_action_a1(free_field):
    return ReducedActionField(free_field, 1.0, 0.0)


@pytest.fixture(scope="session")
def free_action_a2(free_field):
    return ReducedActionField(free_field, 2.0, 0.0)


@pytest.fixture(scope="session")
def numerov_free_pair():
    """V = 0, E = 0.5 on [0, 10]: u1 = cos, u2 = sin."""
    from qhj3d.potentials import Free
    return solve_axis_numerov(Free(), 0.5, (0.0, 10.0), 1e-3, (1.0, 0.0), (0.0, 1.0), axis="x")


@pytest.fixture(scope="session")
def harmonic_pairs():
    ho = HarmonicOscillator(omega=1.0, mass=1.0)
    return [
        solve_axis_numerov(ho, 0.5, (-4.0, 4.0), 1e-3, (1.0, 0.0), (0.0, 1.0),
                           axis=ax, ic_at=0.0)
        for ax in "xyz"
    ]


@pytest.fixture(scope="session")
def harmonic_field(harmonic_pairs):
    return assemble_field(harmonic_pairs,
                          [(1.0, ("u1", "u1", "u1"))],
                          [(1.0, ("u2", "u2", "u2"))])


@pytest.fixture(scope="session")
def harmonic_action(harmonic_field):
    return ReducedActionField(harmonic_field, 1.5, 0.5)
