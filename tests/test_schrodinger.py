import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhj3d import (
    DegenerateICs,
    InconsistentEnergy,
    OutOfDomain,
    Overflow,
    ProportionalSolutions,
    UnknownCatalogEntry,
    assemble_field,
    evaluate_field,
    solve_axis_analytic,
    solve_axis_numerov,
    wronskian,
)
from qhj3d.potentials import Free, HarmonicOscillator, LinearRamp
from qhj3d.schrodinger import MAX_NUMEROV_STEPS, _numerov_fill, _ode_factor, catalog_energy, numerov_grid

from conftest import make_field_2d, make_free_field, zero_pair


def second_derivatives(pair, x):
    """(u1'', u2'') as the field kernel forms them: the u''/u factor times u."""
    factor = _ode_factor(pair.potential(x), pair.e_axis, pair.m0, pair.hbar)
    u1, u2 = pair.basis.value(x)
    return factor * u1, factor * u2


# ---------------------------------------------------------------------------
# analytic catalog
# ---------------------------------------------------------------------------

def test_free_catalog_values():
    pair = solve_axis_analytic("free", {"k": 1.0})
    assert pair.e_axis == pytest.approx(0.5)
    u1, u2 = pair.basis.value(math.pi / 2)
    assert u1 == pytest.approx(1.0)
    assert u2 == pytest.approx(0.0, abs=1e-15)


def test_zero_energy_catalog():
    pair = solve_axis_analytic("zero_energy_free")
    assert pair.basis.value(3.7) == (1.0, 3.7)
    assert pair.basis.derivative(-1.0)[1] == 1.0
    assert second_derivatives(pair, 5.0)[1] == 0.0
    assert pair.wronskian_ref == 1.0


def test_free_k2_energy():
    pair = solve_axis_analytic("free", {"k": 2.0})
    assert pair.e_axis == pytest.approx(2.0)


def test_box_catalog():
    pair = solve_axis_analytic("box", {"L": 3.0, "n": 2})
    k = 2 * math.pi / 3
    assert pair.e_axis == pytest.approx(k * k / 2)
    assert pair.domain == (0.0, 3.0)
    assert pair.basis.value(1.0)[0] == pytest.approx(math.sin(k))


def test_unknown_catalog_entry():
    with pytest.raises(UnknownCatalogEntry):
        solve_axis_analytic("morse", {"d": 1.0})


@pytest.mark.parametrize("kind, params", [
    ("free", {"k": 0.0}),
    ("free", {"k": math.nan}),
    ("free", {"k": 1e300}),
    ("box", {"L": 3.0, "n": 2.5}),
    ("box", {"L": 3.0, "n": 0}),
    ("box", {"L": -1.0, "n": 1}),
    ("box", {"L": math.inf, "n": 1}),
])
def test_catalog_rejects_parameters(kind, params):
    with pytest.raises(ValueError):
        catalog_energy(kind, params)
    with pytest.raises(ValueError):
        solve_axis_analytic(kind, params)


def test_catalog_energy_is_the_pair_energy():
    for kind, params in (("free", {"k": 1.3}), ("zero_energy_free", {}), ("box", {"L": 3.0, "n": 2})):
        pair = solve_axis_analytic(kind, params, m0=1.7, hbar=0.9)
        assert catalog_energy(kind, params, m0=1.7, hbar=0.9) == pair.e_axis


def test_inconsistent_energy():
    with pytest.raises(InconsistentEnergy):
        solve_axis_analytic("free", {"k": 1.0}, e_axis=0.7)
    with pytest.raises(InconsistentEnergy):
        solve_axis_analytic("zero_energy_free", e_axis=0.1)


# ---------------------------------------------------------------------------
# Wronskian
# ---------------------------------------------------------------------------

@given(x=st.floats(min_value=-20, max_value=20), k=st.floats(min_value=0.1, max_value=5))
def test_wronskian_free_is_minus_k(x, k):
    pair = solve_axis_analytic("free", {"k": k})
    assert wronskian(pair, x) == pytest.approx(-k, rel=1e-12)


@given(x=st.floats(min_value=-20, max_value=20))
def test_wronskian_zero_energy_is_one(x):
    pair = solve_axis_analytic("zero_energy_free")
    assert wronskian(pair, x) == pytest.approx(1.0, rel=1e-15)


def test_wronskian_out_of_domain():
    pair = solve_axis_analytic("box", {"L": 3.0, "n": 1})
    with pytest.raises(OutOfDomain):
        wronskian(pair, 4.0)


# ---------------------------------------------------------------------------
# Numerov backend
# ---------------------------------------------------------------------------

def test_numerov_free_matches_trig(numerov_free_pair):
    pair = numerov_free_pair
    u1, u2 = pair.basis.value(1.0)
    assert abs(u1 - math.cos(1.0)) < 1e-8
    assert abs(u2 - math.sin(1.0)) < 1e-8
    xs = np.linspace(0.0, 10.0, 487)  # deliberately off-grid points
    assert max(abs(pair.basis.value(x)[0] - math.cos(x)) for x in xs) < 1e-8
    assert max(abs(pair.basis.value(x)[1] - math.sin(x)) for x in xs) < 1e-8


def test_numerov_wronskian_drift(numerov_free_pair):
    pair = numerov_free_pair
    ref = pair.wronskian_ref
    assert ref == pytest.approx(1.0, abs=1e-10)
    drift = max(abs(wronskian(pair, x) - ref) for x in np.linspace(0, 10, 331))
    assert drift / abs(ref) < 1e-9


def test_numerov_wronskian_constant_at_specific_point(numerov_free_pair):
    pair = numerov_free_pair
    assert wronskian(pair, 7.0) == pytest.approx(wronskian(pair, 0.0), abs=1e-9)


def test_numerov_harmonic_ground_state(harmonic_pairs):
    """Center-anchored even solution tracks exp(-x^2/2) through the well."""
    basis = harmonic_pairs[0].basis
    worst = max(abs(basis.value(x)[0] / math.exp(-x * x / 2) - 1.0)
                for x in np.linspace(-3, 3, 601))
    assert worst < 1e-6


def test_numerov_ode_residual_by_finite_differences(numerov_free_pair, harmonic_pairs):
    """Table second differences agree with the ODE right-hand side.

    Fourth-order stencil so the oracle's truncation error sits well below
    the bound even in the steep forbidden-region tails."""
    h = 1e-3
    for pair, xs in ((numerov_free_pair, np.linspace(0.5, 9.5, 41)),
                     (harmonic_pairs[0], np.linspace(-3.5, 3.5, 41))):
        u = lambda x, j: pair.basis.value(x)[j]
        for j in (0, 1):
            for x in xs:
                fd = (-u(x + 2 * h, j) + 16 * u(x + h, j) - 30 * u(x, j)
                      + 16 * u(x - h, j) - u(x - 2 * h, j)) / (12 * h**2)
                assert abs(fd - second_derivatives(pair, x)[j]) < 1e-6 * max(1.0, abs(u(x, j)))


def test_catalog_ode_residual_exact():
    pair = solve_axis_analytic("free", {"k": 2.0})
    for x in np.linspace(-3, 3, 25):
        assert abs(second_derivatives(pair, x)[0] + 4.0 * pair.basis.value(x)[0]) < 1e-12


def test_numerov_degenerate_ics():
    with pytest.raises(DegenerateICs):
        solve_axis_numerov(Free(), 0.5, (0.0, 10.0), 1e-3, (1.0, 1.0), (2.0, 2.0))


def test_numerov_grid_checks_arguments():
    assert numerov_grid(0.5, (-4.0, 4.0), 1e-3, (1.0, 0.0), (0.0, 1.0), 0.0) == \
        (-4.0, 4.0, 8000, 4000, (1.0, 0.0), (0.0, 1.0))
    good = dict(e_axis=0.5, domain=(-4.0, 4.0), step=1e-3, ic1=(1.0, 0.0), ic2=(0.0, 1.0), ic_at=0.0)
    for change in ({"e_axis": math.nan}, {"domain": (-math.inf, 4.0)}, {"domain": (4.0, -4.0)},
                   {"step": 0.0}, {"step": 1.0}, {"step": 8.0 / (2 * MAX_NUMEROV_STEPS)},
                   {"ic1": (math.nan, 0.0)}, {"ic_at": 5.0}):
        with pytest.raises(ValueError):
            numerov_grid(**{**good, **change})
    with pytest.raises(DegenerateICs):
        numerov_grid(**{**good, "ic2": (2.0, 0.0)})


def test_numerov_overflow_to_nan_raises_overflow():
    """A huge energy drives the seed and the sweep through inf to NaN, which
    is an overflow too rather than a table the splines refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Overflow):
            solve_axis_numerov(Free(), 1e100, (0.0, 1.0), 0.01, (1.0, 0.0), (0.0, 1.0))


def test_numerov_overflow_in_forbidden_region():
    ho = HarmonicOscillator(omega=1.0, mass=1.0)
    with pytest.raises(Overflow):
        solve_axis_numerov(ho, 0.0, (0.0, 60.0), 1e-2, (1.0, 1.0), (1.0, -1.0))


def test_numerov_out_of_domain(numerov_free_pair):
    with pytest.raises(OutOfDomain):
        numerov_free_pair.basis.value(10.5)


def test_numerov_fill_matches_elementwise_recurrence():
    """The list-based sweep takes the same steps as the recurrence written
    on numpy elements, so the tables agree bit for bit."""
    rng = np.random.default_rng(7)
    n, h, i0 = 200, 1e-2, 60
    fvals = rng.uniform(-3.0, 3.0, n)
    table = np.zeros(n)
    table[i0 - 1:i0 + 2] = rng.uniform(-1.0, 1.0, 3)
    ref = table.copy()
    w = 1.0 - (h * h / 12.0) * fvals
    p = 2.0 + (5.0 * h * h / 6.0) * fvals
    for i in range(i0 + 1, n - 1):
        ref[i + 1] = (p[i] * ref[i] - w[i - 1] * ref[i - 1]) / w[i + 1]
    for i in range(i0 - 1, 0, -1):
        ref[i - 1] = (p[i] * ref[i] - w[i + 1] * ref[i + 1]) / w[i - 1]
    _numerov_fill(table, fvals, h, i0, "x")
    assert np.array_equal(table, ref)


def test_numerov_step_validation():
    with pytest.raises(ValueError):
        solve_axis_numerov(Free(), 0.5, (0.0, 1.0), 0.1, (1.0, 0.0), (0.0, 1.0))


def test_numerov_linear_ramp_against_dense_reference():
    """Independent check on a non-catalog potential: compare two step sizes."""
    ramp = LinearRamp(slope=1.0)
    coarse = solve_axis_numerov(ramp, 1.0, (0.0, 2.0), 1e-3, (1.0, 0.0), (0.0, 1.0))
    fine = solve_axis_numerov(ramp, 1.0, (0.0, 2.0), 2.5e-4, (1.0, 0.0), (0.0, 1.0))
    for x in np.linspace(0.1, 1.9, 19):
        assert coarse.basis.value(x)[0] == pytest.approx(fine.basis.value(x)[0], abs=1e-10)


# ---------------------------------------------------------------------------
# field assembly / evaluation
# ---------------------------------------------------------------------------

def test_assemble_1d_embedded():
    field = make_free_field()
    assert field.e == pytest.approx(0.5)
    assert field.active_axes == (True, False, False)


def test_assemble_2d_field():
    field = make_field_2d()
    assert field.e == pytest.approx(1.0)
    assert field.active_axes == (True, True, False)


def test_assemble_rejects_proportional():
    pairs = [solve_axis_analytic("free", {"k": 1.0}, axis="x"), zero_pair("y"), zero_pair("z")]
    with pytest.raises(ProportionalSolutions):
        assemble_field(pairs,
                       [(1.0, ("u1", "u1", "u1"))],
                       [(2.0, ("u1", "u1", "u1"))])


def test_evaluate_field_trig_derivatives(free_field):
    fs = evaluate_field(free_field, (0.0, 5.0, -2.0))
    assert fs.theta == pytest.approx(0.0, abs=1e-15)
    assert fs.phi == pytest.approx(1.0)
    assert fs.grad_theta == pytest.approx([1.0, 0.0, 0.0])
    assert fs.grad_phi == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    assert fs.second_theta == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    assert fs.second_phi == pytest.approx([-1.0, 0.0, 0.0])


def test_evaluate_field_at_quarter_period(free_field):
    fs = evaluate_field(free_field, (math.pi / 2, 0.0, 0.0))
    assert fs.theta == pytest.approx(1.0)
    assert fs.phi == pytest.approx(0.0, abs=1e-15)
    assert fs.second_theta == pytest.approx([-1.0, 0.0, 0.0])


def test_evaluate_field_2d_gradient_vanishes_on_crest(field_2d):
    fs = evaluate_field(field_2d, (math.pi / 4, math.pi / 4, 0.0))
    assert fs.theta == pytest.approx(1.0)
    assert fs.grad_theta == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


@settings(max_examples=40)
@given(x=st.floats(-2.5, 2.5), y=st.floats(-2.5, 2.5), z=st.floats(-2.5, 2.5))
def test_field_gradients_match_finite_differences(x, y, z):
    field = make_field_2d()
    r = np.array([x, y, z])
    fs = evaluate_field(field, r)
    h = 1e-5
    for mu in range(3):
        shift = np.zeros(3)
        shift[mu] = h
        fd = (evaluate_field(field, r + shift).theta - evaluate_field(field, r - shift).theta) / (2 * h)
        assert fs.grad_theta[mu] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_field_second_partials_satisfy_ode_identity(field_2d):
    """Per-term second partials come from u'' = (2m/hbar^2)(V-E)u, so theta
    itself must satisfy the 3D equation: -(1/2) Lap theta = E theta here."""
    for r in ((0.3, 0.7, 0.2), (-1.1, 0.4, 0.0)):
        fs = evaluate_field(field_2d, r)
        lap = float(np.sum(fs.second_theta))
        assert -0.5 * lap == pytest.approx(field_2d.e * fs.theta, rel=1e-12, abs=1e-12)


def test_out_of_domain_field(box_field):
    with pytest.raises(OutOfDomain):
        evaluate_field(box_field, (3.5, 0.0, 0.0))
