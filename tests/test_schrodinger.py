import inspect
import math
from dataclasses import replace
from pathlib import Path

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
from qhj3d.arrays import zeros_like
from qhj3d.errors import OK, OUT_OF_DOMAIN
from qhj3d.potentials import Free, HarmonicOscillator, LinearRamp, Tabulated, _padded
from qhj3d.scenario import NumerovSpec, build_field, parse_scenario
from qhj3d.schrodinger import (
    MAX_NUMEROV_STEPS,
    OVERFLOW_LIMIT,
    AxisSolution,
    _catalog_wave,
    _numerov_fill,
    _numerov_table,
    _ode_factor,
    _QuinticTable,
    catalog_energy,
    numerov_grid,
)

from conftest import make_field_2d, make_free_field, zero_pair

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def second_derivatives(pair, x):
    """(u1'', u2'') as the field kernel forms them: the u''/u factor times u."""
    factor = _ode_factor(pair.potential(x), pair.e_axis, pair.ode_scale)
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
    is an overflow too rather than a table the interpolant would carry."""
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


def _elementwise_recurrence(column, fvals, h, i0):
    """The Numerov recurrence on numpy elements, one column at a time."""
    ref = column.copy()
    w = 1.0 - (h * h / 12.0) * fvals
    p = 2.0 + (5.0 * h * h / 6.0) * fvals
    for i in range(i0 + 1, len(ref) - 1):
        ref[i + 1] = (p[i] * ref[i] - w[i - 1] * ref[i - 1]) / w[i + 1]
    for i in range(i0 - 1, 0, -1):
        ref[i - 1] = (p[i] * ref[i] - w[i + 1] * ref[i + 1]) / w[i - 1]
    return ref


def test_numerov_fill_matches_elementwise_recurrence():
    """The two-column list sweep takes, in each column, the same steps as
    the recurrence written on numpy elements, so the tables agree bit for
    bit."""
    rng = np.random.default_rng(7)
    n, h, i0 = 200, 1e-2, 60
    fvals = rng.uniform(-3.0, 3.0, n)
    table = np.zeros((2, n))
    table[0, i0 - 1:i0 + 2] = rng.uniform(-1.0, 1.0, 3)
    table[1, i0 - 1:i0 + 2] = rng.uniform(-5.0, 5.0, 3)
    refs = [_elementwise_recurrence(column, fvals, h, i0) for column in table]
    _numerov_fill(table, fvals, h, i0, "x")
    assert not np.array_equal(table[0], table[1])
    for column, ref in zip(table, refs):
        assert np.array_equal(column, ref)


def test_numerov_fill_overflow_in_one_column_names_axis():
    """One column growing past OVERFLOW_LIMIT fails the whole table, even
    while the other stays small."""
    n, h, i0 = 200, 1e-2, 100
    fvals = np.full(n, 4.0)  # growth e^{2|x|} on either side of i0
    table = np.zeros((2, n))
    table[0, i0 - 1:i0 + 2] = (1.0, 1.0, 1.0)
    table[1, i0 - 1:i0 + 2] = (OVERFLOW_LIMIT / 2.0,) * 3
    small = table.copy()
    small[1] = small[0]
    _numerov_fill(small, fvals, h, i0, "y")
    assert np.max(np.abs(small)) < 100.0
    with pytest.raises(Overflow, match="axis y"):
        _numerov_fill(table, fvals, h, i0, "y")


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
# Numerov interpolant: one quintic Hermite table per axis
# ---------------------------------------------------------------------------

def table_second_derivative(table, x):
    """(u1'', u2'') of the interpolant itself, from its coefficients."""
    (c1, c2), t = table._cell(x)
    d2 = lambda c: ((20.0 * c[5] * t + 12.0 * c[4]) * t + 6.0 * c[3]) * t + 2.0 * c[2]
    return d2(c1) / table.h**2, d2(c2) / table.h**2


def test_quintic_table_matches_its_nodes():
    """Arbitrary node data on a coarse grid (h = 0.1), so that every
    coefficient of the cell polynomials is of the size of the data. A node
    may land at t = 1 - 1e-15 of the cell before it, and the k-th
    derivative divides that rounding by h^k."""
    rng = np.random.default_rng(5)
    u, du, ddu = rng.normal(size=(3, 2, 41))
    table = _QuinticTable(-1.0, 3.0, u, du, ddu)
    nodes = np.linspace(-1.0, 3.0, 41)
    value, derivative = table.jet(nodes)
    for order, (got, want) in enumerate(((value, u), (derivative, du),
                                         (table_second_derivative(table, nodes), ddu))):
        assert np.max(np.abs(np.array(got) - want)) < 1e-12 / table.h**order


def test_numerov_table_reproduces_the_ode_at_nodes(harmonic_pairs):
    """At every node the interpolant's own u'' is f u to rounding, and its
    u' agrees with the five-point derivative of its node values."""
    pair = harmonic_pairs[0]
    table = _numerov_table(pair)
    nodes = table.lo + table.h * np.arange(table.coef.shape[2] + 1)
    u = np.array(pair.basis.value(nodes))
    fu = _ode_factor(pair.potential(nodes), pair.e_axis, pair.ode_scale) * u
    assert np.max(np.abs(np.array(table_second_derivative(table, nodes)) - fu)) < 1e-14 * np.max(np.abs(fu))
    h = table.h
    five_point = (-u[:, 4:] + 8.0 * u[:, 3:-1] - 8.0 * u[:, 1:-3] + u[:, :-4]) / (12.0 * h)
    du = np.array(pair.basis.derivative(nodes))[:, 2:-2]
    assert np.max(np.abs(du - five_point)) < 1e-12 * np.max(np.abs(u))


def test_numerov_table_is_c2_across_cell_edges(harmonic_pairs):
    """The end of each cell polynomial (t = 1) meets the start of the next
    (t = 0) in value, first and second t-derivative, up to the rounding of
    the sums that form them."""
    coef = _numerov_table(harmonic_pairs[0]).coef  # (column, power, cell)
    c, k = np.moveaxis(coef, 1, -1), np.arange(6)  # (column, cell, power)
    for weight in (np.ones(6), k, k * (k - 1)):
        left, right = (weight * c[:, :-1]).sum(-1), (weight * c[:, 1:])[..., np.argmax(weight > 0)]
        rounding = 8.0 * np.finfo(float).eps * ((weight * np.abs(c[:, :-1])).sum(-1) + np.abs(right))
        assert np.all(np.abs(left - right) <= rounding)


def test_numerov_interpolant_ode_residual_mid_cell(harmonic_pairs):
    """Between the nodes the interpolant's own u'' - f u measures the
    solution, not the algebra: on the harmonic axis it reads 5.0e-7 of
    max |u| (worst at the table edges, where the derivative stencils are
    one-sided; 1.8e-7 absolute inside |x| < 3.9)."""
    pair = harmonic_pairs[0]
    table = _numerov_table(pair)
    mids = table.lo + table.h * (np.arange(table.coef.shape[2]) + 0.5)
    u = np.array(pair.basis.value(mids))
    f = _ode_factor(pair.potential(mids), pair.e_axis, pair.ode_scale)
    residual = np.abs(np.array(table_second_derivative(table, mids)) - f * u)
    assert np.max(residual) < 1e-6 * np.max(np.abs(u))
    assert np.max(residual[:, np.abs(mids) < 3.9]) < 1e-6


def test_numerov_table_ends(harmonic_pairs):
    basis = harmonic_pairs[0].basis
    table = _numerov_table(harmonic_pairs[0])
    lo, hi = table.bounds
    for x in (lo, table.lo, table.hi, hi):
        assert all(math.isfinite(v) for v in (*basis.value(x), *basis.derivative(x)))
    for x in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), np.array([0.0, table.hi + 1e-3])):
        with pytest.raises(OutOfDomain, match="outside Numerov table"):
            basis.value(x)
        with pytest.raises(OutOfDomain, match="outside Numerov table"):
            basis.derivative(x)
        with pytest.raises(OutOfDomain, match="outside Numerov table"):
            basis.jet(x)


def test_numerov_point_and_one_element_array_agree(harmonic_pairs):
    basis = harmonic_pairs[0].basis
    table = _numerov_table(harmonic_pairs[0])
    for x in (table.lo, -1.2345, 0.0, table.lo + 17 * table.h, 2.71828, table.hi):
        for method in (basis.value, basis.derivative):
            point, array = method(x), method(np.array([x]))
            assert all(type(v) is float for v in point)
            assert list(point) == np.ravel(array).tolist()


# ---------------------------------------------------------------------------
# jets: both solutions and their slopes from one evaluation
# ---------------------------------------------------------------------------

def same_bits(got, want):
    """Equal nested tuples of floats or arrays: types, shapes and bits."""
    assert type(got) is type(want)
    if isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same_bits(g, w)
    else:
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def sin(x):
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def two_call_catalog(k):
    """The catalog's value and derivative as two separate evaluations, each
    picking math or numpy per value."""
    if k != 0.0:
        return (lambda x: (sin(k * x), cos(k * x)),
                lambda x: (k * cos(k * x), -k * sin(k * x)))
    return (lambda x: (1.0 + zeros_like(x), x),
            lambda x: (zeros_like(x), 1.0 + zeros_like(x)))


def horner(c, t):
    """sum_k c[k] t^k for k = 0..5."""
    return ((((c[5] * t + c[4]) * t + c[3]) * t + c[2]) * t + c[1]) * t + c[0]


def horner_slope(c, t):
    """d/dt of sum_k c[k] t^k for k = 0..5."""
    return (((5.0 * c[5] * t + 4.0 * c[4]) * t + 3.0 * c[3]) * t + 2.0 * c[2]) * t + c[1]


def two_call_table(table):
    """The table's value and derivative as two lookups of the same cell."""
    def value(x):
        (c1, c2), t = table._cell(x)
        return horner(c1, t), horner(c2, t)

    def derivative(x):
        (c1, c2), t = table._cell(x)
        return horner_slope(c1, t) / table.h, horner_slope(c2, t) / table.h

    return value, derivative


def shipped_numerov_pairs():
    pairs = []
    for path in sorted(SCENARIOS.glob("*.scn")):
        s = parse_scenario(path.read_text())
        pairs += [pair for pair, spec in zip(build_field(s).pairs, s.solutions) if isinstance(spec, NumerovSpec)]
    return pairs


def jet_points(lo, hi):
    """Points at both edges and inside [lo, hi], alone, as one-element
    arrays and together in one array, and a dense line across it."""
    points = [lo, hi, lo + 0.3 * (hi - lo), 0.5 * (lo + hi), hi - 1e-3 * (hi - lo)]
    return points + [np.array([x]) for x in points] + [np.array(points), np.array([[lo], [hi]]),
                                                       np.linspace(lo, hi, 1001)]


@pytest.mark.parametrize("entry, params", [("free", {"k": 1.3}), ("free", {"k": -0.7}),
                                           ("zero_energy_free", {}), ("box", {"L": 2.0, "n": 3})])
def test_catalog_jet_is_the_two_calls(entry, params):
    pair = solve_axis_analytic(entry, params)
    value, derivative = two_call_catalog(_catalog_wave(entry, params)[0])
    lo, hi = pair.domain if math.isfinite(pair.domain[0]) else (-7.5, 7.5)
    for x in jet_points(lo, hi):
        jet = pair.basis.jet(x)
        same_bits(jet, (value(x), derivative(x)))
        same_bits((pair.basis.value(x), pair.basis.derivative(x)), jet)


def test_numerov_jet_is_the_two_calls():
    pairs = shipped_numerov_pairs()
    assert [pair.axis for pair in pairs] == ["x", "y", "z"] * 2  # harmonic_numerov, tabulated_harmonic
    for pair in pairs:
        table = _numerov_table(pair)
        value, derivative = two_call_table(table)
        for x in jet_points(table.lo, table.hi) + list(table.bounds):
            jet = pair.basis.jet(x)
            same_bits(jet, (value(x), derivative(x)))
            same_bits((pair.basis.value(x), pair.basis.derivative(x)), jet)


def test_axis_solution_keeps_value_and_derivative_in_its_body():
    """bench/tracer.py counts axis evaluations by rebinding these two
    methods, which it looks up in the class dict."""
    for name in ("value", "derivative"):
        assert inspect.isfunction(AxisSolution.__dict__[name])


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


def test_assemble_compares_hbar_and_m0_exactly():
    """SI-scale constants differ by far less than any absolute tolerance."""
    def pair(kind, axis, hbar, m0):
        params = {"k": 1.0} if kind == "free" else {}
        return solve_axis_analytic(kind, params, axis=axis, hbar=hbar, m0=m0)
    terms = ([(1.0, ("u1", "u1", "u1"))], [(1.0, ("u2", "u1", "u1"))])
    for (hbar_y, m0_y) in ((2e-34, 1e-30), (1e-34, 3e-30)):
        pairs = [pair("free", "x", 1e-34, 1e-30), pair("zero_energy_free", "y", hbar_y, m0_y),
                 pair("zero_energy_free", "z", 1e-34, 1e-30)]
        with pytest.raises(ValueError, match="share hbar and m0"):
            assemble_field(pairs, *terms)


def edge_points(lo, hi):
    """Points around both ends of [lo, hi]: the ends, the ends of the
    padded interval and the floats just past them."""
    (p_lo, p_hi) = _padded(lo, hi)
    return [math.nextafter(p_lo, -math.inf), p_lo, lo, math.nextafter(lo, math.inf),
            math.nextafter(hi, -math.inf), hi, p_hi, math.nextafter(p_hi, math.inf)]


def test_potential_pair_and_table_share_one_domain_rule():
    """A tabulated potential, the Numerov pair solved on its grid and the
    pair's table accept and reject the same points around both edges, at a
    point and over an array."""
    grid = np.linspace(0.0, 8.0, 33)
    potential = Tabulated(tuple(grid), tuple(0.5 * (grid - 4.0) ** 2))
    pair = solve_axis_numerov(potential, 0.5, (0.0, 8.0), 1e-2, (1.0, 0.0), (0.0, 1.0), ic_at=4.0)
    table = _numerov_table(pair)
    points = edge_points(0.0, 8.0)
    expected = [False, True, True, True, True, True, True, False]
    for x, inside in zip(points, expected):
        assert bool(potential.contains(x)) is inside
        assert bool(pair.contains(x)) is inside
        if inside:
            table.jet(x)
        else:
            with pytest.raises(OutOfDomain):
                table.jet(x)
    xs = np.array(points)
    assert list(potential.contains(xs)) == list(pair.contains(xs)) == expected
    # an infinite edge does not widen the finite one
    assert _padded(0.0, math.inf) == (_padded(0.0, 1.0)[0], math.inf)


def test_pair_wider_than_its_potential_marks_points_beyond_it():
    """A pair whose domain reaches past its tabulated potential's grid
    holds only the points of both: over arrays the field marks the rest
    OUT_OF_DOMAIN, and at a point it raises."""
    free = solve_axis_analytic("free", {"k": 1.0}, axis="x")
    potential = Tabulated((0.0, 1.0, 2.0, 3.0, 4.0), (0.0,) * 5)
    wide = replace(free, potential=potential, domain=(-1.0, 5.0))
    field = assemble_field([wide, zero_pair("y"), zero_pair("z")],
                           [(1.0, ("u1", "u1", "u1"))], [(1.0, ("u2", "u1", "u1"))])
    xs = np.array([-0.5, *edge_points(0.0, 4.0), 4.5])
    fs = evaluate_field(field, (xs, 0.0, 0.0))
    inside = [False, False, True, True, True, True, True, True, False, False]
    assert list(fs.status) == [OK if i else OUT_OF_DOMAIN for i in inside]
    assert list(wide.contains(xs)) == inside
    with pytest.raises(OutOfDomain):
        evaluate_field(field, (4.5, 0.0, 0.0))


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
