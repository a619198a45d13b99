import math
from pathlib import Path

import numpy as np
import pytest

from qhj3d import (
    NodalPoint,
    NodeSingularity,
    NonRiemannianPoint,
    ReducedActionField,
    assemble_field,
    canonical_jacobian,
    metric_at,
    sample,
    solve_axis_analytic,
    sparse_grid,
    verify_transformation,
)
from qhj3d import dynamics, hj_core
from qhj3d.arrays import as_coords
from qhj3d.errors import NON_RIEMANNIAN, OK, QhjError
from qhj3d.hj_core import MOMENTUM_EPS
from qhj3d.metric import (JacobianMatrix, QuantumMetric, TWELVE_EQUATION_LABELS, a_upper_from_sample,
                          a_upper_gradient)
from qhj3d.scenario import build_action, parse_scenario
from qhj3d.schrodinger import _axis_eval, _combine, evaluate_field

from conftest import make_box_field, make_free_field
from reduction_1d import (ClassicalTurningPoint, ZeroConjugateMomentum, floyd_residual_1d, fm_factor_1d,
                          s0_derivatives_1d, schwarzian_1d)


def metric_from(a_upper):
    a_upper = np.asarray(a_upper, dtype=float)
    with np.errstate(divide="ignore"):
        a_lower = 1.0 / a_upper
    sig = tuple("+" if a > 0 else ("-" if a < 0 else "0") for a in a_upper)
    return QuantumMetric(a_upper=a_upper, a_lower=a_lower, signature=sig)


def random_rotation(rng):
    m = rng.normal(size=(3, 3))
    q_mat, r_mat = np.linalg.qr(m)
    q_mat = q_mat @ np.diag(np.sign(np.diag(r_mat)))
    if np.linalg.det(q_mat) < 0:
        q_mat[:, 0] = -q_mat[:, 0]
    return q_mat


# ---------------------------------------------------------------------------
# metric_at
# ---------------------------------------------------------------------------

def test_classical_gauge_gives_euclidean_metric(free_action_a1):
    for r in ((0.0, 0.0, 0.0), (1.3, -2.0, 5.0)):
        m = metric_at(free_action_a1, r)
        assert m.a_upper == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
        assert m.signature == ("+", "+", "+")


def test_metric_a2_at_origin(free_action_a2):
    m = metric_at(free_action_a2, (0.0, 0.0, 0.0))
    assert m.a_upper == pytest.approx([0.25, 1.0, 1.0])
    assert m.a_lower == pytest.approx([4.0, 1.0, 1.0])


def test_metric_a2_at_quarter_period(free_action_a2):
    m = metric_at(free_action_a2, (math.pi / 2, 0.0, 0.0))
    assert m.a_upper == pytest.approx([4.0, 1.0, 1.0])


def test_reciprocity_roundtrip(free_action_a2, harmonic_action):
    for action, r in ((free_action_a2, (0.7, 0.0, 0.0)), (harmonic_action, (0.5, 0.3, -0.2))):
        m = metric_at(action, r)
        assert m.a_upper * m.a_lower == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)


def test_node_singularity_on_momentum_zero_surface(harmonic_action):
    """On x = 0 the odd factors kill d_y S0 while R still curves along y."""
    with pytest.raises(NodeSingularity):
        metric_at(harmonic_action, (0.0, 0.8, 0.6))


def test_non_riemannian_in_forbidden_region(harmonic_action):
    m = metric_at(harmonic_action, (1.8, 0.4, 0.3))
    assert m.signature == ("-", "+", "+")
    assert m.a_upper[0] == pytest.approx(-2.863973, rel=1e-5)
    with pytest.raises(NonRiemannianPoint) as err:
        canonical_jacobian(m)
    assert err.value.signature == ("-", "+", "+")


# ---------------------------------------------------------------------------
# canonical Jacobian and the twelve equations
# ---------------------------------------------------------------------------

def test_canonical_jacobian_euclidean():
    jac = canonical_jacobian(metric_from([1.0, 1.0, 1.0]))
    assert jac.entries == pytest.approx(np.eye(3))


def test_canonical_jacobian_quarter_metric():
    jac = canonical_jacobian(metric_from([0.25, 1.0, 1.0]))
    assert jac.entries == pytest.approx(np.diag([0.5, 1.0, 1.0]))


def test_canonical_jacobian_rejects_negative_component():
    with pytest.raises(NonRiemannianPoint) as err:
        canonical_jacobian(metric_from([-0.2, 1.0, 1.0]))
    assert err.value.signature == ("-", "+", "+")


def test_twelve_residuals_euclidean_identity():
    res = verify_transformation(JacobianMatrix(np.eye(3)), metric_from([1.0, 1.0, 1.0]))
    assert res == pytest.approx(np.zeros(12), abs=1e-15)


def test_twelve_residuals_consistent_pair():
    met = metric_from([0.25, 1.0, 1.0])
    res = verify_transformation(canonical_jacobian(met), met)
    assert np.max(res) < 1e-14


def test_twelve_residuals_mismatched_pair():
    """Identity Jacobian against the quarter metric: the row-norm condition
    along x misses by 3/4 and the weighted column-norm by 3."""
    res = verify_transformation(JacobianMatrix(np.eye(3)), metric_from([0.25, 1.0, 1.0]))
    named = dict(zip(TWELVE_EQUATION_LABELS, res))
    assert named["row_norm_x"] == pytest.approx(0.75)
    assert named["col_norm_x"] == pytest.approx(3.0)


def test_rotation_family_preserves_all_twelve(free_action_a2, harmonic_action):
    rng = np.random.default_rng(7)
    points = [(free_action_a2, (x, 0.0, 0.0)) for x in (0.0, 0.4, 1.0)]
    points.append((harmonic_action, (0.5, 0.3, -0.2)))
    for action, r in points:
        met = metric_at(action, r)
        jac = canonical_jacobian(met)
        for _ in range(10):
            rotated = JacobianMatrix(jac.entries @ random_rotation(rng))
            assert np.max(verify_transformation(rotated, met)) < 1e-12


# ---------------------------------------------------------------------------
# Schwarzian and the 1D coordinate factor
# ---------------------------------------------------------------------------

def test_schwarzian_linear_action_vanishes():
    assert schwarzian_1d(2.0, 0.0, 0.0) == 0.0


def test_schwarzian_arithmetic():
    assert schwarzian_1d(1.0, 1.0, 0.0) == pytest.approx(-1.5)
    assert schwarzian_1d(2.0, 2.0, 3.0) == pytest.approx(0.0)


def test_schwarzian_zero_momentum():
    with pytest.raises(ZeroConjugateMomentum):
        schwarzian_1d(0.0, 1.0, 1.0)


def test_fm_factor_classical(free_action_a1):
    for x in (-2.0, 0.0, 1.7):
        assert fm_factor_1d(free_action_a1, x) == pytest.approx(1.0)


def test_fm_factor_a2(free_action_a2):
    assert fm_factor_1d(free_action_a2, 0.0) == pytest.approx(0.25)
    assert fm_factor_1d(free_action_a2, math.pi / 2) == pytest.approx(4.0)


def test_fm_consistency_triad(free_action_a2):
    """Three routes to (dx/dxhat)^2 agree: kinetic-deficit form, quantum
    metric, and the Schwarzian-bracket form."""
    hbar = free_action_a2.hbar
    for x in np.linspace(-3.0, 3.0, 100):
        fm = fm_factor_1d(free_action_a2, x)
        a_xx = metric_at(free_action_a2, (x, 0.0, 0.0)).a_upper[0]
        s1, s2, s3, _ = s0_derivatives_1d(free_action_a2, x)
        schw = 1.0 + 0.5 * hbar**2 / s1**2 * schwarzian_1d(s1, s2, s3)
        assert abs(fm - a_xx) < 1e-9
        assert abs(fm - schw) < 1e-9


def test_1d_path_and_kernel_share_the_node_rule():
    """Where R falls below the kernel's NODAL_EPS rule, but not to zero,
    the 1D path raises NodalPoint as the 3D kernel does."""
    action = ReducedActionField(make_free_field(1.0), 1e-300, 0.0)
    x = math.pi / 2
    for evaluate in (lambda: sample(action, (x, 0.0, 0.0)), lambda: metric_at(action, (x, 0.0, 0.0)),
                     lambda: s0_derivatives_1d(action, x), lambda: fm_factor_1d(action, x),
                     lambda: floyd_residual_1d(action, x)):
        with pytest.raises(NodalPoint):
            evaluate()


def test_1d_path_and_kernel_share_the_momentum_rule():
    """A small S0' that the metric accepts (|S0'| = 5e-12, above
    MOMENTUM_EPS) is accepted by the 1D path too, whatever the energy
    scale, and both give the same factor."""
    action = ReducedActionField(make_free_field(10.0), 2e12, 0.0)
    x = math.pi / 20
    a_xx = metric_at(action, (x, 0.0, 0.0)).a_upper[0]
    assert a_xx == pytest.approx(4.0e24, rel=1e-12)
    assert fm_factor_1d(action, x) == pytest.approx(a_xx, rel=1e-12)
    assert s0_derivatives_1d(action, x)[0] == pytest.approx(5e-12, rel=1e-12)


def harmonic_1d_action(harmonic_pairs):
    fld = assemble_field(
        [harmonic_pairs[0],
         solve_axis_analytic("zero_energy_free", axis="y"),
         solve_axis_analytic("zero_energy_free", axis="z")],
        [(1.0, ("u1", "u1", "u1"))],
        [(1.0, ("u2", "u1", "u1"))],
    )
    return ReducedActionField(fld, 1.0, 0.0)


def test_fm_consistency_in_forbidden_region(harmonic_pairs):
    """The triad also holds where E < V and the factor is negative."""
    action = harmonic_1d_action(harmonic_pairs)
    fm = fm_factor_1d(action, 1.7)
    assert fm < 0
    assert fm == pytest.approx(metric_at(action, (1.7, 0.0, 0.0)).a_upper[0], rel=1e-6)


def test_fm_turning_point(harmonic_pairs):
    action = harmonic_1d_action(harmonic_pairs)
    with pytest.raises(ClassicalTurningPoint):
        fm_factor_1d(action, 1.0)


def test_classical_limit_metric_is_exactly_euclidean(free_action_a1):
    """Wherever the amplitude Hessian vanishes the metric is identity, not
    merely close to it."""
    m = metric_at(free_action_a1, (0.9, 2.0, -1.0))
    assert all(a == 1.0 for a in m.a_upper)


def test_box_field_is_riemannian_everywhere():
    action = ReducedActionField(make_box_field(3.0, 2), 1.0, 1.0)
    for x in np.linspace(0.05, 2.95, 59):
        m = metric_at(action, (x, 0.0, 0.0))
        assert m.a_upper[0] > 0


# ---------------------------------------------------------------------------
# the Hessian of the field and the exact gradient of a^{mumu}
# ---------------------------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("free_classical", "free_a2", "field2d", "box", "harmonic_numerov")
JET_STEP = 1e-5


def shipped_off_node_points(name, count=6, seed=5):
    """The action of a shipped scenario, and its trajectory start plus
    seeded points of its verify box at which a^{mumu} is defined and every
    active |d_mu S0| exceeds 1e-2."""
    scenario = parse_scenario((SCENARIOS / f"{name}.scn").read_text())
    action = build_action(scenario)
    lo, hi = np.array(scenario.verify.bounds, dtype=float).T
    rng = np.random.default_rng(seed)
    points = []
    for r in [np.array(scenario.trajectory.r0)] + [lo + (hi - lo) * rng.random(3) for _ in range(count)]:
        try:
            metric_at(action, r)
        except QhjError:
            continue
        momenta = sample(action, r).grad_s0
        if all(abs(p) > 1e-2 for p, on in zip(momenta, action.field.active_axes) if on):
            points.append(r)
    assert len(points) >= 4
    return action, points


def central_difference(fn, r):
    """Rows d_nu fn(r) for nu = x, y, z, by central differences."""
    rows = []
    for nu in range(3):
        shift = np.zeros(3)
        shift[nu] = JET_STEP
        rows.append((np.asarray(fn(r + shift)) - np.asarray(fn(r - shift))) / (2 * JET_STEP))
    return np.array(rows)


def assert_close(exact, estimate, what):
    exact, estimate = np.asarray(exact), np.asarray(estimate)
    scale = max(1.0, float(np.max(np.abs(estimate))))
    assert np.max(np.abs(exact - estimate)) <= 1e-6 * scale, what


@pytest.mark.parametrize("name", SHIPPED)
def test_order3_keeps_order2_fields_bitwise(name):
    """A combination holds the value and gradient of the plain one bit for
    bit, whatever it is asked to add. Given the axis factors it adds the
    second partials, which are evaluate_field's; with hessian=True it adds
    the three off-diagonals; each part is None unless asked for, and the
    same bits with or without the other."""
    action, points = shipped_off_node_points(name)
    scenario = parse_scenario((SCENARIOS / f"{name}.scn").read_text())
    grid = sparse_grid(scenario.verify.bounds, scenario.verify.grid)
    for r in (*points, grid):
        cache, factors, _, _ = _axis_eval(action.field._axes, as_coords(r))
        fs = evaluate_field(action.field, r)
        for terms, second in zip(action.field._indexed_terms, (fs.second_theta, fs.second_phi)):
            plain = _combine(terms, cache)
            assert plain[2] is None and plain[3] is None
            asked = {(f, h): _combine(terms, cache, factors if f else None, h)
                     for f in (False, True) for h in (False, True)}
            for (f, h), out in asked.items():
                assert (out[2] is None) == (not f) and (out[3] is None) == (not h)
                for a, b in zip(plain[:2], out[:2]):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            for out in (asked[True, False][2], asked[True, True][2]):
                assert np.asarray(out).tobytes() == np.asarray(second).tobytes()
            assert np.asarray(asked[False, True][3]).tobytes() == np.asarray(asked[True, True][3]).tobytes()


def hessian_evaluation(action, r):
    """The point evaluator with the Hessian, as the second route builds it,
    at the point r."""
    return hj_core._point_evaluator(action, hessian=True)([float(x) for x in r])


@pytest.mark.parametrize("name", SHIPPED)
def test_order3_partials_match_central_differences(name):
    """hessian[nu][mu] = d_nu d_mu of theta and phi against central
    differences of the gradient."""
    action, points = shipped_off_node_points(name)
    field = action.field
    for r in points:
        hessians = hessian_evaluation(action, r)[3][4:]  # of theta and of phi
        for which, exact in zip(("theta", "phi"), hessians):
            hessian = central_difference(lambda x: getattr(evaluate_field(field, x), f"grad_{which}"), r)
            assert_close(exact, hessian, (which, "hessian", r))


def gradient_at(action, r):
    """(s, a^{mumu}, grad_a) at the point r as the second route forms them."""
    _, s, a_upper, field = hessian_evaluation(action, r)
    grad_v = action.field.potential.gradient(r).tolist()
    return s, a_upper, a_upper_gradient(action, field, s.grad_s0, a_upper, grad_v)


@pytest.mark.parametrize("name", SHIPPED)
def test_a_upper_gradient_matches_central_differences(name):
    """grad_a[nu][mu] = d_nu a^{mumu} against central differences of
    metric_at; the sample and a^{mumu} it returns are those of sample and
    metric_at at the point, bit for bit."""
    action, points = shipped_off_node_points(name)
    for r in points:
        s, a_upper, grad_a = gradient_at(action, r)
        assert np.array(a_upper).tobytes() == metric_at(action, r).a_upper.tobytes()
        assert s.grad_s0 == sample(action, r).grad_s0
        estimate = central_difference(lambda x: metric_at(action, x).a_upper, r)
        assert_close(grad_a, estimate, r)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda path: path.stem)
def test_a_upper_is_the_closed_form_on_verify_grids(path):
    """Each product term solves u'' = c_mu u on axis mu, so the long form
    a^{mumu} = 1 - hbar^2 (d^2_mu R / R) / (d_mu S0)^2 equals the closed
    form -hbar^2 c_mu / (d_mu S0)^2 = 2 m0 (E_mu - V_mu) / (d_mu S0)^2 that
    a_upper_from_sample computes. Both oracles, the long form from the
    sample's second partials of R and 2 m0 (E_mu - V_mu) from the axis
    potential, agree with it at every OK point of the verify grid with
    |d_mu S0| >= MOMENTUM_EPS, to 1e-12 of max(1, |a^{mumu}|)."""
    scenario = parse_scenario(path.read_text())
    action = build_action(scenario)
    grid = sparse_grid(scenario.verify.bounds, scenario.verify.grid)
    shape = np.broadcast(*grid).shape
    s = sample(action, grid)
    a_upper, status = a_upper_from_sample(action, s)
    checked = 0
    for pair, x, a, p, second in zip(action.field.pairs, grid, a_upper, s.grad_s0, s.hessian_r_diag):
        moving = np.broadcast_to((status == OK) & (np.abs(p) >= MOMENTUM_EPS), shape)
        p2 = np.where(moving, p * p, 1.0)
        long_form = 1.0 - action.hbar**2 * (second / s.amplitude) / p2
        energy_form = 2.0 * action.m0 * (pair.e_axis - pair.potential(x)) / p2
        for oracle in (long_form, energy_form):
            error = np.abs(a - oracle) / np.maximum(1.0, np.abs(a))
            assert np.all(np.broadcast_to(error, shape)[moving] <= 1e-12)
        checked += int(np.count_nonzero(moving))
    assert checked > 0


def float_bits(values) -> bytes:
    """The bits of a float or of nested lists of floats, which must be
    Python floats."""
    flat = np.ravel(np.array(values, dtype=object))
    assert all(type(v) is float for v in flat)
    return np.array(flat, dtype=float).tobytes()


@pytest.mark.parametrize("x", [-1.0, 1.0])
def test_turning_point_reads_positive_zero(x):
    """harmonic_numerov's x axis turns at x = +-1, where V_x = E_x and the
    axis factor c_x is +0.0, so -hbar^2 c_x is -0.0. a^{xx} reads +0.0
    there in the point evaluator, in metric_at and over arrays, not -0.0:
    the signature is '0' and canonical_jacobian marks the point
    non-Riemannian. So does every point of the 5^3 lattice over [-2, 2]^3
    on the plane where d_x S0 moves; where it vanishes the axis is flat."""
    action = build_action(parse_scenario((SCENARIOS / "harmonic_numerov.scn").read_text()))
    r = (x, 0.5, 0.5)
    assert evaluate_field(action.field, r).factors[0] == 0.0
    _, s, a_upper = action.point_velocity(list(r))
    assert abs(s.grad_s0[0]) >= MOMENTUM_EPS
    assert float_bits(a_upper[0]) == float_bits(0.0)
    met = metric_at(action, r)
    assert met.a_upper[0].tobytes() == np.float64(0.0).tobytes()
    assert met.signature[0] == "0"
    with pytest.raises(NonRiemannianPoint):
        canonical_jacobian(met)

    axes = sparse_grid(((-2.0, 2.0),) * 3, (5, 5, 5))
    grid = metric_at(action, axes)
    plane = 1 if x < 0 else 3  # x = -1 or x = 1
    p_x = np.broadcast_to(sample(action, axes).grad_s0[0], grid.status.shape)[plane]
    moving = (grid.status[plane] == OK) & (np.abs(p_x) >= MOMENTUM_EPS)
    assert moving.any()
    assert grid.a_upper[plane][moving][:, 0].tobytes() == np.zeros(int(moving.sum())).tobytes()
    assert np.all(canonical_jacobian(grid).status[plane][moving] == NON_RIEMANNIAN)


@pytest.mark.parametrize("name", SHIPPED)
def test_a_upper_gradient_is_positive_zero_on_flat_axes(name):
    """Each entry of grad_a in a row or column of a flat axis is +0.0."""
    action, points = shipped_off_node_points(name)
    flat = [nu for nu in range(3) if not action.field.active_axes[nu]]
    for r in points:
        _, _, grad_a = gradient_at(action, [float(x) for x in r])
        for mu in flat:
            for nu in range(3):
                assert float_bits([grad_a[mu][nu], grad_a[nu][mu]]) == float_bits([0.0, 0.0])


@pytest.mark.parametrize("name", SHIPPED)
def test_second_route_rhs_differentiates_each_axis_potential_once(name, monkeypatch):
    """One second-route right-hand side calls AxisPotential.derivative
    once per axis, in axis order: the potential gradient that d_mu V and
    the metric gradient share."""
    action, points = shipped_off_node_points(name)
    calls = []
    for cls in {type(pair.potential) for pair in action.field.pairs}:
        def counting(self, x, derivative=cls.derivative):
            calls.append(self)
            return derivative(self, x)
        monkeypatch.setattr(cls, "derivative", counting)
    rhs = dynamics._hamilton_rhs(action)
    for r in points:
        r = [float(x) for x in r]
        y = r + list(sample(action, r).grad_s0)
        calls.clear()
        rhs(y)
        assert [id(c) for c in calls] == [id(pair.potential) for pair in action.field.pairs]
