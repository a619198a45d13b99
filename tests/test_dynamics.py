import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhj3d import (
    IntegratorConfig,
    ReducedActionField,
    TrajectoryState,
    a_upper_from_sample,
    integrate_first_order,
    integrate_second_order,
    metric_at,
    sample,
    velocity_field,
)
from qhj3d import dynamics, metric, schrodinger
from qhj3d.dynamics import COMPLETED, DOMAIN_EXIT, SINGULARITY
from qhj3d.errors import NodalPoint
from qhj3d.potentials import SeparablePotential
from qhj3d.scenario import build_action, parse_scenario

from conftest import make_box_field, make_field_2d
from reduction_1d import reduce_1d_check


def state(t, r, v):
    return TrajectoryState(t, np.asarray(r, dtype=float), np.asarray(v, dtype=float))


def law_residual(action, st_):
    """v . grad S0 - 2 (E - V) at the state, from a fresh sample there."""
    return dynamics._law(action, st_.velocity, sample(action, st_.position))


def energy_residual(action, st_):
    """(m0/2) sum a_{mumu} v_mu^2 + V - E at the state, an exact first
    integral, from a fresh sample there."""
    s = sample(action, st_.position)
    return dynamics._energy(action, st_.velocity, s, a_upper_from_sample(action, s)[0])


# ---------------------------------------------------------------------------
# velocity field and pointwise residuals
# ---------------------------------------------------------------------------

def test_velocity_classical_plane_wave(free_action_a1):
    for r in ((0.0, 0.0, 0.0), (2.0, 1.0, -1.0)):
        assert velocity_field(free_action_a1, r)[0] == pytest.approx([1.0, 0.0, 0.0])


def test_velocity_a2_chain(free_action_a2):
    v0 = velocity_field(free_action_a2, (0.0, 0.0, 0.0))[0]
    assert v0 == pytest.approx([0.5, 0.0, 0.0])
    s = sample(free_action_a2, (0.0, 0.0, 0.0))
    assert float(v0 @ s.grad_s0) == pytest.approx(2 * free_action_a2.e)

    v1 = velocity_field(free_action_a2, (math.pi / 2, 0.0, 0.0))[0]
    assert v1 == pytest.approx([2.0, 0.0, 0.0])
    s1 = sample(free_action_a2, (math.pi / 2, 0.0, 0.0))
    assert float(v1 @ s1.grad_s0) == pytest.approx(2 * free_action_a2.e)


def test_law_residual_detects_corruption(free_action_a1):
    good = state(0.0, (0.4, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert law_residual(free_action_a1, good) == pytest.approx(0.0, abs=1e-14)
    bad = state(0.0, (0.4, 0.0, 0.0), (2.0, 0.0, 0.0))
    assert law_residual(free_action_a1, bad) == pytest.approx(1.0)


def test_energy_residual_values(free_action_a1, free_action_a2):
    assert energy_residual(free_action_a1, state(0, (0, 0, 0), (1, 0, 0))) == pytest.approx(0.0, abs=1e-14)
    assert energy_residual(free_action_a2, state(0, (0, 0, 0), (0.5, 0, 0))) == pytest.approx(0.0, abs=1e-14)
    corrupted = state(0, (0, 0, 0), (1.0, 0, 0))
    assert energy_residual(free_action_a2, corrupted) == pytest.approx(1.5)


def quantum_lagrangian(action, st_):
    """(m0/2) sum a_{mumu} v_mu^2 - V at the state."""
    kinetic = 0.5 * action.m0 * float(np.sum(metric_at(action, st_.position).a_lower * st_.velocity**2))
    return kinetic - sample(action, st_.position).v


def test_quantum_lagrangian_values(free_action_a1, free_action_a2):
    assert quantum_lagrangian(free_action_a1, state(0, (0, 0, 0), (1, 0, 0))) == pytest.approx(0.5)
    assert quantum_lagrangian(free_action_a2, state(0, (0, 0, 0), (0.5, 0, 0))) == pytest.approx(0.5)


def test_lagrangian_energy_identity(free_action_a2, harmonic_action):
    """L_q = energy_residual + E - 2V, so L_q + V = E - V on shell."""
    cases = [(free_action_a2, (0.7, 0.0, 0.0)), (harmonic_action, (0.5, 0.3, -0.2))]
    for action, r in cases:
        v = velocity_field(action, r)[0]
        st_ = state(0.0, r, v)
        s = sample(action, r)
        lag = quantum_lagrangian(action, st_)
        en = energy_residual(action, st_)
        assert lag == pytest.approx(en + action.e - 2 * s.v, rel=1e-12, abs=1e-12)
        assert lag + s.v == pytest.approx(action.e - s.v, rel=1e-9, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.2, 5.0), b=st.floats(-5.0, 5.0), x=st.floats(-2.0, 2.0),
       y=st.floats(-2.0, 2.0))
def test_time_reversal(a, b, x, y):
    """(a, b) -> (-a, -b) flips grad S0 and hence the velocity, exactly."""
    field = make_field_2d()
    try:
        v_fwd = velocity_field(ReducedActionField(field, a, b), (x, y, 0.0))[0]
        v_bwd = velocity_field(ReducedActionField(field, -a, -b), (x, y, 0.0))[0]
    except Exception:
        return  # nodal/singular draw
    assert np.array_equal(v_fwd, -v_bwd)


# ---------------------------------------------------------------------------
# first-order integration
# ---------------------------------------------------------------------------

def test_straight_line_classical(free_action_a1):
    tr = integrate_first_order(free_action_a1, (0.0, 0.0, 0.0), IntegratorConfig(t_end=5.0))
    assert tr.termination.status == COMPLETED
    assert tr.final_state.t == pytest.approx(5.0)
    assert tr.final_state.position[0] == pytest.approx(5.0, abs=1e-9)
    assert tr.max_law_residual < 1e-12


def test_a2_speed_oscillation(free_action_a2):
    """xdot = (1 + 3 sin^2 x)/2: monotone x, speed between 1/2 and 2,
    pi-periodic in x."""
    tr = integrate_first_order(free_action_a2, (0.0, 0.0, 0.0), IntegratorConfig(t_end=5.0))
    assert tr.termination.status == COMPLETED
    xs = np.array([s.position[0] for s in tr.states])
    vs = np.array([s.velocity[0] for s in tr.states])
    assert np.all(np.diff(xs) > 0)
    assert np.all((vs >= 0.5 - 1e-12) & (vs <= 2.0 + 1e-12))
    for s in tr.states:
        assert s.velocity[0] == pytest.approx(0.5 * (1 + 3 * math.sin(s.position[0]) ** 2), abs=1e-9)
    assert tr.max_law_residual < 1e-9
    # pi-periodicity of the speed profile in x
    for x in np.linspace(0.0, math.pi, 17):
        v_here = velocity_field(free_action_a2, (x, 0.0, 0.0))[0][0]
        v_there = velocity_field(free_action_a2, (x + math.pi, 0.0, 0.0))[0][0]
        assert v_here == pytest.approx(v_there, rel=1e-12)


def test_2d_trajectory_residuals_until_node_event():
    action = ReducedActionField(make_field_2d(), 1.0, 0.0)
    cfg = IntegratorConfig(t_end=5.0, singularity_eps=1e-3)
    tr = integrate_first_order(action, (0.3, 0.9, 0.0), cfg)
    assert tr.termination.status == SINGULARITY
    assert tr.termination.kind == "amplitude"
    assert 0.0 < tr.termination.t < 5.0
    assert tr.max_law_residual < 1e-8
    assert tr.max_energy_residual < 1e-8
    # the located event sits at the threshold: R ~ eps at the event point
    s = sample(action, tr.termination.position)
    assert s.amplitude < 10 * cfg.singularity_eps


def test_trajectory_time_strictly_increasing(free_action_a2):
    tr = integrate_first_order(free_action_a2, (0.0, 0.0, 0.0), IntegratorConfig(t_end=3.0))
    ts = [s.t for s in tr.states]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_box_domain_exit():
    action = ReducedActionField(make_box_field(3.0, 2), 1.0, 1.0)
    tr = integrate_first_order(action, (0.5, 0.0, 0.0), IntegratorConfig(t_end=10.0))
    assert tr.termination.status == DOMAIN_EXIT
    assert tr.final_state.position[0] == pytest.approx(3.0, abs=1e-6)
    assert tr.max_law_residual < 1e-8


def test_flat_axes_stay_put(free_action_a2):
    tr = integrate_first_order(free_action_a2, (0.0, 0.7, -0.4), IntegratorConfig(t_end=2.0))
    assert tr.final_state.position[1] == pytest.approx(0.7, abs=1e-14)
    assert tr.final_state.position[2] == pytest.approx(-0.4, abs=1e-14)


def test_hermite_step_reproduces_cubics():
    """The event interpolant is the cubic Hermite step: from the values and
    slopes at both ends it gives back any cubic, per component."""
    cubics = [(1.0, -2.0, 0.5, 3.0), (-0.4, 1.0, 0.0, -2.0)]  # c0 + c1 t + c2 t^2 + c3 t^3
    value = lambda c, t: c[0] + t * (c[1] + t * (c[2] + t * c[3]))
    slope = lambda c, t: c[1] + t * (2.0 * c[2] + 3.0 * t * c[3])
    t0, h = 0.3, 0.7
    ends = [[fn(c, t) for c in cubics] for t in (t0, t0 + h) for fn in (value, slope)]
    for s in (0.0, 0.125, 0.25, 0.5, 0.75, 1.0):
        got = dynamics._hermite(*ends, h, s)
        want = [value(c, t0 + s * h) for c in cubics]
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-14, s


# ---------------------------------------------------------------------------
# second-order route
# ---------------------------------------------------------------------------

def test_second_order_matches_first_classical(free_action_a1):
    cfg = IntegratorConfig(t_end=5.0)
    t1 = integrate_first_order(free_action_a1, (0.0, 0.0, 0.0), cfg)
    t2 = integrate_second_order(free_action_a1, (0.0, 0.0, 0.0), cfg)
    assert np.max(np.abs(t1.final_state.position - t2.final_state.position)) < 1e-10


def test_second_order_matches_first_a2(free_action_a2):
    cfg = IntegratorConfig(t_end=2.0)
    t1 = integrate_first_order(free_action_a2, (0.0, 0.0, 0.0), cfg)
    t2 = integrate_second_order(free_action_a2, (0.0, 0.0, 0.0), cfg)
    assert np.max(np.abs(t1.final_state.position - t2.final_state.position)) < 1e-6
    assert t2.max_law_residual < 1e-8


def test_second_order_matches_first_2d():
    action = ReducedActionField(make_field_2d(), 1.0, 0.0)
    cfg = IntegratorConfig(t_end=1.2, singularity_eps=1e-3)
    t1 = integrate_first_order(action, (-0.45, -1.3527, 0.0), cfg)
    t2 = integrate_second_order(action, (-0.45, -1.3527, 0.0), cfg)
    assert t1.termination.status == COMPLETED
    assert t2.termination.status == COMPLETED
    assert np.max(np.abs(t1.final_state.position - t2.final_state.position)) < 1e-5


# ---------------------------------------------------------------------------
# 1D reduction
# ---------------------------------------------------------------------------

def test_reduce_1d_classical(free_action_a1):
    tr = integrate_first_order(free_action_a1, (0.0, 0.0, 0.0), IntegratorConfig(t_end=5.0))
    assert reduce_1d_check(free_action_a1, tr) < 1e-12


def test_reduce_1d_a2(free_action_a2):
    tr = integrate_first_order(free_action_a2, (0.0, 0.0, 0.0), IntegratorConfig(t_end=5.0))
    assert reduce_1d_check(free_action_a2, tr) < 1e-9


def test_reduce_1d_box():
    action = ReducedActionField(make_box_field(20.0, 1), 1.0, 1.0)
    tr = integrate_first_order(action, (5.0, 0.0, 0.0), IntegratorConfig(t_end=5.0))
    assert tr.termination.status == COMPLETED
    assert reduce_1d_check(action, tr) < 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=math.inf)


def test_energy_residual_finite_where_metric_component_vanishes(harmonic_action):
    """This run passes a state with a^{zz} = 0 and v_z = 0, where a_{zz} is
    infinite; the term a_{zz} v_z^2 counts as 0 there."""
    tr = integrate_first_order(harmonic_action, (0.7, 0.6, 1.0),
                               IntegratorConfig(t_end=5.0, singularity_eps=1e-3))
    assert np.all(np.isfinite(tr.energy_residuals))
    assert tr.max_energy_residual < 1e-8 * max(1.0, harmonic_action.e)


def _kinetic_numpy(m0, velocity, a_upper):
    """The masked-array form of the kinetic term, for comparison."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_lower = 1.0 / np.array(a_upper, dtype=float)
        v = np.asarray(velocity, dtype=float)
        moving = v != 0.0
        return 0.5 * m0 * float(np.sum(a_lower[moving] * v[moving] ** 2))


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("velocity, a_upper", [
    ((0.3, -1.7, 2.5), (0.25, 1.0, -3.0)),
    ((0.0, 0.0, 0.0), (0.25, 1.0, 1.0)),
    ((0.0, 1e-170, 0.0), (-1.0, -0.5, 2.0)),
    ((1e200, 0.0, 2.0), (1.0, 1.0, 1.0)),
    ((INF, 0.0, 1.0), (0.0, 1.0, 1.0)),
    ((1.0, INF, 0.0), (1.0, -0.0, 1.0)),
    ((NAN, 0.0, 0.0), (0.0, 1.0, 1.0)),
    ((2.0, -INF, INF), (-0.0, 0.0, 1.0)),
    ((0.5, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.5, 0.5, 0.5), (INF, NAN, 1.0)),
], ids=["finite", "at-rest", "negative-zero-term", "overflow", "zero-a-inf-v", "negative-zero-a-inf-v",
        "zero-a-nan-v", "mixed-infinities", "zero-a-finite-v", "non-finite-a"])
def test_kinetic_matches_numpy_bitwise(velocity, a_upper):
    """The float sum keeps numpy's order, and 1/0 is numpy's signed
    infinity: where a^{mumu} = 0 meets a nonzero or non-finite velocity
    component the term is inf or NaN, never a ZeroDivisionError."""
    action = SimpleNamespace(m0=1.7)
    got = dynamics._kinetic(action, np.array(velocity), a_upper)
    want = _kinetic_numpy(action.m0, velocity, a_upper)
    assert isinstance(got, float)
    assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)


# The step arithmetic as numpy forms it, on the integrator's tableau padded
# to 7 x 7: the stage points y + h * (A[i, :i, None] * ks[:i]).sum(axis=0),
# the error h * (E[:, None] * ks).sum(axis=0) and its scaled RMS through
# np.maximum and np.mean. Each is written for a stack of cases on a leading
# axis; every sum has at most seven terms, which numpy adds one after
# another whatever the layout, so a stack takes each case's own steps.
DP_A = np.array([list(row) + [0.0] * (7 - len(row)) for row in dynamics._DP_A])
DP_E = np.array(dynamics._DP_E)


def _stage_points_numpy(y, h, ks, i):
    return y + h[:, None] * (DP_A[i, :i, None] * ks[:, :i]).sum(axis=-2)


def _error_norms_numpy(y, y_new, h, ks, abs_tol, rel_tol):
    err_vec = h[:, None] * (DP_E[:, None] * ks).sum(axis=-2)
    scale = abs_tol[:, None] + rel_tol[:, None] * np.maximum(np.abs(y), np.abs(y_new))
    return np.sqrt(np.mean((err_vec / scale) ** 2, axis=-1))


def _step_cases(rng, count, n):
    """count random cases of size n: y, y_new, the seven stage derivatives,
    h and tolerances. Entries have magnitudes 1e-3 to 1e3; in a tenth of
    the cases 1e150 to 1e300, whose products overflow. About 15% of the
    cases have a flat component, +-0.0 in y, y_new and every derivative
    (one in twenty of them in every component), and a third hold a few
    +-0.0, +-inf or NaN entries."""
    def entries(low, high, *shape):
        return rng.standard_normal((count, *shape)) * 10.0 ** rng.uniform(low, high, (count, *shape))

    huge = rng.random(count) < 0.1
    ks = np.where(huge[:, None, None], entries(150, 300, 7, n), entries(-3, 3, 7, n))
    y = np.where(huge[:, None], entries(150, 300, n), entries(-3, 3, n))
    y_new = y + np.where(huge[:, None], entries(150, 300, n), entries(-9, 0, n))
    flat = rng.random(count) < 0.15
    signs = np.where(rng.random((count, 9, n)) < 0.5, 0.0, -0.0)
    columns = (np.arange(n) == rng.integers(0, n, (count, 1))) | (rng.random((count, 1)) < 0.05)
    ks = np.where((flat[:, None] & columns)[:, None, :], signs[:, :7], ks)
    y = np.where(flat[:, None] & columns, signs[:, 7], y)
    y_new = np.where(flat[:, None] & columns, signs[:, 8], y_new)
    picks = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for values in (ks.reshape(count, -1), y, y_new):
        special = (rng.random(count) < 1 / 3)[:, None] & (rng.random(values.shape) < 0.1)
        values[special] = picks[rng.integers(0, len(picks), np.count_nonzero(special))]
    h = 10.0 ** rng.uniform(-8, 1, count)
    abs_tol, rel_tol = 10.0 ** rng.uniform(-14, -3, (2, count))
    return y, y_new, ks, h, abs_tol, rel_tol


def _same_floats(got, want):
    """Elementwise bitwise equality, except that any NaN equals any NaN:
    IEEE leaves the NaN of an operation on two NaNs unspecified, and a
    compiler may swap the operands of a commutative operation."""
    got, want = np.array(got, dtype=float), np.asarray(want, dtype=float)
    return (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))


@pytest.mark.parametrize("n", [3, 6])
def test_step_arithmetic_matches_numpy_bitwise(n):
    """The integrator's float sums give numpy's bits on 60,000 cases per
    state size: a stage point (stage 1 + c % 6 in case c), the error norm
    and whether the step is rejected (err > 1), among them +-0.0, +-inf,
    NaN and overflow."""
    rng = np.random.default_rng([2024, n])
    y, y_new, ks, h, abs_tol, rel_tol = _step_cases(rng, 60_000, n)
    with np.errstate(all="ignore"):
        stages = [_stage_points_numpy(y, h, ks, i) for i in range(1, 7)]
        norms = _error_norms_numpy(y, y_new, h, ks, abs_tol, rel_tol)
    for kind in (np.isnan, np.isinf, lambda x: x == 0.0, lambda x: x > 1.0, lambda x: x <= 1.0):
        assert 0.001 < np.mean(kind(norms)) < 0.95
    got_stages, got_norms = [], []
    cases = zip(y.tolist(), y_new.tolist(), ks.tolist(), h.tolist(), abs_tol.tolist(),
                rel_tol.tolist())
    for c, (y_c, y_new_c, ks_c, h_c, abs_c, rel_c) in enumerate(cases):
        i = 1 + c % 6
        got_stages.append(dynamics._stage_point(y_c, h_c, dynamics._DP_A[i], ks_c[:i]))
        got_norms.append(dynamics._error_norm(y_c, y_new_c, h_c, ks_c, abs_c, rel_c))
    want_stages = np.choose((np.arange(len(h)) % 6)[:, None], stages)
    same = _same_floats(got_stages, want_stages).all(axis=1) & _same_floats(got_norms, norms)
    assert same.all(), np.flatnonzero(~same)[:10]
    assert np.array_equal(np.array(got_norms) > 1.0, norms > 1.0)


def test_stacked_numpy_reference_is_the_single_case_form():
    """The stacked reference above takes each case's steps: it equals the
    single-case array expressions, y + h * (A[i, :i, None] * ks[:i]).sum(axis=0)
    and the error norm through np.maximum and np.mean, bit for bit."""
    rng = np.random.default_rng(7)
    for n in (3, 6):
        y, y_new, ks, h, abs_tol, rel_tol = _step_cases(rng, 500, n)
        with np.errstate(all="ignore"):
            stacked = [_stage_points_numpy(y, h, ks, i) for i in range(1, 7)]
            norms = _error_norms_numpy(y, y_new, h, ks, abs_tol, rel_tol)
            for c in range(len(h)):
                for i in range(1, 7):
                    one = y[c] + h[c] * (DP_A[i, :i, None] * ks[c, :i]).sum(axis=0)
                    assert one.tobytes() == stacked[i - 1][c].tobytes()
                err_vec = h[c] * (DP_E[:, None] * ks[c]).sum(axis=0)
                scale = abs_tol[c] + rel_tol[c] * np.maximum(np.abs(y[c]), np.abs(y_new[c]))
                err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
                assert np.array(err).tobytes() == norms[c].tobytes()


# ---------------------------------------------------------------------------
# per-state columns from the step's own field sample
# ---------------------------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def shipped_route_case(name, mixing=None, r0=None):
    """(action, start, config) of a shipped scenario, optionally with other
    mixing constants or another start."""
    scenario = parse_scenario((SCENARIOS / name).read_text())
    if mixing is not None:
        scenario = dataclasses.replace(scenario, a=mixing[0], b=mixing[1])
    spec = scenario.trajectory
    return build_action(scenario), r0 if r0 is not None else spec.r0, spec


def _trajectory_bits(tr):
    """Every number and outcome of a trajectory, floats as their bits."""
    states = [(st.t, st.position.tobytes(), st.velocity.tobytes(),
               None if st.momentum is None else st.momentum.tobytes()) for st in tr.states]
    columns = (tr.law_residuals.tobytes(), tr.energy_residuals.tobytes(), tr.grad_s0.tobytes())
    return states, columns, tr.termination, tr.stats


@pytest.mark.parametrize("route", [integrate_first_order, integrate_second_order],
                         ids=["first", "second"])
@pytest.mark.parametrize("name", ["box", "field2d", "free_a2", "free_classical", "harmonic_numerov"])
def test_start_as_tuple_list_or_array_gives_one_trajectory(name, route):
    """The integrator reads r0 as floats: a tuple, a list and an ndarray
    start the same trajectory, bit for bit."""
    action, r0, config = shipped_route_case(f"{name}.scn")
    runs = [_trajectory_bits(route(action, form(r0), config)) for form in (tuple, list, np.array)]
    assert runs[0] == runs[1] == runs[2]
    assert all(type(x) is float for x in runs[0][2].position)


# The five shipped scenarios (field2d ends in an amplitude event), plus a
# node event and a domain exit.
COLUMN_CASES = {
    "free_classical": ("free_classical.scn", None, None, (COMPLETED, None)),
    "free_a2": ("free_a2.scn", None, None, (COMPLETED, None)),
    "field2d": ("field2d.scn", None, None, (SINGULARITY, "amplitude")),
    "box": ("box.scn", None, None, (COMPLETED, None)),
    "harmonic_numerov": ("harmonic_numerov.scn", None, None, (COMPLETED, None)),
    "harmonic_node": ("harmonic_numerov.scn", None, (0.5, 0.3, 0.5), (SINGULARITY, "node")),
    "box_exit": ("box.scn", (0.5, 2.0), (18.0, 0.0, 0.0), (DOMAIN_EXIT, None)),
}


@pytest.mark.parametrize("route", [integrate_first_order, integrate_second_order],
                         ids=["first", "second"])
@pytest.mark.parametrize("case", list(COLUMN_CASES))
def test_stored_columns_equal_recomputation(case, route):
    """Every stored column equals the public recomputation at its state,
    bit for bit."""
    name, mixing, r0, ended = COLUMN_CASES[case]
    action, start, config = shipped_route_case(name, mixing, r0)
    tr = route(action, start, config)
    assert (tr.termination.status, tr.termination.kind) == ended
    law = np.array([law_residual(action, st) for st in tr.states])
    energy = np.array([energy_residual(action, st) for st in tr.states])
    grad = np.array([sample(action, st.position).grad_s0 for st in tr.states])
    assert tr.grad_s0.shape == (len(tr.states), 3)
    for stored, recomputed in ((tr.law_residuals, law), (tr.energy_residuals, energy),
                               (tr.grad_s0, grad)):
        assert stored.dtype == recomputed.dtype
        assert stored.tobytes() == recomputed.tobytes()


def count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_first_route_samples_once_per_rhs(monkeypatch):
    """Without an event, each right-hand side (one velocity_field call)
    makes the only sample call: the event check and the columns reuse it."""
    action, start, config = shipped_route_case("free_a2.scn")
    samples = count_calls(monkeypatch, dynamics, "sample")
    rhs = count_calls(monkeypatch, dynamics, "velocity_field")
    tr = integrate_first_order(action, start, config)
    assert tr.termination.status == COMPLETED
    assert rhs[0] >= 6 * (len(tr.states) - 1) + 1
    assert samples[0] == rhs[0]


@pytest.mark.parametrize("case", ["field2d", "harmonic_node"])
def test_first_route_extra_samples_are_bisection_probes(case, monkeypatch):
    """An event adds only the bisection probes, ten halvings of the step."""
    name, mixing, r0, ended = COLUMN_CASES[case]
    action, start, config = shipped_route_case(name, mixing, r0)
    samples = count_calls(monkeypatch, dynamics, "sample")
    rhs = count_calls(monkeypatch, dynamics, "velocity_field")
    probes = count_calls(monkeypatch, dynamics, "_event_margin")
    tr = integrate_first_order(action, start, config)
    assert (tr.termination.status, tr.termination.kind) == ended
    assert probes[0] == 10
    assert samples[0] == rhs[0] + probes[0]


@pytest.mark.parametrize("route", [integrate_first_order, integrate_second_order],
                         ids=["first", "second"])
@pytest.mark.parametrize("case", list(COLUMN_CASES))
def test_integrator_stats_account_for_the_loop(case, route, monkeypatch):
    """The counts a trajectory carries are the calls its loop made: one
    right-hand side per velocity_field call on the first route and per
    evaluate_field on the second, one probe per _event_margin.
    Each attempted step is accepted, rejected, halved or the last one, and
    costs at most six right-hand sides (seven with the event's own)."""
    name, mixing, r0, ended = COLUMN_CASES[case]
    action, start, config = shipped_route_case(name, mixing, r0)
    rhs_name = "velocity_field" if route is integrate_first_order else "evaluate_field"
    rhs = count_calls(monkeypatch, dynamics, rhs_name)
    probes = count_calls(monkeypatch, dynamics, "_event_margin")
    tr = route(action, start, config)
    assert (tr.termination.status, tr.termination.kind) == ended
    stats = tr.stats
    assert (stats.rhs_evals, stats.event_probes) == (rhs[0], probes[0])
    steps = stats.accepted + stats.rejected
    halvings = stats.singular_halvings + stats.domain_halvings
    assert 1 + 6 * steps + halvings <= stats.rhs_evals <= 1 + 6 * (steps + halvings) + 7
    status = tr.termination.status
    events = 1 if status == SINGULARITY else 0
    assert stats.accepted == len(tr.states) - 1 - events
    assert stats.event_probes == 10 * events
    assert (stats.domain_halvings > 0) == (status == DOMAIN_EXIT)


@pytest.mark.parametrize("route", [integrate_first_order, integrate_second_order],
                         ids=["first", "second"])
@pytest.mark.parametrize("name, r0, kind", [
    ("field2d.scn", (math.pi / 2, math.pi / 2, 0.0), "amplitude"),
    ("harmonic_numerov.scn", (0.0, 0.8, 0.6), "node"),
], ids=["field2d-nodal", "harmonic-node-plane"])
def test_start_on_a_node_ends_at_zero(name, r0, kind, route):
    """A run whose starting momentum or first right-hand side meets a node
    ends there without raising: a singularity at t = 0 with no state, and
    the loop's counts."""
    action, start, config = shipped_route_case(name, r0=r0)
    tr = route(action, start, config)
    end = tr.termination
    assert (end.status, end.kind, end.t, end.position) == (SINGULARITY, kind, 0.0, r0)
    assert tr.states == [] and tr.grad_s0.shape == (0, 3)
    assert tr.stats.accepted == 0 and tr.stats.rhs_evals <= 1


def test_integrator_stats_count_a_singular_stage(monkeypatch):
    """A stage that lands on a node halves the step, and is counted so."""
    action, start, config = shipped_route_case("free_a2.scn")
    clean = integrate_first_order(action, start, config).stats
    assert clean.singular_halvings == 0
    original = dynamics.velocity_field
    calls = [0]

    def singular_third_call(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 3:
            raise NodalPoint("a stage on a node")
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "velocity_field", singular_third_call)
    stats = integrate_first_order(action, start, config).stats
    assert stats.singular_halvings == 1
    assert stats.rhs_evals == calls[0]


# ---------------------------------------------------------------------------
# second route: Hamilton's equations in (r, p)
# ---------------------------------------------------------------------------

# The centre start of each route_pair benchmark stratum: (scenario, mixing,
# t_end, start).
ROUTE_CENTRES = {
    "free_a2": ("free_a2.scn", (2.0, 0.0), 5.0, (0.0, 0.0, 0.0)),
    "free_mixed": ("free_a2.scn", (1.5, 0.5), 5.0, (0.0, 0.0, 0.0)),
    "box": ("box.scn", (1.0, 1.0), 5.0, (5.0, 0.0, 0.0)),
    "field2d": ("field2d.scn", (1.0, 0.0), 1.2, (-0.45, -1.3527, 0.0)),
    "harmonic": ("harmonic_numerov.scn", (1.5, 0.5), 2.0, (0.5, 0.3, -0.2)),
}


def route_centre(stratum):
    name, mixing, t_end, start = ROUTE_CENTRES[stratum]
    action, start, config = shipped_route_case(name, mixing, start)
    return action, start, dataclasses.replace(config, t_end=t_end)


def momentum_gap(tr):
    """max over states of |p - grad S0| / max(1, |grad S0|)."""
    p = np.array([st.momentum for st in tr.states])
    return float(np.max(np.abs(p - tr.grad_s0) / np.maximum(1.0, np.abs(tr.grad_s0))))


@pytest.mark.parametrize("stratum", list(ROUTE_CENTRES))
def test_second_route_residuals_on_route_pair_strata(stratum):
    """p stays on grad S0 and H stays on E, and both routes end together."""
    action, start, config = route_centre(stratum)
    first = integrate_first_order(action, start, config)
    second = integrate_second_order(action, start, config)
    assert (first.termination.status, second.termination.status) == (COMPLETED, COMPLETED)
    assert np.max(np.abs(first.final_state.position - second.final_state.position)) < 1e-5
    assert momentum_gap(second) <= 1e-8
    assert second.max_energy_residual < 1e-8 * max(1.0, action.e)
    assert np.array_equal(second.states[0].momentum, second.grad_s0[0])
    assert np.array_equal(second.states[0].velocity, first.states[0].velocity)
    assert first.states[0].momentum is None


@pytest.mark.parametrize("stratum", ["free_a2", "field2d", "harmonic"])
def test_second_route_matches_dop853_oracle(stratum):
    """scipy's DOP853 at rtol 1e-12 on the same right-hand side ends where
    the route does."""
    from scipy.integrate import solve_ivp

    action, start, config = route_centre(stratum)
    tr = integrate_second_order(action, start, config)
    assert tr.termination.status == COMPLETED
    rhs = dynamics._hamilton_rhs(action)
    y0 = np.concatenate((start, sample(action, start).grad_s0))
    oracle = solve_ivp(lambda t, y: rhs(y)[0], (0.0, config.t_end), y0, method="DOP853",
                       rtol=1e-12, atol=1e-12)
    assert oracle.success
    assert np.max(np.abs(oracle.y[:3, -1] - tr.final_state.position)) < 1e-7


def test_second_route_one_field_evaluation_per_rhs(monkeypatch):
    """Each right-hand side (one potential gradient) evaluates the field
    once, with the Hessian, and calls metric_at never; the only other field
    evaluation is the sample that sets p0."""
    action, start, config = route_centre("field2d")
    rhs = count_calls(monkeypatch, SeparablePotential, "gradient")
    rhs_evals = count_calls(monkeypatch, dynamics, "evaluate_field")
    all_evals = count_calls(monkeypatch, schrodinger, "_axis_eval")
    samples = count_calls(monkeypatch, dynamics, "sample")
    metric_calls = count_calls(monkeypatch, metric, "metric_at")
    tr = integrate_second_order(action, start, config)
    assert tr.termination.status == COMPLETED
    assert rhs[0] >= 6 * (len(tr.states) - 1) + 1
    assert rhs_evals[0] == rhs[0]
    assert all_evals[0] == rhs[0] + 1
    assert samples[0] == 1
    assert metric_calls[0] == 0


@pytest.mark.parametrize("t_end", [2.0, 5.0])
def test_second_route_near_metric_corner_agrees_or_stops(t_end):
    """harmonic_numerov at (a, b) = (0.5, 2.0) heads for the corner
    (1, 1, -1), where every a^{mumu} vanishes and dp/dt is quadratic in p.
    The route either completes next to the first route or stops early,
    where the first route run to the same time agrees with it; no column
    holds NaN."""
    action, start, config = shipped_route_case("harmonic_numerov.scn", (0.5, 2.0), (0.5, 0.3, -0.2))
    config = dataclasses.replace(config, t_end=t_end)
    second = integrate_second_order(action, start, config)
    columns = (second.law_residuals, second.energy_residuals, second.grad_s0,
               [st.position for st in second.states], [st.velocity for st in second.states],
               [st.momentum for st in second.states])
    assert all(np.all(np.isfinite(column)) for column in columns)
    t_stop = second.final_state.t
    if second.termination.status != COMPLETED:
        config = dataclasses.replace(config, t_end=t_stop)
    first = integrate_first_order(action, start, config)
    assert first.termination.status == COMPLETED
    assert first.final_state.t == pytest.approx(t_stop, abs=1e-12)
    assert np.max(np.abs(first.final_state.position - second.final_state.position)) < 1e-5
