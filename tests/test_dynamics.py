import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhj3d import (
    IntegratorConfig,
    ReducedActionField,
    TrajectoryState,
    energy_residual,
    integrate_first_order,
    integrate_second_order,
    law_residual,
    quantum_lagrangian,
    reduce_1d_check,
    sample,
    velocity_field,
)
from qhj3d.dynamics import COMPLETED, DOMAIN_EXIT, SINGULARITY

from conftest import make_box_field, make_field_2d


def state(t, r, v):
    return TrajectoryState(t, np.asarray(r, dtype=float), np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# velocity field and pointwise residuals
# ---------------------------------------------------------------------------

def test_velocity_classical_plane_wave(free_action_a1):
    for r in ((0.0, 0.0, 0.0), (2.0, 1.0, -1.0)):
        assert velocity_field(free_action_a1, r) == pytest.approx([1.0, 0.0, 0.0])


def test_velocity_a2_chain(free_action_a2):
    v0 = velocity_field(free_action_a2, (0.0, 0.0, 0.0))
    assert v0 == pytest.approx([0.5, 0.0, 0.0])
    s = sample(free_action_a2, (0.0, 0.0, 0.0))
    assert float(v0 @ s.grad_s0) == pytest.approx(2 * free_action_a2.e)

    v1 = velocity_field(free_action_a2, (math.pi / 2, 0.0, 0.0))
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


def test_quantum_lagrangian_values(free_action_a1, free_action_a2):
    assert quantum_lagrangian(free_action_a1, state(0, (0, 0, 0), (1, 0, 0))) == pytest.approx(0.5)
    assert quantum_lagrangian(free_action_a2, state(0, (0, 0, 0), (0.5, 0, 0))) == pytest.approx(0.5)


def test_lagrangian_energy_identity(free_action_a2, harmonic_action):
    """L_q = energy_residual + E - 2V, so L_q + V = E - V on shell."""
    cases = [(free_action_a2, (0.7, 0.0, 0.0)), (harmonic_action, (0.5, 0.3, -0.2))]
    for action, r in cases:
        v = velocity_field(action, r)
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
        v_fwd = velocity_field(ReducedActionField(field, a, b), (x, y, 0.0))
        v_bwd = velocity_field(ReducedActionField(field, -a, -b), (x, y, 0.0))
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
        v_here = velocity_field(free_action_a2, (x, 0.0, 0.0))[0]
        v_there = velocity_field(free_action_a2, (x + math.pi, 0.0, 0.0))[0]
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
