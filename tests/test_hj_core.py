import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhj3d import (
    NodalPoint,
    ReducedActionField,
    assemble_field,
    continuity_identity_residual,
    floyd_residual_1d,
    qshje_residual,
    s0_derivatives_1d,
    sample,
    solve_axis_analytic,
)
from qhj3d.hj_core import check_mixing

from conftest import make_box_field, make_field_2d, zero_pair

mixings = st.tuples(
    st.floats(min_value=0.05, max_value=10.0),
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=-10.0, max_value=10.0),
)


def test_a_zero_rejected(free_field):
    with pytest.raises(ValueError):
        ReducedActionField(free_field, 0.0, 1.0)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (math.nan, 1.0), (math.inf, 0.0), (1.0, math.nan),
                                  (1e300, 0.0), (1.0, -1e300)])
def test_check_mixing_rejects(a, b):
    with pytest.raises(ValueError):
        check_mixing(a, b)


def test_sample_classical_gauge(free_action_a1):
    s = sample(free_action_a1, (0.37, -4.0, 2.0))
    assert s.grad_s0 == pytest.approx([1.0, 0.0, 0.0])
    assert s.amplitude == pytest.approx(1.0)
    assert s.hessian_r_diag == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_sample_a2_at_origin(free_action_a2):
    s = sample(free_action_a2, (0.0, 0.0, 0.0))
    assert s.grad_s0 == pytest.approx([2.0, 0.0, 0.0])
    assert s.amplitude == pytest.approx(1.0)
    assert s.hessian_r_diag == pytest.approx([3.0, 0.0, 0.0])


def test_sample_a2_at_quarter_period(free_action_a2):
    s = sample(free_action_a2, (math.pi / 2, 0.0, 0.0))
    assert s.grad_s0 == pytest.approx([0.5, 0.0, 0.0])
    assert s.amplitude == pytest.approx(2.0)
    assert s.hessian_r_diag == pytest.approx([-1.5, 0.0, 0.0])


def test_principal_branch_range(free_action_a2):
    for x in np.linspace(-7, 7, 113):
        s = sample(free_action_a2, (x, 0.0, 0.0))
        assert -math.pi / 2 < s.s0_principal / free_action_a2.hbar <= math.pi / 2


def test_nodal_point_raises():
    action = ReducedActionField(make_field_2d(), 1.0, 0.0)
    with pytest.raises(NodalPoint):
        sample(action, (math.pi / 2, math.pi / 2, 0.0))


def test_qshje_residual_classical(free_action_a1):
    assert abs(qshje_residual(free_action_a1, (0.3, 0.0, 0.0))) < 1e-12


def test_qshje_residual_a2(free_action_a2):
    assert abs(qshje_residual(free_action_a2, (0.7, 1.0, 1.0))) < 1e-10


def test_qshje_residual_2d_grid_sweep():
    action = ReducedActionField(make_field_2d(), 1.5, 0.5)
    worst = 0.0
    for x in np.linspace(-1.5, 1.5, 5):
        for y in np.linspace(-1.5, 1.5, 5):
            for z in np.linspace(-1.5, 1.5, 5):
                worst = max(worst, abs(qshje_residual(action, (x, y, z))))
    assert worst < 1e-9


def test_continuity_identity_mode(free_action_a2):
    assert continuity_identity_residual(free_action_a2, (0.9, -0.6, 0.1)) < 1e-13


def test_continuity_divergence_mode_free(free_action_a1):
    assert continuity_identity_residual(free_action_a1, (1.0, 1.0, 1.0), mode="divergence") < 1e-6


def test_continuity_divergence_mode_2d_grid():
    action = ReducedActionField(make_field_2d(), 3.0, -1.0)
    worst = 0.0
    for x in np.linspace(-1.0, 1.0, 3):
        for y in np.linspace(-1.0, 1.0, 3):
            for z in np.linspace(-1.0, 1.0, 3):
                worst = max(worst, continuity_identity_residual(action, (x, y, z), mode="divergence"))
    assert worst < 1e-5


def test_floyd_residual_classical(free_action_a1):
    assert abs(floyd_residual_1d(free_action_a1, 1.234)) < 1e-12


def test_floyd_residual_a2(free_action_a2):
    assert abs(floyd_residual_1d(free_action_a2, 0.4)) < 1e-9


def test_floyd_residual_box():
    action = ReducedActionField(make_box_field(3.0, 2), 1.0, 1.0)
    assert abs(floyd_residual_1d(action, 1.0)) < 1e-9


def test_floyd_requires_1d_field():
    action = ReducedActionField(make_field_2d(), 1.0, 0.0)
    with pytest.raises(ValueError):
        floyd_residual_1d(action, 0.3)


def test_s0_derivatives_match_finite_differences(free_action_a2):
    x = 0.8
    s1, s2, s3 = s0_derivatives_1d(free_action_a2, x)
    h = 1e-4
    vals = [s0_derivatives_1d(free_action_a2, x + i * h)[0] for i in (-2, -1, 0, 1, 2)]
    fd2 = (vals[3] - vals[1]) / (2 * h)
    fd3 = (vals[3] - 2 * vals[2] + vals[1]) / h**2
    assert s2 == pytest.approx(fd2, rel=1e-7)
    assert s3 == pytest.approx(fd3, rel=1e-5)


def test_grad_s0_matches_branch_continued_finite_difference(free_action_a2):
    """Central difference of S0 with the pi*hbar branch jump folded out."""
    hbar = free_action_a2.hbar
    period = math.pi * hbar
    h = 1e-5
    for x in (0.3, 1.2, 2.8):
        sp = sample(free_action_a2, (x + h, 0.0, 0.0))
        sm = sample(free_action_a2, (x - h, 0.0, 0.0))
        diff = sp.s0_principal - sm.s0_principal
        diff = (diff + period / 2) % period - period / 2
        fd = diff / (2 * h)
        grad = sample(free_action_a2, (x, 0.0, 0.0)).grad_s0[0]
        assert fd == pytest.approx(grad, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(mix=mixings, x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0))
def test_qshje_residual_any_mixing(mix, x, y):
    mag, sign, b = mix
    action = ReducedActionField(make_field_2d(), mag * sign, b)
    try:
        res = qshje_residual(action, (x, y, 0.5))
    except NodalPoint:
        assume(False)
    assert abs(res) < 1e-9


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=20.0), sign=st.sampled_from((-1.0, 1.0)),
       x=st.floats(-2.0, 2.0))
def test_common_scaling_invariance(c, sign, x):
    """Scaling theta and phi together rescales R and leaves S0 physics alone."""
    c = c * sign
    pairs = [solve_axis_analytic("free", {"k": 1.0}, axis="x"), zero_pair("y"), zero_pair("z")]
    base = assemble_field(pairs, [(1.0, ("u1", "u1", "u1"))], [(1.0, ("u2", "u1", "u1"))])
    scaled = assemble_field(pairs, [(c, ("u1", "u1", "u1"))], [(c, ("u2", "u1", "u1"))])
    act = ReducedActionField(base, 2.0, 0.5)
    act_c = ReducedActionField(scaled, 2.0, 0.5)
    r = (x, 0.0, 0.0)
    s, s_c = sample(act, r), sample(act_c, r)
    assert s_c.grad_s0 == pytest.approx(s.grad_s0, rel=1e-12)
    assert s_c.amplitude == pytest.approx(abs(c) * s.amplitude, rel=1e-12)
    assert qshje_residual(act_c, r) == pytest.approx(qshje_residual(act, r), abs=1e-11)
