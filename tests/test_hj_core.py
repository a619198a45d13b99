import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhj3d import (
    NodalPoint,
    OutOfDomain,
    ReducedActionField,
    assemble_field,
    continuity_identity_residual,
    hj_core,
    qshje_from_sample,
    sample,
    solve_axis_analytic,
    sparse_grid,
)
from qhj3d.cli import run_verify
from qhj3d.errors import NODAL, OK
from qhj3d.hj_core import DIVERGENCE_STEP, check_mixing
from qhj3d.scenario import build_action, parse_scenario

from conftest import make_box_field, make_field_2d, make_free_field, zero_pair
from reduction_1d import floyd_residual_1d, s0_derivatives_1d

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


def test_node_rule_is_one_part_in_1e12_of_the_scale():
    """theta' = 1e-300 sin x and phi = cos x near x = pi/2, where the scale
    max(1, |theta'|, |phi|) is 1 and R is the distance to the node: R = 1e-9
    is evaluated and R = 1e-13 is a node (NODAL_EPS = 1e-12), at a point and
    over arrays."""
    action = ReducedActionField(make_free_field(1.0), 1e-300, 0.0)
    near, at_node = (math.pi / 2 + 1e-9, 0.0, 0.0), (math.pi / 2 + 1e-13, 0.0, 0.0)
    assert sample(action, near).amplitude == pytest.approx(1e-9, rel=1e-7)
    with pytest.raises(NodalPoint):
        sample(action, at_node)
    s = sample(action, tuple(np.array(c) for c in zip(near, at_node)))
    assert s.status.tolist() == [OK, NODAL]
    assert s.amplitude[0] == pytest.approx(1e-9, rel=1e-7)


def test_qshje_residual_classical(free_action_a1):
    assert abs(qshje_from_sample(free_action_a1, sample(free_action_a1, (0.3, 0.0, 0.0)))) < 1e-12


def test_qshje_residual_a2(free_action_a2):
    assert abs(qshje_from_sample(free_action_a2, sample(free_action_a2, (0.7, 1.0, 1.0)))) < 1e-10


def test_qshje_residual_2d_grid_sweep():
    action = ReducedActionField(make_field_2d(), 1.5, 0.5)
    worst = 0.0
    for x in np.linspace(-1.5, 1.5, 5):
        for y in np.linspace(-1.5, 1.5, 5):
            for z in np.linspace(-1.5, 1.5, 5):
                worst = max(worst, abs(qshje_from_sample(action, sample(action, (x, y, z)))))
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


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _shipped(name):
    return parse_scenario((SCENARIOS / f"{name}.scn").read_text())


def _inset(bounds):
    """The 3x3x3 subsample of run_verify's divergence check, inset toward
    the centre of bounds."""
    mids = [0.5 * (lo + hi) for lo, hi in bounds]
    return [m + (c - m) * (1.0 - 1e-3) for c, m in zip(sparse_grid(bounds, (3, 3, 3)), mids)]


def _six_call_divergence(action, coords):
    """The divergence mode as six sample calls, one per axis and sign of
    the shift; NaN where any of them is undefined."""
    div = 0.0
    ok = True
    for mu in range(3):
        flux = []
        for step in (DIVERGENCE_STEP, -DIVERGENCE_STEP):
            shifted = list(coords)
            shifted[mu] = coords[mu] + step
            s = sample(action, shifted)
            ok = ok & (s.status == OK)
            flux.append(s.amplitude**2 * s.grad_s0[mu])
        div = div + (flux[0] - flux[1]) / (2.0 * DIVERGENCE_STEP)
    return np.where(ok, abs(div), math.nan)


@pytest.mark.parametrize("name", ["field2d", "box", "harmonic_numerov"])
def test_divergence_over_arrays_equals_six_sample_calls_bitwise(name):
    scenario = _shipped(name)
    action = build_action(scenario)
    coords = _inset(scenario.verify.bounds)
    if name == "box":
        # one more x plane, whose +x copy lies past the wall at 20
        coords[0] = np.append(coords[0], 20.0 - 0.5 * DIVERGENCE_STEP).reshape(-1, 1, 1)
    got = continuity_identity_residual(action, coords, mode="divergence")
    want = _six_call_divergence(action, coords)
    assert got.shape == want.shape == np.broadcast_shapes(*(c.shape for c in coords))
    assert got.tobytes() == want.tobytes()
    undefined = np.isnan(got)
    if name == "box":
        assert undefined[-1].all() and not undefined[:-1].any()
    else:
        assert not undefined.any()


@pytest.mark.parametrize("r, error", [
    ((20.0 - 0.5 * DIVERGENCE_STEP, 0.0, 0.0), OutOfDomain),
    ((0.5 * DIVERGENCE_STEP, 0.0, 0.0), OutOfDomain),
])
def test_divergence_at_a_point_raises_near_a_wall(r, error):
    action = build_action(_shipped("box"))
    sample(action, r)
    with pytest.raises(error):
        continuity_identity_residual(action, r, mode="divergence")


def test_divergence_at_a_point_raises_on_a_shifted_node():
    """The +x copy of r lands on field2d's node at (pi/2, pi/2, 0)."""
    action = build_action(_shipped("field2d"))
    r = (math.pi / 2 - DIVERGENCE_STEP, math.pi / 2, 0.0)
    sample(action, r)
    with pytest.raises(NodalPoint):
        continuity_identity_residual(action, r, mode="divergence")


def test_run_verify_evaluates_the_field_twice(monkeypatch):
    """One field evaluation for the grid and one for the six shifted copies
    of the divergence subsample."""
    calls = []
    evaluate = hj_core.evaluate_field
    monkeypatch.setattr(hj_core, "evaluate_field", lambda *a, **k: calls.append(a[1]) or evaluate(*a, **k))
    run_verify(_shipped("harmonic_numerov"))
    assert len(calls) == 2


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
    s1, s2, s3, _ = s0_derivatives_1d(free_action_a2, x)
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
        res = qshje_from_sample(action, sample(action, (x, y, 0.5)))
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
    assert qshje_from_sample(act_c, s_c) == pytest.approx(qshje_from_sample(act, s), abs=1e-11)
