"""Acceptance suite: every shipped guarantee at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion. Tolerances are pinned here, not configurable."""

import math
import time

import numpy as np
import pytest

from qhj3d import (
    IntegratorConfig,
    ReducedActionField,
    canonical_jacobian,
    continuity_identity_from_sample,
    continuity_identity_residual,
    integrate_first_order,
    integrate_second_order,
    metric_at,
    qshje_from_sample,
    sample,
    solve_axis_numerov,
    sparse_grid,
    velocity_field,
    wronskian,
)
from qhj3d.dynamics import COMPLETED
from qhj3d.errors import OK, QhjError
from qhj3d.metric import JacobianMatrix, verify_transformation
from qhj3d.potentials import Free, HarmonicOscillator

from conftest import make_box_field, make_free_field
from reduction_1d import (fm_factor_1d, floyd_residual_1d, reduce_1d_check, s0_derivatives_1d,
                          schwarzian_1d)

MIXINGS = ((1.0, 0.0), (2.0, 0.0), (1.5, 0.5), (3.0, -1.0), (0.5, 2.0))


def sweep(action, bounds, n):
    """Max |qshje| and max identity-continuity over an n^3 grid, skipping
    nodal/singular points."""
    s = sample(action, sparse_grid(bounds, (n, n, n)))
    used = s.status == OK
    assert np.count_nonzero(used) > 0.8 * n**3
    max_q = float(np.max(np.abs(qshje_from_sample(action, s))[used]))
    max_c = float(np.max(continuity_identity_from_sample(action, s)[used]))
    return max_q, max_c


@pytest.fixture(scope="module")
def analytic_sweeps(free_field, field_2d):
    """Shared 21^3 sweeps for criteria 1 and 2: 5 mixings x 2 fields."""
    results = {}
    for a, b in MIXINGS:
        for name, field, bounds in (("free", free_field, ((-3, 3),) * 3),
                                    ("2d", field_2d, ((-2, 2),) * 3)):
            action = ReducedActionField(field, a, b)
            t0 = time.perf_counter()
            max_q, max_c = sweep(action, bounds, 21)
            results[(name, a, b)] = (max_q, max_c, time.perf_counter() - t0)
    return results


@pytest.fixture(scope="module")
def trajectory_set(free_field, field_2d):
    """Criteria 3-5 share these runs: four completing scenarios plus the
    node-terminated 2D one."""
    free_k2 = make_free_field(k=2.0)
    box20 = make_box_field(20.0, 1)
    runs = [
        ("free a=1", ReducedActionField(free_field, 1.0, 0.0), (0.0, 0.0, 0.0),
         IntegratorConfig(t_end=5.0)),
        ("free a=2", ReducedActionField(free_field, 2.0, 0.0), (0.0, 0.0, 0.0),
         IntegratorConfig(t_end=5.0)),
        ("free k=2 mixed", ReducedActionField(free_k2, 1.5, 0.5), (0.0, 0.0, 0.0),
         IntegratorConfig(t_end=5.0)),
        ("box L=20", ReducedActionField(box20, 1.0, 1.0), (5.0, 0.0, 0.0),
         IntegratorConfig(t_end=5.0)),
        ("2d", ReducedActionField(field_2d, 1.0, 0.0), (0.3, 0.9, 0.0),
         IntegratorConfig(t_end=5.0, singularity_eps=1e-3)),
    ]
    return [(name, action, r0, cfg, integrate_first_order(action, r0, cfg))
            for name, action, r0, cfg in runs]


def test_c1_qshje_solution_property(analytic_sweeps, harmonic_action):
    for (name, a, b), (max_q, _, elapsed) in analytic_sweeps.items():
        assert max_q < 1e-9, f"{name} (a={a}, b={b}): {max_q:.3e}"
        assert elapsed < 10.0
    t0 = time.perf_counter()
    max_q, _ = sweep(harmonic_action, ((-2, 2),) * 3, 11)
    elapsed = time.perf_counter() - t0
    assert max_q < 1e-9
    assert elapsed < 10.0
    worst = max(v[0] for v in analytic_sweeps.values())
    print(f"\n[acceptance] C1 qshje residual: PASS "
          f"(analytic max {worst:.2e} < 1e-9, numerov max {max_q:.2e} < 1e-9)")


def test_c2_continuity_law(analytic_sweeps, field_2d):
    worst_id = max(v[1] for v in analytic_sweeps.values())
    assert worst_id < 1e-13
    action = ReducedActionField(field_2d, 3.0, -1.0)
    div = continuity_identity_residual(action, sparse_grid(((-1, 1),) * 3, (3, 3, 3)),
                                       mode="divergence")
    worst_div = float(np.max(div))
    assert worst_div < 1e-5
    print(f"\n[acceptance] C2 continuity law: PASS "
          f"(identity max {worst_id:.2e} < 1e-13, divergence max {worst_div:.2e} < 1e-5)")


def test_c3_law_of_motion(trajectory_set, free_field):
    completed = 0
    worst = 0.0
    for name, action, _, cfg, tr in trajectory_set:
        bound = 1e-8 * max(1.0, 2.0 * action.e)
        assert tr.max_law_residual < bound, f"{name}: {tr.max_law_residual:.3e}"
        worst = max(worst, tr.max_law_residual)
        if tr.termination.status == COMPLETED:
            completed += 1
            assert tr.final_state.t == pytest.approx(cfg.t_end)
    assert completed >= 4
    # closed-form speed of the a=2 field at 100 points
    action = ReducedActionField(free_field, 2.0, 0.0)
    dev = max(abs(velocity_field(action, (x, 0.0, 0.0))[0][0]
                  - 0.5 * (1.0 + 3.0 * math.sin(x) ** 2))
              for x in np.linspace(0.0, 2.0 * math.pi, 100))
    assert dev < 1e-8
    print(f"\n[acceptance] C3 law of motion: PASS "
          f"({completed} scenarios completed t_end, max residual {worst:.2e}, "
          f"closed-form speed dev {dev:.2e} < 1e-8)")


def test_c4_conservation(trajectory_set):
    worst = 0.0
    for name, action, _, _, tr in trajectory_set:
        bound = 1e-8 * max(1.0, action.e)
        assert tr.max_energy_residual < bound, f"{name}: {tr.max_energy_residual:.3e}"
        worst = max(worst, tr.max_energy_residual)
    print(f"\n[acceptance] C4 conservation: PASS (max energy residual {worst:.2e})")


def test_c5_two_route_equivalence(trajectory_set, field_2d):
    worst = 0.0
    checked = 0
    for name, action, r0, cfg, tr in trajectory_set:
        if tr.termination.status != COMPLETED:
            continue
        tr2 = integrate_second_order(action, r0, cfg)
        assert tr2.termination.status == COMPLETED, name
        gap = float(np.max(np.abs(tr.final_state.position - tr2.final_state.position)))
        assert gap < 1e-5, f"{name}: {gap:.3e}"
        worst = max(worst, gap)
        checked += 1
    # a genuinely 2D pair on a horizon that completes before any node event
    action = ReducedActionField(field_2d, 1.0, 0.0)
    cfg = IntegratorConfig(t_end=1.2, singularity_eps=1e-3)
    ta = integrate_first_order(action, (-0.45, -1.3527, 0.0), cfg)
    tb = integrate_second_order(action, (-0.45, -1.3527, 0.0), cfg)
    assert ta.termination.status == COMPLETED and tb.termination.status == COMPLETED
    gap = float(np.max(np.abs(ta.final_state.position - tb.final_state.position)))
    assert gap < 1e-5
    checked += 1
    print(f"\n[acceptance] C5 two-route equivalence: PASS "
          f"({checked} comparisons, worst positional gap {max(worst, gap):.2e} < 1e-5)")


def test_c6_twelve_equation_transformation(free_field, field_2d, harmonic_action):
    rng = np.random.default_rng(2024)
    actions = [
        (ReducedActionField(free_field, 2.0, 0.0), lambda: (rng.uniform(-3, 3), 0.0, 0.0)),
        (ReducedActionField(field_2d, 1.5, 0.5), lambda: (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)),
        (harmonic_action, lambda: tuple(rng.uniform(-0.8, 0.8, 3))),
    ]
    points = []
    while len(points) < 100:
        action, draw = actions[len(points) % len(actions)]
        r = draw()
        try:
            met = metric_at(action, r)
        except QhjError:
            continue
        if np.all(met.a_upper > 0) and np.max(met.a_upper) < 100.0:
            points.append((action, met))
    worst = 0.0
    for action, met in points:
        jac = canonical_jacobian(met)
        worst = max(worst, float(np.max(verify_transformation(jac, met))))
        for _ in range(10):
            m = rng.normal(size=(3, 3))
            q_mat, r_mat = np.linalg.qr(m)
            q_mat = q_mat @ np.diag(np.sign(np.diag(r_mat)))
            rotated = JacobianMatrix(jac.entries @ q_mat)
            worst = max(worst, float(np.max(verify_transformation(rotated, met))))
    assert worst < 1e-12
    print(f"\n[acceptance] C6 twelve-equation transformation: PASS "
          f"(100 points x 11 gauges, max residual {worst:.2e} < 1e-12)")


def test_c7_1d_consistency_triad(free_field, box_field):
    actions = [ReducedActionField(free_field, 2.0, 0.0),
               ReducedActionField(box_field, 1.0, 1.0)]
    grids = [np.linspace(-3.0, 3.0, 100), np.linspace(0.1, 2.9, 100)]
    worst_triad = worst_floyd = 0.0
    for action, xs in zip(actions, grids):
        hbar = action.hbar
        for x in xs:
            fm = fm_factor_1d(action, x)
            a_xx = metric_at(action, (x, 0.0, 0.0)).a_upper[0]
            s1, s2, s3, _ = s0_derivatives_1d(action, x)
            schw = 1.0 + 0.5 * hbar**2 / s1**2 * schwarzian_1d(s1, s2, s3)
            worst_triad = max(worst_triad, abs(fm - a_xx), abs(fm - schw), abs(a_xx - schw))
            worst_floyd = max(worst_floyd, abs(floyd_residual_1d(action, x)))
    assert worst_triad < 1e-9
    assert worst_floyd < 1e-9
    print(f"\n[acceptance] C7 1d consistency triad: PASS "
          f"(200 points, triad gap {worst_triad:.2e}, floyd {worst_floyd:.2e} < 1e-9)")


def test_c8_classical_reduction(free_field):
    action = ReducedActionField(free_field, 1.0, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = metric_at(action, (rng.uniform(-4, 4), rng.uniform(-2, 2), rng.uniform(-2, 2)))
        assert np.max(np.abs(m.a_upper - 1.0)) < 1e-12
    tr = integrate_first_order(action, (0.2, 0.0, 0.0), IntegratorConfig(t_end=5.0))
    hbar_k_over_m = 1.0
    assert abs(tr.final_state.position[0] - (0.2 + hbar_k_over_m * 5.0)) < 1e-9
    red = reduce_1d_check(action, tr)
    assert red < 1e-12
    print(f"\n[acceptance] C8 classical reduction: PASS "
          f"(identity metric, straight line, 1d law residual {red:.2e} < 1e-12)")


def test_c9_schrodinger_backend():
    t0 = time.perf_counter()
    pair = solve_axis_numerov(Free(), 0.5, (0.0, 10.0), 1e-3, (1.0, 0.0), (0.0, 1.0))
    xs = np.linspace(0.0, 10.0, 501)
    dev = max(max(abs(pair.basis.value(x)[0] - math.cos(x)) for x in xs),
              max(abs(pair.basis.value(x)[1] - math.sin(x)) for x in xs))
    assert dev < 1e-8
    drift = max(abs(wronskian(pair, x) - pair.wronskian_ref) for x in xs) / abs(pair.wronskian_ref)
    assert drift < 1e-9
    ho = HarmonicOscillator(omega=1.0, mass=1.0)
    ground = solve_axis_numerov(ho, 0.5, (-4.0, 4.0), 1e-3, (1.0, 0.0), (0.0, 1.0), ic_at=0.0)
    rel = max(abs(ground.basis.value(x)[0] / math.exp(-x * x / 2) - 1.0)
              for x in np.linspace(-3, 3, 601))
    assert rel < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[acceptance] C9 schrodinger backend: PASS "
          f"(trig dev {dev:.2e} < 1e-8, drift {drift:.2e} < 1e-9, "
          f"ground state {rel:.2e} < 1e-6, {elapsed:.2f}s < 5s)")
