"""The array kernel against the single-point path, point by point.

Over arrays sample and a_upper_from_sample report a status per point;
at a point the same code raises the matching exception instead, and skips
the masking that arrays need. On every shipped scenario's verify grid, and
on grids widened to reach nodes and domain edges, the status must be the
exception the point path raises, a NodeSingularity must name the axis the
arrays find singular, and every value must agree to 1e-12. The same holds
for the rows of a metric report, which evaluates its batch in one call.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

from qhj3d import (
    a_upper_from_sample,
    canonical_jacobian,
    continuity_identity_from_sample,
    hj_core,
    metric_at,
    qshje_from_sample,
    sample,
    sparse_grid,
    velocity_field,
    verify_transformation,
)
from qhj3d.cli import run_metric
from qhj3d.hj_core import MOMENTUM_EPS
from qhj3d.metric import TWELVE_EQUATION_LABELS
from qhj3d.errors import (
    NODAL,
    NODE_SINGULAR,
    OK,
    OUT_OF_DOMAIN,
    NodalPoint,
    NodeSingularity,
    NonRiemannianPoint,
    OutOfDomain,
    QhjError,
)
from qhj3d.scenario import build_action, parse_scenario
from qhj3d.schrodinger import evaluate_field

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SHIPPED = ("box", "field2d", "free_a2", "free_classical", "harmonic_numerov")
STATUS_OF = {NodalPoint: NODAL, NodeSingularity: NODE_SINGULAR, OutOfDomain: OUT_OF_DOMAIN}
HALF_PI = np.pi / 2

# (scenario, bounds, grid): past the box walls at 0 and 20, past the Numerov
# tables at +-4 and across their node planes, and through field2d's nodal
# points (+-pi/2, -+pi/2) and (pi/2, pi/2).
WIDENED = (
    ("box", ((-1.0, 21.0), (-2.0, 2.0), (-2.0, 2.0)), (12, 3, 3)),
    ("harmonic_numerov", ((-4.5, 4.5),) * 3, (9, 9, 9)),
    ("field2d", ((-HALF_PI, HALF_PI), (-HALF_PI, HALF_PI), (-1.0, 1.0)), (9, 9, 3)),
)


def _load(name):
    with open(os.path.join(SCENARIOS, f"{name}.scn")) as handle:
        return parse_scenario(handle.read())


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _singular_axes(action, s, idx):
    """The axes along which the array sample s is node-singular at idx:
    d_mu S0 below MOMENTUM_EPS with a quantum correction that is not flat."""
    p_scale = max(1.0, 2.0 * action.m0 * abs(action.e))
    return [mu for mu in range(3)
            if abs(s.grad_s0[mu][idx]) < MOMENTUM_EPS
            and abs(action.hbar**2 * s.hessian_r_diag[mu][idx] / s.amplitude[idx]) > MOMENTUM_EPS * p_scale]


def _check(name, bounds, grid):
    action = build_action(_load(name))
    s = sample(action, sparse_grid(bounds, grid))
    qshje = qshje_from_sample(action, s)
    continuity = continuity_identity_from_sample(action, s)
    a_upper, status = a_upper_from_sample(action, s)
    assert status.shape == tuple(grid)

    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, grid)]
    seen = set()
    for idx in np.ndindex(*grid):
        r = tuple(float(ax[i]) for ax, i in zip(axes, idx))
        try:
            point = sample(action, r)
        except tuple(STATUS_OF) as exc:
            assert status[idx] == STATUS_OF[type(exc)], (r, exc)
            seen.add(int(status[idx]))
            continue
        for field in ("s0_principal", "amplitude", "v"):
            assert _close(np.broadcast_to(getattr(s, field), grid)[idx], getattr(point, field)), (r, field)
        for field in ("grad_s0", "hessian_r_diag"):
            for mu in range(3):
                value = np.broadcast_to(getattr(s, field)[mu], grid)[idx]
                assert _close(value, getattr(point, field)[mu]), (r, field, mu)
        assert _close(qshje[idx], qshje_from_sample(action, point)), r
        assert _close(continuity[idx], continuity_identity_from_sample(action, point)), r
        try:
            metric = metric_at(action, r)
        except NodeSingularity as exc:
            assert status[idx] == NODE_SINGULAR, (r, exc)
            assert exc.axis == _singular_axes(action, s, idx)[0], (r, exc)
            seen.add(NODE_SINGULAR)
            continue
        assert status[idx] == OK, r
        assert _singular_axes(action, s, idx) == [], r
        for mu in range(3):
            assert _close(a_upper[mu][idx], metric.a_upper[mu]), (r, mu)
        seen.add(OK)
    return seen


@pytest.mark.parametrize("name", SHIPPED)
def test_kernel_matches_point_path_on_verify_grid(name):
    spec = _load(name).verify
    seen = _check(name, spec.bounds, spec.grid)
    assert OK in seen


def test_kernel_matches_point_path_past_nodes_and_edges():
    seen = set()
    for name, bounds, grid in WIDENED:
        seen |= _check(name, bounds, grid)
    assert seen == {OK, NODAL, NODE_SINGULAR, OUT_OF_DOMAIN}


def _point_row(action, r):
    """The report row of r built from the point path alone: metric_at,
    canonical_jacobian and verify_transformation at the point."""
    try:
        met = metric_at(action, r)
    except QhjError as exc:
        return {"point": list(r), "error": f"{type(exc).__name__}: {exc}"}
    row = {"point": list(r), "a_upper": met.a_upper.tolist(), "a_lower": met.a_lower.tolist(),
           "signature": "".join(met.signature)}
    try:
        jac = canonical_jacobian(met)
    except NonRiemannianPoint as exc:
        row.update(jacobian=None, error=f"NonRiemannianPoint: signature {''.join(exc.signature)}")
        return row
    residuals = verify_transformation(jac, met)
    row.update(jacobian=jac.entries.tolist(), residuals=dict(zip(TWELVE_EQUATION_LABELS, residuals.tolist())),
               max_residual=float(np.max(residuals)))
    return row


def _same(batch, point):
    """Report values equal to 1e-12 (texts exactly), recursively."""
    if isinstance(point, dict):
        return batch.keys() == point.keys() and all(_same(batch[k], point[k]) for k in point)
    if isinstance(point, list):
        return len(batch) == len(point) and all(_same(b, p) for b, p in zip(batch, point))
    if isinstance(point, float):
        return batch == point or (math.isnan(batch) and math.isnan(point)) or _close(batch, point)
    return batch == point


REASON_OF = {"NodalPoint": "nodal", "NodeSingularity": "node_singular", "OutOfDomain": "out_of_domain",
             "NonRiemannianPoint": "non_riemannian", None: "ok"}


def _check_metric_rows(name, bounds, grid):
    scenario = _load(name)
    action = build_action(scenario)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, grid)]
    points = [tuple(float(ax[i]) for ax, i in zip(axes, idx)) for idx in np.ndindex(*grid)]
    rows = run_metric(scenario, points)["points"]
    assert len(rows) == len(points)
    reasons = set()
    for row, r in zip(rows, points):
        reason = row.pop("reason")
        point = _point_row(action, r)
        assert _same(row, point), (r, row, point)
        assert reason == REASON_OF[point["error"].split(":")[0] if "error" in point else None], (r, reason)
        reasons.add(reason)
    return reasons


@pytest.mark.parametrize("name", SHIPPED)
def test_metric_rows_match_point_path_on_verify_grid(name):
    spec = _load(name).verify
    assert "ok" in _check_metric_rows(name, spec.bounds, spec.grid)


def test_metric_rows_match_point_path_past_nodes_and_edges():
    reasons = set()
    for name, bounds, grid in WIDENED:
        reasons |= _check_metric_rows(name, bounds, grid)
    assert reasons == set(REASON_OF.values())


def test_metric_batch_evaluates_the_field_once_plus_once_per_flagged_row(monkeypatch):
    """One evaluate_field for the batch, and one more for each nodal,
    node-singular or out-of-domain row (its error comes from the point
    alone); a non-Riemannian row needs none."""
    calls = []
    evaluate = hj_core.evaluate_field
    monkeypatch.setattr(hj_core, "evaluate_field", lambda *a, **k: calls.append(a[1]) or evaluate(*a, **k))
    harmonic = _load("harmonic_numerov")
    points = [(0.5, 0.3, -0.2), (1.8, 0.4, 0.3), (0.0, 0.8, 0.6), (4.7, 0.3, -0.2), (0.1, 0.2, 0.3)]
    rows = run_metric(harmonic, points)["points"]
    assert [row["reason"] for row in rows] == ["ok", "non_riemannian", "node_singular", "out_of_domain", "ok"]
    assert len(calls) == 3
    assert [c.shape for c in calls[0]] == [(5,)] * 3
    assert calls[1:] == [(0.0, 0.8, 0.6), (4.7, 0.3, -0.2)]


# ---------------------------------------------------------------------------
# floats at a point
# ---------------------------------------------------------------------------

# A point may be given as any 3-sequence; the kernel reads it as floats.
POINT_FORMS = (tuple, list, np.array)
JETS = ("hessian_theta", "hessian_phi")


def _leaves(value, path=""):
    """(path, leaf) for every entry of nested records, tuples and lists."""
    if hasattr(value, "_fields"):
        for name in value._fields:
            yield from _leaves(getattr(value, name), f"{path}.{name}")
    elif isinstance(value, (tuple, list)):
        for i, entry in enumerate(value):
            yield from _leaves(entry, f"{path}[{i}]")
    else:
        yield path, value


@pytest.mark.parametrize("name", SHIPPED)
def test_point_path_is_floats_in_and_floats_out(name):
    """At a point given as a tuple, a list or an ndarray, the field
    evaluations without and with the Hessian, sample,
    a_upper_from_sample and velocity_field hold Python floats in every
    per-axis entry, never np.float64, and equal values for the three
    forms. velocity_field's velocity is the one array."""
    s = _load(name)
    action = build_action(s)
    seen = []
    for form in POINT_FORMS:
        r = form(s.trajectory.r0)
        smp = sample(action, r)
        velocity, at_v, a_upper_v = velocity_field(action, r)
        assert type(velocity) is np.ndarray and velocity.dtype == np.float64 and velocity.shape == (3,)
        out = (evaluate_field(action.field, r), evaluate_field(action.field, r, hessian=True), smp,
               a_upper_from_sample(action, smp), at_v, a_upper_v)
        for path, leaf in _leaves(out):
            if path.endswith(".status") or path == "[3][1]":
                assert type(leaf) is int and leaf == OK, path
            elif leaf is None:  # the Hessians of an evaluation without hessian=True
                assert not path.startswith("[1].") and path.endswith(JETS), path
            else:
                assert type(leaf) is float, (path, type(leaf))
        seen.append((out, velocity.tolist()))
    assert seen[0] == seen[1] == seen[2]


# The first route's point evaluator (hj_core._point_evaluator) against the
# chain it replaces in the trajectory loop: sample, a_upper_from_sample and
# v^mu = a^{mumu} d_mu S0 / m0.

ALL_SHIPPED = tuple(sorted(name[:-4] for name in os.listdir(SCENARIOS) if name.endswith(".scn")))

# Points where S0, R or a^{mumu} is undefined or at an edge, per scenario,
# and the exceptions they must raise among them. The free scenarios are flat
# along y and z everywhere. Near field2d's node R is the distance to it, so
# x offsets of 7.5e-13 and 1.5e-12 put R at 0.75 and 1.5 times the nodal
# threshold.
_NUMEROV_EDGES = (
    [(0.0, 0.3, -0.2), (0.5, 0.0, 0.7), (-1.1, 0.4, 0.0), (0.0, 0.0, 0.0),
     (4.5, 0.3, -0.2), (0.1, -4.2, 0.0), (4.0, 0.0, 1.0), (-4.0, -4.0, -4.0)],
    {NodeSingularity, OutOfDomain},
)
EDGES = {
    "box": ([(-0.5, 0.0, 0.0), (21.0, 0.3, -0.2), (0.0, 0.0, 0.0), (20.0, 1.0, 1.0), (10.0, 50.0, -50.0)],
            {OutOfDomain}),
    "field2d": ([(HALF_PI, -HALF_PI, z) for z in (-1.5, 0.0, 0.4)]
                + [(-HALF_PI, HALF_PI, 0.0), (HALF_PI, HALF_PI, 0.0)]
                + [(HALF_PI + dx, -HALF_PI, 0.2) for dx in (7.5e-13, 1.5e-12)], {NodalPoint}),
    "free_a2": ([(0.0, 0.0, 0.0), (math.pi, 7.0, -9.0), (HALF_PI, 0.0, 0.0)], set()),
    "free_classical": ([(0.0, 0.0, 0.0), (math.pi, 7.0, -9.0), (HALF_PI, 0.0, 0.0)], set()),
    "harmonic_numerov": _NUMEROV_EDGES,
    "tabulated_harmonic": _NUMEROV_EDGES,
}


def _chain(action, r):
    """(v, s, a_upper) at r from sample and a_upper_from_sample, with s cut
    to the record the evaluator returns."""
    s = sample(action, r)
    a_upper, _ = a_upper_from_sample(action, s)
    v = [a * ds / action.m0 for a, ds in zip(a_upper, s.grad_s0)]
    return v, hj_core.PointSample(s.grad_s0, s.amplitude, s.v), a_upper


def _outcome(evaluate, r):
    """Every value as (path, type, bits), or the exception's class, message
    and axis."""
    try:
        out = evaluate(r)
    except QhjError as exc:
        return type(exc), str(exc), getattr(exc, "axis", None)
    return [(path, type(x), x.hex()) for path, x in _leaves(out)]


def _scaled(name):
    """The shipped scenario in other units, hbar 0.7 and m0 1.3, where no
    product by hbar, hbar^2 or 1/m0 is exact."""
    with open(os.path.join(SCENARIOS, f"{name}.scn")) as handle:
        text = handle.read()
    return parse_scenario(text.replace("hbar = 1.0", "hbar = 0.7").replace("mass = 1.0", "mass = 1.3"))


@pytest.mark.parametrize("units", ["shipped", "scaled"])
@pytest.mark.parametrize("name", ALL_SHIPPED)
def test_point_evaluator_is_the_chain_bit_for_bit(name, units):
    """At 240 seeded points over the verify box widened by 30% of its span
    on each side, and at the scenario's undefined and edge points, the
    evaluator gives v, grad S0, R, V and a^{mumu} with the bits of the
    chain, or raises the same exception with the same message and axis;
    also with hbar and m0 away from 1. velocity_field returns the same v
    as an array."""
    scenario = _load(name)
    action = build_action(scenario if units == "shipped" else _scaled(name))
    assert (action.hbar, action.m0) == ((1.0, 1.0) if units == "shipped" else (0.7, 1.3))
    rng = np.random.default_rng(20261020)
    lo, hi = np.array(scenario.verify.bounds).T
    pad = 0.3 * (hi - lo)
    points = [tuple(float(c) for c in p) for p in rng.uniform(lo - pad, hi + pad, size=(240, 3))]
    edges, must_raise = EDGES[name]
    raised, defined = set(), 0
    for r in points + edges:
        got = _outcome(action.point_velocity, list(r))
        assert got == _outcome(lambda r: _chain(action, r), r), r
        if isinstance(got, tuple):
            raised.add(got[0])
            continue
        defined += 1
        v, _, _ = action.point_velocity(list(r))
        assert velocity_field(action, r)[0].tolist() == v, r
    assert must_raise <= raised
    assert defined >= 100


@pytest.mark.parametrize("name", ALL_SHIPPED)
def test_point_evaluator_is_built_once_per_action(name):
    """An action builds its evaluator on first use and keeps it; a copy
    made by dataclasses.replace builds its own. Neither changes the
    action's equality or hash."""
    action = build_action(_load(name))
    copy = dataclasses.replace(action)
    before = hash(action)
    evaluate = action.point_velocity
    assert action.point_velocity is evaluate
    assert copy.point_velocity is not evaluate
    assert copy == action and hash(copy) == hash(action) == before
    assert dataclasses.replace(action, a=2.0 * action.a).point_velocity is not evaluate
