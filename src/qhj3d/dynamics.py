"""Quantum trajectories under the law of motion v . grad S0 = 2 (E - V).

The primary route integrates the first-order velocity field

    dx^mu/dt = a^{mumu} d_mu S0 / m0,

which satisfies the law identically. Its right-hand side is the action's
point evaluator (ReducedActionField.point_velocity), built once per action:
it takes the loop's list of floats and gives the bits that sample and
metric.a_upper_from_sample give, without building their records. It takes
a^{mumu} = -hbar^2 f_mu / (d_mu S0)^2 from the axis factors f_mu and sums
no second partial, so the law and energy residuals of this route are
rounding by construction. velocity_field is its public face. The event
probes of both routes and the second route's start call it too.

The second route is an independent check of the first: Hamilton's
equations of the quantum Hamiltonian H = sum_mu a^{mumu} p_mu^2 / 2 m0 + V
in canonical form,

    dx^mu/dt = a^{mumu} p_mu / m0,
    dp_mu/dt = -sum_nu (d_mu a^{nunu}) p_nu^2 / 2 m0 - d_mu V,

from p = grad S0(r0). Both flows coincide in exact arithmetic, where p stays
equal to grad S0 along the route; H - E (the energy residual) and
|p - grad S0| are the route's residuals. They use only the upper metric.
Every product term of the field solves u'' = f_mu u on each axis, so
a^{mumu} = 2 m0 (E_mu - V_mu) / (d_mu S0)^2 and the law holds axis by
axis, v^mu = 2 (E_mu - V_mu) / d_mu S0. The exact gradient of a^{mumu}
(metric.a_upper_gradient) needs only the Hessian of the field and the
potential gradient: per right-hand side, one call of a point evaluator
with hessian=True (hj_core._point_evaluator) and one derivative per axis.

Integration uses an embedded Dormand-Prince 5(4) pair with PI-free step
control. Singularities (a conjugate-momentum component or the amplitude R
dropping to the event threshold) terminate integration with an event
located by bisection on the step's cubic Hermite interpolant: the paper
trail stops there rather than inventing a node-crossing rule.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .arrays import as_coords
from . import hj_core
from .errors import NodalPoint, NodeSingularity, OutOfDomain
from .hj_core import ReducedActionField
from .metric import a_upper_gradient

_FIELD_SINGULAR = (NodalPoint, NodeSingularity)

# Dormand-Prince 5(4): 7 stages, FSAL, 5th-order propagation. Row i of A
# holds stage i's weights on the stages before it; row 6 is b5. E is b5
# minus the embedded fourth-order weights.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_A[6] + (0.0,), _DP_B4))

COMPLETED = "completed"
SINGULARITY = "singularity"
DOMAIN_EXIT = "domain_exit"


@dataclass(frozen=True)
class TrajectoryState:
    """One accepted state; momentum is the canonical momentum p of the
    second route, None on the first, whose momentum is grad S0."""

    t: float
    position: np.ndarray
    velocity: np.ndarray
    momentum: np.ndarray | None = None


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive embedded Runge-Kutta 5(4) settings, the one definition of
    the integrator's settings and their defaults.

    singularity_eps is the event threshold on min_mu |d_mu S0| over active
    axes and on the amplitude R.
    """

    t_end: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = math.inf
    singularity_eps: float = 1e-10

    def __post_init__(self):
        for f in dataclasses.fields(IntegratorConfig):
            check_setting(f.name, getattr(self, f.name))


def check_setting(name, value):
    """value, if it is legal for the IntegratorConfig field name: positive
    and finite, except that max_step may be inf (no step limit); else
    ValueError."""
    if name == "max_step" and value == math.inf:
        return value
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Termination:
    status: str
    kind: str | None = None
    t: float | None = None
    position: tuple | None = None


@dataclass
class IntegratorStats:
    """Counts of one integration, deterministic like its states: accepted
    steps, steps the error test rejected, step halvings after a stage met
    a singular point or left the domain, right-hand-side evaluations (those
    that raised included) and event-bisection probes."""

    accepted: int = 0
    rejected: int = 0
    singular_halvings: int = 0
    domain_halvings: int = 0
    rhs_evals: int = 0
    event_probes: int = 0


@dataclass
class Trajectory:
    """Accepted states and, per state, the law residual, the energy
    residual and grad S0, each taken from the field sample of the state;
    and the integrator's counts."""

    states: list[TrajectoryState]
    termination: Termination
    law_residuals: np.ndarray
    energy_residuals: np.ndarray
    grad_s0: np.ndarray  # (len(states), 3)
    stats: IntegratorStats

    @property
    def final_state(self) -> TrajectoryState:
        return self.states[-1]

    @property
    def max_law_residual(self) -> float:
        return float(np.max(np.abs(self.law_residuals)))

    @property
    def max_energy_residual(self) -> float:
        return float(np.max(np.abs(self.energy_residuals)))


def velocity_field(action: ReducedActionField, r):
    """(v, s, a_upper) at the point r: v^mu = a^{mumu} d_mu S0 / m0 as an
    array, which satisfies v . grad S0 = 2 (E - V), the PointSample s
    (grad S0, R and V) at r and the a^{mumu} that v was computed from.
    The action's point evaluator computes them (hj_core._point_evaluator),
    as it does for every right-hand side of the first route."""
    v, s, a_upper = action.point_velocity(as_coords(r))
    return np.array(v), s, a_upper


def _law(action, velocity, s) -> float:
    return float(velocity @ s.grad_s0) - 2.0 * (action.e - s.v)


def _kinetic(action, velocity, a_upper) -> float:
    """(m0/2) sum a_{mumu} v_mu^2 with a_{mumu} = 1/a^{mumu} at the state.

    A term with v_mu = 0 counts as 0: where a^{mumu} = 0 the velocity
    component vanishes with it and a_{mumu} is infinite. The terms are
    summed left to right from +0.0 in floats, as np.sum adds three terms;
    1/0 is the signed infinity that numpy gives, so a^{mumu} = 0 with a
    nonzero or non-finite v_mu yields inf or NaN rather than raising.
    """
    total = 0.0
    for a, v in zip(a_upper, velocity):
        v, a = float(v), float(a)
        if v != 0.0:
            total += (1.0 / a if a != 0.0 else math.copysign(math.inf, a)) * (v * v)
    return 0.5 * action.m0 * total


def _energy(action, velocity, s, a_upper) -> float:
    return _kinetic(action, velocity, a_upper) + s.v - action.e


# ---------------------------------------------------------------------------
# Integration machinery
# ---------------------------------------------------------------------------

def _active_momenta(action, s):
    return [abs(s.grad_s0[mu]) for mu in range(3) if action.field.active_axes[mu]]


def _margin(action, s, eps):
    """min(min over active axes |d_mu S0|, R) - eps from the sample s."""
    return min(min(_active_momenta(action, s)), s.amplitude) - eps


def _event_margin(action, r, eps):
    """The margin at r, from the action's point evaluator; -inf when r is
    nodal, node-singular (an active |d_mu S0| < MOMENTUM_EPS, negative
    anyway for eps >= MOMENTUM_EPS) or out of domain."""
    try:
        _, s, _ = action.point_velocity(r)
    except (NodalPoint, NodeSingularity, OutOfDomain):
        return -math.inf
    return _margin(action, s, eps)


def _classify_event(action, s):
    """Which margin ran out in s, the sample of a point the right-hand side
    has just evaluated."""
    return "amplitude" if s.amplitude <= min(_active_momenta(action, s)) else "node"


def _hermite(y0, f0, y1, f1, h, s):
    """The cubic Hermite interpolant of the step from (y0, f0) to (y1, f1)
    at the fraction s of the step h, per component."""
    s2 = s * s
    s3 = s2 * s
    c0, c1 = 2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * h
    c2, c3 = -2 * s3 + 3 * s2, (s3 - s2) * h
    return [c0 * a + c1 * b + c2 * c + c3 * d for a, b, c, d in zip(y0, f0, y1, f1)]


def _locate_event(action, position_of, y, f, y_new, f_new, h, eps, stats):
    """Bisect the crossing of the event margin along the Hermite interpolant,
    counting each probe in stats.

    Returns (s_safe, s_cross) with the bracket width below 1e-3."""
    s_lo, s_hi = 0.0, 1.0
    while s_hi - s_lo > 1e-3:
        s_mid = 0.5 * (s_lo + s_hi)
        y_mid = _hermite(y, f, y_new, f_new, h, s_mid)
        stats.event_probes += 1
        if _event_margin(action, position_of(y_mid), eps) >= 0.0:
            s_lo = s_mid
        else:
            s_hi = s_mid
    return s_lo, s_hi


# The step's sums run on lists of floats in the order numpy takes for the
# arrays (ks rows times weights).sum(axis=0) and np.mean: from +0.0, one
# term after another. tests/test_dynamics.py holds them to numpy bitwise.

def _stage_point(y, h, weights, ks):
    """y + h * sum_i weights[i] * ks[i], per component."""
    terms = list(zip(weights, ks))
    point = []
    for j, y_j in enumerate(y):
        total = 0.0
        for w, k in terms:
            total += w * k[j]
        point.append(y_j + h * total)
    return point


def _error_norm(y, y_new, h, ks, abs_tol, rel_tol) -> float:
    """The RMS over components of h * sum_i E[i] * ks[i] scaled by
    abs_tol + rel_tol * max(|y|, |y_new|), where the max is NaN if either
    is, as np.maximum's."""
    terms = list(zip(_DP_E, ks))
    total = 0.0
    for j, (y_j, y_new_j) in enumerate(zip(y, y_new)):
        err = 0.0
        for e, k in terms:
            err += e * k[j]
        a, b = abs(y_j), abs(y_new_j)
        q = h * err / (abs_tol + rel_tol * (b if b > a or b != b else a))
        total += q * q
    return math.sqrt(total / len(y))


def _integrate(action, rhs, r0, start, config, position_of, state_of):
    """Adaptive DP54 loop shared by both trajectory routes, from the state
    y0 = start(r0).

    The state y and every derivative are lists of floats. rhs(y) returns
    (dy/dt, s, a_upper), with s the PointSample at position_of(y) (grad S0,
    R and V) and a_upper the a^{mumu} that dy/dt was computed from. Every
    accepted step, the initial state included, becomes the state
    state_of(t, y, dy/dt); its law residual, energy residual and grad S0
    are computed from that s and a_upper when the step is accepted, and
    both are dropped with the step. The event check reads the same s.

    If start(r0) or the first right-hand side raises NodalPoint or
    NodeSingularity, the run ends there: a singularity of kind amplitude or
    node at t = 0, with no state.

    A step holds its seven stage derivatives in stage order; each stage
    point, and the error estimate, is one weighted sum over them
    (_stage_point, _error_norm). Returns the Trajectory with its
    IntegratorStats.
    """
    t_end = config.t_end
    eps = config.singularity_eps
    h_floor = 1e-14 * t_end
    states, law, energy, grad = [], [], [], []
    stats = IntegratorStats()

    def evaluate(y):
        stats.rhs_evals += 1
        return rhs(y)

    def record(t, y, f, s, a_upper):
        st = state_of(t, y, f)
        states.append(st)
        law.append(_law(action, st.velocity, s))
        energy.append(_energy(action, st.velocity, s, a_upper))
        grad.append(s.grad_s0)

    def finish(termination):
        return Trajectory(states=states, termination=termination, law_residuals=np.array(law),
                          energy_residuals=np.array(energy), grad_s0=np.array(grad).reshape(-1, 3),
                          stats=stats)

    try:
        y0 = start(r0)
        f, smp, a_upper = evaluate(y0)
    except _FIELD_SINGULAR as exc:
        kind = "amplitude" if isinstance(exc, NodalPoint) else "node"
        return finish(Termination(SINGULARITY, kind=kind, t=0.0, position=tuple(r0)))
    record(0.0, y0, f, smp, a_upper)
    if _margin(action, smp, eps) < 0.0:
        return finish(Termination(SINGULARITY, kind=_classify_event(action, smp), t=0.0,
                                  position=tuple(position_of(y0))))

    t, y = 0.0, y0
    h = min(config.max_step, 1e-3 * t_end)
    while t < t_end:
        h = min(h, t_end - t, config.max_step)
        if h < h_floor:
            return finish(Termination(SINGULARITY, kind="step_underflow", t=t,
                                      position=tuple(position_of(y))))
        ks = [f]
        try:
            for i in range(1, 7):
                y_stage = _stage_point(y, h, _DP_A[i], ks)
                k, smp_new, a_new = evaluate(y_stage)
                ks.append(k)
        except _FIELD_SINGULAR:
            stats.singular_halvings += 1
            h *= 0.5
            continue
        except OutOfDomain:
            if h * 0.5 < h_floor:
                return finish(Termination(DOMAIN_EXIT, t=t, position=tuple(position_of(y))))
            stats.domain_halvings += 1
            h *= 0.5
            continue

        # FSAL: the last row of A is b5, so the last stage point is the
        # fifth-order solution, and f_new, smp_new and a_new are taken there.
        y_new, f_new = y_stage, ks[6]

        err = _error_norm(y, y_new, h, ks, config.abs_tol, config.rel_tol)
        if err > 1.0:
            stats.rejected += 1
            h *= max(0.2, 0.9 * err**-0.2)
            continue

        if _margin(action, smp_new, eps) < 0.0:
            s_safe, _ = _locate_event(action, position_of, y, f, y_new, f_new, h, eps, stats)
            y_ev = _hermite(y, f, y_new, f_new, h, s_safe)
            t_ev = t + s_safe * h
            try:
                f_ev, *at_ev = evaluate(y_ev)
                if s_safe > 0.0:
                    record(t_ev, y_ev, f_ev, *at_ev)
            except (NodalPoint, NodeSingularity, OutOfDomain):
                pass
            return finish(Termination(SINGULARITY, kind=_classify_event(action, smp_new), t=t_ev,
                                      position=tuple(position_of(y_ev))))

        t, y, f = t + h, y_new, f_new
        stats.accepted += 1
        record(t, y, f, smp_new, a_new)
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))

    return finish(Termination(COMPLETED, t=t, position=tuple(position_of(y))))


def _point(r0) -> list:
    """The start r0, a 3-sequence or a length-3 array, as a list of floats."""
    return [float(c) for c in r0]


def integrate_first_order(action: ReducedActionField, r0, config: IntegratorConfig) -> Trajectory:
    """Integrate dr/dt = velocity_field(r) from r0.

    The velocity of every produced state is the velocity field at its
    position by construction (FSAL derivative storage). Each right-hand
    side is one call of the action's point evaluator (velocity_field's
    body) on the loop's list of floats."""
    return _integrate(action, action.point_velocity, _point(r0), lambda r: r, config,
                      position_of=lambda y: y,
                      state_of=lambda t, y, f: TrajectoryState(t, np.array(y), np.array(f)))


def _hamilton_rhs(action: ReducedActionField):
    """The second route's right-hand side y = (r, p) -> (dy/dt, s, a_upper)
    on lists of floats: Hamilton's equations from one call of a point
    evaluator with the Hessian at r and one derivative of each axis
    potential, which both d_mu V and the metric gradient use."""
    m0 = action.m0
    evaluate = hj_core._point_evaluator(action, hessian=True)
    dv_x, dv_y, dv_z = (pair.potential.derivative for pair in action.field.pairs)

    def rhs(y):
        r0, r1, r2, p0, p1, p2 = y
        _, s, a_upper, field = evaluate(y[:3])
        grad_v = (dv_x(r0), dv_y(r1), dv_z(r2))
        g0, g1, g2 = a_upper_gradient(action, field, s.grad_s0, a_upper, grad_v)
        (a0, a1, a2), (v0, v1, v2) = a_upper, grad_v
        q0, q1, q2 = p0 * p0, p1 * p1, p2 * p2  # p_mu^2
        return [a0 * p0 / m0, a1 * p1 / m0, a2 * p2 / m0,
                -(g0[0] * q0 + g0[1] * q1 + g0[2] * q2) / (2.0 * m0) - v0,
                -(g1[0] * q0 + g1[1] * q1 + g1[2] * q2) / (2.0 * m0) - v1,
                -(g2[0] * q0 + g2[1] * q1 + g2[2] * q2) / (2.0 * m0) - v2], s, a_upper

    return rhs


def integrate_second_order(action: ReducedActionField, r0, config: IntegratorConfig) -> Trajectory:
    """Integrate Hamilton's equations in (r, p) as a 6D first-order system
    from p = grad S0(r0) (the law of motion leaves no freedom).

    A state's velocity is dr/dt = a^{mumu} p_mu / m0 and its momentum p.
    p0 comes from the action's point evaluator, so a node-singular start
    ends the run before any right-hand side.
    """
    start = lambda r: [*r, *action.point_velocity(r)[1].grad_s0]
    return _integrate(action, _hamilton_rhs(action), _point(r0), start, config,
                      position_of=lambda y: y[:3],
                      state_of=lambda t, y, f: TrajectoryState(t, np.array(y[:3]), np.array(f[:3]),
                                                               np.array(y[3:])))
