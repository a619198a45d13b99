"""Quantum trajectories under the law of motion v . grad S0 = 2 (E - V).

The primary route integrates the first-order velocity field

    dx^mu/dt = a^{mumu} d_mu S0 / m0,

which satisfies the law identically. The second-order route integrates the
Euler-Lagrange equations of the quantum Lagrangian instead and exists as an
independent verification of the conservation-law chain: both flows coincide
in exact arithmetic.

Integration uses an embedded Dormand-Prince 5(4) pair with PI-free step
control. Singularities (a conjugate-momentum component or the amplitude R
dropping to the event threshold) terminate integration with an event
located by bisection on the step's cubic Hermite interpolant: the paper
trail stops there rather than inventing a node-crossing rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NodalPoint, NodeSingularity, OutOfDomain
from .hj_core import ReducedActionField, sample, _require_1d
from .metric import a_upper_from_sample, metric_at
from .potentials import evaluate as evaluate_potential

_FIELD_SINGULAR = (NodalPoint, NodeSingularity)

# Dormand-Prince 5(4): 7 stages, FSAL, 5th-order propagation.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4

COMPLETED = "completed"
SINGULARITY = "singularity"
DOMAIN_EXIT = "domain_exit"


@dataclass(frozen=True)
class TrajectoryState:
    t: float
    position: np.ndarray
    velocity: np.ndarray


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive embedded Runge-Kutta 5(4) settings.

    singularity_eps is the event threshold on min_mu |d_mu S0| over active
    axes and on the amplitude R.
    """

    t_end: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = math.inf
    singularity_eps: float = 1e-10

    def __post_init__(self):
        if not (0 < self.t_end < math.inf and self.rel_tol > 0 and self.abs_tol > 0
                and self.max_step > 0 and self.singularity_eps > 0):
            raise ValueError("tolerances, max_step and t_end must all be positive, t_end finite")


@dataclass(frozen=True)
class Termination:
    status: str
    kind: str | None = None
    t: float | None = None
    position: tuple | None = None


@dataclass
class Trajectory:
    states: list[TrajectoryState]
    termination: Termination
    law_residuals: np.ndarray
    energy_residuals: np.ndarray

    @property
    def final_state(self) -> TrajectoryState:
        return self.states[-1]

    @property
    def max_law_residual(self) -> float:
        return float(np.max(np.abs(self.law_residuals)))

    @property
    def max_energy_residual(self) -> float:
        return float(np.max(np.abs(self.energy_residuals)))


def velocity_field(action: ReducedActionField, r) -> np.ndarray:
    """v^mu = a^{mumu} d_mu S0 / m0; satisfies v . grad S0 = 2 (E - V)."""
    s = sample(action, r)
    a_upper, _ = a_upper_from_sample(action, s)
    return np.array([a * ds / action.m0 for a, ds in zip(a_upper, s.grad_s0)])


def law_residual(action: ReducedActionField, state: TrajectoryState) -> float:
    """v . grad S0 - 2 (E - V) at the state."""
    s = sample(action, state.position)
    return float(state.velocity @ s.grad_s0) - 2.0 * (action.e - s.v)


def _kinetic(action: ReducedActionField, state: TrajectoryState) -> float:
    """(m0/2) sum a_{mumu} v_mu^2 at the state.

    A term with v_mu = 0 counts as 0: where a^{mumu} = 0 the velocity
    component vanishes with it and a_{mumu} is infinite.
    """
    met = metric_at(action, state.position)
    v = np.asarray(state.velocity)
    moving = v != 0.0
    return 0.5 * action.m0 * float(np.sum(met.a_lower[moving] * v[moving]**2))


def energy_residual(action: ReducedActionField, state: TrajectoryState) -> float:
    """(m0/2) sum a_{mumu} v_mu^2 + V - E; an exact first integral."""
    v_total, _ = evaluate_potential(action.field.potential, state.position)
    return _kinetic(action, state) + v_total - action.e


def quantum_lagrangian(action: ReducedActionField, state: TrajectoryState) -> float:
    """(m0/2) sum a_{mumu} v_mu^2 - V."""
    v_total, _ = evaluate_potential(action.field.potential, state.position)
    return _kinetic(action, state) - v_total


def reduce_1d_check(action: ReducedActionField, trajectory: Trajectory) -> float:
    """max over states of |xdot dS0/dx - 2 (E - V)| for an x-only field."""
    _require_1d(action.field)
    worst = 0.0
    for st in trajectory.states:
        s = sample(action, st.position)
        worst = max(worst, abs(st.velocity[0] * s.grad_s0[0] - 2.0 * (action.e - s.v)))
    return worst


# ---------------------------------------------------------------------------
# Integration machinery
# ---------------------------------------------------------------------------

def _event_margin(action, r, eps):
    """min(min over active axes |d_mu S0|, R) - eps; -inf when unevaluable."""
    try:
        s = sample(action, r)
    except (NodalPoint, OutOfDomain):
        return -math.inf
    momenta = [abs(s.grad_s0[mu]) for mu in range(3) if action.field.active_axes[mu]]
    return min(min(momenta), s.amplitude) - eps


def _classify_event(action, r):
    """Which margin ran out at r, a point the right-hand side has just
    evaluated (so sampling it succeeds)."""
    s = sample(action, r)
    momenta = [abs(s.grad_s0[mu]) for mu in range(3) if action.field.active_axes[mu]]
    return "amplitude" if s.amplitude <= min(momenta) else "node"


def _hermite(y0, f0, y1, f1, h, s):
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * f1)


def _locate_event(action, position_of, y, f, y_new, f_new, h, eps):
    """Bisect the crossing of the event margin along the Hermite interpolant.

    Returns (s_safe, s_cross) with the bracket width below 1e-3."""
    s_lo, s_hi = 0.0, 1.0
    while s_hi - s_lo > 1e-3:
        s_mid = 0.5 * (s_lo + s_hi)
        y_mid = _hermite(y, f, y_new, f_new, h, s_mid)
        if _event_margin(action, position_of(y_mid), eps) >= 0.0:
            s_lo = s_mid
        else:
            s_hi = s_mid
    return s_lo, s_hi


def _integrate(action, rhs, y0, config, position_of):
    """Adaptive DP54 loop shared by both trajectory routes.

    Returns (samples, termination) with samples = [(t, y, rhs(y)), ...] for
    every accepted step, the initial state included.
    """
    t_end = config.t_end
    eps = config.singularity_eps
    h_floor = 1e-14 * t_end

    f0 = rhs(y0)
    samples = [(0.0, y0.copy(), f0.copy())]
    if _event_margin(action, position_of(y0), eps) < 0.0:
        kind = _classify_event(action, position_of(y0))
        return samples, Termination(SINGULARITY, kind=kind, t=0.0,
                                    position=tuple(position_of(y0)))

    t, y, f = 0.0, y0.copy(), f0
    h = min(config.max_step, 1e-3 * t_end)
    while t < t_end:
        h = min(h, t_end - t, config.max_step)
        if h < h_floor:
            return samples, Termination(SINGULARITY, kind="step_underflow", t=t,
                                        position=tuple(position_of(y)))
        try:
            ks = [f]
            for i in range(1, 7):
                yi = y + h * sum(a * k for a, k in zip(_DP_A[i], ks))
                ks.append(rhs(yi))
        except _FIELD_SINGULAR:
            h *= 0.5
            continue
        except OutOfDomain:
            if h * 0.5 < h_floor:
                return samples, Termination(DOMAIN_EXIT, t=t,
                                            position=tuple(position_of(y)))
            h *= 0.5
            continue

        y_new = y + h * sum(b * k for b, k in zip(_DP_B5[:6], ks[:6]))
        f_new = ks[6]  # FSAL: row 7 of A equals b5, so stage 7 sits at y_new

        err_vec = h * sum(e * k for e, k in zip(_DP_E, ks))
        scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2)
            continue

        if _event_margin(action, position_of(y_new), eps) < 0.0:
            s_safe, _ = _locate_event(action, position_of, y, f, y_new, f_new, h, eps)
            y_ev = _hermite(y, f, y_new, f_new, h, s_safe)
            t_ev = t + s_safe * h
            try:
                f_ev = rhs(y_ev)
                if s_safe > 0.0:
                    samples.append((t_ev, y_ev, f_ev))
            except (NodalPoint, NodeSingularity, OutOfDomain):
                pass
            kind = _classify_event(action, position_of(y_new))
            return samples, Termination(SINGULARITY, kind=kind, t=t_ev,
                                        position=tuple(position_of(y_ev)))

        t, y, f = t + h, y_new, f_new
        samples.append((t, y.copy(), f.copy()))
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))

    return samples, Termination(COMPLETED, t=t, position=tuple(position_of(y)))


def _wrap_trajectory(action, samples, termination, state_of):
    states = [state_of(t, y, f) for t, y, f in samples]
    law = np.array([law_residual(action, st) for st in states])
    energy = np.array([energy_residual(action, st) for st in states])
    return Trajectory(states=states, termination=termination,
                      law_residuals=law, energy_residuals=energy)


def integrate_first_order(action: ReducedActionField, r0, config: IntegratorConfig) -> Trajectory:
    """Integrate dr/dt = velocity_field(r) from r0.

    The velocity of every produced state is the velocity field at its
    position by construction (FSAL derivative storage)."""
    y0 = np.asarray(r0, dtype=float)
    rhs = lambda y: velocity_field(action, y)
    samples, term = _integrate(action, rhs, y0, config, position_of=lambda y: y)
    return _wrap_trajectory(
        action, samples, term,
        state_of=lambda t, y, f: TrajectoryState(t, y.copy(), f.copy()),
    )


def integrate_second_order(action: ReducedActionField, r0, config: IntegratorConfig) -> Trajectory:
    """Integrate the Euler-Lagrange equations as a 6D first-order system.

    The initial velocity is pinned to the velocity field (the law of motion
    leaves no freedom); metric gradients come from central differences with
    step 1e-6 times the field's length scale.
    """
    r0 = np.asarray(r0, dtype=float)
    v0 = velocity_field(action, r0)

    m0 = action.m0
    active = action.field.active_axes
    delta = 1e-6 * action.field.length_scale
    potential = action.field.potential

    def rhs(y):
        r, v = y[:3], y[3:]
        met = metric_at(action, r)
        grad_al = np.zeros((3, 3))  # grad_al[nu, mu] = d a_{nunu} / d x_mu
        for mu in range(3):
            if not active[mu]:
                continue
            shift = np.zeros(3)
            shift[mu] = delta
            alp = metric_at(action, r + shift).a_lower
            alm = metric_at(action, r - shift).a_lower
            grad_al[:, mu] = (alp - alm) / (2.0 * delta)
        grad_v = potential.gradient(r)
        accel = np.empty(3)
        for mu in range(3):
            dal_dt = float(grad_al[mu] @ v)
            quad = 0.5 * float(np.sum(v * v * grad_al[:, mu]))
            accel[mu] = (m0 * quad - grad_v[mu] - m0 * v[mu] * dal_dt) / (m0 * met.a_lower[mu])
        return np.concatenate((v, accel))

    y0 = np.concatenate((r0, v0))
    samples, term = _integrate(action, rhs, y0, config, position_of=lambda y: y[:3])
    return _wrap_trajectory(
        action, samples, term,
        state_of=lambda t, y, f: TrajectoryState(t, y[:3].copy(), y[3:].copy()),
    )
