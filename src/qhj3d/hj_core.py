"""Reduced action S0 and amplitude R built from a solution field.

With theta' = a*theta + b*phi the construction is

    S0 = hbar * arctan(theta' / phi),      R = sqrt(theta'^2 + phi^2),

and the gradient of S0 is always taken from the closed form

    grad S0 = hbar (phi grad theta' - theta' grad phi) / R^2,

which is smooth across arctan branch jumps; only the reported principal
value lives on (-pi hbar/2, pi hbar/2]. R carries unit prefactor because
the free constant in the continuity solution is pinned to k = hbar*a.

sample and the residuals are array-generic: at a point they raise on a
nodal or out-of-domain point, and over arrays they report it per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .arrays import at_point, maximum, where
from .errors import NODAL, OK, NodalPoint, NodeSingularity
from .schrodinger import (OVERFLOW_LIMIT, FieldSample, SolutionField3D, _axis_eval, _combine,
                          _out_of_domain, evaluate_field)

NODAL_EPS = 1e-12

# A momentum component vanishes where |d_mu S0| < MOMENTUM_EPS: the one rule
# of every formula that divides by d_mu S0.
MOMENTUM_EPS = 1e-12


def check_mixing(a: float, b: float) -> None:
    """The mixing constants must be at most OVERFLOW_LIMIT in magnitude (so
    finite), and a nonzero: a = 0 makes S0 constant and the whole
    construction degenerate."""
    if a == 0.0 or not (abs(a) <= OVERFLOW_LIMIT and abs(b) <= OVERFLOW_LIMIT):
        raise ValueError(f"need finite (a, b) with a nonzero and |a|, |b| <= {OVERFLOW_LIMIT:g}")


@dataclass(frozen=True)
class ReducedActionField:
    """A solution field together with the mixing constants (a, b), which
    must pass check_mixing."""

    field: SolutionField3D
    a: float
    b: float

    def __post_init__(self):
        check_mixing(self.a, self.b)

    @property
    def hbar(self) -> float:
        return self.field.hbar

    @property
    def m0(self) -> float:
        return self.field.m0

    @property
    def e(self) -> float:
        return self.field.e

    @property
    def k(self) -> float:
        return self.hbar * self.a

    @cached_property
    def point_velocity(self):
        """The first route's right-hand side, built on first use
        (_point_evaluator); a replace()d action builds its own."""
        return _point_evaluator(self)


class ActionSample(NamedTuple):
    """S0 (principal branch), its closed-form gradient, R, the diagonal
    Hessian of R, the local potential energy, the field evaluation they
    come from, and the status (OK, NODAL or OUT_OF_DOMAIN).

    Shapes follow FieldSample: per-axis quantities are (x, y, z) tuples.
    Over arrays, points whose status is not OK hold placeholders (R = 1)
    that keep later divisions finite. Read-only, like FieldSample.
    """

    s0_principal: float
    grad_s0: tuple
    amplitude: float
    hessian_r_diag: tuple
    v: float
    field: FieldSample
    status: int


class PointSample(NamedTuple):
    """grad S0, R and V at a point, under the names ActionSample gives
    them: all that the trajectory loop reads of a sample."""

    grad_s0: tuple
    amplitude: float
    v: float


def _theta_prime_parts(action, fs):
    a, b = action.a, action.b
    (gt0, gt1, gt2), (gp0, gp1, gp2) = fs.grad_theta, fs.grad_phi
    (st0, st1, st2), (sp0, sp1, sp2) = fs.second_theta, fs.second_phi
    return (a * fs.theta + b * fs.phi,
            (a * gt0 + b * gp0, a * gt1 + b * gp1, a * gt2 + b * gp2),
            (a * st0 + b * sp0, a * st1 + b * sp1, a * st2 + b * sp2))


def sample(action: ReducedActionField, r) -> ActionSample:
    """Evaluate S0, grad S0, R and the diagonal Hessian of R at r: a point,
    or coordinate arrays that broadcast together.

    A nodal or out-of-domain point raises NodalPoint or OutOfDomain; over
    arrays the status marks such points instead.
    """
    return _sample_field(action, evaluate_field(action.field, r), r)


def _sample_field(action: ReducedActionField, fs: FieldSample, r) -> ActionSample:
    """sample(action, r) built on fs, a field evaluation at r, with or
    without the Hessian."""
    tp, grad_tp, sec_tp = _theta_prime_parts(action, fs)
    ph, grad_ph, sec_ph = fs.phi, fs.grad_phi, fs.second_phi

    g = tp * tp + ph * ph
    # Principal arctan(theta'/phi) on (-pi/2, pi/2]; phi = 0 maps to +pi/2.
    if at_point(fs.status):
        # evaluate_field has raised unless fs.status is OK; nothing to mask
        amplitude = math.sqrt(g)
        if amplitude < NODAL_EPS * max(max(1.0, abs(tp)), abs(ph)):
            raise NodalPoint(f"R = {amplitude:.3e} at r = {tuple(float(c) for c in r)}")
        status = OK
        angle = math.atan2(tp, ph)
        if angle > 0.5 * math.pi:
            angle = angle - math.pi
        elif angle <= -0.5 * math.pi:
            angle = angle + math.pi
    else:
        amplitude = np.sqrt(g)
        nodal = amplitude < NODAL_EPS * np.maximum(np.maximum(1.0, abs(tp)), abs(ph))
        status = np.where(fs.status == OK, np.where(nodal, NODAL, OK), fs.status)
        ok = status == OK
        g = np.where(ok, g, 1.0)
        amplitude = np.where(ok, amplitude, 1.0)
        angle = np.arctan2(tp, ph)
        angle = np.where(angle > 0.5 * math.pi, angle - math.pi,
                         np.where(angle <= -0.5 * math.pi, angle + math.pi, angle))

    hbar = action.hbar

    (gtp0, gtp1, gtp2), (gph0, gph1, gph2) = grad_tp, grad_ph
    grad_s0 = (hbar * (ph * gtp0 - tp * gph0) / g, hbar * (ph * gtp1 - tp * gph1) / g,
               hbar * (ph * gtp2 - tp * gph2) / g)
    hess_r = (_hessian_r(tp, ph, amplitude, gtp0, gph0, sec_tp[0], sec_ph[0]),
              _hessian_r(tp, ph, amplitude, gtp1, gph1, sec_tp[1], sec_ph[1]),
              _hessian_r(tp, ph, amplitude, gtp2, gph2, sec_tp[2], sec_ph[2]))
    return ActionSample(hbar * angle, grad_s0, amplitude, hess_r, fs.v, fs, status)


def _hessian_r(tp, ph, amplitude, gtp, gph, stp, sph):
    """d^2_mu R from theta', phi, R and their mu-th first and second partials."""
    grad_r = (tp * gtp + ph * gph) / amplitude
    return (gtp * gtp + tp * stp + gph * gph + ph * sph) / amplitude - grad_r * grad_r / amplitude


def _defined(s: ActionSample, value):
    """value where the sample is defined, NaN elsewhere (arrays only)."""
    return where(s.status == OK, value, math.nan)


def qshje_from_sample(action: ReducedActionField, s: ActionSample) -> float:
    """(grad S0)^2/2m0 - (hbar^2/2m0) (Lap R)/R + V - E from a sample; NaN
    where its status is not OK."""
    m0 = action.m0
    gx, gy, gz = s.grad_s0
    hx, hy, hz = s.hessian_r_diag
    kinetic = (gx * gx + gy * gy + gz * gz) / (2.0 * m0)
    quantum = action.hbar**2 / (2.0 * m0) * (hx + hy + hz) / s.amplitude
    return _defined(s, kinetic - quantum + s.v - action.e)


def continuity_identity_from_sample(action: ReducedActionField, s: ActionSample) -> float:
    """max over mu of |R^2 d_mu S0 - hbar a (phi d_mu theta - theta d_mu phi)|,
    from the field evaluation the sample was built on; NaN where its status
    is not OK."""
    fs = s.field
    k = action.k
    r2 = s.amplitude**2
    worst = 0.0
    for ds, gt, gp in zip(s.grad_s0, fs.grad_theta, fs.grad_phi):
        worst = maximum(worst, abs(r2 * ds - k * (fs.phi * gt - fs.theta * gp)))
    return _defined(s, worst)


def continuity_identity_residual(action: ReducedActionField, r) -> float:
    """Residual of the continuity law R^2 grad S0 = hbar a (phi grad theta - theta grad phi):
    the two closed forms compared componentwise (guards against
    implementation drift; zero up to rounding). See
    continuity_identity_from_sample."""
    return continuity_identity_from_sample(action, sample(action, r))


def _point_evaluator(action: ReducedActionField):
    """The velocity field of the first trajectory route at a point, as one
    function of r, a sequence of three floats: r -> (v, s, a_upper), with
    v^mu = a^{mumu} d_mu S0 / m0 a list, s the PointSample at r and
    a_upper the a^{mumu} tuple.

    It binds the action's per-axis tables and constants once and runs the
    point branches of sample and metric.a_upper_from_sample in one frame:
    the same field kernel (_axis_eval, _combine), the same operations in
    the same order and the same exceptions, so every value is the bits of
    that chain (tests/test_kernel.py holds it to them). The principal
    value of S0, which the loop never reads, is not formed.
    """
    field = action.field
    axes, pairs = field._axes, field.pairs
    theta_terms, phi_terms = field._indexed_terms
    a, b, hbar, m0 = action.a, action.b, action.hbar, action.m0
    hbar2 = hbar**2
    flat_bound = MOMENTUM_EPS * max(1.0, 2.0 * m0 * abs(action.e))

    def evaluate(r):
        cache, v, inside = _axis_eval(axes, r)
        if not inside:
            raise _out_of_domain(pairs, r)
        th, (gt0, gt1, gt2), (st0, st1, st2) = _combine(theta_terms, cache)
        ph, (gp0, gp1, gp2), (sp0, sp1, sp2) = _combine(phi_terms, cache)
        tp = a * th + b * ph
        g = tp * tp + ph * ph
        amplitude = math.sqrt(g)
        if amplitude < NODAL_EPS * max(max(1.0, abs(tp)), abs(ph)):
            raise NodalPoint(f"R = {amplitude:.3e} at r = {tuple(float(c) for c in r)}")
        velocity, grad_s0, a_upper = [], [], []
        for mu, gt, gp, st, sp in ((0, gt0, gp0, st0, sp0), (1, gt1, gp1, st1, sp1),
                                   (2, gt2, gp2, st2, sp2)):
            gtp, stp = a * gt + b * gp, a * st + b * sp
            ds = hbar * (ph * gtp - tp * gp) / g
            corr = hbar2 * _hessian_r(tp, ph, amplitude, gtp, gp, stp, sp) / amplitude
            if abs(ds) >= MOMENTUM_EPS:
                a_mu = 1.0 - corr / (ds * ds)
            elif abs(corr) <= flat_bound:
                a_mu = 1.0
            else:
                raise NodeSingularity(mu, f"d_{'xyz'[mu]} S0 = {ds:.3e} with nonzero quantum correction")
            velocity.append(a_mu * ds / m0)
            grad_s0.append(ds)
            a_upper.append(a_mu)
        return velocity, PointSample(tuple(grad_s0), amplitude, v), tuple(a_upper)

    return evaluate
