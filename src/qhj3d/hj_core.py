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

import numpy as np

from .arrays import as_coords, at_point, atan2, maximum, sqrt, where
from .errors import NODAL, OK, NodalPoint, ZeroConjugateMomentum
from .schrodinger import OVERFLOW_LIMIT, FieldSample, SolutionField3D, evaluate_field

NODAL_EPS = 1e-12

# A momentum component vanishes where |d_mu S0| < MOMENTUM_EPS: the one rule
# of the metric and of the 1D formulas that divide by S0'.
MOMENTUM_EPS = 1e-12

# Central-difference step of the divergence mode of the continuity check.
DIVERGENCE_STEP = 1e-5


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


@dataclass(frozen=True)
class ActionSample:
    """S0 (principal branch), its closed-form gradient, R, the diagonal
    Hessian of R, the local potential energy, the field evaluation they
    come from, and the status (OK, NODAL or OUT_OF_DOMAIN).

    Shapes follow FieldSample: per-axis quantities are (x, y, z) tuples.
    Over arrays, points whose status is not OK hold placeholders (R = 1)
    that keep later divisions finite.
    """

    s0_principal: float
    grad_s0: tuple
    amplitude: float
    hessian_r_diag: tuple
    v: float
    field: FieldSample
    status: int


def _theta_prime_parts(action, fs):
    a, b = action.a, action.b
    tp = a * fs.theta + b * fs.phi
    grad_tp = tuple(a * gt + b * gp for gt, gp in zip(fs.grad_theta, fs.grad_phi))
    sec_tp = tuple(a * st + b * sp for st, sp in zip(fs.second_theta, fs.second_phi))
    return tp, grad_tp, sec_tp


def sample(action: ReducedActionField, r) -> ActionSample:
    """Evaluate S0, grad S0, R and the diagonal Hessian of R at r: a point,
    or coordinate arrays that broadcast together.

    A nodal or out-of-domain point raises NodalPoint or OutOfDomain; over
    arrays the status marks such points instead.
    """
    return _sample_field(action, evaluate_field(action.field, r), r)


def _sample_field(action: ReducedActionField, fs: FieldSample, r) -> ActionSample:
    """sample(action, r) built on fs, a field evaluation at r of any order."""
    tp, grad_tp, sec_tp = _theta_prime_parts(action, fs)
    ph, grad_ph, sec_ph = fs.phi, fs.grad_phi, fs.second_phi

    g = tp * tp + ph * ph
    amplitude = sqrt(g)
    nodal = amplitude < NODAL_EPS * maximum(maximum(1.0, abs(tp)), abs(ph))
    if at_point(fs.status):
        # evaluate_field has raised unless fs.status is OK; nothing to mask
        if nodal:
            raise NodalPoint(f"R = {amplitude:.3e} at r = {tuple(float(c) for c in r)}")
        status = OK
    else:
        status = np.where(fs.status == OK, np.where(nodal, NODAL, OK), fs.status)
        ok = status == OK
        g = np.where(ok, g, 1.0)
        amplitude = np.where(ok, amplitude, 1.0)

    hbar = action.hbar

    # Principal arctan(theta'/phi) on (-pi/2, pi/2]; phi = 0 maps to +pi/2.
    angle = atan2(tp, ph)
    angle = where(angle > 0.5 * math.pi, angle - math.pi,
                  where(angle <= -0.5 * math.pi, angle + math.pi, angle))

    grad_s0 = tuple(hbar * (ph * gtp - tp * gph) / g for gtp, gph in zip(grad_tp, grad_ph))

    hess_r = []
    for gtp, gph, stp, sph in zip(grad_tp, grad_ph, sec_tp, sec_ph):
        grad_r = (tp * gtp + ph * gph) / amplitude
        hess_r.append((gtp * gtp + tp * stp + gph * gph + ph * sph) / amplitude
                      - grad_r * grad_r / amplitude)

    return ActionSample(
        s0_principal=hbar * angle,
        grad_s0=grad_s0,
        amplitude=amplitude,
        hessian_r_diag=tuple(hess_r),
        v=fs.v,
        field=fs,
        status=status,
    )


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


def qshje_residual(action: ReducedActionField, r) -> float:
    """(grad S0)^2/2m0 - (hbar^2/2m0) (Lap R)/R + V - E.

    Zero in exact arithmetic whenever theta and phi solve the Schrodinger
    equation at E, so the returned value measures numerical error only.
    """
    return qshje_from_sample(action, sample(action, r))


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


def _shifted_copies(coords) -> list:
    """The six copies of coords that the divergence mode samples, stacked
    on a new leading axis: copy k moves axis k // 2 by +DIVERGENCE_STEP (k
    even) or -DIVERGENCE_STEP (k odd). Each axis keeps its own shape behind
    that axis, so a sparse grid stays sparse."""
    ndim = max(np.ndim(c) for c in coords)
    steps = (DIVERGENCE_STEP, -DIVERGENCE_STEP) * 3
    copies = []
    for nu, c in enumerate(coords):
        c = np.reshape(c, (1,) * (ndim - np.ndim(c)) + np.shape(c))
        copies.append(np.stack([c + step if k // 2 == nu else c for k, step in enumerate(steps)]))
    return copies


def continuity_identity_residual(action: ReducedActionField, r, mode="identity") -> float:
    """Residual of the continuity law R^2 grad S0 = hbar a (phi grad theta - theta grad phi).

    identity mode compares the two closed forms componentwise (guards
    against implementation drift; zero up to rounding). divergence mode
    checks div(R^2 grad S0) = 0 by central differences of step
    DIVERGENCE_STEP along each axis. It samples the six shifted copies of r
    in one call, stacked on a new leading axis (see _shifted_copies). Over
    arrays it reads NaN where any of a point's copies is undefined; at a
    point it raises what sample raises at the first undefined copy.
    """
    if mode == "identity":
        return continuity_identity_from_sample(action, sample(action, r))
    if mode == "divergence":
        coords = as_coords(r)
        copies = _shifted_copies(coords)
        s = sample(action, copies)
        ok = np.all(s.status == OK, axis=0)
        point = not any(isinstance(c, np.ndarray) for c in coords)
        if point and not ok:
            # at a point sample raises NodalPoint or OutOfDomain
            k = next(k for k in range(6) if s.status[k] != OK)
            sample(action, [c[k] for c in copies])
        div = 0.0
        for mu in range(3):
            plus, minus = (s.amplitude[k] ** 2 * s.grad_s0[mu][k] for k in (2 * mu, 2 * mu + 1))
            div = div + (plus - minus) / (2.0 * DIVERGENCE_STEP)
        value = where(ok, abs(div), math.nan)
        return float(value) if point else value
    raise ValueError(f"unknown mode {mode!r}")


def _require_1d(field: SolutionField3D) -> None:
    if field.active_axes != (True, False, False):
        raise ValueError("operation needs a field varying along x only")


def s0_derivatives_1d(action: ReducedActionField, x: float):
    """(S0', S0'', S0''') along x for a field varying along x only.

    Uses S0' = hbar W / g with W = phi theta'_x - theta' phi_x and
    g = theta'^2 + phi^2. W is the (sign-flipped) Wronskian of two
    solutions of the same 1D equation, hence constant, so the higher
    derivatives need only g' and g'' -- all available exactly from the
    per-axis ODE identity.
    """
    return _s0_derivatives_and_v_1d(action, x)[0]


def _s0_derivatives_and_v_1d(action: ReducedActionField, x: float):
    """s0_derivatives_1d(action, x), and V, from one sample: a node raises
    NodalPoint, and |S0'| < MOMENTUM_EPS raises ZeroConjugateMomentum."""
    _require_1d(action.field)
    # the flat axes at the centres of their probe intervals
    (y_lo, y_hi), (z_lo, z_hi) = (pair.probe_interval() for pair in action.field.pairs[1:])
    s = sample(action, (x, 0.5 * (y_lo + y_hi), 0.5 * (z_lo + z_hi)))
    s1 = s.grad_s0[0]
    if abs(s1) < MOMENTUM_EPS:
        raise ZeroConjugateMomentum(f"S0' = {s1:.3e} at x = {x}")
    tp, grad_tp, sec_tp = _theta_prime_parts(action, s.field)
    ph, phx, phxx = s.field.phi, s.field.grad_phi[0], s.field.second_phi[0]
    tpx, tpxx = grad_tp[0], sec_tp[0]

    g = tp * tp + ph * ph
    w = ph * tpx - tp * phx
    hbar = action.hbar
    gp = 2.0 * (tp * tpx + ph * phx)
    gpp = 2.0 * (tpx * tpx + tp * tpxx + phx * phx + ph * phxx)
    s2 = -hbar * w * gp / g**2
    s3 = hbar * w * (2.0 * gp * gp - gpp * g) / g**3
    return (s1, s2, s3), s.v


def floyd_residual_1d(action: ReducedActionField, x: float) -> float:
    """Residual of the 1D equation with the Schwarzian-bracket quantum term:

    (S0')^2/2m0 - (hbar^2/4m0) [ (3/2)(S0''/S0')^2 - S0'''/S0' ] + V - E.
    """
    (s1, s2, s3), v_total = _s0_derivatives_and_v_1d(action, x)
    m0 = action.m0
    bracket = 1.5 * (s2 / s1) ** 2 - s3 / s1
    return s1 * s1 / (2.0 * m0) - action.hbar**2 / (4.0 * m0) * bracket + v_total - action.e
