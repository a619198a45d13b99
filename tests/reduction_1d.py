"""The 1D reduction of the 3D construction, which the tests check.

On a field varying along x only, S0 must satisfy Floyd's 1D equation with
the Schwarzian-bracket quantum term, and the 1D coordinate factor
(dx/dxhat)^2 must agree three ways: 2 m0 (E - V)/(S0')^2, the Schwarzian
form and the metric's a^{xx}. Everything here is read off hj_core.sample,
so a node raises NodalPoint by the kernel's rule, and a vanishing S0'
follows hj_core.MOMENTUM_EPS, the metric's rule.
"""

from qhj3d.errors import QhjError
from qhj3d.hj_core import MOMENTUM_EPS, sample


class ZeroConjugateMomentum(QhjError):
    """dS0/dx ~ 0 where a 1D formula needs to divide by it."""


class ClassicalTurningPoint(QhjError):
    """E - V ~ 0: the 1D coordinate factor degenerates."""


def _require_1d(action):
    if action.field.active_axes != (True, False, False):
        raise ValueError("operation needs a field varying along x only")


def s0_derivatives_1d(action, x):
    """(S0', S0'', S0''', V) at x, from one sample.

    S0' = hbar W / g with g = theta'^2 + phi^2 and W = phi theta'_x -
    theta' phi_x, the (sign-flipped) Wronskian of two solutions of one 1D
    equation, hence constant: S0'' and S0''' need only g' and g'', which
    the field's exact second derivatives give.
    """
    _require_1d(action)
    # the flat axes at the centres of their probe intervals
    (y_lo, y_hi), (z_lo, z_hi) = (pair.probe_interval() for pair in action.field.pairs[1:])
    s = sample(action, (x, 0.5 * (y_lo + y_hi), 0.5 * (z_lo + z_hi)))
    s1 = s.grad_s0[0]
    if abs(s1) < MOMENTUM_EPS:
        raise ZeroConjugateMomentum(f"S0' = {s1:.3e} at x = {x}")
    fs, a, b = s.field, action.a, action.b
    tp, tpx, tpxx = (a * t + b * p for t, p in ((fs.theta, fs.phi), (fs.grad_theta[0], fs.grad_phi[0]),
                                                (fs.second_theta[0], fs.second_phi[0])))
    ph, phx, phxx = fs.phi, fs.grad_phi[0], fs.second_phi[0]
    g = tp * tp + ph * ph
    gp = 2.0 * (tp * tpx + ph * phx)
    gpp = 2.0 * (tpx * tpx + tp * tpxx + phx * phx + ph * phxx)
    return s1, -s1 * gp / g, s1 * (2.0 * gp * gp - gpp * g) / (g * g), s.v


def schwarzian_1d(s1, s2, s3):
    """{S0, x} = S0'''/S0' - (3/2)(S0''/S0')^2, standard convention."""
    if abs(s1) < MOMENTUM_EPS:
        raise ZeroConjugateMomentum(f"S0' = {s1:.3e}")
    return s3 / s1 - 1.5 * (s2 / s1) ** 2


def floyd_residual_1d(action, x):
    """(S0')^2/2m0 - (hbar^2/4m0) [(3/2)(S0''/S0')^2 - S0'''/S0'] + V - E."""
    s1, s2, s3, v = s0_derivatives_1d(action, x)
    m0 = action.m0
    return s1 * s1 / (2.0 * m0) + action.hbar**2 / (4.0 * m0) * schwarzian_1d(s1, s2, s3) + v - action.e


def fm_factor_1d(action, x):
    """(dx/dxhat)^2 as 2 m0 (E - V) / (S0')^2, the form the 1D classical-form
    equation forces."""
    s1, _, _, v = s0_derivatives_1d(action, x)
    gap = action.e - v
    if abs(gap) < 1e-14:
        raise ClassicalTurningPoint(f"E - V = {gap:.3e} at x = {x}")
    return 2.0 * action.m0 * gap / (s1 * s1)


def reduce_1d_check(action, trajectory):
    """max over states of |xdot dS0/dx - 2 (E - V)|: the 1D law of motion."""
    _require_1d(action)
    worst = 0.0
    for st in trajectory.states:
        s = sample(action, st.position)
        worst = max(worst, abs(st.velocity[0] * s.grad_s0[0] - 2.0 * (action.e - s.v)))
    return worst
