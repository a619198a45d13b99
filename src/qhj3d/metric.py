"""Pointwise quantum metric and the flattening coordinate transformation.

The diagonal metric a^{mumu} = 1 - hbar^2 (d_mu S0)^{-2} (d^2_mu R)/R turns
the quantum Hamilton-Jacobi equation into classical form. A 3x3 Jacobian
J[mu][nu] = dx^mu/dxhat^nu realizes the transformation pointwise when it
satisfies twelve constraint equations; those equations fix J only up to a
right rotation, and the canonical gauge picked here is the positive
diagonal square root.

metric_at, canonical_jacobian and verify_transformation are array-generic
like the kernel: at a point they return (3,), (3, 3) and (12,) arrays and
raise on an undefined point; over coordinate arrays the same bodies add
the batch axes in front and report an undefined point in the status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_coords, at_point, stack, where
from .errors import (
    NODE_SINGULAR,
    NON_RIEMANNIAN,
    OK,
    ClassicalTurningPoint,
    NodeSingularity,
    NonRiemannianPoint,
    ZeroConjugateMomentum,
)
from .hj_core import (MOMENTUM_EPS, ReducedActionField, sample, _require_1d, _s0_derivatives_and_v_1d,
                      _sample_field)

TWELVE_EQUATION_LABELS = (
    "row_norm_x", "row_norm_y", "row_norm_z",
    "row_orth_xy", "row_orth_xz", "row_orth_yz",
    "col_norm_x", "col_norm_y", "col_norm_z",
    "col_orth_xy", "col_orth_xz", "col_orth_yz",
)


@dataclass(frozen=True)
class QuantumMetric:
    """Diagonal metric components, axis last: (3,) at a point, batch
    shape plus (3,) over arrays; off-diagonals vanish identically and are
    not stored. signature holds one '+', '-' or '0' per axis (arrays of
    them over arrays). status is OK at a point; over arrays it marks nodal,
    node-singular and out-of-domain points, whose components are
    placeholders."""

    point: np.ndarray
    a_upper: np.ndarray
    a_lower: np.ndarray
    signature: tuple
    status: int = OK


@dataclass(frozen=True)
class JacobianMatrix:
    """entries[..., mu, nu] = dx^mu / dxhat^nu. status is the metric's
    status with NON_RIEMANNIAN added over arrays; such rows, and the rows
    of undefined points, hold the identity."""

    entries: np.ndarray
    status: int = OK


def a_upper_from_sample(action: ReducedActionField, s):
    """Diagonal a^{mumu} from an ActionSample, as an (x, y, z) tuple like
    s.grad_s0, and the sample's status with NODE_SINGULAR added.

    Axes along which the field is flat (d_mu S0 and d^2_mu R both vanish)
    carry no quantum correction: a^{mumu} = 1 there. A vanishing momentum
    component with a surviving correction is a genuine NodeSingularity: a
    point raises it, and over arrays such points read 1 and are marked.
    """
    hbar2 = action.hbar**2
    p_scale = max(1.0, 2.0 * action.m0 * abs(action.e))
    status = s.status
    point = at_point(status)
    a_upper = []
    for mu in range(3):
        ds = s.grad_s0[mu]
        corr = hbar2 * s.hessian_r_diag[mu] / s.amplitude
        moving = abs(ds) >= MOMENTUM_EPS
        flat = abs(corr) <= MOMENTUM_EPS * p_scale
        if point:
            if not (moving or flat):
                raise NodeSingularity(mu, f"d_{'xyz'[mu]} S0 = {ds:.3e} with nonzero quantum correction")
            a_upper.append(1.0 - corr / (ds * ds) if moving else 1.0)
            continue
        singular = ~(moving | flat)
        status = np.where(singular & (status == OK), NODE_SINGULAR, status)
        a_upper.append(np.where(moving, 1.0 - corr / np.where(moving, ds * ds, 1.0), 1.0))
    return tuple(a_upper), status


def a_upper_gradient(action: ReducedActionField, fs, r):
    """The ActionSample at the point r built on fs, an order-3 field
    evaluation there; a^{mumu} from it (a_upper_from_sample, which raises
    NodeSingularity); and its exact gradient grad_a[nu][mu] = d_nu a^{mumu}.

    With psi = phi + i theta' = R exp(i S0 / hbar) and w_mu = d_mu psi / psi,
    p_mu = d_mu S0 = hbar Im w_mu and d_mu ln R = Re w_mu, so
    Q_mu = (d^2_mu R)/R = Re d_mu w_mu + (Re w_mu)^2 and
    a^{mumu} = 1 - hbar^2 Q_mu / p_mu^2. The derivatives of w, hence d_nu p_mu
    and d_nu Q_mu, follow from the Hessian and third partials of psi. The
    gradient is 0 along flat axes and where a^{mumu} = 1 because
    d_mu S0 = 0.

    Only entries of w, the Hessian and the third partials of psi over pairs
    of active axes are read, so only those are formed: 3 complex
    combinations on a field varying along one axis, 10 along two.
    """
    s = _sample_field(action, fs, r)
    a_upper, _ = a_upper_from_sample(action, s)
    hbar = action.hbar
    hbar2 = hbar**2
    ct, cp = complex(0.0, action.a), complex(1.0, action.b)
    inv = 1.0 / (ct * fs.theta + cp * fs.phi)
    active = [nu for nu in range(3) if action.field.active_axes[nu]]
    w, hess, third = {}, {}, {}  # keyed by nu and by (nu, mu)
    for nu in active:
        w[nu] = (ct * fs.grad_theta[nu] + cp * fs.grad_phi[nu]) * inv
        for mu in active:
            hess[nu, mu] = (ct * fs.hessian_theta[nu][mu] + cp * fs.hessian_phi[nu][mu]) * inv
            third[nu, mu] = (ct * fs.third_theta[nu][mu] + cp * fs.third_phi[nu][mu]) * inv
    grad_a = [[0.0] * 3 for _ in range(3)]
    for mu in active:
        p = s.grad_s0[mu]
        if abs(p) < MOMENTUM_EPS:
            continue
        wm, hmm = w[mu], hess[mu, mu]
        q = (hmm - wm * wm).real + wm.real**2
        for nu in active:
            dw = hess[nu, mu] - w[nu] * wm  # d_nu w_mu
            d2w = third[nu, mu] - hmm * w[nu] - 2.0 * wm * dw  # d_nu d_mu w_mu
            dq = d2w.real + 2.0 * wm.real * dw.real
            dp = hbar * dw.imag
            grad_a[nu][mu] = -hbar2 * (dq - 2.0 * q * dp / p) / (p * p)
    return s, a_upper, grad_a


def signature_chars(a_upper) -> tuple:
    """'+', '-' or '0' for each component of a^{mumu}."""
    return tuple(where(a > 0, "+", where(a < 0, "-", "0")) for a in a_upper)


def metric_at(action: ReducedActionField, r) -> QuantumMetric:
    """Diagonal quantum metric at r: a point, or coordinate arrays that
    broadcast together. A nodal, node-singular or out-of-domain point
    raises as sample and a_upper_from_sample do; over arrays the status
    marks it instead."""
    s = sample(action, r)
    a_upper, status = a_upper_from_sample(action, s)
    signature = signature_chars(a_upper)
    a_upper = stack(a_upper)
    with np.errstate(divide="ignore"):
        a_lower = 1.0 / a_upper
    return QuantumMetric(
        point=stack(as_coords(r)),
        a_upper=a_upper,
        a_lower=a_lower,
        signature=signature,
        status=status,
    )


def canonical_jacobian(metric: QuantumMetric) -> JacobianMatrix:
    """diag(sqrt(a^{xx}), sqrt(a^{yy}), sqrt(a^{zz})) -- the rotation-gauge
    representative. Needs a Riemannian point (all a^{mumu} > 0): a point
    raises NonRiemannianPoint, and over arrays the status marks it."""
    a_upper = metric.a_upper
    riemannian = ~np.any(a_upper <= 0.0, axis=-1)
    status = metric.status
    if at_point(status):
        if not riemannian:
            raise NonRiemannianPoint(metric.signature)
    else:
        status = np.where((status == OK) & ~riemannian, NON_RIEMANNIAN, status)
        a_upper = np.where((status == OK)[..., None], a_upper, 1.0)
    return JacobianMatrix(entries=np.sqrt(a_upper)[..., :, None] * np.eye(3), status=status)


_UPPER = ([0, 0, 1], [1, 2, 2])  # the index pairs xy, xz, yz


def verify_transformation(jacobian: JacobianMatrix, metric: QuantumMetric) -> np.ndarray:
    """Absolute residuals of the twelve constraint equations, last axis in
    TWELVE_EQUATION_LABELS order.

    Rows: sum_nu J[mu][nu]^2 = a^{mumu} and row orthogonality. Columns:
    sum_mu J[mu][nu]^2 a_{mumu} = 1 and weighted column orthogonality.
    Always returns the 12 residuals, even for invalid pairs.
    """
    j = jacobian.entries
    with np.errstate(invalid="ignore"):
        rows = (j[..., :, None, :] * j[..., None, :, :]).sum(axis=-1)  # J J^T
        cols = (j[..., :, :, None] * j[..., :, None, :] * metric.a_lower[..., :, None, None]).sum(axis=-3)
    return np.abs(np.concatenate([
        np.diagonal(rows, axis1=-2, axis2=-1) - metric.a_upper,
        rows[..., _UPPER[0], _UPPER[1]],
        np.diagonal(cols, axis1=-2, axis2=-1) - 1.0,
        cols[..., _UPPER[0], _UPPER[1]],
    ], axis=-1))


def schwarzian_1d(s0_derivs) -> float:
    """{S0, x} = S0'''/S0' - (3/2)(S0''/S0')^2, standard convention."""
    s1, s2, s3 = s0_derivs
    if abs(s1) < MOMENTUM_EPS:
        raise ZeroConjugateMomentum(f"S0' = {s1:.3e}")
    return s3 / s1 - 1.5 * (s2 / s1) ** 2


def fm_factor_1d(action: ReducedActionField, x: float) -> float:
    """(dx/dxhat)^2 for a field varying along x only.

    Computed as 2 m0 (E - V) / (S0')^2, the form the 1D classical-form
    equation forces. Equals 1 + (hbar^2/2)(S0')^{-2}{S0,x} and the 1D
    a^{xx} wherever all three are defined.
    """
    _require_1d(action.field)
    (s1, _, _), v_total = _s0_derivatives_and_v_1d(action, x)
    gap = action.e - v_total
    if abs(gap) < 1e-14:
        raise ClassicalTurningPoint(f"E - V = {gap:.3e} at x = {x}")
    return 2.0 * action.m0 * gap / (s1 * s1)
