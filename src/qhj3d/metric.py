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

from .arrays import at_point, stack, where
from .errors import NODE_SINGULAR, NON_RIEMANNIAN, OK, NodeSingularity, NonRiemannianPoint
from .hj_core import MOMENTUM_EPS, ReducedActionField, sample, _sample_field

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


def a_upper_gradient(action: ReducedActionField, fs, r, grad_v):
    """The ActionSample at the point r built on fs, a field evaluation there
    with hessian=True; a^{mumu} from it (a_upper_from_sample, which raises
    NodeSingularity); and its exact gradient grad_a[nu][mu] = d_nu a^{mumu},
    given grad_v, the potential gradient at r.

    With psi = phi + i theta' = R exp(i S0 / hbar) and w_mu = d_mu psi / psi,
    p_mu = d_mu S0 = hbar Im w_mu. Every product term solves u'' = f_mu u on
    axis mu, f_mu = 2 m0 (V_mu - E_mu) / hbar^2, so d_mu^2 psi = f_mu psi and
    a^{mumu} = 1 - hbar^2 (d^2_mu R / R) / p_mu^2 = 2 m0 (E_mu - V_mu) / p_mu^2.
    Hence

        d_nu a^{mumu} = -2 a^{mumu} (d_nu p_mu) / p_mu - delta_numu 2 m0 d_mu V / p_mu^2,

    with d_nu p_mu = hbar Im(d_nu d_mu psi / psi - w_nu w_mu) from the
    Hessian of psi. The gradient is 0 along flat axes and where
    a^{mumu} = 1 because d_mu S0 = 0. Only entries over pairs of active
    axes are formed: 1 Hessian entry of psi on a field varying along one
    axis, 4 along two.
    """
    s = _sample_field(action, fs, r)
    a_upper, _ = a_upper_from_sample(action, s)
    hbar, two_m0 = action.hbar, 2.0 * action.m0
    ct, cp = complex(0.0, action.a), complex(1.0, action.b)
    inv = 1.0 / (ct * fs.theta + cp * fs.phi)
    active = [nu for nu in range(3) if action.field.active_axes[nu]]
    w = {nu: (ct * fs.grad_theta[nu] + cp * fs.grad_phi[nu]) * inv for nu in active}
    grad_a = [[0.0] * 3 for _ in range(3)]
    for mu in active:
        p = s.grad_s0[mu]
        if abs(p) < MOMENTUM_EPS:
            continue
        for nu in active:
            hess = (ct * fs.hessian_theta[nu][mu] + cp * fs.hessian_phi[nu][mu]) * inv
            dp = hbar * (hess - w[nu] * w[mu]).imag
            grad_a[nu][mu] = -2.0 * a_upper[mu] * dp / p
        grad_a[mu][mu] -= two_m0 * grad_v[mu] / (p * p)
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
    return QuantumMetric(a_upper=a_upper, a_lower=a_lower, signature=signature, status=status)


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
