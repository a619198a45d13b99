"""Pointwise quantum metric and the flattening coordinate transformation.

The diagonal metric a^{mumu} = 1 - hbar^2 (d_mu S0)^{-2} (d^2_mu R)/R turns
the quantum Hamilton-Jacobi equation into classical form. A 3x3 Jacobian
J[mu][nu] = dx^mu/dxhat^nu realizes the transformation pointwise when it
satisfies twelve constraint equations; those equations fix J only up to a
right rotation, and the canonical gauge picked here is the positive
diagonal square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import at_point, where
from .errors import (
    NODE_SINGULAR,
    OK,
    ClassicalTurningPoint,
    NodeSingularity,
    NonRiemannianPoint,
    ZeroConjugateMomentum,
)
from .hj_core import MOMENTUM_EPS, ReducedActionField, s0_derivatives_1d, sample, _flat_axis_reference, _require_1d
from .potentials import evaluate as evaluate_potential

NODE_EPS = 1e-12

TWELVE_EQUATION_LABELS = (
    "row_norm_x", "row_norm_y", "row_norm_z",
    "row_orth_xy", "row_orth_xz", "row_orth_yz",
    "col_norm_x", "col_norm_y", "col_norm_z",
    "col_orth_xy", "col_orth_xz", "col_orth_yz",
)


@dataclass(frozen=True)
class QuantumMetric:
    """Diagonal metric components at one point; off-diagonals vanish
    identically and are not stored."""

    point: np.ndarray
    a_upper: np.ndarray
    a_lower: np.ndarray
    signature: tuple[str, str, str]


@dataclass(frozen=True)
class JacobianMatrix:
    """entries[mu][nu] = dx^mu / dxhat^nu."""

    entries: np.ndarray


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
    a_upper = []
    for mu in range(3):
        ds = s.grad_s0[mu]
        corr = hbar2 * s.hessian_r_diag[mu] / s.amplitude
        moving = abs(ds) >= NODE_EPS
        flat = abs(corr) <= NODE_EPS * p_scale
        singular = where(moving | flat, False, True)
        if at_point(status) and singular:
            raise NodeSingularity(mu, f"d_{'xyz'[mu]} S0 = {ds:.3e} with nonzero quantum correction")
        status = where(singular & (status == OK), NODE_SINGULAR, status)
        a_upper.append(where(moving, 1.0 - corr / where(moving, ds * ds, 1.0), 1.0))
    return tuple(a_upper), status


def signature_chars(a_upper) -> tuple:
    """'+', '-' or '0' for each component of a^{mumu}."""
    return tuple(where(a > 0, "+", where(a < 0, "-", "0")) for a in a_upper)


def metric_at(action: ReducedActionField, r) -> QuantumMetric:
    """Diagonal quantum metric at the point r."""
    s = sample(action, r)
    a_upper, _ = a_upper_from_sample(action, s)
    signature = signature_chars(a_upper)
    a_upper = np.array(a_upper)
    with np.errstate(divide="ignore"):
        a_lower = 1.0 / a_upper
    return QuantumMetric(
        point=np.asarray(r, dtype=float).copy(),
        a_upper=a_upper,
        a_lower=a_lower,
        signature=signature,
    )


def canonical_jacobian(metric: QuantumMetric) -> JacobianMatrix:
    """diag(sqrt(a^{xx}), sqrt(a^{yy}), sqrt(a^{zz})) -- the rotation-gauge
    representative. Needs a Riemannian point (all a^{mumu} > 0)."""
    if np.any(metric.a_upper <= 0.0):
        raise NonRiemannianPoint(metric.signature)
    return JacobianMatrix(entries=np.diag(np.sqrt(metric.a_upper)))


def verify_transformation(jacobian: JacobianMatrix, metric: QuantumMetric) -> np.ndarray:
    """Absolute residuals of the twelve constraint equations.

    Rows: sum_nu J[mu][nu]^2 = a^{mumu} and row orthogonality. Columns:
    sum_mu J[mu][nu]^2 a_{mumu} = 1 and weighted column orthogonality.
    Always returns the 12 residuals, even for invalid pairs.
    """
    j = jacobian.entries
    au, al = metric.a_upper, metric.a_lower
    res = np.empty(12)
    res[0:3] = [abs(float(j[mu] @ j[mu]) - au[mu]) for mu in range(3)]
    pairs = ((0, 1), (0, 2), (1, 2))
    res[3:6] = [abs(float(j[mu] @ j[nu])) for mu, nu in pairs]
    res[6:9] = [abs(float(np.sum(j[:, nu] ** 2 * al)) - 1.0) for nu in range(3)]
    res[9:12] = [abs(float(np.sum(j[:, nu] * j[:, nup] * al))) for nu, nup in pairs]
    return res


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
    s1, _, _ = s0_derivatives_1d(action, x)
    yref, zref = _flat_axis_reference(action.field)
    v_total, _ = evaluate_potential(action.field.potential, (x, yref, zref))
    gap = action.e - v_total
    if abs(gap) < 1e-14:
        raise ClassicalTurningPoint(f"E - V = {gap:.3e} at x = {x}")
    return 2.0 * action.m0 * gap / (s1 * s1)
