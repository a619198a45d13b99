"""Quantum trajectories from 3D stationary Hamilton-Jacobi solution pairs."""

from .errors import (
    ClassicalTurningPoint,
    DegenerateICs,
    InconsistentEnergy,
    NodalPoint,
    NodeSingularity,
    NonRiemannianPoint,
    OutOfDomain,
    Overflow,
    ParseError,
    ProportionalSolutions,
    QhjError,
    ScenarioError,
    UnknownCatalogEntry,
    ValidationError,
    ZeroConjugateMomentum,
)
from .arrays import sparse_grid
from .potentials import (
    AxisPotential,
    Free,
    HarmonicOscillator,
    LinearRamp,
    SeparablePotential,
    Tabulated,
    evaluate,
)
from .schrodinger import (
    AxisSolution,
    AxisSolutionPair,
    FieldSample,
    SolutionField3D,
    assemble_field,
    evaluate_field,
    solve_axis_analytic,
    solve_axis_numerov,
    wronskian,
)
from .hj_core import (
    ActionSample,
    ReducedActionField,
    continuity_identity_from_sample,
    continuity_identity_residual,
    floyd_residual_1d,
    qshje_from_sample,
    qshje_residual,
    s0_derivatives_1d,
    sample,
)
from .metric import (
    JacobianMatrix,
    QuantumMetric,
    TWELVE_EQUATION_LABELS,
    a_upper_from_sample,
    canonical_jacobian,
    fm_factor_1d,
    metric_at,
    schwarzian_1d,
    verify_transformation,
)
from .dynamics import (
    IntegratorConfig,
    Termination,
    Trajectory,
    TrajectoryState,
    energy_residual,
    integrate_first_order,
    integrate_second_order,
    law_residual,
    quantum_lagrangian,
    reduce_1d_check,
    velocity_field,
)
from .scenario import (
    Scenario,
    build_action,
    build_field,
    build_potential,
    parse_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"
