"""Quantum trajectories from 3D stationary Hamilton-Jacobi solution pairs."""

from .errors import (
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
)
from .arrays import sparse_grid
from .potentials import (
    AxisPotential,
    Free,
    HarmonicOscillator,
    LinearRamp,
    SeparablePotential,
    Tabulated,
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
    PointSample,
    ReducedActionField,
    continuity_identity_from_sample,
    continuity_identity_residual,
    qshje_from_sample,
    sample,
)
from .metric import (
    JacobianMatrix,
    QuantumMetric,
    TWELVE_EQUATION_LABELS,
    a_upper_from_sample,
    canonical_jacobian,
    metric_at,
    verify_transformation,
)
from .dynamics import (
    IntegratorConfig,
    IntegratorStats,
    Termination,
    Trajectory,
    TrajectoryState,
    integrate_first_order,
    integrate_second_order,
    velocity_field,
)
from .scenario import (
    Scenario,
    build_action,
    build_field,
    parse_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"
