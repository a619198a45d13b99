"""Exception taxonomy for the quantum Hamilton-Jacobi engine.

Singularities of the construction (nodes of the amplitude, vanishing
conjugate-momentum components) get their own types so callers can tell
"the math is singular here" apart from plain usage errors.
"""

from __future__ import annotations

# Per-point status of an evaluation over arrays. Evaluated at a single
# point, the same code raises the matching exception instead.
OK = 0
NODAL = 1          # NodalPoint
NODE_SINGULAR = 2  # NodeSingularity
OUT_OF_DOMAIN = 3  # OutOfDomain
NON_RIEMANNIAN = 4  # NonRiemannianPoint (canonical_jacobian)


class QhjError(Exception):
    """Base class for package-specific errors."""


class OutOfDomain(QhjError):
    """Evaluation outside a tabulated grid, Numerov table, or axis domain."""


class UnknownCatalogEntry(QhjError):
    """Requested analytic-solution catalog id does not exist."""


class InconsistentEnergy(QhjError):
    """Supplied axis energy conflicts with the catalog entry's parameters."""


class DegenerateICs(QhjError):
    """Initial conditions of the two Numerov solutions are parallel."""


class Overflow(QhjError):
    """Solution magnitude blew past the overflow guard (classically
    forbidden growth); the caller must shrink the domain."""


class ProportionalSolutions(QhjError):
    """theta and phi are (numerically) linearly dependent."""


class NodalPoint(QhjError):
    """theta' and phi vanish together: R ~ 0 and the construction is
    singular at this point."""


class NodeSingularity(QhjError):
    """A conjugate-momentum component vanishes where the quantum correction
    does not, so the corresponding metric component is undefined."""

    def __init__(self, axis: int, message: str | None = None):
        self.axis = axis
        super().__init__(message or f"metric component undefined along axis {axis}")


class ZeroConjugateMomentum(QhjError):
    """dS0/dx ~ 0 where a 1D formula needs to divide by it."""


class ClassicalTurningPoint(QhjError):
    """E - V ~ 0: the 1D coordinate factor degenerates."""


class NonRiemannianPoint(QhjError):
    """Some diagonal metric component is <= 0, so no real Jacobian square
    root exists at this point (the metric itself is still well defined)."""

    def __init__(self, signature, message: str | None = None):
        self.signature = tuple(signature)
        sig = "(" + ",".join(self.signature) + ")"
        super().__init__(message or f"signature {sig} admits no real transformation")


class ScenarioError(QhjError):
    """Base for scenario-file problems."""


class ParseError(ScenarioError):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class ValidationError(ScenarioError):
    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")
