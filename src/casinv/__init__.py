"""casinv: Casimir invariants of finite-dimensional Poisson systems.

Given the structure matrix of a Poisson system this package finds the
degeneracy relations tying the dependent rows to a full-rank block, turns
each relation into a Pfaffian differential equation, integrates those to
closed-form Casimir invariants, and verifies the results both symbolically
and numerically.

The usual round trip:

    >>> from casinv import load_fixture, integrate_all
    >>> system = load_fixture("so3")
    >>> result = integrate_all(system.matrix)
    >>> print(result.casimirs[0].expr)
    x1^2 + x2^2 + x3^2
"""

from .cost import CostReport, quadrature_cost
from .expr import (
    AlgebraError,
    Domain,
    EvalDomainError,
    Expr,
    ParseError,
    VariableSet,
    differentiate,
    evaluate,
    format_expr,
    parse,
    zero_verdict,
)
from .fixtures import fixture_names, load_fixture
from .gamma import GammaCertificationError, GammaMatrix, solve_gamma
from .integrate import (
    CasimirResult,
    IntegrationError,
    IntegrationResult,
    NonElementaryError,
    find_eta,
    integrate_all,
)
from .matrix import RankInstabilityError, StructureMatrix
from .sysfile import ParsedSystem, SystemFileError, load_system, parse_system
from .verify import casimir_check, degeneracy_residual, flow_conservation, gradient_rank

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "CasimirResult",
    "CostReport",
    "Domain",
    "EvalDomainError",
    "Expr",
    "GammaCertificationError",
    "GammaMatrix",
    "IntegrationError",
    "IntegrationResult",
    "NonElementaryError",
    "ParseError",
    "ParsedSystem",
    "RankInstabilityError",
    "StructureMatrix",
    "SystemFileError",
    "VariableSet",
    "casimir_check",
    "degeneracy_residual",
    "differentiate",
    "evaluate",
    "find_eta",
    "fixture_names",
    "flow_conservation",
    "format_expr",
    "gradient_rank",
    "integrate_all",
    "load_fixture",
    "load_system",
    "parse",
    "parse_system",
    "quadrature_cost",
    "solve_gamma",
    "zero_verdict",
    "__version__",
]
