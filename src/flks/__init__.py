"""Flux-limited Keller-Segel system with time-varying chemical decay.

Library layout:

- ``core``: decay laws, model parameters, grids, discrete states
- ``limiters``: flux-limiter catalog F(s) = f(s)*s
- ``quadrature``: adaptive Simpson, the Gauss-Legendre panel rule for
  the uniform relaxation, Ei, the Picard fixed-point engine, fourth-order
  stencils and exponential-kernel convolutions
- ``banded``: banded linear solves in numpy (cyclic reduction by QR)
- ``exact_solutions``: closed-form / quadrature solution families
- ``reduced_systems``: direct numerical integration of the reduced systems
- ``pde_solver``: method-of-lines solver for the full system
- ``lie_toolkit``: exact vector-field algebra for the generator catalog:
  affine fields with rational coefficients; the bracket is the
  augmented-matrix commutator
- ``verify``: residual, convergence-order and invariance checks
- ``cli``: config-driven command line front end
"""

__version__ = "0.1.0"

from .core import (
    CaseTag,
    ConstantDecay,
    ExponentialDecay,
    FieldPair,
    Grid1D,
    ModelParams,
    PowerLawDecay,
    TabulatedDecay,
    classify,
)
from .exact_solutions import (
    ExactSolution,
    case1_homogeneous,
    case2_travelling_tanh,
    case3_homogeneous,
    case4_cellfree_front,
    case4_homogeneous,
)
from .limiters import (
    AlgebraicSqrtLimiter,
    TanhLimiter,
    TanhLogLimiter,
    WeberFechnerLogLimiter,
    limiter_from_config,
)
from .pde_solver import SolverConfig, Trajectory, run, step
from .quadrature import (
    exp_integral_Ei,
    integrate_adaptive,
    picard_iterate,
)
from .reduced_systems import (
    ReducedProblem,
    integrate_travelling_wave,
    solve_self_similar,
    solve_steady_state,
)
from .verify import convergence_order, group_invariance_check, pde_residual

__all__ = [
    "__version__",
    "CaseTag",
    "ConstantDecay",
    "ExponentialDecay",
    "FieldPair",
    "Grid1D",
    "ModelParams",
    "PowerLawDecay",
    "TabulatedDecay",
    "classify",
    "ExactSolution",
    "case1_homogeneous",
    "case2_travelling_tanh",
    "case3_homogeneous",
    "case4_cellfree_front",
    "case4_homogeneous",
    "AlgebraicSqrtLimiter",
    "TanhLimiter",
    "TanhLogLimiter",
    "WeberFechnerLogLimiter",
    "limiter_from_config",
    "SolverConfig",
    "Trajectory",
    "run",
    "step",
    "exp_integral_Ei",
    "integrate_adaptive",
    "picard_iterate",
    "ReducedProblem",
    "integrate_travelling_wave",
    "solve_self_similar",
    "solve_steady_state",
    "convergence_order",
    "group_invariance_check",
    "pde_residual",
]
