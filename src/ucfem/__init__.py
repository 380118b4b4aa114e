"""Stabilized P1 finite elements for data assimilation in
convection-diffusion problems on the unit square.

The package solves the ill-posed unique-continuation problem: recover the
solution of -mu*laplace(u) + beta.grad(u) = f on the whole domain from
measurements restricted to a subregion, without boundary conditions, by
minimizing a data misfit subject to the PDE with consistent primal/dual
stabilization.
"""

__version__ = "0.1.0"

from .mesh import (Mesh, Region, UNIT_SQUARE, build_unit_square_mesh,
                   locate_points, mesh_size)
from .fem import (FeFunction, QuadratureRule, edge_rule, interpolate,
                  l2_project, mass_matrix, triangle_rule)
from .forms import (ProblemSpec, assemble_all, constant_field, swirl_field,
                    zero_field)
from .saddle import (NumericalFailure, SaddleSystem, Solution, build_system,
                     estimate_condition_number, exact_condition_number, solve)
from .experiments import (CaseDefinition, ConvergenceTable, ExactSolution,
                          NoiseModel, apply_noise, builtin_cases,
                          derive_source, discretize, estimate_rate,
                          get_case, polynomial_bump, run_case)
from .stability import (LogConvexityInstance, ThreeBallConfig,
                        audit_log_convexity, harmonic_family_sweep,
                        harmonic_member, holder_exponent, log_convexity_bound,
                        probe_fem_solution, three_ball_ratio)
