"""Solve one data-assimilation problem and inspect the reconstruction.

No boundary conditions are prescribed anywhere.  The solver sees the
source term f on the whole square and (possibly noisy) values of the
unknown solution only on the measurement region omega; it reconstructs
the field everywhere by minimizing a stabilized Lagrangian, which leads
to a symmetric saddle-point system in the primal variable u_h and a
dual multiplier z_h.
"""

import numpy as np

from ucfem.experiments import discretize, error_norms, get_case
from ucfem.saddle import solve

case = get_case("ex1-const")
print(f"case {case.name}: data on omega (area {case.spec.omega.area:.4f}), "
      f"errors on B (area {case.spec.target.area:.4f})")

# mesh, measurements on omega, assembled blocks and the saddle system
mesh, blocks, system = discretize(case, 32)
print(f"mesh Peclet number {blocks.peclet:.4f} (diffusion dominated)")
print(f"saddle system: dimension {system.matrix.shape[0]}, "
      f"nnz {system.matrix.nnz}, symmetry defect {system.symmetry_defect():.1e}")

sol = solve(system, mesh)
print(f"relative algebraic residual {sol.diagnostics['relative_residual']:.2e}")

err_l2, err_h1, ref_l2, ref_h1 = error_norms(case.exact, sol.u,
                                             case.spec.target)
print(f"relative L2(B) error  {err_l2 / ref_l2:.4e}")
print(f"relative H1(B) error  {err_h1 / ref_h1:.4e}")

# the dual variable is a residual measure: it is small where the
# reconstruction is consistent with the PDE
z = sol.z.coefficients
print(f"dual variable range [{z.min():.2e}, {z.max():.2e}]")

# evaluate the reconstruction at arbitrary points
probe = np.array([[0.3, 0.7], [0.5, 0.5], [0.9, 0.1]])
for p, uh, u in zip(probe, sol.u(probe), case.exact.value(probe)):
    print(f"u_h({p[0]:.1f}, {p[1]:.1f}) = {uh:+.5f}   exact {u:+.5f}")
