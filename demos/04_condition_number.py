"""Conditioning of the saddle-point matrix under refinement.

The system inherits the ill-posedness of the continuation problem: its
two-norm condition number grows like h**-4 as the mesh is refined (the
largest singular value stays O(1) while the smallest collapses).  Small
systems are checked against a dense SVD; large ones use power iteration
for sigma_max and inverse iteration through a sparse LU for sigma_min.
"""

from dataclasses import replace

from ucfem.experiments import estimate_rate, get_case, run_ladder
from ucfem.saddle import exact_condition_number

# each rung's condition number is estimated on the factors of its solve
case = replace(get_case("ex1-const"), cond="estimate", cond_tol=1e-6)


def cross_check(rung):
    """Compare the iterative estimate with a dense SVD of the system."""
    est = rung.solution.cond
    exact = exact_condition_number(rung.system)
    print(f"N={rung.N:3d}: exact {exact:.6e}  estimate {est.value:.6e}  "
          f"({est.iterations[0]}+{est.iterations[1]} iterations)")


def report(rung):
    est = rung.solution.cond
    print(f"N={rung.N:3d}: cond ~ {est.value:.3e}  converged={est.converged}")
    return rung.h, est.value


# cross-check the iterative estimate against a dense SVD while feasible
run_ladder(replace(case, ladder=(4, 8)), cross_check)
pairs = run_ladder(replace(case, ladder=(8, 16, 32, 64)), report)

fit = estimate_rate(pairs)
print(f"log-log slope of cond vs h: {fit.slope:.3f} "
      f"(per step: {', '.join(f'{s:.3f}' for s in fit.per_step)})")
print("slopes near -4 reflect sigma_min ~ h**4; the -4 bound is sharp here")
