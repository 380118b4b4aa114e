"""Conditioning of the saddle-point matrix under refinement.

The system inherits the ill-posedness of the continuation problem: its
two-norm condition number grows like h**-4 as the mesh is refined (the
largest singular value stays O(1) while the smallest collapses).  Small
systems are checked against a dense SVD; large ones use power iteration
for sigma_max and inverse iteration through a sparse LU for sigma_min.
"""

from ucfem.experiments import discretize, estimate_rate, get_case
from ucfem.saddle import exact_condition_number, solve

case = get_case("ex1-const")


def estimate_at(n):
    """The system of rung n, its h and the condition estimate on the
    factors of its solve."""
    mesh, blocks, system = discretize(case, n)
    est = solve(system, mesh, cond="estimate", cond_tol=1e-6).cond
    return system, blocks.h, est


# cross-check the iterative estimate against a dense SVD while feasible
for n in (4, 8):
    system, _, est = estimate_at(n)
    exact = exact_condition_number(system)
    print(f"N={n:3d}: exact {exact:.6e}  estimate {est.value:.6e}  "
          f"({est.iterations[0]}+{est.iterations[1]} iterations)")

pairs = []
for n in (8, 16, 32, 64):
    _, h, est = estimate_at(n)
    pairs.append((h, est.value))
    print(f"N={n:3d}: cond ~ {est.value:.3e}  converged={est.converged}")

fit = estimate_rate(pairs)
print(f"log-log slope of cond vs h: {fit.slope:.3f} "
      f"(per step: {', '.join(f'{s:.3f}' for s in fit.per_step)})")
print("slopes near -4 reflect sigma_min ~ h**4; the -4 bound is sharp here")
