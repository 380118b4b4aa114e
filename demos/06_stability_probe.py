"""Numerical probes of the conditional-stability theory.

Two quantitative ingredients behind the error analysis are checked
directly, independent of any finite element computation:

* the log-convexity lemma that converts a two-parameter exponential
  bound into a Hoelder interpolation inequality (audited on random
  premises manufactured to satisfy its hypotheses);
* the three-ball inequality ||u||_B2 <= C ||u||_B1**kappa *
  ||u||_B3**(1-kappa) for solutions of the homogeneous equation,
  explored on a family of harmonic polynomials and on discrete
  reconstructions.
"""

from dataclasses import replace

from ucfem.experiments import get_case
from ucfem.stability import (ThreeBallConfig, audit_log_convexity,
                             harmonic_family_sweep, holder_exponent,
                             probe_fem_solution)

# randomized audit: c is built from the envelope, so the lemma must hold
report = audit_log_convexity(10_000, seed=2026)
print(f"log-convexity audit: {report['violations']} violations in "
      f"{report['samples']} samples, worst ratio {report['worst_ratio']:.6f}")

# the interpolation exponent for geometric radii with unit constant
kappa = holder_exponent(0.1, 0.2, 0.4, c3=1.0)
print(f"three-ball exponent for radii (0.1, 0.2, 0.4): kappa = {kappa}")

# harmonic family z**k: calibrating kappa on k=1 makes every member tight
sweep = harmonic_family_sweep(k_max=8)
print(f"harmonic sweep: kappa={sweep['kappa']:.4f}, c3={sweep['c3']:.4f}")
for k, ratio in enumerate(sweep["ratios"], start=1):
    print(f"  k={k}: ratio {ratio:.8f}")

# the same probe applied to discrete reconstructions along the ladder;
# ratios stay bounded, a discrete echo of the continuous estimate
case = replace(get_case("ex1-const"), ladder=(8, 16, 32))
config = ThreeBallConfig((0.5, 0.5), (0.1, 0.2, 0.4), kappa)
for n, ratio in probe_fem_solution(case, config):
    print(f"FEM reconstruction, N={n}: three-ball ratio {ratio:.4f}")
