"""Effect of measurement noise on the reconstruction.

Every node of the measurement region is perturbed by an independent
uniform draw in [-h**law, h**law].  With law = 1 the perturbation sits
at the discretization-error scale; with law = 0.5 it decays slower than
the convergence of the clean reconstruction.  Because independent nodal
noise is dominated by high frequencies, the stabilized solver filters
much of it: the observed impact on coarse meshes is the largest, and on
fine meshes the noisy and clean errors approach each other.
"""

from dataclasses import replace

from ucfem.experiments import get_case, run_case

ladder = (8, 16, 32, 64)
clean = run_case(replace(get_case("ex1-const"), ladder=ladder))
mild = run_case(replace(get_case("ex1-const-noise-h"), ladder=ladder))
rough = run_case(replace(get_case("ex1-const-noise-sqrt"), ladder=ladder))

print("relative L2(B) errors")
print(f"{'N':>4} {'clean':>12} {'noise ~h':>12} {'noise ~sqrt(h)':>15}")
for rc, rm, rr in zip(clean.rows, mild.rows, rough.rows):
    print(f"{rc.N:4d} {rc.err_l2_B:12.4e} {rm.err_l2_B:12.4e} "
          f"{rr.err_l2_B:15.4e}")

print()
print("ratio to the clean error")
for rc, rm, rr in zip(clean.rows, mild.rows, rough.rows):
    print(f"{rc.N:4d} {rm.err_l2_B / rc.err_l2_B:12.3f} "
          f"{rr.err_l2_B / rc.err_l2_B:15.3f}")

# reruns with the same seed are bit-identical; change NoiseModel.seed
# (or the --seed flag of the command line) to sample another draw
