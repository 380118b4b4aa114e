"""Acceptance gate: one test per headline criterion.

Each test prints a single PASS/FAIL line (visible with -rA or on failure)
and asserts the criterion at its stated tolerance.  The expensive inputs
(the six-case convergence tables, ex1-const's with its condition
estimates, and the noisy reruns) are computed once per session.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.sparse as sp

import dense_oracle
from ucfem.experiments import (estimate_rate, get_case, polynomial_bump,
                               run_case, run_ladder)
from ucfem.fem import interpolate, mass_matrix, triangle_geometry
from ucfem.forms import assemble_all, constant_field, swirl_field
from ucfem.mesh import UNIT_SQUARE, build_unit_square_mesh, mesh_size
from ucfem.saddle import build_system, exact_condition_number, solve
from ucfem.stability import (ThreeBallConfig, audit_log_convexity,
                             harmonic_family_sweep, harmonic_member,
                             three_ball_ratio)

NOISELESS = ("ex1-const", "ex1-swirl", "ex2-const", "ex2-swirl",
             "ex3-const", "ex3-swirl")

# target fitted rates (err_h1_B, err_l2_B, s_norm, sstar_norm) per case
RATE_TARGETS = {
    "ex1-const": (0.45, 0.56, 1.10, 1.33),
    "ex1-swirl": (0.29, 0.42, 1.32, 1.34),
    "ex2-const": (0.80, 0.94, 1.24, 1.20),
    "ex2-swirl": (1.02, 1.07, 1.30, 1.25),
    "ex3-const": (1.00, 1.81, 1.04, 1.52),
    "ex3-swirl": (1.00, 1.13, 1.30, 1.16),
}
RATE_TOL = 0.15


@pytest.fixture(scope="module")
def tables():
    cases = {name: get_case(name) for name in NOISELESS}
    # ex1-const's rows carry criterion 2's condition estimates as well
    cases["ex1-const"] = dataclasses.replace(cases["ex1-const"],
                                             cond="estimate", cond_tol=1e-6)
    return {name: run_case(case) for name, case in cases.items()}


@pytest.fixture(scope="module")
def noisy_tables():
    return {law: run_case(get_case(f"ex1-const-noise-{law}"))
            for law in ("h", "sqrt")}


def _finish(label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {label}: {status}")
    assert not failures, f"{label}:\n" + "\n".join(f"  - {f}" for f in failures)


def test_criterion_1_rate_reproduction(tables):
    failures = []
    columns = ("err_h1_B", "err_l2_B", "s_norm", "sstar_norm")
    labels = ("H1", "L2", "s", "s*")
    for name in NOISELESS:
        table = tables[name]
        for col, lab, target in zip(columns, labels, RATE_TARGETS[name]):
            got = table.rates[col].slope
            if abs(got - target) > RATE_TOL:
                failures.append(f"{name} {lab}: fitted {got:.3f}, "
                                f"target {target} +/- {RATE_TOL}")
    for name in ("ex3-const", "ex3-swirl"):
        finest = tables[name].rows[-1].err_l2_B
        if not finest < 1e-4:
            failures.append(f"{name} finest relative L2 {finest:.3e} "
                            f"not below 1e-4")
    _finish("criterion 1 (convergence rates)", failures)


@pytest.fixture(scope="module")
def cond_agreement():
    """(N, exact, estimate) of ex1-const's condition number at N = 4, 8."""
    case = dataclasses.replace(get_case("ex1-const"), ladder=(4, 8),
                               cond="estimate", cond_tol=1e-6)
    return run_ladder(case, lambda rung: (
        rung.N, exact_condition_number(rung.system),
        rung.solution.cond.value))


def test_criterion_2_condition_number(tables, cond_agreement):
    rows = tables["ex1-const"].rows
    failures = []
    for row in rows:
        if not row.cond_converged:
            failures.append("condition estimate did not converge")
    fit = estimate_rate([(row.h, row.cond) for row in rows])
    for i, slope in enumerate(fit.per_step):
        if not (-3.6 <= slope <= -2.8):
            failures.append(f"per-step slope {i}: {slope:.3f} outside "
                            f"[-3.6, -2.8]")
        if slope < -4.0:
            failures.append(f"per-step slope {i}: {slope:.3f} exceeds the "
                            f"theoretical -4 bound")
    for n, exact, est in cond_agreement:
        if abs(est - exact) > 0.05 * exact:
            failures.append(f"N={n}: exact {exact:.4e} vs estimate "
                            f"{est:.4e} differ by more than 5%")
    _finish("criterion 2 (condition number)", failures)


def test_criterion_3_noise_robustness(tables, noisy_tables):
    failures = []
    clean = tables["ex1-const"].rows
    mild = noisy_tables["h"].rows
    rough = noisy_tables["sqrt"].rows
    for rc, rn in zip(clean, mild):
        ratio = rn.err_l2_B / rc.err_l2_B
        if ratio > 2.0:
            failures.append(f"O(h) noise at N={rc.N}: L2(B) ratio "
                            f"{ratio:.3f} above 2x the noiseless error")
    for rc, rn in zip(clean[-2:], rough[-2:]):
        ratio = rn.err_l2_B / rc.err_l2_B
        if not ratio > 2.0:
            failures.append(f"O(sqrt h) noise at N={rc.N}: L2(B) ratio "
                            f"{ratio:.3f} does not exceed 2x")
    _finish("criterion 3 (noise robustness)", failures)


def test_criterion_4_property_suites(tables):
    failures = []
    rng = np.random.default_rng(123)

    # suite A: symmetry, zero data -> zero solution, linearity
    t0 = time.perf_counter()
    case = get_case("ex1-swirl")
    mesh = build_unit_square_mesh(16)
    data = interpolate(case.exact.value, mesh)
    blocks = assemble_all(case.spec, mesh)
    b_data = blocks.data_mass @ data.coefficients
    system = build_system(blocks.pde, blocks.primal, blocks.dual,
                          b_data, blocks.b_source)
    if system.symmetry_defect() > 1e-10:
        failures.append(f"symmetry defect {system.symmetry_defect():.2e}")
    zero_spec = dataclasses.replace(
        case.spec, f=lambda p: np.zeros(len(np.atleast_2d(p))))
    zdata = interpolate(lambda p: np.zeros(len(np.atleast_2d(p))), mesh)
    zb = assemble_all(zero_spec, mesh)
    zsol = solve(build_system(zb.pde, zb.primal, zb.dual,
                              zb.data_mass @ zdata.coefficients,
                              zb.b_source), mesh)
    if np.abs(zsol.u.coefficients).max() > 0 or \
            np.abs(zsol.z.coefficients).max() > 0:
        failures.append("zero data produced a nonzero solution")
    sol = solve(system, mesh)
    half = build_system(blocks.pde, blocks.primal, blocks.dual,
                        0.5 * b_data, 0.5 * blocks.b_source)
    hsol = solve(half, mesh)
    lin = np.abs(hsol.u.coefficients - 0.5 * sol.u.coefficients).max()
    if lin > 1e-7 * (1 + np.abs(sol.u.coefficients).max()):
        failures.append(f"solution not linear in the data: defect {lin:.2e}")
    if time.perf_counter() - t0 > 60:
        failures.append("suite A exceeded 60 s")

    # suite B: jump kernel = affines; stabilizers PSD on random vectors
    t0 = time.perf_counter()
    mesh4 = build_unit_square_mesh(4)
    spec = get_case("ex1-const").spec
    jump4 = assemble_all(spec, mesh4).jump.toarray()
    eig = np.linalg.eigvalsh(jump4)
    if not (np.abs(eig[:3]).max() < 1e-12 * max(1, eig[-1]) and
            eig[3] > 1e-12 * eig[-1]):
        failures.append("jump-penalty kernel is not exactly the affines")
    mesh8 = build_unit_square_mesh(8)
    blocks8 = assemble_all(spec, mesh8)
    for label, mat in (("s_omega", blocks8.data_mass),
                       ("s_jump", blocks8.jump), ("s_star", blocks8.dual)):
        for _ in range(100):
            v = rng.standard_normal(mesh8.n_nodes)
            if v @ (mat @ v) < -1e-12 * (v @ v):
                failures.append(f"{label} not positive semidefinite")
                break
    if time.perf_counter() - t0 > 60:
        failures.append("suite B exceeded 60 s")

    # suite C: discrete Poincare ratio against the frozen constant 0.15
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("ex1-const", "ex1-swirl"):
        pspec = dataclasses.replace(get_case(name).spec, gamma=1.0)
        for n in (8, 16, 32, 64):
            m = build_unit_square_mesh(n)
            h = mesh_size(m)
            smat = assemble_all(pspec, m).primal
            grads, areas = triangle_geometry(m)
            local = np.einsum("tid,tjd,t->tij", grads, grads, areas)
            rows = np.repeat(m.triangles, 3, axis=1).ravel()
            cols = np.tile(m.triangles, (1, 3)).ravel()
            stiff = sp.coo_matrix((local.ravel(), (rows, cols))).tocsr()
            mass = mass_matrix(m)
            pref = np.sqrt(pspec.mu) * h \
                + np.sqrt(pspec.beta_sup) * h ** 1.5
            for _ in range(50):
                v = rng.standard_normal(m.n_nodes)
                h1 = np.sqrt(v @ (mass @ v) + v @ (stiff @ v))
                ratio = pref * h1 / np.sqrt(v @ (smat @ v))
                worst = max(worst, ratio)
    if worst > 0.15:
        failures.append(f"discrete Poincare ratio {worst:.4f} above the "
                        f"frozen constant 0.15")
    if time.perf_counter() - t0 > 60:
        failures.append("suite C exceeded 60 s")

    # suite D: jump inequality normalized quantity bounded over the ladder
    t0 = time.perf_counter()
    bump = polynomial_bump()
    worst = 0.0
    for name in ("ex1-const", "ex1-swirl"):
        jspec = get_case(name).spec
        for n in (8, 16, 32, 64, 128):
            m = build_unit_square_mesh(n)
            h = mesh_size(m)
            c = interpolate(bump.value, m).coefficients
            jm = assemble_all(jspec, m).jump
            worst = max(worst, (c @ (jm @ c))
                        / (jspec.gamma * (jspec.mu + jspec.beta_sup * h)
                           * h ** 2))
    if worst > 600.0:
        failures.append(f"jump inequality ratio {worst:.1f} above the "
                        f"frozen constant 600")
    if time.perf_counter() - t0 > 60:
        failures.append("suite D exceeded 60 s")

    # suite E: regularization norm of (pi_h u - u_h, z_h) converges at
    # a rate of at least 0.9 in every noiseless case
    t0 = time.perf_counter()
    for name in NOISELESS:
        table = tables[name]
        combined = [np.hypot(r.s_norm, r.sstar_norm) for r in table.rows]
        fit = estimate_rate(zip([r.h for r in table.rows], combined))
        if fit.slope < 0.9:
            failures.append(f"{name}: regularization norm rate "
                            f"{fit.slope:.3f} below 0.9")
    if time.perf_counter() - t0 > 60:
        failures.append("suite E exceeded 60 s")

    _finish("criterion 4 (property suites)", failures)


def test_criterion_5_stability_probe():
    failures = []
    report = audit_log_convexity()
    if report["violations"] != 0:
        failures.append(f"convexity audit found {report['violations']} "
                        f"violations")
    config = ThreeBallConfig((0.5, 0.5), (0.1, 0.2, 0.4), 0.5)
    value, gradient, laplacian = harmonic_member(2)
    base = three_ball_ratio(value, gradient, config, laplacian=laplacian)
    for s in (1e-6, 3.0, 1e7):
        scaled = three_ball_ratio(
            lambda p, s=s: s * value(p), lambda p, s=s: s * gradient(p),
            config, laplacian=lambda p, s=s: s * laplacian(p))
        if abs(scaled - base) > 1e-10 * base:
            failures.append(f"three-ball ratio not scale invariant at "
                            f"s={s:g}: drift {abs(scaled - base):.2e}")
    sweep = harmonic_family_sweep()
    if sweep["max_ratio"] > 1.000001:
        failures.append(f"harmonic family ratio {sweep['max_ratio']:.6f} "
                        f"above the calibrated bound")
    _finish("criterion 5 (stability probe)", failures)


def test_criterion_6_dense_oracle_equivalence():
    failures = []
    bump = polynomial_bump()
    base = get_case("ex1-const").spec
    fields = {"const": (constant_field(1.0, 0.0), 1.0),
              "swirl": (swirl_field(), 200.0)}
    for n in (1, 2):
        mesh = build_unit_square_mesh(n)
        h = mesh_size(mesh)
        for fname, (beta, bsup) in fields.items():
            spec = dataclasses.replace(base, beta=beta, beta_sup=bsup,
                                       omega=UNIT_SQUARE)
            data = interpolate(bump.value, mesh)
            blocks = assemble_all(spec, mesh)
            checks = {
                "pde": (blocks.pde.toarray(),
                        dense_oracle.dense_convection_diffusion(
                            mesh, spec.mu, beta, h)),
                "s_omega": (blocks.data_mass.toarray(),
                            dense_oracle.dense_data_mass(
                                mesh, spec.mu, bsup, h, UNIT_SQUARE)),
                "s_jump": (blocks.jump.toarray(),
                           dense_oracle.dense_gradient_jump(
                               mesh, spec.mu, bsup, h, spec.gamma)),
                "s_star": (blocks.dual.toarray(),
                           dense_oracle.dense_dual_stabilizer(
                               mesh, spec.mu, bsup, h, spec.gamma,
                               spec.gamma_star, spec.boundary_factor)),
                "b_source": (blocks.b_source, dense_oracle.dense_source_load(
                    mesh, spec.f)),
                "b_data": (blocks.data_mass @ data.coefficients,
                           dense_oracle.dense_data_load(
                               mesh, spec.mu, bsup, h, UNIT_SQUARE,
                               data.coefficients)),
            }
            for label, (sparse, dense) in checks.items():
                err = np.abs(sparse - dense).max()
                tol = 1e-10 * (1.0 + np.abs(dense).max())
                if err > tol:
                    failures.append(f"N={n} {fname} {label}: max entry "
                                    f"difference {err:.2e}")
    _finish("criterion 6 (dense oracle equivalence)", failures)
