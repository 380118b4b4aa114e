"""Log-convexity lemma audit and three-ball inequality probes."""

from dataclasses import replace

import numpy as np
import pytest

from ucfem.experiments import get_case
from ucfem.stability import (LogConvexityInstance, ThreeBallConfig,
                             _polar_grid, audit_log_convexity,
                             calibrate_exponent, harmonic_family_sweep,
                             harmonic_member, holder_exponent,
                             log_convexity_bound, probe_fem_solution,
                             three_ball_ratio)


def test_log_convexity_symmetric_exponents_closed_form():
    # p = q gives kappa = 1/2 and constant r**(1/2) + r**(-1/2) = 2
    inst = LogConvexityInstance(a=4.0, b=9.0, c=0.0, p=1.0, q=1.0)
    kappa, const, bound = log_convexity_bound(inst)
    assert kappa == pytest.approx(0.5)
    assert const == pytest.approx(2.0)
    assert bound == pytest.approx(2.0 * 6.0)


def test_log_convexity_bound_is_tight_at_envelope_minimum():
    # with b >= a the envelope minimum 2*sqrt(ab) sits at lambda >= 0 and
    # the admissible c attains the bound exactly
    a, b = 1.0, 4.0
    c = min(b, 2.0 * np.sqrt(a * b))
    _, _, bound = log_convexity_bound(LogConvexityInstance(a, b, c, 1.0, 1.0))
    assert c == pytest.approx(bound, rel=1e-12)


def test_log_convexity_bound_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = rng.uniform(0.1, 10.0, 3)
        p, q = rng.uniform(0.1, 5.0, 2)
        lam0 = rng.uniform(0.0, 2.0)
        s = rng.uniform(1e-6, 1e6)
        _, _, bound = log_convexity_bound(
            LogConvexityInstance(a, b, c, p, q, lam0))
        _, _, scaled = log_convexity_bound(
            LogConvexityInstance(s * a, s * b, s * c, p, q, lam0))
        assert abs(scaled - s * bound) <= 1e-10 * s * bound


def test_log_convexity_instance_validation():
    with pytest.raises(ValueError):
        LogConvexityInstance(1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        LogConvexityInstance(1.0, 1.0, 1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        LogConvexityInstance(-1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        LogConvexityInstance(1.0, 1.0, 1.0, 1.0, 1.0, lambda0=-0.1)


def test_audit_log_convexity_full_run_has_zero_violations():
    report = audit_log_convexity()
    assert report["samples"] == 10_000
    assert report["seed"] == 2026
    assert report["violations"] == 0
    assert report["worst_ratio"] <= 1.0 + 1e-12
    assert report["worst_instance"] is not None


def test_holder_exponent_values_and_validation():
    # geometric radii with c3 = 1 give the midpoint exponent
    assert holder_exponent(0.1, 0.2, 0.4, 1.0) == pytest.approx(0.5)
    # larger c3 weakens the exponent
    assert holder_exponent(0.1, 0.2, 0.4, 4.0) < \
        holder_exponent(0.1, 0.2, 0.4, 1.0)
    with pytest.raises(ValueError):
        holder_exponent(0.2, 0.1, 0.4, 1.0)
    with pytest.raises(ValueError):
        holder_exponent(0.1, 0.2, 0.4, 0.0)


def test_disc_quadrature_polynomial_oracles():
    center, radius = (0.4, 0.6), 0.3
    pts, w = _polar_grid(center, radius, np.polynomial.legendre.leggauss(64),
                         128)
    assert w.sum() == pytest.approx(np.pi * radius**2, rel=1e-12)
    assert w @ pts[:, 0] == pytest.approx(center[0] * np.pi * radius**2,
                                          rel=1e-12)
    # centered second moment: integral of (x-x0)^2 over the disc
    assert w @ (pts[:, 0] - center[0]) ** 2 == pytest.approx(
        np.pi * radius**4 / 4.0, rel=1e-12)


def test_harmonic_member_gradient_and_validation():
    value, gradient, laplacian = harmonic_member(3, center=(0.3, 0.7))
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.1, 0.9, size=(25, 2))
    eps = 1e-6
    gx = (value(pts + [eps, 0]) - value(pts - [eps, 0])) / (2 * eps)
    gy = (value(pts + [0, eps]) - value(pts - [0, eps])) / (2 * eps)
    g = gradient(pts)
    assert np.abs(g[:, 0] - gx).max() < 1e-8
    assert np.abs(g[:, 1] - gy).max() < 1e-8
    assert np.abs(laplacian(pts)).max() == 0.0
    with pytest.raises(ValueError):
        harmonic_member(0)


def test_three_ball_config_validation():
    with pytest.raises(ValueError, match="unit square"):
        ThreeBallConfig((0.5, 0.5), (0.1, 0.3, 0.6), 0.5)
    with pytest.raises(ValueError):
        ThreeBallConfig((0.5, 0.5), (0.2, 0.1, 0.4), 0.5)
    with pytest.raises(ValueError):
        ThreeBallConfig((0.5, 0.5), (0.1, 0.2, 0.4), 1.5)
    with pytest.raises(ValueError):
        ThreeBallConfig((0.5, 0.5), (0.1, 0.2, 0.4), 0.5, norm="sup")


def test_three_ball_ratio_scale_invariant():
    config = ThreeBallConfig((0.5, 0.5), (0.1, 0.2, 0.4), 0.5)
    value, gradient, laplacian = harmonic_member(2)
    base = three_ball_ratio(value, gradient, config, laplacian=laplacian)
    for s in (1e-6, 3.0, 1e7):
        scaled = three_ball_ratio(
            lambda p, s=s: s * value(p), lambda p, s=s: s * gradient(p),
            config, laplacian=lambda p, s=s: s * laplacian(p))
        assert abs(scaled - base) <= 1e-10 * base


def test_three_ball_ratio_rejects_non_solutions():
    # u = x^2 has Laplacian 2, caught by the spot check of that Laplacian
    config = ThreeBallConfig((0.5, 0.5), (0.1, 0.2, 0.4), 0.5)
    value = lambda p: np.atleast_2d(p)[:, 0] ** 2
    gradient = lambda p: np.column_stack(
        [2 * np.atleast_2d(p)[:, 0], np.zeros(len(np.atleast_2d(p)))])
    with pytest.raises(ValueError, match="residual"):
        three_ball_ratio(value, gradient, config,
                         laplacian=lambda p: np.full(len(p), 2.0))
    # the same field passes when no Laplacian is given to check
    assert three_ball_ratio(value, gradient, config) > 0.0


def test_three_ball_ratio_degenerate_inner_disc():
    config = ThreeBallConfig((0.5, 0.5), (0.1, 0.2, 0.4), 0.5)

    def annular(p):
        p = np.atleast_2d(p)
        r = np.hypot(p[:, 0] - 0.5, p[:, 1] - 0.5)
        return np.maximum(0.0, r - 0.15) ** 2

    with pytest.raises(ValueError, match="degenerate"):
        three_ball_ratio(annular, lambda p: np.zeros((len(np.atleast_2d(p)), 2)),
                         config)


def test_calibration_makes_first_member_tight():
    value, gradient, _ = harmonic_member(1)
    radii = (0.1, 0.22, 0.37)
    kappa, c3 = calibrate_exponent(value, gradient, (0.5, 0.5), radii)
    assert 0 < kappa < 1
    assert holder_exponent(*radii, c3) == pytest.approx(kappa, rel=1e-12)
    config = ThreeBallConfig((0.5, 0.5), radii, kappa)
    ratio = three_ball_ratio(value, gradient, config,
                             laplacian=lambda p: np.zeros(len(np.atleast_2d(p))))
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_harmonic_family_sweep_is_bounded_after_calibration():
    sweep = harmonic_family_sweep()
    # geometric radii: kappa = 1/2 exactly, c3 = 1, and each member of the
    # family attains ratio one because the disc norms scale as r**(k+1)
    assert sweep["kappa"] == pytest.approx(0.5, abs=1e-12)
    assert sweep["c3"] == pytest.approx(1.0, abs=1e-10)
    assert len(sweep["ratios"]) == 8
    assert sweep["max_ratio"] <= 1.0 + 1e-9
    for ratio in sweep["ratios"]:
        assert ratio == pytest.approx(1.0, abs=1e-9)


def test_random_harmonic_mixtures_never_exceed_one():
    # Hadamard three-circle bound: for any harmonic function centred with
    # the discs, log of the disc L2 norm is convex in log r, so the ratio
    # with the calibrated exponent stays at or below one
    v1, g1, _ = harmonic_member(1)
    radii = (0.1, 0.2, 0.4)
    kappa, _ = calibrate_exponent(v1, g1, (0.5, 0.5), radii)
    config = ThreeBallConfig((0.5, 0.5), radii, kappa)
    rng = np.random.default_rng(17)
    members = [harmonic_member(k) for k in range(1, 7)]
    for _ in range(25):
        coeff = rng.standard_normal(len(members))

        def value(p, coeff=coeff):
            return sum(c * m[0](p) for c, m in zip(coeff, members))

        def gradient(p, coeff=coeff):
            return sum(c * m[1](p) for c, m in zip(coeff, members))

        ratio = three_ball_ratio(
            value, gradient, config,
            laplacian=lambda p: np.zeros(len(np.atleast_2d(p))))
        assert ratio <= 1.0 + 1e-9


def test_probe_fem_solution_smoke():
    case = replace(get_case("ex1-const"), ladder=(8, 16))
    config = ThreeBallConfig((0.5, 0.5), (0.1, 0.2, 0.4), 0.5)
    out = probe_fem_solution(case, config)
    assert [n for n, _ in out] == [8, 16]
    for _, ratio in out:
        assert np.isfinite(ratio) and ratio > 0.0
