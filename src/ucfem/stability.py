"""Numerical probes of the conditional-stability estimates.

Two ingredients of the continuation theory are checked quantitatively:

* a log-convexity lemma: if c <= exp(p*t)*a + exp(-q*t)*b for all t beyond
  some t0 and c <= b, then c <= C * exp(q*t0) * a**kappa * b**(1-kappa)
  with kappa = q/(p+q) and C = r**(p/(p+q)) + r**(-q/(p+q)), r = q/p;

* three-ball inequalities: the Hoelder exponent for radii r1 < r2 < r3 is
  kappa = log(r3/r2) / (C3*log(r2/r1) + log(r3/r2)), and the ratio
  ||u||_B2 / (||u||_B1**kappa * ||u||_B3**(1-kappa)) should stay bounded
  over a family of solutions of L u = 0.

Disc norms are computed on a polar grid (Gauss in radius, uniform in
angle) that is independent of any finite element mesh, so the same probe
applies to closed-form solutions and to discrete reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .experiments import CaseDefinition, run_ladder

__all__ = [
    "LogConvexityInstance",
    "log_convexity_bound",
    "audit_log_convexity",
    "holder_exponent",
    "ThreeBallConfig",
    "three_ball_ratio",
    "harmonic_member",
    "harmonic_family_sweep",
    "probe_fem_solution",
]


@dataclass(frozen=True)
class LogConvexityInstance:
    """One premise set (a, b, c, p, q, lambda0) of the convexity lemma."""

    a: float
    b: float
    c: float
    p: float
    q: float
    lambda0: float = 0.0

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("exponents p and q must be positive")
        if self.a < 0 or self.b < 0 or self.c < 0:
            raise ValueError("a, b, c must be nonnegative")
        if self.lambda0 < 0:
            raise ValueError("lambda0 must be nonnegative")


def log_convexity_bound(inst: LogConvexityInstance):
    """Interpolation exponent, constant and bound of the convexity lemma.

    Returns (kappa, C, bound) with bound = C*exp(q*lambda0)*a**kappa *
    b**(1-kappa).  The constant comes from evaluating the envelope at its
    analytic minimizer, which also covers the corner case where the
    minimizer sits below lambda0.
    """
    p, q = inst.p, inst.q
    kappa = q / (p + q)
    r = q / p
    const = r ** (p / (p + q)) + r ** (-q / (p + q))
    bound = const * np.exp(q * inst.lambda0) * inst.a**kappa \
        * inst.b ** (1 - kappa)
    return kappa, const, float(bound)


# the convexity audit: its premise sets and their seed, and the lambda grid
# of each, points on [lambda0, lambda0 + span]
_AUDIT_SAMPLES = 10_000
_AUDIT_SEED = 2026
_AUDIT_GRID_POINTS = 20_001
_AUDIT_SPAN = 40.0


def audit_log_convexity() -> dict:
    """Randomized audit of the convexity lemma on 10,000 premise sets.

    For each sample the premise value c is manufactured directly from the
    envelope, as min(b, min over a lambda grid of exp(p*l)*a+exp(-q*l)*b)
    on (lambda0, lambda0 + 40], so the lemma's hypotheses hold by
    construction.  Returns violation count and the worst ratio c/bound.
    """
    rng = np.random.default_rng(_AUDIT_SEED)
    violations = 0
    worst = 0.0
    worst_inst = None
    for _ in range(_AUDIT_SAMPLES):
        a = rng.uniform(0.0, 10.0) or 1e-12
        b = rng.uniform(0.0, 10.0) or 1e-12
        p = rng.uniform(0.0, 5.0) or 1e-12
        q = rng.uniform(0.0, 5.0) or 1e-12
        lam0 = rng.uniform(0.0, 3.0)
        grid = np.linspace(lam0, lam0 + _AUDIT_SPAN, _AUDIT_GRID_POINTS)[1:]
        envelope = np.exp(p * grid) * a + np.exp(-q * grid) * b
        c = min(b, float(envelope.min()))
        inst = LogConvexityInstance(a, b, c, p, q, lam0)
        _, _, bound = log_convexity_bound(inst)
        ratio = c / bound if bound > 0 else np.inf
        if ratio > worst:
            worst, worst_inst = ratio, inst
        if c > bound:
            violations += 1
    return {
        "violations": violations,
        "worst_ratio": worst,
        "worst_instance": worst_inst,
    }


def holder_exponent(r1: float, r2: float, r3: float, c3: float) -> float:
    """Three-ball interpolation exponent for radii r1 < r2 < r3.

    ``c3`` is the (usually non-constructive) constant multiplying the
    inner log-ratio; larger c3 weakens the exponent toward zero.
    """
    if not (0 < r1 < r2 < r3):
        raise ValueError(f"radii must satisfy 0 < r1 < r2 < r3, "
                         f"got ({r1}, {r2}, {r3})")
    if c3 <= 0:
        raise ValueError("c3 must be positive")
    num = np.log(r3 / r2)
    return float(num / (c3 * np.log(r2 / r1) + num))


@dataclass(frozen=True)
class ThreeBallConfig:
    """Concentric discs B(center, r) for r in radii, plus norm and exponent.

    The largest disc must stay inside the unit square.  ``norm`` selects
    'l2' or 'h1' disc norms.
    """

    center: tuple
    radii: tuple
    kappa: float
    norm: str = "l2"

    def __post_init__(self):
        if not np.all(np.isfinite([*self.center, *self.radii])):
            raise ValueError("center and radii must be finite")
        r1, r2, r3 = self.radii
        if not (0 < r1 < r2 < r3):
            raise ValueError("radii must be strictly increasing and positive")
        x0, y0 = self.center
        if r3 > min(x0, y0, 1 - x0, 1 - y0):
            raise ValueError("largest disc leaves the unit square")
        if self.norm not in ("l2", "h1"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if not (0 < self.kappa < 1):
            raise ValueError("kappa must lie in (0, 1)")


def _polar_grid(center, radius, gauss, n_theta):
    """Polar-grid quadrature on a disc: the Gauss-Legendre rule ``gauss``
    = (t, w) on [-1, 1] in r, given so that one rule serves several discs,
    and ``n_theta`` uniform angles."""
    t, w = gauss
    r = 0.5 * radius * (t + 1.0)
    wr = 0.5 * radius * w
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    pts = np.column_stack([center[0] + (rr * np.cos(tt)).ravel(),
                           center[1] + (rr * np.sin(tt)).ravel()])
    weights = (wr[:, None] * r[:, None] * (2 * np.pi / n_theta)
               * np.ones((1, n_theta))).ravel()
    return pts, weights


def _disc_norms(value, gradient, center, radii, norm, resolution):
    """L2 or H1 norms of a field on the discs B(center, r), r in radii;
    the Gauss rule in r is computed once for all of them."""
    n_r, n_theta = resolution
    gauss = np.polynomial.legendre.leggauss(n_r)
    norms = []
    for radius in radii:
        pts, w = _polar_grid(center, radius, gauss, n_theta)
        total = float(np.sum(w * np.asarray(value(pts), dtype=float)**2))
        if norm == "h1":
            g = np.asarray(gradient(pts), dtype=float)
            total += float(np.sum(w * np.einsum("nd,nd->n", g, g)))
        norms.append(np.sqrt(total))
    return norms


def _spot_check_residual(value, laplacian, config, rng):
    """Verify laplace(u) = 0, through the given Laplacian, at 20 random
    points of the largest disc, to 1e-6 relative to 1 + max |u| there."""
    x0, y0 = config.center
    r3 = config.radii[2]
    rad = r3 * np.sqrt(rng.uniform(0, 1, 20))
    ang = rng.uniform(0, 2 * np.pi, 20)
    pts = np.column_stack([x0 + rad * np.cos(ang), y0 + rad * np.sin(ang)])
    lap = np.asarray(laplacian(pts), dtype=float)
    scale = 1.0 + float(np.abs(np.asarray(value(pts), dtype=float)).max())
    worst = float(np.abs(lap).max())
    if worst > 1e-6 * scale:
        raise ValueError(f"field violates L u = 0: residual {worst:.3e}")


def three_ball_ratio(value: Callable, gradient: Callable,
                     config: ThreeBallConfig, resolution=(64, 128), *,
                     laplacian: Optional[Callable] = None) -> float:
    """Ratio ||u||_B2 / (||u||_B1**kappa * ||u||_B3**(1-kappa)).

    The caller asserts that u solves L u = -laplace(u) = 0 on the largest
    disc.  When ``laplacian`` is given, a spot check of it at points drawn
    with seed 7 enforces this; without it nothing is checked (as for
    discrete reconstructions, which satisfy the equation only weakly).
    A vanishing smallest-disc norm is degenerate.
    """
    if laplacian is not None:
        _spot_check_residual(value, laplacian, config,
                             np.random.default_rng(7))
    n1, n2, n3 = _disc_norms(value, gradient, config.center, config.radii,
                             config.norm, resolution)
    if n1 == 0.0 or n3 == 0.0:
        raise ValueError("degenerate field: zero norm on a probe disc")
    return float(n2 / (n1**config.kappa * n3 ** (1 - config.kappa)))


def harmonic_member(k: int, center=(0.5, 0.5)):
    """Harmonic family member Re((x-x0) + i(y-y0))**k.

    Returns (value, gradient, laplacian) callables; the Laplacian is
    identically zero.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    x0, y0 = center

    def value(pts):
        pts = np.atleast_2d(pts)
        z = (pts[:, 0] - x0) + 1j * (pts[:, 1] - y0)
        return (z**k).real

    def gradient(pts):
        pts = np.atleast_2d(pts)
        z = (pts[:, 0] - x0) + 1j * (pts[:, 1] - y0)
        d = k * z ** (k - 1)
        return np.column_stack([d.real, -d.imag])

    def laplacian(pts):
        return np.zeros(len(np.atleast_2d(pts)))

    return value, gradient, laplacian


def calibrate_exponent(value, gradient, config_center, radii):
    """Fix the exponent so the three-ball inequality is tight for one field.

    Returns (kappa, c3) such that the given field attains ratio exactly one
    in the L2 disc norms; c3 is the constant that reproduces this kappa
    through holder_exponent.
    """
    n1, n2, n3 = _disc_norms(value, gradient, config_center, radii, "l2",
                             (64, 128))
    if n1 <= 0 or n2 <= 0 or n3 <= 0 or n1 == n3:
        raise ValueError("calibration field has degenerate disc norms")
    kappa = float(np.log(n3 / n2) / np.log(n3 / n1))
    if not (0 < kappa < 1):
        raise ValueError(f"calibrated exponent {kappa} outside (0, 1)")
    r1, r2, r3 = radii
    c3 = float(np.log(r3 / r2) * (1 - kappa) / (kappa * np.log(r2 / r1)))
    return kappa, c3


def harmonic_family_sweep() -> dict:
    """L2 three-ball ratios of the harmonic members k = 1..8 on the discs
    of radii (0.1, 0.2, 0.4) about (0.5, 0.5), after k=1 calibration."""
    center, radii = (0.5, 0.5), (0.1, 0.2, 0.4)
    v1, g1, _ = harmonic_member(1)  # members centred at (0.5, 0.5)
    kappa, c3 = calibrate_exponent(v1, g1, center, radii)
    config = ThreeBallConfig(center, radii, kappa)
    ratios = [three_ball_ratio(val, grad, config, laplacian=lap)
              for val, grad, lap in map(harmonic_member, range(1, 9))]
    return {"kappa": kappa, "c3": c3, "ratios": ratios,
            "max_ratio": max(ratios)}


def probe_fem_solution(case: CaseDefinition, config: ThreeBallConfig,
                       resolution=(96, 192)) -> list:
    """Three-ball ratios of the reconstructed solution along case.ladder.

    Returns a list of (N, ratio).  No Laplacian is passed: discrete
    solutions satisfy the equation only weakly.
    """
    def visit(rung):
        u = rung.solution.u
        return rung.N, three_ball_ratio(u, u.gradient, config, resolution)

    return run_ladder(case, visit)
