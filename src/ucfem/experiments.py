"""Benchmark cases and convergence studies for the assimilation solver.

Every case has the manufactured solution

    u(x, y) = 30 x (1 - x) y (1 - y),

which has unit L2 norm on the unit square, with the source derived as
f = -mu*laplace(u) + beta.grad(u).  Each case is ``case_from_problem`` of
an inline problem; the built-in ones pair three measurement/evaluation
geometries with a constant and a strong rotational advection field, and two
add noise to ex1-const.  Tables record relative errors over the evaluation
region, the stabilizer norms of the discrete error pair and optionally the
condition number, and fit log-log rates against the mesh size.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import astuple, dataclass, fields
from typing import Callable, Optional

import numpy as np

from .mesh import Mesh, Region, build_unit_square_mesh, mesh_size
from .fem import FeFunction, interpolate, l2_project, quad_points, \
    triangle_geometry, TRIANGLE_RULE
from .forms import (AssembledForms, ProblemSpec, assemble_all, constant_field,
                    swirl_field, zero_field)
from .saddle import (SaddleSystem, Solution, _check_dense, _check_estimator,
                     build_system, solve)

__all__ = [
    "ExactSolution",
    "polynomial_bump",
    "derive_source",
    "NoiseModel",
    "apply_noise",
    "CaseDefinition",
    "case_from_problem",
    "builtin_cases",
    "get_case",
    "RateFit",
    "estimate_rate",
    "ConvergenceRow",
    "ConvergenceTable",
    "discretize",
    "Rung",
    "run_ladder",
    "run_case",
    "error_norms",
    "CSV_HEADER",
    "DEFAULT_LADDER",
]

DEFAULT_LADDER = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form solution with gradient and Laplacian callables."""

    value: Callable
    gradient: Callable
    laplacian: Callable


def polynomial_bump() -> ExactSolution:
    """The quartic bump 30 x(1-x) y(1-y) with unit L2 norm on the square."""

    def value(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return 30.0 * x * (1 - x) * y * (1 - y)

    def gradient(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return 30.0 * np.column_stack([(1 - 2 * x) * y * (1 - y),
                                       x * (1 - x) * (1 - 2 * y)])

    def laplacian(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return -60.0 * (x * (1 - x) + y * (1 - y))

    return ExactSolution(value, gradient, laplacian)


def derive_source(exact: ExactSolution, mu: float, beta: Callable) -> Callable:
    """Source f = -mu*laplace(u) + beta.grad(u) matching an exact solution."""

    def f(pts):
        pts = np.atleast_2d(pts)
        adv = np.einsum("nd,nd->n", np.asarray(beta(pts), dtype=float),
                        np.asarray(exact.gradient(pts), dtype=float))
        return -mu * np.asarray(exact.laplacian(pts), dtype=float) + adv

    return f


@dataclass(frozen=True)
class NoiseModel:
    """Uniform perturbation in [-h**law, h**law] on nodes inside omega.

    ``law`` = 1 keeps the perturbation below the discretization error;
    ``law`` = 0.5 makes it dominate on fine meshes.  Draws are seeded per
    mesh, so regenerating with the same seed and mesh is bit-exact.
    """

    law: float
    seed: int = 0


def apply_noise(data: FeFunction, noise: NoiseModel,
                omega: Region) -> FeFunction:
    """Perturb the nodal data inside omega; h is the data's mesh size."""
    mask = omega.contains(data.mesh.nodes)
    rng = np.random.default_rng([noise.seed, data.mesh.cells_per_side])
    amp = mesh_size(data.mesh) ** noise.law
    coeffs = data.coefficients.copy()
    coeffs[mask] += rng.uniform(-amp, amp, size=int(mask.sum()))
    return FeFunction(data.mesh, coeffs)


@dataclass(frozen=True)
class CaseDefinition:
    """A named benchmark and all that defines its run: problem data, mesh
    ladder, optional noise and the condition number of each rung's
    ``solve`` (``cond``, ``cond_tol``, ``cond_max_iter``).  Every integral
    uses the degree-4 triangle rule.  A ladder the CLI would refuse
    (empty, an N not an integer >= 1, a repeated N) or a cond setting ``solve``
    would refuse on some rung raises a ValueError when the case is made."""

    name: str
    spec: ProblemSpec
    exact: ExactSolution
    ladder: tuple = DEFAULT_LADDER
    noise: Optional[NoiseModel] = None
    cond: str = "none"
    cond_tol: float = 1e-3
    cond_max_iter: int = 5000

    def __post_init__(self):
        if not self.ladder or any(not np.issubdtype(type(n), np.integer)
                                  or n < 1 for n in self.ladder):
            raise ValueError(f"bad ladder {self.ladder!r}")
        if len(set(self.ladder)) < len(self.ladder):
            raise ValueError(f"ladder {self.ladder!r} repeats an N")
        if self.cond not in ("none", "exact", "estimate"):
            raise ValueError(f"unknown cond mode {self.cond!r}")
        _check_estimator(self.cond_tol, self.cond_max_iter)
        if self.cond == "exact":
            for n_cells in self.ladder:  # rung dimension 2(N+1)^2
                _check_dense(2 * (n_cells + 1) ** 2)


def _finite(value, name) -> float:
    """A finite inline-problem number; JSON's true and false are not."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _keys(payload, allowed, name):
    """Refuse a payload that is no object or has a key not in ``allowed``."""
    if not isinstance(payload, dict):
        raise ValueError(f"{name} must be an object, got {payload!r}")
    for key in payload:
        if key not in allowed:
            raise ValueError(f"{name} has unknown key {key!r}")


def _region_from(payload, name) -> Region:
    _keys(payload, ("boxes", "holes"), name)
    with warnings.catch_warnings():  # a zero area is refused below instead
        warnings.filterwarnings("ignore", "region has zero area")
        region = Region(*([[_finite(c, f"{name} {key}") for c in box]
                           for box in payload.get(key, [])]
                          for key in ("boxes", "holes")))
    if any(x0 < 0 or x1 > 1 or y0 < 0 or y1 > 1
           for x0, x1, y0, y1 in region.boxes):
        raise ValueError(f"{name} has a box outside the unit square")
    if region.is_empty:
        raise ValueError(f"{name} has zero area")
    return region


def _field_from(payload):
    kind = payload.get("kind", "const")
    if kind == "const":
        _keys(payload, ("kind", "value"), "beta")
        bx, by = payload.get("value", (1.0, 0.0))
        return constant_field(*(_finite(b, "beta value") for b in (bx, by)))
    if kind == "swirl":
        _keys(payload, ("kind", "scale"), "beta")
        return swirl_field(_finite(payload.get("scale", 100.0), "beta scale"))
    if kind == "zero":
        _keys(payload, ("kind",), "beta")
        return zero_field()
    raise ValueError(f"unknown advection field kind {kind!r}")


def case_from_problem(problem: dict, name: str = "custom") -> CaseDefinition:
    """The case of the bump under an inline problem (README, Benchmarks);
    a bad value or unknown key raises ValueError("bad inline problem: ...")."""
    try:
        _keys(problem, ("omega", "target", "beta", "beta_sup", "mu", "gamma",
                        "gamma_star", "boundary_factor", "noise"), "problem")
        exact, beta = polynomial_bump(), _field_from(problem.get("beta", {}))
        sup = problem.get("beta_sup")
        # the stabilization parameters not given keep ProblemSpec's defaults
        weights = {key: _finite(problem[key], key) for key in
                   ("gamma", "gamma_star", "boundary_factor")
                   if key in problem}
        mu = _finite(problem.get("mu", 1.0), "mu")
        target = problem.get("target", {"boxes": [[0, 1, 0, 1]]})
        spec = ProblemSpec(mu, beta, _region_from(problem["omega"], "omega"),
                           _region_from(target, "target"),
                           derive_source(exact, mu, beta),
                           None if sup is None else _finite(sup, "beta_sup"),
                           **weights)
        noise = problem.get("noise")  # amplitude h or sqrt(h)
        if noise not in (None, "h", "sqrt_h"):
            raise ValueError(f"noise must be 'h' or 'sqrt_h', got {noise!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad inline problem: {exc}") from exc
    return CaseDefinition(name, spec, exact, noise=noise and NoiseModel(
        1.0 if noise == "h" else 0.5))


_GEOMETRIES = {
    # measurement region omega and evaluation region B
    "ex1": {"omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]},
            "target": {"boxes": [[0.2, 0.45, 0.55, 0.8]]}},
    "ex2": {"omega": {"boxes": [[0.0, 0.125, 0.4, 0.6],
                                [0.875, 1.0, 0.4, 0.6]]},
            "target": {"boxes": [[0.25, 0.75, 0.4, 0.6]]}},
    "ex3": {"omega": {"boxes": [[0.0, 1.0, 0.0, 1.0]],
                      "holes": [[0.0, 0.875, 0.125, 0.875]]},
            "target": {"boxes": [[0.0, 1.0, 0.0, 1.0]],
                       "holes": [[0.0, 0.125, 0.125, 0.875]]}},
}

_FIELDS = {
    # the field and the exact sup of |beta| on the square
    "const": {"beta": {"kind": "const", "value": [1.0, 0.0]}, "beta_sup": 1.0},
    "swirl": {"beta": {"kind": "swirl", "scale": 100.0}, "beta_sup": 200.0},
}

# the inline problem of each built-in case; the noisy ones are ex1-const's
_PROBLEMS = {f"{geom}-{fld}": {**_GEOMETRIES[geom], **_FIELDS[fld]}
             for geom in _GEOMETRIES for fld in _FIELDS}
_PROBLEMS |= {"ex1-const-noise-h": {**_PROBLEMS["ex1-const"], "noise": "h"},
              "ex1-const-noise-sqrt": {**_PROBLEMS["ex1-const"],
                                       "noise": "sqrt_h"}}

# built once, so that ``get_case`` is a lookup
_BUILTIN = {name: case_from_problem(problem, name)
            for name, problem in _PROBLEMS.items()}


def builtin_cases() -> list[CaseDefinition]:
    """The six noiseless benchmarks plus two noisy variants of ex1-const."""
    return list(_BUILTIN.values())


def get_case(name: str) -> CaseDefinition:
    if name not in _BUILTIN:
        raise KeyError(f"unknown case {name!r}; known cases: "
                       + ", ".join(_BUILTIN))
    return _BUILTIN[name]


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(value) against log(h), plus the
    per-step slopes between consecutive ladder entries."""

    slope: float
    per_step: tuple


def estimate_rate(pairs) -> RateFit:
    """Fit a rate from (h, value) pairs; values must be positive."""
    pairs = [(float(h), float(v)) for h, v in pairs]
    if len(pairs) < 2:
        raise ValueError("need at least two (h, value) pairs")
    if len({h for h, _ in pairs}) < len(pairs):
        raise ValueError("rate fits need distinct h")
    if any(v <= 0 for _, v in pairs):
        raise ValueError("rate fits need positive values")
    lh = np.log([h for h, _ in pairs])
    lv = np.log([v for _, v in pairs])
    slope = float(np.polyfit(lh, lv, 1)[0])
    steps = tuple(float((lv[i + 1] - lv[i]) / (lh[i + 1] - lh[i]))
                  for i in range(len(pairs) - 1))
    return RateFit(slope, steps)


@dataclass
class ConvergenceRow:
    N: int
    h: float
    err_l2_B: float
    err_h1_B: float
    s_norm: float
    sstar_norm: float
    cond: Optional[float] = None
    cond_converged: Optional[bool] = None  # False: the estimate hit its cap
    peclet: Optional[float] = None


CSV_HEADER = tuple(f.name for f in fields(ConvergenceRow))


def _csv_text(header, rows) -> str:
    """A header line, then rows, with CRLF line ends: each float (numpy's
    included) as ``repr(float(v))``, each None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating))
                      else v for v in row] for row in rows)
    return buf.getvalue()


@dataclass
class ConvergenceTable:
    """Ladder results for one case, with fitted rates per column."""

    rows: list
    rates: dict

    def to_csv_string(self) -> str:
        """The text of ``convergence.csv``: ``CSV_HEADER``, then each row's
        fields in order (``cond`` and ``cond_converged`` empty without a
        condition number, ``peclet`` last)."""
        return _csv_text(CSV_HEADER, map(astuple, self.rows))

    def rates_dict(self) -> dict:
        return {name: {"slope": fit.slope, "per_step": list(fit.per_step)}
                for name, fit in self.rates.items()}


def error_norms(exact: ExactSolution, fe: FeFunction, region: Region):
    """Absolute and reference norms of (exact - fe) over a region.

    Returns (err_l2, err_h1, ref_l2, ref_h1) where the reference norms are
    those of the exact solution and the H1 entries are full norms.  Warns
    when the region holds no quadrature point: every norm is then 0.
    """
    mesh = fe.mesh
    grads, areas = triangle_geometry(mesh)
    pts = quad_points(mesh)
    flat = pts.reshape(-1, 2)

    uex = np.asarray(exact.value(flat), dtype=float).reshape(pts.shape[:2])
    gex = np.asarray(exact.gradient(flat),
                     dtype=float).reshape(*pts.shape[:2], 2)
    cf = fe.coefficients[mesh.triangles]
    uh = cf @ TRIANGLE_RULE.points.T                                 # (t, q)
    gh = np.einsum("tk,tkd->td", cf, grads)

    mask = region.contains(flat).reshape(pts.shape[:2])
    if not mask.any():
        warnings.warn("evaluation region contains no quadrature point; "
                      f"error norms are zero at N={mesh.cells_per_side}",
                      stacklevel=2)
    w = TRIANGLE_RULE.weights[None, :] * areas[:, None] * mask

    diff = uex - uh
    gdiff = gex - gh[:, None, :]
    err_l2_sq = float(np.sum(w * diff**2))
    err_semi_sq = float(np.sum(w * np.einsum("tqd,tqd->tq", gdiff, gdiff)))
    ref_l2_sq = float(np.sum(w * uex**2))
    ref_semi_sq = float(np.sum(w * np.einsum("tqd,tqd->tq", gex, gex)))
    return (np.sqrt(err_l2_sq), np.sqrt(err_l2_sq + err_semi_sq),
            np.sqrt(ref_l2_sq), np.sqrt(ref_l2_sq + ref_semi_sq))


def discretize(case: CaseDefinition, n_cells: int
               ) -> tuple[Mesh, AssembledForms, SaddleSystem]:
    """Mesh, blocks and saddle system of a rung.

    The data are the nodal interpolant of the exact solution, perturbed by
    the case's noise model when it has one.  They enter only the data
    load, ``blocks.data_mass @ data.coefficients``: the blocks do not
    depend on them.  The system is stored in the elimination order that
    ``build_system`` computes on the mesh nodes, which ``solve`` factors
    as it stands.
    """
    mesh = build_unit_square_mesh(n_cells)
    data = interpolate(case.exact.value, mesh)
    if case.noise is not None:
        data = apply_noise(data, case.noise, case.spec.omega)
    blocks = assemble_all(case.spec, mesh)
    system = build_system(blocks.pde, blocks.primal, blocks.dual,
                          blocks.data_mass @ data.coefficients,
                          blocks.b_source)
    return mesh, blocks, system


@dataclass
class Rung:
    """One solved ladder rung: what post-processing reads of it.

    ``system`` is the saddle system as factorized, in its stored
    numbering; its ``stabilizer_norms`` take node vectors and give
    s(e, e) and s_*(z, z) without the blocks.
    """

    N: int
    mesh: Mesh
    h: float
    peclet: float
    system: SaddleSystem
    solution: Solution


def _solve_rung(case: CaseDefinition, n_cells: int) -> Rung:
    """Discretize rung ``n_cells``; solve it with the case's cond settings."""
    mesh, blocks, system = discretize(case, n_cells)
    h, peclet = blocks.h, blocks.peclet
    del blocks  # nothing reads the blocks after build_system
    sol = solve(system, mesh, case.cond, case.cond_tol, case.cond_max_iter)
    return Rung(n_cells, mesh, h, peclet, system, sol)


def run_ladder(case: CaseDefinition, visit: Callable[[Rung], object]) -> list:
    """Discretize and solve each rung of ``case.ladder``; return what
    ``visit(rung)`` returns for each.

    The rung keeps of the assembled forms only ``h`` and ``peclet``, and
    the mesh keeps no derived array, so the factorization runs with only
    the saddle system and the node geometry alive.  A rung is released
    once ``visit`` returns, before the next one is discretized; ``visit``
    keeps what it needs of it.  ``solve`` adds the case's ``cond``.
    """
    return [visit(_solve_rung(case, n_cells)) for n_cells in case.ladder]


def run_case(case: CaseDefinition, projection: str = "l2") -> ConvergenceTable:
    """Run a case over its mesh ladder and collect the convergence table.

    The case defines the run, its ``cond`` columns included; ``projection``
    chooses only what is reported: the comparison function for the
    stabilizer norm of the error ('l2' projection or 'nodal' interpolant).
    The error columns are relative L2 and full H1 norms over the target.
    """
    if projection not in ("l2", "nodal"):
        raise ValueError(f"unknown projection {projection!r}")

    def visit(rung: Rung) -> ConvergenceRow:
        sol = rung.solution
        reference = (l2_project(case.exact.value, rung.mesh)
                     if projection == "l2"
                     else interpolate(case.exact.value, rung.mesh))
        s_norm, sstar_norm = rung.system.stabilizer_norms(
            reference.coefficients - sol.u.coefficients, sol.z.coefficients)

        err_l2, err_h1, ref_l2, ref_h1 = error_norms(
            case.exact, sol.u, case.spec.target)

        est = sol.cond
        return ConvergenceRow(
            N=rung.N, h=rung.h, err_l2_B=err_l2 / ref_l2,
            err_h1_B=err_h1 / ref_h1, s_norm=s_norm, sstar_norm=sstar_norm,
            cond=None if est is None else est.value,
            cond_converged=None if est is None else est.converged,
            peclet=rung.peclet)

    rows = run_ladder(case, visit)

    rates = {}
    if len(rows) >= 2:
        hs = [r.h for r in rows]
        for col in ("err_l2_B", "err_h1_B", "s_norm", "sstar_norm"):
            vals = [getattr(r, col) for r in rows]
            if all(v > 0 for v in vals):
                rates[col] = estimate_rate(zip(hs, vals))
        if all(r.cond is not None and r.cond > 0 for r in rows):
            rates["cond"] = estimate_rate([(r.h, r.cond) for r in rows])
    return ConvergenceTable(rows, rates)
