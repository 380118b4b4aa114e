"""Assembly of the stabilized forms for the data-assimilation method.

For the operator L u = -mu*laplace(u) + beta.grad(u) on the unit square,
without boundary conditions, the discrete method uses

* the PDE form  a(v, w) = (beta.grad v, w) + (mu grad v, grad w)
                          - <mu dn v, w>_boundary,
* a data-fitting weighted mass form on the measurement region omega with
  weight (mu + |beta| h),
* a gradient-jump penalty gamma * sum_F int_F h (mu + |beta| h) [dn v][dn w],
* a dual stabilizer gamma_* ( bf * <(mu/h + |beta|) v, w>_boundary
                              + (mu grad v, grad w) + jump penalty ).

Here h is the global mesh size (inverse square root of the node count) and
|beta| the supremum of the advection field, so all weights are constants.
``boundary_factor`` (bf) scales only the boundary mass inside the dual
stabilizer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, Region, mesh_size
from .fem import (FeFunction, edge_rule, quad_points, triangle_geometry,
                  triangle_rule, _scatter)

__all__ = [
    "ProblemSpec",
    "constant_field",
    "swirl_field",
    "zero_field",
    "assemble_convection_diffusion",
    "assemble_data_mass",
    "assemble_gradient_jump",
    "assemble_dual_stabilizer",
    "assemble_loads",
    "AssembledForms",
    "assemble_all",
]


def constant_field(bx: float, by: float) -> Callable:
    """Spatially constant advection field."""
    def beta(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.array([bx, by]), (len(pts), 2)).copy()
    return beta


def zero_field() -> Callable:
    return constant_field(0.0, 0.0)


def swirl_field(scale: float = 100.0) -> Callable:
    """Rotational field scale*(x + y, y - x); divergence 2*scale."""
    def beta(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return scale * np.column_stack([x + y, y - x])
    return beta


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous problem data plus stabilization parameters.

    ``beta_sup`` overrides the sampled supremum of |beta|; leave it None to
    sample the maximum over the mesh quadrature points at assembly time.
    ``boundary_factor`` >= 1 rescales only the boundary mass term of the
    dual stabilizer.
    """

    mu: float
    beta: Callable
    omega: Region
    target: Optional[Region] = None
    f: Optional[Callable] = None
    beta_sup: Optional[float] = None
    gamma: float = 1.0
    gamma_star: float = 1.0
    boundary_factor: float = 1.0

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.gamma <= 0 or self.gamma_star <= 0:
            raise ValueError("stabilization parameters must be positive")
        if self.beta_sup is not None and self.beta_sup < 0:
            raise ValueError(
                f"beta_sup must be non-negative, got {self.beta_sup}")
        if self.boundary_factor < 1:
            raise ValueError(
                f"boundary_factor must be >= 1, got {self.boundary_factor}")


def _sampled_beta_sup(spec: ProblemSpec, mesh: Mesh, degree: int) -> float:
    pts = quad_points(mesh, triangle_rule(degree)).reshape(-1, 2)
    vals = np.asarray(spec.beta(pts), dtype=float)
    return float(np.sqrt((vals**2).sum(axis=1)).max())


def resolved_beta_sup(spec: ProblemSpec, mesh: Mesh, degree: int = 4) -> float:
    return spec.beta_sup if spec.beta_sup is not None \
        else _sampled_beta_sup(spec, mesh, degree)


def _resolve(spec, mesh, degree):
    """The constant weights: mesh size h and |beta|."""
    return mesh_size(mesh), resolved_beta_sup(spec, mesh, degree)


def _stiffness(spec: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """Local diffusion blocks mu (grad phi_j, grad phi_i), shape (t, 3, 3)."""
    grads, areas = triangle_geometry(mesh)
    return spec.mu * np.einsum("tid,tjd,t->tij", grads, grads, areas)


def assemble_convection_diffusion(spec: ProblemSpec, mesh: Mesh,
                                  degree: int = 4) -> sp.csr_matrix:
    """PDE form matrix A[i, j] = a(phi_j, phi_i).

    Volume advection and diffusion plus the consistency boundary term
    -<mu dn(trial), test> that replaces boundary conditions.
    """
    return _pde_matrix(spec, mesh, degree, _stiffness(spec, mesh))


def _pde_matrix(spec, mesh, degree, stiff):
    """PDE form from the local stiffness blocks ``stiff``."""
    rule = triangle_rule(degree)
    grads, areas = triangle_geometry(mesh)
    pts = quad_points(mesh, rule)
    bvals = np.asarray(spec.beta(pts.reshape(-1, 2)),
                       dtype=float).reshape(*pts.shape[:2], 2)

    # (beta.grad phi_j) phi_i: rows are test functions
    conv = np.einsum("q,tqd,tjd,qi,t->tij", rule.weights, bvals, grads,
                     rule.points, areas, optimize=True)
    mat = _scatter(mesh, conv + stiff)

    return (mat + _boundary_flux(spec, mesh, degree)).tocsr()


def _boundary_flux(spec, mesh, degree):
    """-<mu dn(trial), test> over the outer boundary, COO accumulated."""
    erule = edge_rule(degree)
    grads, _ = triangle_geometry(mesh)
    # integral of each endpoint hat along its edge
    hat = np.stack([1.0 - erule.points, erule.points])      # (2, q)
    hat_int = hat @ erule.weights                           # (2,)

    tris = mesh.bnd_tris
    dn = np.einsum("ekd,ed->ek", grads[tris], mesh.bnd_normals)   # (e, 3)
    local = -spec.mu * mesh.bnd_lengths[:, None, None] \
        * hat_int[None, :, None] * dn[:, None, :]                 # (e, 2, 3)

    rows = np.repeat(mesh.bnd_nodes, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles[tris], (1, 2)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))


def assemble_data_mass(spec: ProblemSpec, mesh: Mesh,
                       degree: int = 4) -> sp.csr_matrix:
    """Weighted mass matrix ((mu + |beta| h) v, w) over the data region."""
    h, bsup = _resolve(spec, mesh, degree)
    rule = triangle_rule(degree)
    _, areas = triangle_geometry(mesh)
    pts = quad_points(mesh, rule)
    mask = spec.omega.contains(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    if not mask.any():
        warnings.warn("data region contains no quadrature point; "
                      "data-fitting matrix is zero", stacklevel=2)
    weight = (spec.mu + bsup * h) * areas[:, None] * mask
    local = np.einsum("q,tq,qi,qj->tij", rule.weights, weight,
                      rule.points, rule.points)
    return _scatter(mesh, local)


def assemble_gradient_jump(spec: ProblemSpec, mesh: Mesh,
                           degree: int = 4) -> sp.csr_matrix:
    """Interior-penalty matrix gamma * sum_F h (mu + |beta| h) int_F [dn v][dn w].

    Normal-gradient jumps of P1 functions are facewise constant, so the
    matrix is D^T W D: row F of the faces x nodes operator D holds the jump
    [dn phi] of the six hat functions of the two adjacent triangles, and W
    is the diagonal of face weights.
    """
    h, bsup = _resolve(spec, mesh, degree)
    grads, _ = triangle_geometry(mesh)

    t_minus, t_plus = mesh.face_tris[:, 0], mesh.face_tris[:, 1]
    n = mesh.face_normals
    dn_minus = np.einsum("fkd,fd->fk", grads[t_minus], n)
    dn_plus = np.einsum("fkd,fd->fk", grads[t_plus], n)

    # jump = dn(plus side) - dn(minus side); shared endpoints accumulate
    jump = np.concatenate([dn_plus, -dn_minus], axis=1)             # (f, 6)
    cols6 = np.concatenate([mesh.triangles[t_plus],
                            mesh.triangles[t_minus]], axis=1)       # (f, 6)
    wf = spec.gamma * h * (spec.mu + bsup * h) * mesh.face_lengths

    nf = len(wf)
    d = sp.csr_matrix((jump.ravel(), cols6.ravel(),
                       np.arange(0, 6 * nf + 1, 6)),
                      shape=(nf, mesh.n_nodes))
    return (d.T @ sp.diags(wf) @ d).tocsr()


def assemble_dual_stabilizer(spec: ProblemSpec, mesh: Mesh,
                             degree: int = 4) -> sp.csr_matrix:
    """Stabilizer acting on the dual variable.

    gamma_* times: boundary_factor * <(mu/h + |beta|) v, w>_boundary,
    plus the full diffusion energy and the same gradient-jump penalty used
    on the primal side (with its own gamma).
    """
    spec = replace(spec, beta_sup=resolved_beta_sup(spec, mesh, degree))
    return _dual_matrix(spec, mesh, degree, _stiffness(spec, mesh),
                        assemble_gradient_jump(spec, mesh, degree))


def _dual_matrix(spec, mesh, degree, stiff, jumps):
    """Dual stabilizer from the local stiffness blocks and the jump matrix."""
    h, bsup = _resolve(spec, mesh, degree)
    erule = edge_rule(degree)
    hat = np.stack([1.0 - erule.points, erule.points])      # (2, q)
    edge_mass = np.einsum("q,iq,jq->ij", erule.weights, hat, hat)
    w_bnd = spec.boundary_factor * (spec.mu / h + bsup) * mesh.bnd_lengths
    local_bnd = w_bnd[:, None, None] * edge_mass[None, :, :]
    rows = np.repeat(mesh.bnd_nodes, 2, axis=1).ravel()
    cols = np.tile(mesh.bnd_nodes, (1, 2)).ravel()
    nn = mesh.n_nodes
    bnd = sp.coo_matrix((local_bnd.ravel(), (rows, cols)), shape=(nn, nn))
    return (spec.gamma_star * (bnd.tocsr() + _scatter(mesh, stiff)
                               + jumps)).tocsr()


def assemble_loads(spec: ProblemSpec, mesh: Mesh, data: FeFunction,
                   degree: int = 4):
    """Right-hand sides (source load, data load).

    The source load is (f, phi_i) over the domain; the data load applies
    the data-fitting form to the P1 representation of the measured data.
    """
    if spec.f is None:
        raise ValueError("spec has no source term f")
    h, bsup = _resolve(spec, mesh, degree)
    rule = triangle_rule(degree)
    _, areas = triangle_geometry(mesh)
    pts = quad_points(mesh, rule)
    flat = pts.reshape(-1, 2)

    fvals = np.asarray(spec.f(flat), dtype=float).reshape(pts.shape[:2])
    local_f = np.einsum("q,tq,qi,t->ti", rule.weights, fvals,
                        rule.points, areas)
    b_source = np.zeros(mesh.n_nodes)
    np.add.at(b_source, mesh.triangles.ravel(), local_f.ravel())

    mask = spec.omega.contains(flat).reshape(pts.shape[:2])
    dvals = np.einsum("qk,tk->tq", rule.points, data.coefficients[mesh.triangles])
    wdata = (spec.mu + bsup * h) * areas[:, None] * mask * dvals
    local_d = np.einsum("q,tq,qi->ti", rule.weights, wdata, rule.points)
    b_data = np.zeros(mesh.n_nodes)
    np.add.at(b_data, mesh.triangles.ravel(), local_d.ravel())
    return b_source, b_data


@dataclass
class AssembledForms:
    """All matrices and loads of one discrete problem, plus reporting data."""

    pde: sp.csr_matrix
    data_mass: sp.csr_matrix
    jump: sp.csr_matrix
    primal: sp.csr_matrix
    dual: sp.csr_matrix
    b_source: np.ndarray
    b_data: np.ndarray
    h: float
    beta_sup: float
    peclet: float


def assemble_all(spec: ProblemSpec, mesh: Mesh, data: FeFunction,
                 degree: int = 4) -> AssembledForms:
    """Assemble every block of the saddle-point system in one pass.

    The diffusion blocks and the jump matrix are computed once and shared
    by the PDE form and the dual stabilizer, and |beta| is resolved once.
    """
    spec = replace(spec, beta_sup=resolved_beta_sup(spec, mesh, degree))
    h, bsup = mesh_size(mesh), spec.beta_sup
    stiff = _stiffness(spec, mesh)
    pde = _pde_matrix(spec, mesh, degree, stiff)
    s_data = assemble_data_mass(spec, mesh, degree)
    s_jump = assemble_gradient_jump(spec, mesh, degree)
    s_dual = _dual_matrix(spec, mesh, degree, stiff, s_jump)
    b_source, b_data = assemble_loads(spec, mesh, data, degree)
    return AssembledForms(pde, s_data, s_jump, (s_data + s_jump).tocsr(),
                          s_dual, b_source, b_data, h, bsup,
                          bsup * h / spec.mu)
