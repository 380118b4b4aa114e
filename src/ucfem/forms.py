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
stabilizer.  ``assemble_all`` is the one assembler: each form and load is a
field of the ``AssembledForms`` it returns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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

    ``beta_sup`` is the |beta| of the stabilizer weights; left None,
    ``assemble_all`` takes the largest |beta| at the mesh quadrature points,
    and it warns when a declared value is below that maximum.
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


def _boundary_flux(mu, mesh, grads, hat_int):
    """-<mu dn(trial), test> over the outer boundary, COO accumulated;
    ``hat_int`` is the integral of each endpoint hat along its edge."""
    tris = mesh.bnd_tris
    dn = np.einsum("ekd,ed->ek", grads[tris], mesh.bnd_normals)   # (e, 3)
    local = -mu * mesh.bnd_lengths[:, None, None] \
        * hat_int[None, :, None] * dn[:, None, :]                 # (e, 2, 3)
    rows = np.repeat(mesh.bnd_nodes, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles[tris], (1, 2)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.n_nodes,) * 2)


def _boundary_mass(mesh, w_bnd, edge_mass):
    """<w v, w>_boundary with weight ``w_bnd`` per boundary edge (times its
    length) and the 2 x 2 reference edge mass ``edge_mass``."""
    local = w_bnd[:, None, None] * edge_mass[None, :, :]
    rows = np.repeat(mesh.bnd_nodes, 2, axis=1).ravel()
    cols = np.tile(mesh.bnd_nodes, (1, 2)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.n_nodes,) * 2).tocsr()


def _jump_matrix(mesh, grads, wf):
    """Interior-penalty matrix D^T W D, with W = diag(wf), one weight per face.

    Normal-gradient jumps of P1 functions are facewise constant, so row F
    of the faces x nodes operator D holds the jump [dn phi] of the six hat
    functions of the two triangles sharing F.
    """
    t_minus, t_plus = mesh.face_tris[:, 0], mesh.face_tris[:, 1]
    n = mesh.face_normals
    dn_minus = np.einsum("fkd,fd->fk", grads[t_minus], n)
    dn_plus = np.einsum("fkd,fd->fk", grads[t_plus], n)

    # jump = dn(plus side) - dn(minus side); shared endpoints accumulate
    jump = np.concatenate([dn_plus, -dn_minus], axis=1)             # (f, 6)
    cols6 = np.concatenate([mesh.triangles[t_plus],
                            mesh.triangles[t_minus]], axis=1)       # (f, 6)
    nf = len(wf)
    d = sp.csr_matrix((jump.ravel(), cols6.ravel(),
                       np.arange(0, 6 * nf + 1, 6)),
                      shape=(nf, mesh.n_nodes))
    return (d.T @ sp.diags(wf) @ d).tocsr()


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
    """Assemble every form and load of the saddle-point system; h, the
    geometry, the quadrature points, beta there, |beta|, the diffusion blocks
    and the omega indicator are computed once.  Warns when omega holds no
    quadrature point or a declared ``spec.beta_sup`` is below the largest
    |beta| at the quadrature points."""
    if spec.f is None:
        raise ValueError("spec has no source term f")
    h = mesh_size(mesh)
    rule, erule = triangle_rule(degree), edge_rule(degree)
    grads, areas = triangle_geometry(mesh)
    pts = quad_points(mesh, rule)
    flat = pts.reshape(-1, 2)
    stiff = spec.mu * np.einsum("tid,tjd,t->tij", grads, grads, areas)
    mask = spec.omega.contains(flat).reshape(pts.shape[:2])
    if not mask.any():
        warnings.warn("data region contains no quadrature point; "
                      "data-fitting matrix is zero", stacklevel=2)
    hat = np.stack([1.0 - erule.points, erule.points])      # (2, q)
    beta_flat = np.asarray(spec.beta(flat), dtype=float)
    sampled = float(np.sqrt((beta_flat**2).sum(axis=1)).max())
    bsup = sampled if spec.beta_sup is None else spec.beta_sup
    if bsup < sampled:
        warnings.warn(f"declared beta_sup {bsup!r} is below the largest "
                      f"|beta| {sampled!r} at the quadrature points",
                      stacklevel=2)

    # PDE form: (beta.grad phi_j) phi_i with rows as test functions, the
    # diffusion blocks and the boundary flux that replaces boundary data
    bvals = beta_flat.reshape(*pts.shape[:2], 2)
    conv = np.einsum("q,tqd,tjd,qi,t->tij", rule.weights, bvals, grads,
                     rule.points, areas, optimize=True)
    pde = (_scatter(mesh, conv + stiff)
           + _boundary_flux(spec.mu, mesh, grads, hat @ erule.weights)).tocsr()
    del beta_flat, bvals, conv  # no (t, q) array outlives its own form

    w_data = spec.mu + bsup * h
    s_data = _scatter(mesh, np.einsum("q,tq,qi,qj->tij", rule.weights,
                                      w_data * areas[:, None] * mask,
                                      rule.points, rule.points))
    s_jump = _jump_matrix(mesh, grads,
                          spec.gamma * h * w_data * mesh.face_lengths)
    w_bnd = spec.boundary_factor * (spec.mu / h + bsup) * mesh.bnd_lengths
    edge_mass = np.einsum("q,iq,jq->ij", erule.weights, hat, hat)
    s_dual = (spec.gamma_star * (_boundary_mass(mesh, w_bnd, edge_mass)
                                 + _scatter(mesh, stiff) + s_jump)).tocsr()

    fvals = np.asarray(spec.f(flat), dtype=float).reshape(pts.shape[:2])
    local_f = np.einsum("q,tq,qi,t->ti", rule.weights, fvals,
                        rule.points, areas)
    dvals = np.einsum("qk,tk->tq", rule.points,
                      data.coefficients[mesh.triangles])
    local_d = np.einsum("q,tq,qi->ti", rule.weights,
                        w_data * areas[:, None] * mask * dvals, rule.points)
    b_source, b_data = np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes)
    np.add.at(b_source, mesh.triangles.ravel(), local_f.ravel())
    np.add.at(b_data, mesh.triangles.ravel(), local_d.ravel())
    return AssembledForms(pde, s_data, s_jump, (s_data + s_jump).tocsr(),
                          s_dual, b_source, b_data, h, bsup,
                          bsup * h / spec.mu)
