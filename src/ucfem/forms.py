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
stabilizer.  ``assemble_all`` is the one assembler: each form and the
source load is a field of the ``AssembledForms`` it returns.  None of them
depends on the measurements, which enter the system only through the data
load ``data_mass @ c`` of their nodal values c.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, Region, mesh_size
from .fem import (quad_points, triangle_geometry, _MASS_TENSOR, _scatter,
                  _scatter_load, _WEIGHTED_HATS)

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

    ``beta_sup`` is the sup of |beta| on the unit square, the |beta| of the
    stabilizer weights and of the Peclet number; ``case_from_problem``
    derives it from the field, and ``assemble_all`` warns when it is below
    the largest |beta| at the mesh quadrature points.
    ``boundary_factor`` >= 1 rescales only the boundary mass term of the
    dual stabilizer.  The defaults of ``gamma``, ``gamma_star`` and
    ``boundary_factor`` are the values of every built-in case.
    """

    mu: float
    beta: Callable
    omega: Region
    target: Region
    f: Callable
    beta_sup: float
    gamma: float = 1e-5
    gamma_star: float = 1.0
    boundary_factor: float = 50.0

    def __post_init__(self):
        for name in ("mu", "gamma", "gamma_star", "boundary_factor",
                     "beta_sup"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("mu", "gamma", "gamma_star"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, "
                                 f"got {getattr(self, name)}")
        if self.beta_sup < 0:
            raise ValueError(
                f"beta_sup must be non-negative, got {self.beta_sup}")
        if self.boundary_factor < 1:
            raise ValueError(
                f"boundary_factor must be >= 1, got {self.boundary_factor}")


def _jump_matrix(mesh, edges, grads, wf):
    """Interior-penalty matrix D^T W D, with W = diag(wf), one weight per face.

    Normal-gradient jumps of P1 functions are facewise constant, so row F
    of the faces x nodes operator D holds the jump [dn phi] of the six hat
    functions of the two triangles sharing F.  The matrix is returned as
    S^T S, with S = W^(1/2) D and the entries of the two shared endpoints
    summed, so that each row of S holds one entry per node.  Its entries
    (i, j) and (j, i) sum the same products over the same faces in the
    same order, so it is symmetric bit for bit on every mesh.
    """
    t_minus, t_plus = edges.face_tris[:, 0], edges.face_tris[:, 1]
    n = edges.face_normals
    # jump = dn(plus side) - dn(minus side); shared endpoints accumulate
    g6 = np.concatenate([np.take(grads, t_plus, axis=0),
                         -np.take(grads, t_minus, axis=0)], axis=1)  # (f, 6, 2)
    jump = g6[..., 0] * n[:, :1] + g6[..., 1] * n[:, 1:]            # (f, 6)
    cols6 = np.concatenate([np.take(mesh.triangles, t_plus, axis=0),
                            np.take(mesh.triangles, t_minus, axis=0)],
                           axis=1).ravel()
    nf = len(wf)
    s = sp.csr_matrix(((np.sqrt(wf)[:, None] * jump).ravel(), cols6,
                       np.arange(0, 6 * nf + 1, 6)), shape=(nf, mesh.n_nodes))
    s.sum_duplicates()
    mat = s.T.tocsr() @ s
    mat.sort_indices()  # the sums and bmat with it take the fast path
    return mat


@dataclass
class AssembledForms:
    """All matrices and the source load of one discrete problem, plus
    reporting data."""

    pde: sp.csr_matrix
    data_mass: sp.csr_matrix
    jump: sp.csr_matrix
    primal: sp.csr_matrix
    dual: sp.csr_matrix
    b_source: np.ndarray
    h: float
    peclet: float


def assemble_all(spec: ProblemSpec, mesh: Mesh) -> AssembledForms:
    """Assemble every form and the source load of the saddle-point system,
    none of which depends on the data; h, the geometry, the edge
    connectivity, the degree-4 rule's points, beta there, |beta|, the
    diffusion blocks and the omega indicator are computed once, and none
    of them outlives the call.  Warns when omega holds no quadrature
    point or ``spec.beta_sup`` is below the largest |beta| at the
    quadrature points."""
    h = mesh_size(mesh)
    grads, areas = triangle_geometry(mesh)
    edges = mesh.edges()
    pts = quad_points(mesh)
    flat = pts.reshape(-1, 2)
    stiff = (grads @ grads.transpose(0, 2, 1)) \
        * (spec.mu * areas)[:, None, None]
    mask = spec.omega.contains(flat).reshape(pts.shape[:2])
    if not mask.any():
        warnings.warn("data region contains no quadrature point; "
                      "data-fitting matrix is zero at "
                      f"N={mesh.cells_per_side}", stacklevel=2)
    beta_flat = np.asarray(spec.beta(flat), dtype=float)
    sampled = float(np.sqrt((beta_flat**2).sum(axis=1)).max())
    bsup = spec.beta_sup
    if bsup < sampled:
        warnings.warn(f"declared beta_sup {bsup!r} is below the largest "
                      f"|beta| {sampled!r} at the quadrature points",
                      stacklevel=2)

    # PDE form: (beta.grad phi_j) phi_i with rows as test functions, the
    # diffusion blocks and the boundary flux that replaces boundary data
    # conv[t, i, j] = area_t sum_q w_q phi_i(x_q) beta(x_q).grad phi_j
    bgrad = beta_flat.reshape(*pts.shape[:2], 2) @ grads.transpose(0, 2, 1)
    conv = (_WEIGHTED_HATS.T @ bgrad) * areas[:, None, None]
    conv += stiff
    del beta_flat, bgrad  # no (t, q) array outlives its own form
    # each boundary term goes into the block of the edge's owner triangle,
    # whose local rows ``ends`` are the edge's two end nodes; add.at, as
    # one triangle owns two boundary edges when n = 1
    bt = edges.bnd_tris
    ends = (mesh.triangles[bt][:, None, :]
            == edges.bnd_nodes[:, :, None]).argmax(axis=2)      # (e, 2)
    # -<mu dn(trial), test>: each end's hat integrates to |e| / 2
    dn = np.einsum("ekd,ed->ek", grads[bt], edges.bnd_normals)  # (e, 3)
    np.add.at(conv, (bt[:, None], ends),
              (-0.5 * spec.mu * edges.bnd_lengths)[:, None, None]
              * dn[:, None, :])
    pde = _scatter(mesh, conv)
    del conv

    w_data = spec.mu + bsup * h
    s_data = _scatter(mesh, (w_data * areas[:, None] * mask) @ _MASS_TENSOR)
    s_jump = _jump_matrix(mesh, edges, grads,
                          spec.gamma * h * w_data * edges.face_lengths)
    # the dual's weighted boundary mass, in the same owner blocks; the
    # P1 mass of an edge is |e| [[2, 1], [1, 2]] / 6
    w_bnd = spec.boundary_factor * (spec.mu / h + bsup) * edges.bnd_lengths
    np.add.at(stiff, (bt[:, None, None], ends[:, :, None], ends[:, None, :]),
              (w_bnd / 6.0)[:, None, None] * [[2.0, 1.0], [1.0, 2.0]])
    s_dual = spec.gamma_star * (_scatter(mesh, stiff) + s_jump)

    fvals = np.asarray(spec.f(flat), dtype=float).reshape(pts.shape[:2])
    b_source = _scatter_load(mesh, (fvals * areas[:, None]) @ _WEIGHTED_HATS)
    return AssembledForms(pde, s_data, s_jump, s_data + s_jump,
                          s_dual, b_source, h, bsup * h / spec.mu)
