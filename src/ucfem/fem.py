"""Piecewise-linear (P1) finite element machinery on triangulations.

The quadrature rule, hat-function gradients, nodal interpolation and
consistent L2 projection.  All assembly downstream builds on the
per-triangle geometry computed here and sums its local blocks with
scipy's COO -> CSR conversion; each call computes what it needs
afresh, and nothing is stored on the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh, locate_points

__all__ = [
    "QuadratureRule",
    "TRIANGLE_RULE",
    "triangle_geometry",
    "FeFunction",
    "interpolate",
    "mass_matrix",
    "l2_project",
    "NumericalFailure",
]


class NumericalFailure(RuntimeError):
    """Raised when a factorization, a linear solve or a residual check
    fails."""


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights on the reference triangle.

    Points are barycentric, of shape (q, 3).  Weights sum to one so that
    physical integrals are weight-sums scaled by area.
    """

    points: np.ndarray
    weights: np.ndarray


# the 6-point rule, exact through degree 4: the one rule of every integral
_A1, _W1 = 0.44594849091596488632, 0.22338158967801146570
_A2, _W2 = 0.09157621350977074346, 0.10995174365532186764
_TRI_P4 = np.array([
    [1 - 2 * _A1, _A1, _A1], [_A1, 1 - 2 * _A1, _A1], [_A1, _A1, 1 - 2 * _A1],
    [1 - 2 * _A2, _A2, _A2], [_A2, 1 - 2 * _A2, _A2], [_A2, _A2, 1 - 2 * _A2],
])
_TRI_W4 = np.array([_W1, _W1, _W1, _W2, _W2, _W2])
TRIANGLE_RULE = QuadratureRule(_TRI_P4, _TRI_W4)

# (q, 9) tensor with ``[q, 3i + j] = w_q (phi_i(x_q) phi_j(x_q))``, so that
# a (t, q) array of weights times it gives the (t, 9) local masses,
# symmetric in (i, j) bit for bit: the hat product is formed first
_MASS_TENSOR = (_TRI_W4[:, None, None]
                * (_TRI_P4[:, :, None] * _TRI_P4[:, None, :])).reshape(-1, 9)
# (q, 3) tensor ``w_q phi_i(x_q)``: a (t, q) array of values times it
# gives the (t, 3) local load vectors
_WEIGHTED_HATS = _TRI_W4[:, None] * _TRI_P4
# every integral shares these arrays, so none may be written in place
for _a in (_TRI_P4, _TRI_W4, _MASS_TENSOR, _WEIGHTED_HATS):
    _a.setflags(write=False)


def _hat_gradients(v, det):
    """Hat gradients (t, 3, 2), in C order, of triangles with vertices ``v``
    (t, 3, 2) and doubled signed areas ``det`` (t,)."""
    d = np.take(v, [2, 0, 1], axis=1) - np.take(v, [1, 2, 0], axis=1)
    grads = np.empty_like(d)
    np.negative(d[..., 1], out=grads[..., 0])
    grads[..., 1] = d[..., 0]
    grads /= det[:, None, None]
    return grads


def triangle_geometry(mesh: Mesh):
    """Per-triangle hat gradients (t, 3, 2) and areas (t,)."""
    return (_hat_gradients(mesh.nodes[mesh.triangles], 2.0 * mesh.tri_areas),
            mesh.tri_areas)


def quad_points(mesh: Mesh) -> np.ndarray:
    """Physical points of ``TRIANGLE_RULE``, shape (n_tri, q, 2)."""
    return _TRI_P4 @ mesh.nodes[mesh.triangles]


class FeFunction:
    """Piecewise-linear function given by nodal coefficients on a mesh."""

    def __init__(self, mesh: Mesh, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (mesh.n_nodes,):
            raise ValueError(
                f"expected {mesh.n_nodes} coefficients, got {coefficients.shape}")
        self.mesh = mesh
        self.coefficients = coefficients

    def __call__(self, points) -> np.ndarray:
        tri, bary = locate_points(self.mesh, points)
        return np.einsum("nk,nk->n", bary,
                         self.coefficients[self.mesh.triangles[tri]])

    def gradient(self, points) -> np.ndarray:
        """Piecewise-constant gradient evaluated pointwise, shape (n, 2)."""
        mesh = self.mesh
        tri, _ = locate_points(mesh, points)
        corners = mesh.triangles[tri]
        grads = _hat_gradients(mesh.nodes[corners], 2.0 * mesh.tri_areas[tri])
        return np.einsum("nk,nkd->nd", self.coefficients[corners], grads)

    def to_csv(self, path):
        """Write node index, coordinates and value, one row per node, each
        float as its ``repr``."""
        rows = "".join([f"{k},{x!r},{y!r},{c!r}\n" for k, ((x, y), c) in
                        enumerate(zip(self.mesh.nodes.tolist(),
                                      self.coefficients.tolist()))])
        with open(path, "w") as fh:
            fh.write("node,x,y,value\n" + rows)


def interpolate(u, mesh: Mesh) -> FeFunction:
    """Nodal interpolant of a callable; exact for affine inputs."""
    return FeFunction(mesh, np.asarray(u(mesh.nodes), dtype=float))


# the P1 mass block of a unit-area triangle: int phi_i phi_j = (1 + d_ij) / 12
_MASS_BLOCK = (np.ones((3, 3)) + np.eye(3)) / 12.0


def mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix, from the exact local block."""
    return _scatter(mesh, mesh.tri_areas[:, None, None] * _MASS_BLOCK)


def _scatter(mesh: Mesh, local_blocks) -> sp.csr_matrix:
    """Sum (t, 3, 3) local blocks, in (triangle, row, column) order, into
    the global P1 matrix; scipy's COO -> CSR conversion sums duplicates."""
    tri, n = mesh.triangles, mesh.n_nodes
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.csr_matrix((np.ravel(local_blocks), (rows, cols)), shape=(n, n))


def _scatter_load(mesh: Mesh, local) -> np.ndarray:
    """Sum (t, 3) local load vectors into a global vector."""
    return np.bincount(mesh.triangles.ravel(), weights=np.ravel(local),
                       minlength=mesh.n_nodes)


def l2_project(u, mesh: Mesh) -> FeFunction:
    """L2 projection onto the P1 space via a consistent mass-matrix solve.

    The mass system is solved by Jacobi-preconditioned CG; when CG fails or
    its relative residual exceeds 1e-12, a sparse direct solve replaces it
    and must meet the same gate, or NumericalFailure is raised.
    """
    pts = quad_points(mesh)
    uvals = np.asarray(u(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
    rhs = _scatter_load(mesh, (mesh.tri_areas[:, None] * uvals)
                        @ _WEIGHTED_HATS)

    mm = mass_matrix(mesh)
    scale = np.linalg.norm(rhs)

    def residual(c):
        return np.linalg.norm(mm @ c - rhs) / scale if scale != 0 else 0.0

    # Jacobi-preconditioned P1 mass matrices have condition number <= 4
    # (Wathen 1987), so CG gains a factor 3 per step; the cap only stops
    # a stagnating iteration, which then takes the direct path.
    coeffs, info = spla.cg(mm, rhs, rtol=1e-14, maxiter=100,
                           M=sp.diags(1.0 / mm.diagonal()))
    if info != 0 or not residual(coeffs) <= 1e-12:
        coeffs = spla.spsolve(mm.tocsc(), rhs)
        rel = residual(coeffs)
        if not rel <= 1e-12:
            raise NumericalFailure(
                f"mass solve residual {rel:.3e} exceeds 1e-12")
    return FeFunction(mesh, coeffs)
