"""Piecewise-linear (P1) finite element machinery on triangulations.

Quadrature rules, hat-function gradients, nodal interpolation and
consistent L2 projection.  All assembly downstream builds on the cached
per-triangle geometry computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh, locate_points

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "edge_rule",
    "triangle_geometry",
    "FeFunction",
    "interpolate",
    "mass_matrix",
    "l2_project",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights on a reference element.

    Triangle rules store barycentric points of shape (q, 3); edge rules
    store parameters in [0, 1] of shape (q,).  Weights sum to one so that
    physical integrals are weight-sums scaled by area or length.
    """

    points: np.ndarray
    weights: np.ndarray


# 3-point midpoint rule, exact through degree 2
_TRI_P2 = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_TRI_W2 = np.full(3, 1.0 / 3.0)

# 6-point rule, exact through degree 4
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
_TRI_P4 = np.array([
    [1 - 2 * _A1, _A1, _A1], [_A1, 1 - 2 * _A1, _A1], [_A1, _A1, 1 - 2 * _A1],
    [1 - 2 * _A2, _A2, _A2], [_A2, 1 - 2 * _A2, _A2], [_A2, _A2, 1 - 2 * _A2],
])
_TRI_W4 = np.array([_W1, _W1, _W1, _W2, _W2, _W2])


def triangle_rule(degree: int = 4, refine: int = 0) -> QuadratureRule:
    """Symmetric triangle rule exact at least to the requested degree.

    ``refine`` applies uniform 4-way subdivision levels to the rule; this
    keeps the polynomial exactness while sampling discontinuous weights
    (region indicators) on a finer grid.
    """
    if degree <= 2:
        pts, wts = _TRI_P2, _TRI_W2
    elif degree <= 4:
        pts, wts = _TRI_P4, _TRI_W4
    else:
        raise ValueError(f"no triangle rule of degree {degree} available")
    for _ in range(refine):
        pts, wts = _subdivide(pts, wts)
    return QuadratureRule(pts, wts)


def _subdivide(pts, wts):
    m = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    e = np.eye(3)
    corners = [
        np.array([e[0], m[0], m[2]]),
        np.array([m[0], e[1], m[1]]),
        np.array([m[2], m[1], e[2]]),
        np.array([m[0], m[1], m[2]]),
    ]
    new_pts = np.vstack([pts @ c for c in corners])
    new_wts = np.tile(wts / 4.0, 4)
    return new_pts, new_wts


def edge_rule(degree: int = 4) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1] exact at least to the given degree."""
    if degree < 1:
        raise ValueError("degree must be positive")
    npts = (degree + 2) // 2
    t, w = np.polynomial.legendre.leggauss(npts)
    return QuadratureRule((t + 1.0) / 2.0, w / 2.0)


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
    """Cached per-triangle hat gradients (t, 3, 2) and areas (t,)."""
    cached = mesh._cache.get("p1geom")
    if cached is None:
        grads = _hat_gradients(mesh.nodes[mesh.triangles],
                               2.0 * mesh.tri_areas)
        cached = (grads, mesh.tri_areas)
        mesh._cache["p1geom"] = cached
    return cached


def quad_points(mesh: Mesh, rule: QuadratureRule) -> np.ndarray:
    """Physical quadrature points, shape (n_tri, q, 2)."""
    key = ("qpts", rule.points.tobytes())
    pts = mesh._cache.get(key)
    if pts is None:
        pts = rule.points @ mesh.nodes[mesh.triangles]
        mesh._cache[key] = pts
    return pts


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
        tri, _ = locate_points(self.mesh, points)
        grads, _ = triangle_geometry(self.mesh)
        return np.einsum("nk,nkd->nd", self.coefficients[self.mesh.triangles[tri]],
                         grads[tri])

    def to_csv(self, path):
        """Write node index, coordinates and value, one row per node, each
        float as its ``repr``."""
        rows = "".join([f"{head}{c!r}\n" for head, c in
                        zip(_csv_heads(self.mesh), self.coefficients.tolist())])
        with open(path, "w") as fh:
            fh.write("node,x,y,value\n" + rows)


def _csv_heads(mesh: Mesh) -> list:
    """The ``k,x,y,`` start of each node's CSV row, cached per mesh.  The
    coordinates take few distinct values, and each is formatted once."""
    heads = mesh._cache.get("csvheads")
    if heads is None:
        # equal bit patterns, and only they, have equal reprs (-0.0 too)
        bits, inv = np.unique(mesh.nodes.ravel().view(np.int64),
                              return_inverse=True)
        text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                        dtype=object)
        heads = [f"{k},{x},{y}," for k, (x, y)
                 in enumerate(text[inv].reshape(-1, 2).tolist())]
        mesh._cache["csvheads"] = heads
    return heads


def interpolate(u, mesh: Mesh) -> FeFunction:
    """Nodal interpolant of a callable; exact for affine inputs."""
    return FeFunction(mesh, np.asarray(u(mesh.nodes), dtype=float))


def mass_matrix(mesh: Mesh, degree: int = 4) -> sp.csr_matrix:
    """Consistent P1 mass matrix assembled with the given quadrature degree."""
    rule = triangle_rule(degree)
    _, areas = triangle_geometry(mesh)
    local = np.einsum("q,qi,qj->ij", rule.weights, rule.points, rule.points)
    vals = areas[:, None, None] * local[None, :, :]
    return _scatter(mesh, vals)


def _mass_tensor(rule: QuadratureRule) -> np.ndarray:
    """(q, 9) tensor with ``[q, 3i + j] = w_q phi_i(x_q) phi_j(x_q)``, so
    that a (t, q) array of weights times it gives the (t, 9) local masses."""
    p = rule.points
    return (rule.weights[:, None, None] * p[:, :, None]
            * p[:, None, :]).reshape(len(p), 9)


def _weighted_hats(rule: QuadratureRule) -> np.ndarray:
    """(q, 3) tensor ``w_q phi_i(x_q)``: a (t, q) array of values times it
    gives the (t, 3) local load vectors."""
    return rule.weights[:, None] * rule.points


def _scatter(mesh: Mesh, local_blocks) -> sp.csr_matrix:
    """Sum (t, 3, 3) local blocks into the global P1 matrix.

    The first call for a mesh caches in ``mesh._cache`` the CSR pattern of
    the P1 stencil and the slot of each of the 9 t local entries in it;
    every call then sums the blocks into that pattern with one bincount.
    """
    cached = mesh._cache.get("p1scatter")
    if cached is None:
        n, tri = mesh.n_nodes, mesh.triangles.astype(np.int64)
        keys = (np.repeat(tri, 3, axis=1) * n + np.tile(tri, (1, 3))).ravel()
        pattern, slot = np.unique(keys, return_inverse=True)
        indptr = np.searchsorted(pattern, np.arange(n + 1) * n)
        index = np.int32 if len(pattern) < 2**31 else np.int64
        cached = (indptr.astype(index), (pattern % n).astype(index),
                  slot.astype(index))
        mesh._cache["p1scatter"] = cached
    indptr, indices, slot = cached
    data = np.bincount(slot, weights=np.ravel(local_blocks),
                       minlength=len(indices))
    # the pattern is copied so that no caller can alter the cached one
    return sp.csr_matrix((data, indices.copy(), indptr.copy()),
                         shape=(mesh.n_nodes,) * 2)


def _scatter_load(mesh: Mesh, local) -> np.ndarray:
    """Sum (t, 3) local load vectors into a global vector."""
    return np.bincount(mesh.triangles.ravel(), weights=np.ravel(local),
                       minlength=mesh.n_nodes)


def l2_project(u, mesh: Mesh, degree: int = 4) -> FeFunction:
    """L2 projection onto the P1 space via a consistent mass-matrix solve.

    The mass system is solved by Jacobi-preconditioned CG; when CG fails or
    its relative residual exceeds 1e-12, a sparse direct solve replaces it
    and must meet the same gate.
    """
    rule = triangle_rule(degree)
    _, areas = triangle_geometry(mesh)
    pts = quad_points(mesh, rule)
    uvals = np.asarray(u(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
    rhs = _scatter_load(mesh, (areas[:, None] * uvals) @ _weighted_hats(rule))

    mm = mass_matrix(mesh, degree)
    scale = np.linalg.norm(rhs)

    def residual(c):
        return np.linalg.norm(mm @ c - rhs) / scale if scale > 0 else 0.0

    # Jacobi-preconditioned P1 mass matrices have condition number <= 4
    # (Wathen 1987), so CG gains a factor 3 per step; the cap only stops
    # a stagnating iteration, which then takes the direct path.
    coeffs, info = spla.cg(mm, rhs, rtol=1e-14, maxiter=100,
                           M=sp.diags(1.0 / mm.diagonal()))
    if info != 0 or residual(coeffs) > 1e-12:
        coeffs = spla.spsolve(mm.tocsc(), rhs)
        rel = residual(coeffs)
        if rel > 1e-12:
            raise RuntimeError(f"mass solve residual {rel:.3e} exceeds 1e-12")
    return FeFunction(mesh, coeffs)
