"""Structured triangulations of the unit square and axis-aligned box regions.

A mesh with ``n`` cells per side carries ``(n+1)**2`` nodes and ``2*n**2``
triangles.  Each square cell is cut along one diagonal, and the diagonal
direction alternates in a checkerboard pattern so that no two neighbouring
cells share the same split.  A mesh keeps only its nodes, triangles and
areas; the interior-edge and boundary-edge connectivity, which only
interior-penalty and boundary assembly read, is built by each call of
``Mesh.edges`` and lives as long as its caller keeps it.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

__all__ = [
    "Mesh",
    "Region",
    "UNIT_SQUARE",
    "build_unit_square_mesh",
    "mesh_size",
    "locate_points",
]


class Edges(NamedTuple):
    """Edge connectivity of a mesh.

    ``face_*`` describe the interior faces: ``face_tris[:, 0]`` is the
    triangle the unit normal points away from, ``face_tris[:, 1]`` the one
    it points into.  ``bnd_*`` describe the boundary edges, with outward
    unit normals and the owning triangle.  Both lists are in lexicographic
    order of their node pairs ``(lo, hi)``.
    """

    face_nodes: np.ndarray
    face_normals: np.ndarray
    face_lengths: np.ndarray
    face_tris: np.ndarray
    bnd_nodes: np.ndarray
    bnd_normals: np.ndarray
    bnd_lengths: np.ndarray
    bnd_tris: np.ndarray


class Mesh:
    """Conforming triangulation of the unit square.

    Attributes
    ----------
    nodes : (n_nodes, 2) array of vertex coordinates.
    triangles : (n_tri, 3) int array, counterclockwise vertex indices.
    tri_areas : (n_tri,) array of (positive) triangle areas.

    Nothing else is stored: every array derived from these (edge
    connectivity, hat gradients, quadrature points) is built by the call
    that needs it.
    """

    def __init__(self, cells_per_side: int):
        n = int(cells_per_side)
        if n < 1:
            raise ValueError(f"cells_per_side must be >= 1, got {cells_per_side}")
        self.cells_per_side = n

        side = np.linspace(0.0, 1.0, n + 1)
        xx, yy = np.meshgrid(side, side, indexing="xy")
        # node index = j*(n+1) + i for coordinate (i/n, j/n)
        self.nodes = np.column_stack([xx.ravel(), yy.ravel()])

        # cell (i, j) has lower-left node j*(n+1) + i and owns triangles
        # 2*(j*n + i) and 2*(j*n + i) + 1
        j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
        ll = j * (n + 1) + i
        lr, ul = ll + 1, ll + (n + 1)
        ur = ul + 1
        # even cells: diagonal from lower-left to upper-right;
        # odd cells: diagonal from lower-right to upper-left
        even = np.array([[ll, lr, ur], [ll, ur, ul]])
        odd = np.array([[ll, lr, ul], [lr, ur, ul]])
        tris = np.where((i + j) % 2 == 0, even, odd)
        self.triangles = tris.transpose(2, 0, 1).reshape(-1, 3)

        v = self.nodes[self.triangles]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0):
            raise RuntimeError("mesh construction produced a non-CCW triangle")
        self.tri_areas = 0.5 * det

    def edges(self) -> Edges:
        """Interior-face and boundary-edge connectivity; rejects an edge
        owned by more than two triangles."""
        # half-edge 3*t + k joins vertices k and k+1 (mod 3) of triangle t;
        # the stable sort lists the owners of an edge in triangle order
        tris = self.triangles
        a, b = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * self.n_nodes + hi
        order = np.argsort(keys, kind="stable")
        _, start, count = np.unique(keys[order], return_index=True,
                                    return_counts=True)
        if count.max() > 2:
            e = order[start[count.argmax()]]
            raise RuntimeError(f"edge {(int(lo[e]), int(hi[e]))} owned by "
                               f"{count.max()} triangles")
        first, last = order[start], order[start + count - 1]
        owners = np.column_stack([first, last]) // 3

        # the right-hand normal of the first owner's half-edge points out
        # of that counterclockwise triangle: into the second owner of an
        # interior face, outward on a boundary edge
        d = self.nodes[b[first]] - self.nodes[a[first]]
        length = np.hypot(d[:, 0], d[:, 1])
        nrm = np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None]
        lo, hi = lo[first], hi[first]

        f, bnd = count == 2, count == 1
        return Edges(
            face_nodes=np.column_stack([lo[f], hi[f]]), face_normals=nrm[f],
            face_lengths=length[f], face_tris=owners[f],
            bnd_nodes=np.column_stack([lo[bnd], hi[bnd]]),
            bnd_normals=nrm[bnd], bnd_lengths=length[bnd],
            bnd_tris=owners[bnd, 0])

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def summary(self) -> dict:
        """Counts and mesh size, JSON-ready."""
        edges = self.edges()
        return {
            "cells_per_side": self.cells_per_side,
            "nodes": self.n_nodes,
            "triangles": self.n_triangles,
            "interior_faces": len(edges.face_nodes),
            "boundary_edges": len(edges.bnd_nodes),
            "h": mesh_size(self),
        }


def build_unit_square_mesh(cells_per_side: int) -> Mesh:
    """Build the alternating-diagonal triangulation with the given resolution."""
    return Mesh(cells_per_side)


def mesh_size(mesh: Mesh) -> float:
    """Mesh size parameter: inverse square root of the node count.

    For n cells per side this equals 1/(n+1).  The same value enters every
    stabilization weight, the noise amplitude and the convergence plots.
    """
    return 1.0 / np.sqrt(mesh.n_nodes)


class Region:
    """Finite union of closed axis-aligned boxes, minus optional open holes.

    Boxes are given as ``(x0, x1, y0, y1)``.  A point belongs to the region
    when it lies in some box (boundaries included) and strictly inside no
    hole, so the region is a closed subset of the plane.
    """

    def __init__(self, boxes, holes=()):
        self.boxes = tuple(tuple(float(c) for c in b) for b in boxes)
        self.holes = tuple(tuple(float(c) for c in b) for b in holes)
        for x0, x1, y0, y1 in self.boxes + self.holes:
            if not np.all(np.isfinite((x0, x1, y0, y1))):
                raise ValueError(f"non-finite box ({x0}, {x1}, {y0}, {y1})")
            if x1 < x0 or y1 < y0:
                raise ValueError(f"malformed box ({x0}, {x1}, {y0}, {y1})")
        self.area = self._exact_area()
        if self.area == 0.0:
            warnings.warn("region has zero area", stacklevel=2)

    @property
    def is_empty(self) -> bool:
        return self.area == 0.0

    def contains(self, points) -> np.ndarray:
        """Vectorized membership test; points is an (n, 2) array."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        for x0, x1, y0, y1 in self.boxes:
            inside |= (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        for x0, x1, y0, y1 in self.holes:
            inside &= ~((x > x0) & (x < x1) & (y > y0) & (y < y1))
        return inside

    def _exact_area(self) -> float:
        if not self.boxes:
            return 0.0
        xs = np.unique([b[i] for b in self.boxes + self.holes for i in (0, 1)])
        ys = np.unique([b[i] for b in self.boxes + self.holes for i in (2, 3)])
        if len(xs) < 2 or len(ys) < 2:
            return 0.0
        cx = 0.5 * (xs[:-1] + xs[1:])
        cy = 0.5 * (ys[:-1] + ys[1:])
        wx = np.diff(xs)
        wy = np.diff(ys)
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        mask = self.contains(centers).reshape(len(cx), len(cy))
        return float(np.einsum("i,j,ij->", wx, wy, mask))

    def __repr__(self):
        return f"Region(boxes={self.boxes}, holes={self.holes})"


UNIT_SQUARE = Region([(0.0, 1.0, 0.0, 1.0)])


def locate_points(mesh: Mesh, points):
    """Locate points in the structured mesh.

    Returns ``(tri, bary)`` where ``tri`` holds containing-triangle indices
    and ``bary`` the barycentric coordinates with respect to the triangle's
    own vertex order.  Points on shared edges resolve to one of the owners;
    coordinates are clipped to the unit square first.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = mesh.cells_per_side
    x = np.clip(pts[:, 0], 0.0, 1.0)
    y = np.clip(pts[:, 1], 0.0, 1.0)
    i = np.minimum((x * n).astype(np.int64), n - 1)
    j = np.minimum((y * n).astype(np.int64), n - 1)
    xi = x * n - i
    eta = y * n - j
    even = (i + j) % 2 == 0
    # second triangle of the cell lies above its diagonal
    upper = np.where(even, eta > xi, xi + eta > 1.0)
    tri = 2 * (j * n + i) + upper

    v = mesh.nodes[mesh.triangles[tri]]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    r = np.column_stack([x, y]) - v[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    l1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * r[:, 1] - d1[:, 1] * r[:, 0]) / det
    bary = np.column_stack([1.0 - l1 - l2, l1, l2])
    return tri, bary
