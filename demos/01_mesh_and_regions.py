"""Structured triangulations of the unit square and axis-aligned regions.

The mesh is the classic criss-cross pattern: an (N+1) x (N+1) grid of
nodes, each cell split along a diagonal whose direction alternates in a
checkerboard.  Regions are unions of closed boxes minus open holes; they
mark where data lives (omega) and where errors are measured (B).
"""

import numpy as np

from ucfem.mesh import Region, build_unit_square_mesh, locate_points, mesh_size

mesh = build_unit_square_mesh(8)
print("mesh summary:", mesh.summary())
print(f"h = 1/(N+1) = {mesh_size(mesh):.6f}")
print(f"triangle areas are uniform: {np.ptp(mesh.tri_areas):.2e} spread")

# regions: a small measurement box and an annular evaluation region
omega = Region([(0.2, 0.45, 0.2, 0.45)])
collar = Region([(0.0, 1.0, 0.0, 1.0)], holes=[(0.0, 0.875, 0.125, 0.875)])
print(f"omega area {omega.area:.4f}, collar area {collar.area:.4f}")

centroids = mesh.nodes[mesh.triangles].mean(axis=1)
n_marked = int(omega.contains(centroids).sum())
print(f"{n_marked} of {mesh.n_triangles} triangle centroids lie in omega")

# point location: find the triangle and barycentric coordinates of points
rng = np.random.default_rng(0)
pts = rng.uniform(size=(5, 2))
tris, bary = locate_points(mesh, pts)
for p, t, b in zip(pts, tris, bary):
    # reconstruct the point from the barycentric coordinates as a check
    rec = b @ mesh.nodes[mesh.triangles[t]]
    print(f"point ({p[0]:.3f}, {p[1]:.3f}) -> triangle {t}, "
          f"reconstruction error {np.abs(rec - p).max():.1e}")
