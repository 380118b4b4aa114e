"""Structured-mesh construction, regions, and point location."""

import numpy as np
import pytest

from ucfem.fem import interpolate
from ucfem.mesh import (Mesh, Region, UNIT_SQUARE, build_unit_square_mesh,
                        locate_points, mesh_size)

import dense_oracle


def test_counts_match_structured_grid_formulas():
    for n in (1, 2, 8):
        mesh = build_unit_square_mesh(n)
        assert mesh.n_nodes == (n + 1) ** 2
        assert mesh.n_triangles == 2 * n * n
        edges = mesh.edges()
        assert len(edges.face_nodes) == 3 * n * n - 2 * n
        assert len(edges.bnd_nodes) == 4 * n


def test_triangle_areas_uniform_and_positive():
    mesh = build_unit_square_mesh(8)
    assert np.allclose(mesh.tri_areas, 1.0 / 128.0)
    assert np.all(mesh.tri_areas > 0)
    assert np.isclose(mesh.tri_areas.sum(), 1.0)


def test_mesh_size_is_inverse_root_of_node_count():
    for n in (1, 8, 17):
        mesh = build_unit_square_mesh(n)
        assert np.isclose(mesh_size(mesh), 1.0 / (n + 1))


def test_triangles_counterclockwise():
    mesh = build_unit_square_mesh(5)
    p = mesh.nodes[mesh.triangles]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    assert np.all(cross > 0)


def test_diagonals_alternate_between_adjacent_cells():
    # neighbouring cells must not share a parallel diagonal; check via the
    # edge midpoints: each cell contributes exactly one diagonal edge and
    # the diagonal's direction flips with the checkerboard parity
    n = 4
    mesh = build_unit_square_mesh(n)
    diag_dirs = {}
    edges = mesh.edges()
    for (a, b), length in zip(edges.face_nodes, edges.face_lengths):
        if not np.isclose(length, np.sqrt(2.0) / n):
            continue
        mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
        cell = (int(mid[0] * n), int(mid[1] * n))
        d = mesh.nodes[b] - mesh.nodes[a]
        diag_dirs[cell] = np.sign(d[0] * d[1])
    assert len(diag_dirs) == n * n
    for (i, j), s in diag_dirs.items():
        assert s == (1 if (i + j) % 2 == 0 else -1)


def _strictly_lexicographic(pairs):
    a, b = pairs[:, 0], pairs[:, 1]
    later = (a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1]))
    return bool(np.all(a < b) and np.all(later))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 17])
def test_connectivity_matches_oracle_edge_scan(n):
    # assembly sums face contributions in this order, so it is pinned
    mesh = build_unit_square_mesh(n)
    edges = mesh.edges()
    assert _strictly_lexicographic(edges.face_nodes)
    assert _strictly_lexicographic(edges.bnd_nodes)
    interior, boundary = dense_oracle._scan_edges(mesh)
    assert {(int(a), int(b), frozenset(map(int, tris)))
            for (a, b), tris in interior} == \
        {(a, b, frozenset(tris)) for (a, b), tris
         in zip(edges.face_nodes.tolist(), edges.face_tris.tolist())}
    assert {(int(a), int(b), int(t)) for (a, b), t in boundary} == \
        {(a, b, t) for (a, b), t
         in zip(edges.bnd_nodes.tolist(), edges.bnd_tris.tolist())}


def test_edge_with_three_owners_is_rejected():
    mesh = build_unit_square_mesh(1)
    mesh.triangles = np.vstack([mesh.triangles, mesh.triangles[:1]])
    with pytest.raises(RuntimeError, match="owned by 3 triangles"):
        mesh.edges()


def test_interior_face_normals_unit_and_consistent():
    mesh = build_unit_square_mesh(4)
    edges = mesh.edges()
    norms = np.linalg.norm(edges.face_normals, axis=1)
    assert np.allclose(norms, 1.0)
    # normal points from the first listed triangle towards the second
    for (a, b), n_vec, (tl, tr) in zip(edges.face_nodes, edges.face_normals,
                                       edges.face_tris):
        mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
        cl = mesh.nodes[mesh.triangles[tl]].mean(axis=0)
        cr = mesh.nodes[mesh.triangles[tr]].mean(axis=0)
        assert np.dot(n_vec, cr - mid) > 0
        assert np.dot(n_vec, cl - mid) < 0


def test_boundary_normals_point_outward():
    mesh = build_unit_square_mesh(3)
    edges = mesh.edges()
    for (a, b), n_vec in zip(edges.bnd_nodes, edges.bnd_normals):
        mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
        assert np.dot(n_vec, mid - np.array([0.5, 0.5])) > 0


def test_boundary_total_length():
    mesh = build_unit_square_mesh(6)
    assert np.isclose(mesh.edges().bnd_lengths.sum(), 4.0)


def test_locate_points_reproduces_barycentric_interpolation():
    rng = np.random.default_rng(42)
    mesh = build_unit_square_mesh(7)
    pts = rng.uniform(0.02, 0.98, size=(500, 2))
    tris, bary = locate_points(mesh, pts)
    assert np.all(bary >= -1e-12)
    assert np.allclose(bary.sum(axis=1), 1.0)
    rebuilt = np.einsum("pk,pkd->pd", bary, mesh.nodes[mesh.triangles[tris]])
    assert np.allclose(rebuilt, pts, atol=1e-12)


def test_locate_points_clips_to_the_unit_square():
    # a point outside the square is located at its clipped image, so a P1
    # function takes its boundary value there and does not extrapolate
    mesh = build_unit_square_mesh(4)
    fe = interpolate(lambda p: np.atleast_2d(p)[:, 0], mesh)
    assert fe(np.array([[1.1, 0.5]]))[0] == pytest.approx(1.0, abs=1e-14)
    outside = np.array([[1.1, 0.5], [-0.3, 0.2], [0.7, 1.4], [0.4, -2.0],
                        [-1.0, -1.0], [2.0, 1.5]])
    tris, bary = locate_points(mesh, outside)
    clipped_tris, clipped_bary = locate_points(mesh, np.clip(outside, 0, 1))
    assert np.array_equal(tris, clipped_tris)
    assert np.array_equal(bary, clipped_bary)
    assert np.all(bary >= -1e-12)


def test_region_contains_and_area():
    region = Region([(0.2, 0.45, 0.2, 0.45)])
    assert region.contains(np.array([[0.3, 0.3]]))[0]
    assert not region.contains(np.array([[0.5, 0.3]]))[0]
    assert np.isclose(region.area, 0.25 ** 2)

    union = Region([(0.0, 0.125, 0.4, 0.6), (0.875, 1.0, 0.4, 0.6)])
    assert np.isclose(union.area, 2 * 0.125 * 0.2)


def test_region_with_hole_is_open_complement():
    frame = Region([(0.0, 1.0, 0.0, 1.0)], holes=[(0.0, 0.875, 0.125, 0.875)])
    assert np.isclose(frame.area, 1.0 - 0.875 * 0.75)
    inside_hole = np.array([[0.4, 0.5]])
    on_frame = np.array([[0.95, 0.5], [0.5, 0.05]])
    assert not frame.contains(inside_hole)[0]
    assert frame.contains(on_frame).all()


def test_empty_region_warns():
    with pytest.warns(UserWarning):
        region = Region([(0.2, 0.2, 0.3, 0.4)])
    assert region.is_empty


def test_region_contains_on_centroids():
    mesh = build_unit_square_mesh(8)
    centroids = mesh.nodes[mesh.triangles].mean(axis=1)
    assert UNIT_SQUARE.contains(centroids).all()
    # 2x2 cells of the corner box, 2 triangles each
    corner = Region([(0.0, 0.25, 0.0, 0.25)])
    assert corner.contains(centroids).sum() == 2 * 2 * 2


def test_summary_contents():
    mesh = build_unit_square_mesh(4)
    info = mesh.summary()
    assert info["cells_per_side"] == 4
    assert info["nodes"] == 25
    assert info["triangles"] == 32
    assert np.isclose(info["h"], 0.2)
