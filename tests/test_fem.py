"""Quadrature, P1 basis machinery, interpolation, projection."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ucfem import fem
from ucfem.experiments import builtin_cases
from ucfem.fem import (FeFunction, interpolate, l2_project, mass_matrix,
                       quad_points, triangle_geometry, triangle_rule)
from ucfem.forms import assemble_all
from ucfem.mesh import UNIT_SQUARE, build_unit_square_mesh, mesh_size

import dense_oracle


def reference_monomial_integral(a, b):
    """Exact integral of x^a y^b over the unit reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [2, 4])
def test_triangle_rule_monomial_exactness(degree):
    # to rounding: weights within 1 ulp of 1, monomials within 4 ulp
    eps = np.finfo(float).eps
    rule = triangle_rule(degree)
    assert abs(rule.weights.sum() - 1.0) <= eps
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = 0.5 * np.sum(rule.weights * rule.points[:, 1] ** a
                               * rule.points[:, 2] ** b)
            exact = reference_monomial_integral(a, b)
            assert abs(got - exact) <= 4 * eps * exact, (a, b)


def test_refined_rule_improves_high_degree():
    # degree-6 monomial: the plain degree-4 rule misses it, one barycentric
    # refinement cuts the error by roughly 2^6
    exact = reference_monomial_integral(6, 0)
    coarse = triangle_rule(4)
    fine = triangle_rule(4, refine=1)
    assert np.isclose(fine.weights.sum(), 1.0)
    err_c = abs(0.5 * np.sum(coarse.weights * coarse.points[:, 1] ** 6)
                - exact)
    err_f = abs(0.5 * np.sum(fine.weights * fine.points[:, 1] ** 6) - exact)
    assert err_f < err_c / 30


def test_p1_gradients_partition_of_unity():
    # on random orientation-preserving affine images of a mesh, whose
    # triangles take general shapes
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(-1, 1, size=(2, 2))
        if np.linalg.det(a) < 1e-3:
            continue
        mesh = build_unit_square_mesh(2)
        mesh.nodes = mesh.nodes @ a.T + rng.uniform(0, 1, size=2)
        mesh.tri_areas = mesh.tri_areas * np.linalg.det(a)
        grads, _ = triangle_geometry(mesh)
        assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-10)
        # per-vertex reference: rotate the opposite edge, divide by 2|T|
        for tri, g in zip(mesh.triangles, grads):
            verts = mesh.nodes[tri]
            e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
            det = e1[0] * e2[1] - e1[1] * e2[0]
            for i in range(3):
                d = verts[(i + 2) % 3] - verts[(i + 1) % 3]
                assert np.allclose(g[i], [-d[1] / det, d[0] / det],
                                   rtol=1e-13)


def test_p1_gradients_exact_for_affine():
    mesh = build_unit_square_mesh(4)
    grads, _ = triangle_geometry(mesh)
    assert grads.shape == (mesh.n_triangles, 3, 2)
    coeffs = 2.0 + 3.0 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1]
    per_tri = np.einsum("tk,tkd->td", coeffs[mesh.triangles], grads)
    assert np.allclose(per_tri, [3.0, -0.5])


def test_quad_points_cover_domain():
    mesh = build_unit_square_mesh(3)
    rule = triangle_rule(2)
    pts = quad_points(mesh, rule)
    assert pts.shape == (mesh.n_triangles, len(rule.weights), 2)
    assert pts.min() >= 0.0 and pts.max() <= 1.0
    # integrating 1 with the mapped rule gives the area
    _, areas = triangle_geometry(mesh)
    total = np.sum(areas[:, None] * rule.weights[None, :])
    assert np.isclose(total, 1.0)


@pytest.mark.parametrize("degree", [2, 4])
def test_reference_tensors_match_their_einsum_definitions(degree):
    rule = triangle_rule(degree)
    w, p = rule.weights, rule.points
    np.testing.assert_allclose(fem._mass_tensor(rule).reshape(-1, 3, 3),
                               np.einsum("q,qi,qj->qij", w, p, p),
                               rtol=1e-15, atol=0)
    np.testing.assert_array_equal(fem._weighted_hats(rule),
                                  np.einsum("q,qi->qi", w, p))
    mesh = build_unit_square_mesh(5)
    np.testing.assert_allclose(
        quad_points(mesh, rule),
        np.einsum("qk,tkd->tqd", p, mesh.nodes[mesh.triangles]),
        rtol=0, atol=1e-15)


# at N = 1 the ex1 omega boxes hold no quadrature point
@pytest.mark.filterwarnings("ignore:data region contains no quadrature point")
@pytest.mark.parametrize("case", builtin_cases(), ids=lambda c: c.name)
@pytest.mark.parametrize("n_cells", range(1, 10))
def test_p1_matrices_are_canonical_on_the_full_stencil(n_cells, case):
    # the diagonal and both orientations of each of the 3N^2 + 2N mesh
    # edges; explicit zeros (blocks outside omega) keep their slots,
    # which the diagnostics' nnz counts
    mesh = build_unit_square_mesh(n_cells)
    forms = assemble_all(case.spec, mesh)
    stencil = mesh.n_nodes + 2 * (3 * n_cells**2 + 2 * n_cells)
    for mat in (forms.pde, forms.data_mass, mass_matrix(mesh)):
        assert mat.has_canonical_format
        assert mat.nnz == stencil


def test_interpolate_exact_for_affine():
    mesh = build_unit_square_mesh(6)
    f = lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1]
    fh = interpolate(f, mesh)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(200, 2))
    assert np.allclose(fh(pts), f(pts), atol=1e-13)


def test_fe_function_gradient_matches_difference_quotient():
    mesh = build_unit_square_mesh(9)
    f = lambda p: p[:, 0] ** 2 + 0.5 * p[:, 1]
    fh = interpolate(f, mesh)
    pts = np.array([[0.345, 0.551]])
    g = fh.gradient(pts)[0]
    eps = 1e-7
    for d in range(2):
        q = pts.copy()
        q[0, d] += eps
        fd = (fh(q)[0] - fh(pts)[0]) / eps
        assert abs(g[d] - fd) < 1e-5


def test_l2_projection_is_projection_and_orthogonal():
    mesh = build_unit_square_mesh(5)
    u = lambda p: np.sin(2 * p[:, 0]) * p[:, 1]
    ph = l2_project(u, mesh, degree=4)
    again = l2_project(ph, mesh, degree=4)
    assert np.allclose(ph.coefficients, again.coefficients, atol=1e-10)
    # residual u - ph is L2-orthogonal to V_h: M-weighted coefficients of
    # the projection equal the load of u itself
    mass = mass_matrix(mesh)
    rule = triangle_rule(4)
    pts = quad_points(mesh, rule)
    _, areas = triangle_geometry(mesh)
    uvals = u(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    load = np.zeros(mesh.n_nodes)
    local = np.einsum("q,tq,qi,t->ti", rule.weights, uvals, rule.points,
                      areas)
    np.add.at(load, mesh.triangles.ravel(), local.ravel())
    assert np.allclose(mass @ ph.coefficients, load, atol=1e-12)


@pytest.mark.parametrize("refine", [0, 1, 2, 3])
@pytest.mark.parametrize("degree", [2, 4])
def test_mass_tensor_is_symmetric_bit_for_bit(degree, refine):
    # a data mass built from it passes solve's bit-symmetry gate
    tensor = fem._mass_tensor(triangle_rule(degree, refine)).reshape(-1, 3, 3)
    np.testing.assert_array_equal(tensor, tensor.transpose(0, 2, 1))


def test_l2_projection_rate_two_for_smooth_field():
    u = lambda p: 30.0 * p[:, 0] * (1 - p[:, 0]) * p[:, 1] * (1 - p[:, 1])
    errs, hs = [], []
    for n in (8, 16, 32, 64):
        mesh = build_unit_square_mesh(n)
        ph = l2_project(u, mesh, degree=4)
        diff = lambda p, ph=ph: u(p) - ph(p)
        rule = triangle_rule(4, refine=1)
        pts = quad_points(mesh, rule)
        _, areas = triangle_geometry(mesh)
        vals = diff(pts.reshape(-1, 2)).reshape(pts.shape[:2])
        err = np.sqrt(np.sum(areas[:, None] * rule.weights[None, :]
                             * vals ** 2))
        errs.append(err)
        hs.append(1.0 / (n + 1))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.1


def _smooth(p):
    return np.sin(2 * p[:, 0]) * p[:, 1] + 1.0


def _spsolve_projection(mesh):
    """Coefficients of _smooth's projection by a sparse direct solve."""
    rule = triangle_rule(4)
    pts = quad_points(mesh, rule)
    _, areas = triangle_geometry(mesh)
    uvals = _smooth(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    load = np.zeros(mesh.n_nodes)
    local = np.einsum("q,tq,qi,t->ti", rule.weights, uvals, rule.points,
                      areas)
    np.add.at(load, mesh.triangles.ravel(), local.ravel())
    return spla.spsolve(mass_matrix(mesh).tocsc(), load)


def _rel_diff(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("failure", ["info", "gate"])
def test_l2_project_falls_back_to_direct_solve(monkeypatch, failure):
    mesh = build_unit_square_mesh(12)
    real_cg, real_spsolve = spla.cg, spla.spsolve
    cg_calls, direct_calls = [], []

    def failing_cg(a, b, **kwargs):
        x, info = real_cg(a, b, **kwargs)
        cg_calls.append(info)
        if failure == "info":
            return x, 1                 # a good vector, but reported failed
        return x * (1 + 1e-6), 0        # reported converged, misses the gate

    def counting_spsolve(a, b):
        direct_calls.append(a.shape)
        return real_spsolve(a, b)

    monkeypatch.setattr(fem.spla, "cg", failing_cg)
    monkeypatch.setattr(fem.spla, "spsolve", counting_spsolve)
    coeffs = l2_project(_smooth, mesh).coefficients
    assert cg_calls == [0] and len(direct_calls) == 1
    assert _rel_diff(coeffs, _spsolve_projection(mesh)) <= 1e-12


def test_l2_project_raises_when_both_paths_miss_the_gate(monkeypatch):
    mesh = build_unit_square_mesh(6)
    monkeypatch.setattr(fem.spla, "cg",
                        lambda a, b, **kw: (np.zeros_like(b), 0))
    monkeypatch.setattr(fem.spla, "spsolve", lambda a, b: np.zeros_like(b))
    with pytest.raises(RuntimeError, match="exceeds 1e-12"):
        l2_project(_smooth, mesh)


@pytest.mark.parametrize("case", builtin_cases(), ids=lambda c: c.name)
def test_l2_project_cg_agrees_with_direct_solve(monkeypatch, case):
    mesh = build_unit_square_mesh(32)
    cg_coeffs = l2_project(case.exact.value, mesh).coefficients
    # CG reporting failure sends l2_project down its direct path
    monkeypatch.setattr(fem.spla, "cg",
                        lambda a, b, **kw: (np.zeros_like(b), 1))
    direct = l2_project(case.exact.value, mesh).coefficients
    assert _rel_diff(cg_coeffs, direct) <= 1e-12


@pytest.mark.parametrize("oracle_points", [2, 4])
@pytest.mark.parametrize("n", range(1, 6))
def test_mass_matrix_matches_dense_oracle(n, oracle_points):
    # the oracle's collapsed Gauss rule is exact for P1 products at 2 and
    # at 4 points per direction, so both must give the closed-form block
    mesh = build_unit_square_mesh(n)
    dense = dense_oracle.dense_data_mass(mesh, 1.0, 0.0, mesh_size(mesh),
                                         UNIT_SQUARE, npts=oracle_points)
    got = mass_matrix(mesh).toarray()
    assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


def test_mass_matrix_row_sums_give_areas():
    mesh = build_unit_square_mesh(4)
    mass = mass_matrix(mesh)
    ones = np.ones(mesh.n_nodes)
    # the total mass is the unit square's area, to 2 ulp
    assert abs(ones @ (mass @ ones) - 1.0) <= 2 * np.finfo(float).eps
    assert np.all(mass.diagonal() > 0)


def test_fe_function_validation():
    mesh = build_unit_square_mesh(3)
    with pytest.raises(ValueError):
        FeFunction(mesh, np.zeros(3))


def test_fe_function_csv_round_trip(tmp_path):
    mesh = build_unit_square_mesh(2)
    fh = interpolate(lambda p: p[:, 0] + 2 * p[:, 1], mesh)
    path = tmp_path / "u.csv"
    fh.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,x,y,value"
    assert len(lines) == mesh.n_nodes + 1
    row = lines[4].split(",")
    k = int(row[0])
    assert float(row[3]) == pytest.approx(
        mesh.nodes[k, 0] + 2 * mesh.nodes[k, 1])
    assert "np.float64" not in lines[4]

    # the bytes of the row-by-row writer, for coordinates and values whose
    # repr has an exponent or a sign
    mesh = build_unit_square_mesh(2)
    mesh.nodes = mesh.nodes.copy()
    mesh.nodes[:3] = [[-0.0, 1e-05], [0.0, -0.0], [1e+16, 0.5]]
    fh = FeFunction(mesh, np.linspace(-1.0, 1.0, mesh.n_nodes))
    fh.coefficients[:5] = [1e-05, -0.0, 1e+16, -2.5e-300, 1 / 3]
    for _ in range(2):  # the second call reuses the mesh's cached columns
        fh.to_csv(path)
        rows = "".join(f"{k},{float(x)!r},{float(y)!r},{float(c)!r}\n"
                       for k, ((x, y), c) in enumerate(zip(mesh.nodes,
                                                           fh.coefficients)))
        assert path.read_bytes() == ("node,x,y,value\n" + rows).encode()
        fh.coefficients[5] = -fh.coefficients[5]
    assert rows.startswith("0,-0.0,1e-05,1e-05\n1,0.0,-0.0,-0.0\n"
                           "2,1e+16,0.5,1e+16\n")
