"""Bilinear forms: dense-oracle equivalence, structure, and inequalities."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ucfem.fem import (TRIANGLE_RULE, interpolate, mass_matrix, quad_points,
                       triangle_geometry)
from ucfem.forms import (ProblemSpec, assemble_all, constant_field,
                         swirl_field, zero_field)
from ucfem.mesh import Region, UNIT_SQUARE, build_unit_square_mesh, mesh_size
from ucfem.experiments import derive_source, get_case, polynomial_bump

import dense_oracle


def zero_source(points):
    return np.zeros(len(np.atleast_2d(points)))


def make_spec(beta=None, beta_sup=1.0, omega=UNIT_SQUARE, mu=1.0,
              gamma=1.0, gamma_star=1.0, boundary_factor=1.0, f=zero_source):
    beta = beta if beta is not None else constant_field(1.0, 0.0)
    return ProblemSpec(mu=mu, beta=beta, omega=omega, target=UNIT_SQUARE,
                       f=f, beta_sup=beta_sup, gamma=gamma,
                       gamma_star=gamma_star, boundary_factor=boundary_factor)


def pde_load_from_field(spec, mesh, gradient):
    """Vector L[i] = a(u, phi_i) for an analytic field u, given grad u.

    For the exact solution this must equal the source load, since the two
    sides differ by an integration by parts.
    """
    rule = TRIANGLE_RULE
    grads, areas = triangle_geometry(mesh)
    pts = quad_points(mesh)
    flat = pts.reshape(-1, 2)
    gu = np.asarray(gradient(flat), dtype=float).reshape(*pts.shape[:2], 2)
    bvals = np.asarray(spec.beta(flat), dtype=float).reshape(*pts.shape[:2], 2)

    conv = np.einsum("q,tqd,tqd,qi,t->ti", rule.weights, bvals, gu,
                     rule.points, areas)
    stiff = spec.mu * np.einsum("q,tqd,tid,t->ti", rule.weights, gu,
                                grads, areas)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.triangles.ravel(), (conv + stiff).ravel())

    (et, ew), edges = dense_oracle.edge_gauss(3), mesh.edges()
    a, b = edges.bnd_nodes[:, 0], edges.bnd_nodes[:, 1]
    epts = (1.0 - et)[None, :, None] * mesh.nodes[a][:, None, :] \
        + et[None, :, None] * mesh.nodes[b][:, None, :]
    gu_e = np.asarray(gradient(epts.reshape(-1, 2)),
                      dtype=float).reshape(len(a), len(et), 2)
    dn = np.einsum("eqd,ed->eq", gu_e, edges.bnd_normals)
    hat = np.stack([1.0 - et, et])
    flux = -spec.mu * np.einsum("q,eq,iq,e->ei", ew, dn, hat,
                                edges.bnd_lengths)
    np.add.at(out, edges.bnd_nodes.ravel(), flux.ravel())
    return out


FIELDS = {
    "const": (constant_field(1.0, 0.0), 1.0),
    "swirl": (swirl_field(), 200.0),
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", ["const", "swirl"])
def test_convection_diffusion_matches_dense_oracle(n, field):
    beta, bsup = FIELDS[field]
    spec = make_spec(beta=beta, beta_sup=bsup)
    mesh = build_unit_square_mesh(n)
    h = mesh_size(mesh)
    sparse = assemble_all(spec, mesh).pde.toarray()
    dense = dense_oracle.dense_convection_diffusion(mesh, spec.mu, beta, h)
    scale = 1.0 + np.abs(dense).max()
    assert np.abs(sparse - dense).max() <= 1e-10 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_data_mass_matches_dense_oracle_full_domain(n):
    spec = make_spec(beta_sup=2.0)
    mesh = build_unit_square_mesh(n)
    h = mesh_size(mesh)
    sparse = assemble_all(spec, mesh).data_mass.toarray()
    dense = dense_oracle.dense_data_mass(mesh, spec.mu, spec.beta_sup, h,
                                         UNIT_SQUARE)
    assert np.abs(sparse - dense).max() <= 1e-10


def test_data_mass_matches_dense_oracle_aligned_subregion():
    # left half of the square aligns with mesh lines at N=2, so the
    # quadrature indicator sees whole triangles in both assemblies
    omega = Region([(0.0, 0.5, 0.0, 1.0)])
    spec = make_spec(beta_sup=1.0, omega=omega)
    mesh = build_unit_square_mesh(2)
    h = mesh_size(mesh)
    sparse = assemble_all(spec, mesh).data_mass.toarray()
    dense = dense_oracle.dense_data_mass(mesh, spec.mu, spec.beta_sup, h,
                                         omega)
    assert np.abs(sparse - dense).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_jump_matches_dense_oracle(n):
    spec = make_spec(beta_sup=3.0, gamma=0.25)
    mesh = build_unit_square_mesh(n)
    h = mesh_size(mesh)
    sparse = assemble_all(spec, mesh).jump.toarray()
    dense = dense_oracle.dense_gradient_jump(mesh, spec.mu, spec.beta_sup,
                                             h, spec.gamma)
    assert np.abs(sparse - dense).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_stabilizer_matches_dense_oracle(n):
    spec = make_spec(beta_sup=2.0, gamma=1e-3, gamma_star=0.5,
                     boundary_factor=50.0)
    mesh = build_unit_square_mesh(n)
    h = mesh_size(mesh)
    sparse = assemble_all(spec, mesh).dual.toarray()
    dense = dense_oracle.dense_dual_stabilizer(
        mesh, spec.mu, spec.beta_sup, h, spec.gamma, spec.gamma_star,
        spec.boundary_factor)
    scale = 1.0 + np.abs(dense).max()
    assert np.abs(sparse - dense).max() <= 1e-10 * scale


@pytest.mark.parametrize("n", [1, 2])
def test_loads_match_dense_oracle(n):
    bump = polynomial_bump()
    beta = constant_field(1.0, 0.0)
    spec = make_spec(beta=beta, beta_sup=1.0,
                     f=derive_source(bump, 1.0, beta))
    mesh = build_unit_square_mesh(n)
    h = mesh_size(mesh)
    data = interpolate(bump.value, mesh)
    blocks = assemble_all(spec, mesh)
    b_source, b_data = blocks.b_source, blocks.data_mass @ data.coefficients
    dense_src = dense_oracle.dense_source_load(mesh, spec.f)
    dense_dat = dense_oracle.dense_data_load(mesh, spec.mu, spec.beta_sup, h,
                                             UNIT_SQUARE, data.coefficients)
    assert np.abs(b_source - dense_src).max() <= 1e-10
    assert np.abs(b_data - dense_dat).max() <= 1e-10


def test_stabilizers_symmetric_and_psd():
    rng = np.random.default_rng(0)
    case = get_case("ex1-swirl")
    mesh = build_unit_square_mesh(6)
    blocks = assemble_all(case.spec, mesh)
    for mat in (blocks.data_mass, blocks.jump, blocks.dual):
        dense = mat.toarray()
        assert np.abs(dense - dense.T).max() <= 1e-12 * (1 + np.abs(dense).max())
        for _ in range(100):
            v = rng.standard_normal(mesh.n_nodes)
            assert v @ (mat @ v) >= -1e-12 * (v @ v)


def test_gradient_jump_kernel_is_exactly_the_affines():
    mesh = build_unit_square_mesh(4)
    spec = make_spec(beta_sup=0.0, beta=zero_field())
    jump = assemble_all(spec, mesh).jump.toarray()
    eigvals = np.linalg.eigvalsh(jump)
    # kernel = span{1, x, y}: exactly three zero eigenvalues
    assert np.all(np.abs(eigvals[:3]) < 1e-12)
    assert eigvals[3] > 1e-8
    for coeffs in (np.ones(mesh.n_nodes), mesh.nodes[:, 0], mesh.nodes[:, 1]):
        assert np.abs(jump @ coeffs).max() < 1e-12


def test_gradient_jump_corner_hat_value():
    # single interior face at N=1; the hat at the lower-right corner has
    # normal-derivative jump sqrt(2) across the diagonal, face weight
    # gamma h (mu) sqrt(2) with h = 1/2
    mesh = build_unit_square_mesh(1)
    spec = make_spec(beta=zero_field(), beta_sup=0.0, gamma=1.0)
    jump = assemble_all(spec, mesh).jump.toarray()
    hat = np.zeros(4)
    hat[1] = 1.0  # node (1, 0)
    assert np.isclose(hat @ (jump @ hat), np.sqrt(2.0), atol=1e-13)


# at n = 6 and 12 the face weights are not exact binary fractions
@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_gradient_jump_is_symmetric_positive_semidefinite(n):
    mesh = build_unit_square_mesh(n)
    jump = assemble_all(get_case("ex1-swirl").spec, mesh).jump.toarray()
    scale = np.abs(jump).max()
    assert np.array_equal(jump, jump.T)
    assert np.linalg.eigvalsh(jump).min() >= -1e-12 * scale


# at N = 1 the ex1 omega boxes hold no quadrature point
@pytest.mark.filterwarnings("ignore:data region contains no quadrature point")
@pytest.mark.parametrize("n", range(1, 10))
def test_gradient_jump_pattern_is_the_union_of_face_blocks(n):
    # every face couples the four nodes of its two triangles
    mesh = build_unit_square_mesh(n)
    face_tris = mesh.edges().face_tris
    nodes = np.concatenate([mesh.triangles[face_tris[:, 0]],
                            mesh.triangles[face_tris[:, 1]]], axis=1)
    rows = np.repeat(nodes, 6, axis=1).ravel()
    cols = np.tile(nodes, (1, 6)).ravel()
    blocks = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                           shape=(mesh.n_nodes,) * 2).tocsr()
    jump = assemble_all(get_case("ex1-swirl").spec, mesh).jump
    for mat in (blocks, jump):
        mat.sort_indices()
    assert np.array_equal(jump.indptr, blocks.indptr)
    assert np.array_equal(jump.indices, blocks.indices)


def test_dual_stabilizer_on_constants_reduces_to_boundary_mass():
    # gradients and jumps vanish on constants, so s_*(1,1) is the weighted
    # boundary integral: bf * gamma_star * (mu/h) * |boundary|
    mesh = build_unit_square_mesh(8)
    h = mesh_size(mesh)
    ones = np.ones(mesh.n_nodes)
    spec = make_spec(beta=zero_field(), beta_sup=0.0)
    s_star = assemble_all(spec, mesh).dual
    assert np.isclose(ones @ (s_star @ ones), 4.0 / h, atol=1e-10)
    spec50 = make_spec(beta=zero_field(), beta_sup=0.0, boundary_factor=50.0,
                       gamma_star=2.0)
    s_star50 = assemble_all(spec50, mesh).dual
    assert np.isclose(ones @ (s_star50 @ ones), 2.0 * 50.0 * 4.0 / h,
                      atol=1e-8)


def test_data_mass_doubles_with_mu_at_zero_beta():
    mesh = build_unit_square_mesh(3)
    m1 = assemble_all(make_spec(beta=zero_field(), beta_sup=0.0, mu=1.0),
                   mesh).data_mass
    m2 = assemble_all(make_spec(beta=zero_field(), beta_sup=0.0, mu=2.0),
                   mesh).data_mass
    assert np.allclose(m2.toarray(), 2.0 * m1.toarray())


def test_data_mass_of_ones_approximates_weighted_region_area():
    case = get_case("ex1-const")
    mesh = build_unit_square_mesh(64)
    h = mesh_size(mesh)
    s_omega = assemble_all(case.spec, mesh).data_mass
    ones = np.ones(mesh.n_nodes)
    total = ones @ (s_omega @ ones)
    target = (case.spec.mu + case.spec.beta_sup * h) * case.spec.omega.area
    assert abs(total - target) < 0.1 * target


def test_empty_data_region_warns():
    omega = Region([(0.9991, 0.9993, 0.4, 0.6)])  # thinner than any cell
    spec = make_spec(omega=omega)
    mesh = build_unit_square_mesh(4)
    with pytest.warns(UserWarning):
        mat = assemble_all(spec, mesh).data_mass
    assert mat.nnz == 0 or np.abs(mat.toarray()).max() == 0.0


def test_empty_data_region_warns_on_every_mesh():
    # the message names N, so Python's default filter, which shows a
    # message once per place, shows each mesh's
    spec = make_spec(omega=Region([(0.9991, 0.9993, 0.4, 0.6)]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for n_cells in (4, 8, 16):
            assemble_all(spec, build_unit_square_mesh(n_cells))
    assert [str(w.message) for w in caught] == [
        "data region contains no quadrature point; data-fitting matrix is "
        f"zero at N={n_cells}" for n_cells in (4, 8, 16)]


def test_convection_diffusion_consistent_for_affine_solution():
    # for an affine u the nodal interpolant is exact, so A @ u must equal
    # the source load of f = beta.grad(u) (Laplacian vanishes)
    mesh = build_unit_square_mesh(5)
    beta = swirl_field()
    u = lambda p: 1.0 + 2.0 * p[:, 0] - 0.7 * p[:, 1]
    grad = lambda p: np.broadcast_to(np.array([2.0, -0.7]),
                                     (np.atleast_2d(p).shape[0], 2))
    f = lambda p: np.asarray(beta(p)) @ np.array([2.0, -0.7])
    spec = make_spec(beta=beta, beta_sup=200.0, f=f)
    data = interpolate(u, mesh)
    blocks = assemble_all(spec, mesh)
    assert np.abs(blocks.pde @ data.coefficients
                  - blocks.b_source).max() < 1e-12


def test_pde_load_from_field_matches_source_load_for_exact_solution():
    # a(u, phi_i) and (f, phi_i) agree for the manufactured pair by the
    # divergence theorem; every integrand here is polynomial of degree <= 4
    # so the one rule is exact and the match is to rounding
    bump = polynomial_bump()
    beta = constant_field(1.0, 0.0)
    spec = make_spec(beta=beta, beta_sup=1.0,
                     f=derive_source(bump, 1.0, beta))
    mesh = build_unit_square_mesh(8)
    b_source = assemble_all(spec, mesh).b_source
    lhs = pde_load_from_field(spec, mesh, bump.gradient)
    assert np.abs(lhs - b_source).max() < 1e-12


def test_assemble_all_collects_consistent_blocks():
    case = get_case("ex2-swirl")
    mesh = build_unit_square_mesh(8)
    blocks = assemble_all(case.spec, mesh)
    assert np.isclose(blocks.h, mesh_size(mesh))
    assert blocks.beta_sup == 200.0
    assert np.isclose(blocks.peclet, blocks.beta_sup * blocks.h / case.spec.mu)
    primal = blocks.data_mass + blocks.jump
    assert np.abs((blocks.primal - primal).toarray()).max() < 1e-14


def test_dual_jump_part_is_the_primal_jump_at_sampled_beta_sup():
    # the jump part of the dual is the part linear in gamma; with |beta|
    # sampled at the quadrature points it must be gamma_* times the primal
    # jump matrix, sampled at the same points
    spec = make_spec(beta=swirl_field(), beta_sup=None, gamma_star=0.5,
                     f=lambda p: np.ones(len(np.atleast_2d(p))))
    mesh = build_unit_square_mesh(4)
    blocks = assemble_all(spec, mesh)
    doubled = assemble_all(dataclasses.replace(spec, gamma=2.0), mesh)
    jump_part = (doubled.dual - blocks.dual).toarray()
    assert blocks.beta_sup < 200.0  # sampled, not declared
    assert np.abs(jump_part - spec.gamma_star * blocks.jump.toarray()).max() \
        <= 1e-12 * np.abs(blocks.dual.toarray()).max()


def test_assemble_all_samples_beta_once():
    # beta is evaluated once per assemble_all; the sampled |beta| is the
    # maximum over those same values
    bump, calls = polynomial_bump(), []

    def counting_beta(pts):
        calls.append(len(pts))
        return swirl_field()(pts)

    mesh = build_unit_square_mesh(4)
    for beta_sup in (None, 200.0):
        spec = make_spec(beta=counting_beta, beta_sup=beta_sup,
                         f=derive_source(bump, 1.0, swirl_field()))
        calls.clear()
        blocks = assemble_all(spec, mesh)
        assert len(calls) == 1
        pts = quad_points(mesh).reshape(-1, 2)
        sampled = np.sqrt((swirl_field()(pts) ** 2).sum(axis=1)).max()
        assert blocks.beta_sup == (sampled if beta_sup is None
                                   else beta_sup)


def test_declared_beta_sup_below_the_sampled_one_warns():
    mesh = build_unit_square_mesh(4)
    spec = make_spec(beta=swirl_field(10.0), beta_sup=1.0)
    with pytest.warns(UserWarning, match="declared beta_sup 1.0 is below"):
        blocks = assemble_all(spec, mesh)
    assert blocks.beta_sup == 1.0


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        make_spec(mu=0.0)
    with pytest.raises(ValueError):
        make_spec(gamma=-1.0)
    with pytest.raises(ValueError, match="beta_sup"):
        make_spec(beta_sup=-5.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("name", ["mu", "gamma", "gamma_star",
                                  "boundary_factor", "beta_sup"])
def test_problem_spec_rejects_non_finite_numbers(name, value):
    # NaN passes every ordering check, so finiteness is checked on its own
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make_spec(**{name: value})


def test_beta_sup_is_sampled_when_unset():
    mesh = build_unit_square_mesh(8)
    spec = ProblemSpec(mu=1.0, beta=swirl_field(), omega=UNIT_SQUARE,
                       target=UNIT_SQUARE, f=zero_source, beta_sup=None)
    sampled = assemble_all(spec, mesh).beta_sup
    # sup over the closed square is 200, quadrature points approach it
    assert 150.0 < sampled <= 200.0


def test_discrete_poincare_ratio_stays_below_frozen_bound():
    # (sqrt(mu) h + sqrt(bsup) h^{3/2}) |v|_{H1} <= C s(v,v)^{1/2} at
    # gamma=1; measured maximum ratio 0.072, frozen with headroom
    rng = np.random.default_rng(7)
    for name in ("ex1-const", "ex1-swirl"):
        spec = dataclasses.replace(get_case(name).spec, gamma=1.0)
        for n in (8, 16, 32, 64):
            mesh = build_unit_square_mesh(n)
            h = mesh_size(mesh)
            smat = assemble_all(spec, mesh).primal
            grads, areas = triangle_geometry(mesh)
            local = np.einsum("tid,tjd,t->tij", grads, grads, areas)
            rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
            cols = np.tile(mesh.triangles, (1, 3)).ravel()
            stiff = sp.coo_matrix((local.ravel(), (rows, cols))).tocsr()
            mass = mass_matrix(mesh)
            pref = np.sqrt(spec.mu) * h + np.sqrt(spec.beta_sup) * h ** 1.5
            for _ in range(50):
                v = rng.standard_normal(mesh.n_nodes)
                h1 = np.sqrt(v @ (mass @ v) + v @ (stiff @ v))
                s_half = np.sqrt(v @ (smat @ v))
                assert pref * h1 <= 0.15 * s_half


def test_jump_inequality_normalized_quantity_bounded():
    # s_jump(I_h u, I_h u) <= C gamma (mu + bsup h) h^2 |u|_{H2}^2 for the
    # quartic bump; the normalized ratio is ~545 at N=8 and decreasing,
    # frozen at 600 (|u|_{H2}^2 = 340 for this bump)
    bump = polynomial_bump()
    for name in ("ex1-const", "ex1-swirl"):
        spec = get_case(name).spec
        prev = np.inf
        for n in (8, 16, 32, 64, 128):
            mesh = build_unit_square_mesh(n)
            h = mesh_size(mesh)
            jump = assemble_all(spec, mesh).jump
            c = interpolate(bump.value, mesh).coefficients
            ratio = (c @ (jump @ c)) / (spec.gamma
                                        * (spec.mu + spec.beta_sup * h)
                                        * h ** 2)
            assert ratio < 600.0
            assert ratio < prev + 1e-9
            prev = ratio


@st.composite
def grid_box(draw):
    """A mesh size N and a positive-area box with corners on the 1/N grid."""
    n = draw(st.sampled_from((2, 4, 8)))
    corners = st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True)
    (x0, x1), (y0, y1) = sorted(draw(corners)), sorted(draw(corners))
    return n, Region([(x0 / n, x1 / n, y0 / n, y1 / n)])


@settings(deadline=None, max_examples=25)
@given(name=st.sampled_from(("ex1-const", "ex1-swirl")), grid=grid_box())
def test_stabilizers_positive_definite_for_any_grid_box(name, grid):
    n, omega = grid
    spec = dataclasses.replace(get_case(name).spec, omega=omega)
    blocks = assemble_all(spec, build_unit_square_mesh(n))
    for label in ("primal", "dual"):
        eig = np.linalg.eigvalsh(getattr(blocks, label).toarray())
        assert eig[0] / eig[-1] > 1e-10, \
            f"{label}: lambda_min/lambda_max {eig[0] / eig[-1]:.2e}"


@settings(deadline=None, max_examples=25)
@given(name=st.sampled_from(("ex1-const", "ex1-swirl")), grid=grid_box())
def test_data_mass_matches_dense_oracle_for_any_grid_box(name, grid):
    n, omega = grid
    spec = dataclasses.replace(get_case(name).spec, omega=omega)
    mesh = build_unit_square_mesh(n)
    blocks = assemble_all(spec, mesh)
    dense = dense_oracle.dense_data_mass(mesh, spec.mu, blocks.beta_sup,
                                         mesh_size(mesh), omega)
    assert np.abs(blocks.data_mass.toarray() - dense).max() <= 1e-10
