"""Saddle-point assembly, direct solve, and condition-number machinery."""

import dataclasses
import gc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

import ucfem.saddle as saddle
from ucfem.experiments import (apply_noise, builtin_cases, get_case,
                               polynomial_bump)
from ucfem.fem import interpolate
from ucfem.forms import assemble_all
from ucfem.mesh import build_unit_square_mesh
from ucfem.saddle import (CondEstimate, NumericalFailure, SaddleSystem,
                          build_system, estimate_condition_number,
                          exact_condition_number, solve)

from test_forms import pde_load_from_field

# SuperLU's pivot-free factorization in the stored order, as solve first
# tries it
PIVOT_FREE = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
# SuperLU's own pivot-free minimum degree order of M^T + M: the reference
# on the natural numbering
MINIMUM_DEGREE = dict(PIVOT_FREE, permc_spec="MMD_AT_PLUS_A")


def factors(system):
    """Sparse LU factors of a system's matrix, as solve first tries them."""
    return spla.splu(system.matrix.tocsc(), **PIVOT_FREE)


def minimum_degree_factors(system):
    """Pivot-free sparse LU factors of a system's matrix in SuperLU's
    minimum degree order."""
    return spla.splu(system.matrix.tocsc(), **MINIMUM_DEGREE)


def colamd_factors(system):
    """Sparse LU factors of a system's matrix, as solve's fallback makes
    them: COLAMD order with partial pivoting."""
    return spla.splu(system.matrix.tocsc())


def _nested_dissection(cells_per_side):
    """Elimination order of the ``(n+1)**2`` grid nodes by nested dissection.

    The reference order that minimum degree is measured against: geometric
    nested dissection (George, SIAM J. Numer. Anal. 10, 1973).  Each box of
    nodes is bisected across its longer side and lists its two halves,
    recursively ordered, before the separator.  Separators are two node
    lines wide because the gradient-jump penalty couples the opposite
    vertices of the two triangles at a face, which lie two lines apart.
    Boxes whose longer side has fewer than four lines are not split.
    """
    m = int(cells_per_side) + 1
    # grid[j, i] is the index j*(n+1) + i of the node at (i/n, j/n)
    grid = np.arange(m * m, dtype=np.int64).reshape(m, m)
    parts = []
    _dissect(grid, parts)
    return np.concatenate(parts)


def _dissect(box, parts):
    """Append the nodes of ``box`` to ``parts`` in nested-dissection order."""
    if max(box.shape) < 4:
        parts.append(box.ravel())
        return
    if box.shape[0] < box.shape[1]:
        box = box.T
    mid = (box.shape[0] - 2) // 2
    _dissect(box[:mid], parts)
    _dissect(box[mid + 2:], parts)
    parts.append(box[mid:mid + 2].ravel())


def natural_index(system):
    """Where each unknown of the natural (u, z) numbering sits in the
    system's stored numbering: ``stored[natural_index(system)]`` is the
    natural vector."""
    return np.argsort(system.order)


def natural_system(blocks, system):
    """The system in the natural (u, z) numbering, its matrix rebuilt from
    the blocks: the reference that the stored numbering is checked
    against."""
    mat = sp.bmat([[blocks.primal, blocks.pde.T],
                   [blocks.pde, -blocks.dual]], format="csr")
    return SaddleSystem(mat, system.rhs[natural_index(system)], system.n,
                        np.arange(2 * system.n))


def node_order(natural, n):
    """The node elimination order that the stored numbering should hold,
    from a natural-numbered matrix: its stored pattern summed over the
    four (u, z) blocks, diagonal set to the off-diagonal count plus one,
    ordered by SuperLU's minimum degree from its reverse Cuthill-McKee
    numbering."""
    pattern = natural.copy()
    pattern.data[:] = 1.0
    nodes = (pattern[:n, :n] + pattern[:n, n:] + pattern[n:, :n]
             + pattern[n:, n:]).tolil()
    nodes.setdiag(0.0)
    nodes = nodes.tocsr()
    nodes.eliminate_zeros()
    nodes.data[:] = 1.0
    nodes = (nodes + sp.diags(np.diff(nodes.indptr) + 1.0)).tocsc()
    rcm = csgraph.reverse_cuthill_mckee(nodes, symmetric_mode=True)
    ilu = spla.spilu(nodes[rcm][:, rcm], permc_spec="MMD_AT_PLUS_A",
                     drop_tol=np.inf, diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})
    return rcm[np.argsort(ilu.perm_c)]


def case_system(name="ex1-const", n=8, data_fn=None, spec=None):
    """A case's blocks and saddle system at N=n, the data load formed as
    ``data_mass @ c``."""
    case = get_case(name)
    spec = spec if spec is not None else case.spec
    mesh = build_unit_square_mesh(n)
    data = interpolate(data_fn or case.exact.value, mesh)
    if case.noise is not None:
        data = apply_noise(data, case.noise, spec.omega)
    blocks = assemble_all(spec, mesh)
    system = build_system(blocks.pde, blocks.primal, blocks.dual,
                          blocks.data_mass @ data.coefficients,
                          blocks.b_source)
    return case, mesh, blocks, system


def test_block_arrangement():
    case, mesh, blocks, system = case_system(n=4)
    data = interpolate(case.exact.value, mesh)
    n = system.n
    # stored in the minimum degree order of the natural matrix's node
    # graph, u and z of each node side by side
    ref = natural_system(blocks, system)
    assert np.array_equal(system.order[0::2], node_order(ref.matrix, n))
    assert np.array_equal(system.order[1::2], system.order[0::2] + n)
    assert system.matrix.has_canonical_format
    back = natural_index(system)
    mat = system.matrix[back][:, back]
    assert np.abs((mat[:n, :n] - blocks.primal).toarray()).max() == 0.0
    assert np.abs((mat[:n, n:] - blocks.pde.T).toarray()).max() == 0.0
    assert np.abs((mat[n:, :n] - blocks.pde).toarray()).max() == 0.0
    assert np.abs((mat[n:, n:] + blocks.dual).toarray()).max() == 0.0
    rhs = system.rhs[back]
    assert np.array_equal(rhs[:n], blocks.data_mass @ data.coefficients)
    assert np.array_equal(rhs[n:], blocks.b_source)


def assert_node_graph_covers(natural, system):
    """The node graph that ``build_system`` orders holds every stored
    entry (i, j) of the natural matrix as (i mod n, j mod n), and so every
    stored entry of the stored matrix; it is symmetric, with unit
    off-diagonals and the off-diagonal count plus one on the diagonal."""
    n = system.n
    graph = saddle._node_graph(natural, n)
    assert graph.shape == (n, n)
    dense = graph.toarray()
    coo = natural.tocoo()
    assert np.all(dense[coo.row % n, coo.col % n] > 0)
    stored = system.matrix.tocoo()
    assert np.all(dense[system.order[stored.row] % n,
                        system.order[stored.col] % n] > 0)
    assert abs(graph - graph.T).nnz == 0
    off = (graph - sp.diags(graph.diagonal())).tocsr()
    off.eliminate_zeros()
    assert np.all(off.data == 1.0)
    assert np.array_equal(graph.diagonal(), np.diff(off.indptr) + 1.0)


@pytest.mark.parametrize("name", [c.name for c in builtin_cases()])
def test_node_graph_covers_every_stored_entry(name):
    _, _, blocks, system = case_system(name, n=8)
    assert_node_graph_covers(natural_system(blocks, system).matrix, system)


def test_node_graph_of_the_zero_system_is_its_diagonal():
    zero = sp.csr_matrix(np.zeros((4, 4)))
    system = build_system(zero, zero, zero, np.zeros(4), np.zeros(4))
    natural = sp.bmat([[zero, zero], [zero, -zero]], format="csr")
    assert_node_graph_covers(natural, system)
    assert np.array_equal(saddle._node_graph(natural, 4).toarray(),
                          np.eye(4))


@pytest.mark.parametrize("name", [c.name for c in builtin_cases()])
def test_u_and_z_of_each_node_sit_side_by_side(name):
    _, _, _, system = case_system(name, n=8)
    n = system.n
    assert np.array_equal(np.sort(system.order), np.arange(2 * n))
    assert np.array_equal(system.order[1::2], system.order[0::2] + n)


def test_const_and_swirl_share_the_node_order():
    # their matrices fold onto the same node graph, so one order serves
    # both, with the same fill
    (_, mesh, _, const), (_, _, _, swirl) = (
        case_system(name, n=16) for name in ("ex1-const", "ex1-swirl"))
    assert np.array_equal(const.order, swirl.order)
    assert solve(const, mesh).diagnostics["lu_nnz"] \
        == solve(swirl, mesh).diagnostics["lu_nnz"]


def test_node_order_fills_no_more_than_the_order_of_the_unknowns():
    # 1,438,642 entries: minimum degree of the 2n unknowns, started from
    # their reverse Cuthill-McKee numbering
    _, mesh, _, system = case_system("ex1-swirl", n=64)
    diag = solve(system, mesh).diagnostics
    assert diag["ordering"] == "minimum_degree"
    assert diag["lu_nnz"] <= 1_438_642


def test_node_order_solves_without_refinement():
    _, mesh, _, system = case_system("ex1-const", n=64)
    diag = solve(system, mesh).diagnostics
    assert diag["ordering"] == "minimum_degree"
    assert diag["refinement_steps"] == 0


@pytest.mark.parametrize("name", ["ex1-const", "ex1-swirl", "ex3-swirl"])
def test_system_is_symmetric(name):
    _, _, _, system = case_system(name, n=8)
    assert system.symmetry_defect() <= 1e-10


@pytest.mark.parametrize("name", [c.name for c in builtin_cases()])
@pytest.mark.parametrize("n", [6, 12])
def test_system_is_symmetric_on_meshes_of_any_size(name, n):
    # off the powers of two the face weights are not exact binary
    # fractions, and only a jump form symmetric by construction is; solve
    # refuses a system that is not, so this holds for every assembled one:
    # declared and sampled |beta|
    spec = get_case(name).spec
    for custom in (spec, dataclasses.replace(spec, beta_sup=None)):
        _, _, _, system = case_system(name, n=n, spec=custom)
        assert system.symmetry_defect() == 0.0


@pytest.mark.parametrize("n", [6, 8])
def test_symmetry_defect_matches_the_sparse_difference(n):
    _, _, _, system = case_system("ex2-swirl", n=n)
    mat = system.matrix
    if n == 6:
        # the assembled matrix is symmetric; make one off-diagonal entry
        # differ from its mirror by hand
        mat = mat.copy()
        coo = mat.tocoo()
        k = np.flatnonzero(coo.row != coo.col)[0]
        mat[coo.row[k], coo.col[k]] *= 1 + 2.0**-30
        system = dataclasses.replace(system, matrix=mat)
    diff = (mat - mat.T).tocoo()
    want = np.abs(diff.data).max() / np.abs(mat.data).max() if diff.nnz \
        else 0.0
    assert system.symmetry_defect() == want
    assert (want > 0) == (n == 6)


def test_sign_flip_quadratic_form_recovers_stabilizers():
    # with x = (u, z) and y = (u, -z) the cross terms cancel, leaving
    # y . M x = s(u,u) + s_*(z,z); this pins the minus sign on the dual
    # block and the transpose pairing on the off-diagonal blocks
    rng = np.random.default_rng(3)
    _, _, blocks, system = case_system(n=6)
    n = system.n
    for _ in range(20):
        u = rng.standard_normal(n)
        z = rng.standard_normal(n)
        x = np.concatenate([u, z])[system.order]
        y = np.concatenate([u, -z])[system.order]
        lhs = y @ (system.matrix @ x)
        rhs = u @ (blocks.primal @ u) + z @ (blocks.dual @ z)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs) + abs(rhs))


@pytest.mark.parametrize("sampled_beta", [True, False])
@pytest.mark.parametrize("name", [c.name for c in builtin_cases()])
def test_stabilizer_norms_match_the_blocks(name, sampled_beta):
    # with |beta| declared or sampled at assembly, whose weights differ
    spec = get_case(name).spec
    if sampled_beta:
        spec = dataclasses.replace(spec, beta_sup=None)
    _, _, blocks, system = case_system(name, n=8, spec=spec)
    rng = np.random.default_rng(7)
    e = rng.standard_normal(system.n)
    z = rng.standard_normal(system.n)
    s_norm, sstar_norm = system.stabilizer_norms(e, z)
    assert s_norm == pytest.approx(np.sqrt(e @ (blocks.primal @ e)),
                                   rel=1e-12)
    assert sstar_norm == pytest.approx(np.sqrt(z @ (blocks.dual @ z)),
                                       rel=1e-12)


def test_zero_data_gives_zero_solution():
    case = get_case("ex1-const")
    spec = dataclasses.replace(case.spec, f=lambda p: np.zeros(len(np.atleast_2d(p))))
    mesh = build_unit_square_mesh(8)
    data = interpolate(lambda p: np.zeros(len(np.atleast_2d(p))), mesh)
    blocks = assemble_all(spec, mesh)
    system = build_system(blocks.pde, blocks.primal, blocks.dual,
                          blocks.data_mass @ data.coefficients,
                          blocks.b_source)
    sol = solve(system, mesh)
    assert np.abs(sol.u.coefficients).max() == 0.0
    assert np.abs(sol.z.coefficients).max() == 0.0


def test_solution_linear_in_source_and_data():
    case = get_case("ex1-const")
    mesh = build_unit_square_mesh(8)
    bump = polynomial_bump()
    other = lambda p: np.sin(np.pi * np.atleast_2d(p)[:, 0]) \
        * np.atleast_2d(p)[:, 1]
    spec2 = dataclasses.replace(case.spec,
                                f=lambda p: np.cos(np.atleast_2d(p)[:, 0]))
    d1 = interpolate(bump.value, mesh)
    d2 = interpolate(other, mesh)
    b1 = assemble_all(case.spec, mesh)
    b2 = assemble_all(spec2, mesh)
    load1 = b1.data_mass @ d1.coefficients
    load2 = b1.data_mass @ d2.coefficients
    alpha = 0.75
    sys1 = build_system(b1.pde, b1.primal, b1.dual, load1, b1.b_source)
    sys2 = build_system(b1.pde, b1.primal, b1.dual, load2, b2.b_source)
    sys12 = build_system(b1.pde, b1.primal, b1.dual,
                         alpha * load1 + load2,
                         alpha * b1.b_source + b2.b_source)
    sol1 = solve(sys1, mesh)
    sol2 = solve(sys2, mesh)
    sol12 = solve(sys12, mesh)
    for part in ("u", "z"):
        combo = alpha * getattr(sol1, part).coefficients \
            + getattr(sol2, part).coefficients
        got = getattr(sol12, part).coefficients
        scale = np.abs(combo).max() + np.abs(got).max()
        assert np.abs(got - combo).max() <= 1e-7 * (1 + scale)


def test_solver_recovers_galerkin_identity():
    # the second block row states a_h(u_h, w) - s_*(z_h, w) = (f, w); for
    # the manufactured quartic the right side equals a_h(u, w) under the
    # degree-4 rule, so the PDE residual of (u_h, z_h) against the
    # continuous field must vanish to solver precision
    case, mesh, blocks, system = case_system("ex1-const", n=8)
    sol = solve(system, mesh)
    lhs = blocks.pde @ sol.u.coefficients - blocks.dual @ sol.z.coefficients
    rhs = pde_load_from_field(case.spec, mesh, case.exact.gradient)
    assert np.abs(lhs - rhs).max() <= 1e-8 * (1 + np.abs(rhs).max())


def test_solve_diagnostics_and_residual():
    _, mesh, _, system = case_system(n=8)
    sol = solve(system, mesh)
    diag = sol.diagnostics
    assert diag["dimension"] == 2 * system.n == 2 * mesh.n_nodes
    assert diag["relative_residual"] <= 1e-8
    assert "symmetry_defect" not in diag  # solve refuses any defect but 0
    assert diag["nnz"] == system.matrix.nnz
    assert diag["factor_seconds"] >= 0.0
    assert diag["ordering"] == "minimum_degree"
    assert diag["lu_nnz"] == factors(system).nnz >= system.matrix.nnz
    assert diag["residual_history"][-1] == diag["relative_residual"]
    assert len(diag["residual_history"]) == diag["refinement_steps"] + 1


def test_refinement_records_each_step():
    # factors of 1.5 M leave an error of 1/3 per refinement step, so the
    # one step runs, cuts the relative residual by about 3 and is the last
    _, _, _, system = case_system("ex1-swirl", n=8)
    lu = spla.splu(1.5 * system.matrix.tocsc(), **PIVOT_FREE)
    x, history = saddle._refined_solve(system, lu)
    assert len(history) == 2
    assert history[0] == pytest.approx(1 / 3, rel=1e-6)
    for before, after in zip(history, history[1:]):
        assert after == pytest.approx(before / 3, rel=1e-6)
    r = system.rhs - system.matrix @ x
    assert history[-1] == np.linalg.norm(r) / np.linalg.norm(system.rhs)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("name", [c.name for c in builtin_cases()])
def test_stabilizer_blocks_are_positive_definite(name, n):
    # S and S_* positive definite make the saddle matrix quasi-definite
    _, _, blocks, _ = case_system(name, n=n)
    for block in (blocks.primal, blocks.dual):
        eig = np.linalg.eigvalsh(block.toarray())
        assert eig[0] > 1e-10 * eig[-1]


def test_solve_raises_on_singular_matrix():
    bad = build_system(sp.csr_matrix(np.zeros((2, 2))),
                       sp.csr_matrix(np.zeros((2, 2))),
                       sp.csr_matrix(np.zeros((2, 2))),
                       np.zeros(2), np.zeros(2))
    mesh = build_unit_square_mesh(1)
    with pytest.raises(NumericalFailure):
        solve(bad, mesh)


def test_build_system_validates_shapes():
    a = sp.eye(4, format="csr")
    b = sp.eye(3, format="csr")
    with pytest.raises(ValueError):
        build_system(a, b, a, np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        build_system(a, a, a, np.zeros(3), np.zeros(4))


# definite, and symmetric indefinite with the sign structure of M: the
# power iteration runs on the square, where both signs look alike
@pytest.mark.parametrize("diag", [[4.0, 2.0, 1.0, 0.5],
                                  [4.0, 2.0, -1.0, -0.5]],
                         ids=["definite", "indefinite"])
def test_condition_number_diagonal_oracle(diag):
    diag = np.array(diag)
    sys_diag = SaddleSystem(sp.csr_matrix(np.diag(diag)), np.zeros(4), 2,
                            np.arange(4))
    assert exact_condition_number(sys_diag) == pytest.approx(8.0)
    est = estimate_condition_number(sys_diag, factors(sys_diag), tol=1e-10)
    assert est.value == pytest.approx(8.0, rel=1e-6)
    assert est.sigma_max == pytest.approx(4.0, rel=1e-6)
    assert est.sigma_min == pytest.approx(0.5, rel=1e-6)
    assert est.converged
    assert est.bracket[0] <= est.value <= est.bracket[1]


def test_estimate_matches_exact_within_five_percent():
    _, _, _, system = case_system("ex1-const", n=8)
    exact = exact_condition_number(system)
    est = estimate_condition_number(system, factors(system), tol=1e-6)
    assert est.converged
    assert abs(est.value - exact) <= 0.05 * exact


def test_estimate_deterministic_for_fixed_seed():
    # the start vectors come from a generator seeded with 0, so two calls
    # on the same factors agree
    _, _, _, system = case_system("ex1-const", n=4)
    lu = factors(system)
    a = estimate_condition_number(system, lu)
    b = estimate_condition_number(system, lu)
    assert a.value == b.value
    assert a.iterations == b.iterations


def test_estimate_brackets_on_iteration_cap_without_warning():
    _, _, _, system = case_system("ex1-const", n=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_condition_number(system, factors(system), tol=1e-14,
                                        max_iter=1)
    assert not est.converged
    assert est.bracket[0] <= est.value <= est.bracket[1]
    assert all(type(b) is float for b in est.bracket)


def test_exact_condition_number_guards_dimension(monkeypatch):
    _, mesh, _, system = case_system("ex1-const", n=32)
    with pytest.raises(ValueError, match="2000"):
        exact_condition_number(system)
    # solve checks the limit before it factorizes
    calls = []
    monkeypatch.setattr(saddle.spla, "splu",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="2000"):
        solve(system, mesh, cond="exact")
    assert calls == []


def test_condition_number_mode_dispatch():
    _, mesh, _, system = case_system("ex1-const", n=4)
    assert solve(system, mesh).cond is None
    exact = solve(system, mesh, cond="exact").cond
    assert exact == CondEstimate(exact_condition_number(system), True)
    assert exact.bracket is None and exact.iterations is None
    sol = solve(system, mesh, cond="estimate", cond_tol=1e-6)
    est = sol.cond
    assert est.converged
    assert sol.diagnostics["ordering"] == "minimum_degree"
    assert abs(est.value - exact.value) <= 0.05 * exact.value
    capped = solve(system, mesh, cond="estimate", cond_tol=1e-14,
                   cond_max_iter=1).cond
    assert not capped.converged and capped.iterations == (1, 1)
    with pytest.raises(ValueError, match="bogus"):
        solve(system, mesh, cond="bogus")


@pytest.mark.parametrize("name", [c.name for c in builtin_cases()])
def test_minimum_degree_matches_colamd(name):
    _, mesh, blocks, system = case_system(name, n=8)
    sol = solve(system, mesh)
    assert sol.diagnostics["ordering"] == "minimum_degree"
    x = np.concatenate([sol.u.coefficients, sol.z.coefficients])
    colamd = colamd_factors(system)
    ref = colamd.solve(system.rhs)[natural_index(system)]
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    n = system.n
    for got, want in ((sol.u.coefficients, ref[:n]),
                      (sol.z.coefficients, ref[n:])):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # the node order fills less than COLAMD on every case here, but more
    # than minimum degree of the natural numbering (8,356 entries against
    # 6,958 on the swirl cases, 7,566 on the others), boundedly so
    natural = minimum_degree_factors(natural_system(blocks, system)).nnz
    assert sol.diagnostics["lu_nnz"] <= 2 * natural
    assert sol.diagnostics["lu_nnz"] < colamd.nnz


@pytest.mark.parametrize("name", [c.name for c in builtin_cases()])
def test_seeded_minimum_degree_matches_natural_and_colamd(name):
    # the stored minimum degree order of the node graph against minimum
    # degree and COLAMD on the natural numbering
    _, mesh, blocks, system = case_system(name, n=8)
    sol = solve(system, mesh)
    assert sol.diagnostics["ordering"] == "minimum_degree"
    x = np.concatenate([sol.u.coefficients, sol.z.coefficients])
    ref_system = natural_system(blocks, system)
    for lu in (minimum_degree_factors(ref_system),
               colamd_factors(ref_system)):
        ref = lu.solve(ref_system.rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_seeded_condition_estimate_matches_natural_factors():
    # the start vectors are drawn in the natural numbering, so the stored
    # numbering moves the estimate only by rounding
    _, mesh, blocks, system = case_system("ex2-swirl", n=8)
    sol = solve(system, mesh, cond="estimate")
    assert sol.diagnostics["ordering"] == "minimum_degree"
    ref_system = natural_system(blocks, system)
    ref = estimate_condition_number(ref_system,
                                    minimum_degree_factors(ref_system))
    assert sol.cond.iterations == ref.iterations
    assert sol.cond.value == pytest.approx(ref.value, rel=1e-10)


def test_seeded_breakdown_falls_back_to_the_stored_matrix(monkeypatch):
    # minimum degree and then COLAMD factor the system's own arrays, in
    # the stored numbering
    _patched_pivot_free_splu(monkeypatch, pivot_free_breakdown)
    _, mesh, _, system = case_system("ex1-swirl", n=8)
    received, real = [], saddle.spla.splu

    def recording_splu(mat, *args, **kwargs):
        received.append((mat.format, mat.toarray(),
                         np.shares_memory(mat.data, system.matrix.data),
                         np.shares_memory(mat.indices,
                                          system.matrix.indices)))
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(saddle.spla, "splu", recording_splu)
    sol = solve(system, mesh)
    assert sol.diagnostics["ordering"] == "colamd"
    assert sol.diagnostics["relative_residual"] <= 1e-8
    stored = system.matrix.toarray()
    assert len(received) == 2
    for fmt, mat, shared_data, shared_indices in received:
        assert np.array_equal(mat, stored)
        assert fmt == "csc" and shared_data and shared_indices


def test_seeded_minimum_degree_fills_less_on_a_large_input():
    # against minimum degree of the natural numbering, at N=128
    _, mesh, blocks, system = case_system("ex1-swirl", n=128)
    diag = solve(system, mesh).diagnostics
    assert diag["ordering"] == "minimum_degree"
    assert diag["lu_nnz"] < minimum_degree_factors(
        natural_system(blocks, system)).nnz


@pytest.mark.parametrize("n", range(1, 10))
def test_nested_dissection_is_node_permutation(n):
    order = _nested_dissection(n)
    assert np.array_equal(np.sort(order), np.arange((n + 1) ** 2))


def test_nested_dissection_top_split_decouples_halves():
    _, mesh, _, system = case_system("ex1-swirl", n=8)
    m = mesh.cells_per_side + 1
    order = _nested_dissection(mesh.cells_per_side)
    # the top-level separator comes last: two adjacent full node lines
    sep = order[-2 * m:]
    j, i = np.divmod(sep, m)
    line, axis = (j, 1) if np.ptp(j) == 1 else (i, 0)
    assert np.ptp(line) == 1
    pos = np.divmod(np.arange(m * m), m)[1 - axis]
    low = np.flatnonzero(pos < line.min())
    high = np.flatnonzero(pos > line.max())
    assert len(low) and len(high)
    assert np.array_equal(np.sort(order[:len(low)]), low)
    assert np.array_equal(np.sort(order[len(low):-2 * m]), high)
    # fold the (u, z) blocks onto nodes: no nonzero couples the halves
    n = system.n
    back = natural_index(system)
    mat = abs(system.matrix[back][:, back]).tocsr()
    nodes = mat[:n, :n] + mat[:n, n:] + mat[n:, :n] + mat[n:, n:]
    assert nodes[low][:, high].nnz == 0
    assert nodes[low][:, sep].nnz > 0 and nodes[high][:, sep].nnz > 0


def test_minimum_degree_fills_less_than_nested_dissection():
    # the reference: nested dissection of the mesh nodes, with u and z of
    # a node side by side, factorized pivot-free in that order
    _, mesh, blocks, system = case_system("ex1-swirl", n=64)
    order = _nested_dissection(mesh.cells_per_side)
    perm = np.column_stack([order, order + system.n]).ravel()
    natural = natural_system(blocks, system).matrix
    nd = spla.splu(natural[perm][:, perm].tocsc(),
                   **PIVOT_FREE)
    diag = solve(system, mesh).diagnostics
    assert diag["ordering"] == "minimum_degree"
    assert diag["lu_nnz"] < nd.nnz


def sparse_copies_alive(system):
    """Sparse matrices of the system's shape alive now whose data are not
    the stored matrix's own."""
    gc.collect()
    return [obj for obj in gc.get_objects()
            if sp.issparse(obj) and obj.shape == system.matrix.shape
            and not np.shares_memory(obj.data, system.matrix.data)]


@pytest.mark.parametrize("breakdown", [True, False])
def test_splu_receives_the_stored_arrays(monkeypatch, breakdown):
    # at a small and a large size (N=8, N=128), the heap is trimmed once,
    # before the first factorization, each ordering tried factors the
    # system's own arrays, and no copy of the matrix is alive next to them
    if breakdown:
        _patched_pivot_free_splu(monkeypatch, pivot_free_breakdown)
    real_splu, real_trim = saddle.spla.splu, saddle._release_free_heap
    for n in (8, 128):
        _, mesh, _, system = case_system("ex1-swirl", n=n)
        received, calls = [], []

        def recording_trim():
            calls.append("trim")
            real_trim()

        def recording_splu(mat, *args, **kwargs):
            calls.append("splu")
            received.append((mat.data, mat.indices,
                             len(sparse_copies_alive(system))))
            return real_splu(mat, *args, **kwargs)

        monkeypatch.setattr(saddle, "_release_free_heap", recording_trim)
        monkeypatch.setattr(saddle.spla, "splu", recording_splu)
        sol = solve(system, mesh)
        assert calls == ["trim"] + ["splu"] * len(received)
        assert sol.diagnostics["ordering"] == ("colamd" if breakdown
                                               else "minimum_degree")
        assert len(received) == (2 if breakdown else 1)
        for data, indices, copies in received:
            assert np.shares_memory(data, system.matrix.data)
            assert np.shares_memory(indices, system.matrix.indices)
            assert copies == 0


@pytest.mark.parametrize("symmetric_pattern", [True, False])
def test_unsymmetric_system_is_refused(monkeypatch, symmetric_pattern):
    # symmetry is an invariant of the assembled system: one that breaks it
    # is never factorized, whether or not its pattern is symmetric
    rng = np.random.default_rng(5)
    mesh = build_unit_square_mesh(1)
    n = mesh.n_nodes
    mat = rng.standard_normal((2 * n, 2 * n)) + 4 * np.eye(2 * n)
    if not symmetric_pattern:
        mat[2, 5] = 0.0
    rhs = rng.standard_normal(2 * n)
    system = SaddleSystem(sp.csr_matrix(mat), rhs, n, np.arange(2 * n))
    calls = []
    monkeypatch.setattr(saddle.spla, "splu",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(NumericalFailure, match="not symmetric"):
        solve(system, mesh, cond="estimate")
    assert calls == []


def _patched_pivot_free_splu(monkeypatch, replacement):
    real = saddle.spla.splu

    def splu(mat, permc_spec=None, **kwargs):
        if permc_spec == PIVOT_FREE["permc_spec"]:
            return replacement(real, mat, permc_spec, **kwargs)
        return real(mat, **kwargs)

    monkeypatch.setattr(saddle.spla, "splu", splu)


def pivot_free_breakdown(real, mat, permc_spec, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def test_pivot_free_breakdown_falls_back_to_colamd(monkeypatch):
    _patched_pivot_free_splu(monkeypatch, pivot_free_breakdown)
    _, mesh, _, system = case_system("ex1-swirl", n=8)
    sol = solve(system, mesh)
    assert sol.diagnostics["ordering"] == "colamd"
    assert sol.diagnostics["relative_residual"] <= 1e-8


def force_pivot_free_gate_miss(monkeypatch):
    """Make every pivot-free factorization miss the solve's residual gate.

    The factors are those of 1.5 M: refinement contracts the error by 1/3
    per step only, so two steps leave the residual far above 1e-8.
    """
    def inexact(real, mat, permc_spec, **kwargs):
        return real(1.5 * mat, permc_spec=permc_spec, **kwargs)

    _patched_pivot_free_splu(monkeypatch, inexact)


def test_pivot_free_gate_miss_falls_back_to_colamd(monkeypatch):
    force_pivot_free_gate_miss(monkeypatch)
    _, mesh, _, system = case_system("ex1-swirl", n=8)
    sol = solve(system, mesh)
    assert sol.diagnostics["ordering"] == "colamd"
    assert sol.diagnostics["relative_residual"] <= 1e-8


def test_estimate_reuses_passed_factorization():
    _, mesh, blocks, system = case_system("ex2-swirl", n=8)
    own = solve(system, mesh, cond="estimate").cond
    pivot_free = factors(system)
    passed = estimate_condition_number(system, pivot_free)
    assert (passed.value, passed.iterations) == (own.value, own.iterations)
    colamd = colamd_factors(system)
    other = estimate_condition_number(system, colamd)
    # a different factorization, filling more than the pivot-free one
    # (9,836 against 8,356 entries on this small swirl mesh)
    assert pivot_free.nnz < colamd.nnz
    assert pivot_free.nnz <= 2 * minimum_degree_factors(
        natural_system(blocks, system)).nnz
    assert other.iterations == own.iterations
    assert other.value == pytest.approx(own.value, rel=1e-8)


def test_estimate_does_not_factorize(monkeypatch):
    _, _, _, system = case_system("ex2-swirl", n=8)
    lu = factors(system)
    calls = []
    monkeypatch.setattr(saddle.spla, "splu",
                        lambda *args, **kwargs: calls.append(args))
    est = estimate_condition_number(system, lu)
    assert est.converged and calls == []


@pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, 5.0, np.inf, np.nan])
def test_estimate_rejects_a_tolerance_outside_the_unit_interval(tol):
    _, _, _, system = case_system("ex1-const", n=4)
    with pytest.raises(ValueError, match="tol"):
        estimate_condition_number(system, factors(system), tol=tol)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_estimate_rejects_an_iteration_cap_below_one(max_iter):
    _, _, _, system = case_system("ex1-const", n=4)
    with pytest.raises(ValueError, match="max_iter"):
        estimate_condition_number(system, factors(system), max_iter=max_iter)


@pytest.mark.parametrize("setting", [{"cond_tol": 5}, {"cond_tol": 0.0},
                                     {"cond_max_iter": 0},
                                     {"cond_max_iter": -3}],
                         ids=["tol-5", "tol-0", "max-iter-0",
                              "max-iter-minus-3"])
def test_solve_checks_the_estimator_before_factorizing(monkeypatch, setting):
    _, mesh, _, system = case_system("ex1-const", n=4)
    calls = []
    monkeypatch.setattr(saddle.spla, "splu",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="tol|max_iter"):
        solve(system, mesh, cond="estimate", **setting)
    assert calls == []


@pytest.mark.parametrize("gate_miss", [False, True])
def test_standalone_estimate_uses_gated_factors(monkeypatch, gate_miss):
    # the estimate of solve runs on the factors that passed its residual
    # gate, so pivot-free factors that miss it are not used
    if gate_miss:
        force_pivot_free_gate_miss(monkeypatch)
    _, mesh, _, system = case_system("ex2-swirl", n=8)
    sol = solve(system, mesh, cond="estimate")
    assert sol.diagnostics["ordering"] == ("colamd" if gate_miss
                                           else "minimum_degree")
    ref = estimate_condition_number(system, colamd_factors(system))
    assert sol.cond.iterations == ref.iterations
    assert sol.cond.value == pytest.approx(ref.value, rel=1e-8)


def test_singular_matrix_on_matching_mesh_raises():
    zero = sp.csr_matrix(np.zeros((4, 4)))
    bad = build_system(zero, zero, zero, np.zeros(4), np.zeros(4))
    with pytest.raises(NumericalFailure, match="factorization failed"):
        solve(bad, build_unit_square_mesh(1))


def test_singular_ordered_system_fails_in_both_orderings(monkeypatch):
    # the pivot-free factorization in the stored order is tried first, and
    # the COLAMD fallback must fail too
    calls = []
    real = saddle.spla.splu

    def recording_splu(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real(*args, **kwargs)

    monkeypatch.setattr(saddle.spla, "splu", recording_splu)
    zero = sp.csr_matrix(np.zeros((4, 4)))
    bad = build_system(zero, zero, zero, np.zeros(4), np.zeros(4))
    with pytest.raises(NumericalFailure, match="factorization failed"):
        solve(bad, build_unit_square_mesh(1))
    assert calls == ["NATURAL", None]
