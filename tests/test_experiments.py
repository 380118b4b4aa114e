"""Benchmark definitions, noise model, rate fitting, and ladder runs."""

import csv
import io
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from ucfem.experiments import (CSV_HEADER, DEFAULT_LADDER, ConvergenceRow,
                               NoiseModel, apply_noise, builtin_cases,
                               derive_source, discretize, error_norms,
                               estimate_rate, get_case, polynomial_bump,
                               run_case, ExactSolution)
from ucfem.fem import interpolate
from ucfem.forms import assemble_all, constant_field, swirl_field
from ucfem.saddle import build_system
from ucfem.mesh import Region, UNIT_SQUARE, build_unit_square_mesh, mesh_size


def gauss_grid(n=40):
    """Tensor Gauss-Legendre rule on the unit square."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w).ravel()
    return np.column_stack([xx.ravel(), yy.ravel()]), ww


def test_bump_has_unit_l2_norm_and_vanishes_on_boundary():
    bump = polynomial_bump()
    pts, w = gauss_grid()
    assert np.isclose(w @ bump.value(pts) ** 2, 1.0, atol=1e-12)
    edge = np.linspace(0.0, 1.0, 17)
    for boundary in (np.column_stack([edge, np.zeros_like(edge)]),
                     np.column_stack([edge, np.ones_like(edge)]),
                     np.column_stack([np.zeros_like(edge), edge]),
                     np.column_stack([np.ones_like(edge), edge])):
        assert np.abs(bump.value(boundary)).max() < 1e-14


def test_bump_gradient_and_laplacian_match_finite_differences():
    bump = polynomial_bump()
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.1, 0.9, size=(40, 2))
    eps = 1e-5
    ex = np.array([eps, 0.0])
    ey = np.array([0.0, eps])
    gx = (bump.value(pts + ex) - bump.value(pts - ex)) / (2 * eps)
    gy = (bump.value(pts + ey) - bump.value(pts - ey)) / (2 * eps)
    grad = bump.gradient(pts)
    assert np.abs(grad[:, 0] - gx).max() < 1e-7
    assert np.abs(grad[:, 1] - gy).max() < 1e-7
    lap_fd = (bump.value(pts + ex) + bump.value(pts - ex)
              + bump.value(pts + ey) + bump.value(pts - ey)
              - 4 * bump.value(pts)) / eps ** 2
    assert np.abs(bump.laplacian(pts) - lap_fd).max() < 1e-4


@pytest.mark.parametrize("beta", [constant_field(1.0, 0.0), swirl_field()])
def test_derive_source_matches_operator_applied_to_exact(beta):
    bump = polynomial_bump()
    source = derive_source(bump, 2.5, beta)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.05, 0.95, size=(30, 2))
    adv = np.einsum("nd,nd->n", np.asarray(beta(pts), dtype=float),
                    bump.gradient(pts))
    expected = -2.5 * bump.laplacian(pts) + adv
    assert np.allclose(source(pts), expected, atol=1e-13)


def test_noise_respects_amplitude_support_and_seed():
    case = get_case("ex1-const")
    mesh = build_unit_square_mesh(16)
    h = mesh_size(mesh)
    data = interpolate(case.exact.value, mesh)
    omega = case.spec.omega
    inside = omega.contains(mesh.nodes)
    assert inside.any() and not inside.all()

    for law in (1.0, 0.5):
        noisy = apply_noise(data, NoiseModel(law=law, seed=3), omega)
        delta = noisy.coefficients - data.coefficients
        assert np.abs(delta[~inside]).max() == 0.0
        assert np.abs(delta[inside]).max() <= h ** law
        assert np.abs(delta[inside]).max() > 0.0
        again = apply_noise(data, NoiseModel(law=law, seed=3), omega)
        assert np.array_equal(noisy.coefficients, again.coefficients)

    a = apply_noise(data, NoiseModel(law=1.0, seed=3), omega)
    b = apply_noise(data, NoiseModel(law=1.0, seed=4), omega)
    assert not np.array_equal(a.coefficients, b.coefficients)


def test_noise_draws_differ_across_meshes_with_same_seed():
    case = get_case("ex1-const")
    noise = NoiseModel(law=1.0, seed=0)
    deltas = []
    for n in (16, 32):
        mesh = build_unit_square_mesh(n)
        data = interpolate(case.exact.value, mesh)
        noisy = apply_noise(data, noise, case.spec.omega)
        deltas.append(noisy.coefficients - data.coefficients)
    inside16 = case.spec.omega.contains(build_unit_square_mesh(16).nodes)
    # same nodes exist on both meshes, but draws are independent per mesh
    assert deltas[0].shape != deltas[1].shape
    assert np.abs(deltas[0]).max() > 0 and np.abs(deltas[1]).max() > 0


def test_builtin_case_registry():
    cases = builtin_cases()
    names = [c.name for c in cases]
    assert names == ["ex1-const", "ex1-swirl", "ex2-const", "ex2-swirl",
                     "ex3-const", "ex3-swirl", "ex1-const-noise-h",
                     "ex1-const-noise-sqrt"]
    for case in cases:
        assert case.spec.mu == 1.0
        assert case.spec.gamma == 1e-5
        assert case.spec.gamma_star == 1.0
        assert case.spec.boundary_factor == 50.0
        assert case.ladder == DEFAULT_LADDER == (8, 16, 32, 64, 128)
        assert case.spec.beta_sup in (1.0, 200.0)
    assert get_case("ex1-const-noise-h").noise.law == 1.0
    assert get_case("ex1-const-noise-sqrt").noise.law == 0.5
    with pytest.raises(KeyError):
        get_case("not-a-case")


def test_case_geometries_have_expected_areas():
    ex1 = get_case("ex1-const").spec
    assert ex1.omega.area == pytest.approx(0.25 * 0.25)
    assert ex1.target.area == pytest.approx(0.25 * 0.25)
    ex2 = get_case("ex2-const").spec
    assert ex2.omega.area == pytest.approx(2 * 0.125 * 0.2)
    assert ex2.target.area == pytest.approx(0.5 * 0.2)
    ex3 = get_case("ex3-const").spec
    assert ex3.omega.area == pytest.approx(1.0 - 0.875 * 0.75)
    assert ex3.target.area == pytest.approx(1.0 - 0.125 * 0.75)
    # measurement and evaluation regions are disjoint in the first pair
    rng = np.random.default_rng(9)
    pts = rng.uniform(size=(2000, 2))
    both = ex1.omega.contains(pts) & ex1.target.contains(pts)
    assert not both.any()


def test_estimate_rate_recovers_exact_power_laws():
    hs = [1.0 / (n + 1) for n in (8, 16, 32, 64)]
    for p in (0.5, 1.0, 2.0):
        fit = estimate_rate([(h, 3.7 * h ** p) for h in hs])
        assert fit.slope == pytest.approx(p, abs=1e-12)
        assert len(fit.per_step) == 3
        assert all(s == pytest.approx(p, abs=1e-12) for s in fit.per_step)
    with pytest.raises(ValueError):
        estimate_rate([(0.1, 1.0)])
    with pytest.raises(ValueError):
        estimate_rate([(0.1, 1.0), (0.05, 0.0)])


def test_estimate_rate_rejects_a_repeated_h():
    # two points at one h leave the slope undetermined and a per-step
    # slope of 0/0
    with pytest.raises(ValueError, match="distinct h"):
        estimate_rate([(0.1, 1.0), (0.1, 2.0)])
    with pytest.raises(ValueError, match="distinct h"):
        estimate_rate([(0.2, 3.0), (0.1, 1.0), (0.2, 3.0)])


def test_error_norms_affine_oracle():
    mesh = build_unit_square_mesh(12)
    affine = ExactSolution(
        value=lambda p: np.atleast_2d(p)[:, 0],
        gradient=lambda p: np.broadcast_to(
            np.array([1.0, 0.0]), (len(np.atleast_2d(p)), 2)),
        laplacian=lambda p: np.zeros(len(np.atleast_2d(p))))
    fe = interpolate(affine.value, mesh)
    err_l2, err_h1, ref_l2, ref_h1 = error_norms(affine, fe, UNIT_SQUARE)
    assert err_l2 < 1e-14 and err_h1 < 1e-13
    assert ref_l2 == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-12)
    assert ref_h1 == pytest.approx(np.sqrt(1.0 / 3.0 + 1.0), abs=1e-12)
    # restriction to an aligned half square halves the squared norms
    half = Region([(0.0, 0.5, 0.0, 1.0)])
    _, _, ref_l2_half, _ = error_norms(affine, fe, half)
    assert ref_l2_half == pytest.approx(np.sqrt(1.0 / 24.0), abs=1e-12)


def test_error_norms_of_fe_function_on_subregion():
    # against a zero exact solution the error norms are those of fe itself
    zero = ExactSolution(
        value=lambda p: np.zeros(len(np.atleast_2d(p))),
        gradient=lambda p: np.zeros((len(np.atleast_2d(p)), 2)),
        laplacian=lambda p: np.zeros(len(np.atleast_2d(p))))
    mesh = build_unit_square_mesh(64)
    fh = interpolate(lambda p: p[:, 0], mesh)
    box = Region([(0.0, 0.5, 0.0, 1.0)])
    l2, h1, ref_l2, ref_h1 = error_norms(zero, fh, box)
    # integral of x^2 over [0,.5]x[0,1] = 1/24; gradient (1,0) on area 1/2
    assert np.isclose(l2, np.sqrt(1.0 / 24.0), atol=1e-12)
    assert np.isclose(h1, np.sqrt(1.0 / 24.0 + 0.5), atol=1e-12)
    assert ref_l2 == ref_h1 == 0.0


def test_error_norms_warn_when_the_region_holds_no_quadrature_point():
    # as assemble_all warns for omega; the norms over it are all 0
    case = get_case("ex1-const")
    fe = interpolate(case.exact.value, build_unit_square_mesh(4))
    speck = Region([(0.5, 0.5001, 0.5, 0.5001)])
    with pytest.warns(UserWarning, match="^evaluation region contains no "
                                         "quadrature point; error norms are "
                                         "zero at N=4$"):
        norms = error_norms(case.exact, fe, speck)
    assert norms == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("name", ["ex1-swirl", "ex1-const-noise-sqrt"])
def test_discretize_matches_the_pipeline_written_out(name):
    case = get_case(name)
    mesh, blocks, system = discretize(case, 8)
    assert mesh.cells_per_side == 8
    data = interpolate(case.exact.value, mesh)
    if case.noise is not None:
        data = apply_noise(data, case.noise, case.spec.omega)
    ref = assemble_all(case.spec, mesh)
    ref_system = build_system(ref.pde, ref.primal, ref.dual,
                              ref.data_mass @ data.coefficients, ref.b_source)
    assert np.array_equal(system.rhs, ref_system.rhs)
    assert (system.matrix != ref_system.matrix).nnz == 0
    assert (blocks.data_mass != ref.data_mass).nnz == 0


def test_noisy_variants_share_the_matrix_and_differ_in_the_data_load():
    # the data enter only the right-hand side, as data_mass @ c
    systems, loads = [], []
    for name in ("ex1-const", "ex1-const-noise-h", "ex1-const-noise-sqrt"):
        case = get_case(name)
        mesh, blocks, system = discretize(case, 16)
        data = interpolate(case.exact.value, mesh)
        if case.noise is not None:
            data = apply_noise(data, case.noise, case.spec.omega)
        # the natural (u, z) right-hand side, read through the numbering
        rhs = np.empty_like(system.rhs)
        rhs[system.order] = system.rhs
        assert np.array_equal(rhs[:system.n],
                              blocks.data_mass @ data.coefficients)
        systems.append(system)
        loads.append(rhs[:system.n])
    for other in systems[1:]:
        assert np.array_equal(other.order, systems[0].order)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(other.matrix, part),
                                  getattr(systems[0].matrix, part))
    assert not np.array_equal(loads[1], loads[0])
    assert not np.array_equal(loads[2], loads[1])


def test_run_case_argument_validation():
    case = get_case("ex1-const")
    with pytest.raises(ValueError):
        run_case(case, projection="h1")


@pytest.mark.parametrize("settings, message", [
    (dict(cond="sometimes"), "unknown cond mode 'sometimes'"),
    (dict(cond="estimate", cond_tol=5), "tol must lie in (0, 1), got 5"),
    (dict(cond_max_iter=0), "max_iter must be an integer >= 1, got 0"),
    # N = 64 gives dimension 2 * 65**2 = 8450
    (dict(cond="exact", ladder=(8, 64)),
     "dense SVD guarded to dimension 2000, got 8450"),
    # the ladders that --ladder refuses
    (dict(ladder=()), "bad ladder ()"),
    (dict(ladder=(8, 0, 16)), "bad ladder (8, 0, 16)"),
    (dict(ladder=(8, 8)), "ladder (8, 8) repeats an N"),
    # N must be an integer: 4.5 would mesh 4 cells, True one
    (dict(ladder=(4.5, 8)), "bad ladder (4.5, 8)"),
    (dict(ladder=(True, 4)), "bad ladder (True, 4)"),
    (dict(ladder=("8", 16)), "bad ladder ('8', 16)"),
], ids=["unknown-cond", "tol", "cap", "exact-beyond-dense-limit",
        "empty-ladder", "ladder-below-one", "ladder-repeats-n",
        "ladder-float", "ladder-bool", "ladder-string"])
def test_bad_cond_setting_is_refused_before_any_work(monkeypatch, settings,
                                                     message):
    # the case refuses what solve or --ladder would, with solve's message
    # for a cond setting, before the first rung is meshed
    import ucfem.experiments as experiments
    meshed = []
    real = experiments.build_unit_square_mesh
    monkeypatch.setattr(experiments, "build_unit_square_mesh",
                        lambda n: meshed.append(n) or real(n))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_case(replace(get_case("ex1-const"), **settings))
    assert len(meshed) == 0


def test_numpy_integer_ladder_entries_are_integers():
    case = replace(get_case("ex1-const"), ladder=(np.int64(4), np.int32(8)))
    assert [row.N for row in run_case(case).rows] == [4, 8]


def recorded_solutions(monkeypatch):
    """The (N, Solution) of every solve that run_case makes, in order."""
    import ucfem.experiments as experiments
    real, seen = experiments.solve, []

    def recording_solve(system, mesh, *args, **kwargs):
        sol = real(system, mesh, *args, **kwargs)
        seen.append((mesh.cells_per_side, sol))
        return sol

    monkeypatch.setattr(experiments, "solve", recording_solve)
    return seen


def test_run_case_short_ladder_basics(monkeypatch):
    case = get_case("ex1-const")
    solved = recorded_solutions(monkeypatch)
    table = run_case(replace(case, ladder=(8, 16), cond="exact"))
    assert [n for n, _ in solved] == [8, 16]
    assert [r.N for r in table.rows] == [8, 16]
    assert table.rows[0].h == pytest.approx(1.0 / 9.0)
    assert table.rows[1].err_l2_B < table.rows[0].err_l2_B
    for row in table.rows:
        assert row.err_l2_B > 0 and row.err_h1_B > 0
        assert row.s_norm > 0 and row.sstar_norm > 0
        assert row.cond > 1.0
        assert row.peclet == pytest.approx(case.spec.beta_sup * row.h)
    assert set(table.rates) == {"err_l2_B", "err_h1_B", "s_norm",
                                "sstar_norm", "cond"}
    rd = table.rates_dict()
    assert isinstance(rd["err_l2_B"]["slope"], float)
    assert len(rd["err_l2_B"]["per_step"]) == 1


def test_run_case_noisy_is_deterministic():
    case = get_case("ex1-const-noise-sqrt")
    t1 = run_case(replace(case, ladder=(8,)))
    t2 = run_case(replace(case, ladder=(8,)))
    r1, r2 = t1.rows[0], t2.rows[0]
    assert (r1.err_l2_B, r1.err_h1_B, r1.s_norm, r1.sstar_norm) == \
        (r2.err_l2_B, r2.err_h1_B, r2.s_norm, r2.sstar_norm)


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text, newline="")))


def test_convergence_table_csv_format():
    case = get_case("ex1-const")
    table = run_case(replace(case, ladder=(8, 16)))
    text = table.to_csv_string()
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert "np.float64" not in text
    first = csv_rows(text)[0]
    assert int(first["N"]) == 8
    assert float(first["h"]) == pytest.approx(1.0 / 9.0)
    # cond and cond_converged stay empty when not requested
    assert [first["cond"], first["cond_converged"]] == ["", ""]


def test_csv_columns_are_the_row_fields_and_floats_round_trip():
    assert CSV_HEADER == tuple(f.name for f in fields(ConvergenceRow))
    assert CSV_HEADER[-1] == "peclet"
    table = run_case(replace(get_case("ex1-const"), ladder=(4, 8),
                             cond="estimate"))
    written = csv_rows(table.to_csv_string())
    assert len(written) == len(table.rows)
    for row, cells in zip(table.rows, written):
        assert list(cells) == list(CSV_HEADER)
        for name in CSV_HEADER:
            value = getattr(row, name)
            if isinstance(value, float):  # numpy's float64 included
                assert float(cells[name]) == value, name
            else:
                assert cells[name] == str(value), name


def test_unconverged_estimate_is_marked_in_row_and_csv():
    table = run_case(replace(get_case("ex1-swirl"), ladder=(4,),
                             cond="estimate", cond_max_iter=3))
    assert table.rows[0].cond_converged is False
    assert csv_rows(table.to_csv_string())[0]["cond_converged"] == "False"


def test_run_case_estimate_reuses_the_solve_factorization(monkeypatch):
    import ucfem.saddle as saddle
    real, calls = saddle.spla.splu, []

    def counting_splu(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real(*args, **kwargs)

    monkeypatch.setattr(saddle.spla, "splu", counting_splu)
    solved = recorded_solutions(monkeypatch)
    case = get_case("ex2-swirl")
    table = run_case(replace(case, ladder=(8,), cond="estimate"))
    solutions = [sol for _, sol in solved]
    assert calls == ["NATURAL"]
    assert solutions[0].diagnostics["ordering"] == "minimum_degree"
    assert table.rows[0].cond == solutions[0].cond.value
    exact = run_case(replace(case, ladder=(8,), cond="exact")).rows[0].cond
    assert table.rows[0].cond == pytest.approx(exact, rel=0.05)


def test_rung_factorizes_with_a_small_live_set(monkeypatch):
    # At the sparse LU call of a run_case rung, the Python heap holds the
    # one saddle matrix SuperLU reads and the node geometry (about 1.3x
    # the matrix's bytes at N=64): no second layout of it, no assembled
    # block, no array derived from the mesh (edge connectivity, hat
    # gradients, quadrature points, COO indices) and nothing of the
    # previous rung.  The comparison function is computed after the
    # solve.  Keeping the primal and dual blocks and the connectivity
    # reads 2.5x, and keeping every block and derived array alive 4.1x.
    import tracemalloc
    import weakref

    import ucfem.experiments as experiments
    import ucfem.saddle as saddle

    meshes, calls = [], []
    real_mesh, real_splu = experiments.build_unit_square_mesh, saddle.spla.splu

    def recording_mesh(n):
        mesh = real_mesh(n)
        meshes.append(weakref.ref(mesh))
        return mesh

    def measuring_splu(mat, *args, **kwargs):
        live = tracemalloc.get_traced_memory()[0] - base
        size = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        calls.append((live / size, [ref() is None for ref in meshes],
                      set(vars(meshes[-1]()))))
        return real_splu(mat, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_unit_square_mesh", recording_mesh)
    monkeypatch.setattr(saddle.spla, "splu", measuring_splu)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        run_case(replace(get_case("ex1-swirl"), ladder=(32, 64)))
    finally:
        if started:
            tracemalloc.stop()
    for _, _, attributes in calls:
        assert attributes == {"cells_per_side", "nodes", "triangles",
                               "tri_areas"}
    _, (ratio, dead, _) = calls
    assert dead == [True, False]
    assert ratio < 1.6
