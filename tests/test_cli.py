"""Command-line interface: exit codes, file outputs, determinism."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from ucfem import __version__
from ucfem.cli import main
from ucfem.experiments import get_case, run_case
from ucfem.stability import ThreeBallConfig, probe_fem_solution


def test_mesh_info_outputs(tmp_path, capsys):
    assert main(["mesh-info", "8", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert summary["nodes"] == 81
    assert summary["triangles"] == 128
    assert summary["h"] == pytest.approx(1.0 / 9.0)
    assert (tmp_path / "mesh.json").read_text().strip() == out.strip()


def test_mesh_info_rejects_zero_cells():
    with pytest.raises(SystemExit) as exc:
        main(["mesh-info", "0"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_malformed_config_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    code = main(["convergence", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"


def test_unknown_case_exits_two(tmp_path, capsys):
    code = main(["convergence", "--case", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown case" in capsys.readouterr().err
    out = tmp_path / "probe"
    assert main(["probe", "fem", "--case", "nope", "--out", str(out)]) == 2
    assert "unknown case" in capsys.readouterr().err
    assert not out.exists()  # rejected before config.json was written


def test_failed_mass_solve_exits_three(tmp_path, capsys, monkeypatch):
    # both paths of the comparison function's mass solve miss their gate
    import ucfem.fem as fem

    monkeypatch.setattr(fem.spla, "cg",
                        lambda a, b, **kw: (np.zeros_like(b), 0))
    monkeypatch.setattr(fem.spla, "spsolve", lambda a, b: np.zeros_like(b))
    code = main(["convergence", "--ladder", "4", "--out", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "numerical"
    assert "mass solve residual" in err["detail"]


def test_solve_writes_outputs_and_is_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["solve", "--case", "ex1-const", "--ladder", "8",
                     "--out", str(d)]) == 0
    captured = capsys.readouterr()
    assert "N=8" in captured.out
    assert "factor" in captured.err and "factor" not in captured.out
    for name in ("u_N8.csv", "z_N8.csv", "diagnostics_N8.json",
                 "config.json"):
        assert (d1 / name).exists()
    assert (d1 / "u_N8.csv").read_bytes() == (d2 / "u_N8.csv").read_bytes()
    assert (d1 / "z_N8.csv").read_bytes() == (d2 / "z_N8.csv").read_bytes()
    diag = json.loads((d1 / "diagnostics_N8.json").read_text())
    assert not any(k.endswith("_seconds") for k in diag)
    assert diag["relative_residual"] <= 1e-8
    assert diag["ordering"] == "minimum_degree" and diag["lu_nnz"] > 0
    assert "np.float64" not in (d1 / "u_N8.csv").read_text()


def test_solve_with_noise_is_seed_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["solve", "--case", "ex1-const", "--ladder", "8",
                     "--noise", "h", "--seed", "5", "--out", str(d)]) == 0
    assert (d1 / "u_N8.csv").read_bytes() == (d2 / "u_N8.csv").read_bytes()
    d3 = tmp_path / "c"
    assert main(["solve", "--case", "ex1-const", "--ladder", "8",
                 "--noise", "h", "--seed", "6", "--out", str(d3)]) == 0
    assert (d1 / "u_N8.csv").read_bytes() != (d3 / "u_N8.csv").read_bytes()


def test_convergence_outputs(tmp_path, capsys):
    assert main(["convergence", "--case", "ex1-const", "--ladder", "8,16",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    csv_text = (tmp_path / "convergence.csv").read_text()
    assert csv_text.splitlines()[0] == \
        "N,h,err_l2_B,err_h1_B,s_norm,sstar_norm,cond,cond_converged,peclet"
    assert "np.float64" not in csv_text
    assert "rate[err_l2_B]" in out
    rates = json.loads((tmp_path / "rates.json").read_text())
    assert set(rates) >= {"err_l2_B", "err_h1_B", "s_norm", "sstar_norm"}
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["case"] == "ex1-const"
    assert config["ladder"] == [8, 16]
    assert config["version"] == __version__


def test_condnum_estimate_cap_reports_bracket(tmp_path, capsys):
    assert main(["condnum", "--case", "ex1-const", "--ladder", "8",
                 "--cond", "estimate", "--cond-tol", "1e-14",
                 "--cond-cap", "1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cap hit" in out and "bracket" in out
    assert "np.float64" not in out
    summary = json.loads((tmp_path / "condition.json").read_text())
    row = summary["rows"][0]
    assert row["converged"] is False
    assert row["bracket"][0] <= row["cond"] <= row["bracket"][1]


def test_convergence_csv_is_run_case_of_the_resolved_case(tmp_path):
    # --ladder and --boundary-factor fold into the case, which run_case reads
    assert main(["convergence", "--case", "ex1-swirl", "--ladder", "8",
                 "--boundary-factor", "1.0", "--out", str(tmp_path)]) == 0
    written = (tmp_path / "convergence.csv").read_bytes()
    case = replace(get_case("ex1-swirl"), ladder=(8,))
    folded = run_case(replace(case, spec=replace(
        case.spec, boundary_factor=1.0))).to_csv_string()
    assert written == folded.encode()
    assert run_case(case).to_csv_string() != folded


@pytest.mark.parametrize("argv, expected", [
    (["condnum", "--ladder", "4", "--cond-tol", "1e-6", "--cond-cap", "7"],
     ("estimate", 1e-6, 7)),
    (["solve", "--ladder", "4", "--cond", "exact"], ("exact", 1e-3, 5000)),
    (["convergence", "--ladder", "4", "--cond", "estimate"],
     ("estimate", 1e-3, 5000)),
    (["probe", "fem", "--ladder", "4"], ("none", 1e-3, 5000)),
], ids=["condnum", "solve", "convergence", "probe-fem"])
def test_cond_settings_reach_solve_through_the_case(tmp_path, monkeypatch,
                                                    argv, expected):
    # --cond, --cond-tol and --cond-cap fold into the case; run_ladder
    # hands them to solve on every rung
    import inspect

    import ucfem.experiments as experiments
    real, seen = experiments.solve, []

    def recording_solve(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(tuple(bound.arguments[name] for name in
                          ("cond", "cond_tol", "cond_max_iter")))
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve", recording_solve)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert seen == [expected]


def test_condnum_exact_ladder_with_slope(tmp_path, capsys):
    assert main(["condnum", "--case", "ex1-const", "--ladder", "4,8",
                 "--cond", "exact", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "slope =" in out
    csv_lines = (tmp_path / "condition.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "N,h,cond,cond_converged"
    assert len(csv_lines) == 3
    summary = json.loads((tmp_path / "condition.json").read_text())
    assert summary["slope"] < 0  # conditioning degrades under refinement
    assert len(summary["per_step"]) == 1


def test_condnum_csv_carries_the_estimator_flag(tmp_path):
    assert main(["condnum", "--case", "ex1-swirl", "--ladder", "4,8",
                 "--cond-cap", "3", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "condition.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["cond_converged"] for r in rows] == ["False", "False"]
    summary = json.loads((tmp_path / "condition.json").read_text())
    assert [float(r["cond"]) for r in rows] == \
        [r["cond"] for r in summary["rows"]]


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_that_is_no_directory_exits_two(tmp_path, capsys, sub):
    # an existing regular file, or a path under one
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["solve", "--ladder", "4", "--out", str(afile / sub)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and str(afile) in err["detail"]


def test_probe_kappa(tmp_path, capsys):
    assert main(["probe", "kappa", "--radii", "0.1", "0.2", "0.4",
                 "--c3", "1.0", "--out", str(tmp_path)]) == 0
    assert "kappa = 0.5" in capsys.readouterr().out
    payload = json.loads((tmp_path / "probe_kappa.json").read_text())
    assert payload["kappa"] == pytest.approx(0.5)


def test_probe_audit_small_sample(tmp_path, capsys):
    assert main(["probe", "audit", "--samples", "200", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "probe_audit.json").read_text())
    assert report["violations"] == 0
    assert report["samples"] == 200


def test_probe_harmonic_csv(tmp_path, capsys):
    assert main(["probe", "harmonic", "--kmax", "4",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "probe_harmonic.csv").read_text().strip().splitlines()
    assert lines[0] == "k,ratio"
    assert len(lines) == 5
    assert "max ratio" in capsys.readouterr().out


def test_probe_fem_ladder(tmp_path, capsys):
    assert main(["probe", "fem", "--case", "ex1-const", "--ladder", "8",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "probe_fem.csv").read_text().strip().splitlines()
    assert lines[0] == "N,ratio"
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) > 0


def test_probe_fem_non_finite_center_exits_two(tmp_path, capsys):
    # NaN compares False, so it would pass the disc-in-square check
    assert main(["probe", "fem", "--ladder", "4", "--center", "nan", "nan",
                 "--resolution", "8", "8", "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "finite" in err["detail"]
    assert not list(tmp_path.glob("probe_*"))


def test_probe_fem_seed_seeds_the_case_noise(tmp_path):
    def ratio(seed):
        out = tmp_path / f"s{seed}"
        assert main(["probe", "fem", "--case", "ex1-const-noise-h",
                     "--ladder", "8", "--seed", str(seed),
                     "--out", str(out)]) == 0
        return (out / "probe_fem.csv").read_text().splitlines()[1]

    assert ratio(1) != ratio(5)
    # seed 0 is the built-in case's own noise seed
    config = ThreeBallConfig((0.5, 0.5), (0.1, 0.2, 0.4), 0.5)
    case = replace(get_case("ex1-const-noise-h"), ladder=(8,))
    [(n_cells, value)] = probe_fem_solution(case, config)
    assert ratio(0) == f"{n_cells},{value!r}"


def test_config_file_supplies_defaults_and_inline_problem(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "ladder": [8],
        "problem": {
            "beta": {"kind": "const", "value": [1.0, 0.5]},
            "omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]},
            "beta_sup": 1.5,
        },
    }))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "u_N8.csv").exists()
    config = json.loads((out / "config.json").read_text())
    assert config["ladder"] == [8]


def _run_with_config(tmp_path, argv, config, joined=False):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    flag = [f"--config={cfg}"] if joined else ["--config", str(cfg)]
    return main([*argv, *flag, "--out", str(tmp_path / "run")])


def _assert_config_error(tmp_path, capsys):
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not list(tmp_path.glob("**/u_N*.csv"))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("ladder", [8, 8.0, True, {"n": 8}, [8, "x"], [8.5],
                                    []])
def test_config_ladder_must_be_a_list_or_string(tmp_path, capsys, ladder):
    assert _run_with_config(tmp_path, ["solve"], {"ladder": ladder}) == 2
    _assert_config_error(tmp_path, capsys)


@pytest.mark.parametrize("config", [
    {"cond": "sometimes"}, {"seed": "4x"}, {"noise": "loud"},
    {"seed": 2.5}, {"seed": True}, {"boundary_factor": None},
    {"case": ["ex1-const"]},
])
def test_config_values_pass_the_flag_type_and_choices(tmp_path, capsys,
                                                      config):
    assert _run_with_config(tmp_path, ["solve", "--ladder", "4"],
                            config) == 2
    _assert_config_error(tmp_path, capsys)


@pytest.mark.parametrize("argv, config", [
    (["condnum", "--ladder", "4"], {"cond_tool": 1e-9}),
    (["solve", "--ladder", "4"], {"cond_tol": 1e-9}),
    (["solve", "--ladder", "4"], {"version": "0"}),
], ids=["misspelt", "other-command", "not-an-option"])
def test_config_keys_must_be_options_of_the_command(tmp_path, capsys, argv,
                                                    config):
    assert _run_with_config(tmp_path, argv, config) == 2
    _assert_config_error(tmp_path, capsys)


@pytest.mark.parametrize("joined", [False, True],
                         ids=["separate", "joined"])
def test_config_values_are_typed_and_flags_still_win(tmp_path, joined):
    out = tmp_path / "run"
    config = {"cond_tol": 0.25, "cond-cap": 7, "seed": "3",
              "ladder": "4,8"}
    assert _run_with_config(tmp_path, ["condnum", "--ladder", "4"],
                            config, joined) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["cond_tol"] == 0.25 and echoed["cond_cap"] == 7
    assert echoed["seed"] == 3 and echoed["ladder"] == [4]
    radii = [0.1, 0.2, 0.4]
    assert _run_with_config(tmp_path, ["probe", "kappa"],
                            {"radii": radii, "c3": 2}, joined) == 0
    kappa = json.loads((out / "probe_kappa.json").read_text())
    assert kappa["radii"] == radii and kappa["c3"] == 2.0


SWIRL_PROBLEM = {"beta": {"kind": "swirl", "scale": 10.0},
                 "omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]}}


@pytest.mark.parametrize("key, value", [
    ("omega", [1, 2]),
    ("beta", {"kind": "swirl", "scale": "big"}),
    ("omega", {"boxes": []}),
    ("omega", {"boxes": [[2, 3, 2, 3]]}),
    ("beta_sup", -5),
])
def test_bad_inline_problem_exits_two(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {**SWIRL_PROBLEM, key: value}}))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--ladder", "4",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not list(tmp_path.glob("**/u_N*.csv"))


@pytest.mark.parametrize("key, value", [
    ("beta", {"kind": "swirl", "scale": float("nan")}),
    ("beta", {"kind": "const", "value": [float("inf"), 0]}),
    ("omega", {"boxes": [[0.2, float("nan"), 0.2, 0.45]]}),
], ids=["swirl-scale-nan", "const-value-inf", "omega-box-nan"])
def test_non_finite_inline_problem_exits_two(tmp_path, capsys, key, value):
    # NaN and Infinity are read from the JSON file as floats
    assert _run_with_config(tmp_path, ["solve", "--ladder", "4"],
                            {"problem": {**SWIRL_PROBLEM, key: value}}) == 2
    _assert_config_error(tmp_path, capsys)


@pytest.mark.parametrize("key, value", [
    ("mu", True), ("gamma", True), ("boundary_factor", True),
    ("beta_sup", True),
    ("beta", {"kind": "const", "value": [True, 0]}),
    ("beta", {"kind": "swirl", "scale": True}),
    ("omega", {"boxes": [[0.2, 0.45, 0.2, True]]}),
    ("target", {"boxes": [[False, 1, 0, 1]]}),
], ids=["mu", "gamma", "boundary-factor", "beta-sup", "const-value",
        "swirl-scale", "omega-box", "target-box"])
def test_inline_problem_booleans_are_not_numbers(tmp_path, capsys, key,
                                                 value):
    # JSON's true and false would otherwise be read as 1.0 and 0.0
    assert _run_with_config(tmp_path, ["solve", "--ladder", "4"],
                            {"problem": {**SWIRL_PROBLEM, key: value}}) == 2
    _assert_config_error(tmp_path, capsys)


def test_probe_rejects_an_inline_problem(tmp_path, capsys):
    assert _run_with_config(tmp_path, ["probe", "fem", "--ladder", "4"],
                            {"problem": SWIRL_PROBLEM}) == 2
    _assert_config_error(tmp_path, capsys)


def test_projection_is_an_option_of_convergence_only(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--projection", "nodal", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, option, value", [
    ("solve", "quad-degree", "2"), ("convergence", "quad-degree", "4"),
    ("condnum", "quad-degree", "2"), ("convergence", "h1", "semi"),
])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_removed_quadrature_and_h1_options_exit_two(tmp_path, capsys, command,
                                                    option, value, how):
    # every integral uses the one degree-4 rule and H1 is the full norm
    out = tmp_path / "run"
    if how == "flag":
        with pytest.raises(SystemExit) as exc:
            main([command, "--ladder", "4", f"--{option}", value,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{option}" in capsys.readouterr().err
    else:
        assert _run_with_config(tmp_path, [command, "--ladder", "4"],
                                {option: value}) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "config",
                       "detail": f"config key {option!r} is not an option "
                                 f"of {command!r}"}
    assert not out.exists()  # rejected before anything was written


# the relative errors are 0 / 0, which numpy reports as well
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_target_with_no_quadrature_point_warns(tmp_path):
    # a target narrower than the quadrature spacing: the warning says why
    problem = {"omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]},
               "target": {"boxes": [[0.5, 0.5001, 0.5, 0.5001]]}}
    with pytest.warns(UserWarning, match="evaluation region contains no "
                                         "quadrature point"):
        assert _run_with_config(tmp_path, ["convergence", "--ladder", "4,8"],
                                {"problem": problem}) == 0


def test_declared_beta_sup_below_the_sampled_one_warns(tmp_path):
    # the swirl of scale 10 reaches |beta| near 20 at the quadrature points
    problem = {**SWIRL_PROBLEM, "beta_sup": 1.0}
    with pytest.warns(UserWarning, match="declared beta_sup 1.0 is below"):
        assert _run_with_config(tmp_path, ["solve", "--ladder", "4"],
                                {"problem": problem}) == 0
    assert (tmp_path / "run" / "u_N4.csv").exists()


def test_boundary_factor_override_changes_solution(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--case", "ex1-const", "--ladder", "8",
                 "--out", str(d1)]) == 0
    assert main(["solve", "--case", "ex1-const", "--ladder", "8",
                 "--boundary-factor", "1.0", "--out", str(d2)]) == 0
    assert (d1 / "u_N8.csv").read_bytes() != (d2 / "u_N8.csv").read_bytes()
    with pytest.raises(SystemExit):
        main(["solve", "--boundary-factor", "abc"])


def test_solve_cond_estimate_factorizes_once_per_rung(tmp_path, monkeypatch):
    calls = _count_splu(monkeypatch)
    assert main(["solve", "--case", "ex2-swirl", "--ladder", "4,8",
                 "--cond", "estimate", "--out", str(tmp_path)]) == 0
    assert calls == ["NATURAL", "NATURAL"]
    diag = json.loads((tmp_path / "diagnostics_N8.json").read_text())
    assert diag["cond"] > 1.0 and diag["ordering"] == "minimum_degree"
    # what the estimator did: its flag and its (sigma_max, sigma_min) steps
    assert diag["cond_converged"] is True
    assert len(diag["cond_iterations"]) == 2
    assert all(isinstance(it, int) and it >= 1
               for it in diag["cond_iterations"])


def _count_splu(monkeypatch):
    """Record the ordering of every sparse LU the program computes."""
    import ucfem.saddle as saddle
    real, calls = saddle.spla.splu, []

    def counting_splu(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real(*args, **kwargs)

    monkeypatch.setattr(saddle.spla, "splu", counting_splu)
    return calls


def test_condnum_estimate_factorizes_once_per_rung(tmp_path, monkeypatch):
    calls = _count_splu(monkeypatch)
    assert main(["condnum", "--case", "ex1-const-noise-h", "--ladder", "4,8",
                 "--cond", "estimate", "--out", str(tmp_path)]) == 0
    assert calls == ["NATURAL", "NATURAL"]
    summary = json.loads((tmp_path / "condition.json").read_text())
    assert all(row["converged"] for row in summary["rows"])


def test_condnum_gate_miss_estimates_on_colamd(tmp_path, monkeypatch):
    import ucfem.saddle as saddle
    from test_saddle import force_pivot_free_gate_miss

    clean = tmp_path / "clean"
    assert main(["condnum", "--case", "ex1-swirl", "--ladder", "8",
                 "--out", str(clean)]) == 0
    force_pivot_free_gate_miss(monkeypatch)
    patched_splu, made, received = saddle.spla.splu, [], []

    def recording_splu(*args, **kwargs):
        made.append((kwargs.get("permc_spec"), patched_splu(*args, **kwargs)))
        return made[-1][1]

    real_estimate = saddle.estimate_condition_number

    def recording_estimate(system, lu, **kwargs):
        received.append(lu)
        return real_estimate(system, lu, **kwargs)

    monkeypatch.setattr(saddle.spla, "splu", recording_splu)
    monkeypatch.setattr(saddle, "estimate_condition_number",
                        recording_estimate)
    missed = tmp_path / "missed"
    assert main(["condnum", "--case", "ex1-swirl", "--ladder", "8",
                 "--out", str(missed)]) == 0
    assert [spec for spec, _ in made] == ["NATURAL", None]
    assert len(received) == 1 and received[0] is made[-1][1]
    cond = [json.loads((d / "condition.json").read_text())["rows"][0]["cond"]
            for d in (clean, missed)]
    assert cond[1] == pytest.approx(cond[0], rel=1e-6)


@pytest.mark.parametrize("command", ["solve", "convergence", "condnum"])
def test_cond_exact_rejects_rungs_beyond_the_dense_limit(tmp_path, capsys,
                                                         command):
    # N = 30 gives dimension 1922 <= 2000, N = 31 gives 2048
    code = main([command, "--case", "ex1-const", "--ladder", "4,31",
                 "--cond", "exact", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "got 2048" in err["detail"]
    assert not any(tmp_path.iterdir())  # rejected before any rung ran


def test_cond_exact_obeys_the_solver_dense_limit(tmp_path, capsys,
                                                 monkeypatch):
    # the CLI keeps no limit of its own: with the solver's lowered, the
    # N = 8 rung (dimension 162) is refused before config.json is written
    import ucfem.saddle as saddle
    monkeypatch.setattr(saddle, "DENSE_SVD_MAX_DIM", 100)
    out = tmp_path / "run"
    assert main(["solve", "--ladder", "8", "--cond", "exact",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "got 162" in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["kappa", "--c3", "0"],
    ["kappa", "--radii", "0.3", "0.2", "0.1"],
    ["fem", "--radii", "0.3", "0.2", "0.1"],
    ["fem", "--radii", "0.1", "0.2", "0.9"],
    ["harmonic", "--radii", "0.1", "0.2", "0.9"],
])
def test_probe_bad_geometry_exits_two(tmp_path, capsys, argv):
    assert main(["probe", *argv, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"


@pytest.mark.parametrize("flag", ["--kmax", "--samples"])
def test_probe_counts_must_be_positive(tmp_path, flag):
    mode = "harmonic" if flag == "--kmax" else "audit"
    with pytest.raises(SystemExit) as exc:
        main(["probe", mode, flag, "0", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("mode, foreign", [
    ("audit", ["--norm", "h1"]),
    ("kappa", ["--case", "nope"]),
    ("harmonic", ["--ladder", "4"]),
    ("fem", ["--samples", "50"]),
])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_probe_mode_rejects_a_foreign_option(tmp_path, capsys, mode, foreign,
                                             how):
    out = tmp_path / "run"
    if how == "flag":
        with pytest.raises(SystemExit) as exc:
            main(["probe", mode, *foreign, "--out", str(out)])
        assert exc.value.code == 2
    else:
        key, value = foreign[0].lstrip("-"), foreign[1]
        assert _run_with_config(tmp_path, ["probe", mode],
                                {key: value}) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "config",
                       "detail": f"config key {key!r} is not an option of "
                                 f"'probe {mode}'"}
    assert not out.exists()  # rejected before anything was written


@pytest.mark.parametrize("argv, config", [
    (["condnum", "--ladder", "4", "--cond-cap", "0"], None),
    (["condnum", "--ladder", "4", "--cond-tol", "-1"], None),
    (["solve", "--case", "ex1-const-noise-h", "--ladder", "4",
      "--seed", "-1"], None),
    (["probe", "audit", "--samples", "10", "--seed", "-1"], None),
    (["convergence", "--ladder", "4"], {"seed": -2}),
    # a tolerance of 1 or more takes any two iterates as converged
    (["condnum", "--ladder", "4,8", "--cond-tol", "1"], None),
    (["condnum", "--ladder", "4,8", "--cond-tol", "inf"], None),
    (["condnum", "--ladder", "4,8", "--cond-tol", "nan"], None),
    (["condnum", "--ladder", "4,8"], {"cond_tol": 5}),
], ids=["cond-cap-0", "cond-tol-negative", "seed-noisy-solve",
        "seed-probe-audit", "seed-config-file", "cond-tol-one",
        "cond-tol-inf", "cond-tol-nan", "cond-tol-config-file"])
def test_bad_seed_or_estimator_setting_exits_two(tmp_path, capsys, argv,
                                                 config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not out.exists()  # rejected before anything was written


@pytest.mark.parametrize("command", ["convergence", "condnum"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_repeated_ladder_entry_exits_two(tmp_path, capsys, command, how):
    # a repeated N would put a 0/0 per-step rate (NaN, not JSON) into
    # rates.json or condition.json
    out = tmp_path / "run"
    if how == "flag":
        with pytest.raises(SystemExit) as exc:
            main([command, "--ladder", "4,8,4", "--out", str(out)])
        assert exc.value.code == 2
        assert "repeats an N" in capsys.readouterr().err
    else:
        assert _run_with_config(tmp_path, [command],
                                {"ladder": [4, 4]}) == 2
        _assert_config_error(tmp_path, capsys)
    assert not out.exists()  # rejected before anything was written


@pytest.mark.parametrize("mode", ["harmonic", "fem"])
@pytest.mark.parametrize("resolution", [["0", "8"], ["8", "0"], ["8", "-3"]])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_probe_resolution_must_be_positive(tmp_path, capsys, mode,
                                           resolution, how):
    out = tmp_path / "run"
    argv = ["probe", mode] + (["--ladder", "4"] if mode == "fem" else [])
    if how == "flag":
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--resolution", *resolution, "--out", str(out)])
        assert exc.value.code == 2
    else:
        config = {"resolution": [int(r) for r in resolution]}
        assert _run_with_config(tmp_path, argv, config) == 2
        _assert_config_error(tmp_path, capsys)
    assert not out.exists()  # rejected before anything was written


@pytest.mark.parametrize("argv, problem", [
    (["--boundary-factor", "nan"], None),
    (["--boundary-factor", "inf"], None),
    ([], {**SWIRL_PROBLEM, "mu": float("nan")}),
    ([], {**SWIRL_PROBLEM, "gamma": float("inf")}),
    ([], {**SWIRL_PROBLEM, "beta_sup": float("nan")}),
], ids=["boundary-factor-nan", "boundary-factor-inf", "problem-mu-nan",
        "problem-gamma-inf", "problem-beta-sup-nan"])
def test_non_finite_problem_parameter_exits_two(tmp_path, capsys, argv,
                                                problem):
    # NaN and infinity pass the sign checks; they must not reach SuperLU
    # (whose breakdown would exit 3)
    argv = ["solve", "--ladder", "4", *argv]
    if problem is None:
        code = main([*argv, "--out", str(tmp_path / "run")])
    else:
        code = _run_with_config(tmp_path, argv, {"problem": problem})
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "must be finite" in err["detail"]
    assert not (tmp_path / "run").exists()  # rejected before config.json
