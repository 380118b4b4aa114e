"""Command-line interface: exit codes, file outputs, determinism."""

import copy
import csv
import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucfem import __version__, experiments
from ucfem.cli import main
from ucfem.experiments import get_case, run_case
from ucfem.stability import ThreeBallConfig, probe_fem_solution


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
    # the payload's noise law, drawn with --seed
    cfg = tmp_path / "noisy.json"
    cfg.write_text(json.dumps({"problem": {
        **experiments._PROBLEMS["ex1-const"], "noise": "h"}}))

    def u_bytes(seed, name):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg), "--ladder", "8",
                     "--seed", seed, "--out", str(out)]) == 0
        return (out / "u_N8.csv").read_bytes()

    assert u_bytes("5", "a") == u_bytes("5", "b") != u_bytes("6", "c")


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


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_condnum_estimate_cap_leaves_the_flag_false(tmp_path, capsys):
    assert main(["convergence", "--case", "ex1-const", "--ladder", "8",
                 "--cond", "estimate", "--cond-tol", "1e-14",
                 "--cond-cap", "1", "--out", str(tmp_path)]) == 0
    assert "np.float64" not in capsys.readouterr().out
    [row] = _csv_rows(tmp_path / "convergence.csv")
    assert row["cond_converged"] == "False" and float(row["cond"]) > 1.0


def test_condnum_is_an_unknown_command(tmp_path, capsys):
    # condition numbers along a ladder come from convergence --cond, and
    # mesh counts from Mesh(n).summary(): every command reconstructs
    out = tmp_path / "run"
    for argv in (["condnum", "--ladder", "4"], ["mesh-info", "8"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err
        assert not out.exists()


def test_convergence_csv_is_run_case_of_the_resolved_case(tmp_path):
    # the payload's boundary_factor and --ladder make the case, which
    # run_case reads
    problem = {**experiments._PROBLEMS["ex1-swirl"], "boundary_factor": 1.0}
    assert _run_with_config(tmp_path, ["convergence", "--ladder", "8"],
                            {"problem": problem}) == 0
    written = (tmp_path / "run" / "convergence.csv").read_bytes()
    case = replace(get_case("ex1-swirl"), ladder=(8,))
    folded = run_case(replace(case, spec=replace(
        case.spec, boundary_factor=1.0))).to_csv_string()
    assert written == folded.encode()
    assert run_case(case).to_csv_string() != folded


@pytest.mark.parametrize("argv, expected", [
    (["convergence", "--ladder", "4", "--cond", "estimate",
      "--cond-tol", "1e-6", "--cond-cap", "7"], ("estimate", 1e-6, 7)),
    (["solve", "--ladder", "4", "--cond", "exact"], ("exact", 1e-3, 5000)),
    (["convergence", "--ladder", "4", "--cond", "estimate"],
     ("estimate", 1e-3, 5000)),
    (["probe", "fem", "--ladder", "4"], ("none", 1e-3, 5000)),
], ids=["convergence-tol-cap", "solve", "convergence", "probe-fem"])
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
    assert main(["convergence", "--case", "ex1-const", "--ladder", "4,8",
                 "--cond", "exact", "--out", str(tmp_path)]) == 0
    assert "rate[cond]" in capsys.readouterr().out
    rows = _csv_rows(tmp_path / "convergence.csv")
    assert [r["N"] for r in rows] == ["4", "8"]
    assert all(float(r["cond"]) > 1.0 for r in rows)
    fit = json.loads((tmp_path / "rates.json").read_text())["cond"]
    assert fit["slope"] < 0  # conditioning degrades under refinement
    assert len(fit["per_step"]) == 1


def test_condnum_csv_carries_the_estimator_flag(tmp_path):
    assert main(["convergence", "--case", "ex1-swirl", "--ladder", "4,8",
                 "--cond", "estimate", "--cond-cap", "3",
                 "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "convergence.csv")
    assert [r["cond_converged"] for r in rows] == ["False", "False"]
    # --cond-cap folds into the case as its cond_max_iter
    case = replace(get_case("ex1-swirl"), ladder=(4, 8), cond="estimate",
                   cond_max_iter=3)
    assert (tmp_path / "convergence.csv").read_bytes() == \
        run_case(case).to_csv_string().encode()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_that_is_no_directory_exits_two(tmp_path, capsys, sub):
    # an existing regular file, or a path under one
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["solve", "--ladder", "4", "--out", str(afile / sub)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and str(afile) in err["detail"]


def test_probe_fem_ladder(tmp_path, capsys):
    assert main(["probe", "fem", "--case", "ex1-const", "--ladder", "8",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "probe_fem.csv").read_text().strip().splitlines()
    assert lines[0] == "N,ratio"
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) > 0


def test_probe_fem_h1_norm(tmp_path):
    def ratio(norm):
        out = tmp_path / norm
        assert main(["probe", "fem", "--ladder", "4", "--norm", norm,
                     "--out", str(out)]) == 0
        lines = (out / "probe_fem.csv").read_text().strip().splitlines()
        assert lines[0] == "N,ratio" and len(lines) == 2
        return float(lines[1].split(",")[1])

    h1 = ratio("h1")
    assert np.isfinite(h1) and h1 != ratio("l2")


def test_probe_fem_non_finite_center_exits_two(tmp_path, capsys):
    # NaN compares False, so it would pass the disc-in-square check
    out = tmp_path / "run"
    assert main(["probe", "fem", "--ladder", "4", "--center", "nan", "nan",
                 "--resolution", "8", "8", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "finite" in err["detail"]
    assert not out.exists()


def test_probe_fem_disc_norm_underflow_exits_two(tmp_path, capsys):
    # the discs are valid, but their norms underflow to zero, which only
    # the run can find: exit 2 after config.json, and no probe_fem.csv
    out = tmp_path / "run"
    assert main(["probe", "fem", "--ladder", "2", "--radii", "1e-300",
                 "2e-300", "3e-300", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": "degenerate field: zero "
                                                "norm on a probe disc"}
    assert sorted(p.name for p in out.iterdir()) == ["config.json"]


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


def test_config_file_supplies_the_inline_problem(tmp_path):
    problem = {"beta": {"kind": "const", "value": [1.0, 0.5]},
               "omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]}}
    assert _run_with_config(tmp_path, ["solve", "--ladder", "8"],
                            {"problem": problem}, joined=True) == 0
    assert (tmp_path / "run" / "u_N8.csv").exists()


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


SWIRL_PROBLEM = {"beta": {"kind": "swirl", "scale": 10.0},
                 "omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]}}
EX1_CONST = experiments._PROBLEMS["ex1-const"]
MISSING = object()  # a key left out of the payload


@pytest.mark.parametrize("argv, config, detail", [
    (["solve", "--ladder", "4"], {"problem": None},
     "bad inline problem: problem must be an object, got None"),
    (["solve", "--ladder", "4"], {},
     "bad inline problem: problem must be an object, got None"),
    (["convergence"], {"problem": EX1_CONST, "ladder": [4]},
     "config has unknown key 'ladder'"),
    (["convergence", "--ladder", "4"], {"problme": EX1_CONST},
     "config has unknown key 'problme'"),
    (["solve", "--ladder", "4"], {"cond_tol": 1e-9},
     "config has unknown key 'cond_tol'"),
    (["solve", "--ladder", "4"], {"version": "0"},
     "config has unknown key 'version'"),
    (["solve", "--ladder", "4"], [EX1_CONST],
     f"config must be an object, got {[EX1_CONST]!r}"),
], ids=["null", "empty", "ladder", "misspelt", "cond-tol", "version",
        "not-an-object"])
def test_config_holds_only_the_problem(tmp_path, capsys, argv, config,
                                       detail):
    # every option is a flag; a file without a real problem runs nothing
    assert _run_with_config(tmp_path, argv, config) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": detail}
    assert not (tmp_path / "run").exists()


def test_inline_run_echoes_the_problem_it_ran(tmp_path, capsys):
    assert _run_with_config(tmp_path, ["solve", "--ladder", "4"],
                            {"problem": SWIRL_PROBLEM}) == 0
    echoed = json.loads((tmp_path / "run" / "config.json").read_text())
    assert echoed["problem"] == SWIRL_PROBLEM and echoed["case"] == "custom"
    # a built-in run echoes no problem
    assert main(["solve", "--ladder", "4", "--out", str(tmp_path / "b")]) == 0
    assert "problem" not in json.loads((tmp_path / "b" / "config.json")
                                       .read_text())
    # --case beside --config names a second problem
    out = tmp_path / "both"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", "ex1-const", "--config",
              str(tmp_path / "cfg.json"), "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("omega", [1, 2]),
    ("beta", {"kind": "swirl", "scale": "big"}),
    ("omega", {"boxes": []}),
    ("omega", {"boxes": [[2, 3, 2, 3]]}),
    # finite, but |beta| overflows a double
    pytest.param("beta", {"kind": "const", "value": [1e200, 0]},
                 id="beta-value-overflows"),
    ("noise", "loud"),
    ("noise", 0.5),
    ("beta", 5),
    ("beta", None),
    ("beta", {"kind": "spiral"}),
    ("beta", {"kind": "const", "value": [1]}),
    ("omega", {"boxes": [[0.2, 0.45, 0.2]]}),
    ("omega", {"boxes": [[0.45, 0.2, 0.2, 0.45]]}),
    ("omega", {"boxes": [[0.2, 0.45, 0.2, 0.45]], "holes": [[0.3, 0.35]]}),
    pytest.param("mu", 10**400, id="mu-beyond-double"),
    pytest.param("omega", {"boxes": [[0.2, 10**400, 0.2, 0.45]]},
                 id="omega-box-beyond-double"),
    pytest.param("omega", {"boxes": 5}, id="omega-boxes-not-a-list"),
    pytest.param("omega", MISSING, id="omega-missing"),
    pytest.param("beta", {"kind": "swirl", "scale": 1e308},
                 id="beta-scale-overflows"),
    ("boundary_factor", 0.5),
    ("gamma", -1),
    ("gamma_star", 0),
])
def test_bad_inline_problem_exits_two(tmp_path, capsys, key, value):
    problem = {k: v for k, v in {**SWIRL_PROBLEM, key: value}.items()
               if v is not MISSING}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": problem}))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--ladder", "4",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    # the refusal names the key that holds the bad value
    assert err["detail"].startswith(f"bad inline problem: {key} ")
    assert not list(tmp_path.glob("**/u_N*.csv"))


@pytest.mark.parametrize("key", ["mu", "gamma", "gamma_star",
                                 "boundary_factor"])
def test_overflowing_inline_number_exits_three(tmp_path, capsys, key):
    # finite, so the case takes it, but assembly overflows to inf
    assert _run_with_config(tmp_path, ["solve", "--ladder", "2"],
                            {"problem": {**SWIRL_PROBLEM, key: 1e308}}) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "numerical",
                   "detail": "assembled system has non-finite entries"}


# every key of an inline problem, also those no built-in payload holds
_PROBLEM_KEYS = ("omega", "target", "beta", "mu", "gamma", "gamma_star",
                 "boundary_factor", "noise")
_SWAPS = st.one_of(
    st.sampled_from([None, True, "x", "-1", 10**400, 1e308, 1e200, [], {},
                     {"x": 1.0}]),
    st.sampled_from([1, 3, 5]).flatmap(
        lambda n: st.lists(st.floats(-1.0, 2.0), min_size=n, max_size=n)))


def _key_paths(value, path=()):
    """Every key path into a JSON value: dict keys and list indices."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield path + (key,)
            yield from _key_paths(child, path + (key,))


@st.composite
def _mutated_payloads(draw):
    """A built-in payload with one dict key dropped or one value swapped
    for a JSON value of another kind, and the first key of that path."""
    name = draw(st.sampled_from(sorted(experiments._PROBLEMS)))
    problem = copy.deepcopy(experiments._PROBLEMS[name])
    # each key is as likely as any other, however deep its value
    key = draw(st.sampled_from(_PROBLEM_KEYS))
    path = draw(st.sampled_from([(key,), *_key_paths(problem.get(key),
                                                     (key,))]))
    parent = reduce(lambda node, step: node[step], path[:-1], problem)
    if isinstance(parent, dict) and path[-1] in parent and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_SWAPS)
    return problem, key


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_mutated_payloads())
def test_any_payload_mutation_exits_zero_two_or_three(mutation):
    # exit 2 names the key and writes nothing; no exception escapes
    problem, key = mutation
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # the one documented warning; any other UserWarning still fails
        warnings.filterwarnings("ignore", "data region contains no "
                                          "quadrature point")
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "run"
        cfg.write_text(json.dumps({"problem": problem}))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["solve", "--config", str(cfg), "--ladder", "2",
                         "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 2:
            detail = json.loads(err.getvalue().splitlines()[-1])["detail"]
            assert detail.startswith(f"bad inline problem: {key} ")
            assert not out.exists()


def test_zero_beta_runs_as_the_zero_constant(tmp_path):
    def table(beta):
        problem = {**SWIRL_PROBLEM, "beta": beta}
        run = tmp_path / beta["kind"]
        run.mkdir()
        assert _run_with_config(run, ["convergence", "--ladder", "4,8"],
                                {"problem": problem}) == 0
        return (run / "run" / "convergence.csv").read_bytes()

    assert table({"kind": "zero"}) == table({"kind": "const",
                                             "value": [0, 0]})


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
    ("beta", {"kind": "const", "value": [True, 0]}),
    ("beta", {"kind": "swirl", "scale": True}),
    ("omega", {"boxes": [[0.2, 0.45, 0.2, True]]}),
    ("target", {"boxes": [[False, 1, 0, 1]]}),
], ids=["mu", "gamma", "boundary-factor", "const-value", "swirl-scale",
        "omega-box", "target-box"])
def test_inline_problem_booleans_are_not_numbers(tmp_path, capsys, key,
                                                 value):
    # JSON's true and false would otherwise be read as 1.0 and 0.0
    assert _run_with_config(tmp_path, ["solve", "--ladder", "4"],
                            {"problem": {**SWIRL_PROBLEM, key: value}}) == 2
    _assert_config_error(tmp_path, capsys)


@pytest.mark.parametrize("problem, detail", [
    ({**EX1_CONST, "gama": 1.0}, "problem has unknown key 'gama'"),
    # the field fixes its sup: 1.0 here, 2|s| for a swirl
    ({**EX1_CONST, "beta_sup": 1.0}, "problem has unknown key 'beta_sup'"),
    ({**EX1_CONST, "omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]],
                             "hole": [[0.3, 0.35, 0.3, 0.35]]}},
     "omega has unknown key 'hole'"),
    ({**EX1_CONST, "beta": {"kind": "swirl", "scal": 5}},
     "beta has unknown key 'scal'"),
    ({**EX1_CONST, "beta": {"kind": "const", "scale": 5}},
     "beta has unknown key 'scale'"),
    ({**EX1_CONST, "beta": {"kind": "zero", "value": [0, 0]}},
     "beta has unknown key 'value'"),
    ({**EX1_CONST, "target": {"boxes": [[0, 1, 0, 1]], "box": []}},
     "target has unknown key 'box'"),
], ids=["gama", "beta-sup", "hole", "scal", "const-scale", "zero-value",
        "target-box"])
def test_unknown_inline_problem_key_exits_two(tmp_path, capsys, problem,
                                              detail):
    # a misspelt key would otherwise leave its default in force silently
    assert _run_with_config(tmp_path, ["solve", "--ladder", "4"],
                            {"problem": problem}) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config",
                   "detail": f"bad inline problem: {detail}"}
    assert not (tmp_path / "run").exists()


def test_zero_area_inline_region_is_refused_without_a_warning(tmp_path,
                                                             capsys):
    # the refusal names the region; Region's own warning would only repeat it
    problem = {**SWIRL_PROBLEM, "omega": {"boxes": []}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_with_config(tmp_path, ["solve", "--ladder", "4"],
                                {"problem": problem}) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config",
                   "detail": "bad inline problem: omega has zero area"}
    assert not (tmp_path / "run").exists()


def test_probe_rejects_an_inline_problem(tmp_path, capsys):
    # no probe mode takes --config
    with pytest.raises(SystemExit) as exc:
        _run_with_config(tmp_path, ["probe", "fem", "--ladder", "4"],
                         {"problem": SWIRL_PROBLEM})
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_projection_is_an_option_of_convergence_only(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--projection", "nodal", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, option, value", [
    ("solve", "quad-degree", "2"), ("convergence", "quad-degree", "4"),
    ("convergence", "h1", "semi"),
    ("solve", "noise", "h"), ("convergence", "noise", "sqrt_h"),
    ("solve", "boundary-factor", "1.0"),
    ("convergence", "boundary-factor", "2.0"),
])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_removed_quadrature_and_h1_options_exit_two(tmp_path, capsys, command,
                                                    option, value, how):
    # every integral uses the one degree-4 rule and H1 is the full norm;
    # the noise law and boundary_factor are keys of the inline problem,
    # and a config file holds no option
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
                       "detail": f"config has unknown key {option!r}"}
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


@pytest.mark.parametrize("name", ["ex1-const", "ex1-swirl", "ex2-const",
                                  "ex2-swirl", "ex3-const", "ex3-swirl",
                                  "ex1-const-noise-h", "ex1-const-noise-sqrt"])
def test_builtin_case_is_its_inline_problem(tmp_path, name):
    # --case and the case's payload as the config's problem run the same;
    # --seed draws the noise of the noisy ones
    argv = ["convergence", "--ladder", "4,8", "--seed", "5"]
    assert main([*argv, "--case", name, "--out", str(tmp_path / "case")]) == 0
    assert _run_with_config(tmp_path, argv,
                            {"problem": experiments._PROBLEMS[name]}) == 0
    for output in ("convergence.csv", "rates.json"):
        assert (tmp_path / "run" / output).read_bytes() \
            == (tmp_path / "case" / output).read_bytes()


def test_target_with_no_quadrature_point_warns_on_every_rung(tmp_path):
    # each rung's nan row is announced: the message names its N, so
    # Python's default filter, which shows a message once per place,
    # shows every rung's
    problem = {"omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]},
               "target": {"boxes": [[0.5, 0.5001, 0.5, 0.5001]]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert _run_with_config(tmp_path,
                                ["convergence", "--ladder", "4,8,16"],
                                {"problem": problem}) == 0
    prefix = "evaluation region contains no quadrature point"
    assert [str(w.message) for w in caught
            if str(w.message).startswith(prefix)] == [
        f"{prefix}; error norms are zero at N={n}" for n in (4, 8, 16)]


def test_boundary_factor_override_changes_solution(tmp_path, capsys):
    # the payload's boundary_factor in place of ex1-const's 50
    d1 = tmp_path / "a"
    assert main(["solve", "--case", "ex1-const", "--ladder", "8",
                 "--out", str(d1)]) == 0
    problem = {**experiments._PROBLEMS["ex1-const"], "boundary_factor": 1.0}
    assert _run_with_config(tmp_path, ["solve", "--ladder", "8"],
                            {"problem": problem}) == 0
    assert (d1 / "u_N8.csv").read_bytes() \
        != (tmp_path / "run" / "u_N8.csv").read_bytes()
    bad = tmp_path / "bad"
    bad.mkdir()
    assert _run_with_config(bad, ["solve", "--ladder", "8"], {"problem": {
        **problem, "boundary_factor": "abc"}}) == 2
    _assert_config_error(bad, capsys)


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
    assert main(["convergence", "--case", "ex1-const-noise-h",
                 "--ladder", "4,8", "--cond", "estimate",
                 "--out", str(tmp_path)]) == 0
    assert calls == ["NATURAL", "NATURAL"]
    rows = _csv_rows(tmp_path / "convergence.csv")
    assert [r["cond_converged"] for r in rows] == ["True", "True"]


def test_condnum_gate_miss_estimates_on_colamd(tmp_path, monkeypatch):
    import ucfem.saddle as saddle
    from test_saddle import force_pivot_free_gate_miss

    argv = ["convergence", "--case", "ex1-swirl", "--ladder", "8",
            "--cond", "estimate"]
    clean = tmp_path / "clean"
    assert main([*argv, "--out", str(clean)]) == 0
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
    assert main([*argv, "--out", str(missed)]) == 0
    assert [spec for spec, _ in made] == ["NATURAL", None]
    assert len(received) == 1 and received[0] is made[-1][1]
    cond = [float(_csv_rows(d / "convergence.csv")[0]["cond"])
            for d in (clean, missed)]
    assert cond[1] == pytest.approx(cond[0], rel=1e-6)


@pytest.mark.parametrize("command", ["solve", "convergence"])
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
    ["fem", "--c3", "0"],
    ["fem", "--center", "0.05", "0.5"],
    ["fem", "--radii", "0.3", "0.2", "0.1"],
    ["fem", "--radii", "0.1", "0.2", "0.9"],
    ["fem", "--radii", "nan", "0.2", "0.4"],
])
def test_probe_bad_geometry_exits_two(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main(["probe", *argv, "--ladder", "4", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not out.exists()  # the discs are checked before config.json


@pytest.mark.parametrize("argv, message", [
    (["probe", "fem", "--resolution", "8", "x"], "not an integer: 'x'"),
    (["solve", "--ladder", "8,x"], "bad ladder '8,x'"),
], ids=["probe-resolution", "solve-ladder"])
def test_non_integer_count_exits_two(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before anything was written


# options of the deleted probe modes and of other commands
@pytest.mark.parametrize("mode, foreign", [
    ("fem", ["--kmax", "4"]),
    ("fem", ["--cond", "exact"]),
    ("fem", ["--projection", "nodal"]),
    ("fem", ["--samples", "50"]),
])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_probe_mode_rejects_a_foreign_option(tmp_path, capsys, mode, foreign,
                                             how):
    # no probe mode takes --config, so neither can carry the option
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        if how == "flag":
            main(["probe", mode, *foreign, "--out", str(out)])
        else:
            _run_with_config(tmp_path, ["probe", mode],
                             {foreign[0].lstrip("-"): foreign[1]})
    assert exc.value.code == 2
    assert not out.exists()  # rejected before anything was written


@pytest.mark.parametrize("mode", ["audit", "kappa", "harmonic"])
def test_removed_probe_modes_exit_two(tmp_path, capsys, mode):
    # their lemma checks stay in ucfem.stability (tests/test_stability.py)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["probe", mode, "--out", str(out)])
    assert exc.value.code == 2
    assert f"invalid choice: '{mode}'" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything was written


def test_integer_past_the_digit_limit_exits_two(tmp_path, capsys):
    # json.load raises a plain ValueError for an integer of over 4300 digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problem": {"mu": 1' + "0" * 5000 + "}}")
    assert main(["solve", "--config", str(cfg), "--ladder", "4",
                 "--out", str(tmp_path / "run")]) == 2
    _assert_config_error(tmp_path, capsys)


@pytest.mark.parametrize("argv, config", [
    (["convergence", "--ladder", "4", "--cond-cap", "0"], None),
    (["convergence", "--ladder", "4", "--cond-tol", "-1"], None),
    (["solve", "--case", "ex1-const-noise-h", "--ladder", "4",
      "--seed", "-1"], None),
    (["probe", "fem", "--seed", "-1"], None),
    # a config file holds no option: its seed or tolerance is refused
    (["convergence", "--ladder", "4"], {"seed": -2}),
    # a tolerance of 1 or more takes any two iterates as converged
    (["convergence", "--ladder", "4,8", "--cond-tol", "1"], None),
    (["convergence", "--ladder", "4,8", "--cond-tol", "inf"], None),
    (["convergence", "--ladder", "4,8", "--cond-tol", "nan"], None),
    (["convergence", "--ladder", "4,8"], {"cond_tol": 5}),
], ids=["cond-cap-0", "cond-tol-negative", "seed-noisy-solve",
        "seed-probe-fem", "seed-config-file", "cond-tol-one",
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


@pytest.mark.parametrize("command", ["convergence"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_repeated_ladder_entry_exits_two(tmp_path, capsys, command, how):
    # a repeated N would put a 0/0 per-step rate (NaN, not JSON) into
    # rates.json; the case refuses it, and a config file holds no ladder
    out = tmp_path / "run"
    if how == "flag":
        assert main([command, "--ladder", "4,8,4", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "config",
                       "detail": "ladder (4, 8, 4) repeats an N"}
    else:
        assert _run_with_config(tmp_path, [command],
                                {"ladder": [4, 4]}) == 2
        _assert_config_error(tmp_path, capsys)
    assert not out.exists()  # rejected before anything was written


@pytest.mark.parametrize("command", [["solve"], ["convergence"],
                                     ["probe", "fem"]],
                         ids=["solve", "convergence", "probe-fem"])
@pytest.mark.parametrize("ladder, detail", [
    ("", "bad ladder ()"), ("0,8", "bad ladder (0, 8)"),
    ("8,-4", "bad ladder (8, -4)"),
], ids=["empty", "zero", "negative"])
def test_bad_ladder_is_refused_by_the_case(tmp_path, capsys, command, ladder,
                                           detail):
    # --ladder only parses integers; an empty one is no default ladder
    out = tmp_path / "run"
    assert main([*command, "--ladder", ladder, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": detail}
    assert not out.exists()


@pytest.mark.parametrize("mode", ["fem"])
@pytest.mark.parametrize("resolution", [["0", "8"], ["8", "0"], ["8", "-3"]])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_probe_resolution_must_be_positive(tmp_path, capsys, mode,
                                           resolution, how):
    # no probe mode takes --config, so neither can carry the resolution
    out = tmp_path / "run"
    argv = ["probe", mode, "--ladder", "4"]
    with pytest.raises(SystemExit) as exc:
        if how == "flag":
            main([*argv, "--resolution", *resolution, "--out", str(out)])
        else:
            _run_with_config(tmp_path, argv,
                             {"resolution": [int(r) for r in resolution]})
    assert exc.value.code == 2
    assert not out.exists()  # rejected before anything was written


@pytest.mark.parametrize("problem", [
    {**SWIRL_PROBLEM, "boundary_factor": float("nan")},
    {**SWIRL_PROBLEM, "boundary_factor": float("inf")},
    {**SWIRL_PROBLEM, "mu": float("nan")},
    {**SWIRL_PROBLEM, "gamma": float("inf")},
], ids=["boundary-factor-nan", "boundary-factor-inf", "problem-mu-nan",
        "problem-gamma-inf"])
def test_non_finite_problem_parameter_exits_two(tmp_path, capsys, problem):
    # NaN and infinity pass the sign checks; they must not reach SuperLU
    # (whose breakdown would exit 3)
    code = _run_with_config(tmp_path, ["solve", "--ladder", "4"],
                            {"problem": problem})
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "must be finite" in err["detail"]
    assert not (tmp_path / "run").exists()  # rejected before config.json
