"""Command-line front end.

Subcommands: mesh-info, solve, convergence, condnum, probe; each probe
mode (audit, kappa, harmonic, fem) is a subcommand of ``probe`` with only
the options it reads.  ``main`` runs each the same way: parse; load
``--config PATH`` (or ``--config=PATH``) as the defaults of the command
or probe mode and parse again, so flags win; check the seed; resolve the
case (solve, convergence, condnum, and ``probe fem``, whose ``--seed``
seeds a noisy case); echo the resolved configuration to ``config.json``
in the output directory; run the handler.  Bad input exits with 2, and
an unknown case, a condition-number setting that cannot run or an
``--out`` that is no directory does so before anything is written;
numerical failures exit with 3.
Every CSV table is written by ``experiments._csv_text``; the columns of
``convergence.csv`` are the fields of ``ConvergenceRow``.  Outputs are
deterministic for a fixed configuration and seed (timings to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (CaseDefinition, NoiseModel, _csv_text,
                          derive_source, estimate_rate, get_case,
                          polynomial_bump, run_case, run_ladder)
from .forms import ProblemSpec, constant_field, swirl_field, zero_field
from .mesh import Region, build_unit_square_mesh
from .saddle import NumericalFailure
from .stability import (ThreeBallConfig, audit_log_convexity,
                        harmonic_family_sweep, holder_exponent,
                        probe_fem_solution)


class ConfigError(Exception):
    """Invalid command configuration; maps to exit code 2."""


@contextmanager
def _bad_input():
    """Report a ValueError raised by the library as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _positive_int(text):
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _ladder(text):
    try:
        entries = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}") from exc
    if not entries or any(n < 1 for n in entries):
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}")
    if len(set(entries)) < len(entries):
        raise argparse.ArgumentTypeError(f"ladder {text!r} repeats an N")
    return entries


# every option of ``probe``; each mode takes only the ones it reads
_PROBE_OPTIONS = {
    "--config": dict(default=None, help="JSON file with flag defaults"),
    "--samples": dict(type=_positive_int, default=10_000),
    "--seed": dict(type=int, default=2026),
    "--radii": dict(type=float, nargs=3, default=(0.1, 0.2, 0.4)),
    "--center": dict(type=float, nargs=2, default=(0.5, 0.5)),
    "--c3": dict(type=float, default=1.0),
    "--kmax": dict(type=_positive_int, default=8),
    "--norm": dict(choices=["l2", "h1"], default="l2"),
    "--resolution": dict(type=_positive_int, nargs=2, default=(96, 192)),
    "--case": dict(default="ex1-const"),
    "--ladder": dict(type=_ladder, default=(8, 16, 32)),
    "--out": dict(default=".", help="output directory"),
}
_PROBE_MODES = {
    "audit": ("log-convexity audit", ("--samples", "--seed")),
    "kappa": ("three-ball exponent", ("--radii", "--c3")),
    "harmonic": ("three-ball ratios of a harmonic family",
                 ("--radii", "--center", "--kmax", "--norm", "--resolution")),
    "fem": ("three-ball ratios of reconstructions along a ladder",
            ("--seed", "--radii", "--center", "--c3", "--norm",
             "--resolution", "--case", "--ladder")),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ucfem",
        description="Stabilized FEM data assimilation for convection-"
                    "diffusion problems on the unit square.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    mesh_p = sub.add_parser("mesh-info", help="mesh counts and size")
    mesh_p.add_argument("cells", type=_positive_int,
                        help="cells per side (>= 1)")
    mesh_p.add_argument("--out", default=None, help="output directory")

    def common(p, ladder_default=None):
        p.add_argument("--config", default=None,
                       help="JSON file with flag defaults")
        p.add_argument("--case", default="ex1-const",
                       help="benchmark case name")
        p.add_argument("--ladder", type=_ladder, default=ladder_default,
                       help="comma-separated mesh resolutions")
        p.add_argument("--seed", type=int, default=0, help="noise seed")
        p.add_argument("--noise", choices=["none", "sqrt_h", "h"],
                       default=None, help="override the case noise model")
        p.add_argument("--boundary-factor", type=float, default=None,
                       help="override the dual boundary weight factor")
        p.add_argument("--out", default=".", help="output directory")

    solve_p = sub.add_parser("solve", help="solve one or more meshes")
    common(solve_p, ladder_default=(32,))
    solve_p.add_argument("--cond", choices=["none", "exact", "estimate"],
                         default="none")

    conv_p = sub.add_parser("convergence", help="run a mesh ladder")
    common(conv_p)
    conv_p.add_argument("--cond", choices=["none", "exact", "estimate"],
                        default="none")
    conv_p.add_argument("--projection", choices=["l2", "nodal"], default="l2",
                        help="comparison function for the stabilizer norm")

    cond_p = sub.add_parser("condnum", help="condition-number ladder")
    common(cond_p)
    cond_p.add_argument("--cond", choices=["exact", "estimate"],
                        default="estimate")
    cond_p.add_argument("--cond-tol", type=float, default=1e-3)
    cond_p.add_argument("--cond-cap", type=int, default=5000,
                        help="iteration cap for the estimator")

    probe_p = sub.add_parser("probe", help="stability probes")
    modes = probe_p.add_subparsers(dest="mode", required=True)
    commands = {"mesh-info": mesh_p, "solve": solve_p, "convergence": conv_p,
                "condnum": cond_p}
    for mode, (help_text, flags) in _PROBE_MODES.items():
        mode_p = modes.add_parser(mode, help=help_text)
        for flag in ("--config", *flags, "--out"):
            mode_p.add_argument(flag, **_PROBE_OPTIONS[flag])
        commands[mode] = mode_p
    return parser, commands


def _config_value(action, key, val):
    """A config value converted as the flag's own text would be: a list
    for an ``nargs`` flag, a list or a comma-separated string for the
    ladder, a number or a string for any other flag."""
    if action.dest == "ladder" and isinstance(val, list):
        val = ",".join(str(v) for v in val)
    many = isinstance(action.nargs, int)
    items = val if many else [val]
    scalar = str if action.dest == "ladder" else (int, float, str)
    if not isinstance(items, list) or len(items) != (action.nargs or 1) \
            or any(isinstance(v, bool) or not isinstance(v, scalar)
                   for v in items):
        raise ConfigError(f"config {key!r}: bad value {val!r}")
    try:
        items = [(action.type or str)(str(v)) for v in items]
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ConfigError(f"config {key!r}: {exc}") from exc
    if action.choices is not None and any(v not in action.choices
                                          for v in items):
        raise ConfigError(f"config {key!r}: {val!r} is not one of "
                          f"{list(action.choices)}")
    return tuple(items) if many else items[0]


_PROBLEM_COMMANDS = ("solve", "convergence", "condnum")


def _apply_config_file(args, sub_parser):
    """Use the values of the ``--config`` file as defaults of the invoked
    command (for ``probe``, its mode), so that flags parsed again still win.

    Every key must be an option of the command, or ``problem`` for solve,
    convergence and condnum; every value passes the option's type and
    choices.  Returns the inline problem, if any.
    """
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    options = {action.dest: action for action in sub_parser._actions
               if action.option_strings and action.dest != "help"}
    problem = values.pop("problem", None) \
        if args.command in _PROBLEM_COMMANDS else None
    defaults = {}
    for key, val in values.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"config key {key!r} is not an option of "
                              f"{sub_parser.prog.removeprefix('ucfem ')!r}")
        defaults[action.dest] = _config_value(action, key, val)
    sub_parser.set_defaults(**defaults)
    return problem


def _region_from(payload, name) -> Region:
    region = Region(*([[_finite(c, f"{name} {key}") for c in box]
                       for box in payload.get(key, [])]
                      for key in ("boxes", "holes")))
    if any(x0 < 0 or x1 > 1 or y0 < 0 or y1 > 1
           for x0, x1, y0, y1 in region.boxes):
        raise ConfigError(f"{name} has a box outside the unit square")
    if region.is_empty:
        raise ConfigError(f"{name} has zero area")
    return region


def _finite(value, name) -> float:
    """A finite inline-problem number; JSON's true and false are not."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _field_from(payload):
    kind = payload.get("kind", "const")
    if kind == "const":
        bx, by = payload.get("value", (1.0, 0.0))
        return constant_field(_finite(bx, "beta value"),
                              _finite(by, "beta value"))
    if kind == "swirl":
        return swirl_field(_finite(payload.get("scale", 100.0), "beta scale"))
    if kind == "zero":
        return zero_field()
    raise ConfigError(f"unknown advection field kind {kind!r}")


def _case_from_problem(payload: dict) -> CaseDefinition:
    """Build a custom case from an inline problem description."""
    try:
        beta = _field_from(payload.get("beta", {}))
        exact = polynomial_bump()
        sup = payload.get("beta_sup")
        # the stabilization parameters not given keep ProblemSpec's defaults
        weights = {key: _finite(payload[key], key) for key in
                   ("gamma", "gamma_star", "boundary_factor")
                   if key in payload}
        spec = ProblemSpec(
            mu=_finite(payload.get("mu", 1.0), "mu"),
            beta=beta,
            omega=_region_from(payload["omega"], "omega"),
            target=_region_from(payload.get("target", {"boxes": [[0, 1, 0, 1]]}),
                                "target"),
            f=None,
            beta_sup=None if sup is None else _finite(sup, "beta_sup"),
            **weights,
        )
        spec = replace(spec, f=derive_source(exact, spec.mu, beta))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad inline problem: {exc}") from exc
    return CaseDefinition("custom", spec, exact)


def _resolve_case(args, problem) -> CaseDefinition:
    if problem is not None:
        case = _case_from_problem(problem)
    else:
        try:
            case = get_case(args.case)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    noise = case.noise
    if getattr(args, "noise", None) is not None:
        noise = {"none": None,
                 "sqrt_h": NoiseModel(0.5, args.seed),
                 "h": NoiseModel(1.0, args.seed)}[args.noise]
    elif noise is not None:
        noise = NoiseModel(noise.law, args.seed)
    spec = case.spec
    ladder = args.ladder if getattr(args, "ladder", None) else case.ladder
    with _bad_input():  # the case refuses a cond setting solve would refuse
        if getattr(args, "boundary_factor", None) is not None:
            spec = replace(spec, boundary_factor=args.boundary_factor)
        return replace(
            case, spec=spec, ladder=tuple(ladder), noise=noise,
            cond=getattr(args, "cond", case.cond),
            cond_tol=getattr(args, "cond_tol", case.cond_tol),
            cond_max_iter=getattr(args, "cond_cap", case.cond_max_iter))


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_mesh_info(args, case, out) -> int:
    summary = build_unit_square_mesh(args.cells).summary()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if out is not None:
        _write_json(out / "mesh.json", summary)
    return 0


def _cmd_solve(args, case: CaseDefinition, out: Path) -> int:
    def visit(rung):
        sol = rung.solution
        sol.u.to_csv(out / f"u_N{rung.N}.csv")
        sol.z.to_csv(out / f"z_N{rung.N}.csv")
        diag = {k: v for k, v in sol.diagnostics.items()
                if not k.endswith("_seconds")}  # timings go to stderr
        diag["peclet"] = rung.peclet
        if sol.cond is not None:
            diag.update(cond=sol.cond.value, cond_converged=sol.cond.converged,
                        cond_iterations=sol.cond.iterations)
        _write_json(out / f"diagnostics_N{rung.N}.json", diag)
        print(f"N={rung.N}: dim={sol.diagnostics['dimension']} "
              f"residual={sol.diagnostics['relative_residual']:.2e}")
        print(f"  factor {sol.diagnostics['factor_seconds']:.3f}s "
              f"solve {sol.diagnostics['solve_seconds']:.3f}s",
              file=sys.stderr)

    run_ladder(case, visit)
    return 0


def _cmd_convergence(args, case: CaseDefinition, out: Path) -> int:
    table = run_case(case, projection=args.projection)
    text = table.to_csv_string()
    (out / "convergence.csv").write_text(text, newline="")
    _write_json(out / "rates.json", table.rates_dict())
    print(text, end="")
    for name, fit in table.rates.items():
        print(f"rate[{name}] = {fit.slope:.3f}")
    return 0


def _cmd_condnum(args, case: CaseDefinition, out: Path) -> int:
    def visit(rung):
        est = rung.solution.cond
        bracket = None if est.bracket is None else list(est.bracket)
        flag = "" if est.converged else f"  (cap hit, bracket {bracket})"
        print(f"N={rung.N}: cond={est.value:.6e}{flag}")
        return {"N": rung.N, "h": rung.h, "cond": est.value,
                "converged": est.converged, "bracket": bracket}

    rows = run_ladder(case, visit)

    (out / "condition.csv").write_text(_csv_text(
        ("N", "h", "cond", "cond_converged"),
        [(r["N"], r["h"], r["cond"], r["converged"]) for r in rows]),
        newline="")
    summary = {"rows": rows}
    if len(rows) >= 2 and all(r["cond"] > 0 for r in rows):
        fit = estimate_rate([(r["h"], r["cond"]) for r in rows])
        summary["slope"] = fit.slope
        summary["per_step"] = list(fit.per_step)
        print(f"slope = {fit.slope:.3f}; per-step = "
              + ", ".join(f"{s:.3f}" for s in fit.per_step))
    _write_json(out / "condition.json", summary)
    return 0


def _probe_audit(args, case, out: Path) -> int:
    report = audit_log_convexity(args.samples, args.seed)
    report = {k: v for k, v in report.items() if k != "worst_instance"}
    _write_json(out / "probe_audit.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0 if report["violations"] == 0 else 3


def _probe_kappa(args, case, out: Path) -> int:
    with _bad_input():
        value = holder_exponent(*args.radii, args.c3)
    _write_json(out / "probe_kappa.json",
                {"radii": args.radii, "c3": args.c3, "kappa": value})
    print(f"kappa = {value}")
    return 0


def _probe_harmonic(args, case, out: Path) -> int:
    # its ValueErrors come from the disc geometry (ThreeBallConfig)
    with _bad_input():
        report = harmonic_family_sweep(tuple(args.center), tuple(args.radii),
                                       args.kmax, args.norm,
                                       tuple(args.resolution))
    (out / "probe_harmonic.csv").write_text(_csv_text(
        ("k", "ratio"), enumerate(report["ratios"], start=1)), newline="")
    _write_json(out / "probe_harmonic.json",
                {k: v for k, v in report.items() if k != "ratios"})
    print(f"kappa={report['kappa']:.6f} c3={report['c3']:.6f} "
          f"max ratio={report['max_ratio']:.6f}")
    return 0


def _probe_fem(args, case: CaseDefinition, out: Path) -> int:
    with _bad_input():
        kappa = holder_exponent(*args.radii, args.c3)
        config = ThreeBallConfig(tuple(args.center), tuple(args.radii),
                                 kappa, args.norm)
    pairs = probe_fem_solution(case, config, tuple(args.resolution))
    (out / "probe_fem.csv").write_text(_csv_text(("N", "ratio"), pairs),
                                       newline="")
    for n_cells, ratio in pairs:
        print(f"N={n_cells}: ratio={ratio:.6f}")
    return 0


# keyed by command, or by mode for probe
_HANDLERS = {"solve": _cmd_solve, "convergence": _cmd_convergence,
             "condnum": _cmd_condnum, "fem": _probe_fem,
             "mesh-info": _cmd_mesh_info, "audit": _probe_audit,
             "kappa": _probe_kappa, "harmonic": _probe_harmonic}
_CASE_JOBS = ("solve", "convergence", "condnum", "fem")


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        job = getattr(args, "mode", args.command)
        problem = None
        if getattr(args, "config", None) is not None:
            problem = _apply_config_file(args, commands[job])
            args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be an integer >= 0, "
                              f"got {args.seed!r}")
        case = _resolve_case(args, problem) if job in _CASE_JOBS else None
        out = None if args.out is None else Path(args.out)
        if out is not None:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out {out}: {exc}") from exc
            if job != "mesh-info":  # every other run echoes its config
                _write_json(out / "config.json",
                            {**vars(args), "version": __version__})
        return _HANDLERS[job](args, case, out)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}),
              file=sys.stderr)
        return 2
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": "numerical", "detail": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
