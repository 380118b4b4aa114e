"""Command-line front end.

Subcommands: mesh-info, solve, convergence, probe; each probe mode (audit,
kappa, harmonic, fem) is a subcommand of ``probe`` with only the options
it reads.  Every option is a flag.  ``main`` runs each command the same
way: parse; check the seed; resolve the case (solve, convergence and
``probe fem``): ``--case``, or ``case_from_problem`` of the inline problem
that ``--config PATH`` (or ``--config=PATH``) holds as its one key
``problem``, with ``--ladder``, the cond flags and ``--seed`` folded in;
echo the resolved configuration, with the inline problem if any, to
``config.json`` in the output directory; run the handler.  Bad input
exits with 2, and an unknown or bad case, a bad ladder, a
condition-number setting that cannot run or an ``--out`` that is no
directory does so before anything is written; numerical failures exit
with 3.  Every CSV table is written by
``experiments._csv_text``; the columns of ``convergence.csv`` are the
fields of ``ConvergenceRow``.  Outputs are deterministic for a fixed
configuration and seed (timings to stderr).
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
from .experiments import (CaseDefinition, _csv_text, _keys,
                          case_from_problem, get_case, run_case, run_ladder)
from .mesh import build_unit_square_mesh
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
    # the case refuses an empty ladder, an N below 1 and a repeated N
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}") from exc


# every option of ``probe``; each mode takes only the ones it reads
_PROBE_OPTIONS = {
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
        problem = p.add_mutually_exclusive_group()
        problem.add_argument("--config", default=None,
                             help="JSON file holding an inline problem")
        problem.add_argument("--case", default="ex1-const",
                             help="benchmark case name")
        p.add_argument("--ladder", type=_ladder, default=ladder_default,
                       help="comma-separated mesh resolutions")
        p.add_argument("--seed", type=int, default=0, help="noise seed")
        p.add_argument("--cond", choices=["none", "exact", "estimate"],
                       default="none", help="condition number per rung")
        p.add_argument("--out", default=".", help="output directory")

    solve_p = sub.add_parser("solve", help="solve one or more meshes")
    common(solve_p, ladder_default=(32,))

    conv_p = sub.add_parser("convergence", help="run a mesh ladder")
    common(conv_p)
    conv_p.add_argument("--cond-tol", type=float, default=1e-3)
    conv_p.add_argument("--cond-cap", type=int, default=5000,
                        help="iteration cap for the estimator")
    conv_p.add_argument("--projection", choices=["l2", "nodal"], default="l2",
                        help="comparison function for the stabilizer norm")

    probe_p = sub.add_parser("probe", help="stability probes")
    modes = probe_p.add_subparsers(dest="mode", required=True)
    for mode, (help_text, flags) in _PROBE_MODES.items():
        mode_p = modes.add_parser(mode, help=help_text)
        for flag in (*flags, "--out"):
            mode_p.add_argument(flag, **_PROBE_OPTIONS[flag])
    return parser


def _inline_case(args) -> CaseDefinition:
    """The case of the ``--config`` file's ``problem``, its one key; the
    payload and the case's name are echoed in ``config.json``."""
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    with _bad_input():
        _keys(values, ("problem",), "config")
        case = case_from_problem(values.get("problem"))
    args.case, args.problem = case.name, values["problem"]
    return case


def _resolve_case(args) -> CaseDefinition:
    if getattr(args, "config", None) is not None:
        case = _inline_case(args)
    else:
        try:
            case = get_case(args.case)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    with _bad_input():  # the case refuses a ladder or cond setting
        return replace(
            case, ladder=case.ladder if args.ladder is None else args.ladder,
            noise=case.noise and replace(case.noise, seed=args.seed),
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
             "fem": _probe_fem, "mesh-info": _cmd_mesh_info,
             "audit": _probe_audit, "kappa": _probe_kappa,
             "harmonic": _probe_harmonic}
_CASE_JOBS = ("solve", "convergence", "fem")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    job = getattr(args, "mode", args.command)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be an integer >= 0, "
                              f"got {args.seed!r}")
        case = _resolve_case(args) if job in _CASE_JOBS else None
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
