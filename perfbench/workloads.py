"""Workloads and correctness gate of the ucfem benchmark.

A workload is a fixed sequence of ``ucfem`` command lines; one run of that
sequence is a *pass*.  Every command goes through the program's public entry
point ``ucfem.cli.main(argv)`` and writes its artifacts to a directory of the
pass.  A *rung* is one (case, N) reconstruction.  After a pass its outputs
are read back from the artifacts and compared with reference values recorded
from the seed program (``reference.json``, written by ``record.py``).
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# The solver rejects a solve whose relative residual exceeds this gate
# (ucfem.saddle.solve), and the condition estimator stops once successive
# estimates agree to this relative tolerance (estimate_condition_number).
RESIDUAL_GATE = 1e-8
ESTIMATOR_TOL = 1e-3

# The residual gate bounds the backward error only.  Outputs derived from the
# solution move by rounding amplified by the conditioning (which grows like
# h**-4), and no residual bound caps that.  sqrt(gate) = 1e-4 relative admits
# rounding-level changes such as another LU ordering, while a change to the
# discretization (mesh size, quadrature, a dropped form, where the noise
# lands) moves these outputs by O(h), far more.
SOLUTION_RTOL = math.sqrt(RESIDUAL_GATE)
# Stopping on a 1e-3 change between iterates does not bound the estimate's
# error by 1e-3 when the iteration converges slowly; allow ten times that.
COND_RTOL = 10 * ESTIMATOR_TOL

RTOL = {
    "err_l2_B": SOLUTION_RTOL,
    "err_h1_B": SOLUTION_RTOL,
    "u_norm": SOLUTION_RTOL,
    "ratio": SOLUTION_RTOL,
    "cond": COND_RTOL,
}

LADDER_CASES = ("ex1-const", "ex1-swirl", "ex2-const", "ex2-swirl",
                "ex3-const", "ex3-swirl", "ex1-const-noise-h",
                "ex1-const-noise-sqrt")
SMALL_LADDER = (8, 16, 32, 64)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass: ``kind`` selects the subcommand."""

    kind: str  # "convergence", "probe" (probe fem) or "solve" (with cond)
    case: str
    ladder: tuple

    @property
    def label(self) -> str:
        return f"{self.kind}-{self.case}"

    def argv(self, seed: int, out: Path) -> list:
        ladder = ",".join(str(n) for n in self.ladder)
        head = {"convergence": ["convergence"],
                "probe": ["probe", "fem"],
                "solve": ["solve", "--cond", "estimate"]}[self.kind]
        return head + ["--case", self.case, "--ladder", ladder,
                       "--seed", str(seed), "--out", str(out)]

    def rung(self, n) -> str:
        prefix = {"probe": "probe:", "solve": "cond:"}.get(self.kind, "")
        return f"{prefix}{self.case}/N{n}"

    def rungs(self) -> list:
        return [self.rung(n) for n in self.ladder]


WORKLOADS = {
    "solve-256": (Command("convergence", "ex1-swirl", (256,)),),
    "ladder-suite": tuple(Command("convergence", case, SMALL_LADDER)
                          for case in LADDER_CASES)
    + (Command("probe", "ex1-const", SMALL_LADDER),
       Command("solve", "ex2-swirl", (32, 64, 128))),
}


def expected_rungs(workload: str) -> list:
    return [r for cmd in WORKLOADS[workload] for r in cmd.rungs()]


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def extract(cmd: Command, out: Path) -> dict:
    """Rung outputs of one command, read back from its artifacts.

    A rung whose artifact is missing is left out, so the gate fails it.
    """
    found = {}
    if cmd.kind == "convergence":
        path = out / "convergence.csv"
        if path.is_file():
            for row in _read_csv(path):
                found[cmd.rung(row["N"])] = {
                    "err_l2_B": float(row["err_l2_B"]),
                    "err_h1_B": float(row["err_h1_B"])}
    elif cmd.kind == "probe":
        path = out / "probe_fem.csv"
        if path.is_file():
            for row in _read_csv(path):
                found[cmd.rung(row["N"])] = {
                    "ratio": float(row["ratio"])}
    else:
        for n in cmd.ladder:
            diag_path = out / f"diagnostics_N{n}.json"
            u_path = out / f"u_N{n}.csv"
            if not (diag_path.is_file() and u_path.is_file()):
                continue
            diag = json.loads(diag_path.read_text())
            values = [float(row["value"]) for row in _read_csv(u_path)]
            found[cmd.rung(n)] = {
                "cond": float(diag["cond"]),
                "relative_residual": float(diag["relative_residual"]),
                "u_norm": math.sqrt(math.fsum(v * v for v in values))}
    return found


@dataclass
class PassResult:
    wall_s: float
    outputs: dict   # rung -> {quantity: value}
    errors: dict    # command label -> exit code or exception text


def run_pass(cli_main, commands, seed: int, out: Path) -> PassResult:
    """Run the commands of a pass once; only the CLI calls are timed.

    Garbage left by earlier commands is collected before each timed call,
    as a user's fresh CLI process would have none; uncollected cycles
    holding large arrays otherwise slow every later pass of a run.  The
    CLI's console output is captured, and shown on stderr only when a
    command fails.
    """
    if out.exists():
        shutil.rmtree(out)
    dirs = [out / cmd.label for cmd in commands]
    codes = []
    wall = 0.0
    for cmd, cmd_out in zip(commands, dirs):
        console = io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(console), \
                    contextlib.redirect_stderr(console):
                code = cli_main(cmd.argv(seed, cmd_out))
        except Exception:  # a traceback fails every rung of the command
            code = traceback.format_exc()
        wall += time.perf_counter() - t0
        codes.append(code)
        if code != 0:
            print(f"{cmd.label} failed ({code!r}); output:\n"
                  f"{console.getvalue()}", file=sys.stderr)
    outputs, errors = {}, {}
    for cmd, cmd_out, code in zip(commands, dirs, codes):
        if code == 0:
            outputs.update(extract(cmd, cmd_out))
        else:
            errors[cmd.label] = code
    return PassResult(wall, outputs, errors)


def load_references(path: Path = REFERENCE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cli_seed(seed: int, references: dict) -> int:
    """The ``--seed`` given to the CLI for the benchmark's seed ``seed``.

    Rungs of noisy cases depend on the noise seed and are recorded for seeds
    0 .. references["seeds"] - 1, so seeds wrap round that range and every
    rung of every run is checked against a reference.
    """
    return seed % references["seeds"]


def reference_for(references: dict, workload: str, rung: str, seed: int):
    """Reference values of a rung for CLI seed ``seed``."""
    table = references["workloads"][workload]
    if rung in table["fixed"]:
        return table["fixed"][rung]
    return {name: values[seed]
            for name, values in table["seeded"][rung].items()}


def check_rung(values, reference) -> list:
    """Reasons the rung's outputs fail the gate; empty when it passes."""
    if values is None:
        return ["no output"]
    reasons = [f"{name}={v!r} not finite" for name, v in values.items()
               if not math.isfinite(v)]
    residual = values.get("relative_residual")
    if residual is not None and residual > RESIDUAL_GATE:
        reasons.append(f"relative_residual={residual:.3e} > {RESIDUAL_GATE}")
    for name, ref in reference.items():
        if name not in RTOL:
            continue
        got = values.get(name)
        if got is None:
            reasons.append(f"{name} missing")
        elif not abs(got - ref) <= RTOL[name] * abs(ref):
            reasons.append(f"{name}={got!r} vs reference {ref!r} "
                           f"(rtol {RTOL[name]:g})")
    return reasons


def check_pass(workload: str, seed: int, result: PassResult, references,
               first: PassResult | None = None) -> dict:
    """Gate one pass run with CLI seed ``seed``.

    Returns the failing rungs with their reasons.  Every pass of a run must
    reproduce the first pass bit for bit.
    """
    failures = {}
    for cmd in WORKLOADS[workload]:
        for rung in cmd.rungs():
            if cmd.label in result.errors:
                failures[rung] = [f"exit {result.errors[cmd.label]!r}"]
                continue
            values = result.outputs.get(rung)
            reasons = check_rung(
                values, reference_for(references, workload, rung, seed))
            if first is not None and first is not result and values \
                    and first.outputs.get(rung) != values:
                reasons.append("differs from the first pass of the run")
            if reasons:
                failures[rung] = reasons
    return failures
