#!/usr/bin/env python3
"""Check that the command line writes the same bytes as another revision.

Usage: python3 tools/compare_outputs.py <rev>

Unpacks ``<rev>`` with ``git archive <rev> | tar -x`` into a temporary
directory, then runs one fixed matrix of ``ucfem`` command lines against that
tree and against the working tree, with ``PYTHONPATH`` pointed at each
tree's ``src``.  Every file a command writes is compared, as are its stdout
and exit code; stderr (timings, warnings) is ignored.  Each command runs
with the same relative ``--out`` and ``--config`` paths in both trees, so
the echoed ``config.json`` is comparable too.

Prints every output that differs or exists on one side only, and exits 1
on any difference, 0 when all outputs are byte-identical, 2 when ``<rev>``
cannot be unpacked.  Nothing is left behind in the repository.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CASES = ("ex1-const", "ex1-swirl", "ex2-const", "ex2-swirl", "ex3-const",
         "ex3-swirl", "ex1-const-noise-h", "ex1-const-noise-sqrt")

# a swirl problem without beta_sup, so |beta| is sampled at assembly
INLINE_PROBLEM = {"problem": {"beta": {"kind": "swirl", "scale": 100.0},
                              "omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]}}}


def command_matrix() -> dict[str, list[str]]:
    """Output label -> ucfem arguments (without --out)."""
    runs = {f"convergence-{case}": ["convergence", "--case", case,
                                    "--ladder", "8,16,32"]
            for case in CASES}
    runs["convergence-ex2-swirl-h1-semi"] = [
        "convergence", "--case", "ex2-swirl", "--ladder", "8,16,32",
        "--h1", "semi"]
    runs["solve-ex2-swirl-cond"] = [
        "solve", "--case", "ex2-swirl", "--ladder", "32,64",
        "--cond", "estimate"]
    runs["condnum-ex1-const"] = [
        "condnum", "--case", "ex1-const", "--ladder", "8,16,32",
        "--cond", "estimate"]
    runs["convergence-ex2-swirl-cond"] = [
        "convergence", "--case", "ex2-swirl", "--ladder", "8,16,32",
        "--cond", "estimate"]
    for command in ("solve", "convergence", "condnum"):
        runs[f"{command}-ex1-const-cond-exact"] = [
            command, "--case", "ex1-const", "--ladder", "4,8",
            "--cond", "exact"]
    # the estimator hits its iteration cap on both rungs
    runs["condnum-ex1-swirl-cap"] = [
        "condnum", "--case", "ex1-swirl", "--ladder", "4,8",
        "--cond-cap", "3"]
    runs["probe-fem"] = ["probe", "fem", "--ladder", "8,16,32"]
    runs["mesh-info-32"] = ["mesh-info", "32"]
    for degree in (2, 4):
        runs[f"solve-inline-swirl-q{degree}"] = [
            "solve", "--config", "problem.json", "--ladder", "16,32",
            "--quad-degree", str(degree)]
    return runs


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             capture_output=True, check=True)
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def run_matrix(src: Path, workdir: Path) -> None:
    """Run every command of the matrix with ``src`` on the path."""
    workdir.mkdir(parents=True)
    (workdir / "problem.json").write_text(json.dumps(INLINE_PROBLEM))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for label, args in command_matrix().items():
        proc = subprocess.run([sys.executable, "-m", "ucfem", *args,
                               "--out", label],
                              cwd=workdir, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        (workdir / f"{label}.stdout").write_bytes(proc.stdout)
        (workdir / f"{label}.exit").write_text(f"{proc.returncode}\n")
        print(f"  {label}: exit {proc.returncode}", file=sys.stderr)


def differences(a: Path, b: Path) -> list[str]:
    files = {p.relative_to(root) for root in (a, b)
             for p in root.rglob("*") if p.is_file()}
    report = []
    for rel in sorted(files):
        if not (a / rel).exists():
            report.append(f"only in working tree: {rel}")
        elif not (b / rel).exists():
            report.append(f"only in revision: {rel}")
        elif not filecmp.cmp(a / rel, b / rel, shallow=False):
            report.append(f"differs: {rel}")
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="ucfem-compare-") as tmp:
        tmp = Path(tmp)
        try:
            unpack(rev, tmp / "tree")
        except subprocess.CalledProcessError as exc:
            print(f"cannot unpack {rev!r}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        print(f"revision {rev}:", file=sys.stderr)
        run_matrix(tmp / "tree" / "src", tmp / "runs" / "rev")
        print("working tree:", file=sys.stderr)
        run_matrix(REPO / "src", tmp / "runs" / "work")
        report = differences(tmp / "runs" / "rev", tmp / "runs" / "work")
        n_files = sum(1 for p in (tmp / "runs" / "work").rglob("*")
                      if p.is_file())
    for line in report:
        print(line)
    print(f"{len(report)} of {n_files} outputs differ from {rev}")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
