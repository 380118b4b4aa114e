#!/usr/bin/env python3
"""Check that the command line writes the same bytes as another revision.

Usage: python3 tools/compare_outputs.py <rev> [--rtol R]

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

With ``--rtol R`` an output whose bytes differ only in its numbers counts
as equal when no number moved by more than ``R`` relative; the largest
difference is printed for every differing output, and a difference outside
the numbers counts as infinite.  In a ``.csv`` output each difference is
relative to the largest magnitude in its column, and in a ``.json``
output each number of a list is relative to the largest magnitude in that
list, both taken over both sides, so that small entries (a per-step
slope near zero) weigh no more than the rounding of their neighbours.
Any other number, of JSON or stdout, is compared as ``|a - b| / max(|a|,
|b|)``.  Two numbers closer than the double-precision epsilon (2.2e-16)
count as equal.  The solver's relative residual (also each entry of its
refinement history) is a relative error of rounding size, which
reordering a sum moves by a relative O(1); for it ``R`` bounds the
absolute difference.

Under each differing ``.json`` output, every key whose value moved is
printed with the revision's value and the working tree's, so that a
field that changes by design (``ordering``, ``lu_nnz``) can be told from
a number that moved.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EPS = sys.float_info.epsilon

CASES = ("ex1-const", "ex1-swirl", "ex2-const", "ex2-swirl", "ex3-const",
         "ex3-swirl", "ex1-const-noise-h", "ex1-const-noise-sqrt")

# config file -> its inline problem
INLINE_PROBLEMS = {
    # a swirl problem without beta_sup, so |beta| is sampled at assembly
    "problem.json": {"beta": {"kind": "swirl", "scale": 100.0},
                     "omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]}},
    # ex3-swirl written out: regions with holes and a declared beta_sup
    "ex3-swirl.json": {"omega": {"boxes": [[0.0, 1.0, 0.0, 1.0]],
                                 "holes": [[0.0, 0.875, 0.125, 0.875]]},
                       "target": {"boxes": [[0.0, 1.0, 0.0, 1.0]],
                                  "holes": [[0.0, 0.125, 0.125, 0.875]]},
                       "beta": {"kind": "swirl", "scale": 100.0},
                       "beta_sup": 200.0},
    # ex1-const-noise-h written out: the noise law is a key of the problem
    "ex1-const-noise-h.json": {"omega": {"boxes": [[0.2, 0.45, 0.2, 0.45]]},
                               "target": {"boxes": [[0.2, 0.45, 0.55, 0.8]]},
                               "beta": {"kind": "const", "value": [1.0, 0.0]},
                               "beta_sup": 1.0, "noise": "h"},
}


def command_matrix() -> dict[str, list[str]]:
    """Output label -> ucfem arguments (without --out)."""
    runs = {f"convergence-{case}": ["convergence", "--case", case,
                                    "--ladder", "8,16,32"]
            for case in CASES}
    # the nodal comparison function of the primal stabilizer norm
    runs["convergence-ex1-const-nodal"] = [
        "convergence", "--case", "ex1-const", "--ladder", "8,16,32",
        "--projection", "nodal"]
    runs["solve-ex2-swirl-cond"] = [
        "solve", "--case", "ex2-swirl", "--ladder", "32,64",
        "--cond", "estimate"]
    # meshes whose face weights are not exact binary fractions
    runs["solve-ex2-swirl-cond-n6-12"] = [
        "solve", "--case", "ex2-swirl", "--ladder", "6,12",
        "--cond", "estimate"]
    # the L2 comparison function, s_norm and the rates on those meshes
    runs["convergence-ex2-swirl-n6-12"] = [
        "convergence", "--case", "ex2-swirl", "--ladder", "6,12"]
    # the largest factor input of the matrix, and the estimate through it
    runs["solve-ex2-swirl-cond-n128"] = [
        "solve", "--case", "ex2-swirl", "--ladder", "128",
        "--cond", "estimate"]
    # a rung whose solve takes its refinement step (relative residual
    # about 1.3e-12 -> 2.9e-13); the built-in-case rungs above take none
    runs["solve-ex1-const-n128"] = [
        "solve", "--case", "ex1-const", "--ladder", "128"]
    runs["convergence-ex1-const-cond"] = [
        "convergence", "--case", "ex1-const", "--ladder", "8,16,32",
        "--cond", "estimate"]
    # criterion 2's tolerance: hundreds of sigma_max iterations per rung,
    # where a change in a stopping test shows first
    runs["convergence-ex1-const-cond-tol1e-6"] = [
        "convergence", "--case", "ex1-const", "--ladder", "8,16,32",
        "--cond", "estimate", "--cond-tol", "1e-6"]
    runs["convergence-ex2-swirl-cond"] = [
        "convergence", "--case", "ex2-swirl", "--ladder", "8,16,32",
        "--cond", "estimate"]
    for command in ("solve", "convergence"):
        runs[f"{command}-ex1-const-cond-exact"] = [
            command, "--case", "ex1-const", "--ladder", "4,8",
            "--cond", "exact"]
    # odd N with a constant field: the boundary rows, where boundary and
    # interior terms cancel, and the diagnostics nnz that counts them
    runs["solve-ex3-const-n5-9"] = [
        "solve", "--case", "ex3-const", "--ladder", "5,9"]
    # the estimator hits its iteration cap on both rungs
    runs["convergence-ex1-swirl-cond-cap"] = [
        "convergence", "--case", "ex1-swirl", "--ladder", "4,8",
        "--cond", "estimate", "--cond-cap", "3"]
    runs["probe-fem"] = ["probe", "fem", "--ladder", "8,16,32"]
    # the gradient term of the disc norms
    runs["probe-fem-h1"] = ["probe", "fem", "--ladder", "8,16", "--norm", "h1"]
    # the noise of a noisy case is seeded by --seed
    runs["probe-fem-noise-h-seed0"] = [
        "probe", "fem", "--case", "ex1-const-noise-h", "--ladder", "8",
        "--seed", "0"]
    runs["probe-audit"] = ["probe", "audit", "--samples", "200"]
    runs["probe-kappa"] = ["probe", "kappa"]
    runs["probe-harmonic"] = ["probe", "harmonic", "--kmax", "3",
                              "--resolution", "16", "32"]
    runs["mesh-info-32"] = ["mesh-info", "32"]
    runs["solve-inline-swirl"] = [
        "solve", "--config", "problem.json", "--ladder", "16,32"]
    runs["convergence-inline-ex3-swirl"] = [
        "convergence", "--config", "ex3-swirl.json", "--ladder", "8,16,32"]
    runs["convergence-inline-noise-h-seed3"] = [
        "convergence", "--config", "ex1-const-noise-h.json",
        "--ladder", "8,16,32", "--seed", "3"]
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
    for name, problem in INLINE_PROBLEMS.items():
        (workdir / name).write_text(json.dumps({"problem": problem}))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for label, args in command_matrix().items():
        proc = subprocess.run([sys.executable, "-m", "ucfem", *args,
                               "--out", label],
                              cwd=workdir, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        (workdir / f"{label}.stdout").write_bytes(proc.stdout)
        (workdir / f"{label}.exit").write_text(f"{proc.returncode}\n")
        print(f"  {label}: exit {proc.returncode}", file=sys.stderr)


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    rb"|-?\b(?:nan|NaN|inf|Infinity)\b")
# diagnostics_N*.json keys whose numbers are relative errors
ERROR_KEYS = ("relative_residual", "residual_history")
# the relative residual that ``solve`` prints
RELATIVE_ERROR = re.compile(rb"residual=(" + NUMBER.pattern + rb")")


def _split(text: bytes):
    """The text with its numbers masked, its numbers, and its relative
    errors."""
    errors = RELATIVE_ERROR.findall(text)
    rest = RELATIVE_ERROR.sub(b"<error>", text)
    return NUMBER.sub(b"#", rest), NUMBER.findall(rest), errors


def _worst(triples) -> float:
    """Largest ``|a - b| / scale`` over ``(a, b, scale)``, ignoring
    differences up to EPS; infinity for a NaN quotient."""
    worst = 0.0
    for x, y, scale in triples:
        if x == y or abs(x - y) <= EPS or (math.isnan(x) and math.isnan(y)):
            continue
        rel = abs(x - y) / scale
        worst = math.inf if math.isnan(rel) else max(worst, rel)
    return worst


def max_rel_diff(a: bytes, b: bytes) -> float:
    """Largest difference between the numbers of two texts (relative, or
    absolute for relative errors), ignoring differences up to EPS;
    infinity when the texts differ outside their numbers."""
    (shape_a, nums_a, errs_a), (shape_b, nums_b, errs_b) = _split(a), _split(b)
    if shape_a != shape_b:
        return math.inf
    worst = max((abs(float(x) - float(y)) for x, y in zip(errs_a, errs_b)),
                default=0.0)
    pairs = [(float(x), float(y)) for x, y in zip(nums_a, nums_b)]
    return max(worst, _worst((x, y, max(abs(x), abs(y))) for x, y in pairs))


def max_csv_diff(a: bytes, b: bytes) -> float:
    """Largest difference between the numbers of two CSV texts, each
    relative to the largest magnitude in its column over both texts and
    ignoring differences up to EPS; infinity when the texts differ outside
    their numbers."""
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return math.inf
    columns = defaultdict(list)
    for line_a, line_b in zip(a.splitlines(), b.splitlines()):
        for col, (cell_a, cell_b) in enumerate(zip(line_a.split(b","),
                                                   line_b.split(b","))):
            columns[col] += [(float(x), float(y)) for x, y in
                             zip(NUMBER.findall(cell_a),
                                 NUMBER.findall(cell_b))]
    worst = 0.0
    for pairs in columns.values():
        scale = max((max(abs(x), abs(y)) for x, y in pairs), default=0.0)
        worst = max(worst, _worst((x, y, scale) for x, y in pairs))
    return worst


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_triples(x, y, scale=None):
    """``(a, b, scale)`` for the numbers of two JSON values of one shape:
    the scale of a number in a list is the largest magnitude of that list
    over both values, of any other number ``max(|a|, |b|)``, unless
    ``scale`` is given."""
    if isinstance(x, dict):
        for key in x:
            yield from _json_triples(x[key], y[key],
                                     1.0 if key in ERROR_KEYS else scale)
    elif isinstance(x, list):
        numbers = [abs(float(v)) for v in x + y
                   if _is_number(v) and math.isfinite(v)]
        list_scale = max(numbers, default=0.0) if scale is None else scale
        for u, v in zip(x, y):
            if _is_number(u):
                yield float(u), float(v), list_scale
            else:
                yield from _json_triples(u, v, scale)
    elif _is_number(x):
        yield float(x), float(y), (max(abs(x), abs(y)) if scale is None
                                   else scale)


def max_json_diff(a: bytes, b: bytes) -> float:
    """Largest difference between the numbers of two JSON texts, each in
    a list relative to the largest magnitude in that list over both texts
    (see ``_json_triples``), ignoring differences up to EPS; infinity when
    the texts differ outside their numbers.  A text that is not JSON is
    compared by ``max_rel_diff``."""
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return math.inf
    try:
        old, new = json.loads(a), json.loads(b)
    except ValueError:
        return max_rel_diff(a, b)
    return _worst(_json_triples(old, new))


def _same(x, y) -> bool:
    """Whether two JSON values are equal, NaN equal to NaN."""
    return x == y or (isinstance(x, float) and isinstance(y, float)
                      and math.isnan(x) and math.isnan(y))


def json_changes(a: bytes, b: bytes) -> list[str]:
    """``key: old -> new`` for each value that differs between two JSON
    texts, nested keys joined by dots and list entries indexed; empty
    when either text is not JSON."""
    try:
        old, new = json.loads(a), json.loads(b)
    except ValueError:
        return []
    changes = []

    def walk(path, x, y):
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(x.keys() | y.keys()):
                walk(f"{path}.{key}" if path else key,
                     x.get(key, "<absent>"), y.get(key, "<absent>"))
        elif isinstance(x, list) and isinstance(y, list) \
                and len(x) == len(y):
            for i, (u, v) in enumerate(zip(x, y)):
                walk(f"{path}[{i}]", u, v)
        elif not _same(x, y):
            changes.append(f"{path or '<top level>'}: {json.dumps(x)} -> "
                           f"{json.dumps(y)}")

    walk("", old, new)
    return changes


def differences(a: Path, b: Path, rtol: float | None):
    """Report lines for outputs that differ, and how many of them fail:
    all of them, or those beyond ``rtol`` when it is given."""
    files = {p.relative_to(root) for root in (a, b)
             for p in root.rglob("*") if p.is_file()}
    report = []
    for rel in sorted(files):
        if not (a / rel).exists():
            report.append(f"only in working tree: {rel}")
        elif not (b / rel).exists():
            report.append(f"only in revision: {rel}")
        elif filecmp.cmp(a / rel, b / rel, shallow=False):
            continue
        else:
            old, new = (a / rel).read_bytes(), (b / rel).read_bytes()
            if rtol is None:
                report.append(f"differs: {rel}")
            else:
                measure = {".csv": max_csv_diff,
                           ".json": max_json_diff}.get(rel.suffix,
                                                       max_rel_diff)
                worst = measure(old, new)
                verdict = "within" if worst <= rtol else "differs:"
                report.append(f"{verdict} {rel}  max diff {worst:.3e}")
            if rel.suffix == ".json":
                report += [f"    {line}" for line in json_changes(old, new)]
    failed = sum(line.startswith(("differs", "only")) for line in report)
    return report, failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the command-line outputs of the working tree "
                    "with those of a git revision.")
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--rtol", type=float, default=None,
                        help="accept numbers that moved by at most this "
                             "relative amount (default: byte-exact)")
    args = parser.parse_args(argv)
    rev = args.rev
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
        report, failed = differences(tmp / "runs" / "rev",
                                     tmp / "runs" / "work", args.rtol)
        n_files = sum(1 for p in (tmp / "runs" / "work").rglob("*")
                      if p.is_file())
    for line in report:
        print(line)
    tolerance = "" if args.rtol is None else f" beyond rtol {args.rtol:g}"
    print(f"{failed} of {n_files} outputs differ from {rev}{tolerance}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
