#!/usr/bin/env python3
"""Record the benchmark of the working tree as ``BENCH_<label>.json``.

Usage: python3 tools/bench_record.py <label>

Runs ``perfbench/run.py --workload all`` as it stands, first with
``--trace 0`` and then with ``--trace 1``, each as a subprocess from the
repository root, and reads the result files they write,
``.bench_out/result-<workload>-s0-t{0,1}.json``.  Writes
``BENCH_<label>.json`` at the repository root with the git revision (and
whether the tracked files differ from it), the benchmark seed and the
machine facts of the first untraced run, and per workload:

- ``wall_s``: the median and interquartile range of the untraced run's
  ``pass_walls_s``, with the walls themselves;
- ``setup_s``, ``peak_rss_mb`` and ``pass_frac`` of the untraced run;
- ``layer_metrics`` of the traced run (medians over its traced passes),
  ``saddle.lu_nnz`` included.

Exits with ``run.py``'s code when a run fails; nothing is written then.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / ".bench_out"
SEED = 0  # run.py's default --seed, which names its result files


def median_iqr(values) -> dict:
    """Median and interquartile range (inclusive quartiles) of samples."""
    values = list(values)
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


def baseline(untraced: dict, traced: dict, revision: str,
             dirty: bool) -> dict:
    """The BENCH record of two ``run.py`` results per workload, untraced
    and traced, each keyed by workload name."""
    first = next(iter(untraced.values()))
    workloads = {}
    for name, result in untraced.items():
        workloads[name] = {
            "passes": result["passes"],
            "pass_walls_s": result["pass_walls_s"],
            "wall_s": median_iqr(result["pass_walls_s"]),
            **{key: result[key] for key in ("setup_s", "peak_rss_mb",
                                            "pass_frac")},
            "layer_metrics": traced[name]["layer_metrics"],
        }
    return {"revision": revision, "dirty": dirty, "seed": first["seed"],
            "machine": first["machine"], "workloads": workloads}


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(trace: int) -> dict:
    """Run every workload; return its result per workload name."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                    "--trace", str(trace)], cwd=REPO, check=True)
    names = [w["name"] for w in
             json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    return {name: json.loads((RESULTS / f"result-{name}-s{SEED}-t{trace}"
                                         ".json").read_text())
            for name in names}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        untraced, traced = _run(0), _run(1)
    except subprocess.CalledProcessError as exc:
        return exc.returncode
    record = baseline(untraced, traced, _git("rev-parse", "HEAD"),
                      bool(_git("status", "--porcelain",
                                "--untracked-files=no")))
    path = REPO / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
