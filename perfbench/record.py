"""Record the benchmark's reference values from the program in ``src/``.

    python3 perfbench/record.py

Runs every workload once with seeds 0 and 1.  Rungs whose outputs agree
are seed-independent and recorded once; the others depend on the noise seed
and are recorded for each seed 0 .. N_SEEDS-1, re-running only the commands
that produce them.  The gate compares every later program with what this
writes, so run it only on a program whose outputs are known good.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import workloads
from worker import ROOT, set_up

N_SEEDS = 256  # the benchmark's seeds wrap round this range


def record(cli_main, n_seeds: int) -> dict:
    import ucfem

    work = ROOT / ".bench_out" / "record"
    refs = {"program": f"ucfem {ucfem.__version__}", "seeds": n_seeds,
            "workloads": {}}
    try:
        for name, commands in workloads.WORKLOADS.items():
            a, b = (workloads.run_pass(cli_main, commands, seed, work)
                    for seed in (0, 1))
            if a.errors or b.errors:
                raise SystemExit(f"{name}: commands failed: "
                                 f"{a.errors or b.errors}")
            missing = set(workloads.expected_rungs(name)) - set(a.outputs)
            if missing:
                raise SystemExit(f"{name}: no output for {sorted(missing)}")
            fixed = {r: v for r, v in a.outputs.items()
                     if b.outputs[r] == v}
            seeded = {r: {q: [] for q in v} for r, v in a.outputs.items()
                      if r not in fixed}
            noisy = [c for c in commands if set(c.rungs()) & set(seeded)]
            for seed in range(n_seeds if seeded else 0):
                result = workloads.run_pass(cli_main, noisy, seed, work)
                if result.errors:
                    raise SystemExit(f"{name} seed {seed}: {result.errors}")
                for rung, columns in seeded.items():
                    for q, values in columns.items():
                        values.append(result.outputs[rung][q])
            refs["workloads"][name] = {"fixed": fixed, "seeded": seeded}
            print(f"{name}: {len(fixed)} fixed rungs, {len(seeded)} seeded",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return refs


def write(refs: dict) -> None:
    text = json.dumps(refs, indent=1, sort_keys=True)
    # one line per list of per-seed values
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    workloads.REFERENCE_FILE.write_text(text + "\n")


def main() -> int:
    write(record(set_up(), N_SEEDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
