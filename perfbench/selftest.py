"""Self-test of the benchmark's correctness gate (the count behind fail_frac).

    python3 perfbench/selftest.py

Runs one pass of every workload, with seed 0, on the program in ``src/``
and requires:

* the unmodified program passes the gate on every rung (fail_frac = 0);
* a reference value moved by ten times its tolerance fails exactly that
  rung, and one moved by half its tolerance fails none;
* a residual above the solver's gate, and an output that differs from the
  run's first pass, each fail their rung;
* a CLI that exits with code 3, or raises, fails every rung of the pass.

Exits with 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import math
import shutil
import sys

import workloads
from worker import ROOT, set_up


SEED = 0


def main() -> int:
    cli_main = set_up()
    refs = workloads.load_references()
    work = ROOT / ".bench_out" / "selftest"
    broken = []
    results = {}

    def expect(label, failures, wanted):
        ok = set(failures) == set(wanted)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: "
              f"{len(failures)} rungs failed, expected {len(wanted)}")
        if not ok:
            broken.append(label)
            for rung, reasons in failures.items():
                print(f"       {rung}: {'; '.join(reasons)}")

    def gate(name, result, references=refs, first=None):
        return workloads.check_pass(name, SEED, result, references, first)

    try:
        for name, commands in workloads.WORKLOADS.items():
            result = results[name] = workloads.run_pass(
                cli_main, commands, SEED, work)
            expect(f"{name}: unmodified program", gate(name, result), [])

            fixed = refs["workloads"][name]["fixed"]
            rung = next(iter(sorted(fixed)))
            quantity = next(q for q in sorted(fixed[rung])
                            if q in workloads.RTOL)
            for factor, wanted in ((10.0, [rung]), (0.5, [])):
                moved = copy.deepcopy(refs)
                moved["workloads"][name]["fixed"][rung][quantity] *= \
                    1 + factor * workloads.RTOL[quantity]
                expect(f"{name}: {rung} {quantity} reference moved by "
                       f"{factor:g} x rtol", gate(name, result, moved),
                       wanted)

            changed = copy.deepcopy(result)
            value = changed.outputs[rung][quantity]
            changed.outputs[rung][quantity] = math.nextafter(value, math.inf)
            expect(f"{name}: {rung} output differs from the first pass",
                   gate(name, changed, first=result), [rung])

        name = "ladder-suite"
        commands = workloads.WORKLOADS[name]
        result = copy.deepcopy(results[name])
        rung = next(c for c in commands if c.kind == "solve").rungs()[-1]
        result.outputs[rung]["relative_residual"] = \
            10 * workloads.RESIDUAL_GATE
        expect(f"{name}: {rung} residual above the solver's gate",
               gate(name, result), [rung])

        def raises(argv):
            raise RuntimeError("forced failure")

        for label, stub in (("exits with code 3", lambda argv: 3),
                            ("raises", raises)):
            result = workloads.run_pass(stub, commands, SEED, work)
            expect(f"{name}: CLI {label}", gate(name, result),
                   workloads.expected_rungs(name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("gate self-test " + ("failed: " + ", ".join(broken) if broken
                               else "passed"))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
