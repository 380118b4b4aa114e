"""Run the ucfem benchmark: one workload, or all of them in turn.

    python3 perfbench/run.py --workload ladder-suite --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every pass runs in a fresh process (see ``worker.py``).
Human-readable results, the machine facts and each metric with its unit go
to standard output; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
Full results (and, traced, the spans) are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import median_metrics
from worker import OUT, ROOT

WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROBES = 4      # set-up-only processes per run; each pass adds a sample
RUN_TIMEOUT_S = 170   # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _ready(proc, started: float, deadline: float) -> float:
    """Wait for the worker's ``ready`` line; return seconds since start."""
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    if not selector.select(max(0.0, deadline - time.perf_counter())):
        raise BenchError("worker did not become ready in time")
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    if line.strip() != "ready":
        raise BenchError(f"worker failed during set-up: {line.strip()!r}")
    return elapsed


def _worker(args: list, deadline: float):
    """Run a worker; return (its set-up seconds, its last output line)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        setup_s = _ready(proc, started, deadline)
        rest, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Closed loop: one fresh worker process per pass, one after another.

    A new pass (with ``trace``, an untraced/traced pair) starts only when
    it is expected to end within ``seconds``; at least one always runs.
    """
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    references = workloads.load_references()
    noise_seed = workloads.cli_seed(seed, references)
    setups = [_worker(["--setup-only"], deadline)[0]
              for _ in range(SETUP_PROBES)]
    passes, failures = [], {}
    first = None
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = bool(trace) and k % 2 == 1
        began = time.perf_counter()
        setup_s, line = _worker(
            ["--workload", name, "--seed", str(noise_seed), "--trace",
             str(int(traced)), "--run-id", f"{name}-s{seed}-p{k}"], deadline)
        setups.append(setup_s)
        if not line:
            raise BenchError("worker printed no result")
        p = json.loads(line)
        p.update(traced=traced, elapsed_s=time.perf_counter() - began)
        result = workloads.PassResult(p["wall_s"], p["outputs"], p["errors"])
        first = first or result
        bad = workloads.check_pass(name, noise_seed, result, references,
                                   first)
        failures.update({f"p{k}:{rung}": why for rung, why in bad.items()})
        passes.append(p)
        if traced or not trace:
            step = sum(q["elapsed_s"] for q in passes[-1 - trace:])
            if time.perf_counter() - start + step > seconds:
                break

    untraced = [p for p in passes if not p["traced"]]
    attempted = len(workloads.expected_rungs(name)) * len(passes)
    out = {
        "workload": name,
        "seed": seed,
        "cli_seed": noise_seed,
        "passes": len(passes),
        "pass_walls_s": [p["wall_s"] for p in passes],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "setup_samples_s": setups,
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "pass_frac": 1.0 - len(failures) / attempted,
        "machine": passes[0]["machine"],
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = median_metrics([p["layer_metrics"] for p in traced])
        metrics["trace.overhead_s"] = \
            statistics.median(p["wall_s"] for p in traced) - out["wall_s"]
        out["layer_metrics"] = metrics
    return out


def _report(result: dict, spec: dict, trace: int) -> dict:
    """Print one workload's result; return its metrics for the JSON line."""
    m = result["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas={m['blas']!r} threads={m['blas_threads_env']} "
          f"load1={m['loadavg_1m']:.2f}; {m['sparse_lu']}")
    print(f"workload {result['workload']} seed {result['seed']} "
          f"(CLI --seed {result['cli_seed']}): "
          f"{result['passes']} passes, walls "
          + ", ".join(f"{w:.3f}" for w in result["pass_walls_s"]) + " s")
    print(f"  fail_frac    {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4g}")
    for rung, reasons in result["failures"].items():
        print(f"    FAIL {rung}: {'; '.join(reasons)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["layer_metrics"] if trace else result
    notes = {"setup_s": f"median of {len(result['setup_samples_s'])} "
                        f"set-ups",
             "wall_s": f"median of {result['passes']} passes",
             "peak_rss_mb": f"median of {result['passes']} processes"}
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in source:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": source[name], "unit": entry["unit"]}
        print(f"  {name:28s} {source[name]:.6g} {entry['unit']}"
              + (f"  ({notes[name]})" if name in notes else ""))
    if trace and "saddle.lu_nnz" not in source:
        print("  saddle.lu_nnz                absent: the program does not "
              "report LU fill")
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ucfem" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'ucfem'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (names if args.workload == "all" else [args.workload]):
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            metrics = _report(result, spec, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        (OUT / f"result-{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        summary["correct"] &= result["failed"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
