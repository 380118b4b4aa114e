"""Fresh-process worker of the ucfem benchmark: set up, run one pass.

Started by ``run.py``, one process per pass, as a user runs each CLI
command in a fresh process; so set-up and peak memory are per pass and
per workload.  It imports the program from the checkout's ``src``
directory and builds the case table, prints ``ready`` (the parent times
set-up up to this line), runs one pass of the workload (traced with
``--trace 1``) and prints one JSON line: wall time, rung outputs, failed
commands, peak memory, machine facts and, traced, the per-layer metrics.

With ``--setup-only`` it exits after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def set_up():
    """Import the CLI (and with it ucfem, numpy, scipy); build the cases."""
    sys.path.insert(0, str(SRC))
    import ucfem
    import ucfem.cli
    import ucfem.experiments

    if not Path(ucfem.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"ucfem imported from {ucfem.__file__}, "
                         f"not from {SRC}")
    ucfem.experiments.builtin_cases()
    return ucfem.cli.main


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts") \
        .get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {v: os.environ.get(v, "unset")
                             for v in thread_vars},
        "sparse_lu": "SuperLU via scipy.sparse.linalg.splu, single-threaded",
    }


def run(args, cli_main) -> dict:
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer(args.run_id) if args.trace else None
    if tracer:
        tracer.install()
    try:
        result = workloads.run_pass(
            cli_main, workloads.WORKLOADS[args.workload], args.seed, work)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    out = {
        "wall_s": result.wall_s,
        "outputs": result.outputs,
        "errors": result.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "machine": machine_facts(),
    }
    if tracer:
        out["layer_metrics"] = tracer.layer_metrics(result.wall_s)
        tracer.write(OUT / f"spans-{args.run_id}.json")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cli_main = set_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args, cli_main)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
