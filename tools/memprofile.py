#!/usr/bin/env python3
"""Memory profile of one ``ucfem`` command line at each sparse LU call.

Usage: python3 tools/memprofile.py [--top K] <ucfem arguments>

Example:
    python3 tools/memprofile.py convergence --case ex1-swirl --ladder 256 \\
        --out /tmp/memprofile

Runs the command in this process, from the ``src`` directory next to this
one, with ``tracemalloc`` tracing every Python allocation (numpy arrays
included) from the start of the command.  ``scipy.sparse.linalg.splu`` is
wrapped; at each call, before SuperLU allocates its factors, it prints:

- the traced live size in MB and the K largest live allocation sites;
- the sparse matrices alive, each distinct data buffer once, with their
  size in MB;
- the process's resident size (``VmRSS``).

When the call returns it prints the factors' fill ``lu.nnz`` (the entries
of L and U that SuperLU stores) and ``VmRSS`` again, which then includes
the factors; a factorization that raises is reported as such.

``scipy.sparse.linalg.spilu`` is wrapped too: ``saddle.build_system``
calls it to have SuperLU order the mesh nodes, and ``VmRSS`` is printed
before and after each such ordering call, so that the memory the
ordering leaves resident can be read off before the factorization.  At exit
it prints the peak resident size (``ru_maxrss``).  Tracing costs time and
some memory of its own, so take wall times and peak memory for
comparisons from the benchmark (``perfbench/run.py``), not from here.
"""

from __future__ import annotations

import argparse
import functools
import gc
import resource
import sys
import tracemalloc
from pathlib import Path

HERE = str(Path(__file__).resolve())
SRC = Path(HERE).parent.parent / "src"
MB = 1024.0 ** 2
FRAMES = 40  # deep enough to reach the ucfem line under numpy and scipy


def vm_rss_mb() -> float:
    """Resident size of this process in MB, or NaN where unavailable."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


def live_sparse_matrices() -> list:
    """(MB, shape, nnz, format) of each live sparse matrix, largest first;
    views that share a data buffer are listed once."""
    import scipy.sparse as sp

    seen, out = set(), []
    for obj in gc.get_objects():
        if not sp.issparse(obj) or not hasattr(obj, "data"):
            continue
        key = obj.data.__array_interface__["data"][0]
        if key in seen:
            continue
        seen.add(key)
        arrays = [getattr(obj, name, None)
                  for name in ("data", "indices", "indptr", "row", "col",
                               "coords")]
        size = 0
        for a in arrays:
            for part in (a if isinstance(a, tuple) else (a,)):
                size += getattr(part, "nbytes", 0)
        out.append((size / MB, obj.shape, obj.nnz, obj.format))
    return sorted(out, reverse=True)


@functools.lru_cache(maxsize=None)
def _is_here(filename: str) -> bool:
    return str(Path(filename).resolve()) == HERE


def _own(trace) -> bool:
    """Whether the profiler allocated the traced block itself: a frame of
    this file is more recent than a frame of the program."""
    in_program = False
    for frame in trace.traceback:  # oldest frame first
        if frame.filename.startswith(str(SRC)):
            in_program = True
        elif in_program and _is_here(frame.filename):
            return True
    return False


def report(call: int, top: int) -> None:
    traces = [t for t in tracemalloc.take_snapshot().traces if not _own(t)]
    live = sum(t.size for t in traces)
    print(f"--- splu call {call}: traced live {live / MB:.1f} MB, "
          f"VmRSS {vm_rss_mb():.1f} MB", flush=True)
    sites: dict = {}
    for trace in traces:
        frame = next((f for f in reversed(trace.traceback)
                      if f.filename.startswith(str(SRC))),
                     trace.traceback[-1])
        key = (frame.filename, frame.lineno)
        size, count = sites.get(key, (0, 0))
        sites[key] = (size + trace.size, count + 1)
    print(f"  largest live allocation sites (innermost line in {SRC.name}/):")
    for (filename, lineno), (size, count) in sorted(
            sites.items(), key=lambda item: -item[1][0])[:top]:
        if filename.startswith(str(SRC)):
            filename = Path(filename).relative_to(SRC)
        print(f"  {size / MB:8.2f} MB  {count:7d} blocks  {filename}:{lineno}")
    print("  sparse matrices alive (MB, shape, nnz, format):")
    for size, shape, nnz, fmt in live_sparse_matrices():
        if size >= 0.01:
            print(f"  {size:8.2f} MB  {shape}  nnz={nnz}  {fmt}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False,
        usage="%(prog)s [--top K] <ucfem arguments>")
    parser.add_argument("--top", type=int, default=12,
                        help="allocation sites listed per call")
    args, command = parser.parse_known_args(argv)
    if not command:
        parser.error("no ucfem command line given")

    sys.path.insert(0, str(SRC))
    import scipy.sparse.linalg as spla

    from ucfem.cli import main as ucfem_main

    real, calls = spla.splu, []
    real_spilu, orderings = spla.spilu, []

    def profiled_splu(*a, **kw):
        calls.append(None)
        report(len(calls), args.top)
        try:
            lu = real(*a, **kw)
        except RuntimeError as exc:
            print(f"--- splu call {len(calls)} raised: {exc}; "
                  f"VmRSS {vm_rss_mb():.1f} MB", flush=True)
            raise
        print(f"--- splu call {len(calls)} returned: lu.nnz {lu.nnz}, "
              f"VmRSS {vm_rss_mb():.1f} MB", flush=True)
        return lu

    def profiled_spilu(*a, **kw):
        orderings.append(None)
        print(f"--- spilu call {len(orderings)} (ordering): "
              f"VmRSS {vm_rss_mb():.1f} MB", flush=True)
        ilu = real_spilu(*a, **kw)
        print(f"--- spilu call {len(orderings)} returned: "
              f"VmRSS {vm_rss_mb():.1f} MB", flush=True)
        return ilu

    spla.splu, spla.spilu = profiled_splu, profiled_spilu
    tracemalloc.start(FRAMES)
    try:
        code = ucfem_main(command)
    finally:
        tracemalloc.stop()
        spla.splu, spla.spilu = real, real_spilu
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"--- exit code {code}; {len(orderings)} spilu and {len(calls)} "
          f"splu calls; ru_maxrss {peak:.1f} MB")
    return code


if __name__ == "__main__":
    sys.exit(main())
