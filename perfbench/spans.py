"""Span recorder for the traced run of the ucfem benchmark.

While installed, every public function (``__all__``) of the library layers
and ``FeFunction.to_csv`` is replaced, in every ``ucfem`` module namespace
that binds it, by a wrapper that records a span: name, start, end, parent
span and run id.  The CLI therefore runs unchanged and calls the wrappers
wherever it or the library calls a layer.  Spans stay in memory and are
written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

LAYERS = ("mesh", "fem", "forms", "saddle", "experiments", "stability")

# per-layer metric -> the span it sums (inclusive time)
SPAN_METRICS = {
    "mesh.build_s": "mesh.build_unit_square_mesh",
    "forms.assemble_s": "forms.assemble_all",
    "fem.interpolate_s": "fem.interpolate",
    "fem.l2_project_s": "fem.l2_project",
    "fem.to_csv_s": "fem.FeFunction.to_csv",
    "experiments.apply_noise_s": "experiments.apply_noise",
    "experiments.error_norms_s": "experiments.error_norms",
    "saddle.build_system_s": "saddle.build_system",
    "saddle.solve_s": "saddle.solve",
    "saddle.cond_s": "saddle.estimate_condition_number",
    "stability.three_ball_s": "stability.three_ball_ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    run: str


class Tracer:
    """Records the spans and solver counters of one pass, run id ``run``."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.counters = {"solves": 0, "unknowns": 0, "matrix_nnz": 0,
                         "factor_s": 0.0, "trisolve_s": 0.0,
                         "rel_residual_max": 0.0, "lu_nnz": None,
                         "cond_iters": 0, "cond_unconverged": 0}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._observers = {"saddle.solve": self._observe_solve,
                           "saddle.estimate_condition_number":
                               self._observe_estimate}

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap the layers' public functions in every ucfem namespace.

        Raises ``LookupError`` when a function that a per-layer metric sums
        is not wrapped (renamed, moved, dropped from ``__all__``), so that
        metric fails as not measured instead of reading 0.
        """
        wrappers, names = {}, {"fem.FeFunction.to_csv"}
        for layer in LAYERS:
            module = importlib.import_module(f"ucfem.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
                    names.add(f"{layer}.{name}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ucfem" and not mod_name.startswith("ucfem."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        fe_function = importlib.import_module("ucfem.fem").FeFunction
        self._patch(fe_function, "to_csv",
                    self._wrap(fe_function.to_csv, "fem.FeFunction.to_csv"))
        missing = sorted(set(SPAN_METRICS.values()) - names)
        if missing:
            self.uninstall()
            raise LookupError("not wrapped, so not measured: "
                              + ", ".join(missing))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, self.run)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- counters read from the program's own return values ----------------
    def _observe_solve(self, solution):
        diag = solution.diagnostics
        c = self.counters
        c["solves"] += 1
        c["unknowns"] += int(diag["dimension"])
        c["matrix_nnz"] += int(diag["nnz"])
        c["factor_s"] += float(diag["factor_seconds"])
        c["trisolve_s"] += float(diag["solve_seconds"])
        c["rel_residual_max"] = max(c["rel_residual_max"],
                                    float(diag["relative_residual"]))
        if "lu_nnz" in diag:
            c["lu_nnz"] = (c["lu_nnz"] or 0) + int(diag["lu_nnz"])

    def _observe_estimate(self, estimate):
        c = self.counters
        c["cond_iters"] += int(sum(estimate.iterations))
        c["cond_unconverged"] += 0 if estimate.converged else 1

    # -- reduction ----------------------------------------------------------
    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced pass with wall time ``wall_s``.

        A layer's self time is its spans' durations minus the time their
        direct child spans cover; ``trace.unattributed_s`` is the pass time
        outside every top-level span, i.e. the CLI front end's own time.
        """
        child = [0.0] * len(self.spans)
        by_name: dict[str, float] = {}
        top_level = 0.0
        for s in self.spans:
            d = s.end - s.start
            by_name[s.name] = by_name.get(s.name, 0.0) + d
            if s.parent is None:
                top_level += d
            else:
                child[s.parent] += d
        metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for s, child_s in zip(self.spans, child):
            layer = s.name.split(".", 1)[0]
            metrics[f"{layer}.self_s"] += (s.end - s.start) - child_s
        for metric, span_name in SPAN_METRICS.items():
            metrics[metric] = by_name.get(span_name, 0.0)
        c = self.counters
        metrics.update({
            "saddle.factor_s": c["factor_s"],
            "saddle.trisolve_s": c["trisolve_s"],
            "saddle.solves": c["solves"],
            "saddle.unknowns": c["unknowns"],
            "saddle.matrix_nnz": c["matrix_nnz"],
            "saddle.rel_residual_max": c["rel_residual_max"],
            "saddle.cond_iters": c["cond_iters"],
            "saddle.cond_unconverged": c["cond_unconverged"],
            "trace.unattributed_s": wall_s - top_level,
        })
        if c["lu_nnz"] is not None:
            metrics["saddle.lu_nnz"] = c["lu_nnz"]
        return metrics

    def write(self, path: Path):
        """Write all spans as JSON, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        rows = [dict(asdict(s), id=k, start=s.start - origin,
                     end=s.end - origin) for k, s in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")


def median_metrics(samples: list) -> dict:
    """Per-metric median over the traced passes of a run."""
    names = {name for sample in samples for name in sample}
    return {name: statistics.median(s[name] for s in samples if name in s)
            for name in sorted(names)}
